/* Compiled move-generation kernel.
 *
 * The algorithm of `cogchess/_movegen_py.py`, ported function by function
 * under the same names and in the same order, so that the two read side
 * by side; the Python entry points follow at the end. Same contract: a
 * flat 64-byte mailbox (a1 = 0 .. h8 = 63, rank-major) with piece codes
 * 1..6 for white pawn/knight/bishop/rook/queen/king and 7..12 for black,
 * moves as sorted `(frm, to, promo, flags)` int tuples. The two kernels
 * must return bit-identical results; `tests/test_kernel_parity.py`
 * enforces it.
 *
 * Inside the kernel a move is one int, frm<<16 | to<<8 | promo<<5 | flags,
 * so that integer order is tuple order. The squares argument is any
 * buffer (`bytes`, `bytearray`) of exactly 64 bytes, and a square index,
 * an en-passant move's captured square included, must lie in 0..63;
 * anything else raises ValueError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

enum { EMPTY, WP, WN, WB, WR, WQ, WK, BP, BN, BB, BR, BQ, BK };
enum { FLAG_CAPTURE = 1, FLAG_CASTLE_K = 2, FLAG_CASTLE_Q = 4,
       FLAG_EP = 8, FLAG_DOUBLE = 16 };
enum { CASTLE_WK = 1, CASTLE_WQ = 2, CASTLE_BK = 4, CASTLE_BQ = 8 };

static const int KNIGHT[8][2] = {
    {1, 2}, {2, 1}, {2, -1}, {1, -2}, {-1, -2}, {-2, -1}, {-2, 1}, {-1, 2}};
static const int KING[8][2] = {
    {1, 0}, {1, 1}, {0, 1}, {-1, 1}, {-1, 0}, {-1, -1}, {0, -1}, {1, -1}};
/* `_ORTH + _DIAG`: a rook walks the first four rays, a bishop the last four */
static const int RAYS[8][2] = {
    {1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}};

typedef uint64_t Mask; /* a set of squares, bit i for square i */
#define ALL_SQUARES (~(Mask)0)
#define BIT(s) ((Mask)1 << (s))

#define ON_BOARD(f, r) ((unsigned)(f) <= 7 && (unsigned)(r) <= 7)
#define MOVE(frm, to, promo, flags) ((frm) << 16 | (to) << 8 | (promo) << 5 | (flags))
#define M_FRM(m) ((m) >> 16)
#define M_TO(m) ((m) >> 8 & 255)
#define M_PROMO(m) ((m) >> 5 & 7)
#define M_FLAGS(m) ((m) & 31)
/* No square yields more than a queen's 27 pseudo-moves (a pawn at most
   12), and castling adds two. */
#define MAX_MOVES (64 * 27 + 2)

static int _is_white(int p)
{
    return 1 <= p && p <= 6;
}

/* True if `target` is attacked by at least one piece of the given color. */
static int attacked(const unsigned char *sq, int target, int by_white)
{
    int tf = target & 7, tr = target >> 3;
    int kn, kg, rk, bi, qu, d, f, r, p;

    if (by_white) {
        /* White pawns attack one rank up; look one rank down from the target. */
        if (tr >= 1) {
            if (tf >= 1 && sq[target - 9] == WP)
                return 1;
            if (tf <= 6 && sq[target - 7] == WP)
                return 1;
        }
        kn = WN; kg = WK; rk = WR; bi = WB; qu = WQ;
    } else {
        if (tr <= 6) {
            if (tf >= 1 && sq[target + 7] == BP)
                return 1;
            if (tf <= 6 && sq[target + 9] == BP)
                return 1;
        }
        kn = BN; kg = BK; rk = BR; bi = BB; qu = BQ;
    }

    for (d = 0; d < 8; d++) {
        f = tf + KNIGHT[d][0];
        r = tr + KNIGHT[d][1];
        if (ON_BOARD(f, r) && sq[r * 8 + f] == kn)
            return 1;
    }
    for (d = 0; d < 8; d++) {
        f = tf + KING[d][0];
        r = tr + KING[d][1];
        if (ON_BOARD(f, r) && sq[r * 8 + f] == kg)
            return 1;
    }
    for (d = 0; d < 8; d++) {
        int slider = d < 4 ? rk : bi;
        for (f = tf + RAYS[d][0], r = tr + RAYS[d][1]; ON_BOARD(f, r);
             f += RAYS[d][0], r += RAYS[d][1]) {
            p = sq[r * 8 + f];
            if (p != EMPTY) {
                if (p == slider || p == qu)
                    return 1;
                break;
            }
        }
    }
    return 0;
}

static Mask attack_targets(const unsigned char *sq, int frm);

/* All pieces of the given color attacking `target`. */
static Mask attackers(const unsigned char *sq, int target, int by_white)
{
    Mask out = 0;
    int i;
    for (i = 0; i < 64; i++) {
        int p = sq[i];
        if (p == EMPTY || _is_white(p) != by_white)
            continue;
        if (attack_targets(sq, i) & BIT(target))
            out |= BIT(i);
    }
    return out;
}

/* Squares attacked by the piece at `frm` (pawn capture squares only). */
static Mask attack_targets(const unsigned char *sq, int frm)
{
    int p = sq[frm], f = frm & 7, r = frm >> 3;
    int kind = p <= 6 ? p : p - 6;
    int d, df, nf, nr;
    Mask out = 0;

    if (p == EMPTY)
        return 0;
    if (kind == WP) {
        int dr = p == WP ? 1 : -1;
        for (df = -1; df <= 1; df += 2) {
            nf = f + df;
            nr = r + dr;
            if (ON_BOARD(nf, nr))
                out |= BIT(nr * 8 + nf);
        }
    } else if (kind == WN || kind == WK) {
        const int (*deltas)[2] = kind == WN ? KNIGHT : KING;
        for (d = 0; d < 8; d++) {
            nf = f + deltas[d][0];
            nr = r + deltas[d][1];
            if (ON_BOARD(nf, nr))
                out |= BIT(nr * 8 + nf);
        }
    } else {
        int first = kind == WB ? 4 : 0, last = kind == WR ? 4 : 8;
        for (d = first; d < last; d++) {
            for (nf = f + RAYS[d][0], nr = r + RAYS[d][1]; ON_BOARD(nf, nr);
                 nf += RAYS[d][0], nr += RAYS[d][1]) {
                out |= BIT(nr * 8 + nf);
                if (sq[nr * 8 + nf] != EMPTY)
                    break;
            }
        }
    }
    return out;
}

/* Lowest square holding the side's king, or -1. */
static int _king_square(const unsigned char *sq, int white)
{
    const unsigned char *k = memchr(sq, white ? WK : BK, 64);
    return k ? (int)(k - sq) : -1;
}

static int in_check(const unsigned char *sq, int white)
{
    int k = _king_square(sq, white);
    return k >= 0 && attacked(sq, k, !white);
}

/* Pseudo-legal moves for the side to move (0 = white, 1 = black), written
   to `out`; returns their number. */
static int _pseudo_moves(const unsigned char *sq, int stm, int castling,
                         int ep, int *out)
{
    int white = stm == 0, n = 0, i, d, df, pk;

    for (i = 0; i < 64; i++) {
        int p = sq[i], f = i & 7, r = i >> 3, kind, to, tp, nf, nr;
        if (p == EMPTY || _is_white(p) != white)
            continue;
        kind = p <= 6 ? p : p - 6;

        if (kind == WP) {
            int fwd = white ? 8 : -8, start_r = white ? 1 : 6;
            int promo_r = white ? 7 : 0, dr = white ? 1 : -1;
            to = i + fwd;
            /* (a pawn on its last rank has no push) */
            if ((unsigned)to < 64 && sq[to] == EMPTY) {
                if ((to >> 3) == promo_r) {
                    for (pk = WN; pk <= WQ; pk++)
                        out[n++] = MOVE(i, to, pk, 0);
                } else {
                    out[n++] = MOVE(i, to, 0, 0);
                    if (r == start_r && sq[i + 2 * fwd] == EMPTY)
                        out[n++] = MOVE(i, i + 2 * fwd, 0, FLAG_DOUBLE);
                }
            }
            for (df = -1; df <= 1; df += 2) {
                nf = f + df;
                nr = r + dr;
                if (!ON_BOARD(nf, nr))
                    continue;
                to = nr * 8 + nf;
                tp = sq[to];
                if (tp != EMPTY && _is_white(tp) != white) {
                    if (nr == promo_r) {
                        for (pk = WN; pk <= WQ; pk++)
                            out[n++] = MOVE(i, to, pk, FLAG_CAPTURE);
                    } else {
                        out[n++] = MOVE(i, to, 0, FLAG_CAPTURE);
                    }
                } else if (to == ep && ep >= 0) {
                    out[n++] = MOVE(i, to, 0, FLAG_CAPTURE | FLAG_EP);
                }
            }
        } else if (kind == WN || kind == WK) {
            const int (*deltas)[2] = kind == WN ? KNIGHT : KING;
            for (d = 0; d < 8; d++) {
                nf = f + deltas[d][0];
                nr = r + deltas[d][1];
                if (!ON_BOARD(nf, nr))
                    continue;
                to = nr * 8 + nf;
                tp = sq[to];
                if (tp == EMPTY)
                    out[n++] = MOVE(i, to, 0, 0);
                else if (_is_white(tp) != white)
                    out[n++] = MOVE(i, to, 0, FLAG_CAPTURE);
            }
        } else {
            int first = kind == WB ? 4 : 0, last = kind == WR ? 4 : 8;
            for (d = first; d < last; d++) {
                for (nf = f + RAYS[d][0], nr = r + RAYS[d][1]; ON_BOARD(nf, nr);
                     nf += RAYS[d][0], nr += RAYS[d][1]) {
                    to = nr * 8 + nf;
                    tp = sq[to];
                    if (tp == EMPTY) {
                        out[n++] = MOVE(i, to, 0, 0);
                    } else {
                        if (_is_white(tp) != white)
                            out[n++] = MOVE(i, to, 0, FLAG_CAPTURE);
                        break;
                    }
                }
            }
        }
    }

    /* Castling: rights bit, rook home, empty between, king and transit not attacked. */
    if (white) {
        if ((castling & CASTLE_WK) && sq[4] == WK && sq[7] == WR
                && sq[5] == EMPTY && sq[6] == EMPTY
                && !attacked(sq, 4, 0) && !attacked(sq, 5, 0))
            out[n++] = MOVE(4, 6, 0, FLAG_CASTLE_K);
        if ((castling & CASTLE_WQ) && sq[4] == WK && sq[0] == WR
                && sq[1] == EMPTY && sq[2] == EMPTY && sq[3] == EMPTY
                && !attacked(sq, 4, 0) && !attacked(sq, 3, 0))
            out[n++] = MOVE(4, 2, 0, FLAG_CASTLE_Q);
    } else {
        if ((castling & CASTLE_BK) && sq[60] == BK && sq[63] == BR
                && sq[61] == EMPTY && sq[62] == EMPTY
                && !attacked(sq, 60, 1) && !attacked(sq, 61, 1))
            out[n++] = MOVE(60, 62, 0, FLAG_CASTLE_K);
        if ((castling & CASTLE_BQ) && sq[60] == BK && sq[56] == BR
                && sq[57] == EMPTY && sq[58] == EMPTY && sq[59] == EMPTY
                && !attacked(sq, 60, 1) && !attacked(sq, 59, 1))
            out[n++] = MOVE(60, 58, 0, FLAG_CASTLE_Q);
    }
    return n;
}

/* Apply a move to the mutable array `arr` in place. */
static void _make(unsigned char *arr, int stm, int frm, int to, int promo,
                  int flags)
{
    int white = stm == 0, p = arr[frm];
    if (flags & FLAG_EP)
        arr[white ? to - 8 : to + 8] = EMPTY;
    arr[frm] = EMPTY;
    if (promo)
        arr[to] = (unsigned char)(white ? promo : promo + 6);
    else
        arr[to] = (unsigned char)p;
    if (flags & FLAG_CASTLE_K) {
        if (white) {
            arr[7] = EMPTY;
            arr[5] = WR;
        } else {
            arr[63] = EMPTY;
            arr[61] = BR;
        }
    } else if (flags & FLAG_CASTLE_Q) {
        if (white) {
            arr[0] = EMPTY;
            arr[3] = WR;
        } else {
            arr[56] = EMPTY;
            arr[59] = BR;
        }
    }
}

/* Moves that are always made on a copy and tested with `attacked`: en
   passant empties two squares of one rank, and castling moves the king. */
#define FULL_TEST_FLAGS (FLAG_EP | FLAG_CASTLE_K | FLAG_CASTLE_Q)

/* Pinned pieces and check evasions of the side whose king is on `king`.
 *
 * Walks the eight rays out from the king once. `*pinned` gets each of the
 * side's pieces that stands alone between the king and an enemy slider
 * moving along that ray. `*evasions` gets the squares a move by any other
 * piece must land on: every square when the king is not attacked (where
 * the Python kernel says None); otherwise the checker and the squares
 * between it and the king, and none at all on a double check.
 */
static void _pins_and_evasions(const unsigned char *sq, int king, int white,
                               Mask *pinned, Mask *evasions)
{
    int rk = white ? BR : WR, bi = white ? BB : WB, qu = white ? BQ : WQ;
    int kn = white ? BN : WN, kg = white ? BK : WK, pw = white ? BP : WP;
    int kf = king & 7, kr = king >> 3, checkers = 0, d, f, r, p;

    *pinned = 0;
    *evasions = 0;
    for (d = 0; d < 8; d++) {
        int slider = d < 4 ? rk : bi, blocker = -1;
        Mask ray = 0;
        for (f = kf + RAYS[d][0], r = kr + RAYS[d][1]; ON_BOARD(f, r);
             f += RAYS[d][0], r += RAYS[d][1]) {
            int s = r * 8 + f;
            ray |= BIT(s);
            p = sq[s];
            if (p == EMPTY)
                continue;
            if ((p <= 6) == white) {
                if (blocker >= 0)
                    break;
                blocker = s;
                continue;
            }
            if (p == slider || p == qu) {
                if (blocker >= 0) {
                    *pinned |= BIT(blocker);
                } else {
                    checkers++;
                    *evasions |= ray;
                }
            }
            break;
        }
    }
    /* `attacked` counts an adjacent enemy king, so it is a checker here too */
    for (d = 0; d < 8; d++) {
        f = kf + KNIGHT[d][0];
        r = kr + KNIGHT[d][1];
        if (ON_BOARD(f, r) && sq[r * 8 + f] == kn) {
            checkers++;
            *evasions |= BIT(r * 8 + f);
        }
        f = kf + KING[d][0];
        r = kr + KING[d][1];
        if (ON_BOARD(f, r) && sq[r * 8 + f] == kg) {
            checkers++;
            *evasions |= BIT(r * 8 + f);
        }
    }
    /* an enemy pawn attacks the king from one rank ahead of it */
    r = white ? kr + 1 : kr - 1;
    for (f = kf - 1; f <= kf + 1; f += 2) {
        if (ON_BOARD(f, r) && sq[r * 8 + f] == pw) {
            checkers++;
            *evasions |= BIT(r * 8 + f);
        }
    }
    if (!checkers)
        *evasions = ALL_SQUARES;
    else if (checkers > 1)
        *evasions = 0;
}

/* The legal ones of the `n` pseudo-moves `moves`, in their order, written
 * to `out` (which may be `moves` itself); returns their number. With `out`
 * NULL, returns 1 at the first legal move and 0 if there is none.
 *
 * `king`, `pinned` and `evasions` come from `_pins_and_evasions`. A move
 * by a piece other than the king that misses the evasion squares is
 * illegal; one that is not en passant or castling, by a piece that is not
 * pinned, is legal otherwise. Every other move is made on a copy of `sq`
 * and tested there with `attacked`. A king move (castling included) leaves
 * its king on the move's target.
 */
static int _legal_among(const unsigned char *sq, int stm, const int *moves,
                        int n, int king, Mask pinned, Mask evasions, int *out)
{
    int white = stm == 0, count = 0, i;
    for (i = 0; i < n; i++) {
        int m = moves[i], frm = M_FRM(m), to = M_TO(m), flags = M_FLAGS(m);
        int full_test = frm == king || (flags & FULL_TEST_FLAGS);
        if (!full_test && !(evasions & BIT(to)))
            continue;
        if (full_test || (pinned & BIT(frm))) {
            unsigned char arr[64];
            memcpy(arr, sq, 64);
            _make(arr, stm, frm, to, M_PROMO(m), flags);
            if (attacked(arr, frm == king ? to : king, !white))
                continue;
        }
        if (!out)
            return 1;
        out[count++] = m;
    }
    return count;
}

/* Legal moves of the position in `sq`, in generation order, written to
 * `out` (room for MAX_MOVES); returns their number.
 *
 * The side's king is found, and its pinned pieces and checkers computed,
 * once per position (`_pins_and_evasions`); only king moves, castling,
 * en passant and moves by pinned pieces then need to be made on a copy
 * and tested. Without a king every pseudo-move is legal.
 */
static int _legal(const unsigned char *sq, int stm, int castling, int ep,
                  int *out)
{
    int white = stm == 0, king = _king_square(sq, white);
    int n = _pseudo_moves(sq, stm, castling, ep, out);
    Mask pinned, evasions;
    if (king < 0)
        return n;
    _pins_and_evasions(sq, king, white, &pinned, &evasions);
    return _legal_among(sq, stm, out, n, king, pinned, evasions, out);
}

/* Whether the side to move has a legal move; `bool(legal_moves(...))`.
 *
 * Stops at the first legal move it finds. King steps come first, each
 * tested on a copy of the board with the king lifted off. Then the other
 * pieces' pseudo-moves go through the same pin, checker and evasion filter
 * as `_legal`. Castling is not tried: it is generated only when the king's
 * square and the one it crosses are not attacked, and then the plain step
 * onto that crossed square is legal already. Without a king every
 * pseudo-move is legal, as in `_legal`.
 */
static int has_legal_move(const unsigned char *sq, int stm, int castling,
                          int ep)
{
    int white = stm == 0, king = _king_square(sq, white);
    int moves[MAX_MOVES], n, others, i, d;
    unsigned char lifted[64];
    Mask pinned, evasions;

    if (king < 0)
        return _pseudo_moves(sq, stm, castling, ep, moves) > 0;
    memcpy(lifted, sq, 64);
    lifted[king] = EMPTY;
    for (d = 0; d < 8; d++) {
        int f = (king & 7) + KING[d][0], r = (king >> 3) + KING[d][1], p;
        if (!ON_BOARD(f, r))
            continue;
        p = sq[r * 8 + f];
        if ((p == EMPTY || (p <= 6) != white) && !attacked(lifted, r * 8 + f, !white))
            return 1;
    }
    _pins_and_evasions(sq, king, white, &pinned, &evasions);
    n = _pseudo_moves(sq, stm, castling, ep, moves);
    for (i = others = 0; i < n; i++)
        if (M_FRM(moves[i]) != king)
            moves[others++] = moves[i];
    return _legal_among(sq, stm, moves, others, king, pinned, evasions, NULL);
}

/* How the side of the given color can check the enemy king on `king`.
 *
 * `direct[p]` gets the squares from which the side's piece with code `p`
 * would attack the king on the board as it stands: a pawn's and a
 * knight's from their offsets, a bishop's, rook's and queen's along the
 * rays out from the king up to and including the first occupied square. A
 * king gives no direct check, since a legal king move never lands next to
 * the other king. `opens[s]` gets, for each of the side's pieces on `s`
 * that stands alone between the king and one of the side's sliders moving
 * along that line (a discovered-check blocker), the squares between the
 * king and that slider; a move from `s` to a square off that set uncovers
 * the check. It is 0 for every other square, since a blocker's set holds
 * at least its own square.
 */
static void _check_squares(const unsigned char *sq, int king, int white,
                           Mask direct[BK + 1], Mask opens[64])
{
    int pw = white ? WP : BP, kn = white ? WN : BN, bi = white ? WB : BB;
    int rk = white ? WR : BR, qu = white ? WQ : BQ;
    int kf = king & 7, kr = king >> 3, d, f, r;
    Mask lines[2] = {0, 0}; /* the rook's and the bishop's squares */

    memset(direct, 0, (BK + 1) * sizeof(Mask));
    memset(opens, 0, 64 * sizeof(Mask));
    /* a pawn attacks the king from one rank behind it, seen from its side */
    r = white ? kr - 1 : kr + 1;
    for (f = kf - 1; f <= kf + 1; f += 2)
        if (ON_BOARD(f, r))
            direct[pw] |= BIT(r * 8 + f);
    for (d = 0; d < 8; d++) {
        f = kf + KNIGHT[d][0];
        r = kr + KNIGHT[d][1];
        if (ON_BOARD(f, r))
            direct[kn] |= BIT(r * 8 + f);
    }
    for (d = 0; d < 8; d++) {
        int slider = d < 4 ? rk : bi, blocker = -1;
        Mask between = 0;
        for (f = kf + RAYS[d][0], r = kr + RAYS[d][1]; ON_BOARD(f, r);
             f += RAYS[d][0], r += RAYS[d][1]) {
            int s = r * 8 + f, p = sq[s];
            if (blocker < 0)
                lines[d >= 4] |= BIT(s);
            if (p != EMPTY) {
                if (blocker >= 0) {
                    if (p == slider || p == qu)
                        opens[blocker] = between;
                    break;
                }
                if ((p <= 6) != white)
                    break;
                blocker = s;
            }
            between |= BIT(s);
        }
    }
    direct[bi] = lines[1];
    direct[rk] = lines[0];
    direct[qu] = lines[0] | lines[1];
}

/* Whether the legal move frm, to, promo, flags gives check to the enemy
 * king on `king`: the per-move test of `checking_moves` in
 * `_movegen_py.py`. `direct` and `opens` come from `_check_squares`. En
 * passant, castling and promotions are made on a copy of `sq` and tested
 * there with `attacked`; any other move is one lookup in each set.
 */
static int _gives_check(const unsigned char *sq, int stm, int king,
                        const Mask *direct, const Mask *opens, int frm, int to,
                        int promo, int flags)
{
    int p = sq[frm];
    if (promo || (flags & FULL_TEST_FLAGS)) {
        unsigned char arr[64];
        memcpy(arr, sq, 64);
        _make(arr, stm, frm, to, promo, flags);
        return attacked(arr, king, stm == 0);
    }
    /* (`p <= BK`: a squares buffer may hold any byte) */
    return (p <= BK && (direct[p] & BIT(to)))
           || (opens[frm] && !(opens[frm] & BIT(to)));
}

static int _update_castling(int castling, int frm, int to)
{
    if (frm == 4)
        castling &= ~(CASTLE_WK | CASTLE_WQ);
    else if (frm == 60)
        castling &= ~(CASTLE_BK | CASTLE_BQ);
    if (frm == 0 || to == 0)
        castling &= ~CASTLE_WQ;
    if (frm == 7 || to == 7)
        castling &= ~CASTLE_WK;
    if (frm == 56 || to == 56)
        castling &= ~CASTLE_BQ;
    if (frm == 63 || to == 63)
        castling &= ~CASTLE_BK;
    return castling;
}

static long long _perft_inner(const unsigned char *sq, int stm, int castling,
                              int ep, int depth)
{
    int moves[MAX_MOVES];
    int n = _legal(sq, stm, castling, ep, moves), i;
    long long total = 0;
    if (depth == 1)
        return n;
    for (i = 0; i < n; i++) {
        int m = moves[i], frm = M_FRM(m), to = M_TO(m), flags = M_FLAGS(m);
        int new_ep = flags & FLAG_DOUBLE ? (frm + to) / 2 : -1;
        unsigned char arr[64];
        memcpy(arr, sq, 64);
        _make(arr, stm, frm, to, M_PROMO(m), flags);
        total += _perft_inner(arr, 1 - stm, _update_castling(castling, frm, to),
                              new_ep, depth - 1);
    }
    return total;
}

/* -- Python entry points ---------------------------------------------------- */

/* Read the positional arguments of `name` as `spec` lists them, one letter
 * each: 's' a 64-byte squares buffer, copied into `sq`; 'q' a square index
 * in 0..63, 'i' an int and 'b' a truth value, each into `ints` at its
 * argument's position; 'm' a sequence of moves, which the entry reads
 * itself (`parse_move`). Returns -1 with an exception set on a bad
 * argument.
 */
static int parse(PyObject *const *args, Py_ssize_t nargs, const char *name,
                 const char *spec, unsigned char *sq, int *ints)
{
    Py_ssize_t i, want = (Py_ssize_t)strlen(spec);
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    for (i = 0; i < want; i++) {
        if (spec[i] == 's') {
            Py_buffer view;
            if (PyObject_GetBuffer(args[i], &view, PyBUF_SIMPLE) < 0)
                return -1;
            if (view.len != 64) {
                PyErr_Format(PyExc_ValueError,
                             "%s(): squares must be 64 bytes, got %zd",
                             name, view.len);
                PyBuffer_Release(&view);
                return -1;
            }
            memcpy(sq, view.buf, 64);
            PyBuffer_Release(&view);
        } else if (spec[i] == 'b') {
            if ((ints[i] = PyObject_IsTrue(args[i])) < 0)
                return -1;
        } else if (spec[i] != 'm') {
            int overflow;
            long v = PyLong_AsLongAndOverflow(args[i], &overflow);
            if (v == -1 && PyErr_Occurred())
                return -1;
            if (overflow || v < INT_MIN || v > INT_MAX) {
                PyErr_Format(PyExc_OverflowError, "%s(): argument %zd out of range",
                             name, i + 1);
                return -1;
            }
            if (spec[i] == 'q' && (v < 0 || v > 63)) {
                PyErr_Format(PyExc_ValueError, "%s(): square %ld not in 0..63",
                             name, v);
                return -1;
            }
            ints[i] = (int)v;
        }
    }
    return 0;
}

/* -1 with a ValueError set if `flags` mark an en-passant move whose
   captured pawn, one rank behind `to`, would be off the board. */
static int check_ep_square(const char *name, int stm, int to, int flags)
{
    int cap = stm == 0 ? to - 8 : to + 8;
    if ((flags & FLAG_EP) && (cap < 0 || cap > 63)) {
        PyErr_Format(PyExc_ValueError, "%s(): square %d not in 0..63", name, cap);
        return -1;
    }
    return 0;
}

/* Read one move of `name`'s moves argument, a (frm, to, promo, flags)
   tuple, into `m`, as `parse` reads the arguments "qqii". Returns -1 with
   an exception set on a bad move. */
static int parse_move(PyObject *item, const char *name, int stm, int *m)
{
    if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 4) {
        PyErr_Format(PyExc_TypeError,
                     "%s(): a move must be a (frm, to, promo, flags) tuple", name);
        return -1;
    }
    if (parse(PySequence_Fast_ITEMS(item), 4, name, "qqii", NULL, m) < 0)
        return -1;
    return check_ep_square(name, stm, m[1], m[3]);
}

/* The squares of `set` as a list, ascending. */
static PyObject *square_list(Mask set)
{
    PyObject *out = PyList_New(0);
    int s;
    for (s = 0; out && s < 64; s++) {
        if (set & BIT(s)) {
            PyObject *item = PyLong_FromLong(s);
            if (!item || PyList_Append(out, item) < 0)
                Py_CLEAR(out);
            Py_XDECREF(item);
        }
    }
    return out;
}

/* The module object each entry receives is unused. */
#define ENTRY(name) \
    static PyObject *py_##name(PyObject *Py_UNUSED(self), PyObject *const *args, \
                               Py_ssize_t nargs)

ENTRY(attacked)
{
    unsigned char sq[64];
    int a[3];
    if (parse(args, nargs, "attacked", "sqb", sq, a) < 0)
        return NULL;
    return PyBool_FromLong(attacked(sq, a[1], a[2]));
}

ENTRY(attackers)
{
    unsigned char sq[64];
    int a[3];
    if (parse(args, nargs, "attackers", "sqb", sq, a) < 0)
        return NULL;
    return square_list(attackers(sq, a[1], a[2]));
}

ENTRY(attack_targets)
{
    unsigned char sq[64];
    int a[2];
    if (parse(args, nargs, "attack_targets", "sq", sq, a) < 0)
        return NULL;
    return square_list(attack_targets(sq, a[1]));
}

ENTRY(in_check)
{
    unsigned char sq[64];
    int a[2];
    if (parse(args, nargs, "in_check", "sb", sq, a) < 0)
        return NULL;
    return PyBool_FromLong(in_check(sq, a[1]));
}

ENTRY(legal_moves)
{
    unsigned char arr[64];
    int a[4], moves[MAX_MOVES], n, i, j;
    PyObject *out;
    if (parse(args, nargs, "legal_moves", "siii", arr, a) < 0)
        return NULL;
    n = _legal(arr, a[1], a[2], a[3], moves);
    for (i = 1; i < n; i++) { /* insertion sort: packed order is tuple order */
        int m = moves[i];
        for (j = i; j > 0 && moves[j - 1] > m; j--)
            moves[j] = moves[j - 1];
        moves[j] = m;
    }
    if (!(out = PyList_New(n)))
        return NULL;
    for (i = 0; i < n; i++) {
        int m = moves[i];
        PyObject *t = Py_BuildValue("(iiii)", M_FRM(m), M_TO(m), M_PROMO(m),
                                    M_FLAGS(m));
        if (!t) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, t);
    }
    return out;
}

ENTRY(has_legal_move)
{
    unsigned char arr[64];
    int a[4];
    if (parse(args, nargs, "has_legal_move", "siii", arr, a) < 0)
        return NULL;
    return PyBool_FromLong(has_legal_move(arr, a[1], a[2], a[3]));
}

ENTRY(checking_moves)
{
    unsigned char arr[64];
    int a[5], king, m[4];
    Py_ssize_t i;
    Mask direct[BK + 1], opens[64];
    PyObject *moves, *out;
    if (parse(args, nargs, "checking_moves", "siiim", arr, a) < 0)
        return NULL;
    if (!(moves = PySequence_Fast(args[4], "checking_moves(): moves must be a sequence")))
        return NULL;
    king = _king_square(arr, a[1] != 0);
    if (king >= 0)
        _check_squares(arr, king, a[1] == 0, direct, opens);
    out = PyList_New(0);
    for (i = 0; out && i < PySequence_Fast_GET_SIZE(moves); i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(moves, i);
        if (parse_move(item, "checking_moves", a[1], m) < 0)
            Py_CLEAR(out);
        else if (king >= 0
                 && _gives_check(arr, a[1], king, direct, opens, m[0], m[1], m[2], m[3])
                 && PyList_Append(out, item) < 0)
            Py_CLEAR(out);
    }
    Py_DECREF(moves);
    return out;
}

ENTRY(apply_move)
{
    unsigned char arr[64];
    int a[10], stm, frm, to, flags, cap_sq, reset;
    if (parse(args, nargs, "apply_move", "siiiiiqqii", arr, a) < 0
            || check_ep_square("apply_move", a[1], a[7], a[9]) < 0)
        return NULL;
    stm = a[1];
    frm = a[6];
    to = a[7];
    flags = a[9];
    /* the captured square: `to`, or en passant's victim one rank behind it */
    cap_sq = flags & FLAG_EP ? (stm == 0 ? to - 8 : to + 8) : to;
    reset = arr[frm] == WP || arr[frm] == BP || arr[cap_sq] != EMPTY;
    _make(arr, stm, frm, to, a[8], flags);
    return Py_BuildValue(
        "(y#iiiLL)", (const char *)arr, (Py_ssize_t)64, 1 - stm,
        _update_castling(a[2], frm, to),
        flags & FLAG_DOUBLE ? (frm + to) / 2 : -1,
        reset ? 0 : (long long)a[4] + 1,
        (long long)a[5] + (stm == 1));
}

ENTRY(perft)
{
    unsigned char arr[64];
    int a[5];
    if (parse(args, nargs, "perft", "siiii", arr, a) < 0)
        return NULL;
    if (a[4] <= 0)
        return PyLong_FromLong(1);
    return PyLong_FromLongLong(_perft_inner(arr, a[1], a[2], a[3], a[4]));
}

#define METHOD(name, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    METHOD(attacked, "True if `target` is attacked by at least one piece of the given color."),
    METHOD(attackers, "Sorted squares of all pieces of the given color attacking `target`."),
    METHOD(attack_targets, "Sorted squares attacked by the piece at `frm` (pawn capture squares only)."),
    METHOD(in_check, "Whether the king of the given color is attacked."),
    METHOD(legal_moves, "Sorted legal moves for the side to move."),
    METHOD(has_legal_move, "Whether the side to move has a legal move; `bool(legal_moves(...))`."),
    METHOD(checking_moves, "The moves of `moves` that give check, in their given order."),
    METHOD(apply_move, "Apply one move; returns the new (squares, stm, castling, ep, halfmove, fullmove)."),
    METHOD(perft, "Leaf count of the legal game tree at exactly `depth`."),
    {NULL, NULL, 0, NULL},
};

static const struct { const char *name; int value; } constants[] = {
    {"EMPTY", EMPTY}, {"WP", WP}, {"WN", WN}, {"WB", WB}, {"WR", WR},
    {"WQ", WQ}, {"WK", WK}, {"BP", BP}, {"BN", BN}, {"BB", BB}, {"BR", BR},
    {"BQ", BQ}, {"BK", BK}, {"FLAG_CAPTURE", FLAG_CAPTURE},
    {"FLAG_CASTLE_K", FLAG_CASTLE_K}, {"FLAG_CASTLE_Q", FLAG_CASTLE_Q},
    {"FLAG_EP", FLAG_EP}, {"FLAG_DOUBLE", FLAG_DOUBLE},
    {"CASTLE_WK", CASTLE_WK}, {"CASTLE_WQ", CASTLE_WQ},
    {"CASTLE_BK", CASTLE_BK}, {"CASTLE_BQ", CASTLE_BQ},
};

static int exec_module(PyObject *module)
{
    size_t i;
    for (i = 0; i < sizeof constants / sizeof constants[0]; i++)
        if (PyModule_AddIntConstant(module, constants[i].name, constants[i].value) < 0)
            return -1;
    return 0;
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, (void *)exec_module},
    {0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_movegen",
    "Compiled move-generation kernel; the same algorithm and contract as "
    "cogchess._movegen_py.",
    0, methods, slots, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__movegen(void)
{
    return PyModuleDef_Init(&moduledef);
}
