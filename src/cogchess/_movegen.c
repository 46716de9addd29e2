/* Compiled move-generation kernel.
 *
 * The algorithm of `cogchess/_movegen_py.py`, ported function by function
 * under the same names and in the same order, so that the two read side
 * by side; the Python entry points follow at the end. Same contract: a
 * flat 64-byte mailbox (a1 = 0 .. h8 = 63, rank-major) with piece codes
 * 1..6 for white pawn/knight/bishop/rook/queen/king and 7..12 for black,
 * moves as sorted `(frm, to, promo, flags)` int tuples. The two kernels
 * must return bit-identical results; `tests/test_kernel_parity.py`
 * enforces it. Both find a square's neighbours in the same per-square
 * tables, built here once when the module is executed (`build_tables`).
 *
 * Inside the kernel a move is one int, frm<<16 | to<<8 | promo<<5 | flags,
 * so that integer order is tuple order. The squares argument is any
 * buffer (`bytes`, `bytearray`) of exactly 64 bytes, each EMPTY or a piece
 * code, and a square index, an en-passant move's captured square included,
 * must lie in 0..63, and a move's promo must be 0 or a piece kind 2..5;
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

#define MOVE(frm, to, promo, flags) ((frm) << 16 | (to) << 8 | (promo) << 5 | (flags))
#define M_FRM(m) ((m) >> 16)
#define M_TO(m) ((m) >> 8 & 255)
#define M_PROMO(m) ((m) >> 5 & 7)
#define M_FLAGS(m) ((m) & 31)
/* No square yields more than a queen's 27 pseudo-moves (a pawn at most
   12), and castling adds two. */
#define MAX_MOVES (64 * 27 + 2)

/* A square's on-board targets of one kind, or one of its rays, nearest
   square first. */
typedef struct { int n; unsigned char sq[8]; } Squares;

/* The pure kernel's per-square tables, built once by `build_tables`: each
   square's knight and king targets in offset order, the squares a white
   (black) pawn attacks it from, so that a white pawn on `s` captures onto
   `BP_FROM[s]`, and its eight rays in `RAYS` order; a ray off the board
   has no squares. */
static Squares KNIGHT_TO[64], KING_TO[64], WP_FROM[64], BP_FROM[64];
static Squares RAYS_FROM[64][8];

/* Append to `out` the on-board squares from `s` by steps of (df, dr): the
   first only, or with `slide` all of them up to the board's edge. */
static void add_steps(Squares *out, int s, int df, int dr, int slide)
{
    int f = (s & 7) + df, r = (s >> 3) + dr;
    for (; (unsigned)f <= 7 && (unsigned)r <= 7; f += df, r += dr) {
        out->sq[out->n++] = (unsigned char)(r * 8 + f);
        if (!slide)
            break;
    }
}

static void build_tables(void)
{
    static int built; /* the tables are shared by every module object */
    int s, d;
    if (built++)
        return;
    for (s = 0; s < 64; s++) {
        for (d = 0; d < 8; d++) {
            add_steps(&KNIGHT_TO[s], s, KNIGHT[d][0], KNIGHT[d][1], 0);
            add_steps(&KING_TO[s], s, KING[d][0], KING[d][1], 0);
            add_steps(&RAYS_FROM[s][d], s, RAYS[d][0], RAYS[d][1], 1);
        }
        for (d = -1; d <= 1; d += 2) {
            add_steps(&WP_FROM[s], s, d, -1, 0);
            add_steps(&BP_FROM[s], s, d, 1, 0);
        }
    }
}

/* The squares of `t`. */
static Mask mask_of(const Squares *t)
{
    Mask out = 0;
    int i;
    for (i = 0; i < t->n; i++)
        out |= BIT(t->sq[i]);
    return out;
}

/* Whether a square of `t` holds `piece`. */
static int holds(const unsigned char *sq, const Squares *t, int piece)
{
    int i;
    for (i = 0; i < t->n; i++)
        if (sq[t->sq[i]] == piece)
            return 1;
    return 0;
}

/* True if `target` is attacked by at least one piece of the given color. */
static int attacked(const unsigned char *sq, int target, int by_white)
{
    /* the side's piece codes are base + WP .. base + WK */
    int base = by_white ? 0 : 6, d, i, p;

    if (holds(sq, by_white ? &WP_FROM[target] : &BP_FROM[target], base + WP)
            || holds(sq, &KNIGHT_TO[target], base + WN)
            || holds(sq, &KING_TO[target], base + WK))
        return 1;
    for (d = 0; d < 8; d++) {
        const Squares *ray = &RAYS_FROM[target][d];
        for (i = 0; i < ray->n; i++) {
            if ((p = sq[ray->sq[i]]) != EMPTY) {
                if (p == base + (d < 4 ? WR : WB) || p == base + WQ)
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
        if (p == EMPTY || (p <= 6) != by_white)
            continue;
        if (attack_targets(sq, i) & BIT(target))
            out |= BIT(i);
    }
    return out;
}

/* Squares attacked by the piece at `frm` (pawn capture squares only). */
static Mask attack_targets(const unsigned char *sq, int frm)
{
    int p = sq[frm], kind = p <= 6 ? p : p - 6, d, i;
    Mask out = 0;

    if (p == EMPTY)
        return 0;
    if (kind == WP)
        return mask_of(p == WP ? &BP_FROM[frm] : &WP_FROM[frm]);
    if (kind == WN || kind == WK)
        return mask_of(kind == WN ? &KNIGHT_TO[frm] : &KING_TO[frm]);
    for (d = kind == WB ? 4 : 0; d < (kind == WR ? 4 : 8); d++) {
        const Squares *ray = &RAYS_FROM[frm][d];
        for (i = 0; i < ray->n; i++) {
            out |= BIT(ray->sq[i]);
            if (sq[ray->sq[i]] != EMPTY)
                break;
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
    int white = stm == 0, n = 0, i, j, d, pk;
    int fwd = white ? 8 : -8, start_r = white ? 1 : 6, promo_r = white ? 7 : 0;

    for (i = 0; i < 64; i++) {
        int p = sq[i], kind, to, tp;
        const Squares *t;
        if (p == EMPTY || (p <= 6) != white)
            continue;
        kind = p <= 6 ? p : p - 6;

        if (kind == WP) {
            to = i + fwd;
            /* (a pawn on its last rank has no push) */
            if ((unsigned)to < 64 && sq[to] == EMPTY) {
                if ((to >> 3) == promo_r) {
                    for (pk = WN; pk <= WQ; pk++)
                        out[n++] = MOVE(i, to, pk, 0);
                } else {
                    out[n++] = MOVE(i, to, 0, 0);
                    if ((i >> 3) == start_r && sq[i + 2 * fwd] == EMPTY)
                        out[n++] = MOVE(i, i + 2 * fwd, 0, FLAG_DOUBLE);
                }
            }
            t = white ? &BP_FROM[i] : &WP_FROM[i];
            for (j = 0; j < t->n; j++) {
                to = t->sq[j];
                tp = sq[to];
                if (tp != EMPTY && (tp <= 6) != white) {
                    if ((to >> 3) == promo_r) {
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
            t = kind == WN ? &KNIGHT_TO[i] : &KING_TO[i];
            for (j = 0; j < t->n; j++) {
                to = t->sq[j];
                tp = sq[to];
                if (tp == EMPTY)
                    out[n++] = MOVE(i, to, 0, 0);
                else if ((tp <= 6) != white)
                    out[n++] = MOVE(i, to, 0, FLAG_CAPTURE);
            }
        } else {
            for (d = kind == WB ? 4 : 0; d < (kind == WR ? 4 : 8); d++) {
                t = &RAYS_FROM[i][d];
                for (j = 0; j < t->n; j++) {
                    to = t->sq[j];
                    tp = sq[to];
                    if (tp == EMPTY) {
                        out[n++] = MOVE(i, to, 0, 0);
                    } else {
                        if ((tp <= 6) != white)
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

#define CASTLE_FLAGS (FLAG_CASTLE_K | FLAG_CASTLE_Q)
/* Moves that are always made on a copy and tested with `attacked`: en
   passant empties two squares of one rank, and castling moves the king. */
#define FULL_TEST_FLAGS (FLAG_EP | CASTLE_FLAGS)

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
    /* the enemy's piece codes are enemy + WP .. enemy + WK; `attacked`
       counts an adjacent enemy king, so it is a checker here too, and an
       enemy pawn attacks the king from one rank ahead of it */
    int enemy = white ? 6 : 0, checkers = 0, d, i, p;
    const Squares *near[3] = {&KNIGHT_TO[king], &KING_TO[king],
                              white ? &BP_FROM[king] : &WP_FROM[king]};
    const int piece[3] = {enemy + WN, enemy + WK, enemy + WP};

    *pinned = 0;
    *evasions = 0;
    for (d = 0; d < 8; d++) {
        const Squares *line = &RAYS_FROM[king][d];
        int slider = enemy + (d < 4 ? WR : WB), blocker = -1;
        Mask ray = 0;
        for (i = 0; i < line->n; i++) {
            int s = line->sq[i];
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
            if (p == slider || p == enemy + WQ) {
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
    for (d = 0; d < 3; d++) {
        for (i = 0; i < near[d]->n; i++) {
            if (sq[near[d]->sq[i]] == piece[d]) {
                checkers++;
                *evasions |= BIT(near[d]->sq[i]);
            }
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
 * `king`, `pinned` and `evasions` come from `_pins_and_evasions`. A king
 * step (any king move but castling) is legal when `attacked` says its
 * target is safe on one copy of `sq` with the king lifted off, made once
 * per call. That is the board after the step everywhere but the target,
 * whose own byte `attacked` never reads, and a slider's ray now runs on
 * through the king's empty square, so the king cannot step back along a
 * checking ray. A move by another piece that misses the evasion squares
 * is illegal; one that is not en passant or castling, by a piece that is
 * not pinned, is legal otherwise. Every other move is made on a copy of
 * `sq` and tested there with `attacked`; castling leaves its king on the
 * move's target.
 */
static int _legal_among(const unsigned char *sq, int stm, const int *moves,
                        int n, int king, Mask pinned, Mask evasions, int *out)
{
    int white = stm == 0, count = 0, i, have_lifted = 0;
    unsigned char lifted[64];
    for (i = 0; i < n; i++) {
        int m = moves[i], frm = M_FRM(m), to = M_TO(m), flags = M_FLAGS(m);
        int full_test = flags & FULL_TEST_FLAGS;
        if (frm == king && !(flags & CASTLE_FLAGS)) {
            if (!have_lifted) {
                memcpy(lifted, sq, 64);
                lifted[king] = EMPTY;
                have_lifted = 1;
            }
            if (attacked(lifted, to, !white))
                continue;
        } else if (!full_test && !(evasions & BIT(to))) {
            continue;
        } else if (full_test || (pinned & BIT(frm))) {
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
 * once per position (`_pins_and_evasions`); king steps are then tested on
 * one lifted copy, and only castling, en passant and moves by pinned
 * pieces need to be made on a copy and tested. Without a king every
 * pseudo-move is legal.
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
    int moves[MAX_MOVES], n, others, i;
    unsigned char lifted[64];
    Mask pinned, evasions;

    if (king < 0)
        return _pseudo_moves(sq, stm, castling, ep, moves) > 0;
    memcpy(lifted, sq, 64);
    lifted[king] = EMPTY;
    for (i = 0; i < KING_TO[king].n; i++) {
        int to = KING_TO[king].sq[i], p = sq[to];
        if ((p == EMPTY || (p <= 6) != white) && !attacked(lifted, to, !white))
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
    /* the side's piece codes are base + WP .. base + WK */
    int base = white ? 0 : 6, d, i;
    Mask lines[2] = {0, 0}; /* the rook's and the bishop's squares */

    memset(direct, 0, (BK + 1) * sizeof(Mask));
    memset(opens, 0, 64 * sizeof(Mask));
    /* a pawn attacks the king from one rank behind it, seen from its side */
    direct[base + WP] = mask_of(white ? &WP_FROM[king] : &BP_FROM[king]);
    direct[base + WN] = mask_of(&KNIGHT_TO[king]);
    for (d = 0; d < 8; d++) {
        const Squares *ray = &RAYS_FROM[king][d];
        int slider = base + (d < 4 ? WR : WB), blocker = -1;
        Mask between = 0;
        for (i = 0; i < ray->n; i++) {
            int s = ray->sq[i], p = sq[s];
            if (blocker < 0)
                lines[d >= 4] |= BIT(s);
            if (p != EMPTY) {
                if (blocker >= 0) {
                    if (p == slider || p == base + WQ)
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
    direct[base + WB] = lines[1];
    direct[base + WR] = lines[0];
    direct[base + WQ] = lines[0] | lines[1];
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
    return (direct[p] & BIT(to))
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
 * each: 's' a buffer of 64 piece codes, copied into `sq`; 'q' a square index
 * in 0..63, 'p' a promo (0, or a piece kind WN..WQ), 'i' an int and 'b' a
 * truth value, each into `ints` at its argument's position; 'm' a sequence
 * of moves, which the entry reads itself (`parse_move`). Returns -1 with an
 * exception set on a bad argument.
 */
static int parse(PyObject *const *args, Py_ssize_t nargs, const char *name,
                 const char *spec, unsigned char *sq, int *ints)
{
    Py_ssize_t i, want = (Py_ssize_t)strlen(spec);
    int s;
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
            for (s = 0; s < 64; s++) {
                if (sq[s] > BK) {
                    PyErr_Format(PyExc_ValueError,
                                 "%s(): squares must hold piece codes 0..12, got %d at %d",
                                 name, sq[s], s);
                    return -1;
                }
            }
        } else if (spec[i] == 'b') {
            if ((ints[i] = PyObject_IsTrue(args[i])) < 0)
                return -1;
        } else if (spec[i] != 'm') {
            int overflow;
            long v = PyLong_AsLongAndOverflow(args[i], &overflow);
            if (v == -1 && PyErr_Occurred())
                return -1;
            /* a square or promo out of range is a ValueError however large */
            if (spec[i] == 'q' && (overflow || v < 0 || v > 63)) {
                PyErr_Format(PyExc_ValueError, "%s(): square %S not in 0..63",
                             name, args[i]);
                return -1;
            }
            if (spec[i] == 'p' && (overflow || (v != 0 && (v < WN || v > WQ)))) {
                PyErr_Format(PyExc_ValueError, "%s(): promo must be 0 or 2..5, got %S",
                             name, args[i]);
                return -1;
            }
            if (overflow || v < INT_MIN || v > INT_MAX) {
                PyErr_Format(PyExc_OverflowError, "%s(): argument %zd out of range",
                             name, i + 1);
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
   tuple, into `m`, as `parse` reads the arguments "qqpi". Returns -1 with
   an exception set on a bad move. */
static int parse_move(PyObject *item, const char *name, int stm, int *m)
{
    if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 4) {
        PyErr_Format(PyExc_TypeError,
                     "%s(): a move must be a (frm, to, promo, flags) tuple", name);
        return -1;
    }
    if (parse(PySequence_Fast_ITEMS(item), 4, name, "qqpi", NULL, m) < 0)
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
    if (parse(args, nargs, "apply_move", "siiiiiqqpi", arr, a) < 0
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
    build_tables();
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
