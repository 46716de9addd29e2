"""Pure-Python move-generation kernel.

Mirror of the compiled ``cogchess._movegen`` extension, which ports this
file function by function to C; ``cogchess.board`` picks whichever
imports. Both kernels work on a flat 64-byte mailbox (a1 = 0 .. h8 = 63,
rank-major) with piece codes 1..6 for white pawn/knight/bishop/rook/queen/
king and 7..12 for black, and must return bit-identical results.

Moves are ``(frm, to, promo, flags)`` int tuples, sorted ascending, with
promo one of 0/2/3/4/5 (none/knight/bishop/rook/queen, color-neutral).

Both kernels find a square's neighbours in per-square tables built once
from the offsets below (Chess Programming Wiki, "Mailbox"): each square's
knight and king targets, its rays nearest square first, and the squares a
pawn of each colour attacks it from. So finding a square's neighbours
takes no file/rank arithmetic or bounds test.
"""

from operator import index as _index

EMPTY = 0
WP, WN, WB, WR, WQ, WK = 1, 2, 3, 4, 5, 6
BP, BN, BB, BR, BQ, BK = 7, 8, 9, 10, 11, 12

FLAG_CAPTURE = 1
FLAG_CASTLE_K = 2
FLAG_CASTLE_Q = 4
FLAG_EP = 8
FLAG_DOUBLE = 16

CASTLE_WK, CASTLE_WQ, CASTLE_BK, CASTLE_BQ = 1, 2, 4, 8

_KNIGHT = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))
_KING = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
_ORTH = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAG = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _ray(s, df, dr):
    """The on-board squares from `s` in direction (df, dr), nearest first."""
    f, r = (s & 7) + df, (s >> 3) + dr
    out = []
    while 0 <= f <= 7 and 0 <= r <= 7:
        out.append(r * 8 + f)
        f += df
        r += dr
    return tuple(out)


def _steps(deltas):
    """Per square, the on-board squares one step of each delta away."""
    out = []
    for s in range(64):
        f, r = s & 7, s >> 3
        out.append(tuple((r + dr) * 8 + f + df for df, dr in deltas
                         if 0 <= f + df <= 7 and 0 <= r + dr <= 7))
    return tuple(out)


def _rays(dirs):
    """Per square, one ray per direction, nearest square first; empty ones dropped."""
    return tuple(tuple(r for r in (_ray(s, *d) for d in dirs) if r) for s in range(64))


_KNIGHT_TO = _steps(_KNIGHT)
_KING_TO = _steps(_KING)
_ORTH_RAYS = _rays(_ORTH)
_DIAG_RAYS = _rays(_DIAG)
# The squares a white (black) pawn attacks `s` from: one rank below (above)
# it. So a white pawn on `s` captures onto `_BP_FROM[s]`, a black one onto
# `_WP_FROM[s]`.
_WP_FROM = _steps(((-1, -1), (1, -1)))
_BP_FROM = _steps(((-1, 1), (1, 1)))

# The bytes a squares argument may hold: EMPTY and the twelve piece codes.
_CODES = bytes(range(BK + 1))


def _squares_error(name, sq):
    """The ValueError for a squares argument that is not 64 piece codes."""
    if len(sq) != 64:
        return ValueError(f"{name}(): squares must be 64 bytes, got {len(sq)}")
    i = next(i for i, v in enumerate(sq) if v > BK)
    return ValueError(f"{name}(): squares must hold piece codes 0..12, got {sq[i]} at {i}")


def _square_error(name, s):
    return ValueError(f"{name}(): square {s} not in 0..63")


# The C `int` a plain integer argument must fit in.
_INT_MIN, _INT_MAX = -2**31, 2**31 - 1


def _check_ints(name, first, *values):
    """TypeError unless each of `values`, the entry's arguments from
    position `first` on, is an integer, and OverflowError unless it fits
    a C `int`."""
    for pos, v in enumerate(values, first):
        if not _INT_MIN <= _index(v) <= _INT_MAX:
            raise OverflowError(f"{name}(): argument {pos} out of range")


def _check_position(name, sq, stm, castling, ep):
    """Check the four arguments a position is given in: 64 piece codes,
    a side to move 0 (white) or 1 (black), and two C `int`s."""
    if len(sq) != 64 or sq.translate(None, _CODES):
        raise _squares_error(name, sq)
    if _index(stm) not in (0, 1):
        raise ValueError(f"{name}(): stm must be 0 or 1, got {stm}")
    if not _INT_MIN <= _index(castling) <= _INT_MAX:
        raise OverflowError(f"{name}(): argument 3 out of range")
    if not _INT_MIN <= _index(ep) <= _INT_MAX:
        raise OverflowError(f"{name}(): argument 4 out of range")


def _check_move(name, first, white, frm, to, promo, flags):
    """Check a move, the entry's arguments from position `first` on:
    `frm` and `to` must be squares 0..63, `promo` 0 or a piece kind 2..5,
    `flags` a C `int`, and an en-passant move's captured pawn must stand
    on the board."""
    if not 0 <= _index(frm) <= 63:
        raise _square_error(name, frm)
    if not 0 <= _index(to) <= 63:
        raise _square_error(name, to)
    if _index(promo) != 0 and not WN <= promo <= WQ:
        raise ValueError(f"{name}(): promo must be 0 or 2..5, got {promo}")
    if not _INT_MIN <= _index(flags) <= _INT_MAX:
        raise OverflowError(f"{name}(): argument {first + 3} out of range")
    if flags & FLAG_EP:
        cap = to - 8 if white else to + 8
        if not 0 <= cap <= 63:
            raise _square_error(name, cap)


# The public entries check their arguments as the compiled kernel's `parse`
# does, in argument order: the squares must be 64 bytes, each EMPTY or a
# piece code (`translate` deletes those, so anything left is a bad byte);
# every other argument but a truth value must be an integer (the
# TypeError of `operator.index`); the side to move must be 0 or 1, a
# square index, an en-passant move's captured square included, must lie
# in 0..63, a move's promo must be 0 or a piece kind 2..5, and any other
# integer must fit a C `int`. The internal helpers they call trust their
# arguments.


def _attacked(sq, target, by_white):
    """True if `target` is attacked by at least one piece of the given color.
    It never reads `sq[target]`."""
    if by_white:
        pw, kn, kg, rk, bi, qu, pawns = WP, WN, WK, WR, WB, WQ, _WP_FROM
    else:
        pw, kn, kg, rk, bi, qu, pawns = BP, BN, BK, BR, BB, BQ, _BP_FROM
    for s in pawns[target]:
        if sq[s] == pw:
            return True
    for s in _KNIGHT_TO[target]:
        if sq[s] == kn:
            return True
    for s in _KING_TO[target]:
        if sq[s] == kg:
            return True
    for rays, slider in ((_ORTH_RAYS, rk), (_DIAG_RAYS, bi)):
        for ray in rays[target]:
            for s in ray:
                p = sq[s]
                if p != EMPTY:
                    if p == slider or p == qu:
                        return True
                    break
    return False


def attackers(sq, target, by_white):
    """Sorted squares of all pieces of the given color attacking `target`."""
    if len(sq) != 64 or sq.translate(None, _CODES):
        raise _squares_error("attackers", sq)
    if not 0 <= _index(target) <= 63:
        raise _square_error("attackers", target)
    out = []
    for i in range(64):
        p = sq[i]
        if p == EMPTY or (p <= 6) != bool(by_white):
            continue
        if target in _attack_targets(sq, i):
            out.append(i)
    return out


def attack_targets(sq, frm):
    """Sorted squares attacked by the piece at `frm` (pawn capture squares only)."""
    if len(sq) != 64 or sq.translate(None, _CODES):
        raise _squares_error("attack_targets", sq)
    if not 0 <= _index(frm) <= 63:
        raise _square_error("attack_targets", frm)
    return _attack_targets(sq, frm)


def _slider_rays(kind, s):
    """The rays a rook, bishop or queen (`kind` WR, WB or WQ) walks from `s`."""
    if kind == WR:
        return _ORTH_RAYS[s]
    if kind == WB:
        return _DIAG_RAYS[s]
    return _ORTH_RAYS[s] + _DIAG_RAYS[s]


def _attack_targets(sq, frm):
    p = sq[frm]
    if p == EMPTY:
        return []
    kind = p if p <= 6 else p - 6
    if kind == WP:
        out = list((_BP_FROM if p == WP else _WP_FROM)[frm])
    elif kind == WN:
        out = list(_KNIGHT_TO[frm])
    elif kind == WK:
        out = list(_KING_TO[frm])
    else:
        out = []
        for ray in _slider_rays(kind, frm):
            for s in ray:
                out.append(s)
                if sq[s] != EMPTY:
                    break
    out.sort()
    return out


def _king_square(sq, white):
    """Lowest square holding the side's king, or -1 (`sq` is bytes or bytearray)."""
    return sq.find(WK if white else BK)


def in_check(sq, white):
    if len(sq) != 64 or sq.translate(None, _CODES):
        raise _squares_error("in_check", sq)
    k = _king_square(sq, white)
    return k >= 0 and _attacked(sq, k, not white)


def _pseudo_moves(sq, stm, castling, ep):
    """Pseudo-legal moves for the side to move (0 = white, 1 = black)."""
    white = stm == 0
    if white:
        fwd, start_r, promo_r, captures = 8, 1, 7, _BP_FROM
    else:
        fwd, start_r, promo_r, captures = -8, 6, 0, _WP_FROM
    moves = []
    for i in range(64):
        p = sq[i]
        if p == EMPTY or (p <= 6) != white:
            continue
        kind = p if p <= 6 else p - 6

        if kind == WP:
            to = i + fwd
            # (a pawn on its last rank has no push)
            if 0 <= to <= 63 and sq[to] == EMPTY:
                if (to >> 3) == promo_r:
                    for pk in (WN, WB, WR, WQ):
                        moves.append((i, to, pk, 0))
                else:
                    moves.append((i, to, 0, 0))
                    if (i >> 3) == start_r and sq[i + 2 * fwd] == EMPTY:
                        moves.append((i, i + 2 * fwd, 0, FLAG_DOUBLE))
            for to in captures[i]:
                tp = sq[to]
                if tp != EMPTY and (tp <= 6) != white:
                    if (to >> 3) == promo_r:
                        for pk in (WN, WB, WR, WQ):
                            moves.append((i, to, pk, FLAG_CAPTURE))
                    else:
                        moves.append((i, to, 0, FLAG_CAPTURE))
                elif to == ep and ep >= 0:
                    moves.append((i, to, 0, FLAG_CAPTURE | FLAG_EP))
        elif kind == WN or kind == WK:
            for to in (_KNIGHT_TO if kind == WN else _KING_TO)[i]:
                tp = sq[to]
                if tp == EMPTY:
                    moves.append((i, to, 0, 0))
                elif (tp <= 6) != white:
                    moves.append((i, to, 0, FLAG_CAPTURE))
        else:
            for ray in _slider_rays(kind, i):
                for to in ray:
                    tp = sq[to]
                    if tp == EMPTY:
                        moves.append((i, to, 0, 0))
                        continue
                    if (tp <= 6) != white:
                        moves.append((i, to, 0, FLAG_CAPTURE))
                    break

    # Castling: rights bit, rook home, empty between, king and transit not attacked.
    if white:
        if (castling & CASTLE_WK) and sq[4] == WK and sq[7] == WR \
                and sq[5] == EMPTY and sq[6] == EMPTY \
                and not _attacked(sq, 4, False) and not _attacked(sq, 5, False):
            moves.append((4, 6, 0, FLAG_CASTLE_K))
        if (castling & CASTLE_WQ) and sq[4] == WK and sq[0] == WR \
                and sq[1] == EMPTY and sq[2] == EMPTY and sq[3] == EMPTY \
                and not _attacked(sq, 4, False) and not _attacked(sq, 3, False):
            moves.append((4, 2, 0, FLAG_CASTLE_Q))
    else:
        if (castling & CASTLE_BK) and sq[60] == BK and sq[63] == BR \
                and sq[61] == EMPTY and sq[62] == EMPTY \
                and not _attacked(sq, 60, True) and not _attacked(sq, 61, True):
            moves.append((60, 62, 0, FLAG_CASTLE_K))
        if (castling & CASTLE_BQ) and sq[60] == BK and sq[56] == BR \
                and sq[57] == EMPTY and sq[58] == EMPTY and sq[59] == EMPTY \
                and not _attacked(sq, 60, True) and not _attacked(sq, 59, True):
            moves.append((60, 58, 0, FLAG_CASTLE_Q))
    return moves


def _make(arr, stm, frm, to, promo, flags):
    """Apply a move to the mutable array `arr` in place."""
    white = stm == 0
    p = arr[frm]
    if flags & FLAG_EP:
        arr[to - 8 if white else to + 8] = EMPTY
    arr[frm] = EMPTY
    if promo:
        arr[to] = promo if white else promo + 6
    else:
        arr[to] = p
    if flags & FLAG_CASTLE_K:
        if white:
            arr[7] = EMPTY
            arr[5] = WR
        else:
            arr[63] = EMPTY
            arr[61] = BR
    elif flags & FLAG_CASTLE_Q:
        if white:
            arr[0] = EMPTY
            arr[3] = WR
        else:
            arr[56] = EMPTY
            arr[59] = BR


_CASTLE_FLAGS = FLAG_CASTLE_K | FLAG_CASTLE_Q
# Moves that are always made on a copy and tested with `_attacked`: en
# passant empties two squares of one rank, and castling moves the king.
_FULL_TEST_FLAGS = FLAG_EP | _CASTLE_FLAGS


def _pins_and_evasions(sq, king, white):
    """Pinned pieces and check evasions of the side whose king is on `king`.

    Walks the eight rays out from the king once. Returns `(pinned,
    evasions)` as square bitmasks: `pinned` holds each of the side's
    pieces that stands alone between the king and an enemy slider moving
    along that ray. `evasions` is None when the king is not attacked;
    otherwise it holds the squares a move by any other piece must land on
    to answer the check: the checker and the squares between it and the
    king, and none at all on a double check.
    """
    if white:
        rk, bi, qu, kn, kg, pw, pawns = BR, BB, BQ, BN, BK, BP, _BP_FROM
    else:
        rk, bi, qu, kn, kg, pw, pawns = WR, WB, WQ, WN, WK, WP, _WP_FROM
    pinned = 0
    evasions = 0
    checkers = 0
    for rays, slider in ((_ORTH_RAYS, rk), (_DIAG_RAYS, bi)):
        for line in rays[king]:
            ray = 0
            blocker = -1
            for s in line:
                ray |= 1 << s
                p = sq[s]
                if p != EMPTY:
                    if (p <= 6) == white:
                        if blocker >= 0:
                            break
                        blocker = s
                    else:
                        if p == slider or p == qu:
                            if blocker >= 0:
                                pinned |= 1 << blocker
                            else:
                                checkers += 1
                                evasions |= ray
                        break
    # `_attacked` counts an adjacent enemy king, so it is a checker here too;
    # an enemy pawn attacks the king from one rank ahead of it
    for targets, piece in ((_KNIGHT_TO, kn), (_KING_TO, kg), (pawns, pw)):
        for s in targets[king]:
            if sq[s] == piece:
                checkers += 1
                evasions |= 1 << s
    if not checkers:
        return pinned, None
    return pinned, evasions if checkers == 1 else 0


def _legal_among(sq, stm, moves, king, pinned, evasions):
    """Yield the legal ones of the pseudo-moves `moves`, in their order.

    `king`, `pinned` and `evasions` come from `_pins_and_evasions`. A king
    step (any king move but castling) is legal when `_attacked` says its
    target is safe on one copy of `sq` with the king lifted off, made once
    per call. That is the board after the step everywhere but the target,
    whose own byte `_attacked` never reads, and a slider's ray now runs on
    through the king's empty square, so the king cannot step back along a
    checking ray. A move by another piece that misses the evasion squares
    while in check is illegal; one that is not en passant or castling, by
    a piece that is not pinned, is legal otherwise. Every other move is
    made on a copy of `sq` and tested there with `_attacked`; castling
    leaves its king on the move's target.
    """
    white = stm == 0
    lifted = None
    for m in moves:
        frm, to, promo, flags = m
        if frm == king and not flags & _CASTLE_FLAGS:
            if lifted is None:
                lifted = bytearray(sq)
                lifted[king] = EMPTY
            if not _attacked(lifted, to, not white):
                yield m
            continue
        if not flags & _FULL_TEST_FLAGS:
            if evasions is not None and not evasions >> to & 1:
                continue
            if not pinned >> frm & 1:
                yield m
                continue
        arr = bytearray(sq)
        _make(arr, stm, frm, to, promo, flags)
        if not _attacked(arr, to if frm == king else king, not white):
            yield m


def _legal(sq, stm, castling, ep):
    """Legal moves of the position in `sq`, in generation order.

    The side's king is found, and its pinned pieces and checkers
    computed, once per position (`_pins_and_evasions`); king steps are
    then tested on one lifted copy, and only castling, en passant and
    moves by pinned pieces need to be made on a copy and tested. Without
    a king every pseudo-move is legal.
    """
    white = stm == 0
    king = _king_square(sq, white)
    moves = _pseudo_moves(sq, stm, castling, ep)
    if king < 0:
        return moves
    pinned, evasions = _pins_and_evasions(sq, king, white)
    return list(_legal_among(sq, stm, moves, king, pinned, evasions))


def legal_moves(sq, stm, castling, ep):
    """Sorted legal moves for the side to move."""
    _check_position("legal_moves", sq, stm, castling, ep)
    out = _legal(sq, stm, castling, ep)
    out.sort()
    return out


def has_legal_move(sq, stm, castling, ep):
    """Whether the side to move has a legal move; `bool(legal_moves(...))`.

    Stops at the first legal move it finds. King steps come first, each
    tested on a copy of the board with the king lifted off. Then the other
    pieces' pseudo-moves go through the same pin, checker and evasion
    filter as `_legal`. Castling is not tried: it is generated only when
    the king's square and the one it crosses are not attacked, and then
    the plain step onto that crossed square is legal already. Without a king every
    pseudo-move is legal, as in `_legal`.
    """
    _check_position("has_legal_move", sq, stm, castling, ep)
    white = stm == 0
    king = _king_square(sq, white)
    if king < 0:
        return bool(_pseudo_moves(sq, stm, castling, ep))
    lifted = bytearray(sq)
    lifted[king] = EMPTY
    for to in _KING_TO[king]:
        p = sq[to]
        if (p == EMPTY or (p <= 6) != white) and not _attacked(lifted, to, not white):
            return True
    pinned, evasions = _pins_and_evasions(sq, king, white)
    others = [m for m in _pseudo_moves(sq, stm, castling, ep) if m[0] != king]
    for _ in _legal_among(sq, stm, others, king, pinned, evasions):
        return True
    return False


def _check_squares(sq, king, white):
    """How the side of the given color can check the enemy king on `king`.

    Returns `(direct, opens)`. `direct[p]` holds the squares from which
    the side's piece with code `p` would attack the king on the board as
    it stands: a pawn's and a knight's from their offsets, a bishop's,
    rook's and queen's along the rays out from the king up to and including
    the first occupied square. A king gives no direct check, since a legal
    king move never lands next to the other king. `opens` maps each of the
    side's pieces that stands alone between the king and one of the side's
    sliders moving along that line (a discovered-check blocker) to the
    squares between the king and that slider; a move from it to a square
    off that set uncovers the check.
    """
    if white:
        pw, rk, bi, qu, base, pawns = WP, WR, WB, WQ, 0, _WP_FROM
    else:
        pw, rk, bi, qu, base, pawns = BP, BR, BB, BQ, 6, _BP_FROM
    # a pawn attacks the king from one rank behind it, seen from its side
    pawn = 0
    for s in pawns[king]:
        pawn |= 1 << s
    knight = 0
    for s in _KNIGHT_TO[king]:
        knight |= 1 << s
    lines = [0, 0]  # the rook's and the bishop's squares
    opens = {}
    for line, rays, slider in ((0, _ORTH_RAYS, rk), (1, _DIAG_RAYS, bi)):
        for ray in rays[king]:
            between = 0
            blocker = -1
            for s in ray:
                if blocker < 0:
                    lines[line] |= 1 << s
                p = sq[s]
                if p != EMPTY:
                    if blocker >= 0:
                        if p == slider or p == qu:
                            opens[blocker] = between
                        break
                    if (p <= 6) != white:
                        break
                    blocker = s
                between |= 1 << s
    direct = [0] * 13
    direct[base + WP] = pawn
    direct[base + WN] = knight
    direct[base + WB] = lines[1]
    direct[base + WR] = lines[0]
    direct[base + WQ] = lines[0] | lines[1]
    return direct, opens


def checking_moves(sq, stm, castling, ep, moves):
    """The moves of `moves` that give check, in their given order.

    `moves` are `(frm, to, promo, flags)` legal moves of the position
    `(sq, stm, castling, ep)`, as `legal_moves` returns them; their flags
    say which are castling and en passant, so `castling` and `ep` are
    taken only to give the position in the shape the other entries do.
    The enemy king is found, and its direct-check squares and the
    discovered-check blockers computed, once per call (`_check_squares`).
    A move then gives check when its piece lands on a square from which its
    kind attacks the king, or leaves a blocker's square for one off the
    line it blocks (both at once is a double check). En passant, castling
    and promotions change more than one square or the moving piece's kind:
    each is made on a copy of `sq` and tested there with `_attacked`.
    Without an enemy king no move gives check, as `in_check` says.
    """
    _check_position("checking_moves", sq, stm, castling, ep)
    white = stm == 0
    for frm, to, promo, flags in moves:
        _check_move("checking_moves", 1, white, frm, to, promo, flags)
    king = _king_square(sq, not white)
    if king < 0:
        return []
    direct, opens = _check_squares(sq, king, white)
    out = []
    for m in moves:
        frm, to, promo, flags = m
        if promo or flags & _FULL_TEST_FLAGS:
            arr = bytearray(sq)
            _make(arr, stm, frm, to, promo, flags)
            check = _attacked(arr, king, white)
        else:
            line = opens.get(frm)
            check = direct[sq[frm]] >> to & 1 or (
                line is not None and not line >> to & 1)
        if check:
            out.append(m)
    return out


def _update_castling(castling, frm, to):
    if frm == 4:
        castling &= ~(CASTLE_WK | CASTLE_WQ)
    elif frm == 60:
        castling &= ~(CASTLE_BK | CASTLE_BQ)
    if frm == 0 or to == 0:
        castling &= ~CASTLE_WQ
    if frm == 7 or to == 7:
        castling &= ~CASTLE_WK
    if frm == 56 or to == 56:
        castling &= ~CASTLE_BQ
    if frm == 63 or to == 63:
        castling &= ~CASTLE_BK
    return castling


def apply_move(sq, stm, castling, ep, halfmove, fullmove, frm, to, promo, flags):
    """Apply one move; returns the new (squares, stm, castling, ep, halfmove, fullmove)."""
    _check_position("apply_move", sq, stm, castling, ep)
    _check_ints("apply_move", 5, halfmove, fullmove)
    white = stm == 0
    _check_move("apply_move", 7, white, frm, to, promo, flags)
    # the captured square: `to`, or en passant's victim one rank behind it
    cap_sq = (to - 8 if white else to + 8) if flags & FLAG_EP else to
    reset = sq[frm] in (WP, BP) or sq[cap_sq] != EMPTY
    arr = bytearray(sq)
    _make(arr, stm, frm, to, promo, flags)
    new_half = 0 if reset else halfmove + 1
    new_ep = (frm + to) // 2 if flags & FLAG_DOUBLE else -1
    new_castling = _update_castling(castling, frm, to)
    new_full = fullmove + 1 if stm == 1 else fullmove
    return (bytes(arr), 1 - stm, new_castling, new_ep, new_half, new_full)


def perft(sq, stm, castling, ep, depth):
    """Leaf count of the legal game tree at exactly `depth`."""
    _check_position("perft", sq, stm, castling, ep)
    _check_ints("perft", 5, depth)
    if depth <= 0:
        return 1
    return _perft_inner(sq, stm, castling, ep, depth)


def _perft_inner(sq, stm, castling, ep, depth):
    moves = _legal(sq, stm, castling, ep)
    if depth == 1:
        return len(moves)
    total = 0
    for frm, to, promo, flags in moves:
        arr = bytearray(sq)
        _make(arr, stm, frm, to, promo, flags)
        new_ep = (frm + to) // 2 if flags & FLAG_DOUBLE else -1
        total += _perft_inner(arr, 1 - stm, _update_castling(castling, frm, to),
                              new_ep, depth - 1)
    return total
