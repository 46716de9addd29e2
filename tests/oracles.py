"""Independent brute-force oracles used to cross-check the package.

Everything here is written directly from the rules of chess, on purpose
with different data structures and traversal than the package kernels:
positions are immutable dicts keyed by (file, rank) 0..7 coordinates,
moves are found by testing every (from, to) square pair against a
geometric reachability predicate, and application rebuilds the dict.
Keep it slow and obvious; it is the measuring stick, not the product.

`cover_reference`, `enumerate_situations_reference`,
`situation_signature_reference`, `investigate_reference`,
`match_batteries_reference`, `match_trapped_kings_reference`,
`validate_line_reference`, `_proves_reference`,
`_ordered_reference`, `checking_moves_reference` and
`apply_move_reference` are the exceptions:
orientation's relation cover as it was counted on piece-id sets
before it was counted on piece bitmasks, the solver's exploration step
in its earlier, exhaustive form (build
every subset, sort, truncate) with its own situation model
(`SituationModelReference`, which holds the inside relations and the
proposed moves as `Move`s), the signature as it was when it formatted
a whole situation model, its investigation step as it was before it
kept a table of OR-node results, the battery and trapped-king matchers as
they were before they read the relation set, the validation and its
full-width proof as they were before they shared the search's mate rule
(with their own copy of that rule), and the move ordering and check
test as they were before the kernel found checks without making the
moves (the search and proof references here order their moves with
`_ordered_reference`), and the board's piece bookkeeping as it was
before it followed the kernel's successor squares (with its own rules
for the castling rook and the en-passant victim), each kept as the
reference the current form must equal. The analyzer's references at the
end of the file (`_set_mean_reference` through
`compute_body_volume_reference`) are its per-frame arithmetic, record
parser, partial-frame test and body volume as they were before they were
written out on scalars, a frozenset and a `zip`.
"""

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import List, Optional

from cogchess import board as _board
from cogchess.affect import (
    BONES, REQUIRED_JOINTS, AUFrame, QualityReport, SkeletonFrame,
)
from cogchess.board import (
    Board, CastlingRights, Color, Move, Piece, PieceKind, Square,
    _CODE_PROMO, _FEN_LETTER, _move_from_tuple,
)
from cogchess.chunks import _SLIDERS, _instance
from cogchess.reasoner import (
    ENTITY_CAP, MAX_CANDIDATES, POOL_RANK_LIMIT, InvestigationResult,
    LineError, SituationModel, _apply, _BudgetExhausted, _state,
    check_entity_cap,
)
from cogchess.ingest import MARKER_KINDS, RecordingSession

OPos = namedtuple("OPos", "pieces stm castles ep halfmove fullmove")
# pieces: dict {(f, r): ("P", "w")} with kind letter in PNBRQK + color w/b
# stm: "w"/"b"; castles: frozenset of "KQkq"; ep: (f, r) or None

OMove = namedtuple("OMove", "frm to promo kind")
# kind: "normal"/"capture"/"double"/"ep"/"castle-k"/"castle-q"; promo: letter or None


def from_board(board):
    """Convert a cogchess Board into the oracle's representation."""
    kind_letter = {"pawn": "P", "knight": "N", "bishop": "B",
                   "rook": "R", "queen": "Q", "king": "K"}
    pieces = {}
    for p in board.pieces:
        pieces[(p.square.file - 1, p.square.rank - 1)] = (
            kind_letter[p.kind.value], p.color.value[0])
    castles = set()
    if board.castling.white_short:
        castles.add("K")
    if board.castling.white_long:
        castles.add("Q")
    if board.castling.black_short:
        castles.add("k")
    if board.castling.black_long:
        castles.add("q")
    ep = None
    if board.en_passant:
        ep = (board.en_passant.file - 1, board.en_passant.rank - 1)
    return OPos(dict(pieces), board.side_to_move.value[0], frozenset(castles),
                ep, board.halfmove_clock, board.fullmove_number)


def _path_clear(pieces, a, b):
    """All squares strictly between a and b (colinear) are empty."""
    df = (b[0] > a[0]) - (b[0] < a[0])
    dr = (b[1] > a[1]) - (b[1] < a[1])
    f, r = a[0] + df, a[1] + dr
    while (f, r) != b:
        if (f, r) in pieces:
            return False
        f, r = f + df, r + dr
    return True


def geometric_attack(pieces, frm, to):
    """Does the piece at `frm` attack square `to` (capture geometry)?"""
    if frm == to:
        return False
    kind, color = pieces[frm]
    df = to[0] - frm[0]
    dr = to[1] - frm[1]
    if kind == "P":
        fwd = 1 if color == "w" else -1
        return dr == fwd and abs(df) == 1
    if kind == "N":
        return {abs(df), abs(dr)} == {1, 2}
    if kind == "K":
        return max(abs(df), abs(dr)) == 1
    if kind == "R":
        return (df == 0 or dr == 0) and _path_clear(pieces, frm, to)
    if kind == "B":
        return abs(df) == abs(dr) and _path_clear(pieces, frm, to)
    if kind == "Q":
        return (df == 0 or dr == 0 or abs(df) == abs(dr)) \
            and _path_clear(pieces, frm, to)
    raise ValueError(kind)


def square_attacked_by(pieces, sq, color):
    return any(c == color and geometric_attack(pieces, frm, sq)
               for frm, (k, c) in pieces.items())


def king_square(pieces, color):
    for sq, (k, c) in pieces.items():
        if k == "K" and c == color:
            return sq
    return None


def in_check(pieces, color):
    k = king_square(pieces, color)
    other = "b" if color == "w" else "w"
    return k is not None and square_attacked_by(pieces, k, other)


def _candidate_moves(pos):
    """Every geometrically possible move for the side to move (may leave
    the king in check; legality is filtered afterwards by simulation)."""
    pieces, stm = pos.pieces, pos.stm
    out = []
    for frm, (kind, color) in sorted(pieces.items()):
        if color != stm:
            continue
        for tf in range(8):
            for tr in range(8):
                to = (tf, tr)
                if to == frm:
                    continue
                occupant = pieces.get(to)
                if occupant and occupant[1] == stm:
                    continue
                if kind == "P":
                    fwd = 1 if stm == "w" else -1
                    home = 1 if stm == "w" else 6
                    last = 7 if stm == "w" else 0
                    df, dr = tf - frm[0], tr - frm[1]
                    move_kind = None
                    if df == 0 and dr == fwd and occupant is None:
                        move_kind = "normal"
                    elif df == 0 and dr == 2 * fwd and frm[1] == home \
                            and occupant is None \
                            and (frm[0], frm[1] + fwd) not in pieces:
                        move_kind = "double"
                    elif abs(df) == 1 and dr == fwd and occupant is not None:
                        move_kind = "capture"
                    elif abs(df) == 1 and dr == fwd and to == pos.ep:
                        move_kind = "ep"
                    if move_kind is None:
                        continue
                    if tr == last:
                        for promo in "NBRQ":
                            out.append(OMove(frm, to, promo, move_kind))
                    else:
                        out.append(OMove(frm, to, None, move_kind))
                else:
                    if geometric_attack(pieces, frm, to):
                        out.append(OMove(frm, to, None,
                                         "capture" if occupant else "normal"))
    # castling, re-derived from the rulebook
    other = "b" if stm == "w" else "w"
    home_r = 0 if stm == "w" else 7
    king_at = (4, home_r)
    if pieces.get(king_at) == ("K", stm):
        short_right = "K" if stm == "w" else "k"
        long_right = "Q" if stm == "w" else "q"
        if short_right in pos.castles and pieces.get((7, home_r)) == ("R", stm) \
                and (5, home_r) not in pieces and (6, home_r) not in pieces \
                and not square_attacked_by(pieces, (4, home_r), other) \
                and not square_attacked_by(pieces, (5, home_r), other) \
                and not square_attacked_by(pieces, (6, home_r), other):
            out.append(OMove(king_at, (6, home_r), None, "castle-k"))
        if long_right in pos.castles and pieces.get((0, home_r)) == ("R", stm) \
                and (1, home_r) not in pieces and (2, home_r) not in pieces \
                and (3, home_r) not in pieces \
                and not square_attacked_by(pieces, (4, home_r), other) \
                and not square_attacked_by(pieces, (3, home_r), other) \
                and not square_attacked_by(pieces, (2, home_r), other):
            out.append(OMove(king_at, (2, home_r), None, "castle-q"))
    return out


def apply(pos, move):
    """Apply a move functionally, returning the successor position."""
    pieces = dict(pos.pieces)
    stm = pos.stm
    other = "b" if stm == "w" else "w"
    kind, color = pieces.pop(move.frm)
    captured = move.to in pieces
    if move.kind == "ep":
        fwd = 1 if stm == "w" else -1
        del pieces[(move.to[0], move.to[1] - fwd)]
        captured = True
    pieces[move.to] = (move.promo or kind, color)
    home_r = 0 if stm == "w" else 7
    if move.kind == "castle-k":
        del pieces[(7, home_r)]
        pieces[(5, home_r)] = ("R", stm)
    elif move.kind == "castle-q":
        del pieces[(0, home_r)]
        pieces[(3, home_r)] = ("R", stm)

    castles = set(pos.castles)
    own_rights = {"w": "KQ", "b": "kq"}[stm]
    if kind == "K":
        castles -= set(own_rights)
    for corner, right in (((0, 0), "Q"), ((7, 0), "K"), ((0, 7), "q"), ((7, 7), "k")):
        if move.frm == corner or move.to == corner:
            castles.discard(right)

    ep = None
    if move.kind == "double":
        ep = (move.frm[0], (move.frm[1] + move.to[1]) // 2)
    halfmove = 0 if (kind == "P" or captured) else pos.halfmove + 1
    fullmove = pos.fullmove + 1 if stm == "b" else pos.fullmove
    return OPos(pieces, other, frozenset(castles), ep, halfmove, fullmove)


def legal_moves(pos):
    out = []
    for m in _candidate_moves(pos):
        if not in_check(apply(pos, m).pieces, pos.stm):
            out.append(m)
    return out


def perft(pos, depth):
    if depth <= 0:
        return 1
    moves = legal_moves(pos)
    if depth == 1:
        return len(moves)
    return sum(perft(apply(pos, m), depth - 1) for m in moves)


def move_uci(m):
    def name(sq):
        return "abcdefgh"[sq[0]] + str(sq[1] + 1)
    return name(m.frm) + name(m.to) + (m.promo.lower() if m.promo else "")


def game_status(pos):
    moves = legal_moves(pos)
    checked = in_check(pos.pieces, pos.stm)
    if moves:
        return "check" if checked else "ongoing"
    return "checkmate" if checked else "stalemate"


def mate_in(pos, n):
    """True iff the side to move can force checkmate in at most n own moves."""
    if n <= 0:
        return False
    for m in legal_moves(pos):
        nxt = apply(pos, m)
        if game_status(nxt) == "checkmate":
            return True
        if n > 1 and game_status(nxt) in ("ongoing", "check"):
            if all(mate_in(apply(nxt, r), n - 1) for r in legal_moves(nxt)):
                return True
    return False


def mate_line(pos, n):
    """One principal line forcing mate in at most n moves, or None."""
    if n <= 0:
        return None
    for m in legal_moves(pos):
        nxt = apply(pos, m)
        if game_status(nxt) == "checkmate":
            return [move_uci(m)]
        if n > 1 and game_status(nxt) in ("ongoing", "check"):
            replies = legal_moves(nxt)
            if replies and all(mate_in(apply(nxt, r), n - 1) for r in replies):
                tail = mate_line(apply(nxt, replies[0]), n - 1)
                return [move_uci(m), move_uci(replies[0])] + tail
    return None


# --- relation oracle -------------------------------------------------------

def relations(pos):
    """Every (subject, name, objects) triple derived square by square.

    Returned as a set of ("protects"/"threatens", frm, to) and
    ("pins", frm, blocker, behind) tuples in (file, rank) coords.
    """
    pieces = pos.pieces
    out = set()
    for a, (ka, ca) in pieces.items():
        for b, (kb, cb) in pieces.items():
            if a == b:
                continue
            if geometric_attack(pieces, a, b):
                out.add(("protects" if ca == cb else "threatens", a, b))
    for a, (ka, ca) in pieces.items():
        if ka not in "BRQ":
            continue
        for b, (kb, cb) in pieces.items():
            if cb == ca:
                continue
            for c, (kc, cc) in pieces.items():
                if c in (a, b) or cc != cb:
                    continue
                df = c[0] - a[0]
                dr = c[1] - a[1]
                if ka == "R" and not (df == 0 or dr == 0):
                    continue
                if ka == "B" and abs(df) != abs(dr):
                    continue
                if ka == "Q" and not (df == 0 or dr == 0 or abs(df) == abs(dr)):
                    continue
                if not _between(a, b, c):
                    continue
                # b must be the only piece strictly between a and c
                blockers = [s for s in _ray_squares(a, c) if s in pieces]
                if blockers == [b]:
                    out.add(("pins", a, b, c))
    return out


def _ray_squares(a, c):
    df = (c[0] > a[0]) - (c[0] < a[0])
    dr = (c[1] > a[1]) - (c[1] < a[1])
    f, r = a[0] + df, a[1] + dr
    while (f, r) != c:
        yield (f, r)
        f, r = f + df, r + dr


def _between(a, b, c):
    """b lies strictly between a and c on a straight line."""
    return b in set(_ray_squares(a, c))


# --- chunk oracle ----------------------------------------------------------

def walls_of_pawns(pos):
    """All maximal adjacent-file pawn chains of length >= 3, per color."""
    found = set()
    for color in "wb":
        pawns = [sq for sq, (k, c) in pos.pieces.items() if k == "P" and c == color]
        by_file = {}
        for sq in pawns:
            by_file.setdefault(sq[0], []).append(sq)

        chains = []

        def extend(chain):
            f = chain[-1][0] + 1
            nxt = [s for s in by_file.get(f, []) if abs(s[1] - chain[-1][1]) <= 1]
            if not nxt:
                chains.append(tuple(chain))
                return
            for s in nxt:
                extend(chain + [s])

        for f in sorted(by_file):
            for start in by_file[f]:
                left = [s for s in by_file.get(f - 1, []) if abs(s[1] - start[1]) <= 1]
                if not left:  # cannot be extended leftward: chain start
                    extend([start])
        for ch in chains:
            if len(ch) >= 3:
                found.add((color, frozenset(ch)))
    # drop strict subsets
    return {(c, s) for (c, s) in found
            if not any(s < s2 for (c2, s2) in found if c2 == c)}


def batteries(pos):
    """Same-color slider pairs sharing a compatible clear line."""
    out = set()
    sliders = [(sq, k, c) for sq, (k, c) in pos.pieces.items() if k in "BRQ"]
    for i, (a, ka, ca) in enumerate(sliders):
        for b, kb, cb in sliders[i + 1:]:
            if ca != cb:
                continue
            df = b[0] - a[0]
            dr = b[1] - a[1]
            orth = df == 0 or dr == 0
            diag = abs(df) == abs(dr) and df != 0
            if not (orth or diag):
                continue
            ok_a = (orth and ka in "RQ") or (diag and ka in "BQ")
            ok_b = (orth and kb in "RQ") or (diag and kb in "BQ")
            if ok_a and ok_b and _path_clear(pos.pieces, a, b):
                out.add((ca, frozenset((a, b))))
    return out


def trapped_kings(pos):
    """(trapping color, frozenset(king, deniers)) per the chunk definition."""
    out = set()
    for color in "wb":
        other = "b" if color == "w" else "w"
        k = king_square(pos.pieces, color)
        if k is None:
            continue
        escapes = []
        for df in (-1, 0, 1):
            for dr in (-1, 0, 1):
                if df == 0 and dr == 0:
                    continue
                sq = (k[0] + df, k[1] + dr)
                if not (0 <= sq[0] <= 7 and 0 <= sq[1] <= 7):
                    continue
                occ = pos.pieces.get(sq)
                if occ and occ[1] == color:
                    continue
                escapes.append(sq)
        safe = [e for e in escapes if not square_attacked_by(pos.pieces, e, other)]
        if len(safe) > 1:
            continue
        deniers = set()
        for e in escapes:
            att = [sq for sq, (kk, cc) in pos.pieces.items()
                   if cc == other and geometric_attack(pos.pieces, sq, e)]
            if len(att) == 1:
                deniers.add(att[0])
        if deniers:
            out.add((other, frozenset({k} | deniers)))
    return out


@dataclass(frozen=True)
class SituationModelReference:
    """`reasoner.SituationModel` as it was when it held the relations
    inside its entities and its proposed moves as `Move`s."""

    entities: tuple
    relations: tuple
    moves: tuple

    @property
    def entity_ids(self) -> tuple:
        return tuple(e.id for e in self.entities)


def cover_reference(relations, pool) -> dict:
    """Each entity id of `pool` -> the number of `relations` that involve
    one of its pieces, counted by set intersection of piece ids, as
    orientation counted it before it read piece bitmasks."""
    involved = [set(r.entities) for r in relations]
    return {e.id: sum(1 for s in involved if not s.isdisjoint(e.piece_ids))
            for e in pool}


def enumerate_situations_reference(board, relations, pool, cover,
                                   cap=ENTITY_CAP):
    """`reasoner.enumerate_situations` as it was before it ranked subsets
    by piece bitmasks: builds every subset of size 2..cap as a
    `SituationModelReference`, sorts them all and keeps the first
    `MAX_CANDIDATES`.
    """
    check_entity_cap(cap)
    ranked = sorted(pool, key=lambda e: (-cover[e.id], e.id))
    selected = ranked[:POOL_RANK_LIMIT]
    for color in (Color.WHITE, Color.BLACK):
        if not any(e.color is color for e in selected):
            extra = next((e for e in ranked[POOL_RANK_LIMIT:] if e.color is color), None)
            if extra is not None:
                selected.append(extra)

    legal = board.legal_moves()
    pid_at = {p.square.index: p.id for p in board.pieces}

    candidates = []
    for size in range(2, cap + 1):
        for combo in itertools.combinations(selected, size):
            colors = {e.color for e in combo}
            if len(colors) != 2:
                continue
            member_pieces = set()
            for e in combo:
                member_pieces.update(e.piece_ids)
            inside = tuple(r for r in relations
                           if set(r.entities) <= member_pieces)
            moves = tuple(m for m in legal
                          if pid_at[m.from_sq.index] in member_pieces)
            if not moves:  # a situation must propose at least one move
                continue
            entities = tuple(sorted(combo, key=lambda e: e.id))
            candidates.append(SituationModelReference(entities, inside, moves))

    candidates.sort(key=lambda s: (len(s.entities), -len(s.relations), s.entity_ids))
    return candidates[:MAX_CANDIDATES]


def situation_signature_reference(board, situation) -> str:
    """`memory.situation_signature` as it was when it formatted every
    descriptor of a situation model itself, with the side to move and the
    piece kinds read from `board`.

    The key is built from sorted entity descriptors (chunk pattern name or
    piece kind, with color normalized to own/enemy relative to the mover)
    and sorted relation descriptors (relation name plus the descriptors of
    its piece endpoints).
    """
    mover = board.side_to_move
    piece_info = {p.id: (p.kind.value, p.color) for p in board.pieces}

    def side(color) -> str:
        return "own" if color == mover else "enemy"

    entity_part = sorted(
        f"{e.etype}:{e.label}:{side(e.color)}" for e in situation.entities)

    rel_part = []
    for r in situation.relations:
        ends = []
        for pid in r.entities:
            kind, color = piece_info[pid]
            ends.append(f"{kind}:{side(color)}")
        rel_part.append(f"{r.name}({ends[0]}>{','.join(ends[1:])})")
    rel_part.sort()

    return "|".join(entity_part) + "||" + "|".join(rel_part)


def match_batteries_reference(board: Board) -> list:
    """`chunks._match_batteries` as it was when it walked the line between
    the two sliders itself (`_clear_between`), before it read batteries off
    the relation set as mutual protection."""
    out = []
    sliders = [p for p in board.pieces if p.kind in _SLIDERS]
    for i, a in enumerate(sliders):
        for b in sliders[i + 1:]:
            if a.color is not b.color:
                continue
            df = b.square.file - a.square.file
            dr = b.square.rank - a.square.rank
            orth = df == 0 or dr == 0
            diag = abs(df) == abs(dr) and df != 0
            if not (orth or diag):
                continue
            line_ok = all(
                (orth and p.kind in (PieceKind.ROOK, PieceKind.QUEEN))
                or (diag and p.kind in (PieceKind.BISHOP, PieceKind.QUEEN))
                for p in (a, b))
            if line_ok and _clear_between(board, a.square, b.square):
                out.append(_instance("battery", [a, b], a.color))
    return _dedupe(out)


def match_trapped_kings_reference(board: Board) -> list:
    """`chunks._match_trapped_kings` as it was when it walked the eight
    directions round the king and asked `attackers_of` twice per escape
    square."""
    out = []
    by_index = {p.square.index: p for p in board.pieces}
    for king in board.pieces:
        if king.kind is not PieceKind.KING:
            continue
        enemy = king.color.other
        escapes = []
        for df in (-1, 0, 1):
            for dr in (-1, 0, 1):
                if df == 0 and dr == 0:
                    continue
                f, r = king.square.file + df, king.square.rank + dr
                if not (1 <= f <= 8 and 1 <= r <= 8):
                    continue
                sq = Square(f, r)
                occupant = by_index.get(sq.index)
                if occupant and occupant.color is king.color:
                    continue
                escapes.append(sq)
        safe = [e for e in escapes if not board.attackers_of(e, enemy)]
        if len(safe) > 1:
            continue
        deniers = set()
        for e in escapes:
            attackers = board.attackers_of(e, enemy)
            if len(attackers) == 1:
                deniers.add(attackers[0])
        if deniers:
            out.append(_instance("trapped-king", [king] + sorted(
                deniers, key=lambda p: p.square.name), enemy))
    return _dedupe(out)


def _clear_between(board: Board, a: Square, b: Square) -> bool:
    df = (b.file > a.file) - (b.file < a.file)
    dr = (b.rank > a.rank) - (b.rank < a.rank)
    f, r = a.file + df, a.rank + dr
    while (f, r) != (b.file, b.rank):
        if board.piece_at(Square(f, r)) is not None:
            return False
        f, r = f + df, r + dr
    return True


def _dedupe(instances: list) -> list:
    seen = set()
    out = []
    for c in instances:
        key = (c.pattern, c.members)
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def _ordered_reference(mg, state, moves) -> list:
    """(move, child, gives_check) for each of `moves`: checks, then
    captures, then the rest, in kernel order within each class."""
    sq, stm, castling, ep, half, full = state
    child_white = stm == 1
    ranks = ([], [], [])
    for m in moves:
        child = mg.apply_move(sq, stm, castling, ep, half, full, *m)
        check = mg.in_check(child[0], child_white)
        ranks[0 if check else 2 - (m[3] & 1)].append((m, child, check))
    return ranks[0] + ranks[1] + ranks[2]


def checking_moves_reference(mg, state, moves) -> list:
    """The moves of `moves` that give check, found by making each one on
    kernel `mg` and asking `in_check` of the child."""
    return [m for m in moves
            if mg.in_check(mg.apply_move(*state, *m)[0], state[1] == 1)]


def investigate_reference(board: Board, situation: SituationModel, n: int,
                          budget: int) -> InvestigationResult:
    """Depth-limited AND-OR search for a forced mate in <= n mover moves.

    Root moves are ordered situation-first (checks, captures, quiet within
    each group); opponent replies are always exhaustive. Expands at most
    `budget` nodes; an exhausted budget is a failure for this situation,
    not an error. The situation's proposed moves are the package model's
    `(frm, to, promo)` keys.
    """
    if n < 1 or budget < 1:
        raise ValueError("need n >= 1 and budget >= 1")
    mg = _board._mg
    preferred = situation.proposed
    counter = {"nodes": 0}

    def spend():
        counter["nodes"] += 1
        if counter["nodes"] > budget:
            raise _BudgetExhausted

    def or_node(state, movers_left: int, at_root: bool) -> Optional[list]:
        spend()
        ordered = _ordered_reference(mg, state, mg.legal_moves(*state[:4]))
        if at_root:
            ordered = ([t for t in ordered if t[0][:3] in preferred]
                       + [t for t in ordered if t[0][:3] not in preferred])
        for m, child, check in ordered:
            if movers_left == 1 and not check:
                continue  # the last mover move must mate, so must check
            replies = mg.legal_moves(*child[:4])
            if not replies:
                if check:
                    return [m]
                continue  # stalemate
            if movers_left > 1:
                reply_line = and_node(child, replies, movers_left - 1)
                if reply_line is not None:
                    return [m] + reply_line
        return None

    def and_node(state, replies, movers_left: int) -> Optional[list]:
        spend()
        pv = None
        for reply in replies:
            cont = or_node(_apply(mg, state, reply), movers_left, False)
            if cont is None:
                return None
            if pv is None:
                pv = [reply] + cont
        return pv

    try:
        line = or_node(_state(board), n, True)
    except _BudgetExhausted:
        return InvestigationResult(None, counter["nodes"], True)
    if line is not None:
        line = [_move_from_tuple(t) for t in line]
    return InvestigationResult(line, counter["nodes"], False)


def _proves_reference(mg, state, movers_left: int) -> bool:
    """Full-width forced-mate proof on a raw state."""
    if movers_left < 1:
        return False
    for _, child, check in _ordered_reference(mg, state, mg.legal_moves(*state[:4])):
        if movers_left == 1:
            if check and not mg.has_legal_move(*child[:4]):
                return True
            continue
        replies = mg.legal_moves(*child[:4])
        if not replies:
            if check:
                return True
            continue
        if all(_proves_reference(mg, _apply(mg, child, r), movers_left - 1)
               for r in replies):
            return True
    return False


def _uci(m) -> str:
    return _move_from_tuple(m).uci


def _find_reference(mg, state, uci: str):
    """The legal move of `state` spelled `uci`, or LineError."""
    for m in mg.legal_moves(*state[:4]):
        if _uci(m) == uci:
            return m
    raise LineError(f"illegal move {uci!r} in line")


def validate_line_reference(board: Board, line, n: int) -> bool:
    """Does the line force mate in <= n mover moves against every defense?

    The mover follows the scripted moves while the opponent complies with
    the line; on any deviation the continuation is re-proved full-width.
    Raises LineError if the line itself is not a legal sequence.
    """
    if not line or len(line) > 2 * n - 1:
        raise ValueError(f"line length must be 1..{2 * n - 1}")
    ucis = [m.uci if isinstance(m, Move) else str(m) for m in line]
    mg = _board._mg
    start = pos = _state(board)
    for u in ucis:
        pos = _apply(mg, pos, _find_reference(mg, pos, u))

    def follow(state, script, movers_left: int) -> bool:
        if movers_left < 1:
            return False
        if not script:
            return _proves_reference(mg, state, movers_left)
        child = _apply(mg, state, _find_reference(mg, state, script[0]))
        check = mg.in_check(child[0], child[1] == 0)
        if movers_left == 1:
            return check and not mg.has_legal_move(*child[:4])
        replies = mg.legal_moves(*child[:4])
        if not replies:
            return check
        expected = script[1] if len(script) > 1 else None
        for reply in replies:
            after = _apply(mg, child, reply)
            if expected is not None and _uci(reply) == expected:
                if not follow(after, script[2:], movers_left - 1):
                    return False
            else:
                if not _proves_reference(mg, after, movers_left - 1):
                    return False
        return True

    return follow(start, ucis, n)


def apply_move_reference(board: Board, t) -> Board:
    """The successor of `board` after the kernel's legal move tuple `t`,
    with the castling rook and the en-passant victim placed by rule."""
    frm, to, promo, flags = t
    nsq, nstm, ncast, nep, nhalf, nfull = _board._mg.apply_move(
        board._squares, board._stm, board.castling.mask, board._ep,
        board.halfmove_clock, board.fullmove_number, frm, to, promo, flags)

    by_index = {p.square.index: p for p in board.pieces}
    pieces = []
    mover = by_index[frm]
    cap_sq = to
    if flags & 8:  # en-passant: victim is on the bypassed square
        cap_sq = to - 8 if board.side_to_move is Color.WHITE else to + 8
    for idx, p in by_index.items():
        if idx == frm or idx == cap_sq:
            continue
        pieces.append(p)
    if promo:
        new_id = f"{mover.id}={_FEN_LETTER[_CODE_PROMO[promo]]}{board.fullmove_number}"
        pieces.append(Piece(new_id, _CODE_PROMO[promo], mover.color,
                            Square.from_index(to)))
    else:
        pieces.append(Piece(mover.id, mover.kind, mover.color, Square.from_index(to)))
    if flags & 2:  # short castle: rook h-file -> f-file
        rook_frm, rook_to = (7, 5) if board.side_to_move is Color.WHITE else (63, 61)
        rook = by_index[rook_frm]
        pieces = [p for p in pieces if p.square.index != rook_frm]
        pieces.append(Piece(rook.id, rook.kind, rook.color, Square.from_index(rook_to)))
    elif flags & 4:  # long castle: rook a-file -> d-file
        rook_frm, rook_to = (0, 3) if board.side_to_move is Color.WHITE else (56, 59)
        rook = by_index[rook_frm]
        pieces = [p for p in pieces if p.square.index != rook_frm]
        pieces.append(Piece(rook.id, rook.kind, rook.color, Square.from_index(rook_to)))

    pieces.sort(key=lambda p: p.square.index)
    return Board(
        pieces=tuple(pieces),
        side_to_move=Color.WHITE if nstm == 0 else Color.BLACK,
        castling=CastlingRights.from_mask(ncast),
        en_passant=Square.from_index(nep) if nep >= 0 else None,
        halfmove_clock=nhalf,
        fullmove_number=nfull,
    )


# The analyzer's per-frame arithmetic and record parser as they were
# before each frame's bone vectors were built once and the arithmetic was
# written out on scalars: the bodies are verbatim, only the names carry
# `_reference`. `tests/test_analyzer_oracle.py` swaps them in for the
# package's helpers and requires every output byte to match.

def _set_mean_reference(frame: AUFrame, aus) -> float:
    if not aus:
        return 0.0
    return sum(frame.intensities.get(au, 0.0) for au in aus) / len(aus)


def _segment_distance_reference(p, a, b) -> float:
    """Distance from point p to segment ab in 3D."""
    ab = tuple(b[i] - a[i] for i in range(3))
    ap = tuple(p[i] - a[i] for i in range(3))
    denom = sum(v * v for v in ab)
    if denom == 0.0:
        t = 0.0
    else:
        t = max(0.0, min(1.0, sum(ap[i] * ab[i] for i in range(3)) / denom))
    closest = tuple(a[i] + t * ab[i] for i in range(3))
    return math.dist(p, closest)


def _angle_between_reference(u, v) -> float:
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroDivisionError("degenerate bone")
    cos = sum(a * b for a, b in zip(u, v)) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, cos)))


def _pair_speed_reference(prev: SkeletonFrame, cur: SkeletonFrame,
                          report: Optional[QualityReport] = None) -> Optional[float]:
    """Summed per-bone angular speed (rad/s) from `prev` to `cur`.

    None when the pair has no positive time step. A bone of zero length
    in either frame drops out of the sum and is counted in the report.
    """
    dt_s = (cur.t_ms - prev.t_ms) / 1000.0
    if dt_s <= 0:
        return None
    total = 0.0
    for a, b in BONES:
        u = tuple(prev.joints[b][i] - prev.joints[a][i] for i in range(3))
        v = tuple(cur.joints[b][i] - cur.joints[a][i] for i in range(3))
        try:
            total += _angle_between_reference(u, v) / dt_s
        except ZeroDivisionError:
            if report is not None:
                report.degenerate_bones += 1
    return total


def _pair_speeds_reference(frames: List[SkeletonFrame],
                           report: Optional[QualityReport] = None) -> list:
    return [_pair_speed_reference(prev, cur, report)
            for prev, cur in zip(frames, frames[1:])]


def _tokens_reference(line: str) -> dict:
    out = {}
    for tok in line.split():
        if "=" not in tok:
            raise ValueError(f"token {tok!r} is not key=value")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _parse_record_reference(line: str, session: RecordingSession) -> None:
    kv = _tokens_reference(line)
    if "t_ms" not in kv:
        raise ValueError("missing t_ms")
    raw_t = kv.pop("t_ms")
    try:
        t_ms = int(raw_t)
    except ValueError:
        raise ValueError(f"non-integer t_ms {raw_t!r}")
    kind = kv.pop("kind", None)
    if kind is None:
        raise ValueError("missing kind")

    if kind == "au":
        intensities = {}
        for k, v in kv.items():
            if not k.startswith("au"):
                raise ValueError(f"unexpected au key {k!r}")
            intensities[int(k[2:])] = float(v)
        session.au_stream.append(AUFrame(t_ms, intensities))
    elif kind == "skeleton":
        joints = {}
        for k, v in kv.items():
            parts = v.split(",")
            if len(parts) != 3:
                raise ValueError(f"joint {k!r} needs x,y,z")
            joints[k] = tuple(float(p) for p in parts)
        session.skeleton_stream.append(SkeletonFrame(t_ms, joints))
    elif kind == "marker":
        marker = kv.get("marker")
        if marker not in MARKER_KINDS:
            raise ValueError(f"unknown marker {marker!r}")
        session.markers.append((t_ms, marker, int(kv["task"])))
    elif kind == "pupil":
        session.pupil_stream.append((t_ms, float(kv["diameter_mm"])))
    else:
        session.passthrough.append(line)


# `SkeletonFrame.partial` (as a function of the frame) and
# `compute_body_volume` as they were before they tested a frozenset of the
# required joints and took each axis from one `zip` of the joints.

def _partial_reference(frame: SkeletonFrame) -> bool:
    return any(j not in frame.joints for j in REQUIRED_JOINTS)


def compute_body_volume_reference(frame: SkeletonFrame) -> float:
    """Volume (m^3) of the axis-aligned bounding box around all joints."""
    pts = list(frame.joints.values())
    if len(pts) < 2:
        raise ValueError("body volume needs at least 2 joints")
    vol = 1.0
    for i in range(3):
        coords = [p[i] for p in pts]
        vol *= max(coords) - min(coords)
    return vol
