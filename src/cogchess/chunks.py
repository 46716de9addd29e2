"""Chunk pattern catalog and board recognizer.

A chunk is a recognizable configuration of pieces treated as one entity by
the reasoner. Three built-in patterns are always present:

* ``wall-of-pawns``: maximal set of >= 3 same-color pawns on consecutive
  files, each within one rank of its file-neighbor.
* ``battery``: two same-color sliding pieces that protect each other.
  A slider's attacks stop at the first piece on each of its lines, so
  this is a shared clear line that both can slide along.
* ``trapped-king``: a king with at most one safe escape square (a square
  it attacks that no piece of its own holds), where at least one escape
  square is denied by exactly one enemy piece; members are the king plus
  those single deniers, and the chunk belongs to the trapping side.

Additional patterns come from a JSON catalog document (see
``load_catalog``). Catalog patterns are declarative: a list of piece
slots at fixed offsets from an anchor slot, plus relation constraints
that must hold among the slots.

Recognition reads the one relation set the solve extracted
(``recognize_chunks`` takes it as an argument): batteries and relation
constraints are looked up in it, never extracted again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

from .board import Board, Color, PieceKind, Square
from .relations import _SLIDERS
# The benchmark's layer spans look this up on this module by name.
from .relations import extract_relations  # noqa: F401

CATALOG_VERSION = 1

# The keys the loader reads; any other key is rejected, not ignored.
DOCUMENT_KEYS = ("catalog_version", "patterns")
PATTERN_KEYS = ("name", "color_role", "slots", "relations", "min_pieces")
SLOT_KEYS = ("kind", "offset")


class CatalogError(ValueError):
    """Catalog document violates the schema. Names the pattern and field."""

    def __init__(self, pattern: str, fld: str, message: str):
        super().__init__(f"pattern {pattern!r}, field {fld!r}: {message}")
        self.pattern = pattern
        self.field = fld


@dataclass(frozen=True)
class SlotSpec:
    """One piece slot: kind predicate plus offset from the anchor slot.

    The offset is (file, rank) from the anchor, expressed for a white
    chunk; ranks are mirrored for black chunks. The anchor slot has no
    offset.
    """

    kinds: Tuple[PieceKind, ...]
    offset: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class ChunkPattern:
    name: str
    color_role: str  # own / enemy / either
    piece_slots: Tuple[SlotSpec, ...] = ()
    relation_constraints: Tuple[tuple, ...] = ()
    builtin: bool = False


@dataclass(frozen=True)
class ChunkInstance:
    """A pattern instantiated on a concrete board."""

    pattern: str
    members: Tuple[str, ...]  # piece ids, sorted by square
    anchor: Square            # lexicographically minimal member square
    color: Color              # the side the chunk belongs to

    @property
    def id(self) -> str:
        return f"{self.pattern}[{'+'.join(self.members)}]"


def load_catalog(source=None) -> list:
    """Parse a catalog document into validated patterns.

    `source` may be None (built-ins only), a JSON string, or a parsed
    dict. Built-in patterns are always present and come first.
    """
    patterns = [ChunkPattern(name, "either", builtin=True) for name in BUILTIN_NAMES]
    if source is None:
        return patterns
    doc = json.loads(source) if isinstance(source, str) else source
    if not isinstance(doc, dict):
        raise CatalogError("<document>", "<root>", "catalog must be a JSON object")
    if doc.get("catalog_version") != CATALOG_VERSION:
        raise CatalogError("<document>", "catalog_version",
                           f"expected {CATALOG_VERSION}, got {doc.get('catalog_version')!r}")
    _check_keys(doc, DOCUMENT_KEYS, "<document>", "")
    encoded = doc.get("patterns", [])
    if not isinstance(encoded, list):
        raise CatalogError("<document>", "patterns", "must be a list")
    for i, enc in enumerate(encoded):
        if not isinstance(enc, dict):
            raise CatalogError("<document>", f"patterns[{i}]",
                               "pattern must be a JSON object")
        patterns.append(_parse_pattern(enc))
    names = [p.name for p in patterns]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})[0]
        raise CatalogError(dup, "name", "duplicate pattern name")
    return patterns


_KIND_BY_NAME = {k.value: k for k in PieceKind}


def _check_keys(enc: dict, known, pattern: str, where: str) -> None:
    """CatalogError naming the first key of `enc` not among `known`."""
    for key in enc:
        if key not in known:
            raise CatalogError(pattern, f"{where}{key}", "unknown key")


def _parse_pattern(enc: dict) -> ChunkPattern:
    name = enc.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogError(str(name), "name", "missing or empty")
    _check_keys(enc, PATTERN_KEYS, name, "")
    role = enc.get("color_role", "own")
    if role not in ("own", "enemy", "either"):
        raise CatalogError(name, "color_role", f"bad value {role!r}")
    raw_slots = enc.get("slots")
    if not isinstance(raw_slots, list) or len(raw_slots) < 2:
        raise CatalogError(name, "slots", "at least 2 slots required")
    slots = []
    for i, s in enumerate(raw_slots):
        if not isinstance(s, dict):
            raise CatalogError(name, f"slots[{i}]", "slot must be a JSON object")
        _check_keys(s, SLOT_KEYS, name, f"slots[{i}].")
        kinds = s.get("kind", "any")
        if kinds == "any":
            kinds = list(_KIND_BY_NAME)
        elif isinstance(kinds, str):
            kinds = [kinds]
        if not isinstance(kinds, list) or not kinds:
            raise CatalogError(name, f"slots[{i}].kind",
                               "expected a piece kind or a list of them")
        unknown = [k for k in kinds if not isinstance(k, str) or k not in _KIND_BY_NAME]
        if unknown:
            raise CatalogError(name, f"slots[{i}].kind",
                               f"unknown piece kind {unknown[0]!r}")
        kind_tuple = tuple(_KIND_BY_NAME[k] for k in kinds)
        offset = s.get("offset")
        if i == 0:
            if offset is not None:
                raise CatalogError(name, "slots[0].offset", "anchor slot takes no offset")
        else:
            if (not isinstance(offset, (list, tuple)) or len(offset) != 2
                    or not all(isinstance(v, int) for v in offset)):
                raise CatalogError(name, f"slots[{i}].offset",
                                   "offset must be a [file, rank] integer pair")
            offset = (offset[0], offset[1])
        slots.append(SlotSpec(kind_tuple, offset if i else None))

    raw_constraints = enc.get("relations", [])
    if not isinstance(raw_constraints, list):
        raise CatalogError(name, "relations", "must be a list")
    constraints = []
    for j, c in enumerate(raw_constraints):
        if not isinstance(c, list) or len(c) not in (3, 4):
            raise CatalogError(name, f"relations[{j}]",
                               "expected [subj, name, obj] or [subj, 'pins', obj1, obj2]")
        rel_name = c[1]
        if rel_name not in ("protects", "threatens", "pins"):
            raise CatalogError(name, f"relations[{j}]", f"unknown relation {rel_name!r}")
        if rel_name == "pins" and len(c) != 4:
            raise CatalogError(name, f"relations[{j}]", "pins takes two objects")
        refs = [c[0]] + c[2:]
        for ref in refs:
            if not isinstance(ref, int) or not (0 <= ref < len(slots)):
                raise CatalogError(name, f"relations[{j}]",
                                   f"constraint references undeclared slot {ref!r}")
        constraints.append(tuple(c))

    # a match fills every slot, so `min_pieces` cannot change one; it is
    # still checked, as every other field of the document is
    min_pieces = enc.get("min_pieces", len(slots))
    if not isinstance(min_pieces, int) or min_pieces < 2 or min_pieces > len(slots):
        raise CatalogError(name, "min_pieces",
                           f"must be an integer in 2..{len(slots)}")
    return ChunkPattern(name, role, tuple(slots), tuple(constraints))


def recognize_chunks(board: Board, catalog, relations) -> list:
    """Every maximal match of every catalog pattern, exactly once.

    `relations` are the board's base relations (`extract_relations`);
    batteries and relation constraints are read from them.
    Deterministic order: pattern name, then anchor square, then members.
    """
    held = {(r.name, r.subject, r.objects) for r in relations}
    found = []
    for pattern in catalog:
        if pattern.builtin:
            found.extend(_BUILTIN_MATCHERS[pattern.name](board, held))
        else:
            found.extend(_match_declarative(board, pattern, held))
    found.sort(key=lambda c: (c.pattern, c.anchor.name, c.members))
    return found


def _instance(pattern: str, members, color: Color) -> ChunkInstance:
    members = sorted(members, key=lambda p: p.square.name)
    anchor = min((p.square for p in members), key=lambda s: s.name)
    return ChunkInstance(pattern, tuple(p.id for p in members), anchor, color)


def _match_walls(board: Board, held: set) -> list:
    out = []
    for color in (Color.WHITE, Color.BLACK):
        by_file = {}
        for p in board.pieces:
            if p.kind is PieceKind.PAWN and p.color is color:
                by_file.setdefault(p.square.file, []).append(p)

        chains = set()

        def extend(chain):
            nxt = [p for p in by_file.get(chain[-1].square.file + 1, [])
                   if abs(p.square.rank - chain[-1].square.rank) <= 1]
            if not nxt:
                chains.add(tuple(chain))
                return
            for p in sorted(nxt, key=lambda p: p.square.rank):
                extend(chain + [p])

        for f in sorted(by_file):
            for start in sorted(by_file[f], key=lambda p: p.square.rank):
                left = [p for p in by_file.get(f - 1, [])
                        if abs(p.square.rank - start.square.rank) <= 1]
                if not left:
                    extend([start])

        long_enough = [c for c in chains if len(c) >= 3]
        member_sets = [frozenset(p.id for p in c) for c in long_enough]
        for chain, ids in zip(long_enough, member_sets):
            if any(ids < other for other in member_sets):
                continue  # strict subset of another wall
            out.append(_instance("wall-of-pawns", chain, color))
    return out


def _match_batteries(board: Board, held: set) -> list:
    sliders = [p for p in board.pieces if p.kind in _SLIDERS]
    return [_instance("battery", [a, b], a.color)
            for i, a in enumerate(sliders) for b in sliders[i + 1:]
            if ("protects", a.id, (b.id,)) in held
            and ("protects", b.id, (a.id,)) in held]


def _match_trapped_kings(board: Board, held: set) -> list:
    out = []
    for king in board.pieces:
        if king.kind is not PieceKind.KING:
            continue
        enemy = king.color.other
        own = {p.square for p in board.pieces if p.color is king.color}
        attackers = [board.attackers_of(e, enemy)
                     for e in board.attack_squares(king.square) if e not in own]
        if sum(1 for a in attackers if not a) > 1:
            continue
        deniers = {a[0] for a in attackers if len(a) == 1}
        if deniers:
            out.append(_instance("trapped-king", [king] + sorted(
                deniers, key=lambda p: p.square.name), enemy))
    return out


# each built-in pattern's matcher, by name; every matcher takes the board
# and the held relations, whether it reads them or not
_BUILTIN_MATCHERS = {
    "battery": _match_batteries,
    "trapped-king": _match_trapped_kings,
    "wall-of-pawns": _match_walls,
}
BUILTIN_NAMES = tuple(_BUILTIN_MATCHERS)


def _match_declarative(board: Board, pattern: ChunkPattern, held: set) -> list:
    out = []
    if pattern.color_role == "own":
        colors = (board.side_to_move,)
    elif pattern.color_role == "enemy":
        colors = (board.side_to_move.other,)
    else:
        colors = (Color.WHITE, Color.BLACK)

    for color in colors:
        mirror = -1 if color is Color.BLACK else 1
        for anchor in board.pieces:
            if anchor.color is not color or anchor.kind not in pattern.piece_slots[0].kinds:
                continue
            members = [anchor]
            for slot in pattern.piece_slots[1:]:
                f = anchor.square.file + slot.offset[0]
                r = anchor.square.rank + mirror * slot.offset[1]
                p = board._by_index.get((r - 1) * 8 + (f - 1)) \
                    if 1 <= f <= 8 and 1 <= r <= 8 else None
                if p is None or p.color is not color or p.kind not in slot.kinds:
                    break
                members.append(p)
            else:  # every slot is filled
                if all(_constraint_holds(c, members, held)
                       for c in pattern.relation_constraints):
                    out.append(_instance(pattern.name, members, color))
    return out


def _constraint_holds(constraint, members, held) -> bool:
    subj, name, *objs = constraint
    return (name, members[subj].id, tuple(members[o].id for o in objs)) in held
