"""Offensive/defensive relations between pieces and their inverses.

Three base relations are extracted from a board:

* ``protects`` (defensive, arity 2): the subject attacks the square of a
  piece of its own color.
* ``threatens`` (offensive, arity 2): the subject attacks the square of a
  piece of the opposing color. Pawn attacks are capture squares only.
* ``pins`` (offensive, arity 3): a sliding subject, an enemy piece that is
  the unique blocker on one of the subject's sliding lines, and a piece of
  the blocker's color behind it. The rear piece may be any piece, not only
  the king (relative pins count). The lines are the subject's rays in the
  pure move-generation kernel's per-square tables, read whichever kernel
  is selected; a ray holds a pin when its first piece is an enemy and its
  second has that enemy's color.

Every base relation has inverse-role forms: one for arity 2, six for
arity 3 (one per permutation of subject/object1/object2; the
identity-ordered permutation is included under its own name). Extraction
returns base relations only; ``invert`` derives the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ._movegen_py import _slider_rays
from .board import _KIND_CODE, Board, PieceKind

OFFENSIVE = "offensive"
DEFENSIVE = "defensive"

BASE_NAMES = ("protects", "threatens", "pins")

_SLIDERS = (PieceKind.BISHOP, PieceKind.ROOK, PieceKind.QUEEN)

_BINARY_INVERSE = {
    "protects": "protected-by",
    "threatens": "threatened-by",
}

# (name, subject, object1, object2) for each permutation of (X pins Y to Z),
# reading X = pinner, Y = shield (the pinned piece), Z = rear target.
_PIN_PERMUTATIONS = (
    ("pins-against", "X", "Y", "Z"),
    ("pin-targets", "X", "Z", "Y"),
    ("pinned-by", "Y", "X", "Z"),
    ("pin-shields", "Y", "Z", "X"),
    ("pin-target-of", "Z", "X", "Y"),
    ("pin-covered-by", "Z", "Y", "X"),
)


@dataclass(frozen=True)
class Relation:
    """A named association of 2 or 3 piece entities."""

    name: str
    kind: str
    subject: str
    objects: Tuple[str, ...]

    def __post_init__(self):
        if len(self.objects) not in (1, 2):
            raise ValueError(f"relation arity must be 2 or 3, got {1 + len(self.objects)}")
        if self.subject in self.objects:
            raise ValueError("subject may not appear among the objects")

    @property
    def id(self) -> str:
        return f"{self.name}({self.subject};{';'.join(self.objects)})"

    @property
    def arity(self) -> int:
        return 1 + len(self.objects)

    @property
    def entities(self) -> Tuple[str, ...]:
        return (self.subject,) + self.objects


def extract_relations(board: Board) -> frozenset:
    """All base relations present on the board (no inverses)."""
    out = set()
    by_index = {p.square.index: p for p in board.pieces}

    for piece in board.pieces:
        for target in board.attack_squares(piece.square):
            other = by_index.get(target.index)
            if other is None:
                continue
            if other.color is piece.color:
                out.add(Relation("protects", DEFENSIVE, piece.id, (other.id,)))
            else:
                out.add(Relation("threatens", OFFENSIVE, piece.id, (other.id,)))

    for piece in board.pieces:
        if piece.kind not in _SLIDERS:
            continue
        for ray in _slider_rays(_KIND_CODE[piece.kind], piece.square.index):
            hits = [by_index[s] for s in ray if s in by_index]
            if len(hits) >= 2 and hits[0].color is not piece.color \
                    and hits[1].color is hits[0].color:
                out.add(Relation("pins", OFFENSIVE, piece.id, (hits[0].id, hits[1].id)))
    return frozenset(out)


def invert(r: Relation) -> list:
    """Inverse-role relations for a base relation: 1 for arity 2, 6 for arity 3."""
    if r.name not in BASE_NAMES:
        raise ValueError(f"{r.name!r} is already an inverse relation")
    if r.arity == 2:
        return [Relation(_BINARY_INVERSE[r.name], r.kind, r.objects[0], (r.subject,))]
    roles = {"X": r.subject, "Y": r.objects[0], "Z": r.objects[1]}
    return [Relation(name, r.kind, roles[s], (roles[o1], roles[o2]))
            for name, s, o1, o2 in _PIN_PERMUTATIONS]


def format_relation(r: Relation, board: Board) -> str:
    """Line format ``(subject name object[, object2])`` with kind@square labels."""
    def label(pid: str) -> str:
        piece = board.piece_by_id(pid)
        return f"{piece.kind.value}@{piece.square.name}" if piece else pid

    objs = ", ".join(label(o) for o in r.objects)
    return f"({label(r.subject)} {r.name} {objs})"
