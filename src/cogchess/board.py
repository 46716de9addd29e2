"""Chess state, FEN I/O, legal move generation and terminal detection.

Board and Move are immutable values; all operations are pure functions of
their inputs, so they are safe to share between threads. The hot kernel
(attack tests, move generation, perft) is selected here at import time:
the compiled ``cogchess._movegen``, one hand-written C file built from the
tracked source with a C compiler alone, when it is importable, otherwise
``cogchess._movegen_py``. Both run the same algorithm.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

if os.environ.get("COGCHESS_PURE") == "1":
    from . import _movegen_py as _mg
    KERNEL = "python"
else:
    try:
        from . import _movegen as _mg  # type: ignore[attr-defined]
        KERNEL = "compiled"
    except ImportError:
        from . import _movegen_py as _mg
        KERNEL = "python"


class FenError(ValueError):
    """Malformed or illegal FEN. `code` identifies the specific violation."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class IllegalMoveError(ValueError):
    pass


class Color(Enum):
    WHITE = "white"
    BLACK = "black"

    @property
    def other(self) -> "Color":
        return Color.BLACK if self is Color.WHITE else Color.WHITE


class PieceKind(Enum):
    PAWN = "pawn"
    KNIGHT = "knight"
    BISHOP = "bishop"
    ROOK = "rook"
    QUEEN = "queen"
    KING = "king"


class GameStatus(Enum):
    ONGOING = "ongoing"
    CHECK = "check"
    CHECKMATE = "checkmate"
    STALEMATE = "stalemate"


_KIND_CODE = {
    PieceKind.PAWN: 1, PieceKind.KNIGHT: 2, PieceKind.BISHOP: 3,
    PieceKind.ROOK: 4, PieceKind.QUEEN: 5, PieceKind.KING: 6,
}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}
_FEN_LETTER = {
    PieceKind.PAWN: "p", PieceKind.KNIGHT: "n", PieceKind.BISHOP: "b",
    PieceKind.ROOK: "r", PieceKind.QUEEN: "q", PieceKind.KING: "k",
}
_LETTER_KIND = {v: k for k, v in _FEN_LETTER.items()}
_FEN_CLOCK = re.compile(r"-?[0-9]+")  # ASCII digits only, unlike int()


@dataclass(frozen=True, order=True)
class Square:
    """Board coordinate with 1-based file (a=1) and rank."""

    file: int
    rank: int

    def __post_init__(self):
        if not (1 <= self.file <= 8 and 1 <= self.rank <= 8):
            raise ValueError(f"square off board: file={self.file} rank={self.rank}")

    @property
    def index(self) -> int:
        """Flat index, a1 = 0 .. h8 = 63, rank-major."""
        return (self.rank - 1) * 8 + (self.file - 1)

    @property
    def name(self) -> str:
        return "abcdefgh"[self.file - 1] + str(self.rank)

    @classmethod
    def from_index(cls, i: int) -> "Square":
        """The square of flat index `i`; one shared object per index 0..63."""
        if 0 <= i < 64:
            return _SQUARES[i]
        return cls((i & 7) + 1, (i >> 3) + 1)

    @classmethod
    def from_name(cls, name: str) -> "Square":
        if len(name) != 2 or name[0] not in "abcdefgh" or name[1] not in "12345678":
            raise ValueError(f"bad square name: {name!r}")
        return cls("abcdefgh".index(name[0]) + 1, int(name[1]))

    def __str__(self) -> str:
        return self.name


_SQUARES = tuple(Square((i & 7) + 1, (i >> 3) + 1) for i in range(64))


@dataclass(frozen=True)
class Piece:
    """A piece with a board-unique id. kind/color never change for an id."""

    id: str
    kind: PieceKind
    color: Color
    square: Square


_PROMO_CODE = {None: 0, PieceKind.KNIGHT: 2, PieceKind.BISHOP: 3,
               PieceKind.ROOK: 4, PieceKind.QUEEN: 5}
_CODE_PROMO = {v: k for k, v in _PROMO_CODE.items()}


@dataclass(frozen=True)
class Move:
    """A move as a player names it: from a square to a square, plus the
    piece a pawn promotes to. What else the move does (a capture,
    castling, en passant, a double push) the kernel decides from the
    board it is played on."""

    from_sq: Square
    to_sq: Square
    promotion: Optional[PieceKind] = None

    @property
    def uci(self) -> str:
        s = self.from_sq.name + self.to_sq.name
        if self.promotion is not None:
            s += _FEN_LETTER[self.promotion]
        return s

    def __str__(self) -> str:
        return self.uci


def _move_from_tuple(t) -> Move:
    frm, to, promo, _ = t
    return Move(Square.from_index(frm), Square.from_index(to), _CODE_PROMO[promo])


def _move_to_tuple(m: Move):
    """The `(frm, to, promo)` key of the kernel's move tuples for `m`; a
    promotion to a pawn or a king gives a key no move tuple has."""
    return (m.from_sq.index, m.to_sq.index, _PROMO_CODE.get(m.promotion))


_SQUARE_INDEX = {s.name: i for i, s in enumerate(_SQUARES)}
_UCI_PROMO = {_FEN_LETTER[k] if k else "": c for k, c in _PROMO_CODE.items()}


def _uci_key(text) -> Optional[tuple]:
    """The `(frm, to, promo)` key that UCI `text` spells as `Move.uci`
    would, or None for anything that spells no move."""
    if not isinstance(text, str):
        return None
    key = (_SQUARE_INDEX.get(text[:2]), _SQUARE_INDEX.get(text[2:4]),
           _UCI_PROMO.get(text[4:]))
    return None if None in key else key


@dataclass(frozen=True)
class CastlingRights:
    white_short: bool = False
    white_long: bool = False
    black_short: bool = False
    black_long: bool = False

    @property
    def mask(self) -> int:
        return (self.white_short * 1 | self.white_long * 2
                | self.black_short * 4 | self.black_long * 8)

    @classmethod
    def from_mask(cls, m: int) -> "CastlingRights":
        return cls(bool(m & 1), bool(m & 2), bool(m & 4), bool(m & 8))

    @property
    def fen(self) -> str:
        s = ("K" if self.white_short else "") + ("Q" if self.white_long else "") \
            + ("k" if self.black_short else "") + ("q" if self.black_long else "")
        return s or "-"


@dataclass(frozen=True)
class Board:
    """Full chess state. Equality is positional (piece ids are ignored).

    `_squares` holds each square's kernel piece code and `_by_index` maps
    each occupied square's index to its piece; both are built once, here.
    """

    pieces: tuple = field(compare=False)
    side_to_move: Color
    castling: CastlingRights
    en_passant: Optional[Square]
    halfmove_clock: int
    fullmove_number: int
    _squares: bytes = field(init=False, repr=False)
    _by_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = bytearray(64)
        by_index = {}
        for p in self.pieces:
            i = p.square.index
            arr[i] = _KIND_CODE[p.kind] + (6 if p.color is Color.BLACK else 0)
            by_index[i] = p
        object.__setattr__(self, "_squares", bytes(arr))
        object.__setattr__(self, "_by_index", by_index)

    # -- kernel plumbing ---------------------------------------------------

    @property
    def _stm(self) -> int:
        return 0 if self.side_to_move is Color.WHITE else 1

    @property
    def _ep(self) -> int:
        return self.en_passant.index if self.en_passant else -1

    def piece_at(self, square: Square) -> Optional[Piece]:
        return self._by_index.get(square.index)

    # -- operations ----------------------------------------------------------

    def legal_moves(self) -> list:
        """All legal moves, in deterministic (from, to, promotion) order."""
        raw = _mg.legal_moves(self._squares, self._stm, self.castling.mask, self._ep)
        return [_move_from_tuple(t) for t in raw]

    def apply_move(self, move: Move) -> "Board":
        """Apply a legal move, returning the successor board."""
        key = _move_to_tuple(move)
        for t in _mg.legal_moves(self._squares, self._stm, self.castling.mask, self._ep):
            if t[:3] == key:
                return self._apply_raw(t)
        raise IllegalMoveError(f"illegal move {move.uci} in {emit_fen(self)}")

    def _apply_raw(self, t) -> "Board":
        """The successor after the kernel's legal move tuple `t`.

        The kernel makes the move; here piece ids only follow it. A piece
        stays where its square keeps its code. A square that gains a piece
        gets the mover at the move's target (a promoted pawn under a new
        id) and otherwise the piece that left a square with that code
        (the castling rook).
        """
        frm, to, _, _ = t
        nsq, nstm, ncast, nep, nhalf, nfull = _mg.apply_move(
            self._squares, self._stm, self.castling.mask, self._ep,
            self.halfmove_clock, self.fullmove_number, *t)
        old = self._squares
        by_index = self._by_index
        left = {old[i]: p for i, p in by_index.items() if nsq[i] != old[i]}
        pieces = []
        for i, code in enumerate(nsq):
            if not code:
                continue
            if code == old[i]:
                pieces.append(by_index[i])
                continue
            p = by_index[frm] if i == to else left[code]
            kind = _CODE_KIND[code - 6 if code > 6 else code]
            pid = p.id if kind is p.kind else \
                f"{p.id}={_FEN_LETTER[kind]}{self.fullmove_number}"
            pieces.append(Piece(pid, kind, p.color, Square.from_index(i)))
        return Board(
            pieces=tuple(pieces),
            side_to_move=Color.WHITE if nstm == 0 else Color.BLACK,
            castling=CastlingRights.from_mask(ncast),
            en_passant=Square.from_index(nep) if nep >= 0 else None,
            halfmove_clock=nhalf,
            fullmove_number=nfull,
        )

    def in_check(self) -> bool:
        return _mg.in_check(self._squares, self.side_to_move is Color.WHITE)

    def game_status(self) -> GameStatus:
        has_moves = _mg.has_legal_move(self._squares, self._stm,
                                       self.castling.mask, self._ep)
        if self.in_check():
            return GameStatus.CHECK if has_moves else GameStatus.CHECKMATE
        return GameStatus.ONGOING if has_moves else GameStatus.STALEMATE

    def perft(self, depth: int) -> int:
        """Leaf count of the legal game tree at exactly `depth`."""
        return _mg.perft(self._squares, self._stm, self.castling.mask, self._ep, depth)

    def attack_squares(self, square: Square) -> list:
        """Squares attacked by the piece on `square` (pawn capture squares only)."""
        return [Square.from_index(i) for i in _mg.attack_targets(self._squares, square.index)]

    def attackers_of(self, square: Square, color: Color) -> list:
        """Pieces of `color` attacking `square`."""
        idxs = _mg.attackers(self._squares, square.index, color is Color.WHITE)
        return [self._by_index[i] for i in idxs]

    def find_move(self, uci: str) -> Move:
        """Look up a legal move by UCI string."""
        key = _uci_key(uci)
        for t in _mg.legal_moves(self._squares, self._stm, self.castling.mask, self._ep):
            if t[:3] == key:
                return _move_from_tuple(t)
        raise IllegalMoveError(f"no legal move {uci!r} in {emit_fen(self)}")


START_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"


def parse_fen(text: str) -> Board:
    """Parse a 6-field FEN string into a validated Board."""
    fields = text.split()
    if len(fields) != 6:
        raise FenError("field-count", f"expected 6 fields, got {len(fields)}")
    placement, active, castling, ep, halfmove, fullmove = fields

    ranks = placement.split("/")
    if len(ranks) != 8:
        raise FenError("rank-count", f"expected 8 ranks, got {len(ranks)}")
    pieces = []
    for rank_i, row in enumerate(ranks):
        rank = 8 - rank_i
        file = 1
        for ch in row:
            if ch in "12345678":
                file += int(ch)
            elif ch.isascii() and ch.lower() in _LETTER_KIND:
                if file > 8:
                    raise FenError("rank-overflow", f"rank {rank} exceeds 8 squares")
                kind = _LETTER_KIND[ch.lower()]
                color = Color.WHITE if ch.isupper() else Color.BLACK
                sq = Square(file, rank)
                pid = f"{'w' if color is Color.WHITE else 'b'}{_FEN_LETTER[kind].upper()}-{sq.name}"
                pieces.append(Piece(pid, kind, color, sq))
                file += 1
            else:
                raise FenError("bad-piece", f"unknown piece letter {ch!r}")
        if file != 9:
            raise FenError("rank-length", f"rank {rank} has {file - 1} squares")

    for color in (Color.WHITE, Color.BLACK):
        kings = [p for p in pieces if p.kind is PieceKind.KING and p.color is color]
        if len(kings) != 1:
            raise FenError("king-count", f"{color.value} has {len(kings)} kings")
    for p in pieces:
        if p.kind is PieceKind.PAWN and p.square.rank in (1, 8):
            raise FenError("pawn-on-back-rank", f"pawn on {p.square.name}")

    if active not in ("w", "b"):
        raise FenError("bad-side", f"side to move must be w or b, got {active!r}")
    side = Color.WHITE if active == "w" else Color.BLACK

    if castling != "-" and (not castling or any(c not in "KQkq" for c in castling)):
        raise FenError("bad-castling", f"bad castling field {castling!r}")
    rights = CastlingRights(
        white_short="K" in castling, white_long="Q" in castling,
        black_short="k" in castling, black_long="q" in castling)
    # Drop rights that the placement cannot support (normalization).
    at = {p.square.index: (p.kind, p.color) for p in pieces}
    wk_home = at.get(4) == (PieceKind.KING, Color.WHITE)
    bk_home = at.get(60) == (PieceKind.KING, Color.BLACK)
    rights = CastlingRights(
        white_short=rights.white_short and wk_home and at.get(7) == (PieceKind.ROOK, Color.WHITE),
        white_long=rights.white_long and wk_home and at.get(0) == (PieceKind.ROOK, Color.WHITE),
        black_short=rights.black_short and bk_home and at.get(63) == (PieceKind.ROOK, Color.BLACK),
        black_long=rights.black_long and bk_home and at.get(56) == (PieceKind.ROOK, Color.BLACK))

    ep_sq: Optional[Square] = None
    if ep != "-":
        try:
            ep_sq = Square.from_name(ep)
        except ValueError as exc:
            raise FenError("bad-en-passant", str(exc)) from exc
        # the square a pawn of the side not to move just passed over
        rank, step = (6, -8) if side is Color.WHITE else (3, 8)
        if ep_sq.rank != rank:
            raise FenError("bad-en-passant",
                           f"en-passant square {ep} not on rank {rank} "
                           f"with {side.value} to move")
        if ep_sq.index in at:
            raise FenError("bad-en-passant", f"en-passant square {ep} is occupied")
        if at.get(ep_sq.index + step) != (PieceKind.PAWN, side.other):
            raise FenError("bad-en-passant",
                           f"no {side.other.value} pawn passed over {ep}")

    if not (_FEN_CLOCK.fullmatch(halfmove) and _FEN_CLOCK.fullmatch(fullmove)):
        raise FenError("bad-clock", "non-integer clock field")
    half, full = int(halfmove), int(fullmove)
    if half < 0 or full < 1:
        raise FenError("bad-clock", f"halfmove {half}, fullmove {full}")

    board = Board(tuple(sorted(pieces, key=lambda p: p.square.index)),
                  side, rights, ep_sq, half, full)
    if _mg.in_check(board._squares, side.other is Color.WHITE):
        raise FenError("side-not-to-move-in-check",
                       f"{side.other.value} is in check but {side.value} is to move")
    return board


def emit_fen(b: Board) -> str:
    """Serialize a Board to canonical 6-field FEN."""
    rows = []
    for rank in range(8, 0, -1):
        row = ""
        run = 0
        for file in range(1, 9):
            p = b._by_index.get((rank - 1) * 8 + (file - 1))
            if p is None:
                run += 1
            else:
                if run:
                    row += str(run)
                    run = 0
                letter = _FEN_LETTER[p.kind]
                row += letter.upper() if p.color is Color.WHITE else letter
        if run:
            row += str(run)
        rows.append(row)
    ep = b.en_passant.name if b.en_passant else "-"
    side = "w" if b.side_to_move is Color.WHITE else "b"
    return (f"{'/'.join(rows)} {side} {b.castling.fen} {ep} "
            f"{b.halfmove_clock} {b.fullmove_number}")


def start_board() -> Board:
    return parse_fen(START_FEN)
