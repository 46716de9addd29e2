"""The compiled and pure-Python kernels must return bit-identical results.

When `cogchess._movegen` is not importable, the tracked `_movegen.c` is
built with `setup.py build_ext` into a temporary directory (nothing is
written into the source tree) and loaded from there without entering
`sys.modules`, so every other test keeps the kernel it started with. The
tests skip only when that build fails.
"""

import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from cogchess import _movegen_py as pure
from cogchess import board as _board
from cogchess.board import parse_fen
from sampling import playout_positions

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def _build_kernel(out: Path):
    env = {k: v for k, v in os.environ.items() if k != "COGCHESS_PURE"}
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
         "--build-temp", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    built = sorted((out / "cogchess").glob("_movegen.*"))
    if proc.returncode != 0 or not built:
        pytest.skip(f"compiled kernel did not build: {proc.stderr.strip()}")
    spec = importlib.util.spec_from_file_location("cogchess._movegen", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert spec.name not in sys.modules
    return module


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    try:
        from cogchess import _movegen
    except ImportError:
        return _build_kernel(tmp_path_factory.mktemp("kernel"))
    return _movegen


@pytest.fixture(params=["pure", "compiled"])
def kernel(request):
    return pure if request.param == "pure" else request.getfixturevalue("compiled")


def _state(board):
    return (board._squares, board._stm, board.castling.mask, board._ep)


@pytest.mark.parametrize("seed", range(4))
def test_legal_moves_identical(compiled, seed):
    for b in playout_positions(8, seed=seed * 7 + 1):
        st = _state(b)
        assert compiled.legal_moves(*st) == pure.legal_moves(*st)


def test_apply_identical(compiled):
    for b in playout_positions(6, seed=41):
        st = _state(b)
        for mv in pure.legal_moves(*st):
            args = st + (b.halfmove_clock, b.fullmove_number) + mv
            assert compiled.apply_move(*args) == pure.apply_move(*args)


def test_perft_identical(compiled):
    for b in playout_positions(5, seed=43, min_plies=16, max_plies=60):
        st = _state(b)
        for depth in (1, 2, 3):
            assert compiled.perft(*st, depth) == pure.perft(*st, depth)


def test_attack_helpers_identical(compiled):
    for b in playout_positions(6, seed=47):
        st = _state(b)
        for i in range(64):
            assert compiled.attack_targets(st[0], i) == pure.attack_targets(st[0], i)
            for white in (True, False):
                assert compiled.attacked(st[0], i, white) == pure.attacked(st[0], i, white)
                assert compiled.attackers(st[0], i, white) == pure.attackers(st[0], i, white)


def test_in_check_identical(compiled):
    for b in playout_positions(8, seed=53):
        for white in (True, False):
            assert compiled.in_check(b._squares, white) == pure.in_check(b._squares, white)


# Boards whose legality the pure kernel decides from pins, checkers and
# evasion squares: FEN, moves that must be legal, moves that must not.
SPECIAL = {
    "checkmate": ("4R1k1/5ppp/8/8/8/8/8/7K b - - 0 1", (), ()),
    "stalemate": ("7k/5Q2/6K1/8/8/8/8/8 b - - 0 1", (), ()),
    "double check": ("4r1k1/8/8/8/8/3n4/8/R3K3 w - - 0 1",
                     ("e1d1", "e1d2", "e1f1"), ("a1a8", "a1e1")),
    "double-check mate": ("4r1k1/8/8/8/8/3n4/3P1P2/3QKB2 w - - 0 1", (), ()),
    "check, block or step": ("4k3/8/8/8/8/8/3N4/r3K2R w K - 0 1",
                             ("d2b1", "e1e2"), ("d2f3", "e1g1")),
    "file and diagonal pins": ("4k3/4r3/8/b7/8/8/3BR3/4K3 w - - 0 1",
                               ("d2a5", "e2e7"), ("d2e3", "e2d2")),
    "pinned knight and pawn": ("4k3/8/8/8/1b6/6q1/3N1P2/4K3 w - - 0 1",
                               ("f2g3",), ("d2f3", "f2f3")),
    "en passant takes the checker": ("8/8/8/3pP3/4K3/8/8/k7 w - d6 0 2",
                                     ("e5d6",), ("e5e6",)),
    "en passant pinned along the rank": ("8/8/8/KPp4r/8/8/8/7k w - c6 0 2",
                                         ("b5b6",), ("b5c6",)),
    "black en passant pinned along the rank": (
        "7K/8/8/8/R2Pp2k/8/8/8 b - d3 0 2", ("e4e3",), ("e4d3",)),
    # a king step is tested with the king lifted off the board
    "king cannot step back along the checking ray": (
        "4k3/8/8/8/8/8/8/r3K3 w - - 0 1", ("e1d2", "e1e2", "e1f2"),
        ("e1d1", "e1f1")),
    "king takes an unprotected checker": (
        "4k3/8/8/8/8/8/8/3rK3 w - - 0 1", ("e1d1", "e1e2", "e1f2"),
        ("e1d2", "e1f1")),
    "king takes a protected checker": (
        "4k3/8/8/8/8/8/3r4/3rK3 w - - 0 1", (), ()),
}


def _uci(move):
    return _board._move_from_tuple(move).uci


@pytest.mark.parametrize("name", sorted(SPECIAL))
def test_legal_moves_identical_on_checks_and_pins(compiled, name):
    fen, present, absent = SPECIAL[name]
    st = _state(parse_fen(fen))
    moves = pure.legal_moves(*st)
    assert compiled.legal_moves(*st) == moves
    ucis = {_uci(m) for m in moves}
    assert set(present) <= ucis and not set(absent) & ucis
    assert bool(moves) == bool(present)


def _has_legal_move_cases():
    boards = [parse_fen(fen) for fen, _, _ in SPECIAL.values()]
    for b in playout_positions(12, seed=59):
        boards.append(b)
        # the children include the checks the playouts themselves rarely hit
        boards.extend(b.apply_move(m) for m in b.legal_moves())
    return [_state(b) for b in boards]


def test_has_legal_move_matches_legal_moves(compiled):
    cases = _has_legal_move_cases()
    assert any(not pure.legal_moves(*st) for st in cases)
    for st in cases:
        want = bool(compiled.legal_moves(*st))
        assert bool(pure.legal_moves(*st)) == want
        assert pure.has_legal_move(*st) is want
        assert compiled.has_legal_move(*st) is want


def _raw_squares(pieces):
    arr = bytearray(64)
    for i, code in pieces.items():
        arr[i] = code
    return bytes(arr)


@pytest.mark.parametrize("code", range(pure.WP, pure.BK + 1))
def test_lone_piece_attacks_on_every_square(compiled, code):
    """The kernels' per-square tables at the board's edges: one piece alone
    on each square, its targets, every square it attacks and the moves its
    side generates. With no king every pseudo-move is legal, so a lone
    knight, king or slider moves to exactly the squares it attacks."""
    white = code <= pure.WK
    for s in range(64):
        sq = _raw_squares({s: code})
        targets = pure.attack_targets(sq, s)
        assert compiled.attack_targets(sq, s) == targets, s
        st = (sq, 0 if white else 1, 0, -1)
        moves = pure.legal_moves(*st)
        assert compiled.legal_moves(*st) == moves, s
        assert pure.has_legal_move(*st) is compiled.has_legal_move(*st) is bool(moves)
        if code not in (pure.WP, pure.BP):
            assert [to for _, to, _, _ in moves] == targets, s
        for t in range(64):
            for by_white in (True, False):
                want = by_white == white and t in targets
                assert pure.attacked(sq, t, by_white) is want, (s, t)
                assert compiled.attacked(sq, t, by_white) is want, (s, t)
                assert pure.attackers(sq, t, by_white) == ([s] if want else [])
                assert compiled.attackers(sq, t, by_white) == ([s] if want else [])


# A pawn on its own last rank, which `parse_fen` rejects but the kernels'
# entries take: it has no push. Squares and side to move.
PAWN_ON_LAST_RANK = {
    "white pawn on e8": (_raw_squares({60: pure.WP, 0: pure.WK, 47: pure.BK}), 0),
    "black pawn on d1": (_raw_squares({3: pure.BP, 56: pure.BK, 23: pure.WK}), 1),
}


@pytest.mark.parametrize("name", sorted(PAWN_ON_LAST_RANK))
def test_pawn_on_its_last_rank_has_no_push(compiled, name):
    sq, stm = PAWN_ON_LAST_RANK[name]
    st = (sq, stm, 0, -1)
    moves = pure.legal_moves(*st)
    assert compiled.legal_moves(*st) == moves
    assert moves and all(sq[frm] not in (pure.WP, pure.BP) for frm, _, _, _ in moves)
    assert pure.has_legal_move(*st) is compiled.has_legal_move(*st) is True
    assert pure.perft(*st, 2) == compiled.perft(*st, 2)


# `checking_moves` against making each move and asking `in_check`: boards
# whose checks only the en-passant, castling and promotion make-and-test,
# the vacated square or the discovered-check rays find. FEN, and the
# checking moves.
CHECKS = {
    "en passant uncovers a rank": ("8/8/8/R2pP2k/8/8/8/K7 w - d6 0 2", {"e5d6"}),
    "black en passant uncovers a rank": ("8/8/8/8/r2pP2K/8/8/k7 b - e3 0 1",
                                         {"d4e3"}),
    "castling rook checks, king side": ("5k2/8/8/8/8/8/8/4K2R w K - 0 1",
                                        {"e1g1", "h1f1", "h1h8"}),
    "castling rook checks, queen side": ("3k4/8/8/8/8/8/8/R3K3 w Q - 0 1",
                                         {"e1c1", "a1d1", "a1a8"}),
    "promotion to a knight": ("8/4P3/3k4/8/8/8/8/K7 w - - 0 1", {"e7e8n"}),
    "promotion to a bishop": ("8/1P6/8/4k3/8/8/8/K7 w - - 0 1",
                              {"b7b8b", "b7b8q"}),
    "promotion to a rook": ("7k/P7/8/8/8/8/8/K7 w - - 0 1", {"a7a8r", "a7a8q"}),
    "black promotion to a knight": ("k7/8/8/8/8/3K4/4p3/8 b - - 0 1", {"e2e1n"}),
    # the new piece's line to the king runs through the pawn's own square
    "capture-promotion through the vacated square": (
        "3r4/4P3/5k2/8/8/8/8/K7 w - - 0 1", {"e7d8b", "e7d8q", "e7e8n"}),
    "push-promotion through the vacated square": (
        "8/4P3/8/4k3/8/8/8/K7 w - - 0 1", {"e7e8q", "e7e8r"}),
    "king move uncovers a rank": ("8/8/8/8/8/8/8/R2K3k w - - 0 1",
                                  {"d1c2", "d1d2", "d1e2"}),
    # d6 and f6 check twice, the knight's other squares once, by the rook
    "double check": ("4k3/8/8/8/4N3/8/8/K3R3 w - - 0 1",
                     {"e4c3", "e4c5", "e4d2", "e4d6", "e4f2", "e4f6", "e4g3",
                      "e4g5"}),
}


def _full_state(board):
    return _state(board) + (board.halfmove_clock, board.fullmove_number)


@pytest.fixture(scope="module")
def check_test_states():
    """The 1000 playout positions, and the desk-40 and motif-72 boards with
    each of their children."""
    boards = playout_positions(1000, seed=61)
    desk = [json.loads(line)["fen"] for line in
            (DATA / "puzzles_desk40.jsonl").read_text().splitlines()]
    motif = [row.split("\t")[0] for row in
             (DATA / "motif72_golden.tsv").read_text().splitlines()[1:-1]]
    for fen in desk + motif:
        b = parse_fen(fen)
        boards.append(b)
        boards.extend(b.apply_move(m) for m in b.legal_moves())
    return [_full_state(b) for b in boards]


def test_checking_moves_match_make_and_test(kernel, check_test_states):
    checks = 0
    for st in check_test_states:
        moves = pure.legal_moves(*st[:4])
        want = oracles.checking_moves_reference(pure, st, moves)
        assert kernel.checking_moves(*st[:4], moves) == want, st
        checks += len(want)
    assert checks > 1000  # the boards are not short of checks


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_checking_moves_on_hand_made_boards(kernel, name):
    fen, ucis = CHECKS[name]
    st = _full_state(parse_fen(fen))
    moves = pure.legal_moves(*st[:4])
    got = kernel.checking_moves(*st[:4], moves)
    assert got == oracles.checking_moves_reference(pure, st, moves)
    assert {_uci(m) for m in got} == ucis


def test_checking_moves_without_an_enemy_king(kernel):
    """A board with no enemy king gives no check, as `in_check` says."""
    for fen in ("4k3/8/8/8/8/8/3Q4/K7 w - - 0 1", "4k3/3q4/8/8/8/8/8/K7 b - - 0 1"):
        st = _full_state(parse_fen(fen))
        moves = pure.legal_moves(*st[:4])
        assert kernel.checking_moves(*st[:4], moves)
        enemy = pure.WK if st[1] else pure.BK
        kingless = st[0].replace(bytes([enemy]), bytes([pure.EMPTY]))
        moves = pure.legal_moves(kingless, *st[1:4])
        assert moves
        assert kernel.checking_moves(kingless, *st[1:4], moves) == []


def test_checking_moves_keep_the_given_order(kernel):
    st = _state(parse_fen(CHECKS["double check"][0]))
    moves = pure.legal_moves(*st)[::-1]
    got = kernel.checking_moves(*st, moves)
    assert got == [m for m in moves if m in got]
    assert kernel.checking_moves(*st, []) == []


def _public(module):
    return {name for name in dir(module) if not name.startswith("_")}


def test_kernels_export_the_same_names(compiled):
    assert _public(compiled) == _public(pure)
    for name in _public(pure):
        if isinstance(getattr(pure, name), int):
            assert getattr(compiled, name) == getattr(pure, name), name


KIWIPETE = "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1"


def test_compiled_perft_published_counts(compiled):
    assert compiled.perft(*_state(_board.start_board()), 3) == 8902
    assert compiled.perft(*_state(parse_fen(KIWIPETE)), 2) == 2039


# Boards whose legality and checks need trial moves: castling and pins,
# en passant, promotions, and a king in check.
TRIAL_MOVE_BOARDS = {
    "kiwipete": KIWIPETE,
    "en passant": "8/8/8/KPp4r/8/8/8/7k w - c6 0 2",
    "promotion": "1r2k3/PPP5/8/3pP3/8/8/5ppp/K5R1 w - d6 0 2",
    "check": "4k3/8/8/8/8/8/3N4/r3K2R w K - 0 1",
}


def _calls(entry, board):
    """The arguments after the squares for each call of `entry` on
    `board`."""
    stm, castling, ep = board._stm, board.castling.mask, board._ep
    white = stm == 0
    moves = pure.legal_moves(board._squares, stm, castling, ep)
    if entry in ("attacked", "attackers"):
        return [(s, by_white) for s in range(64) for by_white in (True, False)]
    if entry == "attack_targets":
        return [(s,) for s in range(64)]
    if entry == "in_check":
        return [(white,), (not white,)]
    if entry in ("legal_moves", "has_legal_move"):
        return [(stm, castling, ep)]
    if entry == "checking_moves":
        return [(stm, castling, ep, moves)]
    if entry == "apply_move":
        clocks = (stm, castling, ep, board.halfmove_clock, board.fullmove_number)
        return [clocks + m for m in moves]
    assert entry == "perft", entry
    return [(stm, castling, ep, 2)]


@pytest.mark.parametrize("name", sorted(TRIAL_MOVE_BOARDS))
def test_entries_never_write_to_their_squares(kernel, name):
    """Each entry returns for a bytearray what it returns for bytes, and
    leaves the bytearray as it was: a trial move is made on a copy."""
    board = parse_fen(TRIAL_MOVE_BOARDS[name])
    frozen = board._squares
    for entry in ENTRY_ARGS:
        call = getattr(kernel, entry)
        for rest in _calls(entry, board):
            mutable = bytearray(frozen)
            assert call(mutable, *rest) == call(frozen, *rest), (entry, rest)
            assert mutable == frozen, (entry, rest)


# Each entry's arguments around a squares buffer `sq`.
ENTRY_ARGS = {
    "attacked": lambda sq: (sq, 0, True),
    "attackers": lambda sq: (sq, 0, True),
    "attack_targets": lambda sq: (sq, 0),
    "in_check": lambda sq: (sq, True),
    "legal_moves": lambda sq: (sq, 0, 0, -1),
    "has_legal_move": lambda sq: (sq, 0, 0, -1),
    "checking_moves": lambda sq: (sq, 0, 0, -1, [(12, 28, 0, 16)]),
    "apply_move": lambda sq: (sq, 0, 0, -1, 0, 1, 12, 28, 0, 16),
    "perft": lambda sq: (sq, 0, 0, -1, 1),
}


def _rejects_squares_not_64_bytes(kernel, name, size):
    message = re.escape(f"{name}(): squares must be 64 bytes, got {size}")
    with pytest.raises(ValueError, match=message):
        getattr(kernel, name)(*ENTRY_ARGS[name](bytes(size)))


def _rejects_square_off_board(kernel, target):
    sq = _board.start_board()._squares
    for name, args in (("attacked", (sq, target, True)),
                       ("attackers", (sq, target, False)),
                       ("attack_targets", (sq, target)),
                       ("checking_moves", (sq, 0, 0, -1, [(target, 28, 0, 0)])),
                       ("checking_moves", (sq, 0, 0, -1, [(12, 28, 0, 0),
                                                          (12, target, 0, 0)])),
                       ("apply_move", (sq, 0, 0, -1, 0, 1, target, 28, 0, 0)),
                       ("apply_move", (sq, 0, 0, -1, 0, 1, 12, target, 0, 0))):
        with pytest.raises(ValueError,
                           match=re.escape(f"{name}(): square {target} not in 0..63")):
            getattr(kernel, name)(*args)


# The same checks on both kernels; the pure ones run when the build fails.
ENTRY_NAMES = pytest.mark.parametrize("name", list(ENTRY_ARGS))
SIZES = pytest.mark.parametrize("size", [0, 63, 65])
OFF_BOARD = pytest.mark.parametrize("target", [-1, 64, 2**40])


@ENTRY_NAMES
@SIZES
def test_compiled_rejects_squares_not_64_bytes(compiled, name, size):
    _rejects_squares_not_64_bytes(compiled, name, size)


@ENTRY_NAMES
@SIZES
def test_pure_rejects_squares_not_64_bytes(name, size):
    _rejects_squares_not_64_bytes(pure, name, size)


@OFF_BOARD
def test_compiled_rejects_square_off_board(compiled, target):
    _rejects_square_off_board(compiled, target)


@OFF_BOARD
def test_pure_rejects_square_off_board(target):
    _rejects_square_off_board(pure, target)


def _outcome(call, args):
    """What `call(*args)` returns, or the type and text of what it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _random_squares(rng, n):
    """`n` random 64-byte buffers: by turns any bytes at all, piece codes
    only, and piece codes with one byte above 12."""
    for i in range(n):
        if i % 3 == 0:
            yield bytes(rng.randrange(256) for _ in range(64))
            continue
        sq = bytearray(rng.choice((pure.EMPTY,) * 12 + tuple(range(1, 13)))
                       for _ in range(64))
        if i % 3 == 2:
            sq[rng.randrange(64)] = rng.randrange(13, 256)
        yield bytes(sq)


def test_entries_agree_on_random_squares(compiled):
    """Every entry gives the same result on both kernels, or raises the same
    exception with the same text, whatever bytes its squares hold."""
    rng = random.Random(71)
    for sq in _random_squares(rng, 600):
        for name, args in ENTRY_ARGS.items():
            want = _outcome(getattr(pure, name), args(sq))
            assert _outcome(getattr(compiled, name), args(sq)) == want, (name, sq)


@ENTRY_NAMES
def test_rejects_squares_with_a_byte_above_12(kernel, name):
    """A squares byte is EMPTY or a piece code; the first one above 12 is
    named."""
    sq = bytearray(_board.start_board()._squares)
    sq[12] = 20
    sq[40] = 13
    sq[63] = 255
    message = re.escape(f"{name}(): squares must hold piece codes 0..12, got 20 at 12")
    with pytest.raises(ValueError, match=message):
        getattr(kernel, name)(*ENTRY_ARGS[name](bytes(sq)))


@pytest.mark.parametrize("promo", [300, -1, 1, 6, 7, 2**40])
def test_kernels_reject_a_promo_that_is_not_a_piece_kind(compiled, promo):
    """A move's promo is 0 or the piece kind a pawn becomes, 2..5; both
    kernels reject any other with the same text instead of writing it."""
    sq = _board.start_board()._squares
    for name, args in (("apply_move", (sq, 0, 0, -1, 0, 1, 12, 20, promo, 0)),
                       ("checking_moves", (sq, 0, 0, -1, [(12, 20, promo, 0)]))):
        want = (ValueError, f"{name}(): promo must be 0 or 2..5, got {promo}")
        assert _outcome(getattr(pure, name), args) == want
        assert _outcome(getattr(compiled, name), args) == want


@pytest.mark.parametrize("stm, to, captured", [(0, 3, -5), (1, 60, 68)])
def test_rejects_en_passant_capture_off_board(kernel, stm, to, captured):
    """An en-passant move's captured pawn stands beside its target; the
    kernels reject one that would stand off the board instead of writing
    there."""
    sq = _board.start_board()._squares
    move = (12, to, 0, pure.FLAG_CAPTURE | pure.FLAG_EP)
    for name, args in (("apply_move", (sq, stm, 0, -1, 0, 1) + move),
                       ("checking_moves", (sq, stm, 0, -1, [move]))):
        with pytest.raises(ValueError,
                           match=re.escape(f"{name}(): square {captured} not in 0..63")):
            getattr(kernel, name)(*args)
