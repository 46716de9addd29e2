"""Board module tests: FEN round-trips, move legality, terminal detection,
and oracle equivalence of the move generator."""

import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

import oracles
from cogchess import board as _board
from cogchess._movegen_py import FLAG_CASTLE_K, FLAG_CASTLE_Q, FLAG_EP
from cogchess.board import (
    Board, Color, FenError, GameStatus, IllegalMoveError, Move, Piece,
    PieceKind, Square, emit_fen, parse_fen, start_board, START_FEN,
)
from sampling import playout_positions, random_playout

DATA = Path(__file__).resolve().parent / "data"


def test_parse_minimal_position():
    b = parse_fen("8/8/8/8/8/8/8/K6k w - - 0 1")
    assert len(b.pieces) == 2
    assert all(p.kind is PieceKind.KING for p in b.pieces)


def test_parse_start_position():
    b = start_board()
    assert len(b.pieces) == 32
    assert sum(p.color is Color.WHITE for p in b.pieces) == 16
    assert sum(p.color is Color.BLACK for p in b.pieces) == 16


def test_parse_rejects_pawn_on_back_rank():
    with pytest.raises(FenError) as e:
        parse_fen("P7/8/8/8/8/8/8/K6k w - - 0 1")
    assert e.value.code == "pawn-on-back-rank"


def test_parse_rejects_double_kings():
    with pytest.raises(FenError) as e:
        parse_fen("KK6/8/8/8/8/8/8/7k w - - 0 1")
    assert e.value.code == "king-count"


def test_parse_rejects_wrong_field_count():
    with pytest.raises(FenError) as e:
        parse_fen("8/8/8/8/8/8/8/K6k w -")
    assert e.value.code == "field-count"


def test_parse_rejects_side_not_to_move_in_check():
    # white queen gives check to the black king, but white is to move
    with pytest.raises(FenError) as e:
        parse_fen("7k/7Q/8/8/8/8/8/K7 w - - 0 1")
    assert e.value.code == "side-not-to-move-in-check"


@pytest.mark.parametrize("fen", [
    "4k3/8/Q7/1P6/8/8/8/4K3 w - a6 0 1",  # occupied: b5a6 would stack on a6
    "4k3/8/8/8/4pP2/8/8/4K3 w - f3 0 1",  # rank 3 with white to move
    "4k3/8/8/8/4Pp2/8/8/4K3 b - f6 0 1",  # rank 6 with black to move
    "4k3/8/8/1p6/8/8/8/4K3 w - c6 0 1",  # no black pawn on c5
    "4k3/8/8/8/4p3/8/8/4K3 b - e3 0 1",  # the pawn on e4 is black's own
])
def test_parse_rejects_inconsistent_en_passant(fen):
    with pytest.raises(FenError) as e:
        parse_fen(fen)
    assert e.value.code == "bad-en-passant"


@pytest.mark.parametrize("fen, code", [
    ("4k3/\u0668/8/8/8/8/8/4K3 w - - 0 1", "bad-piece"),  # Arabic-Indic 8
    ("4k3/08/8/8/8/8/8/4K3 w - - 0 1", "bad-piece"),
    ("4k3/9/8/8/8/8/8/4K3 w - - 0 1", "bad-piece"),
    ("4k3/\u00b27/8/8/8/8/8/4K3 w - - 0 1", "bad-piece"),  # superscript 2
    ("4k3/8/8/8/8/8/8/4\u212a3 w - - 0 1", "bad-piece"),  # Kelvin sign K
    ("4k3/8/8/8/8/8/8/4K3 w - - 1_0 1", "bad-clock"),
    ("4k3/8/8/8/8/8/8/4K3 w - - +0 1", "bad-clock"),
    ("4k3/8/8/8/8/8/8/4K3 w - - \u0660 1", "bad-clock"),  # Arabic-Indic 0
    ("4k3/8/8/8/8/8/8/4K3 w - - 0 \u00b2", "bad-clock"),
    ("4k3/8/8/8/8/8/8/4K3 w - - 0 --1", "bad-clock"),
    ("4k3/44/8/8/8/8/8/4K3 w - - 0 1", "adjacent-runs"),
    ("4k3/1111p111/8/8/8/8/8/4K3 w - - 0 1", "adjacent-runs"),
    ("r3k2r/8/8/8/8/8/8/R3K2R w KK - 0 1", "bad-castling"),
    ("r3k2r/8/8/8/8/8/8/R3K2R w qK - 0 1", "bad-castling"),
    ("r3k2r/8/8/8/8/8/8/R3K2R w KQkqK - 0 1", "bad-castling"),
])
def test_parse_reads_ascii_numbers_only(fen, code):
    """Only ASCII `1`-`8` are empty-square runs, never two in a row, and
    only ASCII piece letters are pieces; a clock is ASCII `-?[0-9]+`, and
    a castling field `-` or letters of `KQkq`, each once, in that order."""
    with pytest.raises(FenError) as e:
        parse_fen(fen)
    assert e.value.code == code


def test_parse_rejects_negative_clock():
    with pytest.raises(FenError, match="^bad-clock: halfmove -1, fullmove 1$") as e:
        parse_fen("4k3/8/8/8/8/8/8/4K3 w - - -1 1")
    assert e.value.code == "bad-clock"


def test_fen_round_trip_start():
    assert emit_fen(parse_fen(START_FEN)) == START_FEN


def test_fen_round_trip_board_equality():
    b = random_playout(7, 30)
    assert parse_fen(emit_fen(b)) == b


def test_en_passant_field_after_double_push():
    b = start_board().apply_move(start_board().find_move("e2e4"))
    assert b.en_passant == Square.from_name("e3")
    assert emit_fen(b).split()[3] == "e3"


def test_start_position_has_20_moves():
    assert len(start_board().legal_moves()) == 20


def test_cornered_kings_three_moves():
    b = parse_fen("K7/8/8/8/8/8/8/7k w - - 0 1")
    assert [m.uci for m in b.legal_moves()] == ["a8a7", "a8b7", "a8b8"]


def test_checkmate_has_no_moves():
    b = parse_fen("4R1k1/5ppp/8/8/8/8/8/7K b - - 1 1")
    assert b.legal_moves() == []
    assert b.game_status() is GameStatus.CHECKMATE


def test_apply_e2e4():
    b = start_board()
    nxt = b.apply_move(b.find_move("e2e4"))
    assert nxt.piece_at(Square.from_name("e4")).kind is PieceKind.PAWN
    assert nxt.side_to_move is Color.BLACK
    assert nxt.en_passant == Square.from_name("e3")


def test_apply_castle_short():
    b = parse_fen("4k3/8/8/8/8/8/8/4K2R w K - 0 1")
    nxt = b.apply_move(b.find_move("e1g1"))
    assert nxt.piece_at(Square.from_name("g1")).kind is PieceKind.KING
    assert nxt.piece_at(Square.from_name("f1")).kind is PieceKind.ROOK
    assert not nxt.castling.white_short and not nxt.castling.white_long


def test_apply_en_passant_removes_bypassed_pawn():
    b = parse_fen("4k3/8/8/8/4pP2/8/8/4K3 b - f3 0 1")
    nxt = b.apply_move(b.find_move("e4f3"))
    assert nxt.piece_at(Square.from_name("f4")) is None
    assert nxt.piece_at(Square.from_name("f3")).kind is PieceKind.PAWN


def test_apply_rejects_illegal_move():
    """A `Move` that names no legal move of the board is rejected."""
    for fen, frm, to, promotion in (
            (START_FEN, "e2", "e5", None),
            (START_FEN, "e1", "g1", None),  # castling through its own pieces
            ("8/4P3/8/8/8/k7/8/K7 w - - 0 1", "e7", "e8", None),  # must promote
            ("4k3/8/8/8/8/8/4P3/4K3 w - - 0 1", "e2", "e3", PieceKind.QUEEN),
            ("8/4P3/8/8/8/k7/8/K7 w - - 0 1", "e7", "e8", PieceKind.KING)):
        with pytest.raises(IllegalMoveError):
            parse_fen(fen).apply_move(
                Move(Square.from_name(frm), Square.from_name(to), promotion))


# Moves built by hand from their squares, each on a board where it is
# legal: FEN, from, to, promotion, and the FEN after the move.
HAND_BUILT = {
    "double push": (START_FEN, "e2", "e4", None,
                    "rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1"),
    "capture": ("4k3/8/8/3p4/4P3/8/8/4K3 w - - 3 9", "e4", "d5", None,
                "4k3/8/8/3P4/8/8/8/4K3 b - - 0 9"),
    "short castling": ("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1", "e1", "g1", None,
                       "r3k2r/8/8/8/8/8/8/R4RK1 b kq - 1 1"),
    "long castling": ("r3k2r/8/8/8/8/8/8/R3K2R b KQkq - 0 1", "e8", "c8", None,
                      "2kr3r/8/8/8/8/8/8/R3K2R w KQ - 1 2"),
    "en passant": ("4k3/8/8/3pP3/8/8/8/4K3 w - d6 0 2", "e5", "d6", None,
                   "4k3/8/3P4/8/8/8/8/4K3 b - - 0 2"),
    "promotion": ("8/4P3/8/8/8/k7/8/K7 w - - 0 1", "e7", "e8", PieceKind.QUEEN,
                  "4Q3/8/8/8/8/k7/8/K7 b - - 0 1"),
    "under-promotion": ("3r4/4P3/8/8/8/k7/8/K7 w - - 0 1", "e7", "d8",
                        PieceKind.KNIGHT, "3N4/8/8/8/8/k7/8/K7 b - - 0 1"),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_apply_accepts_hand_built_move(name):
    fen, frm, to, promotion, after = HAND_BUILT[name]
    b = parse_fen(fen)
    move = Move(Square.from_name(frm), Square.from_name(to), promotion)
    assert move == b.find_move(move.uci)
    nxt = b.apply_move(move)
    assert emit_fen(nxt) == after
    assert nxt == b.apply_move(b.find_move(move.uci))


KIWIPETE = "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1"
PROMOTIONS = "1r2k3/PPP5/8/3pP3/8/8/5ppp/K5R1 w - d6 0 2"


def _piece_rows(b):
    return [(p.id, p.kind, p.color, p.square) for p in b.pieces]


EN_PASSANT = "8/8/8/3pP3/4K3/8/8/k7 w - d6 0 2"


def test_apply_matches_the_rule_based_reference():
    """Every legal move along seeded playouts from the desk-40 boards,
    kiwipete, an en-passant board and a board of promoting pawns (with an
    en passant) carries the same piece ids, kinds, colours and squares
    over as the rule-based reference, and leads to the successor the
    independent oracle makes: the same pieces, side to move, castling
    rights, en-passant square, halfmove clock and fullmove number. Perft
    reads neither clock, and kernel parity cannot catch a rule both
    kernels get wrong."""
    fens = [json.loads(line)["fen"] for line in
            (DATA / "puzzles_desk40.jsonl").read_text().splitlines()]
    fens += [KIWIPETE, PROMOTIONS, EN_PASSANT]
    flags, promotions, clocks = set(), 0, set()
    for seed, fen in enumerate(fens):
        rng = random.Random(seed)
        b = parse_fen(fen)
        for _ in range(12):
            moves = b.legal_moves()
            if not moves:
                break
            raw = _board._mg.legal_moves(*b._state[:4])
            pos = oracles.from_board(b)
            by_uci = {oracles.move_uci(m): m for m in oracles.legal_moves(pos)}
            assert sorted(by_uci) == sorted(m.uci for m in moves), emit_fen(b)
            for m, t in zip(moves, raw):
                want = oracles.apply_move_reference(b, t)
                got = b.apply_move(m)
                assert _piece_rows(got) == _piece_rows(want), (emit_fen(b), m.uci)
                assert emit_fen(got) == emit_fen(want)
                successor = oracles.from_board(got)
                assert successor == oracles.apply(pos, by_uci[m.uci]), (emit_fen(b), m.uci)
                flags.add(t[3] & (FLAG_CASTLE_K | FLAG_CASTLE_Q | FLAG_EP))
                promotions += bool(t[2])
                clocks.add(successor.halfmove > 0)
            b = b.apply_move(rng.choice(moves))
    # the playouts reach both castlings, en passant and promotions, and
    # the halfmove clock is both reset and carried on
    assert flags == {0, FLAG_CASTLE_K, FLAG_CASTLE_Q, FLAG_EP} and promotions
    assert clocks == {False, True}


def test_piece_index_matches_the_pieces():
    """A board's square index maps each square to the piece on it, on
    parsed boards and on every child along seeded playouts that castle
    both ways, take en passant and promote; `piece_at` finds on each of
    the 64 squares what a scan of the pieces finds."""
    boards = playout_positions(40, seed=5)
    flags, promotions = set(), 0
    for seed, fen in enumerate([START_FEN, KIWIPETE, PROMOTIONS, EN_PASSANT]):
        rng = random.Random(seed)
        b = parse_fen(fen)
        for _ in range(12):
            moves = b.legal_moves()
            if not moves:
                break
            boards.append(b)
            raw = _board._mg.legal_moves(*b._state[:4])
            for m, t in zip(moves, raw):
                boards.append(b.apply_move(m))
                flags.add(t[3] & (FLAG_CASTLE_K | FLAG_CASTLE_Q | FLAG_EP))
                promotions += bool(t[2])
            b = b.apply_move(rng.choice(moves))
    assert flags == {0, FLAG_CASTLE_K, FLAG_CASTLE_Q, FLAG_EP} and promotions
    for b in boards:
        assert b._by_index == {p.square.index: p for p in b.pieces}, emit_fen(b)
        for i in range(64):
            sq = Square.from_index(i)
            scan = next((p for p in b.pieces if p.square == sq), None)
            assert b.piece_at(sq) is scan, (emit_fen(b), sq.name)


def test_square_from_index_shares_the_64_squares():
    """`Square.from_index` returns one shared square per index 0..63, equal
    to the square it names, and raises as the constructor does outside."""
    for i in range(64):
        sq = Square.from_index(i)
        assert sq == Square((i & 7) + 1, (i >> 3) + 1) and sq.index == i
        assert Square.from_index(i) is sq
    for i in (-1, 64, 2**40):
        message = f"square off board: file={(i & 7) + 1} rank={(i >> 3) + 1}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Square.from_index(i)


def test_board_equality_is_positional():
    """Two boards are equal, and hash equal, when they differ only in piece
    ids or in the order of their pieces; every other field counts, and a
    board never equals a value of another type."""
    b = parse_fen(KIWIPETE)
    renamed = Board(tuple(Piece(f"x{i}", p.kind, p.color, p.square)
                          for i, p in enumerate(reversed(b.pieces))),
                    b.side_to_move, b.castling, b.en_passant,
                    b.halfmove_clock, b.fullmove_number)
    assert renamed.pieces != b.pieces
    assert renamed == b and hash(renamed) == hash(b)
    for change in ({"side_to_move": Color.BLACK}, {"halfmove_clock": 1},
                   {"fullmove_number": 2}, {"castling": b.castling.from_mask(1)},
                   {"pieces": b.pieces[1:]}):
        assert dataclasses.replace(b, **change) != b, change
    assert b.__eq__(emit_fen(b)) is NotImplemented
    assert b != emit_fen(b)


def test_status_back_rank_mate():
    b = parse_fen("6k1/5ppp/8/8/8/8/8/4R2K w - - 0 1")
    nxt = b.apply_move(b.find_move("e1e8"))
    assert nxt.game_status() is GameStatus.CHECKMATE


def test_status_stalemate():
    b = parse_fen("7k/5Q2/6K1/8/8/8/8/8 b - - 0 1")
    assert b.game_status() is GameStatus.STALEMATE


def test_status_start_ongoing():
    assert start_board().game_status() is GameStatus.ONGOING


def test_perft_depth_zero_is_one():
    assert start_board().perft(0) == 1


def test_perft_depth_one_equals_move_count():
    b = random_playout(3, 24)
    assert b.perft(1) == len(b.legal_moves())


def test_perft_start_known_values():
    b = start_board()
    assert b.perft(1) == 20
    assert b.perft(2) == 400
    assert b.perft(3) == 8902


@pytest.mark.parametrize("fen, depth, count", [
    # Chess Programming Wiki "Perft Results", positions 3, 4 and 5: a
    # rank-pinned en passant, checks by promotion, discovered checks
    ("8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1", 4, 43238),
    ("r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1", 3, 9467),
    ("rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8", 3, 62379),
])
def test_perft_cpw_positions(fen, depth, count):
    b = parse_fen(fen)
    assert b.perft(depth) == count
    assert b.perft(2) == oracles.perft(oracles.from_board(b), 2)


@pytest.mark.parametrize("seed", range(6))
def test_move_generator_matches_oracle(seed):
    b = random_playout(seed + 100, 10 + seed * 9)
    ours = {m.uci for m in b.legal_moves()}
    theirs = {oracles.move_uci(m) for m in oracles.legal_moves(oracles.from_board(b))}
    assert ours == theirs, emit_fen(b)


@pytest.mark.parametrize("fen", [
    # live castling rights on both sides, including through-check denials
    "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
    "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R b KQkq - 0 1",
    "rn1k1b1N/ppp1p1pQ/6q1/1b1pB2p/1P1P1P2/4P1P1/P1P1N3/2R1K2R w K - 3 21",
])
def test_castling_positions_match_oracle(fen):
    b = parse_fen(fen)
    ours = {m.uci for m in b.legal_moves()}
    theirs = {oracles.move_uci(m) for m in oracles.legal_moves(oracles.from_board(b))}
    assert ours == theirs


def test_perft_matches_oracle_depth_two():
    for b in playout_positions(4, seed=5, min_plies=20, max_plies=50):
        assert b.perft(2) == oracles.perft(oracles.from_board(b), 2), emit_fen(b)


@pytest.fixture(scope="module")
def thousand_playouts():
    return playout_positions(1000, seed=11)


def test_fen_round_trip_on_playouts(thousand_playouts):
    for b in thousand_playouts:
        fen = emit_fen(b)
        assert emit_fen(parse_fen(fen)) == fen
        assert parse_fen(fen) == b


def test_perft_consistency_properties(thousand_playouts):
    # perft(1) = |moves| and perft(2) = sum over successors
    for b in thousand_playouts:
        moves = b.legal_moves()
        assert b.perft(1) == len(moves)
        assert b.perft(2) == sum(len(b.apply_move(m).legal_moves()) for m in moves)


def test_mover_never_left_in_check():
    for b in playout_positions(8, seed=31):
        mover_is_white = b.side_to_move is Color.WHITE
        for m in b.legal_moves():
            nxt = b.apply_move(m)
            pos = oracles.from_board(nxt)
            assert not oracles.in_check(pos.pieces, "w" if mover_is_white else "b")


def test_move_ordering_deterministic():
    b = random_playout(17, 25)
    first = [m.uci for m in b.legal_moves()]
    assert first == [m.uci for m in b.legal_moves()]
    assert first == sorted(first, key=lambda u: (
        Square.from_name(u[:2]).index, Square.from_name(u[2:4]).index, u[4:]))


def test_underpromotion_generated():
    b = parse_fen("8/P7/8/8/8/8/8/K6k w - - 0 1")
    ucis = {m.uci for m in b.legal_moves()}
    assert {"a7a8q", "a7a8r", "a7a8b", "a7a8n"} <= ucis
