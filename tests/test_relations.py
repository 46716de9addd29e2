"""Relation extraction vs the exhaustive pair/triple oracle, plus inverses."""

import pytest

import oracles
from cogchess.board import (
    Board, CastlingRights, Color, Piece, PieceKind, Square, emit_fen, parse_fen,
)
from cogchess.relations import (
    BASE_NAMES, DEFENSIVE, OFFENSIVE, Relation, extract_relations,
    format_relation, invert,
)
from sampling import playout_positions


def _oracle_form(board):
    """Package relations re-keyed by (file, rank) squares for comparison."""
    by_id = {p.id: p for p in board.pieces}

    def coord(pid):
        s = by_id[pid].square
        return (s.file - 1, s.rank - 1)

    out = set()
    for r in extract_relations(board):
        out.add((r.name, coord(r.subject)) + tuple(coord(o) for o in r.objects))
    return out


def _flatten_oracle(rels):
    return {t for t in rels}


def test_pawn_protects_pawn():
    b = parse_fen("7k/8/8/4P3/3P4/8/8/K7 w - - 0 1")
    found = _oracle_form(b)
    assert ("protects", (3, 3), (4, 4)) in found


def test_fig3_trio_position():
    # bishop pins knight to queen; queen protects knight; king protects queen
    b = parse_fen("4k3/3q4/2n5/1B6/8/8/8/4K3 w - - 0 1")
    found = _oracle_form(b)
    assert ("threatens", (1, 4), (2, 5)) in found      # bishop threatens knight
    assert ("protects", (3, 6), (2, 5)) in found       # queen protects knight
    assert ("protects", (4, 7), (3, 6)) in found       # king protects queen
    assert ("pins", (1, 4), (2, 5), (3, 6)) in found   # bishop pins knight to queen


def test_lone_kings_no_relations():
    b = parse_fen("8/8/8/8/8/8/8/K6k w - - 0 1")
    assert extract_relations(b) == frozenset()


@pytest.mark.parametrize("seed", range(8))
def test_matches_exhaustive_oracle(seed):
    for b in playout_positions(12, seed=seed * 13 + 2):
        ours = _oracle_form(b)
        theirs = _flatten_oracle(oracles.relations(oracles.from_board(b)))
        assert ours == theirs, emit_fen(b)


_ORTH = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAG = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_DIRECTIONS = {PieceKind.ROOK: _ORTH, PieceKind.BISHOP: _DIAG,
               PieceKind.QUEEN: _ORTH + _DIAG}


def _line(s, df, dr):
    """The squares from `s` in direction (df, dr) up to the board's edge,
    nearest first."""
    f, r = (s & 7) + df, (s >> 3) + dr
    out = []
    while 0 <= f <= 7 and 0 <= r <= 7:
        out.append(r * 8 + f)
        f, r = f + df, r + dr
    return out


def _raw_board(pieces):
    """A board of `(kind, color, square index)` pieces, white to move."""
    return Board(tuple(Piece(f"{c.value[0]}{k.value}-{i}", k, c, Square.from_index(i))
                       for k, c, i in pieces),
                 Color.WHITE, CastlingRights(), None, 0, 1)


@pytest.mark.parametrize("kind", list(_DIRECTIONS), ids=lambda k: k.value)
def test_pins_on_every_ray_match_the_oracle(kind):
    """A white slider on each square, a knight on the first square of each
    of its rays and a rook behind it: on each later square of the ray, and
    on the square one index step past the ray's end, where a ray that
    wrapped across the board's edge would go on. Both pieces take either
    color."""
    pins = 0
    for s in range(64):
        for df, dr in _DIRECTIONS[kind]:
            ray = _line(s, df, dr)
            if not ray:
                continue
            past = ray[-1] + 8 * dr + df
            behind = ray[1:] + ([past] if 0 <= past <= 63 and past != s else [])
            for rear in behind:
                for front_color in Color:
                    for rear_color in Color:
                        b = _raw_board([(kind, Color.WHITE, s),
                                        (PieceKind.KNIGHT, front_color, ray[0]),
                                        (PieceKind.ROOK, rear_color, rear)])
                        ours = _oracle_form(b)
                        assert ours == oracles.relations(oracles.from_board(b)), \
                            (kind, s, ray[0], rear, front_color, rear_color)
                        pins += any(t[0] == "pins" for t in ours)
    assert pins


def test_pin_implies_line_blocked():
    # if X pins Y to Z, X does not also threaten Z (Y blocks that line)
    for b in playout_positions(25, seed=97):
        rels = extract_relations(b)
        threats = {(r.subject, r.objects[0]) for r in rels if r.name == "threatens"}
        for r in rels:
            if r.name == "pins":
                assert (r.subject, r.objects[1]) not in threats or _other_line(
                    b, r), emit_fen(b)


def _other_line(board, pin):
    # a queen can pin on one line and threaten the rear piece on another;
    # verify the threat is not along the pin line
    by_id = {p.id: p for p in board.pieces}
    x = by_id[pin.subject].square
    z = by_id[pin.objects[1]].square
    df = (z.file > x.file) - (z.file < x.file)
    dr = (z.rank > x.rank) - (z.rank < x.rank)
    # threat along the pin line would require a clear path
    f, r = x.file + df, x.rank + dr
    while (f, r) != (z.file, z.rank):
        if board.piece_at(type(x)(f, r)) is not None:
            return True  # blocked on the pin line: threat must use another line
        f, r = f + df, r + dr
    return False


def test_invert_threatens():
    r = Relation("threatens", OFFENSIVE, "wP-e4", ("bN-d5",))
    inv = invert(r)
    assert inv == [Relation("threatened-by", OFFENSIVE, "bN-d5", ("wP-e4",))]


def test_invert_protects():
    r = Relation("protects", DEFENSIVE, "wP-d4", ("wP-e5",))
    assert invert(r) == [Relation("protected-by", DEFENSIVE, "wP-e5", ("wP-d4",))]


def test_invert_pin_yields_six():
    r = Relation("pins", OFFENSIVE, "wB-b5", ("bN-c6", "bQ-d7"))
    inv = invert(r)
    assert len(inv) == 6
    assert len({i.name for i in inv}) == 6
    assert len({(i.subject, i.objects) for i in inv}) == 6
    # every permutation of the three entities appears exactly once
    perms = {(i.subject,) + i.objects for i in inv}
    import itertools
    assert perms == set(itertools.permutations(("wB-b5", "bN-c6", "bQ-d7")))


def test_invert_rejects_inverse_input():
    r = Relation("threatened-by", OFFENSIVE, "a", ("b",))
    with pytest.raises(ValueError):
        invert(r)


def test_inverse_counts_over_corpus():
    for b in playout_positions(12, seed=55):
        for r in extract_relations(b):
            expected = 1 if r.arity == 2 else 6
            assert len(invert(r)) == expected


def test_extraction_is_pure():
    b = playout_positions(1, seed=77)[0]
    assert extract_relations(b) == extract_relations(b)


def test_relation_kinds():
    for b in playout_positions(6, seed=88):
        for r in extract_relations(b):
            assert r.name in BASE_NAMES
            assert r.kind == (DEFENSIVE if r.name == "protects" else OFFENSIVE)


def test_format_relation():
    b = parse_fen("4k3/3q4/2n5/1B6/8/8/8/4K3 w - - 0 1")
    rels = {r.name: r for r in extract_relations(b) if r.name == "pins"}
    assert format_relation(rels["pins"], b) == "(bishop@b5 pins knight@c6, queen@d7)"


def test_relation_invariants_reject_bad_arity():
    with pytest.raises(ValueError):
        Relation("pins", OFFENSIVE, "a", ("b", "c", "d"))
    with pytest.raises(ValueError):
        Relation("protects", DEFENSIVE, "a", ("a",))
