"""Chunk catalog validation and recognizer equivalence with a brute-force
subset matcher."""

import json
from pathlib import Path

import pytest

import oracles
from cogchess.board import Color, parse_fen, emit_fen
from cogchess.chunks import (
    BUILTIN_NAMES, CatalogError, load_catalog, recognize_chunks,
)
from cogchess.relations import extract_relations
from sampling import playout_positions

DATA = Path(__file__).parent / "data"

FIANCHETTO = {
    "catalog_version": 1,
    "patterns": [
        {
            "name": "fianchetto",
            "color_role": "either",
            "slots": [
                {"kind": "bishop"},
                {"kind": "pawn", "offset": [0, 1]},
                {"kind": "pawn", "offset": [-1, 0]},
                {"kind": "pawn", "offset": [1, 0]},
            ],
            "relations": [[2, "protects", 1], [3, "protects", 1]],
        }
    ],
}


def _recognize(board, catalog):
    return recognize_chunks(board, catalog, extract_relations(board))


def test_empty_catalog_has_builtins():
    patterns = load_catalog(None)
    assert sorted(p.name for p in patterns) == sorted(BUILTIN_NAMES)


def test_catalog_adds_pattern():
    patterns = load_catalog(json.dumps(FIANCHETTO))
    assert len(patterns) == 4
    assert patterns[-1].name == "fianchetto"


def test_catalog_rejects_undeclared_slot():
    doc = {
        "catalog_version": 1,
        "patterns": [{
            "name": "broken",
            "slots": [{"kind": "rook"}, {"kind": "rook", "offset": [0, 1]}],
            "relations": [[0, "protects", 5]],
        }],
    }
    with pytest.raises(CatalogError) as e:
        load_catalog(json.dumps(doc))
    assert e.value.pattern == "broken"
    assert "undeclared slot" in str(e.value)


def test_catalog_rejects_bad_version():
    with pytest.raises(CatalogError):
        load_catalog('{"catalog_version": 99, "patterns": []}')


def test_catalog_rejects_single_slot():
    doc = {"catalog_version": 1,
           "patterns": [{"name": "solo", "slots": [{"kind": "king"}]}]}
    with pytest.raises(CatalogError) as e:
        load_catalog(json.dumps(doc))
    assert e.value.field == "slots"


@pytest.mark.parametrize("min_pieces", [1, 5, "2"])
def test_catalog_rejects_out_of_range_min_pieces(min_pieces):
    doc = json.loads(json.dumps(FIANCHETTO))
    doc["patterns"][0]["min_pieces"] = min_pieces
    with pytest.raises(CatalogError) as e:
        load_catalog(doc)
    assert (e.value.pattern, e.value.field) == ("fianchetto", "min_pieces")


def test_catalog_accepts_min_pieces_in_range():
    doc = json.loads(json.dumps(FIANCHETTO))
    doc["patterns"][0]["min_pieces"] = 2
    assert load_catalog(doc)[-1].name == "fianchetto"


@pytest.mark.parametrize("patterns, where", [
    ({"name": "x"}, ("<document>", "patterns")),
    (["not an object"], ("<document>", "patterns[0]")),
    ([{"name": "x", "slots": [{"kind": "rook"}, 7]}], ("x", "slots[1]")),
    ([{"name": "x", "slots": [{"kind": ["rook"]},
                              {"kind": [["rook"]], "offset": [0, 1]}]}],
     ("x", "slots[1].kind")),
    ([{"name": "x", "slots": [{"kind": {"rook": 1}},
                              {"kind": "rook", "offset": [0, 1]}]}],
     ("x", "slots[0].kind")),
    ([{"name": "x", "slots": [{"kind": "rook"}, {"kind": "rook", "offset": [0, 1]}],
       "relations": 3}], ("x", "relations")),
    # a misspelled key would drop its constraint or role: rejected by name
    ([{"name": "p", "slots": [{"kind": "pawn"}, {"kind": "pawn", "offset": [1, 1]}],
       "relation": [[0, "protects", 1]]}], ("p", "relation")),
    ([{"name": "p", "colour_role": "enemy",
       "slots": [{"kind": "pawn"}, {"kind": "pawn", "offset": [1, 1]}]}],
     ("p", "colour_role")),
    ([{"name": "p", "slots": [{"kinds": "pawn"}, {"kind": "pawn", "offset": [1, 1]}]}],
     ("p", "slots[0].kinds")),
    ([{"name": "p", "slots": [{"kind": "pawn"}, {"kind": "pawn", "ofset": [1, 1]}]}],
     ("p", "slots[1].ofset")),
])
def test_catalog_rejects_malformed_entries(patterns, where):
    with pytest.raises(CatalogError) as e:
        load_catalog({"catalog_version": 1, "patterns": patterns})
    assert (e.value.pattern, e.value.field) == where


def test_catalog_rejects_unknown_document_key():
    doc = dict(FIANCHETTO, pattern=[])
    with pytest.raises(CatalogError) as e:
        load_catalog(json.dumps(doc))
    assert (e.value.pattern, e.value.field) == ("<document>", "pattern")
    assert str(e.value) == "pattern '<document>', field 'pattern': unknown key"


def test_wall_of_pawns_basic():
    b = parse_fen("6k1/5ppp/8/8/8/8/8/K7 w - - 0 1")
    walls = [c for c in _recognize(b, load_catalog())
             if c.pattern == "wall-of-pawns"]
    assert len(walls) == 1
    assert len(walls[0].members) == 3
    assert walls[0].color is Color.BLACK
    assert walls[0].anchor.name == "f7"


def test_battery_rook_behind_queen():
    b = parse_fen("7k/8/8/1Q6/8/8/1R6/K7 w - - 0 1")
    batteries = [c for c in _recognize(b, load_catalog())
                 if c.pattern == "battery"]
    assert len(batteries) == 1
    assert batteries[0].color is Color.WHITE


def test_battery_requires_compatible_line():
    # bishop and rook share a file: not a battery (bishop cannot slide there)
    b = parse_fen("7k/8/8/1B6/8/8/1R6/K7 w - - 0 1")
    batteries = [c for c in _recognize(b, load_catalog())
                 if c.pattern == "battery"]
    assert batteries == []


def test_trapped_king_bishop_denies_corner():
    # black king a8 boxed by its own pawn b7 and a bishop guarding the diagonal
    b = parse_fen("k7/1p6/8/8/8/8/8/K5B1 w - - 0 1")
    traps = [c for c in _recognize(b, load_catalog())
             if c.pattern == "trapped-king"]
    trapped_black = [t for t in traps if t.color is Color.WHITE]
    assert len(trapped_black) == 1
    ids = trapped_black[0].members
    assert any("bK" in i for i in ids) and any("wB" in i for i in ids)


def test_lone_kings_no_chunks():
    b = parse_fen("8/8/8/8/8/8/8/K6k w - - 0 1")
    assert _recognize(b, load_catalog()) == []


def test_fianchetto_recognized():
    b = parse_fen("6k1/5pbp/6p1/8/8/8/8/7K b - - 0 1")
    chunks = _recognize(b, load_catalog(json.dumps(FIANCHETTO)))
    fian = [c for c in chunks if c.pattern == "fianchetto"]
    assert len(fian) == 1
    assert fian[0].color is Color.BLACK


def test_recognizer_matches_brute_force():
    catalog = load_catalog()
    for b in playout_positions(200, seed=202, min_plies=10, max_plies=80):
        pos = oracles.from_board(b)
        chunks = _recognize(b, catalog)
        color_letter = {Color.WHITE: "w", Color.BLACK: "b"}

        def as_sets(pattern):
            by_id = {p.id: p for p in b.pieces}
            return {(color_letter[c.color], frozenset(
                (by_id[m].square.file - 1, by_id[m].square.rank - 1)
                for m in c.members))
                for c in chunks if c.pattern == pattern}

        assert as_sets("wall-of-pawns") == oracles.walls_of_pawns(pos), emit_fen(b)
        assert as_sets("battery") == oracles.batteries(pos), emit_fen(b)
        assert as_sets("trapped-king") == oracles.trapped_kings(pos), emit_fen(b)


def test_batteries_and_trapped_kings_match_reference():
    """Batteries read as mutual protection, and trapped kings read off the
    king's attack set, find what the line walk and the eight-direction
    walk found."""
    boards = playout_positions(1000, seed=505)
    boards += [parse_fen(json.loads(line)["fen"]) for line in
               (DATA / "puzzles_desk40.jsonl").read_text().splitlines()]
    boards += [parse_fen(row.split("\t")[0]) for row in
               (DATA / "motif72_golden.tsv").read_text().splitlines()[1:-1]]
    catalog = load_catalog()
    seen = {"battery": 0, "trapped-king": 0}
    for b in boards:
        chunks = _recognize(b, catalog)
        for pattern, reference in (
                ("battery", oracles.match_batteries_reference),
                ("trapped-king", oracles.match_trapped_kings_reference)):
            got = [c for c in chunks if c.pattern == pattern]
            want = sorted(reference(b), key=lambda c: (c.anchor.name, c.members))
            assert got == want, (pattern, emit_fen(b))
            seen[pattern] += len(got)
    assert len(boards) == 1112
    assert seen["battery"] > 0 and seen["trapped-king"] > 0


def test_wall_maximality():
    for b in playout_positions(30, seed=303, min_plies=6, max_plies=40):
        walls = [c for c in _recognize(b, load_catalog())
                 if c.pattern == "wall-of-pawns"]
        sets = [frozenset(c.members) for c in walls]
        for s in sets:
            assert not any(s < t for t in sets)


def test_members_reverify():
    catalog = load_catalog()
    for b in playout_positions(10, seed=404):
        by_id = {p.id: p for p in b.pieces}
        for c in _recognize(b, catalog):
            members = [by_id.get(m) for m in c.members]
            assert all(m is not None for m in members)
            assert c.anchor == min((m.square for m in members), key=lambda s: s.name)
            if c.pattern == "wall-of-pawns":
                assert len(members) >= 3
                assert len({m.color for m in members}) == 1
            elif c.pattern == "battery":
                assert len(members) == 2


def test_deterministic_order():
    b = parse_fen("6k1/5ppp/8/8/8/8/PPP5/K2R2Q1 w - - 0 1")
    catalog = load_catalog()
    once = _recognize(b, catalog)
    again = _recognize(b, catalog)
    assert once == again
    keys = [(c.pattern, c.anchor.name) for c in once]
    assert keys == sorted(keys)


def test_shipped_sample_catalog():
    from importlib import resources
    text = resources.files("cogchess").joinpath(
        "data/catalog_sample.json").read_text()
    patterns = load_catalog(text)
    names = {p.name for p in patterns}
    assert {"fianchetto", "castled-shield", "connected-passers"} <= names
    # the castled-shield matches a castled king behind its wall
    b = parse_fen("6k1/5ppp/8/8/8/8/8/7K b - - 0 1")
    found = [c for c in _recognize(b, patterns)
             if c.pattern == "castled-shield"]
    assert len(found) == 1 and found[0].color is Color.BLACK
