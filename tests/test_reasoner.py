"""Reasoner tests: situation enumeration, emotion scoring, budgeted
investigation, full-width validation, and the four-phase solver."""

import functools
import json
import operator
import types
from pathlib import Path

import pytest

import oracles
from cogchess import board as _board
from cogchess import chunks, reasoner
from cogchess.board import (
    START_FEN, IllegalMoveError, Move, PieceKind, Square, parse_fen,
)
from cogchess.chunks import load_catalog
from cogchess.memory import EmotionTag, LongTermMemory
from cogchess.reasoner import (
    MAX_CANDIDATES, PROFILES, LineError, PlayerProfile, SolveLimits,
    effort_budget, enumerate_situations, investigate,
    orient, score_situation, solve, validate_line,
)

DATA = Path(__file__).parent / "data"
DESK = [json.loads(line) for line in
        (DATA / "puzzles_desk40.jsonl").read_text().splitlines()]
DESK_FENS = {rec["id"]: rec["fen"] for rec in DESK}
MOTIF_FENS = [row.split("\t")[0] for row in
              (DATA / "motif72_golden.tsv").read_text().splitlines()[1:-1]]
SAMPLE_CATALOG = (Path(__file__).parent.parent / "src" / "cogchess" / "data"
                  / "catalog_sample.json")

MATE1_FEN = "6k1/5ppp/8/8/8/8/8/4R2K w - - 0 1"
MATE2_FEN = "r5k1/5ppp/8/8/8/4Q3/7K/4R3 w - - 0 1"
PROMOTE_FEN = "8/4P3/8/8/8/k7/8/K7 w - - 0 1"  # e7-e8 only as a promotion

PHASE_ORDER = {"orientation": 0, "exploration": 1,
               "investigation": 2, "validation": 3}


def _explore(b, cap=4):
    return [model() for _, _, model in
            enumerate_situations(b, orient(b, load_catalog(), 7), cap)]


def _situations(fen, cap=4):
    b = parse_fen(fen)
    return b, _explore(b, cap)


def test_enumerate_lone_kings():
    b, models = _situations("8/8/8/8/8/8/8/K6k w - - 0 1", cap=3)
    assert len(models) == 1
    assert len(models[0].entities) == 2
    assert {e.label for e in models[0].entities} == {"king"}


def test_enumerate_mixed_colors_and_cap():
    b, models = _situations(MATE2_FEN, cap=3)
    assert models
    for s in models:
        assert 2 <= len(s.entities) <= 3
        colors = {e.color for e in s.entities}
        assert len(colors) == 2


def test_enumerate_cap_monotone():
    b = parse_fen(MATE2_FEN)
    small = _explore(b, 3)
    large = _explore(b, 4)
    large_sets = {frozenset(s.entity_ids) for s in large if len(s.entities) <= 3}
    for s in small:
        if frozenset(s.entity_ids) not in large_sets:
            # only acceptable if the cap-4 list was truncated before it
            assert len(large) == MAX_CANDIDATES
            return


def test_enumerate_moves_come_from_entities():
    b, models = _situations(MATE2_FEN)
    pid_at = {p.square.index: p.id for p in b.pieces}
    for s in models:
        members = set()
        for e in s.entities:
            members.update(e.piece_ids)
        for frm, _, _ in s.proposed:
            assert pid_at[frm] in members


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_enumerate_matches_exhaustive_reference(cap):
    """Ranking on bitmasks and stopping at the size that fills the list
    keeps every candidate, in order, that building all subsets keeps, with
    the built-in patterns and with the sample catalog; each candidate's
    model holds the reference's entities and the keys of its moves, and
    its signature and size are those of the reference model, as the
    model-based signature formats them."""
    for catalog in (load_catalog(), load_catalog(SAMPLE_CATALOG.read_text())):
        for fen in list(DESK_FENS.values()) + MOTIF_FENS:
            b = parse_fen(fen)
            perception = orient(b, catalog, 7)
            got = enumerate_situations(b, perception, cap)
            want = oracles.enumerate_situations_reference(
                b, perception.relations, perception.pool, perception.cover, cap)
            models = [model() for _, _, model in got]
            assert [(s.entities, s.proposed) for s in models] == [
                (s.entities, {_board._move_to_tuple(m) for m in s.moves})
                for s in want], fen
            assert [(sig, size) for sig, size, _ in got] == [
                (oracles.situation_signature_reference(b, s), len(s.entities))
                for s in want], fen


def test_orient_masks_and_cover_match_piece_sets():
    """One distinct bit per board piece, each entity's and relation's mask
    the OR of its pieces' bits, and the cover counted on the masks equal
    to the count on piece-id sets, on every desk-40 and motif-72 board
    with the built-in patterns and with the sample catalog."""
    def bits(perception, pids):
        return functools.reduce(operator.or_, (perception.masks[pid] for pid in pids))

    for catalog in (load_catalog(), load_catalog(SAMPLE_CATALOG.read_text())):
        for fen in list(DESK_FENS.values()) + MOTIF_FENS:
            b = parse_fen(fen)
            perception = orient(b, catalog, 7)
            singles = [perception.masks[p.id] for p in b.pieces]
            assert all(m > 0 and m & (m - 1) == 0 for m in singles), fen
            assert len(set(singles)) == len(singles), fen
            assert all(perception.masks[e.id] == bits(perception, e.piece_ids)
                       for e in perception.pool), fen
            assert perception.relation_masks == tuple(
                bits(perception, r.entities) for r in perception.relations), fen
            assert perception.cover == oracles.cover_reference(
                perception.relations, perception.pool), fen


@pytest.mark.parametrize("fen, n", [(MOTIF_FENS[0], 2), (DESK_FENS["m1-009"], 1)],
                         ids=["motif-0", "m1-009"])
def test_solve_builds_only_investigated_models(monkeypatch, fen, n):
    built = []
    real = reasoner.SituationModel
    monkeypatch.setattr(reasoner, "SituationModel",
                        lambda *a: built.append(a) or real(*a))
    result = solve(parse_fen(fen), n, PROFILES["neutral"])
    ranking = next(e for e in result.trace.events if e.event == "ranking")
    assert len(built) == result.situations_investigated
    assert len(built) < len(ranking.data["candidates"]) <= MAX_CANDIDATES


@pytest.mark.parametrize("fen, n", [(MOTIF_FENS[0], 2), (DESK_FENS["m1-009"], 1)],
                         ids=["motif-0", "m1-009"])
def test_solve_constructs_no_square(monkeypatch, fen, n):
    """Perception and exploration read square indices and kernel tuples,
    and every square a solve names is one of the 64 shared ones."""
    board = parse_fen(fen)
    made = []
    real = _board.Square.__post_init__
    monkeypatch.setattr(_board.Square, "__post_init__",
                        lambda self: made.append(self) or real(self))
    assert _board.Square(1, 1) == made.pop()  # the count counts
    result = solve(board, n, PROFILES["neutral"],
                   catalog=load_catalog(SAMPLE_CATALOG.read_text()))
    assert result.situations_investigated > 0 and result.trace.events
    assert made == []


@pytest.mark.parametrize("fen, n", [(MOTIF_FENS[0], 2), (DESK_FENS["m1-009"], 1)],
                         ids=["motif-0", "m1-009"])
def test_solve_builds_moves_only_for_its_lines(monkeypatch, fen, n):
    """Situation models propose kernel keys and validation finds moves by
    key, so a solve builds one `Move` per move of each line investigation
    returns, and no other."""
    board = parse_fen(fen)
    made = []
    real = _board.Move.__init__
    monkeypatch.setattr(_board.Move, "__init__",
                        lambda self, *a, **k: made.append(self) or real(self, *a, **k))
    result = solve(board, n, PROFILES["neutral"])
    lines = [e.data["line"] or [] for e in result.trace.events if e.event == "searched"]
    assert result.verdict == "solved"
    assert len(made) == sum(map(len, lines)) > 0


def test_enumerate_rejects_bad_cap():
    b = parse_fen(MATE1_FEN)
    with pytest.raises(ValueError):
        enumerate_situations(b, orient(b, [], 7), 5)


def test_score_neutral_tag_is_zero():
    for profile in PROFILES.values():
        assert score_situation(EmotionTag(), profile) == 0.0


def test_score_styles_hand_checked():
    tag = EmotionTag(valence=-0.8, arousal=0.5, dominance=0.0, visits=0)
    assert score_situation(tag, PlayerProfile("defensive")) == pytest.approx(1.3)
    assert score_situation(tag, PlayerProfile("aggressive")) == pytest.approx(0.5)
    assert score_situation(tag, PlayerProfile("neutral")) == pytest.approx(1.3)


def test_effort_budget_endpoints():
    p = PlayerProfile("neutral", base_budget=1000)
    assert effort_budget(EmotionTag(dominance=0.0), p) == 250
    assert effort_budget(EmotionTag(dominance=1.0, visits=1), p) == 1000
    assert effort_budget(EmotionTag(dominance=0.5, visits=1), p) == 625


def test_effort_budget_monotone():
    p = PlayerProfile("neutral", base_budget=777)
    budgets = [effort_budget(EmotionTag(dominance=d / 10, visits=1), p)
               for d in range(11)]
    assert budgets == sorted(budgets)


def test_investigate_finds_back_rank_mate():
    b = parse_fen(MATE1_FEN)
    models = _explore(b)
    rook_wall = next(s for s in models
                     if any(e.label == "rook" for e in s.entities)
                     and any(e.label == "wall-of-pawns" for e in s.entities))
    result = investigate(b, rook_wall, 1, budget=100)
    assert result.line is not None
    assert [m.uci for m in result.line] == ["e1e8"]


def test_investigate_budget_exhaustion():
    b = parse_fen(MATE2_FEN)
    models = _explore(b)
    result = investigate(b, models[0], 2, budget=1)
    assert result.line is None
    assert result.exhausted


def test_investigate_no_mate_means_nothing():
    b = parse_fen("8/8/8/8/8/8/8/K6k w - - 0 1")
    assert not oracles.mate_in(oracles.from_board(b), 1)
    models = _explore(b, 3)
    result = investigate(b, models[0], 1, budget=10_000)
    assert result.line is None
    assert not result.exhausted


def _outcome(result):
    line = [m.uci for m in result.line] if result.line else None
    return line, result.nodes, result.exhausted


@pytest.mark.parametrize("mate_in", [1, 2, 3])
def test_investigate_table_matches_reference(mate_in):
    """Situations run in enumeration order through one shared table give
    the line, node count and exhaustion of the search without a table, on
    every desk-40 board of this depth at its depth and one move short.

    Each situation runs at budgets 1, 2, 3, 7, 60 and 3000, at its own
    node count and one less, in ascending order, so that the budget runs
    out both inside a subtree and on a table hit. A budget between its own
    count and 3000 searches exactly as its own count does and is skipped.
    """
    for rec in (r for r in DESK if r["mate_in"] == mate_in):
        b, models = _situations(rec["fen"])
        for n in range(max(1, mate_in - 1), mate_in + 1):
            want = {}  # (proposed keys, budget) -> reference outcome
            table = {}
            for s in models:
                if (s.proposed, 3000) not in want:
                    for budget in (1, 2, 3, 7, 60, 3000):
                        want[s.proposed, budget] = _outcome(
                            oracles.investigate_reference(b, s, n, budget))
                own = min(want[s.proposed, 3000][1], 3000)
                # the reference spends the same nodes at its own count and
                # stops on that node one budget below it
                want.setdefault((s.proposed, own - 1), (None, own, True))
                want.setdefault((s.proposed, own), want[s.proposed, 3000])
                budgets = {k for k in (1, 2, 3, 7, 60) if k < own}
                for budget in sorted(budgets | {own - 1, own, 3000} - {0}):
                    got = _outcome(investigate(b, s, n, budget, table))
                    assert got == want[s.proposed, budget], (rec["id"], n, budget)


def test_investigate_table_reuses_subtrees(monkeypatch):
    """Later situations of a solve read the subtrees earlier ones searched."""
    calls = []
    kernel = _board._mg
    proxy = types.SimpleNamespace(**{
        name: getattr(kernel, name) for name in dir(kernel)
        if not name.startswith("__")})
    proxy.legal_moves = lambda *a: calls.append(a) or kernel.legal_moves(*a)
    monkeypatch.setattr(_board, "_mg", proxy)
    b, models = _situations(DESK_FENS["m2-007"])
    assert len(models) > 1
    counts = []
    for shared in (True, False):
        calls.clear()
        table = {}
        for s in models:
            investigate(b, s, 2, 3000, table if shared else None)
        counts.append(len(calls))
    assert counts[0] < counts[1]


def test_last_mover_ply_makes_only_the_checking_moves():
    """Only a check can mate at the last mover ply, so `_mover_moves` makes
    one child there per checking move, and none for any other move."""
    kernel = _board._mg
    made = []
    proxy = types.SimpleNamespace(**{
        name: getattr(kernel, name) for name in dir(kernel)
        if not name.startswith("__")})
    proxy.apply_move = lambda *a: made.append(a[6:]) or kernel.apply_move(*a)
    moves = children = 0
    for rec in DESK:
        state = reasoner._state(parse_fen(rec["fen"]))
        legal = kernel.legal_moves(*state[:4])
        made.clear()
        list(reasoner._mover_moves(proxy, state, legal, 1))
        assert made == oracles.checking_moves_reference(kernel, state, legal), rec["id"]
        moves += len(legal)
        children += len(made)
    assert children < moves / 4


def test_validate_back_rank_line():
    b = parse_fen(MATE1_FEN)
    assert validate_line(b, ["e1e8"], 1) is True


def test_validate_mate_in_two_line():
    b = parse_fen(MATE2_FEN)
    assert oracles.mate_in(oracles.from_board(b), 2)
    assert not oracles.mate_in(oracles.from_board(b), 1)
    assert validate_line(b, ["e3e8", "a8e8", "e1e8"], 2) is True


def test_validate_rejects_non_forcing_line():
    b = parse_fen(MATE2_FEN)
    # pointless first move: black escapes the mating net
    assert validate_line(b, ["e3a3"], 2) is False
    # correct start, wrong continuation after the forced recapture
    assert validate_line(b, ["e3e8", "a8e8", "e1e2"], 2) is False


def test_validate_raises_on_illegal_move():
    b = parse_fen(MATE1_FEN)
    with pytest.raises(LineError):
        validate_line(b, ["e1e9x"], 1)
    with pytest.raises(LineError):
        validate_line(b, ["h1h3"], 1)  # king cannot jump


def test_validate_rejects_overlong_line():
    b = parse_fen(MATE1_FEN)
    with pytest.raises(ValueError):
        validate_line(b, ["e1e8", "g8h8", "e8e7"], 1)


def _result_or_error(fn, *args):
    """`fn(*args)`, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def _line_variants(board, line):
    """`line`, then the line with each ply swapped for each other legal
    move at that ply: truncated after the swap, and (unless the swap is
    the last ply) at full length."""
    yield line
    pos = board
    for i, uci in enumerate(line):
        played = None
        for m in pos.legal_moves():
            if m.uci == uci:
                played = m
                continue
            yield line[:i] + [m.uci]
            if i < len(line) - 1:
                yield line[:i] + [m.uci] + line[i + 1:]
        pos = pos.apply_move(played)


def _proves_as_reference(mg, state, k: int, where) -> bool:
    """`_proves` of `state`, asserted equal to `_proves_reference`."""
    proved = reasoner._proves(mg, state, k)
    assert proved == oracles._proves_reference(mg, state, k), where
    return proved


def test_validation_and_proof_match_reference():
    """`validate_line` and the full-width proof `_proves` read the
    search's mate rule; their earlier forms, each with its own copy of
    the rule, must agree on every desk-40 solved line and its one-ply
    variants, and on proofs of the opponent's mate after each first move
    of each desk-40 board: in k = 1, 2, ... opponent moves after each
    mover reply in turn, up to the first reply that does not prove and
    up to the first k that every reply proves."""
    mg = _board._mg
    for rec in DESK:
        b, n = parse_fen(rec["fen"]), rec["mate_in"]
        line = solve(b, n, PROFILES["neutral"]).line
        assert line, rec["id"]
        for variant in _line_variants(b, line):
            assert _result_or_error(validate_line, b, variant, n) == _result_or_error(
                oracles.validate_line_reference, b, variant, n), (rec["id"], variant)
        for m in b.legal_moves():
            child = reasoner._state(b.apply_move(m))
            replies = mg.legal_moves(*child[:4])
            for k in range(1, n):
                if all(_proves_as_reference(mg, reasoner._apply(mg, child, r), k,
                                            (rec["id"], m.uci, k))
                       for r in replies):
                    break


# (board, text): each text spells no legal move of its board
NO_MOVE_TEXTS = [
    (MATE1_FEN, ""), (MATE1_FEN, "e1e9x"), (MATE1_FEN, "E1E8"),
    (PROMOTE_FEN, "e7e8Q"), (START_FEN, "e2e4q"), (PROMOTE_FEN, "e7e8"),
    (MATE1_FEN, "e1e8 "), (MATE1_FEN, "e1e8qq"), (MATE1_FEN, b"e1e8"),
]


@pytest.mark.parametrize("fen, text", NO_MOVE_TEXTS,
                         ids=[repr(text) for _, text in NO_MOVE_TEXTS])
def test_text_that_names_no_move_is_refused(fen, text):
    """Validation and `Board.find_move` read UCI text through one reader;
    text that spells no legal move raises what it raised when each
    compared the text with every legal move's UCI."""
    b = parse_fen(fen)
    with pytest.raises(LineError) as got:
        validate_line(b, [text], 1)
    with pytest.raises(LineError) as want:
        oracles.validate_line_reference(b, [text], 1)
    assert str(got.value) == str(want.value) == f"illegal move {str(text)!r} in line"
    with pytest.raises(IllegalMoveError) as found:
        b.find_move(text)
    assert str(found.value) == f"no legal move {text!r} in {fen}"


def test_validation_finds_a_hand_built_move():
    b = parse_fen(MATE1_FEN)
    mate = Move(Square.from_name("e1"), Square.from_name("e8"))
    assert validate_line(b, [mate], 1) is True
    assert b.find_move("e1e8") == mate
    b = parse_fen(PROMOTE_FEN)
    e7, e8 = Square.from_name("e7"), Square.from_name("e8")
    for kind in (PieceKind.QUEEN, PieceKind.KNIGHT):
        move = Move(e7, e8, kind)
        assert validate_line(b, [move], 1) == \
            oracles.validate_line_reference(b, [move], 1) is False
        assert b.find_move(move.uci) == move
    king = Move(e7, e8, PieceKind.KING)
    for validate in (validate_line, oracles.validate_line_reference):
        with pytest.raises(LineError, match="^illegal move 'e7e8k' in line$"):
            validate(b, [king], 1)


def test_solve_mate_in_one():
    b = parse_fen(MATE1_FEN)
    result = solve(b, 1, PROFILES["neutral"], seed=1, puzzle_id="m1")
    assert result.verdict == "solved"
    assert result.line == ["e1e8"]
    assert result.trace.events[-1].data["verdict"] == "solved"


def test_solve_mate_in_two():
    b = parse_fen(MATE2_FEN)
    result = solve(b, 2, PROFILES["neutral"], seed=1, puzzle_id="m2")
    assert result.verdict == "solved"
    assert validate_line(b, result.line, 2)


def test_solve_lone_kings_unsolved():
    b = parse_fen("8/8/8/8/8/8/8/K6k w - - 0 1")
    result = solve(b, 1, PROFILES["neutral"], seed=1)
    assert result.verdict == "unsolved"
    assert result.line == []


def test_solve_rejects_bad_depth():
    b = parse_fen(MATE1_FEN)
    with pytest.raises(ValueError):
        solve(b, 7, PROFILES["neutral"])


def test_solve_time_limit_is_checked_before_each_situation():
    """desk m3-004 selects its second situation at 821 simulated ms."""
    b = parse_fen(DESK_FENS["m3-004"])
    free = solve(b, 3, PROFILES["neutral"], seed=7, puzzle_id="m3-004")
    assert [e.t_ms for e in free.trace.events if e.event == "selected"] == [70, 821]
    cut = solve(b, 3, PROFILES["neutral"], seed=7, puzzle_id="m3-004",
                time_limit_ms=821)
    assert (cut.verdict, cut.nodes, cut.situations_investigated) == ("unsolved", 751, 1)
    late = solve(b, 3, PROFILES["neutral"], seed=7, puzzle_id="m3-004",
                 time_limit_ms=822)
    assert late.trace.to_jsonl() == free.trace.to_jsonl()
    for bad in (0, -1.5):
        with pytest.raises(ValueError):
            solve(b, 3, PROFILES["neutral"], time_limit_ms=bad)


def test_solve_traces_are_byte_identical():
    b = parse_fen(MATE2_FEN)
    a = solve(b, 2, PROFILES["defensive"], seed=9, puzzle_id="p").trace.to_jsonl()
    c = solve(b, 2, PROFILES["defensive"], seed=9, puzzle_id="p").trace.to_jsonl()
    assert a == c


def test_solve_phase_order_and_entity_cap():
    b = parse_fen(MATE2_FEN)
    result = solve(b, 2, PROFILES["neutral"], seed=3)
    events = result.trace.events
    # orientation strictly precedes everything else
    first_non_orient = next(i for i, e in enumerate(events)
                            if e.phase != "orientation")
    assert all(e.phase == "orientation" for e in events[:first_non_orient])
    # within each episode, phases never step backwards
    by_episode = {}
    for e in events:
        if e.episode is not None:
            by_episode.setdefault(e.episode, []).append(e)
    for episode, evs in by_episode.items():
        ranks = [PHASE_ORDER[e.phase] for e in evs]
        assert ranks == sorted(ranks), episode
    # entity cap holds for every ranked candidate
    ranking = next(e for e in events if e.event == "ranking")
    assert all(c["entities"] <= 4 for c in ranking.data["candidates"])
    # solved traces end with a validation event
    assert events[-1].phase == "validation"


def test_solve_updates_ltm():
    # the top-ranked situation holds the queen-rook battery, so its own
    # proposal (Qe8+) opens the validated line and earns the +1
    b = parse_fen(MATE2_FEN)
    ltm = LongTermMemory()
    result = solve(b, 2, PROFILES["neutral"], ltm=ltm, seed=1)
    assert result.verdict == "solved"
    rewarded = [t for t in ltm.entries.values() if t.valence > 0]
    assert len(rewarded) == 1
    assert rewarded[0].visits == 1


def test_solve_fallback_rescue_earns_no_credit():
    # on the bare back-rank board the first-ranked situation is the king
    # pair; the mate is found through the fallback moves, so that
    # situation's proposals count as refuted
    b = parse_fen(MATE1_FEN)
    ltm = LongTermMemory()
    result = solve(b, 1, PROFILES["neutral"], ltm=ltm, seed=1)
    assert result.verdict == "solved"
    assert all(t.valence < 0 for t in ltm.entries.values())
    checked = next(e for e in result.trace.events if e.event == "checked")
    assert checked.data["proposed"] is False


def test_solve_wm_capacity_respected():
    b = parse_fen(MATE2_FEN)
    result = solve(b, 2, PROFILES["neutral"], limits=SolveLimits(wm_capacity=4),
                   seed=1)
    loaded = next(e for e in result.trace.events if e.event == "working-memory")
    assert loaded.data["capacity"] == 4
    assert 1 <= len(loaded.data["loaded"]) <= 4
    assert loaded.data["rejected"]  # the board has more than 4 entities


@pytest.mark.parametrize("field, value, message", [
    ("wm_capacity", 3, "capacity must be in 4..9, got 3"),
    ("wm_capacity", 10, "capacity must be in 4..9, got 10"),
    ("entity_cap", 1, "entity cap must be 2..4, got 1"),
    ("entity_cap", 5, "entity cap must be 2..4, got 5"),
])
def test_solve_limits_reject_bad_caps(field, value, message):
    with pytest.raises(ValueError, match=message):
        SolveLimits(**{field: value})


@pytest.mark.parametrize("field", ["max_total_nodes", "max_situations"])
def test_solve_limits_reject_empty_budget(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
        SolveLimits(**{field: 0})


def test_solve_reaches_each_phase_through_the_module(monkeypatch):
    """`solve` looks `orient`, `explore` and `enumerate_situations` up on
    the module at call time, as the benchmark's spans wrap them there, and
    calls each once; the wrapped solve writes the same trace bytes."""
    board = parse_fen(DESK_FENS["m2-007"])
    unwrapped = solve(board, 2, PROFILES["neutral"], seed=3).trace.to_jsonl()
    calls = {}
    for name in ("orient", "explore", "enumerate_situations"):
        real = getattr(reasoner, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(reasoner, name, counted)
    wrapped = reasoner.solve(board, 2, PROFILES["neutral"], seed=3).trace.to_jsonl()
    assert calls == {"orient": 1, "explore": 1, "enumerate_situations": 1}
    assert wrapped == unwrapped


def test_solve_extracts_relations_once(monkeypatch):
    """Once per solve, also when catalog patterns carry relation
    constraints: chunk recognition reads the relations orientation
    extracted."""
    calls = []
    for module in (reasoner, chunks):
        real = module.extract_relations
        monkeypatch.setattr(module, "extract_relations",
                            lambda b, real=real: calls.append(b) or real(b))
    # black's king stands behind f7, g7 and h7: a sample-catalog
    # castled-shield, whose constraints are relations
    for catalog, shield in ((None, False),
                            (load_catalog(SAMPLE_CATALOG.read_text()), True)):
        calls.clear()
        result = solve(parse_fen(MATE2_FEN), 2, PROFILES["neutral"],
                       catalog=catalog)
        assert len(calls) == 1
        chunk_ids = result.trace.events[0].data["instances"]
        assert any(i.startswith("castled-shield[") for i in chunk_ids) == shield
