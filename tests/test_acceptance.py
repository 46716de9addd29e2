"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria with runtime
budgets are timed with a monotonic clock; statistical criteria state the
p-value in their pass line.
"""

import json
import math
import random
import statistics
import time
from pathlib import Path

import pytest

import motifs
import oracles
from cli_child import run_cli
from cogchess.affect import (
    compute_arousal, compute_valence, load_au_table, task_stats,
)
from cogchess.board import parse_fen
from cogchess.ingest import RecordingSession, parse_recording, serialize_recording
from cogchess.memory import Entity, LongTermMemory, WorkingMemory
from cogchess.reasoner import (
    PlayerProfile, SolveLimits, solve, validate_line,
)
from cogchess.relations import extract_relations, invert
from fixtures_affect import arousal_step_stream, emotion_change_stream, touch_stream
from sampling import playout_positions

DATA = Path(__file__).parent / "data"
TABLE = load_au_table()

PHASE_ORDER = {"orientation": 0, "exploration": 1,
               "investigation": 2, "validation": 3}


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- shared corpora -----------------------------------------------------------

@pytest.fixture(scope="module")
def corpus_1000():
    return playout_positions(1000, seed=2026, min_plies=8, max_plies=80)


@pytest.fixture(scope="module")
def suite_results():
    puzzles = [json.loads(line)
               for line in (DATA / "puzzles_desk40.jsonl").read_text().splitlines()]
    profile = PlayerProfile("neutral", base_budget=20_000)
    limits = SolveLimits(max_total_nodes=200_000, max_situations=24)
    t0 = time.monotonic()
    results = []
    for p in puzzles:
        board = parse_fen(p["fen"])
        res = solve(board, p["mate_in"], profile, limits=limits,
                    seed=1, puzzle_id=p["id"])
        results.append((p, board, res))
    return results, time.monotonic() - t0


def test_criterion_1_perft_oracle_equivalence():
    boards = playout_positions(10, seed=1, min_plies=30, max_plies=90)
    t0 = time.monotonic()
    mismatches = 0
    for b in boards:
        pos = oracles.from_board(b)
        for depth in (1, 2, 3):
            if b.perft(depth) != oracles.perft(pos, depth):
                mismatches += 1
    elapsed = time.monotonic() - t0
    report(1, mismatches == 0 and elapsed < 30.0,
           f"perft 1-3 on 10 seeded positions vs brute-force oracle: "
           f"{mismatches} mismatches in {elapsed:.1f}s (budget 30s)")


def _relation_tuples(board):
    by_id = {p.id: p for p in board.pieces}

    def coord(pid):
        sq = by_id[pid].square
        return (sq.file - 1, sq.rank - 1)

    return {(r.name, coord(r.subject)) + tuple(coord(o) for o in r.objects)
            for r in extract_relations(board)}


def test_criterion_2_relation_oracle_equivalence(corpus_1000):
    mismatches = sum(
        _relation_tuples(b) != oracles.relations(oracles.from_board(b))
        for b in corpus_1000)

    trio = parse_fen("4k3/3q4/2n5/1B6/8/8/8/4K3 w - - 0 1")
    found = _relation_tuples(trio)
    trio_ok = (("protects", (3, 6), (2, 5)) in found
               and ("threatens", (1, 4), (2, 5)) in found
               and ("pins", (1, 4), (2, 5), (3, 6)) in found)
    report(2, mismatches == 0 and trio_ok,
           f"relation extraction equals pair/triple oracle on 1000 positions "
           f"({mismatches} discrepancies); protects/threatens/pins fixtures witnessed")


def test_criterion_3_inverse_counts(corpus_1000):
    checked = 0
    bad = 0
    for b in corpus_1000:
        for r in extract_relations(b):
            inverses = invert(r)
            expected = 1 if r.arity == 2 else 6
            checked += 1
            if len(inverses) != expected or len({i.name for i in inverses}) != expected:
                bad += 1
    report(3, bad == 0 and checked > 0,
           f"inverse counts exact (1 per binary, 6 per ternary) over "
           f"{checked} extracted relations")


def test_criterion_4_memory_safety():
    rng = random.Random(424242)
    wm = WorkingMemory(capacity=7)
    violations = 0
    for step in range(100_000):
        op = rng.random()
        if op < 0.45:
            wm.insert(Entity(f"e{step}", rng.uniform(0.01, 1.0)))
        elif op < 0.8:
            before = {e.id: e.activation for e in wm.slots}
            wm.tick(rng.randint(0, 2000))
            if any(e.activation > before[e.id] + 1e-15 for e in wm.slots):
                violations += 1
        else:
            if wm.slots:
                src = rng.choice(wm.slots).id
                fan = {f"u{rng.randint(0, 50)}": rng.uniform(0, 0.4)
                       for _ in range(rng.randint(1, 2))}
                wm.spread_and_replace(fan)
        if len(wm.slots) > wm.capacity:
            violations += 1
        if any(e.activation < 0 for e in wm.slots):
            violations += 1

    ltm = LongTermMemory()
    range_violations = 0
    for seq in range(10_000):
        key = f"sig{seq % 97}"
        for _ in range(rng.randint(1, 12)):
            tag = ltm.update(key, rng.uniform(-1, 1))
            if not (-1 <= tag.valence <= 1 and 0 <= tag.arousal <= 1
                    and 0 <= tag.dominance <= 1):
                range_violations += 1
    report(4, violations == 0 and range_violations == 0,
           f"100k fuzzed WM ops kept capacity/monotone-decay invariants; "
           f"10k reward sequences kept tag ranges")


def test_criterion_5_situation_cap_and_phase_order(suite_results):
    results, _ = suite_results
    cap_violations = 0
    order_violations = 0
    for _, _, res in results:
        for event in res.trace.events:
            if event.event == "ranking":
                cap_violations += sum(c["entities"] > 4
                                      for c in event.data["candidates"])
            if event.event == "selected":
                cap_violations += len(event.data["entities"]) > 4
        episodes = {}
        for event in res.trace.events:
            if event.episode is not None:
                episodes.setdefault(event.episode, []).append(
                    PHASE_ORDER[event.phase])
        for ranks in episodes.values():
            if ranks != sorted(ranks):
                order_violations += 1

    # cap 3 run: no situation exceeds 3 entities
    board = parse_fen(json.loads(
        (DATA / "puzzles_desk40.jsonl").read_text().splitlines()[0])["fen"])
    res3 = solve(board, 1, PlayerProfile("neutral"),
                 limits=SolveLimits(entity_cap=3), seed=1)
    ranking = next(e for e in res3.trace.events if e.event == "ranking")
    cap3_ok = all(c["entities"] <= 3 for c in ranking.data["candidates"])

    report(5, cap_violations == 0 and order_violations == 0 and cap3_ok,
           f"entity cap (<=4, and <=3 under cap 3) and phase order hold in "
           f"all {len(results)} suite traces")


def _oracle_confirms_line(board, line, n):
    """Independent check that the first line move forces mate in <= n.

    Exhaustive for n <= 2; for deeper puzzles the principal variation is
    replayed and the remainder proved exhaustively (full AND layers at
    depth 3 are left to the internal full-width validator, which the
    n <= 2 cases cross-check against this oracle).
    """
    pos = oracles.from_board(board)
    first = next(m for m in oracles.legal_moves(pos) if oracles.move_uci(m) == line[0])
    after = oracles.apply(pos, first)
    if oracles.game_status(after) == "checkmate":
        return True
    if n <= 2:
        replies = oracles.legal_moves(after)
        return bool(replies) and all(
            oracles.mate_in(oracles.apply(after, r), n - 1) for r in replies)
    pv = after
    for uci in line[1:]:
        mv = next(m for m in oracles.legal_moves(pv) if oracles.move_uci(m) == uci)
        pv = oracles.apply(pv, mv)
    plies_left = 2 * n - 1 - len(line)
    return oracles.game_status(pv) == "checkmate" or \
        oracles.mate_in(pv, (plies_left + 1) // 2)


def test_criterion_6_solver_soundness_and_coverage(suite_results):
    results, elapsed = suite_results
    solved = 0
    validated = 0
    oracle_confirmed = 0
    for p, board, res in results:
        if res.verdict == "solved":
            solved += 1
            if validate_line(board, res.line, p["mate_in"]):
                validated += 1
            if _oracle_confirms_line(board, res.line, p["mate_in"]):
                oracle_confirmed += 1
    report(6, solved == 40 and validated == 40 and oracle_confirmed == 40
           and elapsed < 120.0,
           f"desk suite solved {solved}/40, {validated} lines validated "
           f"full-width, {oracle_confirmed} oracle-confirmed, "
           f"in {elapsed:.1f}s (budget 120s)")


def test_criterion_7_emotion_guidance_effect():
    wins = 0
    ties = 0
    seeds = 20
    for seed in range(seeds):
        rng = random.Random(seed)
        train, held_out = motifs.split_for_seed(rng)
        ltm = motifs.train_ltm(train)
        trained = statistics.median(motifs.eval_nodes(held_out, ltm.dump()))
        empty = statistics.median(motifs.eval_nodes(held_out))
        if trained < empty:
            wins += 1
        elif trained == empty:
            ties += 1
    n = seeds - ties
    p_value = sum(math.comb(n, i) for i in range(wins, n + 1)) / 2 ** n if n else 1.0
    report(7, wins > 0 and p_value < 0.05,
           f"trained LTM lowered median investigated nodes in {wins}/{seeds} "
           f"seeds (ties {ties}); one-sided sign test p={p_value:.2e}")


def test_criterion_8_affect_fixture_exactness():
    session = RecordingSession(subject_id="fixture")
    session.au_stream = emotion_change_stream(10, t0_ms=0)
    session.skeleton_stream = touch_stream(12, t0_ms=0)
    end = max(session.au_stream[-1].t_ms, session.skeleton_stream[-1].t_ms) + 50
    session.markers = [(0, "task_start", 9), (end, "task_end", 9)]
    session = parse_recording(serialize_recording(session))  # via the file format
    stats = task_stats(session, TABLE)
    counts_ok = (len(stats) == 1 and stats[0].self_touch_count == 12
                 and stats[0].emotion_change_count == 10)

    from cogchess.affect import AUFrame
    valence = compute_valence(AUFrame(0, {6: 0.8, 12: 0.8}), TABLE)
    arousal = compute_arousal(arousal_step_stream(t0_ms=60_000), 89_000, TABLE)
    closed_form_ok = abs(valence - 0.8) < 1e-9 and abs(arousal - 0.4) < 1e-9

    report(8, counts_ok and closed_form_ok,
           f"engineered recording yields exactly 12 self-touches and 10 "
           f"principal emotion changes; valence/arousal within 1e-9 of hand values")


def _run_cli(tmp_path, tag, hashseed, args):
    out = tmp_path / tag
    run_cli(args + ["--out", str(out)], hashseed)
    return out


def test_criterion_9_determinism(tmp_path):
    puzzles = [json.loads(line) for line in
               (DATA / "puzzles_desk40.jsonl").read_text().splitlines()]
    subset = [p for p in puzzles if p["id"] in
              ("m1-001", "m1-011", "m2-001", "m2-008", "m3-001", "m3-005")]
    puzzle_file = tmp_path / "subset.jsonl"
    puzzle_file.write_text("".join(json.dumps(p) + "\n" for p in subset))

    session = RecordingSession(subject_id="det")
    session.au_stream = emotion_change_stream(4, t0_ms=0)
    session.skeleton_stream = touch_stream(3, t0_ms=0)
    end = max(session.au_stream[-1].t_ms, session.skeleton_stream[-1].t_ms) + 50
    session.markers = [(0, "task_start", 1), (end, "task_end", 1)]
    rec_file = tmp_path / "det.rec"
    rec_file.write_text(serialize_recording(session))

    solve_args = ["solve", "--puzzles", str(puzzle_file), "--seed", "99",
                  "--base-budget", "20000"]
    analyze_args = ["analyze", "--recording", str(rec_file)]

    mismatched = []
    a = _run_cli(tmp_path, "s1", "1", solve_args)
    b = _run_cli(tmp_path, "s2", "977", solve_args)
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            mismatched.append(f"solve:{rel}")
    c = _run_cli(tmp_path, "a1", "3", analyze_args)
    d = _run_cli(tmp_path, "a2", "1234", analyze_args)
    for rel in sorted(p.relative_to(c) for p in c.rglob("*") if p.is_file()):
        if (c / rel).read_bytes() != (d / rel).read_bytes():
            mismatched.append(f"analyze:{rel}")

    report(9, not mismatched,
           f"solve and analyze outputs byte-identical across processes with "
           f"different hash seeds ({'; '.join(mismatched) or 'all files equal'})")
