"""The verdict of `tools/benchpair.py` on hand-written run objects; no
git and no timed run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("benchpair", ROOT / "tools" / "benchpair.py")
benchpair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpair)

E2E = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
       {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]


def run(ops_per_s, op_p50_ms, correct=True, failed=0):
    return {"correct": correct, "attempted": 60, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                        "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}}}


def pairs(base, change):
    """Pairs of runs from per-run `(ops_per_s, op_p50_ms)` values."""
    return [(run(*b), run(*c)) for b, c in zip(base, change)]


BASE = [(100, 2.0), (102, 2.1), (98, 1.9), (101, 2.0), (99, 2.05)]


@pytest.mark.parametrize("change, want", [
    # within the bound both ways, better and worse
    ([(90, 2.3)] * 5, {"ops_per_s": "held", "op_p50_ms": "held"}),
    ([(120, 1.5)] * 5, {"ops_per_s": "held", "op_p50_ms": "held"}),
    # past the bound: fewer ops per second, a longer median latency
    ([(70, 2.0)] * 5, {"ops_per_s": "worse", "op_p50_ms": "held"}),
    ([(100, 2.6)] * 5, {"ops_per_s": "held", "op_p50_ms": "worse"}),
    # the medians decide, not one outlying run
    ([(70, 2.0)] + [(100, 2.0)] * 4, {"ops_per_s": "held", "op_p50_ms": "held"}),
])
def test_verdict_against_the_bound(change, want):
    got = benchpair.summarize(pairs(BASE, change), E2E)
    assert {name: row["verdict"] for name, row in got.items()} == want


def test_a_wide_base_is_unresolved():
    wide = [(60, 1.0), (140, 3.0), (100, 2.0), (70, 1.2), (130, 2.8)]
    got = benchpair.summarize(pairs(wide, [(100, 2.0)] * 5), E2E)
    assert {name: row["verdict"] for name, row in got.items()} == {
        "ops_per_s": "unresolved", "op_p50_ms": "unresolved"}
    # ... unless every change run reads better than every base run
    got = benchpair.summarize(pairs(wide, [(150, 0.9)] * 5), E2E)
    assert {name: row["verdict"] for name, row in got.items()} == {
        "ops_per_s": "held", "op_p50_ms": "held"}


@pytest.mark.parametrize("bad", [
    run(100, 2.0, correct=False), run(100, 2.0, failed=1), {"correct": False},
])
@pytest.mark.parametrize("side", [0, 1])
def test_an_incorrect_run_is_invalid(bad, side):
    runs = pairs(BASE, BASE)
    runs[2] = (bad, runs[2][1]) if side == 0 else (runs[2][0], bad)
    got = benchpair.summarize(runs, E2E)
    assert {row["verdict"] for row in got.values()} == {"invalid"}


def test_summary_counts_pairs_won_and_quartiles():
    change = [(101, 2.0), (101, 2.0), (90, 1.8), (101, 2.5), (99, 2.05)]
    got = benchpair.summarize(pairs(BASE, change), E2E)
    ops, p50 = got["ops_per_s"], got["op_p50_ms"]
    assert (ops["change_wins"], ops["base_wins"]) == (1, 2)  # two ties
    assert (p50["change_wins"], p50["base_wins"]) == (2, 1)
    assert (ops["base_q1"], ops["base_median"], ops["base_q3"]) == (99, 100, 101)
    assert ops["change_median"] == 101 and ops["pairs"] == 5
