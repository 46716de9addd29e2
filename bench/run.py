"""One benchmark for the solver and the analyzer.

    python3 bench/run.py --workload desk|guidance|analyze --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`
without installing, with whichever move-generation kernel it selects
(`COGCHESS_PURE=1` forces the pure-Python one). One process, one caller,
no threads: a closed loop that starts the next operation when the last
one has returned. A run repeats whole rounds of its workload's
operations until `--seconds` have passed, so it measures at least that
long and ends with the round that crosses it.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs three
rounds: untraced, traced with spans around every layer boundary (see
`spans.py`), untraced again. It then times the move-generation kernels
the way `benchmarks/bench_movegen.py` does, and reports the per-layer
metrics of the traced round and the tracing overhead against the mean
of the two untraced rounds.

`setup_s` is the median of three cold set-ups: the run's own, timed from
the start of this script, and two more made after the timed region, each
in a fresh interpreter (`--setup-only`).

Every operation's output is checked after the timed region (see
`workloads.py`); an operation whose output is wrong counts as failed.
The last line of standard output is one JSON object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 2  # set-ups in fresh interpreters besides the run's own


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("desk", "guidance", "analyze"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", type=int, metavar="I",
                   help="only set up, under out/<workload>/setup<I>, and "
                        "print the set-up time")
    return p.parse_args(argv)


def percentile_ms(latencies, p: int) -> float:
    """The p-th percentile of one round's latencies (s), in ms, by linear
    interpolation between order statistics."""
    return 1000.0 * statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]


def run_round(workload) -> tuple:
    """One round, closed loop: (ops, results, latencies in s, wall s).
    An operation that raises keeps its exception as its result."""
    ops = workload.operations()
    results, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for _, call, _ in ops:
        t0 = clock()
        try:
            results.append(call())
        except Exception as exc:  # the run goes on; the operation fails
            traceback.print_exc()
            results.append(exc)
        latencies.append(clock() - t0)
    return ops, results, latencies, clock() - start


def count_failures(workload, rounds) -> tuple:
    """(attempted, failed) over all rounds: an operation fails when it
    raised or when its output fails the workload's check."""
    attempted = failed = 0
    for ops, results, _, _ in rounds:
        done = [(op, r) for op, r in zip(ops, results)
                if not isinstance(r, Exception)]
        flags = workload.check([op for op, _ in done], [r for _, r in done])
        attempted += len(ops)
        failed += len(ops) - len(done) + flags.count(False)
    return attempted, failed


def setup(name: str, seed: int, dest: Path):
    """Import the package and the workload, load the chunk catalog and the
    AU table, and build the inputs under `dest`. Returns (workload, s since
    this script started)."""
    import cogchess.cli  # noqa: F401
    from cogchess.affect import load_au_table
    from cogchess.chunks import load_catalog
    from workloads import WORKLOADS

    load_catalog()
    load_au_table()
    workload = WORKLOADS[name](seed, dest)
    return workload, time.perf_counter() - T_START


def cold_setups(args) -> list:
    """Set the workload up again in SETUP_PROBES fresh interpreters, one
    after another, each waited for; their set-up times in s."""
    times = []
    for i in range(1, SETUP_PROBES + 1):
        argv = [sys.executable, __file__, "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(i)]
        done = subprocess.run(argv, capture_output=True, text=True, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def kernel_figures() -> tuple:
    """perft and legal_moves timings per importable kernel, as in
    benchmarks/bench_movegen.py, checked against the published perft
    counts. Returns (ok, {kernel: (perft nodes/s, legal_moves calls/s)})."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import bench_movegen as bm
    from cogchess.board import parse_fen, start_board

    states = bm.sample_states()
    sb, kb = start_board(), parse_fen(bm.KIWIPETE)
    start = (sb._squares, sb._stm, sb.castling.mask, sb._ep)
    kiwi = (kb._squares, kb._stm, kb.castling.mask, kb._ep)
    ok, figures = True, {}
    for name, kernel in (("python", bm.pure), ("compiled", bm.compiled)):
        if kernel is None:
            continue
        perft_s, moves_s = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            counts = (kernel.perft(*start, 3), kernel.perft(*kiwi, 2))
            t1 = time.perf_counter()
            for s in states:
                kernel.legal_moves(*s)
            moves_s.append(time.perf_counter() - t1)
            perft_s.append(t1 - t0)
            ok = ok and counts == (8902, 2039)
        figures[name] = (sum(counts) / statistics.median(perft_s),
                         len(states) / statistics.median(moves_s))
    return ok, figures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cogchess").is_dir():
        print(f"no cogchess package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    if args.setup_only:
        print(setup(args.workload, args.seed,
                    OUT / args.workload / f"setup{args.setup_only}")[1])
        return 0
    t_clear = time.perf_counter()
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    clear_s = time.perf_counter() - t_clear  # the last run's outputs
    workload, setup_s = setup(args.workload, args.seed, OUT / args.workload / "setup0")
    setup_s -= clear_s
    from cogchess.board import KERNEL

    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(workload))
        elapsed = time.perf_counter() - t0
        if args.trace or elapsed >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if args.trace:
        from spans import Tracer, install_all
        tracer = Tracer()
        install_all(tracer)
        try:
            rounds.append(run_round(workload))
        finally:
            tracer.uninstall()
        rounds.append(run_round(workload))

    t_check = time.perf_counter()
    attempted, failed = count_failures(workload, rounds)
    check_s = time.perf_counter() - t_check
    correct = failed == 0

    print(f"kernel {KERNEL}")
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"attempted {attempted} failed {failed} (checked in {check_s:.1f} s)")
    if args.trace:
        from spans import layer_metrics
        kernels_ok, figures = kernel_figures()
        correct = correct and kernels_ok
        metrics = layer_metrics(tracer)
        untraced = (rounds[0][3] + rounds[2][3]) / 2
        traced = rounds[1][3]
        metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
        for name, (nps, lps) in figures.items():
            print(f"movegen[{name}] perft {nps:.0f} nodes/s, "
                  f"legal_moves {lps:.0f} positions/s")
        nps, lps = figures[KERNEL]
        metrics["movegen.perft_nps"] = (nps, "1/s")
        metrics["movegen.legal_moves_per_s"] = (lps, "1/s")
        print(f"untraced rounds {rounds[0][3]:.3f} s and {rounds[2][3]:.3f} s, "
              f"traced round {traced:.3f} s")
    else:
        wall = sum(r[3] for r in rounds)

        def per_round_ms(p):
            # within a round, so that every run's estimate rests on the
            # same number of samples however many rounds it ran
            return statistics.median(percentile_ms(lat, p) for _, _, lat, _ in rounds)

        setup_times = [setup_s] + cold_setups(args)
        print("set-ups " + " ".join(f"{t:.4f}" for t in setup_times) + " s")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (sum(len(r[2]) for r in rounds) / wall, "1/s"),
            "op_p50_ms": (per_round_ms(50), "ms"),
            "op_p80_ms": (per_round_ms(80), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        if args.workload == "analyze":
            print(f"recorded_s_per_s {workload.recorded_s * len(rounds) / wall:.6g} s/s "
                  f"({workload.recorded_s:.0f} recorded s a round)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
