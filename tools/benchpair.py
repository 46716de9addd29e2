"""Paired benchmark runs of a base revision and the working tree, with a
verdict per end-to-end metric.

    python3 tools/benchpair.py --base REV [--pairs N] [--seconds S] \
        [--workload W ...] [--seed K] [--kernel python|compiled] \
        --out BENCH_<n>.json

Run from inside the repository. The base is `REV` exported with `git
archive`; the change is a copy of the working tree's tracked files (a
new file counts once `git add` tracks it). Each goes into a fresh
directory, so neither side has `bench/out` leftovers or stale bytecode,
and each tree's bytecode is compiled before the first run. The pure
kernel runs unless `--kernel compiled` is given; then `_movegen.c` is
built in place in both trees.

Each side's own, unchanged benchmark (the command in `BENCHMARK.json`)
runs as a child process. A pair is one run of each side on one
workload, back to back; the side that runs first alternates from pair to
pair (Georges, Buytaert and Eeckhout, "Statistically Rigorous Java
Performance Evaluation", OOPSLA 2007; Kalibera and Jones, "Rigorous
Benchmarking in Reasonable Time", ISMM 2013). Each child's last stdout
line is its run object. The output file holds the machine, the command,
every run object and, per workload and metric, both medians and
quartiles, the pairs the change won and the verdict (see `verdict`).
The exit status is 1 when any verdict is `worse` or `invalid`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def valid(run) -> bool:
    """Whether a run object reports a correct run with no failed operation."""
    return run.get("correct") is True and run.get("failed") == 0


def verdict(base: list, change: list, better: str, bound: float) -> str:
    """The verdict on one metric from its values in the base's and the
    change's runs (both valid), where `better` is "higher" or "lower" and
    `bound` the share by which the metric may worsen.

    `unresolved` when the base's own interquartile range exceeds `bound`
    of its median, unless every change run reads better than every base
    run; `worse` when the change's median is more than `bound` of the
    base's median worse than it; `held` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles(base)
    if q3 - q1 > bound * abs(base_median):
        if min(sign * v for v in change) > max(sign * v for v in base):
            return "held"
        return "unresolved"
    if sign * (statistics.median(change) - base_median) < -bound * abs(base_median):
        return "worse"
    return "held"


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric of `end_to_end` (`BENCHMARK.json`'s list), from `pairs`
    of `(base run, change run)`: both sides' quartiles, the pairs the
    change won (a tie counts for neither side) and the verdict. Every
    metric reads `invalid` when any run is not correct or failed an
    operation."""
    ok = all(valid(run) for pair in pairs for run in pair)
    out = {}
    for spec in end_to_end:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        row = {"better": better, "bound": bound, "pairs": len(pairs)}
        if not ok:
            out[name] = dict(row, verdict="invalid")
            continue
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1.0 if better == "higher" else -1.0
        for side, values in (("base", base), ("change", change)):
            q1, median, q3 = quartiles(values)
            row.update({f"{side}_q1": q1, f"{side}_median": median, f"{side}_q3": q3})
        row["change_wins"] = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        row["base_wins"] = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        row["verdict"] = verdict(base, change, better, bound)
        out[name] = row
    return out


# -- the trees and the runs -----------------------------------------------------


def git(repo: Path, *args) -> bytes:
    return subprocess.run(["git", *args], cwd=repo, check=True,
                          stdout=subprocess.PIPE).stdout


def export_base(repo: Path, rev: str, dest: Path) -> None:
    subprocess.run(["tar", "-x", "-C", str(dest)], check=True,
                   input=git(repo, "archive", "--format=tar", rev))


def export_change(repo: Path, dest: Path) -> None:
    for name in git(repo, "ls-files", "-z").decode().split("\0"):
        src = repo / name
        if name and src.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def child_env(kernel: str) -> dict:
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "COGCHESS_PURE"):
        env.pop(name, None)
    if kernel == "python":
        env["COGCHESS_PURE"] = "1"
    return env


def prepare(tree: Path, kernel: str) -> None:
    """Build the compiled kernel in place if asked, then compile the
    tree's bytecode."""
    env = child_env(kernel)
    if kernel == "compiled":
        subprocess.run([sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
                       cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "."],
                   cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)


def run_once(tree: Path, command: list, workload: str, seed: int,
             seconds: float, kernel: str) -> dict:
    """One benchmark run in `tree`: its last stdout line as a run object,
    with the kernel it reported. A run that exits non-zero, prints no
    run object or runs another kernel is not correct."""
    argv = [sys.executable, *command[1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=child_env(kernel),
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    ran = next((line.split()[1] for line in lines if line.startswith("kernel ")), None)
    try:
        run = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run = {"correct": False}
    if done.returncode or ran != kernel or not isinstance(run, dict):
        run = {"correct": False, "exit": done.returncode,
               "stderr": done.stderr[-2000:]}
    run["kernel"] = ran
    return run


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float,
                   help="run length of each run (default: BENCHMARK.json's)")
    p.add_argument("--workload", nargs="+",
                   help="workloads to run (default: all of BENCHMARK.json's)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--kernel", choices=("python", "compiled"), default="python")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; BENCHMARK.json has {known}",
              file=sys.stderr)
        return 2
    result = {
        "command": ["tools/benchpair.py", *(argv if argv is not None else sys.argv[1:])],
        "base": {"rev": args.base,
                 "commit": git(repo, "rev-parse", args.base).decode().strip()},
        "change": {"head": git(repo, "rev-parse", "HEAD").decode().strip(),
                   "modified": bool(git(repo, "status", "--porcelain",
                                        "--untracked-files=no").strip())},
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system(), "arch": platform.machine(),
                    "kernel": args.kernel},
        "pairs": args.pairs, "seconds": seconds, "seed": args.seed,
        "workloads": {w: {"runs": []} for w in workloads},
    }
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        export_base(repo, args.base, trees["base"])
        export_change(repo, trees["change"])
        for tree in trees.values():
            prepare(tree, args.kernel)
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for w in workloads:
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], spec["command"], w,
                                          args.seed, seconds, args.kernel)
                    print(f"pair {i + 1}/{args.pairs} {w} {side}: "
                          f"correct {pair[side].get('correct')}", file=sys.stderr)
                result["workloads"][w]["runs"].append(pair)
    verdicts = set()
    for w in workloads:
        runs = result["workloads"][w]["runs"]
        metrics = summarize([(r["base"], r["change"]) for r in runs], spec["end_to_end"])
        result["workloads"][w]["metrics"] = metrics
        for name, row in metrics.items():
            print(f"{w:9} {name:12} {row['verdict']:10} base "
                  f"{row.get('base_median', float('nan')):.6g} change "
                  f"{row.get('change_median', float('nan')):.6g} "
                  f"won {row.get('change_wins', 0)}/{row['pairs']}")
            verdicts.add(row["verdict"])
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 1 if verdicts & {"invalid", "worse"} else 0


if __name__ == "__main__":
    sys.exit(main())
