"""Command-line entry points: `solve`, `analyze`, and `trace`.

All runs are reproducible byte for byte given the same inputs, flags and
seed: outputs never depend on wall time, hash order or directory order.
`solve` treats a loaded long-term memory as a read-only snapshot (each
puzzle sees the same tags regardless of --jobs or ordering); training
loops that feed rewards back belong in the Python API.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

from .affect import QualityReport, agitation_series, arousal_series, \
    classify_emotion, compute_body_volume, compute_valence, \
    detect_self_touch_events, load_au_table, task_stats
# The single-window queries stay importable from here: the benchmark's
# layer spans look them up on this module by name.
from .affect import compute_agitation, compute_arousal  # noqa: F401
from .board import parse_fen
from .chunks import load_catalog
from .ingest import parse_recording
from .memory import LongTermMemory, WorkingMemory
from .reasoner import PROFILES, PlayerProfile, SolveLimits, solve

VERDICT_COLUMNS = ("id", "verdict", "line", "nodes", "situations")
STATS_COLUMNS = ("task_id", "t_start_ms", "t_end_ms", "duration_ms",
                 "self_touch_count", "emotion_change_count",
                 "mean_valence", "mean_arousal", "mean_pupil_mm")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _read_config(path):
    if path is None:
        return {}
    return json.loads(Path(path).read_text())


def _merged(args, config: dict, key: str, default):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key)
    if flag is not None:
        return flag
    return config.get(key, default)


def _load_puzzles(path: Path):
    puzzles = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            puzzles.append({
                "id": str(rec["id"]),
                "fen": rec["fen"],
                "mate_in": int(rec["mate_in"]),
                "time_limit_s": rec.get("time_limit_s"),
            })
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{path}:{lineno}: bad puzzle record: {exc}") from exc
    return puzzles


def _solve_one(payload):
    """Solve a single puzzle; top-level so --jobs can pickle it."""
    (puzzle, profile_name, base_budget, wm_capacity, entity_cap, seed,
     max_nodes, ltm_text, catalog_text) = payload
    board = parse_fen(puzzle["fen"])
    profile = PlayerProfile(profile_name, base_budget=base_budget)
    ltm = LongTermMemory.load(ltm_text) if ltm_text else LongTermMemory()
    catalog = load_catalog(catalog_text) if catalog_text else load_catalog()
    limits = SolveLimits(max_total_nodes=max_nodes, entity_cap=entity_cap,
                         wm_capacity=wm_capacity)
    result = solve(board, puzzle["mate_in"], profile,
                   wm=WorkingMemory(capacity=wm_capacity), ltm=ltm,
                   catalog=catalog, limits=limits, seed=seed,
                   puzzle_id=puzzle["id"])
    row = (puzzle["id"], result.verdict, " ".join(result.line),
           str(result.nodes), str(result.situations_investigated))
    return puzzle["id"], row, result.trace.to_jsonl(), result.verdict


def run_solve(args) -> int:
    config = _read_config(args.config)
    seed = _merged(args, config, "seed", None)
    if seed is None:
        print("solve requires --seed for reproducibility", file=sys.stderr)
        return 2
    puzzles_path = Path(_merged(args, config, "puzzles", ""))
    if not puzzles_path.is_file():
        print(f"puzzle file not found: {puzzles_path}", file=sys.stderr)
        return 1
    out_dir = Path(_merged(args, config, "out", "out"))
    profile = _merged(args, config, "profile", "neutral")
    if profile not in PROFILES:
        print(f"unknown profile {profile!r}", file=sys.stderr)
        return 2
    wm_capacity = int(_merged(args, config, "wm_capacity", 7))
    entity_cap = int(_merged(args, config, "entity_cap", 4))
    max_nodes = int(_merged(args, config, "max_nodes", 50_000))
    base_budget = int(_merged(args, config, "base_budget", 3000))
    jobs = int(_merged(args, config, "jobs", 1))

    try:
        puzzles = _load_puzzles(puzzles_path)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    ltm_text = Path(args.ltm).read_text() if args.ltm else None
    catalog_text = Path(args.catalog).read_text() if args.catalog else None

    payloads = [(p, profile, base_budget, wm_capacity, entity_cap, int(seed),
                 max_nodes, ltm_text, catalog_text) for p in puzzles]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_solve_one, payloads))
    else:
        results = [_solve_one(p) for p in payloads]

    out_dir.mkdir(parents=True, exist_ok=True)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(exist_ok=True)
    rows = []
    solved = 0
    total_nodes = 0
    for puzzle_id, row, trace_text, verdict in results:
        rows.append(row)
        solved += verdict == "solved"
        total_nodes += int(row[3])
        (traces_dir / f"{puzzle_id}.trace.jsonl").write_text(trace_text)

    table = "\t".join(VERDICT_COLUMNS) + "\n"
    table += "".join("\t".join(r) + "\n" for r in rows)
    (out_dir / "verdicts.tsv").write_text(table)
    summary = (f"puzzles\t{len(rows)}\nsolved\t{solved}\n"
               f"total_nodes\t{total_nodes}\nseed\t{int(seed)}\n")
    (out_dir / "summary.txt").write_text(summary)
    print(f"solved {solved}/{len(rows)} puzzles, {total_nodes} nodes "
          f"-> {out_dir}")
    return 0


def run_analyze(args) -> int:
    config = _read_config(args.config)
    rec_path = Path(_merged(args, config, "recording", ""))
    if not rec_path.is_file():
        print(f"recording file not found: {rec_path}", file=sys.stderr)
        return 1
    out_dir = Path(_merged(args, config, "out", "out"))
    table = load_au_table(Path(args.au_table).read_text()) if args.au_table \
        else load_au_table()

    try:
        session = parse_recording(rec_path.read_text())
        stats = task_stats(session, table)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    # compute everything before writing: no partial outputs on failure
    quality = QualityReport(bad_lines=len(session.line_errors),
                            out_of_order_streams=len(session.resorted))
    arousal = arousal_series(session.au_stream, table)
    au_rows = [(f.t_ms, compute_valence(f, table), a, classify_emotion(f, table).label)
               for f, a in zip(session.au_stream, arousal)]
    usable = [f for f in session.skeleton_stream if not f.partial]
    agitation = agitation_series(usable, report=quality)
    skeleton_rows = [(f.t_ms, compute_body_volume(f), a)
                     for f, a in zip(usable, agitation)]
    touches = detect_self_touch_events(session.skeleton_stream, report=quality)

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["\t".join(STATS_COLUMNS)]
    for s in stats:
        lines.append("\t".join(_fmt(v) for v in (
            s.task_id, s.t_start_ms, s.t_end_ms, s.duration_ms,
            s.self_touch_count, s.emotion_change_count,
            s.mean_valence, s.mean_arousal, s.mean_pupil_mm)))
    (out_dir / "task_stats.tsv").write_text("\n".join(lines) + "\n")

    lines = ["t_ms\tvalence\tarousal_60s\temotion"]
    lines += [f"{t}\t{_fmt(v)}\t{_fmt(a)}\t{e}" for t, v, a, e in au_rows]
    (out_dir / "au_series.tsv").write_text("\n".join(lines) + "\n")

    lines = ["t_ms\tbody_volume_m3\tagitation_rad_s"]
    lines += [f"{t}\t{_fmt(v)}\t{_fmt(a)}" for t, v, a in skeleton_rows]
    (out_dir / "skeleton_series.tsv").write_text("\n".join(lines) + "\n")

    lines = ["start_ms\tend_ms"]
    lines += [f"{s}\t{e}" for s, e in touches]
    (out_dir / "touch_events.tsv").write_text("\n".join(lines) + "\n")

    lines = ["measure\tcount"]
    lines += [f"{q.name}\t{getattr(quality, q.name)}" for q in fields(quality)]
    (out_dir / "quality.tsv").write_text("\n".join(lines) + "\n")

    for lineno, message in session.line_errors:
        print(f"warning: line {lineno}: {message}", file=sys.stderr)
    for w in session.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"{len(stats)} tasks, {len(touches)} self-touch events -> {out_dir}")
    return 0


def run_trace(args) -> int:
    path = Path(args.trace_file)
    if not path.is_file():
        print(f"trace file not found: {path}", file=sys.stderr)
        return 1
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    print(f"puzzle={header.get('puzzle')} fen={header.get('fen')!r} "
          f"mate_in={header.get('mate_in')} profile={header.get('profile')}")
    for line in lines[1:]:
        e = json.loads(line)
        episode = "-" if e["episode"] is None else e["episode"]
        detail = {k: v for k, v in e["data"].items()
                  if not isinstance(v, (list, dict))}
        print(f"{e['t']:>8}ms  ep{episode:>2}  {e['phase']:<13} "
              f"{e['event']:<15} {detail}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogchess",
        description="Chunk-based mate solver and multimodal affect analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a Mate-in-N puzzle file")
    ps.add_argument("--puzzles", help="JSONL puzzle file")
    ps.add_argument("--profile", choices=sorted(PROFILES))
    ps.add_argument("--wm-capacity", dest="wm_capacity", type=int)
    ps.add_argument("--entity-cap", dest="entity_cap", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--max-nodes", dest="max_nodes", type=int)
    ps.add_argument("--base-budget", dest="base_budget", type=int)
    ps.add_argument("--jobs", type=int)
    ps.add_argument("--out")
    ps.add_argument("--config", help="JSON config file; flags win on conflict")
    ps.add_argument("--ltm", help="long-term memory snapshot to load")
    ps.add_argument("--catalog", help="chunk catalog JSON file")
    ps.set_defaults(func=run_solve)

    pa = sub.add_parser("analyze", help="analyze a multimodal recording")
    pa.add_argument("--recording", help="recording file")
    pa.add_argument("--out")
    pa.add_argument("--config", help="JSON config file; flags win on conflict")
    pa.add_argument("--au-table", dest="au_table", help="AU mapping table JSON")
    pa.set_defaults(func=run_analyze)

    pt = sub.add_parser("trace", help="pretty-print a solver trace file")
    pt.add_argument("trace_file")
    pt.set_defaults(func=run_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
