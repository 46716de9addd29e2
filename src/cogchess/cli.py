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
from contextlib import contextmanager
from dataclasses import fields
from functools import cache
from pathlib import Path

from .affect import analyze_session, load_au_table
# The benchmark's layer spans look these up on this module by name.
from .affect import classify_emotion, compute_agitation, compute_arousal, \
    detect_self_touch_events, task_stats  # noqa: F401
from .board import parse_fen
from .chunks import load_catalog
from .ingest import parse_recording
from .memory import LongTermMemory
from .reasoner import PROFILES, PlayerProfile, SolveLimits, \
    check_mate_depth, solve

VERDICT_COLUMNS = ("id", "verdict", "line", "nodes", "situations")
STATS_COLUMNS = ("task_id", "t_start_ms", "t_end_ms", "duration_ms",
                 "self_touch_count", "emotion_change_count",
                 "mean_valence", "mean_arousal", "mean_pupil_mm")
# each file `analyze` writes -> its columns, in the order they are written
ANALYZE_COLUMNS = {
    "task_stats.tsv": STATS_COLUMNS,
    "au_series.tsv": ("t_ms", "valence", "arousal_60s", "emotion"),
    "skeleton_series.tsv": ("t_ms", "body_volume_m3", "agitation_rad_s"),
    "touch_events.tsv": ("start_ms", "end_ms"),
    "quality.tsv": ("measure", "count"),
}
NAME_MAX = 255  # the longest file name, in bytes, of common file systems


class CliError(Exception):
    """Ends a run: `main` prints the message on stderr and returns `code`."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@contextmanager
def _fails(code: int, prefix: str = ""):
    """An OSError or ValueError raised inside ends the run with
    `prefix` and its message, and exit code `code`."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise CliError(f"{prefix}{exc}", code) from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_tsv(path: Path, columns, rows) -> None:
    """A header line of `columns`, then each row's values through `_fmt`."""
    lines = ["\t".join(columns)] + ["\t".join(map(_fmt, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def _side_file(path, what: str, load) -> tuple:
    """`(text, load(text))` of the side file at `path`, `(None, None)` when
    no path is given; the run ends (exit 2) naming the file when it cannot
    be read or `load` rejects it."""
    if path is None:
        return None, None
    with _fails(2, f"bad {what} file {path}: "):
        text = Path(path).read_text()
        return text, load(text)


def _config(text: str) -> dict:
    config = json.loads(text)
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    return config


def _integer(key: str, value) -> int:
    """`value` as an int, or ValueError naming `key`.

    A bool, or a float that is not whole, is rejected rather than truncated.
    """
    if not isinstance(value, bool) and not (
            isinstance(value, float) and not value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _string(key: str, value) -> str:
    """`value`, or ValueError naming `key` unless it is a string (a flag
    always is; a config value need not be)."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


# Each command's options as (key, check, default, help) rows. The key is a
# config key and, with `-` for `_`, the name of a flag whose string goes
# through the same check as a config value. The flag wins over the config
# file, which wins over the default.
SOLVE_OPTIONS = (
    ("puzzles", _string, "", "JSONL puzzle file"),
    ("out", _string, "out", "output directory"),
    ("profile", _string, "neutral",
     "player profile: " + ", ".join(sorted(PROFILES))),
    ("seed", _integer, None, "required; recorded in every trace"),
    ("wm_capacity", _integer, SolveLimits.wm_capacity,
     "entities orientation loads into working memory, 4..9"),
    ("entity_cap", _integer, SolveLimits.entity_cap,
     "entities per situation model, 2..4"),
    ("max_nodes", _integer, SolveLimits.max_total_nodes,
     "nodes searched per puzzle"),
    ("base_budget", _integer, PlayerProfile.base_budget,
     "node budget of one situation"),
    ("jobs", _integer, 1, "worker processes"),
)
ANALYZE_OPTIONS = (("recording", _string, "", "recording file"),
                   ("out", _string, "out", "output directory"))


def _options(table, args, config: dict) -> dict:
    """Each row's key -> its checked value; ValueError naming the first
    value a check rejects, else the first config key that no row has."""
    values = {}
    for key, check, default, _ in table:
        flag = getattr(args, key)
        values[key] = check(key, config.get(key, default) if flag is None else flag)
    for key in config:
        if key not in values:
            raise ValueError(f"unknown config key {key!r}")
    return values


def _time_limit(rec: dict):
    """The record's `time_limit_s`, None if absent, or ValueError unless
    it is a positive number (a bool is not one)."""
    if "time_limit_s" not in rec:
        return None
    value = rec["time_limit_s"]
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not value > 0:
        raise ValueError(f"time_limit_s must be a positive number, got {value!r}")
    return value


def _load_puzzles(path: Path):
    """The records of a JSONL puzzle file, each checked as `solve` would
    check it; ValueError naming the first bad line. An id names the
    puzzle's trace file, so it must be a plain file name used once, in
    UTF-8 and at most NAME_MAX bytes long with its suffix."""
    puzzles = []
    first_line = {}  # id -> the line that used it
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError(f"expected a JSON object, got {rec!r}")
            if not isinstance(rec["fen"], str):
                raise ValueError(f"fen must be a string, got {rec['fen']!r}")
            mate_in = _integer("mate_in", rec["mate_in"])
            check_mate_depth(mate_in)
            puzzle_id = rec["id"]
            if not isinstance(puzzle_id, str):
                raise ValueError(f"id must be a string, got {puzzle_id!r}")
            if puzzle_id in ("", ".", "..") or "/" in puzzle_id or "\0" in puzzle_id:
                raise ValueError(f"id must be a plain file name, got {puzzle_id!r}")
            try:
                size = len(f"{puzzle_id}.trace.jsonl".encode())
            except UnicodeEncodeError:
                raise ValueError(f"id must encode to UTF-8, got {puzzle_id!r}") from None
            if size > NAME_MAX:
                raise ValueError(f"id makes a trace file name of {size} bytes, "
                                 f"more than {NAME_MAX}")
            puzzles.append({
                "id": puzzle_id,
                "board": parse_fen(rec["fen"]),
                "mate_in": mate_in,
                "time_limit_s": _time_limit(rec),
            })
            if puzzle_id in first_line:
                raise ValueError(f"id {puzzle_id!r} is already used on line "
                                 f"{first_line[puzzle_id]}")
            first_line[puzzle_id] = lineno
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{path}:{lineno}: bad puzzle record: {exc}") from exc
    return puzzles


def _check_outputs(out_dir: Path, subdirs=(), files=()) -> None:
    """Ends the run (exit 2) before any work unless `out_dir` can take the
    outputs: the first of `out_dir` and its ancestors that exists must be a
    directory and, when `out_dir` exists, each of `subdirs` that exists a
    directory and each of `files` that exists a regular file. Nothing is
    written or removed."""
    with _fails(2, f"cannot write outputs to {out_dir}: "):
        existing = out_dir
        while not existing.exists() and existing.parent != existing:
            existing = existing.parent
        if not existing.is_dir():
            raise ValueError(f"{existing} is not a directory")
        if existing != out_dir:
            return  # nothing lies under a directory the run has yet to make
        for path in subdirs:
            if path.exists() and not path.is_dir():
                raise ValueError(f"{path} is not a directory")
        for path in files:
            if path.exists() and not path.is_file():
                raise ValueError(f"{path} is not a regular file")


def _solve_one(payload):
    """Solve a single puzzle; top-level so --jobs can pickle it."""
    puzzle, profile, limits, seed, ltm_text, catalog = payload
    ltm = LongTermMemory.load(ltm_text) if ltm_text else LongTermMemory()
    limit_s = puzzle["time_limit_s"]
    result = solve(puzzle["board"], puzzle["mate_in"], profile, ltm=ltm,
                   catalog=catalog, limits=limits, seed=seed,
                   puzzle_id=puzzle["id"],
                   time_limit_ms=None if limit_s is None else limit_s * 1000)
    row = (puzzle["id"], result.verdict, " ".join(result.line),
           str(result.nodes), str(result.situations_investigated))
    return puzzle["id"], row, result.trace.to_jsonl(), result.verdict


def run_solve(args) -> None:
    # each side file is read and checked once, before any solve
    config = _side_file(args.config, "config", _config)[1] or {}
    ltm_text = _side_file(args.ltm, "ltm", LongTermMemory.load)[0]
    catalog = _side_file(args.catalog, "catalog", load_catalog)[1] or load_catalog()
    if args.seed is None and config.get("seed") is None:
        raise CliError("solve requires --seed for reproducibility", 2)
    with _fails(2, "invalid solve option: "):  # the checks each solve would make
        opts = _options(SOLVE_OPTIONS, args, config)
        if opts["profile"] not in PROFILES:
            raise CliError(f"unknown profile {opts['profile']!r}", 2)
        if opts["jobs"] < 1:
            raise ValueError(f"jobs must be >= 1, got {opts['jobs']}")
        player = PlayerProfile(opts["profile"], base_budget=opts["base_budget"])
        limits = SolveLimits(max_total_nodes=opts["max_nodes"],
                             entity_cap=opts["entity_cap"],
                             wm_capacity=opts["wm_capacity"])
    puzzles_path = Path(opts["puzzles"])
    if not puzzles_path.is_file():
        raise CliError(f"puzzle file not found: {puzzles_path}", 1)
    with _fails(2):
        puzzles = _load_puzzles(puzzles_path)
    out_dir = Path(opts["out"])
    traces_dir = out_dir / "traces"
    verdicts_path, summary_path = out_dir / "verdicts.tsv", out_dir / "summary.txt"
    trace_paths = {p["id"]: traces_dir / f"{p['id']}.trace.jsonl" for p in puzzles}
    _check_outputs(out_dir, [traces_dir],
                   [verdicts_path, summary_path, *trace_paths.values()])

    seed = opts["seed"]
    payloads = [(p, player, limits, seed, ltm_text, catalog) for p in puzzles]
    if opts["jobs"] > 1:
        # imported here, so that a run in one process never loads it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=opts["jobs"]) as pool:
            results = list(pool.map(_solve_one, payloads))
    else:
        results = [_solve_one(p) for p in payloads]

    traces_dir.mkdir(parents=True, exist_ok=True)
    # traces/ holds this run's traces only: an earlier run's are removed
    for stale in filter(Path.is_file, traces_dir.glob("*.trace.jsonl")):
        stale.unlink()
    rows = []
    solved = 0
    total_nodes = 0
    for puzzle_id, row, trace_text, verdict in results:
        rows.append(row)
        solved += verdict == "solved"
        total_nodes += int(row[3])
        trace_paths[puzzle_id].write_text(trace_text)

    _write_tsv(verdicts_path, VERDICT_COLUMNS, rows)
    summary = (f"puzzles\t{len(rows)}\nsolved\t{solved}\n"
               f"total_nodes\t{total_nodes}\nseed\t{seed}\n")
    summary_path.write_text(summary)
    print(f"solved {solved}/{len(rows)} puzzles, {total_nodes} nodes "
          f"-> {out_dir}")


def run_analyze(args) -> None:
    config = _side_file(args.config, "config", _config)[1] or {}
    table = _side_file(args.au_table, "AU table", load_au_table)[1] \
        or load_au_table()
    with _fails(2, "invalid analyze option: "):
        opts = _options(ANALYZE_OPTIONS, args, config)
    rec_path = Path(opts["recording"])
    if not rec_path.is_file():
        raise CliError(f"recording file not found: {rec_path}", 1)
    out_dir = Path(opts["out"])
    _check_outputs(out_dir, files=[out_dir / name for name in ANALYZE_COLUMNS])

    with _fails(1):  # everything is computed before writing: no partial outputs
        session = parse_recording(rec_path.read_text())
        stats, au_rows, skeleton_rows, touches, quality = \
            analyze_session(session, table)

    rows = {
        "task_stats.tsv": [tuple(getattr(s, c) for c in STATS_COLUMNS)
                           for s in stats],
        "au_series.tsv": au_rows,
        "skeleton_series.tsv": skeleton_rows,
        "touch_events.tsv": touches,
        "quality.tsv": [(q.name, getattr(quality, q.name)) for q in fields(quality)],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, columns in ANALYZE_COLUMNS.items():
        _write_tsv(out_dir / name, columns, rows[name])

    for lineno, message in session.line_errors:
        print(f"warning: line {lineno}: {message}", file=sys.stderr)
    for w in session.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"{len(stats)} tasks, {len(touches)} self-touch events -> {out_dir}")


EVENT_KEYS = ("t", "phase", "event", "episode", "data")


def _trace_records(lines) -> list:
    """The JSON objects of a trace file's lines, a header then events,
    or ValueError unless every line is one and every event has the
    fields `run_trace` prints."""
    if not lines:
        raise ValueError("empty file")
    records = [json.loads(line) for line in lines]
    for lineno, rec in enumerate(records, start=1):
        if not isinstance(rec, dict):
            raise ValueError(f"line {lineno}: expected a JSON object, got {rec!r}")
        if lineno == 1:
            continue  # the header
        missing = [k for k in EVENT_KEYS if k not in rec]
        if missing:
            raise ValueError(f"line {lineno}: event lacks {', '.join(missing)}")
        if not isinstance(rec["data"], dict):
            raise ValueError(f"line {lineno}: data must be a JSON object, "
                             f"got {rec['data']!r}")
    return records


def run_trace(args) -> None:
    path = Path(args.trace_file)
    if not path.is_file():
        raise CliError(f"trace file not found: {path}", 1)
    with _fails(1, f"bad trace file {path}: "):
        header, *events = _trace_records(path.read_text().splitlines())
    print(f"puzzle={header.get('puzzle')} fen={header.get('fen')!r} "
          f"mate_in={header.get('mate_in')} profile={header.get('profile')}")
    for e in events:
        episode = "-" if e["episode"] is None else e["episode"]
        detail = {k: v for k, v in e["data"].items()
                  if not isinstance(v, (list, dict))}
        print(f"{e['t']!s:>8}ms  ep{episode!s:>2}  {e['phase']!s:<13} "
              f"{e['event']!s:<15} {detail}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by
    all later ones; it names each command, and `main` runs `run_<command>`."""
    parser = argparse.ArgumentParser(
        prog="cogchess",
        description="Chunk-based mate solver and multimodal affect analyzer")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags that name a side file, not a config key, as (key, help) rows
    config = ("config", "JSON config file; flags win on conflict")
    for name, about, table, files in (
            ("solve", "solve a Mate-in-N puzzle file", SOLVE_OPTIONS,
             [config, ("ltm", "long-term memory snapshot to load"),
              ("catalog", "chunk catalog JSON file")]),
            ("analyze", "analyze a multimodal recording", ANALYZE_OPTIONS,
             [config, ("au_table", "AU mapping table JSON")])):
        command = sub.add_parser(name, help=about)
        rows = [(key, text if default in (None, "") else f"{text} (default {default})")
                for key, _, default, text in table]
        for key, text in rows + files:  # a flag's string is checked by the run
            command.add_argument(f"--{key.replace('_', '-')}", dest=key, help=text)

    pt = sub.add_parser("trace", help="pretty-print a solver trace file")
    pt.add_argument("trace_file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error (2) or --help (0)
        return exc.code
    try:
        # looked up at each call, not kept from the parser's first build,
        # so that whatever this module's `run_<command>` is now is run
        globals()[f"run_{args.command}"](args)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
