"""Command-line behavior: artifacts, exit codes, reproducibility."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cli_child import _child_env, run_child, run_cli
from cogchess import affect, cli
from cogchess.cli import main
from cogchess.ingest import parse_recording, serialize_recording, RecordingSession
from fixtures_affect import skeleton_frame
from genrecording import BAD_LINES, PLANTED, make_recording

DATA = Path(__file__).parent / "data"
AU_TABLE = affect.load_au_table()


def test_solve_writes_artifacts(puzzle_file, tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--puzzles", str(puzzle_file), "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    table = (out / "verdicts.tsv").read_text().splitlines()
    assert table[0].split("\t") == ["id", "verdict", "line", "nodes", "situations"]
    rows = {r.split("\t")[0]: r.split("\t") for r in table[1:]}
    assert rows["bk-1"][1] == "solved" and rows["bk-1"][2].startswith("e1e8")
    assert rows["bat-2"][1] == "solved"
    assert (out / "traces" / "bk-1.trace.jsonl").is_file()
    assert "solved\t2" in (out / "summary.txt").read_text()


def test_solve_empty_puzzle_file(tmp_path):
    empty = tmp_path / "none.jsonl"
    empty.write_text("")
    out = tmp_path / "o"
    assert main(["solve", "--puzzles", str(empty), "--seed", "1",
                 "--out", str(out)]) == 0
    assert (out / "verdicts.tsv").read_text().splitlines()[1:] == []


def test_solve_requires_seed(puzzle_file, tmp_path):
    assert main(["solve", "--puzzles", str(puzzle_file),
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--entity-cap", "5", "entity cap must be 2..4, got 5"),
    ("--wm-capacity", "12", "capacity must be in 4..9, got 12"),
    ("--base-budget", "0", "base_budget must be >= 1"),
    ("--max-nodes", "0", "max_total_nodes must be >= 1, got 0"),
    ("--max-nodes", "-5", "max_total_nodes must be >= 1, got -5"),
    ("--jobs", "0", "jobs must be >= 1, got 0"),
])
def test_solve_rejects_out_of_range_flag(puzzle_file, tmp_path, capsys,
                                         flag, value, message):
    out = tmp_path / "x"
    assert main(["solve", "--puzzles", str(puzzle_file), "--seed", "1",
                 flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid solve option: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("jobs", "two"), ("max_nodes", "x"), ("seed", "s"), ("entity_cap", None),
    ("max_nodes", 2.9), ("seed", 1.7), ("jobs", True), ("base_budget", False),
    ("wm_capacity", float("inf")),
])
def test_solve_rejects_non_integer_config_value(puzzle_file, tmp_path, capsys,
                                                key, value):
    out = tmp_path / "x"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, key: value}))
    assert main(["solve", "--config", str(cfg), "--puzzles", str(puzzle_file),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid solve option: {key} must be an integer, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    (key, value, f"invalid solve option: {key} must be an integer, got {value!r}")
    for key, check, *_ in cli.SOLVE_OPTIONS if check is cli._integer
    for value in ("two", "1.5")
] + [
    ("profile", "bogus", "unknown profile 'bogus'"),
])
def test_solve_rejects_flag_as_its_config_value(puzzle_file, tmp_path, capsys,
                                                key, value, message):
    """A bad value given as a flag ends the run with the stderr line and
    exit code that the same value in a config file does."""
    out = tmp_path / "x"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    argv = ["solve", "--puzzles", str(puzzle_file), "--out", str(out)]
    if key != "seed":
        argv += ["--seed", "1"]
    for given in ([f"--{key.replace('_', '-')}", value], ["--config", str(cfg)]):
        assert main(argv + given) == 2
        assert capsys.readouterr() == ("", message + "\n")
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("solve", "puzzles", 5), ("solve", "out", 1.5), ("solve", "profile", ["x"]),
    ("analyze", "recording", 5), ("analyze", "out", None),
])
def test_rejects_non_string_config_value(puzzle_file, recording_file, tmp_path,
                                         capsys, command, key, value):
    out = tmp_path / "x"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, key: value}))
    flags = {"solve": {"puzzles": puzzle_file}, "analyze": {"recording": recording_file}}
    argv = [command, "--config", str(cfg)]
    for flag, path in {**flags[command], "out": out}.items():
        if flag != key:
            argv += [f"--{flag}", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"invalid {command} option: {key} must be a string, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("solve", {"max_node": 1, "seed": 3}),
    ("solve", {"seed": 3, "ltm": "ltm.json"}),
    ("solve", {"seed": 3, "catalog": "catalog.json"}),
    ("analyze", {"recordings": "r.jsonl"}),
    ("analyze", {"au_table": "au.json"}),
])
def test_rejects_unknown_config_key(puzzle_file, recording_file, tmp_path,
                                    capsys, monkeypatch, command, config):
    """A config key the command does not merge is rejected before any
    puzzle or recording is read, not ignored; the flag of that name is
    what works."""
    def unread(*args):
        raise AssertionError("read an input past a bad option")

    monkeypatch.setattr(cli, "_load_puzzles", unread)
    monkeypatch.setattr(cli, "parse_recording", unread)
    out = tmp_path / "x"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    inputs = {"solve": ["--puzzles", str(puzzle_file)],
              "analyze": ["--recording", str(recording_file)]}
    argv = [command, "--config", str(cfg), "--out", str(out)] + inputs[command]
    assert main(argv) == 2
    key = next(k for k in config if k != "seed")
    assert capsys.readouterr() == (
        "", f"invalid {command} option: unknown config key {key!r}\n")
    assert not out.exists()


# desk m3-004 at seed 7: the first situation runs out of budget at 751
# nodes with the simulated clock at 821 ms; the second one solves it
M3_004 = {"id": "m3-004", "fen": "k7/8/8/8/2K5/8/1Q6/8 w - - 0 1", "mate_in": 3}


@pytest.mark.parametrize("limit_s, row, selected", [
    (0.05, ["m3-004", "unsolved", "", "0", "0"], 0),
    (0.8, ["m3-004", "unsolved", "", "751", "1"], 1),
    (0.9, ["m3-004", "solved", "c4c5 a8a7 c5c6 a7a6 b2a1", "1197", "2"], 2),
])
def test_solve_stops_selecting_at_time_limit(tmp_path, limit_s, row, selected):
    """No situation is selected once the simulated clock reaches the limit.
    An unsolved ask ends in an `exhausted` event holding exactly its
    verdict, nodes and situations."""
    puzzles = tmp_path / "p.jsonl"
    puzzles.write_text(json.dumps(dict(M3_004, time_limit_s=limit_s)) + "\n")
    out = tmp_path / "o"
    assert main(["solve", "--puzzles", str(puzzles), "--seed", "7",
                 "--out", str(out)]) == 0
    assert (out / "verdicts.tsv").read_text().splitlines()[1].split("\t") == row
    events = [json.loads(line) for line in
              (out / "traces" / "m3-004.trace.jsonl").read_text().splitlines()[1:]]
    assert [e["event"] for e in events].count("selected") == selected
    assert events[-1]["event"] == ("verdict" if row[1] == "solved" else "exhausted")
    if row[1] == "unsolved":
        assert events[-1]["data"] == {"verdict": "unsolved", "nodes": int(row[3]),
                                      "situations": selected}


@pytest.mark.parametrize("value", [0, -5, 0.0, "120", True, False, None,
                                   float("nan"), [120]])
def test_solve_rejects_bad_time_limit(tmp_path, capsys, value):
    puzzles = tmp_path / "p.jsonl"
    puzzles.write_text(json.dumps(dict(M3_004, time_limit_s=120)) + "\n"
                       + json.dumps(dict(M3_004, time_limit_s=value)) + "\n")
    out = tmp_path / "o"
    assert main(["solve", "--puzzles", str(puzzles), "--seed", "7",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"{puzzles}:2: bad puzzle record: time_limit_s must be a "
                   f"positive number, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("record, reason", [
    ([1, 2], "expected a JSON object, got [1, 2]"),
    (dict(M3_004, mate_in=True), "mate_in must be an integer, got True"),
    (dict(M3_004, mate_in=1.9), "mate_in must be an integer, got 1.9"),
    (dict(M3_004, mate_in="three"), "mate_in must be an integer, got 'three'"),
    (dict(M3_004, mate_in=None), "mate_in must be an integer, got None"),
    (dict(M3_004, mate_in=0), "mate depth must be 1..6, got 0"),
    (dict(M3_004, mate_in=7), "mate depth must be 1..6, got 7"),
    (dict(M3_004, fen=M3_004["fen"] + " 1"),
     "field-count: expected 6 fields, got 7"),
    (dict(M3_004, fen="4k3/8/Q7/1P6/8/8/8/4K3 w - a6 0 1"),
     "bad-en-passant: en-passant square a6 is occupied"),
    (dict(M3_004, fen=None), "fen must be a string, got None"),
    # an id names its trace file under traces/, once
    (dict(M3_004, id=""), "id must be a plain file name, got ''"),
    (dict(M3_004, id="."), "id must be a plain file name, got '.'"),
    (dict(M3_004, id=".."), "id must be a plain file name, got '..'"),
    (dict(M3_004, id="a/b"), "id must be a plain file name, got 'a/b'"),
    (dict(M3_004, id="../escaped"),
     "id must be a plain file name, got '../escaped'"),
    (dict(M3_004, id="a\0b"), "id must be a plain file name, got 'a\\x00b'"),
    (M3_004, "id 'm3-004' is already used on line 1"),
    (dict(M3_004, id="\ud800"), "id must encode to UTF-8, got '\\ud800'"),
    (dict(M3_004, id="x" * 300),
     "id makes a trace file name of 312 bytes, more than 255"),
    # 122 characters, but 244 bytes in UTF-8
    (dict(M3_004, id="\u00e9" * 122),
     "id makes a trace file name of 256 bytes, more than 255"),
    # an id is a JSON string, never text made from another value
    (dict(M3_004, id=None), "id must be a string, got None"),
    (dict(M3_004, id=7), "id must be a string, got 7"),
    (dict(M3_004, id=True), "id must be a string, got True"),
    (dict(M3_004, id=["a"]), "id must be a string, got ['a']"),
])
def test_solve_rejects_bad_puzzle_record(tmp_path, capsys, record, reason):
    """Every record is checked before any puzzle is solved."""
    puzzles = tmp_path / "p.jsonl"
    puzzles.write_text(json.dumps(M3_004) + "\n" + json.dumps(record) + "\n")
    out = tmp_path / "o"
    assert main(["solve", "--puzzles", str(puzzles), "--seed", "7",
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"{puzzles}:2: bad puzzle record: {reason}\n")
    assert not out.exists()


SIDE_FILE_CASES = [
    (None, "No such file or directory"),
    ("{", "Expecting property name enclosed in double quotes"),
    ("[1]", "must be a JSON object"),
]


@pytest.mark.parametrize("flag, what, text, message", [
    ("--catalog", "catalog", text, message) for text, message in SIDE_FILE_CASES
] + [
    ("--catalog", "catalog", '{"catalog_version": 1, "patterns": {}}',
     "pattern '<document>', field 'patterns': must be a list"),
] + [
    ("--ltm", "ltm", text, message) for text, message in SIDE_FILE_CASES
] + [
    ("--ltm", "ltm", '{"ltm_version": 2}', "unsupported ltm_version 2"),
] + [
    ("--config", "config", text, message) for text, message in SIDE_FILE_CASES
])
def test_solve_rejects_bad_side_file(puzzle_file, tmp_path, capsys, monkeypatch,
                                     flag, what, text, message):
    """A bad --catalog, --ltm or --config file ends the run with one line
    and exit 2 before any puzzle is solved."""
    monkeypatch.setattr(cli, "solve", lambda *a, **k: pytest.fail("solved"))
    side = tmp_path / "side.json"
    if text is not None:
        side.write_text(text)
    out = tmp_path / "o"
    assert main(["solve", "--puzzles", str(puzzle_file), "--seed", "7",
                 "--out", str(out), flag, str(side)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bad {what} file {side}: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag, what, text, message", [
    ("--au-table", "AU table", text, message) for text, message in SIDE_FILE_CASES
] + [
    ("--au-table", "AU table", '{"table_version": 2}', "unsupported table_version 2"),
] + [
    pytest.param("--au-table", "AU table", json.dumps(dict(AU_TABLE, **change)),
                 message, id=f"au-table-{name}")
    for name, change, message in [
        ("strings", {"positive": ["6", "12"]},
         "mapping table positive must be a list of AU numbers, got ['6', '12']"),
        ("one-string", {"positive": "6,12"},
         "mapping table positive must be a list of AU numbers, got '6,12'"),
        ("bool", {"negative": [1, True]},
         "mapping table negative must be a list of AU numbers, got [1, True]"),
        ("float", {"arousal": [1.0, 2]},
         "mapping table arousal must be a list of AU numbers, got [1.0, 2]"),
        ("emotion-set", {"emotions": dict(AU_TABLE["emotions"], happiness=[6, "12"])},
         "mapping table emotions.happiness must be a list of AU numbers, "
         "got [6, '12']"),
        ("unknown-label", {"emotions": dict(AU_TABLE["emotions"], contempt=[14])},
         "mapping table emotions name unknown label 'contempt'"),
        ("neutral-label", {"emotions": dict(AU_TABLE["emotions"], neutral=[])},
         "mapping table emotions name unknown label 'neutral'"),
    ]
] + [
    ("--config", "config", text, message) for text, message in SIDE_FILE_CASES
])
def test_analyze_rejects_bad_side_file(recording_file, tmp_path, capsys,
                                       flag, what, text, message):
    side = tmp_path / "side.json"
    if text is not None:
        side.write_text(text)
    out = tmp_path / "o"
    assert main(["analyze", "--recording", str(recording_file),
                 "--out", str(out), flag, str(side)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bad {what} file {side}: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert not out.exists()


def test_solve_run_owns_traces_dir(tmp_path):
    """A run into an existing output directory removes the traces an
    earlier run left in traces/, and nothing else; an id of the longest
    length allowed names its trace."""
    out = tmp_path / "o"
    traces = out / "traces"
    (traces / "kept.trace.jsonl").mkdir(parents=True)  # a directory, not a trace
    puzzles = tmp_path / "p.jsonl"
    longest = "x" * 243  # its trace file's name is 255 bytes long
    for puzzle_id in (longest, "other"):
        puzzles.write_text(json.dumps(dict(M3_004, id=puzzle_id)) + "\n")
        assert main(["solve", "--puzzles", str(puzzles), "--seed", "7",
                     "--out", str(out)]) == 0
        assert (traces / f"{puzzle_id}.trace.jsonl").is_file()
        (traces / "notes.txt").write_text("kept")
    assert sorted(p.name for p in traces.iterdir()) == [
        "kept.trace.jsonl", "notes.txt", "other.trace.jsonl"]
    assert (out / "verdicts.tsv").read_text().splitlines()[1].startswith("other\t")


def _entries(directory):
    """Each path under `directory` -> its bytes, or None for a directory."""
    return {str(p.relative_to(directory)): None if p.is_dir() else p.read_bytes()
            for p in sorted(directory.rglob("*"))}


def _inputs(command, puzzle_file, recording_file):
    if command == "solve":
        return ["--puzzles", str(puzzle_file), "--seed", "1"]
    return ["--recording", str(recording_file)]


@pytest.mark.parametrize("command, within", [
    ("solve", ""), ("analyze", ""), ("solve", "sub"), ("analyze", "sub/deeper"),
])
def test_rejects_out_that_is_a_file(puzzle_file, recording_file, tmp_path, capsys,
                                    command, within):
    """An `--out` that is a file, or lies under one, ends the run before
    any work with one stderr line and exit 2, and the file is kept."""
    taken = tmp_path / "F"
    taken.write_text("kept")
    out = taken / within if within else taken
    argv = [command, *_inputs(command, puzzle_file, recording_file), "--out", str(out)]
    assert _in_process(argv, capsys) == (
        2, "", f"cannot write outputs to {out}: {taken} is not a directory\n")
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("command, name", [
    ("solve", "verdicts.tsv"), ("solve", "summary.txt"),
    ("solve", "traces/bk-1.trace.jsonl"), ("analyze", "quality.tsv"),
    ("analyze", "task_stats.tsv"),
])
def test_rejects_output_name_that_is_a_directory(puzzle_file, recording_file, tmp_path,
                                                 capsys, command, name):
    """Where an output file would go and a directory stands, the run ends
    before any work with one stderr line and exit 2, and the output
    directory keeps exactly what an earlier run left there: no trace is
    removed and no output is written."""
    out = tmp_path / "o"
    argv = [command, *_inputs(command, puzzle_file, recording_file), "--out", str(out)]
    assert main(argv) == 0
    for path in out.rglob("*"):  # a rewrite would now show
        if path.is_file():
            path.write_text("from an earlier run")
    (out / name).unlink()
    (out / name).mkdir()
    before = _entries(out)
    assert _in_process(argv, capsys) == (
        2, "", f"cannot write outputs to {out}: {out / name} is not a regular file\n")
    assert _entries(out) == before


def test_rejects_traces_that_is_a_file(puzzle_file, tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "traces").write_text("kept")
    argv = ["solve", "--puzzles", str(puzzle_file), "--seed", "1", "--out", str(out)]
    assert _in_process(argv, capsys) == (
        2, "", f"cannot write outputs to {out}: {out / 'traces'} is not a directory\n")
    assert _entries(out) == {"traces": b"kept"}


def test_solve_missing_file_fails(tmp_path):
    assert main(["solve", "--puzzles", str(tmp_path / "nope.jsonl"),
                 "--seed", "1", "--out", str(tmp_path / "x")]) == 1


def test_solve_identical_bytes_across_processes(puzzle_file, tmp_path):
    """Hash randomization must not leak into any artifact."""
    outs = []
    for i, hashseed in enumerate(("1", "731")):
        out = tmp_path / f"run{i}"
        run_cli(["solve", "--puzzles", str(puzzle_file), "--seed", "5",
                 "--out", str(out)], hashseed)
        outs.append(out)
    for rel in ["verdicts.tsv", "summary.txt", "traces/bk-1.trace.jsonl",
                "traces/bat-2.trace.jsonl"]:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_import_loads_no_process_pool():
    """Importing the CLI, as every in-process caller does, loads no process
    pool: only a run with --jobs above 1 needs one."""
    code = ("import sys, cogchess.cli\n"
            "print(sorted({'concurrent.futures.process', 'multiprocessing'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env("0"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _in_process(argv, capsys):
    """(exit code, stdout, stderr) of `main(argv)` in this process."""
    capsys.readouterr()
    code = main(argv)
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv, code", [
    (["solve", "--bogus", "1"], 2), (["analyze", "--out"], 2), ([], 2), (["nope"], 2),
    (["--help"], 0), (["trace", "--help"], 0),
])
def test_main_returns_argparse_exit_code(argv, code, capsys):
    """A usage error and --help end `main` with argparse's exit code,
    returned, not raised, so an in-process caller that catches only
    `Exception` goes on."""
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out if code == 0 else err).startswith("usage: cogchess")


def _files(directory):
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_in_process_calls_share_no_state(puzzle_file, tmp_path, capsys, monkeypatch):
    """Calls of `main` in one process, passing and failing, each give the
    exit code, stdout, stderr and files that a fresh process gives."""
    monkeypatch.setenv("COLUMNS", "80")  # a child's piped stdout reads as 80
    dirs = {side: tmp_path / side for side in ("process", "child")}
    for d in dirs.values():
        d.mkdir()
        (d / "p.jsonl").write_bytes(puzzle_file.read_bytes())
        (d / "cfg.json").write_text(json.dumps({"puzzles": "p.jsonl", "seed": 4}))
    first = ["solve", "--config", "cfg.json", "--out", "a"]
    sequence = [
        first,
        ["solve", "--puzzles", "p.jsonl", "--seed", "3", "--out", "b"],
        ["solve", "--puzzles", "p.jsonl", "--seed", "3", "--profile", "aggressive",
         "--max-nodes", "40", "--entity-cap", "2", "--out", "c"],
        ["solve", "--puzzles", "p.jsonl", "--seed", "x", "--out", "d"],
        ["solve", "--puzzles", "p.jsonl", "--seed", "3", "--bogus", "1"],
        first,
    ]
    monkeypatch.chdir(dirs["process"])
    codes = []
    for argv in sequence:
        here = _in_process(argv, capsys)
        assert here == run_child(argv, "0", dirs["child"]), argv
        assert _files(dirs["process"]) == _files(dirs["child"]), argv
        codes.append(here[0])
    assert codes == [0, 0, 0, 2, 2, 0]


def test_parser_is_built_once(tmp_path, monkeypatch):
    """After one call of `main`, later calls of each command add no
    argument to any parser."""
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    missing = str(tmp_path / "none")
    assert main(["trace", missing]) == 1
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    assert main(["solve", "--puzzles", missing, "--seed", "1"]) == 1
    assert main(["analyze", "--recording", missing]) == 1
    assert main(["trace", missing]) == 1
    assert added == []
    cli.build_parser.__wrapped__()  # a build the counter does see
    assert added


def test_help_bytes_match_a_fresh_process(tmp_path, capsys, monkeypatch):
    """Each command's --help, printed after other calls in this process,
    is the one a fresh process prints."""
    monkeypatch.setenv("COLUMNS", "80")  # a child's piped stdout reads as 80
    assert _in_process(["trace", str(tmp_path / "none")], capsys)[0] == 1
    for command in ([], ["solve"], ["analyze"], ["trace"]):
        argv = command + ["--help"]
        here = _in_process(argv, capsys)
        assert here[0] == 0 and here[1].startswith("usage: cogchess")
        assert here == run_child(argv, "0", tmp_path), argv


def test_solve_jobs_merge_matches_serial(puzzle_file, tmp_path):
    a = tmp_path / "serial"
    b = tmp_path / "parallel"
    assert main(["solve", "--puzzles", str(puzzle_file), "--seed", "2",
                 "--out", str(a)]) == 0
    assert main(["solve", "--puzzles", str(puzzle_file), "--seed", "2",
                 "--jobs", "2", "--out", str(b)]) == 0
    assert (a / "verdicts.tsv").read_bytes() == (b / "verdicts.tsv").read_bytes()


def test_config_file_with_flag_override(puzzle_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"puzzles": str(puzzle_file), "seed": 4,
                               "out": str(tmp_path / "from_config")}))
    out = tmp_path / "flag_wins"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "verdicts.tsv").is_file()
    assert not (tmp_path / "from_config").exists()


# a value of each option that is not its default
OPTION_VALUES = {"profile": "aggressive", "seed": 5, "wm_capacity": 4,
                 "entity_cap": 2, "max_nodes": 40, "base_budget": 10, "jobs": 2}
# the options whose value shows in the output bytes of the two test puzzles
# (`seed` does too, but no run may leave it out)
SHOWN = ("profile", "wm_capacity", "entity_cap", "max_nodes", "base_budget")


def _output_of(tmp_path, name, command, inputs, key=None, in_config=False):
    """Every output file's bytes of one run given `inputs` as flags, and
    `key` (if any) as a flag or in a config file, with its `OPTION_VALUES`
    value or, lacking one, its value among the flags."""
    out = tmp_path / name
    flags = dict(inputs, out=out)
    if key is not None:
        given = flags.pop(key, None)
        value = OPTION_VALUES.get(key, str(given))
        if in_config:
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({key: value}))
            flags["config"] = str(config)
        else:
            flags[key] = value
    argv = [command]
    for flag, value in flags.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    return _files(out)


@pytest.mark.parametrize("command, key", [
    ("solve", key) for key, *_ in cli.SOLVE_OPTIONS
] + [
    ("analyze", key) for key, *_ in cli.ANALYZE_OPTIONS
])
def test_config_key_does_what_its_flag_does(puzzle_file, recording_file, tmp_path,
                                            command, key):
    """Each option's value in a config file gives the bytes its flag gives,
    and an option the outputs show gives other bytes than its default."""
    inputs = {"solve": {"puzzles": puzzle_file, "seed": 3},
              "analyze": {"recording": recording_file}}[command]
    by_flag = _output_of(tmp_path, "flag", command, inputs, key)
    by_config = _output_of(tmp_path, "config", command, inputs, key, in_config=True)
    assert by_flag and by_config == by_flag
    if key in SHOWN:
        assert _output_of(tmp_path, "default", command, inputs) != by_flag


def test_analyze_writes_stats(recording_file, tmp_path):
    out = tmp_path / "an"
    assert main(["analyze", "--recording", str(recording_file),
                 "--out", str(out)]) == 0
    lines = (out / "task_stats.tsv").read_text().splitlines()
    assert lines[0].startswith("task_id\t")
    assert len(lines) == 2
    row = lines[1].split("\t")
    assert row[0] == "9"
    assert row[4] == "12"  # self-touch count
    assert row[5] == "10"  # emotion changes
    assert (out / "au_series.tsv").is_file()
    assert (out / "skeleton_series.tsv").is_file()
    assert len((out / "touch_events.tsv").read_text().splitlines()) == 13


def test_analyze_missing_recording(tmp_path):
    out = tmp_path / "x"
    assert main(["analyze", "--recording", str(tmp_path / "no.rec"),
                 "--out", str(out)]) == 1
    assert not out.exists()


def test_analyze_rejects_bad_recording_without_partial_outputs(tmp_path):
    bad = tmp_path / "bad.rec"
    bad.write_text("no header here\n")
    out = tmp_path / "y"
    assert main(["analyze", "--recording", str(bad), "--out", str(out)]) == 1
    assert not out.exists()


def test_analyze_identical_bytes(recording_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", "--recording", str(recording_file), "--out", str(a)]) == 0
    assert main(["analyze", "--recording", str(recording_file), "--out", str(b)]) == 0
    for rel in ["task_stats.tsv", "au_series.tsv", "skeleton_series.tsv",
                "touch_events.tsv", "quality.tsv"]:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_analyze_duplicate_first_skeleton_timestamps(tmp_path):
    """Two complete frames at t=0 leave no pair with dt > 0 in the first
    windows: those rows get an empty agitation cell instead of a crash."""
    session = RecordingSession()
    session.skeleton_stream = [skeleton_frame(0), skeleton_frame(0),
                               skeleton_frame(50)]
    rec = tmp_path / "dup.rec"
    rec.write_text(serialize_recording(session))
    out = tmp_path / "dup"
    assert main(["analyze", "--recording", str(rec), "--out", str(out)]) == 0
    rows = [line.split("\t") for line in
            (out / "skeleton_series.tsv").read_text().splitlines()[1:]]
    assert [(r[0], r[2]) for r in rows] == [("0", ""), ("0", ""), ("50", "0.000000")]


def test_analyze_quality_report(tmp_path, capsys):
    text = make_recording(7)
    rec = tmp_path / "planted.rec"
    rec.write_text(text)
    out = tmp_path / "q"
    assert main(["analyze", "--recording", str(rec), "--out", str(out)]) == 0
    lines = (out / "quality.tsv").read_text().splitlines()
    assert lines[0] == "measure\tcount"
    assert dict(line.split("\t") for line in lines[1:]) == \
        {name: str(count) for name, count in PLANTED.items()}
    err = capsys.readouterr().err
    linenos = [i for i, line in enumerate(text.splitlines(), start=1)
               if line in BAD_LINES]
    assert len(linenos) == len(BAD_LINES)
    for lineno in linenos:
        assert f"warning: line {lineno}: " in err
    assert "warning: au_stream records arrived out of order; sorted" in err


def test_analyze_computes_each_frame_once(tmp_path, monkeypatch):
    """One label per AU frame and one touch test (at most two segment
    distances) per complete skeleton frame, over the whole analysis."""
    calls = {"classify_emotion": 0, "_segment_distance": 0}

    def counting(name):
        fn = getattr(affect, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(affect, name, counting(name))
    # cli imports classify_emotion by name: calls through it count too
    monkeypatch.setattr(cli, "classify_emotion", affect.classify_emotion)
    text = make_recording(7)
    rec = tmp_path / "planted.rec"
    rec.write_text(text)
    assert main(["analyze", "--recording", str(rec), "--out", str(tmp_path / "o")]) == 0
    session = parse_recording(text)
    complete = sum(not f.partial for f in session.skeleton_stream)
    assert calls["classify_emotion"] == len(session.au_stream)
    assert complete <= calls["_segment_distance"] <= 2 * complete


def test_trace_pretty_print(puzzle_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(["solve", "--puzzles", str(puzzle_file), "--seed", "3",
          "--out", str(out)])
    capsys.readouterr()
    assert main(["trace", str(out / "traces" / "bk-1.trace.jsonl")]) == 0
    shown = capsys.readouterr().out
    assert "orientation" in shown and "validation" in shown


def test_trace_prints_fields_of_any_json_type(tmp_path, capsys):
    path = tmp_path / "t.trace.jsonl"
    path.write_text('{"puzzle": "p"}\n{"t": [1], "phase": 2, "event": null, '
                    '"episode": {"a": 1}, "data": {"n": 3, "xs": [1]}}\n')
    assert main(["trace", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "     [1]ms  ep{'a': 1}  2             None            {'n': 3}")


EVENT = '{"t": 0, "phase": "orientation", "event": "start", "episode": null, "data": {}}'


@pytest.mark.parametrize("text, reason", [
    ("", "empty file"),
    ('{"puzzle": "p"}\nnot json\n', "Expecting value: line 1 column 1 (char 0)"),
    ("[1]\n", "line 1: expected a JSON object, got [1]"),
    ('{"puzzle": "p"}\n[1]\n', "line 2: expected a JSON object, got [1]"),
    ('{"puzzle": "p"}\n%s\n{"t": 1}\n' % EVENT,
     "line 3: event lacks phase, event, episode, data"),
    ('{"puzzle": "p"}\n' + EVENT.replace("{}}", "[]}") + "\n",
     "line 2: data must be a JSON object, got []"),
])
def test_trace_rejects_malformed_file(tmp_path, capsys, text, reason):
    path = tmp_path / "t.trace.jsonl"
    path.write_text(text)
    assert main(["trace", str(path)]) == 1
    assert capsys.readouterr() == ("", f"bad trace file {path}: {reason}\n")


def test_solve_desk_suite_smoke(tmp_path):
    out = tmp_path / "suite"
    code = main(["solve", "--puzzles", str(DATA / "puzzles_desk40.jsonl"),
                 "--seed", "11", "--base-budget", "20000",
                 "--max-nodes", "200000", "--out", str(out)])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "puzzles\t40" in summary and "solved\t40" in summary
