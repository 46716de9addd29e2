"""Command-line behavior: artifacts, exit codes, reproducibility."""

import json
from pathlib import Path

import pytest

from cli_child import run_cli
from cogchess.cli import main
from cogchess.ingest import serialize_recording, RecordingSession
from fixtures_affect import emotion_change_stream, skeleton_frame, touch_stream
from genrecording import BAD_LINES, PLANTED, make_recording

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def puzzle_file(tmp_path):
    puzzles = [
        {"id": "bk-1", "fen": "6k1/5ppp/8/8/8/8/8/4R2K w - - 0 1",
         "mate_in": 1, "time_limit_s": 120},
        {"id": "bat-2", "fen": "r5k1/5ppp/8/8/8/4Q3/7K/4R3 w - - 0 1",
         "mate_in": 2, "time_limit_s": 120},
    ]
    path = tmp_path / "puzzles.jsonl"
    path.write_text("".join(json.dumps(p) + "\n" for p in puzzles))
    return path


@pytest.fixture()
def recording_file(tmp_path):
    session = RecordingSession(subject_id="s01")
    session.au_stream = emotion_change_stream(10, t0_ms=0)
    session.skeleton_stream = touch_stream(12, t0_ms=0)
    end = max(session.au_stream[-1].t_ms, session.skeleton_stream[-1].t_ms) + 50
    session.markers = [(0, "task_start", 9), (end, "task_end", 9)]
    path = tmp_path / "session.rec"
    path.write_text(serialize_recording(session))
    return path


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


def test_trace_pretty_print(puzzle_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(["solve", "--puzzles", str(puzzle_file), "--seed", "3",
          "--out", str(out)])
    capsys.readouterr()
    assert main(["trace", str(out / "traces" / "bk-1.trace.jsonl")]) == 0
    shown = capsys.readouterr().out
    assert "orientation" in shown and "validation" in shown


def test_solve_desk_suite_smoke(tmp_path):
    out = tmp_path / "suite"
    code = main(["solve", "--puzzles", str(DATA / "puzzles_desk40.jsonl"),
                 "--seed", "11", "--base-budget", "20000",
                 "--max-nodes", "200000", "--out", str(out)])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "puzzles\t40" in summary and "solved\t40" in summary
