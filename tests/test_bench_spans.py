"""The benchmark's layer spans install on, and restore, the names it wraps.

`bench/spans.py` looks up functions such as `cli.task_stats` and the
`board._mg` kernel by name; a rename in the package would break the
traced benchmark run without failing any other test. The CLI's parser is
built once per process, before the traced round wraps `cli.run_solve`;
the wrapper must still be what `main` runs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402
from cogchess import affect, board, cli, ingest  # noqa: E402


def test_install_all_resolves_and_uninstall_restores():
    originals = {name: getattr(cli, name) for name in (
        "task_stats", "detect_self_touch_events", "classify_emotion",
        "compute_arousal", "compute_agitation", "parse_recording")}
    assert originals == {
        "task_stats": affect.task_stats,
        "detect_self_touch_events": affect.detect_self_touch_events,
        "classify_emotion": affect.classify_emotion,
        "compute_arousal": affect.compute_arousal,
        "compute_agitation": affect.compute_agitation,
        "parse_recording": ingest.parse_recording}
    kernel = board._mg
    tracer = spans.Tracer()
    try:
        spans.install_all(tracer)
        installed = list(tracer._installed)  # (owner, attr, original)
        assert all(getattr(owner, attr) is not value
                   for owner, attr, value in installed)
        assert board._mg is not kernel
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is value for owner, attr, value in installed)
    assert {name: getattr(cli, name) for name in originals} == originals
    assert board._mg is kernel


def test_cli_spans_open_after_the_parser_is_built(puzzle_file, recording_file,
                                                  tmp_path):
    """The traced round wraps `cli.run_solve` and `cli.run_analyze` after an
    untraced round has built the CLI's parser; a later call still runs
    inside each wrapper."""
    solve_argv = ["solve", "--puzzles", str(puzzle_file), "--seed", "7",
                  "--out", str(tmp_path / "solved")]
    analyze_argv = ["analyze", "--recording", str(recording_file),
                    "--out", str(tmp_path / "analyzed")]
    assert cli.main(solve_argv) == 0 and cli.main(analyze_argv) == 0
    tracer = spans.Tracer()
    try:
        spans.install_all(tracer)
        assert cli.main(solve_argv) == 0 and cli.main(analyze_argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.layers["cli.solve"].calls == 1
    assert tracer.layers["cli.analyze"].calls == 1


@pytest.mark.parametrize("built_first", [True, False])
def test_main_runs_the_run_function_the_module_has_at_the_call(
        tmp_path, monkeypatch, built_first):
    """A replacement `cli.run_solve`, with a name of its own, is what `main`
    runs, whether the parser was built before the replacement or after."""
    seen = []

    def spy(args):
        seen.append(args.seed)

    if built_first:
        assert cli.main(["trace", str(tmp_path / "none")]) == 1
    else:
        cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "run_solve", spy)
    assert cli.main(["solve", "--seed", "5"]) == 0
    assert seen == ["5"]
