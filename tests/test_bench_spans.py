"""The benchmark's layer spans install on, and restore, the names it wraps.

`bench/spans.py` looks up functions such as `cli.task_stats` and the
`board._mg` kernel by name; a rename in the package would break the
traced benchmark run without failing any other test.
"""

import sys
from pathlib import Path

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
