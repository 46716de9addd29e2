"""The analyzer's per-frame arithmetic and record parser against the forms
they replaced.

`oracles.py` keeps the set means, the touch test's segment distance, the
pair speeds of agitation and the record parser as they were before they
were written out on scalars, and the partial-frame test and the body
volume as they were before they read a frozenset and a `zip` of the
joints. Each test runs `cogchess analyze` twice on one recording, once
as it is and once with those references swapped in, and requires the
same exit code, stdout, stderr and bytes of every TSV, the same parsed
session (every line error in order included) and the same quality
counts. It also compares each swapped function's own values
over every frame of the recording, where a last-bit difference shows
even when no printed digit moves. That comparison is bit-exact on
CPython 3.11 only: the references' norms and dot products are `sum`s,
which from 3.12 compensate their rounding, so there it is left out and
everything else is still compared.
"""

import os
import sys

import pytest

import oracles
from cogchess import affect, ingest
from cogchess.affect import QualityReport, analyze_session, load_au_table
from cogchess.cli import main
from cogchess.ingest import parse_recording
from fixtures_affect import REST_JOINTS
from genrecording import make_recording

TABLE = load_au_table()
SEEDS = (2024, 1, 2, 3, 99)
REFERENCES = (
    (affect, "_set_mean", oracles._set_mean_reference),
    (affect, "_segment_distance", oracles._segment_distance_reference),
    (affect, "_pair_speeds", oracles._pair_speeds_reference),
    (ingest, "_parse_record", oracles._parse_record_reference),
    (affect.SkeletonFrame, "partial", property(oracles._partial_reference)),
    (affect, "compute_body_volume", oracles.compute_body_volume_reference),
)


def _skeleton(t_ms: int, **moved) -> str:
    joints = {**REST_JOINTS, **moved}
    body = " ".join(f"{name}={','.join(repr(float(c)) for c in xyz)}"
                    for name, xyz in joints.items())
    return f"t_ms={t_ms} kind=skeleton {body}"


# Records appended after the 75 s of a generated recording.
EDGE_RECORDS = (
    # positive-set AUs of -0.0 and no negative-set AU: a sum without the
    # integer start would give a valence of -0.0
    "t_ms=80000 kind=au au6=-0.0 au12=-0.0",
    "t_ms=80033 kind=au au12=-0.0",
    # a repeated key keeps its last value where it first appeared, and
    # au01 is AU 1
    "t_ms=80066 kind=au au1=0.1 au12=0.5 au1=0.2 au01=0.3 au12=0.25",
    # the shoulder bone turns from (1, -0, 0) to (-0, 1, -1): every term
    # of its dot product is -0.0
    _skeleton(80000, left_shoulder=(0.0, 0.0, 0.0),
              right_shoulder=(1.0, -0.0, 0.0)),
    _skeleton(80033, left_shoulder=(0.0, 0.0, 0.0),
              right_shoulder=(-0.0, 1.0, -1.0)),
    # a repeated joint: the last position counts
    _skeleton(80066) + " head=0.35,0.8,0.0",
    # the shoulder bone (0.2, 0.45, 0) stays, then reverses: its cosine
    # rounds to 1 + 2**-52, then to -(1 + 2**-52), and must be clamped
    _skeleton(80100, left_shoulder=(0.0, 0.0, 0.0),
              right_shoulder=(0.2, 0.45, 0.0)),
    _skeleton(80133, left_shoulder=(0.0, 0.0, 0.0),
              right_shoulder=(0.2, 0.45, 0.0)),
    _skeleton(80166, left_shoulder=(0.0, 0.0, 0.0),
              right_shoulder=(-0.2, -0.45, -0.0)),
    # the head lies beyond the wrist end of both forearms (t > 1)
    _skeleton(80200, head=(0.0, 0.5, 0.0)),
    "t_ms=80100 kind=gaze a=b=c",
    "t_ms=80100 kind=pupil diameter_mm=3.0 diameter_mm=3.5",
    "t_ms=80133 kind=marker marker=task_start task=9 task=09",
)
# One line for each message the parser gives, and lines with two faults,
# where the first found is reported.
BAD_LINES = (
    "t_ms=1 kind=au au1=0.1 bogus",
    "t_ms=1=2 kind=au au1=0.1",
    "t_ms=1 kind=au au1=0.1=0.2",
    "t_ms=1 kind=skeleton head=0.0,1.6,0.1=0.2",
    "t_ms=1 bogus kind=au au1=x",
    "kind=au au1=0.1",
    "kind=au au1=0.1 t_ms=",
    "t_ms=1.5 kind=au au1=0.1",
    "t_ms=1 au1=0.1",
    "t_ms=1 kind=au x1=0.1",
    "t_ms=1 kind=au au1=0.1 x1=0.1",
    "t_ms=1 kind=au au1=x x1=0.1",
    "t_ms=1 kind=au aux=0.1",
    "t_ms=1 kind=au au=0.1",
    "t_ms=1 kind=au aux=abc",
    "t_ms=1 kind=au au=abc",
    "t_ms=1 kind=au au1=abc",
    "t_ms=-5 kind=au au1=0.1",
    "t_ms=-5 kind=au au1=1.5",
    "t_ms=1 kind=au au1=0.5 au2=1.5",
    "t_ms=1 kind=au au1=-0.5",
    "t_ms=1 kind=au au1=nan",
    "t_ms=1 kind=skeleton head=0.0,1.6",
    "t_ms=1 kind=skeleton head=0.0,1.6,0.1,0.2",
    "t_ms=1 kind=skeleton head=0.0,y,0.1",
    "t_ms=1 kind=skeleton head=",
    "t_ms=1 kind=marker marker=task_middle task=1",
    "t_ms=1 kind=marker task=1",
    "t_ms=1 kind=marker marker=task_end",
    "t_ms=1 kind=marker marker=task_end task=one",
    "t_ms=1 kind=pupil",
    "t_ms=1 kind=pupil diameter_mm=wide",
)
EDGE_LINES = EDGE_RECORDS + BAD_LINES


def _recording(seed: int) -> str:
    return make_recording(seed) + "\n".join(EDGE_LINES) + "\n"


def _values(session) -> list:
    """Each swapped analyzer function's value on every frame."""
    sets = [*TABLE["emotions"].values(),
            TABLE["positive"], TABLE["negative"], TABLE["arousal"]]
    means = [affect._set_mean(f, aus) for f in session.au_stream for aus in sets]
    complete = [f for f in session.skeleton_stream if not f.partial]
    distances = [affect._segment_distance(f.joints["head"],
                                          f.joints[f"{side}_elbow"],
                                          f.joints[f"{side}_wrist"])
                 for f in complete for side in ("left", "right")]
    report = QualityReport()
    speeds = affect._pair_speeds(complete, report)
    partial = [f.partial for f in session.skeleton_stream]
    volumes = [affect.compute_body_volume(f) for f in complete]
    return [means, distances, speeds, report, partial, volumes]


def _analysis(text: str, workdir, capsys) -> dict:
    """What one `cogchess analyze` run shows, each part as a string."""
    rec = workdir / "in.rec"
    workdir.mkdir()
    rec.write_text(text)
    out = workdir / "out"
    code = main(["analyze", "--recording", str(rec), "--out", str(out)])
    printed = capsys.readouterr()
    session = parse_recording(text)
    shown = {"exit": repr(code),
             "stdout": printed.out.replace(str(out), "<out>"),
             "stderr": printed.err,
             "session": repr(vars(session)),
             "quality": repr(analyze_session(session, TABLE)[4])}
    # the written-out sums add left to right as `sum` does only before 3.12
    if sys.version_info < (3, 12):
        shown["values"] = repr(_values(session))
    shown.update((p.name, p.read_text()) for p in sorted(out.iterdir()))
    return shown


def _first_difference(old: str, new: str) -> str:
    """'' when equal, else a short view of where the two first differ:
    pytest's own diff of two whole recordings' worth of text takes
    minutes."""
    if old == new:
        return ""
    at = len(os.path.commonprefix([old, new]))
    view = slice(max(0, at - 60), at + 60)
    return f"at {at}: {old[view]!r} != {new[view]!r}"


def _old_and_new(text: str, tmp_path, capsys, monkeypatch) -> tuple:
    new = _analysis(text, tmp_path / "new", capsys)
    with monkeypatch.context() as m:
        for module, name, reference in REFERENCES:
            m.setattr(module, name, reference)
        old = _analysis(text, tmp_path / "old", capsys)
    return old, new


@pytest.mark.parametrize("seed", SEEDS)
def test_analysis_equals_the_reference_forms(seed, tmp_path, capsys, monkeypatch):
    old, new = _old_and_new(_recording(seed), tmp_path, capsys, monkeypatch)
    assert old["exit"] == "0" and old.keys() == new.keys()
    assert sum(key.endswith(".tsv") for key in old) == 5
    for key in old:
        difference = _first_difference(old[key], new[key])
        assert not difference, f"{key} {difference}"


def test_edge_lines_exercise_what_they_name(tmp_path, capsys):
    """The appended lines reach the cases the comparison is for."""
    text = _recording(SEEDS[0])
    new = _analysis(text, tmp_path / "new", capsys)
    session = parse_recording(text)
    first_bad = len(text.splitlines()) - len(BAD_LINES) + 1
    assert [n for n, _ in session.line_errors][-len(BAD_LINES):] == \
        list(range(first_bad, first_bad + len(BAD_LINES)))
    assert len(session.line_errors) == 3 + len(BAD_LINES)
    au = {f.t_ms: list(f.intensities.items()) for f in session.au_stream}
    assert au[80066] == [(1, 0.3), (12, 0.25)]
    rows = new["au_series.tsv"].splitlines()
    assert [r.split("\t")[1] for r in rows if r.startswith(("80000\t", "80033\t"))] \
        == ["0.000000", "0.000000"]
    joints = {f.t_ms: f.joints for f in session.skeleton_stream}
    u, v = ([r - q for q, r in zip(joints[t]["left_shoulder"],
                                   joints[t]["right_shoulder"])]
            for t in (80000, 80033))
    assert [repr(a * b) for a, b in zip(u, v)] == ["-0.0"] * 3


def test_bad_record_lines_equal_the_reference_parser():
    """Every line of `EDGE_LINES` alone: the same record or the same error."""
    def parsed(parse, line):
        session = ingest.RecordingSession()
        try:
            parse(line, session)
        except ValueError as exc:
            return str(exc)
        except KeyError as exc:
            return f"missing key {exc}"
        return repr(vars(session))

    for line in EDGE_LINES:
        assert parsed(ingest._parse_record, line) == \
            parsed(oracles._parse_record_reference, line), line
