"""Recording parsing, canonical serialization, and task segmentation."""

from dataclasses import replace

import pytest

from cogchess.affect import analyze_session, load_au_table, task_stats
from cogchess.ingest import (
    IngestError, RecordingSession, parse_recording, segment_tasks,
    serialize_recording,
)
from fixtures_affect import emotion_change_stream, touch_stream

TABLE = load_au_table()


def _sample_text():
    return "\n".join([
        "format_version 1",
        "subject_id s07",
        "t_ms=0 kind=marker marker=task_start task=1",
        "t_ms=10 kind=au au1=0.5 au12=0.25",
        "t_ms=20 kind=au au6=0.9",
        "t_ms=30 kind=au au2=0.1",
        "t_ms=15 kind=skeleton head=0.0,1.6,0.0 left_wrist=0.1,0.9,0.0",
        "t_ms=25 kind=skeleton head=0.0,1.6,0.1 left_wrist=0.1,0.9,0.0",
        "t_ms=18 kind=pupil diameter_mm=3.4",
        "t_ms=40 kind=gsr level=0.77",
        "t_ms=120000 kind=marker marker=task_end task=1",
    ]) + "\n"


def test_empty_file_is_empty_session():
    session = parse_recording("")
    assert session.au_stream == [] and session.skeleton_stream == []
    assert session.markers == []


def test_demultiplexing_counts():
    session = parse_recording(_sample_text())
    assert session.subject_id == "s07"
    assert len(session.au_stream) == 3
    assert len(session.skeleton_stream) == 2
    assert len(session.pupil_stream) == 1
    assert len(session.markers) == 2
    assert session.passthrough == ["t_ms=40 kind=gsr level=0.77"]
    assert session.au_stream[0].intensities == {1: 0.5, 12: 0.25}


def test_bad_line_reported_with_number():
    text = "format_version 1\nt_ms=abc kind=au au1=0.5\n" + \
        "\n".join(f"t_ms={t} kind=au au1=0.1" for t in range(10))
    session = parse_recording(text)
    assert len(session.line_errors) == 1
    assert session.line_errors[0][0] == 2
    assert len(session.au_stream) == 10


def test_bad_t_ms_reported_with_its_text():
    text = "format_version 1\nt_ms=abc kind=au au1=0.1\n" + \
        "\n".join(f"t_ms={t} kind=au au1=0.1" for t in range(10))
    session = parse_recording(text)
    assert session.line_errors == [(2, "non-integer t_ms 'abc'")]


def test_missing_payload_key_named():
    text = "format_version 1\nt_ms=5 kind=pupil\n" + \
        "\n".join(f"t_ms={t} kind=au au1=0.1" for t in range(10))
    session = parse_recording(text)
    assert session.line_errors == [(2, "missing key 'diameter_mm'")]


@pytest.mark.parametrize("line, message", [
    ("t_ms=-5 kind=skeleton head=0.0,1.6,0.0", "t_ms must be >= 0"),
    ("t_ms=-5 kind=pupil diameter_mm=3.2", "t_ms must be >= 0"),
    ("t_ms=-5 kind=marker marker=task_start task=1", "t_ms must be >= 0"),
    ("t_ms=5 kind=skeleton head=nan,1.6,0.0",
     "joint 'head' coordinates nan,1.6,0.0 are not finite"),
    ("t_ms=5 kind=skeleton head=0.0,1.6,0.0 left_wrist=0.1,inf,0.0",
     "joint 'left_wrist' coordinates 0.1,inf,0.0 are not finite"),
    ("t_ms=5 kind=skeleton head=0.0,1.6,-inf",
     "joint 'head' coordinates 0.0,1.6,-inf are not finite"),
    ("t_ms=5 kind=pupil diameter_mm=nan", "diameter_mm nan is not a finite number >= 0"),
    ("t_ms=5 kind=pupil diameter_mm=inf", "diameter_mm inf is not a finite number >= 0"),
    ("t_ms=5 kind=pupil diameter_mm=-0.5",
     "diameter_mm -0.5 is not a finite number >= 0"),
], ids=["skeleton-t", "pupil-t", "marker-t", "joint-nan", "joint-inf",
        "joint-minus-inf", "pupil-nan", "pupil-inf", "pupil-negative"])
def test_refused_time_or_value_is_a_bad_line(line, message):
    text = "format_version 1\n" + line + "\n" + \
        "\n".join(f"t_ms={t} kind=au au1=0.1" for t in range(10))
    session = parse_recording(text)
    assert session.line_errors == [(2, message)]
    assert session.skeleton_stream == session.pupil_stream == session.markers == []
    assert analyze_session(session, TABLE)[4].bad_lines == 1


def test_time_checked_before_the_payload_except_on_au_records():
    text = "format_version 1\n" + "\n".join([
        "t_ms=-5 kind=pupil",
        "t_ms=-5 kind=skeleton head=nan,0,0",
        "t_ms=-5 kind=au au1=x",
        "t_ms=-5 kind=gaze x=1",
    ] + [f"t_ms={t} kind=au au1=0.1" for t in range(30)])
    session = parse_recording(text)
    assert session.line_errors == [
        (2, "t_ms must be >= 0"), (3, "t_ms must be >= 0"),
        (4, "could not convert string to float: 'x'")]
    assert session.passthrough == ["t_ms=-5 kind=gaze x=1"]


def test_out_of_order_streams_listed():
    text = "format_version 1\nt_ms=9 kind=pupil diameter_mm=3\n" \
        "t_ms=3 kind=pupil diameter_mm=3\nt_ms=1 kind=au au1=0.1\n"
    session = parse_recording(text)
    assert session.resorted == ["pupil_stream"]
    assert [t for t, _ in session.pupil_stream] == [3, 9]


def test_too_many_bad_lines_rejected():
    text = "format_version 1\n" + "\n".join(
        ["t_ms=abc kind=au au1=0.5"] * 3 + ["t_ms=5 kind=au au1=0.5"] * 3)
    with pytest.raises(IngestError) as e:
        parse_recording(text)
    assert e.value.code == "too-many-bad-lines"


def test_missing_header_rejected():
    with pytest.raises(IngestError) as e:
        parse_recording("t_ms=0 kind=au au1=0.5\n")
    assert e.value.code == "missing-header"


def test_out_of_order_sorted_with_warning():
    text = "\n".join([
        "format_version 1",
        "t_ms=100 kind=au au1=0.5",
        "t_ms=50 kind=au au1=0.2",
    ])
    session = parse_recording(text)
    assert [f.t_ms for f in session.au_stream] == [50, 100]
    assert any("out of order" in w for w in session.warnings)


def test_round_trip_identity():
    session = parse_recording(_sample_text())
    text = serialize_recording(session)
    again = parse_recording(text)
    assert again == session
    assert serialize_recording(again) == text
    # equality is the recording's: what parsing reported is not compared
    reported = replace(again, warnings=["w"], line_errors=[(2, "e")],
                       resorted=["au_stream"])
    assert reported == session
    assert replace(again, passthrough=session.passthrough + ["x"]) != session
    assert session.__eq__(text) is NotImplemented


def test_segment_single_task():
    session = parse_recording("\n".join([
        "format_version 1",
        "t_ms=0 kind=marker marker=task_start task=1",
        "t_ms=120000 kind=marker marker=task_end task=1",
    ]))
    assert segment_tasks(session) == [(1, 0, 120000)]


def test_segment_no_markers_warns():
    session = parse_recording("format_version 1\nt_ms=0 kind=au au1=0.1\n")
    assert segment_tasks(session) == []
    assert any("no task markers" in w for w in session.warnings)


def test_segment_unpaired_start_excluded():
    session = parse_recording("\n".join([
        "format_version 1",
        "t_ms=0 kind=marker marker=task_start task=1",
        "t_ms=5000 kind=marker marker=task_end task=1",
        "t_ms=9000 kind=marker marker=task_start task=2",
    ]))
    assert segment_tasks(session) == [(1, 0, 5000)]
    assert any("task 2" in w and "without end" in w for w in session.warnings)


def test_segment_end_before_start_errors():
    session = parse_recording("\n".join([
        "format_version 1",
        "t_ms=100 kind=marker marker=task_end task=3",
        "t_ms=500 kind=marker marker=task_start task=3",
    ]))
    with pytest.raises(IngestError) as e:
        segment_tasks(session)
    assert e.value.code == "end-before-start"
    assert "task 3" in str(e.value)


def test_segment_overlap_errors():
    session = parse_recording("\n".join([
        "format_version 1",
        "t_ms=0 kind=marker marker=task_start task=1",
        "t_ms=9000 kind=marker marker=task_end task=1",
        "t_ms=5000 kind=marker marker=task_start task=2",
        "t_ms=12000 kind=marker marker=task_end task=2",
    ]))
    with pytest.raises(IngestError) as e:
        segment_tasks(session)
    assert e.value.code == "overlapping-tasks"


def test_segment_order_insensitive():
    base = [
        "t_ms=0 kind=marker marker=task_start task=1",
        "t_ms=5000 kind=marker marker=task_end task=1",
        "t_ms=6000 kind=marker marker=task_start task=2",
        "t_ms=9000 kind=marker marker=task_end task=2",
    ]
    a = parse_recording("format_version 1\n" + "\n".join(base))
    b = parse_recording("format_version 1\n" + "\n".join(reversed(base)))
    assert segment_tasks(a) == segment_tasks(b)


def _session_with_tasks():
    session = RecordingSession()
    session.au_stream = emotion_change_stream(3, t0_ms=0)
    session.skeleton_stream = touch_stream(4, t0_ms=0)
    end = max(session.au_stream[-1].t_ms, session.skeleton_stream[-1].t_ms) + 50
    session.markers = [(0, "task_start", 1), (end, "task_end", 1)]
    return session, end


def test_task_stats_basic():
    session, end = _session_with_tasks()
    stats = task_stats(session, TABLE)
    assert len(stats) == 1
    s = stats[0]
    assert s.task_id == 1
    assert s.self_touch_count == 4
    assert s.emotion_change_count == 3
    assert s.mean_pupil_mm is None


@pytest.mark.parametrize("stream", ["au_stream", "skeleton_stream", "pupil_stream"])
def test_task_stats_rejects_unsorted_stream(stream):
    session, end = _session_with_tasks()
    session.pupil_stream = [(0, 3.0), (100, 3.1)]
    items = getattr(session, stream)
    items[0], items[1] = items[1], items[0]
    with pytest.raises(ValueError, match="not sorted"):
        task_stats(session, TABLE)


def test_task_stats_hand_computed_means():
    # four 2 s runs at 0.9 intensity: neutral, happiness, neutral, surprise
    session = RecordingSession()
    session.au_stream = emotion_change_stream(3, t0_ms=0)
    end = session.au_stream[-1].t_ms + 50
    session.markers = [(0, "task_start", 1), (end, "task_end", 1)]
    s = task_stats(session, TABLE)[0]
    # valence: happiness 0.9, surprise -(0.9/4); arousal set mean: surprise 0.6
    assert s.mean_valence == pytest.approx((40 * 0.9 - 40 * 0.225) / 160, abs=1e-12)
    assert s.mean_arousal == pytest.approx(40 * 0.6 / 160, abs=1e-12)


def test_task_stats_eleven_tasks_in_order():
    session = RecordingSession()
    session.au_stream = emotion_change_stream(2, t0_ms=0)
    markers = []
    for task in range(1, 12):
        t0 = (task - 1) * 10_000
        markers += [(t0, "task_start", task), (t0 + 9_000, "task_end", task)]
    session.markers = markers
    stats = task_stats(session, TABLE)
    assert [s.task_id for s in stats] == list(range(1, 12))


def test_task_stats_empty_session():
    assert task_stats(RecordingSession(), TABLE) == []


def test_slice_compute_commutation():
    """Per-segment stats equal stats on pre-sliced streams."""
    session, end = _session_with_tasks()
    mid = end // 2
    session.markers = [(0, "task_start", 1), (mid, "task_end", 1),
                       (mid, "task_start", 2), (end, "task_end", 2)]
    stats = task_stats(session, TABLE)

    from cogchess.affect import count_emotion_changes, detect_self_touch_events
    for task_id, t0, t1 in segment_tasks(session):
        au = [f for f in session.au_stream if t0 <= f.t_ms < t1]
        sk = [f for f in session.skeleton_stream if t0 <= f.t_ms < t1]
        row = next(s for s in stats if s.task_id == task_id)
        assert row.emotion_change_count == count_emotion_changes(au, TABLE)
        assert row.self_touch_count == len(detect_self_touch_events(sk))
