"""Affect-signal computations on closed-form synthetic fixtures."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogchess.affect import (
    AUFrame, QualityReport, SkeletonFrame, agitation_series, arousal_series,
    classify_emotion, compute_agitation, compute_arousal, compute_body_volume,
    compute_valence,
    count_emotion_changes, detect_self_touch_events, load_au_table,
)
from fixtures_affect import (
    arousal_step_stream, au_frame, emotion_change_stream, skeleton_frame,
    touch_stream,
)

TABLE = load_au_table()


def test_all_zero_is_neutral():
    state = classify_emotion(AUFrame(0, {}), TABLE)
    assert state.label == "neutral"


def test_happiness_from_au6_au12():
    state = classify_emotion(AUFrame(0, {6: 0.9, 12: 0.9}), TABLE)
    assert state.label == "happiness"
    assert state.confidence == pytest.approx(0.9)


def test_tie_breaks_by_fixed_label_order():
    # happiness mean 0.5 vs surprise mean 0.5: happiness comes first
    frame = AUFrame(0, {6: 0.5, 12: 0.5, 1: 0.5, 2: 0.5, 5: 0.5, 26: 0.5})
    results = {classify_emotion(frame, TABLE).label for _ in range(5)}
    assert results == {"happiness"}


def test_below_threshold_is_neutral():
    state = classify_emotion(AUFrame(0, {6: 0.1, 12: 0.1}), TABLE)
    assert state.label == "neutral"


def test_valence_zero_for_blank_face():
    assert compute_valence(AUFrame(0, {}), TABLE) == 0.0


def test_valence_positive_only():
    frame = AUFrame(0, {6: 0.8, 12: 0.8})
    assert compute_valence(frame, TABLE) == pytest.approx(0.8)


def test_valence_balanced_sets_cancel():
    frame = AUFrame(0, {6: 0.6, 12: 0.6, 1: 0.6, 4: 0.6, 9: 0.6, 15: 0.6})
    assert compute_valence(frame, TABLE) == pytest.approx(0.0)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(1, 30), st.floats(0.0, 1.0), max_size=12))
def test_valence_and_arousal_ranges(intensities):
    frame = AUFrame(0, intensities)
    assert -1.0 <= compute_valence(frame, TABLE) <= 1.0
    assert 0.0 <= compute_arousal([frame], 0, TABLE) <= 1.0


def test_arousal_constant_stream():
    aus = {1: 0.4, 2: 0.4, 4: 0.4, 5: 0.4, 20: 0.4, 26: 0.4}
    stream = [AUFrame(t * 1000, aus) for t in range(90)]
    assert compute_arousal(stream, 80_000, TABLE) == pytest.approx(0.4)


def test_arousal_before_first_frame_is_zero():
    stream = [AUFrame(100_000, {1: 0.9})]
    assert compute_arousal(stream, 10_000, TABLE) == 0.0


def test_arousal_step_windowed_mean():
    stream = arousal_step_stream(t0_ms=60_000, low=0.0, high=0.8)
    assert compute_arousal(stream, 60_000 + 29_000, TABLE) == pytest.approx(0.4)


def test_touch_coincident_wrist_one_event():
    frames = [skeleton_frame(t * 50, touching=True) for t in range(21)]
    events = detect_self_touch_events(frames)
    assert len(events) == 1
    assert events[0] == (0, 1000)


def test_touch_far_wrist_no_events():
    frames = [skeleton_frame(t * 50, touching=False) for t in range(40)]
    assert detect_self_touch_events(frames) == []


def test_touch_twelve_engineered_events():
    frames = touch_stream(12)
    events = detect_self_touch_events(frames)
    assert len(events) == 12


def test_touch_debounce_drops_blips():
    frames = [skeleton_frame(0, touching=False),
              skeleton_frame(50, touching=True),
              skeleton_frame(100, touching=True),  # 50 ms blip < 200 ms
              skeleton_frame(150, touching=False),
              skeleton_frame(200, touching=False)]
    assert detect_self_touch_events(frames) == []


def test_touch_translation_invariant():
    base = touch_stream(5)
    shifted = touch_stream(5, offset=(3.0, -1.0, 2.5))
    assert detect_self_touch_events(base) == detect_self_touch_events(shifted)


def test_touch_skips_partial_frames():
    frames = touch_stream(3)
    frames.insert(5, SkeletonFrame(9999999, {"head": (0, 0, 0)}))
    report = QualityReport()
    events = detect_self_touch_events(frames, report=report)
    assert len(events) == 3
    assert report.skipped_frames == 1


def test_agitation_static_skeleton_is_zero():
    frames = [skeleton_frame(t * 50) for t in range(10)]
    assert compute_agitation(frames) == pytest.approx(0.0)


def _rotating_stream(omega, steps=40, dt_ms=50):
    frames = []
    for i in range(steps):
        t = i * dt_ms
        theta = omega * t / 1000.0
        joints = dict(skeleton_frame(t).joints)
        ex, ey, ez = joints["left_elbow"]
        joints["left_wrist"] = (ex + 0.3 * math.cos(theta),
                                ey + 0.3 * math.sin(theta), ez)
        frames.append(SkeletonFrame(t, joints))
    return frames


def test_agitation_matches_rotation_rate():
    omega = 0.4
    frames = _rotating_stream(omega)
    assert abs(compute_agitation(frames) - omega) < 1e-9


def test_agitation_linear_in_rate():
    slow = compute_agitation(_rotating_stream(0.3))
    fast = compute_agitation(_rotating_stream(0.6))
    assert fast == pytest.approx(2 * slow, abs=1e-9)


def test_agitation_needs_two_frames():
    with pytest.raises(ValueError):
        compute_agitation([skeleton_frame(0)])


def _random_times(rng, n, gap_ms):
    """Sorted times with duplicates and a few gaps longer than `gap_ms`.

    Steps are multiples of 50 ms, so window edges often fall on a frame.
    """
    times, t = [], rng.choice((0, 5))
    for _ in range(n):
        times.append(t)
        t += rng.choices((0, 50, 100, 250, 1000, gap_ms + 500),
                         weights=(2, 6, 6, 4, 2, 1))[0]
    return times


def _random_skeleton(rng, t_ms):
    joints = skeleton_frame(t_ms, offset=tuple(rng.uniform(-0.1, 0.1)
                                               for _ in range(3))).joints
    joints = {name: tuple(c + rng.uniform(-0.05, 0.05) for c in xyz)
              for name, xyz in joints.items()}
    if rng.random() < 0.1:
        joints["left_elbow"] = joints["left_shoulder"]  # degenerate bone
    if rng.random() < 0.05:
        joints["right_wrist"] = joints["right_elbow"]
    return SkeletonFrame(t_ms, joints)


@pytest.mark.parametrize("seed", range(6))
def test_arousal_series_equals_single_window_queries(seed):
    rng = random.Random(seed)
    stream = [AUFrame(t, {au: rng.random() for au in (1, 2, 4, 5, 9, 20, 26)
                          if rng.random() < 0.8})
              for t in _random_times(rng, 400, 60_000)]
    want = [compute_arousal(stream, f.t_ms, TABLE) for f in stream]
    assert arousal_series(stream, TABLE) == want


@pytest.mark.parametrize("seed", range(6))
def test_agitation_series_equals_single_window_queries(seed):
    rng = random.Random(seed)
    frames = [_random_skeleton(rng, t) for t in _random_times(rng, 300, 2000)]

    def query(f):
        window = [g for g in frames if f.t_ms - 2000 <= g.t_ms <= f.t_ms]
        try:
            return compute_agitation(window)
        except ValueError:  # < 2 frames, or no pair with dt > 0
            return None

    report = QualityReport()
    assert agitation_series(frames, report=report) == [query(f) for f in frames]
    whole = QualityReport()
    compute_agitation(frames, report=whole)
    assert report.degenerate_bones == whole.degenerate_bones > 0


def test_series_reject_unsorted_streams():
    au = [AUFrame(100, {}), AUFrame(0, {})]
    with pytest.raises(ValueError, match="not sorted"):
        arousal_series(au, TABLE)
    skeleton = [skeleton_frame(100), skeleton_frame(0)]
    with pytest.raises(ValueError, match="not sorted"):
        agitation_series(skeleton)


def test_body_volume_unit_box():
    frame = SkeletonFrame(0, {"a": (0.0, 0.0, 0.0), "b": (1.0, 2.0, 0.5)})
    assert compute_body_volume(frame) == pytest.approx(1.0)


def test_body_volume_degenerate():
    frame = SkeletonFrame(0, {"a": (0.3, 0.3, 0.3), "b": (0.3, 0.3, 0.3)})
    assert compute_body_volume(frame) == 0.0


def test_body_volume_translation_invariant():
    a = SkeletonFrame(0, {"a": (0.0, 0.0, 0.0), "b": (1.0, 2.0, 0.5)})
    b = SkeletonFrame(0, {"a": (5.0, -2.0, 1.0), "b": (6.0, 0.0, 1.5)})
    assert compute_body_volume(a) == pytest.approx(compute_body_volume(b))


def test_changes_constant_stream_zero():
    stream = [au_frame(t * 50) for t in range(100)]
    assert count_emotion_changes(stream, TABLE) == 0


def test_changes_two_transitions():
    stream = emotion_change_stream(2)
    assert count_emotion_changes(stream, TABLE) == 2


def test_changes_eleven_engineered():
    stream = emotion_change_stream(11)
    assert count_emotion_changes(stream, TABLE) == 11


def test_changes_short_runs_collapsed():
    stream = emotion_change_stream(2, dwell_ms=2000)
    # splice a 100 ms happiness blip into the middle of a neutral run
    blip_t = stream[10].t_ms
    stream[10] = au_frame(blip_t, "anger")
    stream[11] = au_frame(blip_t + 50, "anger")
    assert count_emotion_changes(stream, TABLE) == 2


def test_changes_time_rescale_invariant():
    stream = emotion_change_stream(7)
    doubled = [AUFrame(f.t_ms * 2, f.intensities) for f in stream]
    assert count_emotion_changes(stream, TABLE) == \
        count_emotion_changes(doubled, TABLE)


def test_table_rejects_bad_version():
    with pytest.raises(ValueError):
        load_au_table('{"table_version": 9}')


@pytest.mark.parametrize("doc, message", [
    ([1], "mapping table must be a JSON object"),
    ({"table_version": 1, "emotions": {}, "positive": [], "negative": []},
     "mapping table missing 'arousal'"),
    (dict(TABLE, emotions=[]), "mapping table emotions must map every emotion label"),
    (dict(TABLE, emotions={k: v for k, v in TABLE["emotions"].items()
                           if k != "fear"}),
     "mapping table emotions must map every emotion label"),
])
def test_table_rejects_malformed_document(doc, message):
    with pytest.raises(ValueError) as e:
        load_au_table(json.dumps(doc))
    assert str(e.value) == message


def test_operations_pure():
    frame = au_frame(0, "happiness")
    assert classify_emotion(frame, TABLE) == classify_emotion(frame, TABLE)
    assert compute_valence(frame, TABLE) == compute_valence(frame, TABLE)
