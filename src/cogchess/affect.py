"""Affect signals computed from recorded action-unit and skeleton streams.

Facial side: per-frame basic-emotion classification (argmax of mean AU
intensity per emotion set, neutral below threshold), valence (mean
positive-set intensity minus mean negative-set intensity), and arousal
(arousal-set intensity averaged over a trailing 60 s window).

Body side: self-touch events (head within 0.15 m of a wrist-elbow
segment, debounced at 200 ms), agitation (mean summed angular speed of
the arm and shoulder bones), and body volume (axis-aligned bounding box
of the joints).

The AU-to-emotion mapping ships as a data file and is configurable; all
operations are pure given the mapping table.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from importlib import resources
from typing import List, Optional, Tuple

AU_TABLE_VERSION = 1

EMOTION_LABELS = ("happiness", "sadness", "anger", "fear", "disgust",
                  "surprise", "neutral")

EMOTION_THRESHOLD = 0.2
AROUSAL_WINDOW_MS = 60_000
AGITATION_WINDOW_MS = 2_000
TOUCH_DISTANCE_M = 0.15
TOUCH_DEBOUNCE_MS = 200
EMOTION_DWELL_MS = 500

REQUIRED_JOINTS = ("head", "left_wrist", "right_wrist", "left_elbow",
                   "right_elbow", "left_shoulder", "right_shoulder")

# bone-direction vectors tracked for agitation
BONES = (
    ("left_shoulder", "left_elbow"),
    ("left_elbow", "left_wrist"),
    ("right_shoulder", "right_elbow"),
    ("right_elbow", "right_wrist"),
    ("left_shoulder", "right_shoulder"),
)


@dataclass(frozen=True)
class AUFrame:
    """Facial action-unit intensities at one timestamp."""

    t_ms: int
    intensities: dict  # AU number -> intensity in [0, 1]

    def __post_init__(self):
        if self.t_ms < 0:
            raise ValueError("t_ms must be >= 0")
        for au, v in self.intensities.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"AU{au} intensity {v} outside [0, 1]")


@dataclass(frozen=True)
class SkeletonFrame:
    """3D joint positions (meters) at one timestamp."""

    t_ms: int
    joints: dict  # joint name -> (x, y, z)

    @property
    def partial(self) -> bool:
        return any(j not in self.joints for j in REQUIRED_JOINTS)


@dataclass(frozen=True)
class EmotionState:
    label: str
    confidence: float

    def __post_init__(self):
        if self.label not in EMOTION_LABELS:
            raise ValueError(f"unknown emotion label {self.label!r}")


@dataclass
class QualityReport:
    """Counts of data the analyzer skipped, dropped or repaired."""

    skipped_frames: int = 0  # partial skeleton frames
    degenerate_bones: int = 0  # zero-length bones, once per frame pair
    bad_lines: int = 0  # recording lines that failed to parse
    out_of_order_streams: int = 0  # streams re-sorted on ingest


@dataclass(frozen=True)
class TaskStats:
    task_id: int
    t_start_ms: int
    t_end_ms: int
    self_touch_count: int
    emotion_change_count: int
    mean_valence: float
    mean_arousal: float
    mean_pupil_mm: Optional[float] = None

    @property
    def duration_ms(self) -> int:
        return self.t_end_ms - self.t_start_ms


def load_au_table(source=None) -> dict:
    """Load an AU mapping table; defaults to the packaged one."""
    if source is None:
        source = resources.files("cogchess").joinpath("data/au_table.json").read_text()
    table = json.loads(source) if isinstance(source, str) else source
    if table.get("table_version") != AU_TABLE_VERSION:
        raise ValueError(f"unsupported table_version {table.get('table_version')!r}")
    for key in ("emotions", "positive", "negative", "arousal"):
        if key not in table:
            raise ValueError(f"mapping table missing {key!r}")
    return table


def _set_mean(frame: AUFrame, aus) -> float:
    if not aus:
        return 0.0
    return sum(frame.intensities.get(au, 0.0) for au in aus) / len(aus)


def classify_emotion(frame: AUFrame, table: dict) -> EmotionState:
    """Argmax emotion over the table's AU sets; neutral below threshold.

    Ties break deterministically by the fixed label order.
    """
    best_label, best_score = "neutral", 0.0
    for label in EMOTION_LABELS[:-1]:
        score = _set_mean(frame, table["emotions"][label])
        if score > best_score:
            best_label, best_score = label, score
    if best_score < EMOTION_THRESHOLD:
        return EmotionState("neutral", 1.0 - best_score)
    return EmotionState(best_label, best_score)


def compute_valence(frame: AUFrame, table: dict) -> float:
    """Positive-set mean intensity minus negative-set mean intensity."""
    return _set_mean(frame, table["positive"]) - _set_mean(frame, table["negative"])


def compute_arousal(stream: List[AUFrame], t_ms: int, table: dict) -> float:
    """Arousal-set intensity averaged over frames in [t - 60 s, t]."""
    values = [_set_mean(f, table["arousal"]) for f in stream
              if t_ms - AROUSAL_WINDOW_MS <= f.t_ms <= t_ms]
    if not values:
        return 0.0
    return sum(values) / len(values)


def _sorted_times(times: List[int]) -> List[int]:
    """`times` itself; ValueError if a time is less than the one before."""
    if any(a > b for a, b in zip(times, times[1:])):
        raise ValueError("stream not sorted by t_ms")
    return times


def _windows(times: List[int], window_ms: int) -> List[Tuple[int, int]]:
    """(lo, hi) per time t: `times[lo:hi]` are the times in [t - W, t].

    `times` must be sorted (ValueError otherwise). The window runs to the
    last time equal to t, so later samples that share t count too, as in
    a single-window query.
    """
    _sorted_times(times)
    return [(bisect_left(times, t - window_ms), bisect_right(times, t))
            for t in times]


def arousal_series(stream: List[AUFrame], table: dict) -> List[float]:
    """`compute_arousal(stream, f.t_ms, table)` for every frame f.

    `stream` must be sorted by time, as `parse_recording` leaves it
    (ValueError otherwise). Each frame's arousal-set mean is computed once.
    """
    values = [_set_mean(f, table["arousal"]) for f in stream]
    # sum each slice left to right, as compute_arousal does: running
    # sums would drift from it in the last bits
    return [sum(values[lo:hi]) / (hi - lo) for lo, hi
            in _windows([f.t_ms for f in stream], AROUSAL_WINDOW_MS)]


def _segment_distance(p, a, b) -> float:
    """Distance from point p to segment ab in 3D."""
    ab = tuple(b[i] - a[i] for i in range(3))
    ap = tuple(p[i] - a[i] for i in range(3))
    denom = sum(v * v for v in ab)
    if denom == 0.0:
        t = 0.0
    else:
        t = max(0.0, min(1.0, sum(ap[i] * ab[i] for i in range(3)) / denom))
    closest = tuple(a[i] + t * ab[i] for i in range(3))
    return math.dist(p, closest)


def detect_self_touch_events(stream: List[SkeletonFrame],
                             report: Optional[QualityReport] = None
                             ) -> List[Tuple[int, int]]:
    """Merged (start_ms, end_ms) intervals where a hand touches the head.

    A frame is touching when the head lies within `TOUCH_DISTANCE_M`
    meters of either wrist-elbow segment. Consecutive touching frames
    merge into one event; events shorter than `TOUCH_DEBOUNCE_MS` are
    dropped. Frames missing required joints are skipped and counted in
    the report.
    """
    events = []
    current_start = None
    last_touch_t = None
    for f in stream:
        if f.partial:
            if report is not None:
                report.skipped_frames += 1
            continue
        head = f.joints["head"]
        touching = (
            _segment_distance(head, f.joints["left_elbow"], f.joints["left_wrist"])
            < TOUCH_DISTANCE_M
            or _segment_distance(head, f.joints["right_elbow"], f.joints["right_wrist"])
            < TOUCH_DISTANCE_M)
        if touching:
            if current_start is None:
                current_start = f.t_ms
            last_touch_t = f.t_ms
        else:
            if current_start is not None:
                events.append((current_start, last_touch_t))
                current_start = None
    if current_start is not None:
        events.append((current_start, last_touch_t))
    return [(s, e) for s, e in events if e - s >= TOUCH_DEBOUNCE_MS]


def _angle_between(u, v) -> float:
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        raise ZeroDivisionError("degenerate bone")
    cos = sum(a * b for a, b in zip(u, v)) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, cos)))


def _pair_speed(prev: SkeletonFrame, cur: SkeletonFrame,
                report: Optional[QualityReport] = None) -> Optional[float]:
    """Summed per-bone angular speed (rad/s) from `prev` to `cur`.

    None when the pair has no positive time step. A bone of zero length
    in either frame drops out of the sum and is counted in the report.
    """
    dt_s = (cur.t_ms - prev.t_ms) / 1000.0
    if dt_s <= 0:
        return None
    total = 0.0
    for a, b in BONES:
        u = tuple(prev.joints[b][i] - prev.joints[a][i] for i in range(3))
        v = tuple(cur.joints[b][i] - cur.joints[a][i] for i in range(3))
        try:
            total += _angle_between(u, v) / dt_s
        except ZeroDivisionError:
            if report is not None:
                report.degenerate_bones += 1
    return total


def _pair_speeds(frames: List[SkeletonFrame],
                 report: Optional[QualityReport] = None) -> list:
    return [_pair_speed(prev, cur, report) for prev, cur in zip(frames, frames[1:])]


def compute_agitation(stream: List[SkeletonFrame],
                      report: Optional[QualityReport] = None) -> float:
    """Mean summed per-bone angular speed (rad/s) over the window `stream`.

    Needs at least 2 usable frames in the window.
    """
    frames = [f for f in stream if not f.partial]
    if len(frames) < 2:
        raise ValueError("agitation needs at least 2 frames in the window")
    speeds = [s for s in _pair_speeds(frames, report) if s is not None]
    if not speeds:
        raise ValueError("no usable frame pairs in the window")
    return sum(speeds) / len(speeds)


def agitation_series(usable_frames: List[SkeletonFrame],
                     report: Optional[QualityReport] = None
                     ) -> List[Optional[float]]:
    """Agitation over [t - 2 s, t] at every frame's time t.

    `usable_frames` must hold no partial frame and be sorted by time
    (ValueError otherwise).
    Each entry equals `compute_agitation` of its window, or is None when
    the window has no frame pair with a positive time step. Each pair's
    speed is computed once, so the report counts each degenerate bone
    once per pair.
    """
    speeds = _pair_speeds(usable_frames, report)
    out = []
    for lo, hi in _windows([f.t_ms for f in usable_frames], AGITATION_WINDOW_MS):
        window = [s for s in speeds[lo:hi - 1] if s is not None]
        out.append(sum(window) / len(window) if window else None)
    return out


def compute_body_volume(frame: SkeletonFrame) -> float:
    """Volume (m^3) of the axis-aligned bounding box around all joints."""
    pts = list(frame.joints.values())
    if len(pts) < 2:
        raise ValueError("body volume needs at least 2 joints")
    vol = 1.0
    for i in range(3):
        coords = [p[i] for p in pts]
        vol *= max(coords) - min(coords)
    return vol


def _runs(stream: List[AUFrame], table: dict) -> List[Tuple[str, int, int]]:
    """Consecutive same-label runs as (label, t_first, t_last)."""
    runs = []
    for f in stream:
        label = classify_emotion(f, table).label
        if runs and runs[-1][0] == label:
            runs[-1] = (label, runs[-1][1], f.t_ms)
        else:
            runs.append((label, f.t_ms, f.t_ms))
    return runs


def count_emotion_changes(stream: List[AUFrame], table: dict) -> int:
    """Transitions between distinct emotion labels that each persist.

    Runs shorter than `EMOTION_DWELL_MS` (first to last frame) are discarded
    before counting, so micro-expressions do not count as principal
    changes.
    """
    surviving = [r for r in _runs(stream, table) if r[2] - r[1] >= EMOTION_DWELL_MS]
    changes = 0
    prev = None
    for label, _, _ in surviving:
        if prev is not None and label != prev:
            changes += 1
        prev = label
    return changes


def task_stats(session, table: dict) -> List[TaskStats]:
    """Per-task statistics over a segmented recording session.

    Requires `session.tasks()` to yield non-overlapping (task_id, t_start,
    t_end) intervals; raises ValueError on overlap. Each task slices the
    streams to [t_start, t_end); they must be sorted by time, as
    `parse_recording` leaves them (ValueError otherwise).
    """
    from .ingest import segment_tasks  # late import to avoid a cycle

    def sliced(stream, times, t0, t1):
        return stream[bisect_left(times, t0):bisect_left(times, t1)]

    au_times = _sorted_times([f.t_ms for f in session.au_stream])
    sk_times = _sorted_times([f.t_ms for f in session.skeleton_stream])
    pupil_times = _sorted_times([t for t, _ in session.pupil_stream])
    out = []
    for task_id, t0, t1 in segment_tasks(session):
        au = sliced(session.au_stream, au_times, t0, t1)
        sk = sliced(session.skeleton_stream, sk_times, t0, t1)
        touches = detect_self_touch_events(sk)
        changes = count_emotion_changes(au, table)
        valences = [compute_valence(f, table) for f in au]
        arousals = [_set_mean(f, table["arousal"]) for f in au]
        pupil = [d for _, d in sliced(session.pupil_stream, pupil_times, t0, t1)]
        out.append(TaskStats(
            task_id=task_id,
            t_start_ms=t0,
            t_end_ms=t1,
            self_touch_count=len(touches),
            emotion_change_count=changes,
            mean_valence=sum(valences) / len(valences) if valences else 0.0,
            mean_arousal=sum(arousals) / len(arousals) if arousals else 0.0,
            mean_pupil_mm=sum(pupil) / len(pupil) if pupil else None,
        ))
    return out
