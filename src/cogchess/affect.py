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
from itertools import groupby, repeat
from operator import itemgetter
from typing import List, Optional, Tuple

AU_TABLE_VERSION = 1
# The keys the loader reads; any other key is rejected, not ignored.
AU_TABLE_KEYS = ("table_version", "emotions", "positive", "negative", "arousal")

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
_REQUIRED = frozenset(REQUIRED_JOINTS)

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
        return not _REQUIRED <= self.joints.keys()


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
    if not isinstance(table, dict):
        raise ValueError("mapping table must be a JSON object")
    if table.get("table_version") != AU_TABLE_VERSION:
        raise ValueError(f"unsupported table_version {table.get('table_version')!r}")
    for key in ("emotions", "positive", "negative", "arousal"):
        if key not in table:
            raise ValueError(f"mapping table missing {key!r}")
    emotions = table["emotions"]
    if not (isinstance(emotions, dict) and set(EMOTION_LABELS[:-1]) <= emotions.keys()):
        raise ValueError("mapping table emotions must map every emotion label")
    for label in emotions:
        if label not in EMOTION_LABELS[:-1]:
            raise ValueError(f"mapping table emotions name unknown label {label!r}")
    named_sets = [(key, table[key]) for key in ("positive", "negative", "arousal")]
    named_sets += [(f"emotions.{label}", aus) for label, aus in emotions.items()]
    for name, aus in named_sets:
        if not (isinstance(aus, list) and all(
                isinstance(au, int) and not isinstance(au, bool) for au in aus)):
            raise ValueError(f"mapping table {name} must be a list of AU numbers, "
                             f"got {aus!r}")
    for key in table:
        if key not in AU_TABLE_KEYS:
            raise ValueError(f"mapping table has unknown key {key!r}")
    return table


_ZEROS = repeat(0.0)  # the intensity of an AU a frame does not hold


def _set_mean(frame: AUFrame, aus) -> float:
    """Mean intensity over the AU set `aus`, an absent AU counting as 0.0.

    `sum` starts from the integer 0, so intensities of -0.0 sum to 0.0
    and a valence never prints as -0.000000."""
    if not aus:
        return 0.0
    return sum(map(frame.intensities.get, aus, _ZEROS)) / len(aus)


def _mean(values: list) -> float:
    """`sum` over the count (0.0 for none): the one mean over frames or
    frame pairs, which arousal, agitation and the task stats all take;
    running sums would drift from it in the last bits. CPython 3.11 sums
    floats left to right; 3.12 and later compensate, so there the last
    bit may differ from the goldens, which are pinned on 3.11."""
    return sum(values) / len(values) if values else 0.0


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
    return _mean([_set_mean(f, table["arousal"]) for f in stream
                  if t_ms - AROUSAL_WINDOW_MS <= f.t_ms <= t_ms])


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


def _arousal_windows(times: List[int], means: List[float]) -> List[float]:
    """Mean of the arousal-set means `means` over [t - 60 s, t] per time t."""
    return [_mean(means[lo:hi]) for lo, hi in _windows(times, AROUSAL_WINDOW_MS)]


def arousal_series(stream: List[AUFrame], table: dict) -> List[float]:
    """`compute_arousal(stream, f.t_ms, table)` for every frame f.

    `stream` must be sorted by time, as `parse_recording` leaves it
    (ValueError otherwise). Each frame's arousal-set mean is computed once.
    """
    return _arousal_windows([f.t_ms for f in stream],
                            [_set_mean(f, table["arousal"]) for f in stream])


def _segment_distance(p, a, b) -> float:
    """Distance from point p to segment ab in 3D.

    `math.dist` scales its inputs, so it is kept for the last step: a
    written-out square root can differ from it in the last bit."""
    px, py, pz = p
    ax, ay, az = a
    x, y, z = b[0] - ax, b[1] - ay, b[2] - az
    denom = x * x + y * y + z * z
    if denom == 0.0:
        t = 0.0
    else:
        t = ((px - ax) * x + (py - ay) * y + (pz - az) * z) / denom
        t = t if t < 1.0 else 1.0  # min(1.0, t)
        t = t if t > 0.0 else 0.0  # max(0.0, t)
    return math.dist(p, (ax + t * x, ay + t * y, az + t * z))


def _touching(frame: SkeletonFrame) -> Optional[bool]:
    """None for a partial frame, else whether a hand touches the head."""
    if frame.partial:
        return None
    j = frame.joints
    return any(_segment_distance(j["head"], j[f"{side}_elbow"], j[f"{side}_wrist"])
               < TOUCH_DISTANCE_M for side in ("left", "right"))


def _runs(pairs) -> List[tuple]:
    """(value, t_first, t_last) per run of equal values in (t_ms, value) pairs."""
    runs = []
    for value, run in groupby(pairs, key=itemgetter(1)):
        run = list(run)
        runs.append((value, run[0][0], run[-1][0]))
    return runs


def _touch_events(times: List[int], touching: List[Optional[bool]]
                  ) -> List[Tuple[int, int]]:
    """Touch events from per-frame `_touching` values; a partial frame
    (None) neither extends nor ends a run."""
    pairs = [(t, flag) for t, flag in zip(times, touching) if flag is not None]
    return [(first, last) for flag, first, last in _runs(pairs)
            if flag and last - first >= TOUCH_DEBOUNCE_MS]


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
    touching = [_touching(f) for f in stream]
    if report is not None:
        report.skipped_frames += touching.count(None)
    return _touch_events([f.t_ms for f in stream], touching)


def _pair_speeds(frames: List[SkeletonFrame],
                 report: Optional[QualityReport] = None) -> list:
    """Summed per-bone angular speed (rad/s) of each consecutive pair.

    None for a pair with no positive time step. A bone of zero length in
    either frame of a pair drops out of its sum and is counted in the
    report. Each frame's bone vectors and norms are built once, and only
    the previous frame's are kept.
    """
    sqrt, acos = math.sqrt, math.acos
    speeds = []
    degenerate = 0
    prev = prev_t = None
    for frame in frames:
        joints = frame.joints
        bones = []
        for a, b in BONES:
            (ax, ay, az), (bx, by, bz) = joints[a], joints[b]
            x, y, z = bx - ax, by - ay, bz - az
            bones.append((x, y, z, sqrt(x * x + y * y + z * z)))
        if prev is not None:
            dt_s = (frame.t_ms - prev_t) / 1000.0
            if dt_s <= 0:
                speeds.append(None)
            else:
                total = 0.0
                for (ux, uy, uz, nu), (vx, vy, vz, nv) in zip(prev, bones):
                    if nu == 0.0 or nv == 0.0:
                        degenerate += 1
                        continue
                    cos = (ux * vx + uy * vy + uz * vz) / (nu * nv)
                    cos = cos if cos < 1.0 else 1.0  # min(1.0, cos)
                    cos = cos if cos > -1.0 else -1.0  # max(-1.0, cos)
                    total += acos(cos) / dt_s
                speeds.append(total)
        prev, prev_t = bones, frame.t_ms
    if report is not None:
        report.degenerate_bones += degenerate
    return speeds


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
    return _mean(speeds)


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
        out.append(_mean(window) if window else None)
    return out


def compute_body_volume(frame: SkeletonFrame) -> float:
    """Volume (m^3) of the axis-aligned bounding box around all joints."""
    if len(frame.joints) < 2:
        raise ValueError("body volume needs at least 2 joints")
    vol = 1.0
    for axis in zip(*frame.joints.values()):
        vol *= max(axis) - min(axis)
    return vol


def _emotion_changes(times: List[int], labels: List[str]) -> int:
    """`count_emotion_changes` from each frame's time and label."""
    surviving = [label for label, first, last in _runs(zip(times, labels))
                 if last - first >= EMOTION_DWELL_MS]
    return sum(a != b for a, b in zip(surviving, surviving[1:]))


def count_emotion_changes(stream: List[AUFrame], table: dict) -> int:
    """Transitions between distinct emotion labels that each persist.

    Runs shorter than `EMOTION_DWELL_MS` (first to last frame) are discarded
    before counting, so micro-expressions do not count as principal
    changes.
    """
    return _emotion_changes([f.t_ms for f in stream],
                            [classify_emotion(f, table).label for f in stream])


def analyze_session(session, table: dict) -> tuple:
    """(task stats, AU rows, skeleton rows, touch events, QualityReport) of
    a parsed session: what `cogchess analyze` writes. An AU row is (t_ms,
    valence, arousal_60s, label); a skeleton row, one per complete frame,
    is (t_ms, body volume, agitation). Each per-frame value is computed
    once and read by all five. Raises ValueError as `task_stats` does."""
    from .ingest import segment_tasks  # late import to avoid a cycle

    au, sk, pupil = session.au_stream, session.skeleton_stream, session.pupil_stream
    au_times = _sorted_times([f.t_ms for f in au])
    sk_times = _sorted_times([f.t_ms for f in sk])
    pupil_times = _sorted_times([t for t, _ in pupil])
    valence = [compute_valence(f, table) for f in au]
    arousal = [_set_mean(f, table["arousal"]) for f in au]
    labels = [classify_emotion(f, table).label for f in au]
    touching = [_touching(f) for f in sk]

    tasks = []
    for task_id, t0, t1 in segment_tasks(session):
        a = slice(bisect_left(au_times, t0), bisect_left(au_times, t1))
        s = slice(bisect_left(sk_times, t0), bisect_left(sk_times, t1))
        diameters = [d for _, d in pupil[bisect_left(pupil_times, t0):
                                         bisect_left(pupil_times, t1)]]
        tasks.append(TaskStats(
            task_id, t0, t1,
            self_touch_count=len(_touch_events(sk_times[s], touching[s])),
            emotion_change_count=_emotion_changes(au_times[a], labels[a]),
            mean_valence=_mean(valence[a]), mean_arousal=_mean(arousal[a]),
            mean_pupil_mm=_mean(diameters) if diameters else None))

    quality = QualityReport(skipped_frames=touching.count(None),
                            bad_lines=len(session.line_errors),
                            out_of_order_streams=len(session.resorted))
    usable = [f for f, flag in zip(sk, touching) if flag is not None]
    agitation = agitation_series(usable, report=quality)
    return (tasks,
            list(zip(au_times, valence, _arousal_windows(au_times, arousal), labels)),
            [(f.t_ms, compute_body_volume(f), g) for f, g in zip(usable, agitation)],
            _touch_events(sk_times, touching),
            quality)


def task_stats(session, table: dict) -> List[TaskStats]:
    """Per-task statistics over a segmented recording session.

    Requires `session.tasks()` to yield non-overlapping (task_id, t_start,
    t_end) intervals; raises ValueError on overlap. Each task slices the
    streams to [t_start, t_end); they must be sorted by time, as
    `parse_recording` leaves them (ValueError otherwise).
    """
    return analyze_session(session, table)[0]
