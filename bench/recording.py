"""Seeded synthetic recordings for the `analyze` workload.

A recording is built on one 30 Hz frame grid. It opens with a 2 s
baseline outside every task: the arousal-set AUs are absent for 1 s and
then sit at `STEP_LEVEL` for 1 s, so the trailing 60 s arousal at the last
baseline frame is exactly `STEP_LEVEL / 2`. The tasks follow back to
back. Each task plants a known number of self-touches and principal
emotion changes the way `tests/fixtures_affect.py` does (its rest pose,
a wrist on the head for 367 ms with at least 1 s between touches, and
runs cycling neutral -> happiness -> neutral -> surprise, each longer
than the 500 ms dwell).
Background AU noise stays below `EMOTION_THRESHOLD` and skeleton jitter
is a centimetre, far from the 15 cm touch distance. The generator keeps
every value as written (`Planted`), so that the analyzer's per-frame
series can be recomputed outside the program (`reference.py`).

To give the ingest layer something to count, the text also carries
partial skeleton frames (in the gaps between touches), a pupil stream
written out of order, one record of an unknown kind and a few lines
that cannot be parsed.
"""

from __future__ import annotations

from dataclasses import dataclass

from fixtures_affect import REST_JOINTS

FPS = 30
STEP_LEVEL = 0.15
BASELINE_FRAMES = 2 * FPS
NOISE_MAX = 0.15
JITTER_M = 0.01
TOUCH_FRAMES = 12  # 367 ms, above the 200 ms debounce
GAP_FRAMES = 30  # 1 s between touches
RUN_MIN_FRAMES = 24  # 767 ms, above the 500 ms dwell

AUS = (1, 2, 4, 5, 6, 7, 9, 12, 15, 16, 20, 23, 26)
AROUSAL_AUS = (1, 2, 4, 5, 20, 26)
PLANTED = {"happiness": (6, 12), "surprise": (1, 2, 5, 26)}
EMOTION_CYCLE = (None, "happiness", None, "surprise")
PLANT_LEVEL = 0.9

BAD_LINES = (
    "t_ms=abc kind=au au1=0.1",
    "this line is not a record",
    "t_ms=5 kind=pupil",
)


@dataclass(frozen=True)
class Planted:
    """What a generated recording must yield when analyzed."""

    tasks: tuple  # (task_id, self_touches, emotion_changes)
    au: tuple  # (t_ms, {au: intensity as written}) per AU frame
    labels: tuple  # planted emotion per AU frame
    skeleton: tuple  # (t_ms, {joint: (x, y, z) as written}) per frame
    touches: tuple  # (start_ms, end_ms) per planted self-touch
    step_t_ms: int  # timestamp of the arousal-step query row
    step_arousal: float
    recorded_s: float


def frame_ms(k: int) -> int:
    return k * 1000 // FPS


def _runs(frames: int, changes: int, rng) -> list:
    """Run lengths (frames) of `changes + 1` emotion runs filling `frames`."""
    spare = frames - (changes + 1) * RUN_MIN_FRAMES
    if spare < 0:
        raise ValueError("task too short for its emotion changes")
    cuts = sorted(rng.randint(0, spare) for _ in range(changes))
    extra = [b - a for a, b in zip([0] + cuts, cuts + [spare])]
    return [RUN_MIN_FRAMES + e for e in extra]


def _touch_frames(frames: int, touches: int) -> set:
    """Frame offsets (within a task) where a wrist rests on the head."""
    period = (frames - GAP_FRAMES) // max(touches, 1)
    if period < TOUCH_FRAMES + GAP_FRAMES:
        raise ValueError("task too short for its self-touches")
    out = set()
    for i in range(touches):
        start = GAP_FRAMES + i * period
        out.update(range(start, start + TOUCH_FRAMES))
    return out


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def make_recording(rng, task_seconds, subject="bench") -> tuple:
    """Recording text and its `Planted` facts for tasks of given lengths.

    Each task's touch and emotion-change counts are drawn from `rng`.
    """
    lines = ["format_version 1", f"subject_id {subject}"]
    records = []  # (t_ms, order, text)
    au_written, labels, skeleton_written, touch_spans = [], [], [], []

    def au(k, values, label=None):
        body = " ".join(f"au{n}={_fmt(values[n])}" for n in sorted(values))
        records.append((frame_ms(k), 0, f"t_ms={frame_ms(k)} kind=au {body}"))
        au_written.append((frame_ms(k), {n: float(_fmt(v)) for n, v in values.items()}))
        labels.append(label or "neutral")

    def noise(skip=()):
        return {n: rng.uniform(0.0, NOISE_MAX) for n in AUS if n not in skip}

    def skeleton(k, touching, partial):
        joints = {}
        for name, (x, y, z) in REST_JOINTS.items():
            joints[name] = tuple(c + rng.uniform(-JITTER_M, JITTER_M)
                                 for c in (x, y, z))
        if touching:
            joints["right_wrist"] = tuple(
                c + rng.uniform(-JITTER_M, JITTER_M) for c in joints["head"])
        if partial:
            del joints["left_elbow"]
        body = " ".join(f"{n}={','.join(_fmt(c) for c in xyz)}"
                        for n, xyz in sorted(joints.items()))
        records.append((frame_ms(k), 1, f"t_ms={frame_ms(k)} kind=skeleton {body}"))
        skeleton_written.append((frame_ms(k), {
            n: tuple(float(_fmt(c)) for c in xyz) for n, xyz in joints.items()}))

    for k in range(BASELINE_FRAMES):
        values = noise(skip=AROUSAL_AUS)
        if k >= BASELINE_FRAMES // 2:
            values.update({n: STEP_LEVEL for n in AROUSAL_AUS})
        au(k, values)
        skeleton(k, False, False)

    planted = []
    k = BASELINE_FRAMES
    for task_id, seconds in enumerate(task_seconds, start=1):
        frames = seconds * FPS
        touches = rng.randint(1, (frames - GAP_FRAMES) // (TOUCH_FRAMES + GAP_FRAMES))
        changes = rng.randint(1, frames // RUN_MIN_FRAMES - 1)
        planted.append((task_id, touches, changes))
        touching = _touch_frames(frames, touches)
        task_labels = []
        for run, length in enumerate(_runs(frames, changes, rng)):
            task_labels += [EMOTION_CYCLE[run % len(EMOTION_CYCLE)]] * length
        records.append((frame_ms(k), 2,
                        f"t_ms={frame_ms(k)} kind=marker marker=task_start task={task_id}"))
        for i in range(frames):
            values = noise()
            if task_labels[i] is not None:
                values.update({n: PLANT_LEVEL for n in PLANTED[task_labels[i]]})
            au(k + i, values, task_labels[i])
            gap = all(j not in touching for j in range(i - 2, i + 3))
            skeleton(k + i, i in touching, gap and i % 97 == 50)
            if i in touching and i - 1 not in touching:
                touch_spans.append((frame_ms(k + i), frame_ms(k + i + TOUCH_FRAMES - 1)))
        k += frames
        records.append((frame_ms(k), 2,
                        f"t_ms={frame_ms(k)} kind=marker marker=task_end task={task_id}"))

    pupil = [(frame_ms(j), f"t_ms={frame_ms(j)} kind=pupil diameter_mm="
              f"{_fmt(rng.uniform(2.5, 4.5))}") for j in range(0, k, 3)]
    mid = len(pupil) // 2
    pupil[mid], pupil[mid + 1] = pupil[mid + 1], pupil[mid]  # out of order
    body = sorted(records, key=lambda r: (r[0], r[1]))
    body += [(0, 3, text) for _, text in pupil]  # pupil follows, unsorted
    body.insert(len(body) // 3, (0, 4, f"t_ms={frame_ms(k // 2)} kind=gaze x=0.1 y=0.2"))
    for j, bad in enumerate(BAD_LINES):
        body.insert((j + 1) * len(body) // (len(BAD_LINES) + 1), (0, 5, bad))
    lines += [text for _, _, text in body]

    step_k = BASELINE_FRAMES - 1
    facts = Planted(tuple(planted), tuple(au_written), tuple(labels),
                    tuple(skeleton_written), tuple(touch_spans), frame_ms(step_k),
                    STEP_LEVEL / 2, frame_ms(k) / 1000.0)
    return "\n".join(lines) + "\n", facts
