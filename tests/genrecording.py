"""Seeded 30 Hz recording that exercises every analyzer edge case.

`make_recording(seed)` returns recording text of `SECONDS` seconds, long
enough that the 60 s arousal window evicts frames. Besides ordinary
frames it plants, at fixed frame numbers:

- partial skeleton frames (the left elbow is missing),
- degenerate bones (the left elbow sits on the left shoulder),
- duplicate timestamps: a second AU and skeleton record at a frame's time,
- a skeleton gap longer than the 2 s agitation window,
- self-touches (the right wrist on the head),
- AU records written out of order, and a pupil stream likewise,
- one record of an unknown kind and `len(BAD_LINES)` unparsable lines.

`PLANTED` gives the counts the quality report must show for any seed.
"""

from __future__ import annotations

import random

from fixtures_affect import REST_JOINTS

FPS = 30
SECONDS = 75
FRAMES = SECONDS * FPS
AUS = (1, 2, 4, 5, 6, 7, 9, 12, 15, 16, 20, 23, 26)
TASKS = ((1, 3 * FPS, 30 * FPS), (2, 31 * FPS, 52 * FPS), (3, 53 * FPS, 74 * FPS))
PARTIAL_EVERY = 97
DEGENERATE_EVERY = 151
DUPLICATE_EVERY = 400
GAP = range(40 * FPS, 43 * FPS)  # 3 s without skeleton frames
TOUCH_EVERY = 180
TOUCH_FRAMES = 12
SWAPPED_AU = (700, 1300, 1900)  # frame k is written after frame k + 1
BAD_LINES = (
    "t_ms=abc kind=au au1=0.1",
    "not a record at all",
    "t_ms=77 kind=pupil",
)


def frame_ms(k: int) -> int:
    return k * 1000 // FPS


def _skeleton_frames():
    """Frame numbers of the skeleton stream, duplicates repeated."""
    out = []
    for k in range(FRAMES):
        if k in GAP:
            continue
        out.append(k)
        if k and k % DUPLICATE_EVERY == 0:
            out.append(k)
    return out


def _planted() -> dict:
    frames = _skeleton_frames()
    partial = [k for k in frames if k % PARTIAL_EVERY == 0]
    usable = [k for k in frames if k % PARTIAL_EVERY != 0]
    # each usable pair with dt > 0 and a degenerate frame at either end
    # loses that frame's left upper-arm bone once
    degenerate = sum(a % DEGENERATE_EVERY == 0 or b % DEGENERATE_EVERY == 0
                     for a, b in zip(usable, usable[1:])
                     if frame_ms(b) > frame_ms(a))
    return {"skipped_frames": len(partial), "degenerate_bones": degenerate,
            "bad_lines": len(BAD_LINES), "out_of_order_streams": 2}


PLANTED = _planted()


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def make_recording(seed: int) -> str:
    rng = random.Random(seed)
    au_lines, skeleton_lines, other = [], [], []

    def au(k):
        values = {n: rng.uniform(0.0, 0.6) for n in AUS}
        if (k // 90) % 3 == 1:
            values.update({6: 0.9, 12: 0.9})
        body = " ".join(f"au{n}={_fmt(values[n])}" for n in sorted(values))
        au_lines.append(f"t_ms={frame_ms(k)} kind=au {body}")

    def skeleton(k):
        joints = {name: tuple(c + rng.uniform(-0.02, 0.02) for c in xyz)
                  for name, xyz in REST_JOINTS.items()}
        if k % TOUCH_EVERY < TOUCH_FRAMES:
            joints["right_wrist"] = joints["head"]
        if k % DEGENERATE_EVERY == 0:
            joints["left_elbow"] = joints["left_shoulder"]
        if k % PARTIAL_EVERY == 0:
            del joints["left_elbow"]
        body = " ".join(f"{n}={','.join(_fmt(c) for c in xyz)}"
                        for n, xyz in sorted(joints.items()))
        skeleton_lines.append(f"t_ms={frame_ms(k)} kind=skeleton {body}")

    for k in range(FRAMES):
        au(k)
        if k and k % DUPLICATE_EVERY == 0:
            au(k)
    for k in _skeleton_frames():
        skeleton(k)
    for k in SWAPPED_AU:
        i = next(i for i, line in enumerate(au_lines)
                 if line.startswith(f"t_ms={frame_ms(k)} "))
        au_lines[i], au_lines[i + 1] = au_lines[i + 1], au_lines[i]
    for task, k0, k1 in TASKS:
        other.append(f"t_ms={frame_ms(k0)} kind=marker marker=task_start task={task}")
        other.append(f"t_ms={frame_ms(k1)} kind=marker marker=task_end task={task}")
    pupil = [f"t_ms={frame_ms(k)} kind=pupil diameter_mm={_fmt(rng.uniform(2.5, 4.5))}"
             for k in range(0, FRAMES, 5)]
    pupil[10], pupil[11] = pupil[11], pupil[10]
    other += pupil
    other.append(f"t_ms={frame_ms(FRAMES // 2)} kind=gaze x=0.1 y=0.2")

    body = au_lines + skeleton_lines + other
    for j, bad in enumerate(BAD_LINES):
        body.insert((j + 1) * len(body) // (len(BAD_LINES) + 1), bad)
    return "format_version 1\nsubject_id golden\n" + "\n".join(body) + "\n"
