"""The analyzer's per-frame series, recomputed outside the program.

`cogchess analyze` writes `au_series.tsv` (valence, trailing 60 s arousal
and emotion per AU frame) and `skeleton_series.tsv` (body volume and
trailing 2 s agitation per complete skeleton frame). This module
recomputes both from the values a generated recording holds
(`recording.Planted`), by another route than the program's: every
trailing window is found by bisecting the frame times instead of
scanning the stream, its mean is an exactly rounded sum (`math.fsum`),
and a bone's turn between two frames is atan2(|u x v|, u . v) instead of
an arccosine. Of the package it reads only the AU sets in its data file.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from pathlib import Path

AU_TABLE = Path(__file__).resolve().parent.parent / "src" / "cogchess" / "data" / "au_table.json"
AROUSAL_WINDOW_MS = 60_000
AGITATION_WINDOW_MS = 2_000
REQUIRED_JOINTS = ("head", "left_wrist", "right_wrist", "left_elbow",
                   "right_elbow", "left_shoulder", "right_shoulder")
# the arm and shoulder bones whose angular speed is agitation
BONES = (("left_shoulder", "left_elbow"), ("left_elbow", "left_wrist"),
         ("right_shoulder", "right_elbow"), ("right_elbow", "right_wrist"),
         ("left_shoulder", "right_shoulder"))


def _mean(values: dict, aus) -> float:
    return sum(values.get(au, 0.0) for au in aus) / len(aus)


def _trailing_means(times: list, values: list, window_ms: int) -> list:
    """Per index j, the mean of values[i] over times[j] - window <= times[i]
    <= times[j]; `times` ascends."""
    out = []
    for t in times:
        lo, hi = bisect_left(times, t - window_ms), bisect_right(times, t)
        out.append(math.fsum(values[lo:hi]) / (hi - lo))
    return out


def au_series(facts) -> list:
    """(t_ms, valence, arousal_60s) per AU frame."""
    table = json.loads(AU_TABLE.read_text())
    times = [t for t, _ in facts.au]
    arousal = _trailing_means(
        times, [_mean(v, table["arousal"]) for _, v in facts.au], AROUSAL_WINDOW_MS)
    valence = [_mean(v, table["positive"]) - _mean(v, table["negative"])
               for _, v in facts.au]
    return list(zip(times, valence, arousal))


def _turn(u, v) -> float:
    cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
    return math.atan2(math.hypot(*cross), sum(a * b for a, b in zip(u, v)))


def _bone(joints, a, b):
    return tuple(q - p for p, q in zip(joints[a], joints[b]))


def _volume(joints) -> float:
    return math.prod(max(p[i] for p in joints.values()) - min(p[i] for p in joints.values())
                     for i in range(3))


def skeleton_series(facts) -> list:
    """(t_ms, body_volume, agitation or None) per complete skeleton frame.

    Agitation is the mean, over consecutive complete frames both inside
    the trailing 2 s window, of the summed angular speed of the bones."""
    frames = [(t, j) for t, j in facts.skeleton if all(n in j for n in REQUIRED_JOINTS)]
    times = [t for t, _ in frames]
    speeds = [sum(_turn(_bone(j0, a, b), _bone(j1, a, b)) for a, b in BONES)
              / ((t1 - t0) / 1000.0)
              for (t0, j0), (t1, j1) in zip(frames, frames[1:])]
    out = []
    for j, (t, joints) in enumerate(frames):
        i = bisect_left(times, t - AGITATION_WINDOW_MS)
        agitation = math.fsum(speeds[i:j]) / (j - i) if j > i else None
        out.append((t, _volume(joints), agitation))
    return out
