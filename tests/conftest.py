import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import json  # noqa: E402

import pytest  # noqa: E402

from cogchess.ingest import RecordingSession, serialize_recording  # noqa: E402
from fixtures_affect import emotion_change_stream, touch_stream  # noqa: E402

# The small inputs that the CLI tests of more than one module run on.


@pytest.fixture()
def puzzle_file(tmp_path):
    puzzles = [
        {"id": "bk-1", "fen": "6k1/5ppp/8/8/8/8/8/4R2K w - - 0 1",
         "mate_in": 1, "time_limit_s": 120},
        {"id": "bat-2", "fen": "r5k1/5ppp/8/8/8/4Q3/7K/4R3 w - - 0 1",
         "mate_in": 2, "time_limit_s": 120},
    ]
    path = tmp_path / "puzzles.jsonl"
    path.write_text("".join(json.dumps(p) + "\n" for p in puzzles))
    return path


@pytest.fixture()
def recording_file(tmp_path):
    session = RecordingSession(subject_id="s01")
    session.au_stream = emotion_change_stream(10, t0_ms=0)
    session.skeleton_stream = touch_stream(12, t0_ms=0)
    end = max(session.au_stream[-1].t_ms, session.skeleton_stream[-1].t_ms) + 50
    session.markers = [(0, "task_start", 9), (end, "task_end", 9)]
    path = tmp_path / "session.rec"
    path.write_text(serialize_recording(session))
    return path
