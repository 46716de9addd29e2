"""Analyzer golden regression: the SHA-256 of every `cogchess analyze` TSV.

The recording comes from `genrecording.make_recording(SEED)`: 75 s at
30 Hz, past the 60 s arousal window, with partial frames, degenerate
bones, duplicate timestamps, a skeleton gap, out-of-order streams and bad
lines. The four series and statistics files must match the hashes below
byte for byte. A change that is meant to alter the analyzer's output
prints new hashes with

    PYTHONPATH=src python tests/test_analyze_golden.py --print
"""

import hashlib
import sys
from pathlib import Path

from cogchess.cli import main
from genrecording import make_recording

SEED = 2024
GOLDEN = {
    "task_stats.tsv":
        "552a8adc8e631eb494386491bd0590b95e175ac4b8de70544df3a04166a55f44",
    "au_series.tsv":
        "1218977bff16b034d693035f551203d164fa4e241227dac6e381988953c0dc97",
    "skeleton_series.tsv":
        "5b0634f38cb445b91908b37d0c3b8bff4fac87c29c4ff56e2ee519df82eb9da5",
    "touch_events.tsv":
        "adbb8ab7e149cf7fc9c1a11d3c298e451e6f4934e40996a520cf567faa02b26f",
}


def analyze_hashes(workdir: Path) -> dict:
    rec = workdir / "golden.rec"
    rec.write_text(make_recording(SEED))
    out = workdir / "out"
    assert main(["analyze", "--recording", str(rec), "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN}


def test_analyze_matches_golden(tmp_path):
    assert analyze_hashes(tmp_path) == GOLDEN


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--print"]:
        sys.exit("usage: test_analyze_golden.py --print")
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in analyze_hashes(Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
