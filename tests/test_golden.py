"""Desk-40 golden regression: verdicts, node counts and trace bytes.

`data/desk40_golden.tsv` holds one row per ask: each desk-40 puzzle at
its stated depth, then each mate-in-2 and mate-in-3 asked one move short
(which must come back unsolved). Every ask is solved through
`cogchess solve` with the CLI defaults, and its verdict, node count and
the SHA-256 of its trace JSONL must match the file byte for byte. A
change that is meant to alter search behaviour regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from cogchess.cli import main

DATA = Path(__file__).parent / "data"
PUZZLES = DATA / "puzzles_desk40.jsonl"
GOLDEN = DATA / "desk40_golden.tsv"
COLUMNS = ("id", "mate_in", "verdict", "nodes", "trace_sha256")
SEED = "0"


def _asks() -> tuple:
    """(stated-depth puzzles, one-move-short puzzles) as JSONL texts."""
    puzzles = [json.loads(line) for line in PUZZLES.read_text().splitlines()
               if line.strip()]
    short = [dict(p, mate_in=p["mate_in"] - 1) for p in puzzles if p["mate_in"] >= 2]
    return tuple("".join(json.dumps(p) + "\n" for p in group)
                 for group in (puzzles, short))


def golden_rows(workdir: Path) -> list:
    rows = []
    for i, text in enumerate(_asks()):
        puzzles = workdir / f"asks{i}.jsonl"
        puzzles.write_text(text)
        out = workdir / f"out{i}"
        assert main(["solve", "--puzzles", str(puzzles), "--seed", SEED,
                     "--out", str(out)]) == 0
        mate_in = {json.loads(line)["id"]: json.loads(line)["mate_in"]
                   for line in text.splitlines()}
        for line in (out / "verdicts.tsv").read_text().splitlines()[1:]:
            pid, verdict, _, nodes, _ = line.split("\t")
            trace = (out / "traces" / f"{pid}.trace.jsonl").read_bytes()
            rows.append((pid, str(mate_in[pid]), verdict, nodes,
                         hashlib.sha256(trace).hexdigest()))
    return rows


def _render(rows) -> str:
    return "".join("\t".join(r) + "\n" for r in [COLUMNS] + rows)


def test_desk40_matches_golden(tmp_path):
    got = _render(golden_rows(tmp_path)).splitlines()
    want = GOLDEN.read_text().splitlines()
    assert got[0] == want[0]
    diff = [(w, g) for w, g in zip(want[1:], got[1:]) if w != g]
    assert not diff, f"{len(diff)} asks differ, first: {diff[0]}"
    assert len(got) == len(want) == 61


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(_render(golden_rows(Path(tmp))))
    print(f"wrote {GOLDEN}")
