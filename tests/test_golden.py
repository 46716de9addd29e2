"""Desk-40 golden regression: verdicts, node counts and trace bytes.

`data/desk40_golden.tsv` holds one row per ask: each desk-40 puzzle at
its stated depth, then each mate-in-2 and mate-in-3 asked one move short
(which must come back unsolved). Every ask is solved through
`cogchess solve` with the CLI defaults, and its verdict, node count and
the SHA-256 of its trace JSONL must match the file byte for byte.
`data/desk40_catalog_golden.tsv` pins the stated-depth asks solved with
`--catalog` set to the sample catalog, whose patterns carry relation
constraints. A change that is meant to alter search behaviour
regenerates both files with

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
CATALOG_GOLDEN = DATA / "desk40_catalog_golden.tsv"
SAMPLE_CATALOG = (Path(__file__).parent.parent / "src" / "cogchess" / "data"
                  / "catalog_sample.json")
COLUMNS = ("id", "mate_in", "verdict", "nodes", "trace_sha256")
SEED = "0"


def _asks() -> tuple:
    """(stated-depth puzzles, one-move-short puzzles) as JSONL texts."""
    puzzles = [json.loads(line) for line in PUZZLES.read_text().splitlines()
               if line.strip()]
    short = [dict(p, mate_in=p["mate_in"] - 1) for p in puzzles if p["mate_in"] >= 2]
    return tuple("".join(json.dumps(p) + "\n" for p in group)
                 for group in (puzzles, short))


def golden_rows(workdir: Path, asks=None, extra=()) -> list:
    """Rows for `asks` (default: every ask), solved with `extra` CLI flags."""
    rows = []
    for i, text in enumerate(_asks() if asks is None else asks):
        puzzles = workdir / f"asks{i}.jsonl"
        puzzles.write_text(text)
        out = workdir / f"out{i}"
        assert main(["solve", "--puzzles", str(puzzles), "--seed", SEED,
                     "--out", str(out), *extra]) == 0
        mate_in = {json.loads(line)["id"]: json.loads(line)["mate_in"]
                   for line in text.splitlines()}
        for line in (out / "verdicts.tsv").read_text().splitlines()[1:]:
            pid, verdict, _, nodes, _ = line.split("\t")
            trace = (out / "traces" / f"{pid}.trace.jsonl").read_bytes()
            rows.append((pid, str(mate_in[pid]), verdict, nodes,
                         hashlib.sha256(trace).hexdigest()))
    return rows


def catalog_rows(workdir: Path) -> list:
    return golden_rows(workdir, _asks()[:1], ("--catalog", str(SAMPLE_CATALOG)))


def _render(rows) -> str:
    return "".join("\t".join(r) + "\n" for r in [COLUMNS] + rows)


def _assert_matches(rows, golden: Path, n_rows: int) -> None:
    got = _render(rows).splitlines()
    want = golden.read_text().splitlines()
    assert got[0] == want[0]
    diff = [(w, g) for w, g in zip(want[1:], got[1:]) if w != g]
    assert not diff, f"{len(diff)} asks differ, first: {diff[0]}"
    assert len(got) == len(want) == n_rows + 1


def test_desk40_matches_golden(tmp_path):
    _assert_matches(golden_rows(tmp_path), GOLDEN, 60)


def test_desk40_with_sample_catalog_matches_golden(tmp_path):
    _assert_matches(catalog_rows(tmp_path), CATALOG_GOLDEN, 40)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    for golden, rows in ((GOLDEN, golden_rows), (CATALOG_GOLDEN, catalog_rows)):
        with tempfile.TemporaryDirectory() as tmp:
            golden.write_text(_render(rows(Path(tmp))))
        print(f"wrote {golden}")
