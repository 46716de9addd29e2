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

which prints, for each file, every ask whose row it changed and the
columns that changed, as a failing test does.
"""

import hashlib
import itertools
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


def _differences(rows, golden: Path) -> list:
    """One line for each ask whose row differs from `golden`'s: its id and
    depth, then the columns that changed, or that the row was added or
    dropped."""
    want = [tuple(line.split("\t")) for line in golden.read_text().splitlines()[1:]]
    out = []
    for w, g in itertools.zip_longest(want, rows):
        if w == g:
            continue
        if w is None or g is None:
            row, change = (g, "added") if w is None else (w, "dropped")
        else:
            row, change = g, " ".join(c for c, a, b in zip(COLUMNS, w, g) if a != b)
        out.append(f"{row[0]} mate_in {row[1]}: {change}")
    return out


def _summary(differences, golden: Path) -> str:
    return "".join([f"{golden.name}: {len(differences)} asks differ"]
                   + [f"\n  {d}" for d in differences])


def _assert_matches(rows, golden: Path, n_rows: int) -> None:
    assert golden.read_text().splitlines()[0] == "\t".join(COLUMNS)
    differences = _differences(rows, golden)
    assert not differences, _summary(differences, golden)
    assert len(rows) == n_rows


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
            new = rows(Path(tmp))
        differences = _differences(new, golden)
        golden.write_text(_render(new))
        print(f"wrote {golden}")
        print(_summary(differences, golden))
