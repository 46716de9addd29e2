"""Motif-pool golden regression: the exploration ranking, pinned by traces.

`data/motif72_golden.tsv` holds one row per variant of the `motifs.py`
family, FEN included. Each row pins the verdict, node count and trace
SHA-256 of two solves of that FEN: a cold neutral solve with an empty
long-term memory, and an aggressive solve that shares one learning
long-term memory with every row before it (both with
`motifs.MOTIF_PROFILE`'s budget and `motifs._limits()`). The last row
pins the SHA-256 of that memory's final dump. The traces carry every
`ranking` event, so a change to how situations are enumerated, scored or
ordered shows here. A change that is meant to alter search behaviour
regenerates the file with

    PYTHONPATH=src python tests/test_motif_golden.py --write

which keeps the FENs already in the file (or builds them with
`motifs.variant_pool()` when there is no file yet).
"""

import hashlib
import sys
from pathlib import Path

from cogchess.board import parse_fen
from cogchess.memory import LongTermMemory
from cogchess.reasoner import PlayerProfile, solve
from motifs import MOTIF_PROFILE, _limits

GOLDEN = Path(__file__).parent / "data" / "motif72_golden.tsv"
COLUMNS = ("fen", "cold_verdict", "cold_nodes", "cold_trace_sha256",
           "learn_verdict", "learn_nodes", "learn_trace_sha256")
LTM_ROW = "final_ltm_sha256"
COLD_PROFILE = PlayerProfile("neutral", base_budget=MOTIF_PROFILE.base_budget)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cells(result) -> tuple:
    return (result.verdict, str(result.nodes), _sha(result.trace.to_jsonl()))


def golden_rows(fens) -> list:
    rows = []
    ltm = LongTermMemory()
    for i, fen in enumerate(fens):
        pid = f"motif-{i:02d}"
        cold = solve(parse_fen(fen), 2, COLD_PROFILE, ltm=LongTermMemory(),
                     limits=_limits(), seed=0, puzzle_id=pid)
        learn = solve(parse_fen(fen), 2, MOTIF_PROFILE, ltm=ltm,
                      limits=_limits(), seed=0, puzzle_id=pid)
        rows.append((fen,) + _cells(cold) + _cells(learn))
    rows.append((LTM_ROW, _sha(ltm.dump())))
    return rows


def _render(rows) -> str:
    return "".join("\t".join(r) + "\n" for r in [COLUMNS] + rows)


def _golden_fens() -> list:
    return [line.split("\t")[0] for line in GOLDEN.read_text().splitlines()[1:-1]]


def test_motif_pool_matches_golden():
    want = GOLDEN.read_text().splitlines()
    got = _render(golden_rows(_golden_fens())).splitlines()
    assert got[0] == want[0]
    diff = [(w, g) for w, g in zip(want[1:], got[1:]) if w != g]
    assert not diff, f"{len(diff)} rows differ, first: {diff[0]}"
    assert len(got) == len(want) == 74


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_motif_golden.py --write")
    if GOLDEN.exists():
        fens = _golden_fens()
    else:
        from motifs import variant_pool
        fens = [fen for fen, _ in variant_pool()[1]]
    GOLDEN.write_text(_render(golden_rows(fens)))
    print(f"wrote {GOLDEN}")
