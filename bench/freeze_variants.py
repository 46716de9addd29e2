"""Regenerate `motif_variants.txt`, the frozen input of the `guidance` workload.

    python3 bench/freeze_variants.py

Rebuilds the motif family with `tests/motifs.variant_pool()` (about 90 s
on the pure-Python kernel) and writes one FEN per line, in pool order.
The list is frozen so that a benchmark run does not pay for this build.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "motif_variants.txt"


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import motifs

    _, pool = motifs.variant_pool()
    OUT.write_text("".join(fen + "\n" for fen, _ in pool))
    print(f"{len(pool)} variants -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
