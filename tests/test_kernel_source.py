"""The tracked `_movegen.c` and its source `_movegen.pyx` change together.

Without Cython the build compiles the tracked `_movegen.c`, so an edit to
`_movegen.pyx` that is not regenerated into the `.c` would ship a stale
kernel, and an edit to the `.c` alone would ship one the `.pyx` does not
describe. Both hashes are pinned here as a pair: after editing the
`.pyx`, regenerate the `.c` with Cython 3 (`cython src/cogchess/_movegen.pyx`;
the directives sit in the `.pyx` header), run the kernel parity test on
the compiled kernel, and update both hashes with

    python tests/test_kernel_source.py --print
"""

import hashlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cogchess"
PINNED = {
    "_movegen.pyx": "d2c8b3c17d8e20d6a5df9ba6dfb9ed18b61a2095c12e6d367b880ac5bd14ff53",
    "_movegen.c": "cecb61840272bfc3686c740f613a165d0900f931ecf1a224588d344778afe11b",
}


def kernel_hashes() -> dict:
    return {name: hashlib.sha256((SRC / name).read_bytes()).hexdigest()
            for name in PINNED}


def test_kernel_sources_pinned_together():
    assert kernel_hashes() == PINNED


if __name__ == "__main__":
    if sys.argv[1:] != ["--print"]:
        sys.exit("usage: test_kernel_source.py --print")
    for name, digest in kernel_hashes().items():
        print(f'    "{name}": "{digest}",')
