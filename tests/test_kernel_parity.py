"""The compiled and pure-Python kernels must return bit-identical results.

When `cogchess._movegen` is not importable, the tracked `_movegen.c` is
built with `setup.py build_ext` into a temporary directory (nothing is
written into the source tree) and loaded from there without entering
`sys.modules`, so every other test keeps the kernel it started with. The
tests skip only when that build fails.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cogchess import _movegen_py as pure
from sampling import playout_positions

ROOT = Path(__file__).resolve().parent.parent


def _build_kernel(out: Path):
    env = {k: v for k, v in os.environ.items() if k != "COGCHESS_PURE"}
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
         "--build-temp", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    built = sorted((out / "cogchess").glob("_movegen.*"))
    if proc.returncode != 0 or not built:
        pytest.skip(f"compiled kernel did not build: {proc.stderr.strip()}")
    spec = importlib.util.spec_from_file_location("cogchess._movegen", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a Cython module enters itself in sys.modules when it runs; undo that
    sys.modules.pop(spec.name, None)
    return module


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    try:
        from cogchess import _movegen
    except ImportError:
        return _build_kernel(tmp_path_factory.mktemp("kernel"))
    return _movegen


def _state(board):
    return (board._squares, board._stm, board.castling.mask, board._ep)


@pytest.mark.parametrize("seed", range(4))
def test_legal_moves_identical(compiled, seed):
    for b in playout_positions(8, seed=seed * 7 + 1):
        st = _state(b)
        assert compiled.legal_moves(*st) == pure.legal_moves(*st)


def test_apply_identical(compiled):
    for b in playout_positions(6, seed=41):
        st = _state(b)
        for mv in pure.legal_moves(*st):
            args = st + (b.halfmove_clock, b.fullmove_number) + mv
            assert compiled.apply_move(*args) == pure.apply_move(*args)


def test_perft_identical(compiled):
    for b in playout_positions(5, seed=43, min_plies=16, max_plies=60):
        st = _state(b)
        for depth in (1, 2, 3):
            assert compiled.perft(*st, depth) == pure.perft(*st, depth)


def test_attack_helpers_identical(compiled):
    for b in playout_positions(6, seed=47):
        st = _state(b)
        for i in range(64):
            assert compiled.attack_targets(st[0], i) == pure.attack_targets(st[0], i)
            for white in (True, False):
                assert compiled.attacked(st[0], i, white) == pure.attacked(st[0], i, white)
                assert compiled.attackers(st[0], i, white) == pure.attackers(st[0], i, white)


def test_in_check_identical(compiled):
    for b in playout_positions(8, seed=53):
        for white in (True, False):
            assert compiled.in_check(b._squares, white) == pure.in_check(b._squares, white)
