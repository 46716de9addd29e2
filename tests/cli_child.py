"""Run the cogchess CLI in a fresh interpreter, for cross-process byte checks.

The child gets a minimal environment so that stray variables cannot leak
into its outputs: PATH, its own PYTHONHASHSEED, PYTHONPATH pointing at the
directory that holds the `cogchess` package this process imported, and
COGCHESS_PURE when it is set here. The child therefore runs the same
program on the same kernel, whether the suite runs installed or from
`src/` uninstalled. It reports the package file and kernel it loaded, and
`run_child` asserts that both match this process before any output is
compared.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cogchess
from cogchess.board import KERNEL

PACKAGE_FILE = Path(cogchess.__file__).resolve()

_SCRIPT = (
    "import json, sys\n"
    "import cogchess\n"
    "from cogchess.board import KERNEL\n"
    "from cogchess.cli import main\n"
    "print(json.dumps({'file': cogchess.__file__, 'kernel': KERNEL}), flush=True)\n"
    "sys.exit(main(json.loads(sys.argv[1])))\n"
)


def _child_env(hashseed):
    env = {"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": hashseed,
           "PYTHONPATH": str(PACKAGE_FILE.parent.parent)}
    if "COGCHESS_PURE" in os.environ:
        env["COGCHESS_PURE"] = os.environ["COGCHESS_PURE"]
    return env


def run_child(args, hashseed, cwd=None):
    """Run `cogchess <args>` in a child process from `cwd`, and return its
    (exit code, stdout, stderr) after checking that it loaded the same
    package file and kernel as this process."""
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(args)], cwd=cwd,
        capture_output=True, text=True, env=_child_env(hashseed))
    header, _, stdout = proc.stdout.partition("\n")
    assert header, proc.stderr  # the child ended before it could report
    loaded = json.loads(header)
    assert Path(loaded["file"]).resolve() == PACKAGE_FILE, (
        f"child imported {loaded['file']}, parent imported {PACKAGE_FILE}")
    assert loaded["kernel"] == KERNEL, (
        f"child ran the {loaded['kernel']} kernel, parent the {KERNEL} kernel")
    return proc.returncode, stdout, proc.stderr


def run_cli(args, hashseed):
    """Run `cogchess <args>` in a child process as `run_child` does; fail
    unless it exits 0."""
    code, _, stderr = run_child(args, hashseed)
    assert code == 0, stderr
