"""Build script for the optional compiled move-generation kernel.

The kernel is one hand-written C file, `src/cogchess/_movegen.c`, on the
CPython C API: the same algorithm as the pure-Python `_movegen_py.py`,
built from the tracked file with a C compiler alone. The package works
without it (the pure-Python kernel is selected at import time), so a
missing compiler never breaks the install. Set COGCHESS_PURE=1 to skip
the extension build entirely.
"""

import os

from setuptools import Extension, setup


def extensions():
    if os.environ.get("COGCHESS_PURE") == "1":
        return []
    return [Extension("cogchess._movegen", ["src/cogchess/_movegen.c"],
                      optional=True)]


setup(ext_modules=extensions())
