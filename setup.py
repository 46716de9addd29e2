"""Build script for the optional compiled move-generation kernel.

The kernel is one hand-written C file, `src/cogchess/_movegen.c`, on the
CPython C API: the same algorithm as the pure-Python `_movegen_py.py`,
built from the tracked file with a C compiler alone. The extension is
optional: where it does not build (no compiler), the install goes on
without it, and `cogchess.board` selects the pure-Python kernel at import.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("cogchess._movegen", ["src/cogchess/_movegen.c"],
                             optional=True)])
