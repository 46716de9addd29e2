"""Build script for the optional compiled move-generation kernel.

The package works without the extension (a pure-Python kernel is selected
at import time), so a missing compiler or Cython never breaks the install.
With Cython the kernel is compiled from `_movegen.pyx`; without it, from
the generated `_movegen.c` that ships in the source tree, so the build
needs no download. Set COGCHESS_PURE=1 to skip the extension build
entirely.
"""

import os

from setuptools import Extension, setup


def extensions():
    if os.environ.get("COGCHESS_PURE") == "1":
        return []
    try:
        from Cython.Build import cythonize
    except ImportError:
        return [Extension("cogchess._movegen", ["src/cogchess/_movegen.c"],
                          optional=True)]
    return cythonize(
        [Extension("cogchess._movegen", ["src/cogchess/_movegen.pyx"])],
        compiler_directives={
            "language_level": 3,
            "boundscheck": False,
            "wraparound": False,
        },
    )


setup(ext_modules=extensions())
