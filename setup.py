"""Build script: compiles the traversal kernels.

The extension is cythonized from `_ckern.pyx` when Cython is available;
otherwise the committed generated `_ckern.c` is compiled as it is, and a
host without a C compiler skips it with a warning.  The package works
without the extension (the pure-Python backend is selected at import
time).  Set SBGRAPH_PURE=1 to skip the extension on purpose.
"""

import os

from setuptools import Extension, setup

KERNELS = "src/sbgraph/_kernels/_ckern"

ext_modules = []
if not os.environ.get("SBGRAPH_PURE"):
    try:
        from Cython.Build import cythonize
    except ImportError:
        cythonize = None
    if cythonize is not None:
        ext_modules = cythonize(
            [
                Extension(
                    "sbgraph._kernels._ckern",
                    [KERNELS + ".pyx"],
                    extra_compile_args=["-O2"],
                )
            ],
            compiler_directives={"language_level": "3"},
        )
    elif os.path.exists(KERNELS + ".c"):
        ext_modules = [
            Extension(
                "sbgraph._kernels._ckern",
                [KERNELS + ".c"],
                extra_compile_args=["-O2"],
                optional=True,
            )
        ]

setup(ext_modules=ext_modules)
