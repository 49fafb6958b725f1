"""Build script: compiles the traversal kernels.

The compiled backend is one hand-written C file, `_ckern.c`, built as an
optional extension: a host without a C compiler or without the Python
headers skips it with a warning.  The package works without the extension
(the pure-Python backend is selected at import time, and
SBGRAPH_KERNELS=pure selects it at runtime where the extension is built).
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "sbgraph._kernels._ckern",
            ["src/sbgraph/_kernels/_ckern.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
