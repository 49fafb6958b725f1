"""Build the compiled backend from a checkout's `_ckern.c`, in place of an
install that lacks it.

The tier-1 tests and the scale harness both need the `c` backend where
the package was not built with it.  `build_compiled` compiles `_ckern.c`
with the checkout's `setup.py build_ext` into a directory of the
caller's, loads the module it writes and registers it as the `c`
backend; the active backend stays the one `_kernels` chose at import.
"""

import importlib.machinery
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from .. import _kernels


def build_compiled(root, workdir):
    """Build `_ckern.c` of the checkout at `root` into `workdir` and
    register it as the `c` backend.  Returns None, or the finished
    `setup.py` process when it wrote no module."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", workdir,
         "--build-temp", os.path.join(workdir, "temp")],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    folder = Path(workdir, "sbgraph", "_kernels")
    built = [
        folder / f"_ckern{suffix}"
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
        if (folder / f"_ckern{suffix}").exists()
    ]
    if not built:
        return proc
    name = "sbgraph._kernels._ckern"
    spec = importlib.util.spec_from_file_location(name, built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    _kernels._ckern = module
    _kernels._BACKENDS["c"] = module
    return None
