import importlib.machinery
import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys
import sysconfig
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sbgraph as sg  # noqa: E402
from sbgraph import _kernels  # noqa: E402

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Why the `c` backend is unavailable: the host cannot build it (skip), or
# it can but the build failed (fail).  Both stay None once it is registered.
_skip_reason = None
_build_error = None
_build_dir = None


def _missing_toolchain():
    """What the host lacks to build the extension, or None."""
    compiler = (
        os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    ).split()[0]
    if shutil.which(compiler) is None:
        return f"no C compiler ({compiler!r} not found)"
    headers = pathlib.Path(sysconfig.get_paths()["include"]) / "Python.h"
    if not headers.exists():
        return f"no Python headers ({headers} not found)"
    return None


def _build_compiled_kernels():
    """Build `_ckern.c` into a temporary directory and register it as the
    `c` backend; returns the build log if that failed, or None.
    SBGRAPH_PURE is dropped from the build's environment: it opts an
    install out of the extension, not the tests."""
    global _build_dir
    _build_dir = tempfile.mkdtemp(prefix="sbgraph-ckern-")
    env = {k: v for k, v in os.environ.items() if k != "SBGRAPH_PURE"}
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", _build_dir,
         "--build-temp", os.path.join(_build_dir, "temp")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    kernels = pathlib.Path(_build_dir, "sbgraph", "_kernels")
    built = [
        kernels / ("_ckern" + suffix)
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
        if (kernels / ("_ckern" + suffix)).exists()
    ]
    if not built:
        return f"building _ckern.c failed:\n{proc.stdout}{proc.stderr}"
    name = "sbgraph._kernels._ckern"
    spec = importlib.util.spec_from_file_location(name, built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    _kernels._ckern = module
    _kernels._BACKENDS["c"] = module
    return None


def pytest_configure(config):
    """Make the `c` backend available whenever the host can build it.  The
    active backend stays the one `_kernels` chose at import."""
    global _skip_reason, _build_error
    config.addinivalue_line(
        "markers", "needs_compiled: needs the compiled `c` kernel backend"
    )
    if "c" not in _kernels.available_backends():
        _skip_reason = _missing_toolchain()
        if _skip_reason is None:
            _build_error = _build_compiled_kernels()


def pytest_unconfigure(config):
    if _build_dir is not None:
        shutil.rmtree(_build_dir, ignore_errors=True)


def pytest_runtest_setup(item):
    """Skip a `needs_compiled` test on a host that cannot build the
    extension; where it can but the build failed, fail with the log."""
    if item.get_closest_marker("needs_compiled"):
        if _skip_reason:
            pytest.skip(f"compiled kernels not built: {_skip_reason}")
        if _build_error:
            pytest.fail(_build_error)


def fixture_path(name):
    return FIXTURES / name


def load_fixture(name):
    return sg.parse_edge_list(fixture_path(name).read_text())


@pytest.fixture(scope="session")
def fig1():
    return load_fixture("fig1.edges")


@pytest.fixture(scope="session")
def fig2():
    return load_fixture("fig2.edges")


@pytest.fixture(scope="session")
def fig1_path():
    return str(fixture_path("fig1.edges"))


@pytest.fixture(scope="session")
def fig2_path():
    return str(fixture_path("fig2.edges"))
