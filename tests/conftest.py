import os
import pathlib
import shutil
import sys
import sysconfig
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sbgraph as sg  # noqa: E402
from sbgraph import _kernels  # noqa: E402
from sbgraph._kernels._build import build_compiled  # noqa: E402

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


def pytest_configure(config):
    """Make the `c` backend available whenever the host can build it: build
    `_ckern.c` into a temporary directory and register it.  The active
    backend stays the one `_kernels` chose at import."""
    global _skip_reason, _build_error, _build_dir
    config.addinivalue_line(
        "markers", "needs_compiled: needs the compiled `c` kernel backend"
    )
    if "c" not in _kernels.available_backends():
        _skip_reason = _missing_toolchain()
        if _skip_reason is None:
            _build_dir = tempfile.mkdtemp(prefix="sbgraph-ckern-")
            proc = build_compiled(ROOT, _build_dir)
            if proc is not None:
                _build_error = (
                    f"building _ckern.c failed:\n{proc.stdout}{proc.stderr}"
                )


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
