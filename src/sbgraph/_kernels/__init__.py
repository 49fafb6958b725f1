"""Kernel backend selection.

The three hot traversal kernels exist twice: a compiled extension
(`_ckern`, built from the hand-written `_ckern.c`) and a pure-Python
fallback (`pure`), with the same contracts and traversal order.
`scc_ids` and `bcc` walk the vertex list `sub` they are given, and a
whole-graph call passes range(n): `scc_ids` returns (count, classes),
each class a sorted vertex tuple and the classes ordered by least
member, and `bcc` the blocks as sorted tuples.  `biconnected` walks the
vertices not in the mask `gone` with the search of `bcc`, stopped at
the first block it closes.
The compiled backend is preferred when importable; set SBGRAPH_KERNELS=pure
or SBGRAPH_KERNELS=c to force a choice (forcing an unavailable backend is
an error, not a silent downgrade).  That variable is the one process-wide
switch; `use_backend` switches for the body of a with-statement only.
"""

import contextlib
import os

from . import pure

_BACKENDS = {"pure": pure}
try:
    from . import _ckern

    _BACKENDS["c"] = _ckern
except ImportError:
    _ckern = None

_env = os.environ.get("SBGRAPH_KERNELS", "").strip().lower()
if _env:
    if _env not in _BACKENDS:
        raise RuntimeError(
            f"SBGRAPH_KERNELS={_env!r} requested, but only "
            f"{sorted(_BACKENDS)} are available"
        )
    _active = _BACKENDS[_env]
else:
    _active = _BACKENDS.get("c", pure)


def backend_name():
    """Name of the active backend: 'c' or 'pure'."""
    for name, mod in _BACKENDS.items():
        if mod is _active:
            return name
    raise AssertionError("active backend not registered")


def available_backends():
    return sorted(_BACKENDS)


@contextlib.contextmanager
def use_backend(name):
    """Switch the active backend for the body of a with-statement (not
    thread-safe; meant for benchmarks and tests)."""
    global _active
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; available: {sorted(_BACKENDS)}"
        )
    previous, _active = _active, _BACKENDS[name]
    try:
        yield
    finally:
        _active = previous


def scc_ids(n, adj, sub):
    return _active.scc_ids(n, adj, sub)


def bcc(n, adj, sub):
    return _active.bcc(n, adj, sub)


def biconnected(n, adj, gone):
    return _active.biconnected(n, adj, gone)
