"""Span recorder for the traced run.

`tracing(recorder)` wraps sbgraph's public functions (plus the two
per-deletion probe helpers of `connectivity`) and rebinds every sbgraph
module attribute that refers to one of them, so `blocks.remove_edge` and
`checks.remove_edge` are both traced although they are separate bindings
of `graph.remove_edge`.  Every wrapper is put back when the block exits.

Spans live in flat arrays while the run lasts and are written out once at
the end.  A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array

# (module, attribute) of every traced callable.  Span names are
# "<module>.<attr>" without the "sbgraph." prefix or a leading underscore,
# so the first component names the layer.
TARGETS = (
    ("sbgraph._kernels", "scc_ids"),
    ("sbgraph._kernels", "bcc"),
    ("sbgraph.graph", "remove_edge"),
    ("sbgraph.graph", "remove_vertex"),
    ("sbgraph.graph", "induced_subgraph"),
    ("sbgraph.graph", "underlying"),
    ("sbgraph.connectivity", "is_strongly_connected"),
    ("sbgraph.connectivity", "is_biconnected"),
    ("sbgraph.connectivity", "is_strongly_biconnected"),
    ("sbgraph.connectivity", "strongly_connected_components"),
    ("sbgraph.connectivity", "undirected_blocks"),
    ("sbgraph.connectivity", "_strongly_biconnected_subset"),
    ("sbgraph.connectivity", "_strongly_biconnected_minus_arc"),
    ("sbgraph.sbc", "strongly_biconnected_components"),
    ("sbgraph.sbc", "sbc_oracle"),
    ("sbgraph.resilience", "b_bridges"),
    ("sbgraph.resilience", "b_articulation_points"),
    ("sbgraph.blocks", "two_edge_biconnected_blocks"),
    ("sbgraph.blocks", "two_strong_biconnected_blocks"),
    ("sbgraph.blocks", "two_edge_blocks"),
    ("sbgraph.blocks", "two_strong_blocks"),
    ("sbgraph.blocks", "oracle_two_edge_biconnected_blocks"),
    ("sbgraph.report", "analyze"),
    ("sbgraph.report", "render_report"),
    ("sbgraph.edgelist", "parse_edge_list"),
    ("sbgraph.generate", "gen_random_sb"),
    ("sbgraph.generate", "SplitMix64.floats"),
    ("sbgraph.checks", "oracle_check"),
)

# The span the benchmark opens around each op; it belongs to no layer.
OP = "op"
KERNELS = ("kernels.scc_ids", "kernels.bcc")
FAMILIES = (
    "two_edge_biconnected_blocks",
    "two_strong_biconnected_blocks",
    "two_edge_blocks",
    "two_strong_blocks",
)


def _vertices_in(args, kwargs):
    sub = args[2] if len(args) > 2 else kwargs.get("sub")
    n = args[0] if args else kwargs["n"]
    return n if sub is None else len(sub)


# Per-span numbers kept beside the timing, keyed by span name.
NOTES = {
    "kernels.scc_ids": lambda a, k, r: (_vertices_in(a, k), r[0]),
    "kernels.bcc": lambda a, k, r: (_vertices_in(a, k), 0),
    "resilience.b_bridges": lambda a, k, r: (len(r), 0),
    "resilience.b_articulation_points": lambda a, k, r: (len(r), 0),
}


class Recorder:
    """Spans of one traced run: name, start, end, parent and two notes."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.note_a = array("q")
        self.note_b = array("q")
        self._open = [-1]

    def __len__(self):
        return len(self.name)

    def open(self, name):
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(ident)
        self.parent.append(self._open[-1])
        self.note_a.append(0)
        self.note_b.append(0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def write(self, path):
        """Write every span: a JSON header naming the columns, then one
        line of integers per span (times in microseconds from the first
        span's start)."""
        t0 = self.start[0] if len(self) else 0.0
        header = {
            "names": self.names,
            "columns": ["name", "parent", "start_us", "end_us"],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            out.writelines(
                f"{self.name[i]} {self.parent[i]} "
                f"{round((self.start[i] - t0) * 1e6)} "
                f"{round((self.end[i] - t0) * 1e6)}\n"
                for i in range(len(self))
            )


def self_times(start, end, parent):
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span itself.

    Spans must be indexed in the order they opened, so a parent precedes
    its children and siblings come in order of their start.
    """
    covered = [0.0] * len(start)
    reach = list(start)
    for idx, p in enumerate(parent):
        if p < 0:
            continue
        a, b = max(start[idx], reach[p]), min(end[idx], end[p])
        if b > a:
            covered[p] += b - a
            reach[p] = b
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def _wrapper(recorder, name, fn):
    note = NOTES.get(name)

    def traced(*args, **kwargs):
        idx = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if note is not None:
            recorder.note_a[idx], recorder.note_b[idx] = note(args, kwargs, result)
        return result

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    traced.perfbench_original = fn
    return traced


def _sbgraph_modules():
    return [
        mod
        for modname, mod in sorted(sys.modules.items())
        if mod is not None
        and (modname == "sbgraph" or modname.startswith("sbgraph."))
    ]


@contextlib.contextmanager
def tracing(recorder):
    """Trace every target present in the loaded sbgraph modules.

    Yields the list of targets that were not found (a later version of the
    library may have removed them); their metrics read as zero.
    """
    modules = _sbgraph_modules()
    undo = []
    missing = []
    try:
        for modname, attr in TARGETS:
            name = f"{modname.removeprefix('sbgraph.').lstrip('_')}.{attr}"
            owner = sys.modules.get(modname)
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                fn = getattr(cls, meth, None)
                if fn is None:
                    missing.append(name)
                    continue
                undo.append((cls, meth, fn))
                setattr(cls, meth, _wrapper(recorder, name, fn))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(name)
                continue
            traced = _wrapper(recorder, name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, key, fn))
                        setattr(mod, key, traced)
        yield missing
    finally:
        for owner, key, fn in reversed(undo):
            setattr(owner, key, fn)


def leftover_wrappers():
    """(module or class, attribute) pairs still bound to a wrapper."""
    found = []
    for mod in _sbgraph_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "perfbench_original"):
                found.append((mod.__name__, key))
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if hasattr(fn, "perfbench_original"):
                        found.append((f"{mod.__name__}.{key}", meth))
    return found


def layer_metrics(recorder, ops):
    """Per-op means of every per-layer metric from one traced run of
    `ops` ops."""
    names = recorder.names
    name = recorder.name
    parent = recorder.parent
    start, end = recorder.start, recorder.end
    selfs = self_times(start, end, parent)
    count = len(name)
    kernel_ids = {names.index(k) for k in KERNELS if k in names}
    scc_id = names.index("kernels.scc_ids") if "kernels.scc_ids" in names else -1

    # Kernel calls (and separating SCC probes) in each span's subtree.
    # Children are always opened after their parent, so one backward pass
    # over the span index accumulates every subtree.
    probes = [0] * count
    scc_calls = [0] * count
    splits = [0] * count
    for idx in range(count - 1, -1, -1):
        if name[idx] in kernel_ids:
            probes[idx] += 1
        if name[idx] == scc_id:
            scc_calls[idx] += 1
            splits[idx] += recorder.note_b[idx] > 1
        p = parent[idx]
        if p >= 0:
            probes[p] += probes[idx]
            scc_calls[p] += scc_calls[idx]
            splits[p] += splits[idx]

    calls, total, own, sub_probes, sub_scc, sub_splits, note_a = (
        {} for _ in range(7)
    )
    for idx in range(count):
        key = names[name[idx]]
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + end[idx] - start[idx]
        own[key] = own.get(key, 0.0) + selfs[idx]
        sub_probes[key] = sub_probes.get(key, 0) + probes[idx]
        sub_scc[key] = sub_scc.get(key, 0) + scc_calls[idx]
        sub_splits[key] = sub_splits.get(key, 0) + splits[idx]
        note_a[key] = note_a.get(key, 0) + recorder.note_a[idx]

    def per_op(table, key):
        return table.get(key, 0) / ops

    def module_self(module):
        return sum(v for k, v in own.items() if k.split(".")[0] == module) / ops

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "kernels.scc_ids.calls": per_op(calls, "kernels.scc_ids"),
        "kernels.scc_ids.s": per_op(total, "kernels.scc_ids"),
        "kernels.bcc.calls": per_op(calls, "kernels.bcc"),
        "kernels.bcc.s": per_op(total, "kernels.bcc"),
        "kernels.vertices_in": sum(note_a.get(k, 0) for k in KERNELS) / ops,
    }
    copies = ("remove_edge", "remove_vertex", "induced_subgraph", "underlying")
    for fn in copies:
        m[f"graph.{fn}.calls"] = per_op(calls, f"graph.{fn}")
    m["graph.copy_s"] = sum(per_op(total, f"graph.{fn}") for fn in copies)
    m["connectivity.is_strongly_biconnected.calls"] = per_op(
        calls, "connectivity.is_strongly_biconnected"
    )
    m["connectivity.self_s"] = module_self("connectivity")
    m["sbc.strongly_biconnected_components.calls"] = per_op(
        calls, "sbc.strongly_biconnected_components"
    )
    m["sbc.self_s"] = module_self("sbc")
    m["sbc.sbc_oracle.s"] = per_op(total, "sbc.sbc_oracle")
    for fn in ("b_bridges", "b_articulation_points"):
        key = f"resilience.{fn}"
        m[f"{key}.s"] = per_op(total, key)
        m[f"{key}.probe_yield"] = ratio(note_a.get(key, 0), sub_probes.get(key, 0))
    for fn in FAMILIES:
        key = f"blocks.{fn}"
        m[f"{key}.s"] = per_op(total, key)
        m[f"{key}.self_s"] = per_op(own, key)
        m[f"{key}.probes"] = per_op(sub_probes, key)
    for fn in ("two_edge_blocks", "two_strong_blocks"):
        key = f"blocks.{fn}"
        m[f"{key}.probe_yield"] = ratio(sub_splits.get(key, 0), sub_scc.get(key, 0))
    m["blocks.oracle_two_edge_biconnected_blocks.s"] = per_op(
        total, "blocks.oracle_two_edge_biconnected_blocks"
    )
    m["report.analyze.self_s"] = per_op(own, "report.analyze")
    m["report.render_report.s"] = per_op(total, "report.render_report")
    m["edgelist.parse_edge_list.s"] = per_op(total, "edgelist.parse_edge_list")
    m["generate.gen_random_sb.s"] = per_op(total, "generate.gen_random_sb")
    m["generate.tries"] = per_op(calls, "generate.SplitMix64.floats")
    m["checks.oracle_check.s"] = per_op(total, "checks.oracle_check")
    m["checks.self_s"] = module_self("checks")
    op_total = total.get(OP, 0.0)
    layer_self = sum(v for k, v in own.items() if k != OP)
    m["trace.attributed_ratio"] = ratio(layer_self, op_total)
    return m


_COUNTS = ("calls", "probes", "vertices_in", "tries")
_SECONDS = ("s", "self_s", "copy_s")


def unit(metric):
    """Unit of a per-layer metric, from the last part of its name."""
    last = metric.rsplit(".", 1)[-1]
    return "count" if last in _COUNTS else "s" if last in _SECONDS else "ratio"
