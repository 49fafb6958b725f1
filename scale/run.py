"""Cold timings of sbgraph at scale, on every kernel backend.

    python3 scale/run.py --tag TAG                # n = 500, 1000 and 2000
    python3 scale/run.py --tag TAG --sizes 30 --out /tmp/somewhere

Writes BENCH_<TAG>.json (into the root of the checkout unless --out
names a directory).  This is a measuring tool, not a gate: it is not
part of the benchmark that BENCHMARK.json declares, and it checks no
bound.  Run it from any directory; it imports sbgraph from the `src`
directory of its own checkout.

Inputs are four shapes, built with the benchmark's own generator
(perfbench/gen.py, imported as it is), each at every size n:

- long: `gen.ear_graph` with seed 7, ears of 3-8 new vertices, 2.3n arcs;
- short: the same with ears of 1-2 new vertices and 4n arcs;
- twinned: the long shape, then the reverse of each arc added with
  probability 1/2 (`random.Random(11)`), the one shape whose root
  classes split;
- cycle: the directed cycle on n vertices.

For each input and backend it records the seconds of each stage, run
cold: every stage but the parse gets a graph freshly parsed from the
text, so no stage reads what another one kept in the graph's memo.  The
stages are the parse, the strong biconnectivity verdict, `cut_report`,
and every family of `sbgraph.report.FAMILIES` (so a family's time
includes the verdict and the cuts it needs).  Each stage runs at least
REPEATS times, and more until its runs add up to BUDGET_S seconds, with
at most MAX_REPEATS runs; each figure is the least of them, on whatever
host ran them (`machine` names it), and `repeats` gives the number of
runs next to it.  It records the sha256 of `emit_report` too, so a
BENCH file pins the report bytes, which must agree across backends.

The compiled backend is used when sbgraph can import it.  Otherwise it
is built from `_ckern.c` into a temporary directory, as the tier-1 tests
build it; a host that cannot build it records why under
`skipped_backends`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402  (perfbench/gen.py)
import sbgraph  # noqa: E402
from sbgraph import _kernels  # noqa: E402
from sbgraph._kernels._build import build_compiled  # noqa: E402
from sbgraph.report import FAMILIES  # noqa: E402

SIZES = (500, 1000, 2000)
# Cold runs per stage; the least is kept, as other tenants of a shared
# host slow single runs by up to half.  The least of three runs of a
# stage under 0.2 s is too noisy to tell a 1.3x ratio, so a short stage
# runs until its runs add up to BUDGET_S, at most MAX_REPEATS times.
REPEATS = 3
BUDGET_S = 0.5
MAX_REPEATS = 25
SHAPES = ("long", "short", "twinned", "cycle")


def arcs_of(shape, n):
    """The arcs of one input, in the order its text lists them."""
    if shape == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    ears, degree = ((1, 2), 4.0) if shape == "short" else ((3, 8), 2.3)
    arcs = gen.ear_graph(random.Random(7), n, round(degree * n), *ears)
    if shape == "twinned":
        present = set(arcs)
        coin = random.Random(11)
        arcs += [
            (v, u) for u, v in list(arcs)
            if coin.random() < 0.5 and (v, u) not in present
        ]
    return arcs


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiled_backend(workdir):
    """Make the `c` backend available; returns why it is not, or None."""
    if "c" in _kernels.available_backends():
        return None
    proc = build_compiled(ROOT, workdir)
    if proc is None:
        return None
    # setup.py marks the extension optional, so a failed compile can
    # still exit 0: the compiler's first error says more than the status.
    lines = [line.strip() for line in proc.stderr.splitlines() if line.strip()]
    detail = [line for line in lines if "error:" in line] or lines[-1:]
    reason = f"setup.py build_ext wrote no module (exit {proc.returncode})"
    return f"{reason}: {detail[0]}" if detail else reason


def stages():
    """(name, function of a fresh graph) for every stage after the parse."""
    yield "verdict", sbgraph.is_strongly_biconnected
    yield "cut_report", sbgraph.cut_report
    for family in FAMILIES:
        yield family.kind, family.compute


def cold(stage, text):
    """Seconds of one run of stage on a graph freshly parsed from text,
    or of the parse itself when stage is None."""
    if stage is None:
        start = time.perf_counter()
        sbgraph.parse_edge_list(text)
    else:
        g = sbgraph.parse_edge_list(text)
        start = time.perf_counter()
        stage(g)
    return time.perf_counter() - start


def least(stage, text):
    """The least cold seconds of stage on text and the number of runs:
    at least REPEATS, then more until they add up to BUDGET_S seconds,
    and no more than MAX_REPEATS."""
    times = []
    while len(times) < REPEATS or (
        sum(times) < BUDGET_S and len(times) < MAX_REPEATS
    ):
        times.append(cold(stage, text))
    return min(times), len(times)


def measure(text):
    """The least cold seconds of each stage on the input `text`, the
    number of runs each took, and the sha256 of its report."""
    seconds, repeats = {}, {}
    for name, stage in [("parse", None), *stages()]:
        seconds[name], repeats[name] = least(stage, text)
    report = sbgraph.emit_report(sbgraph.parse_edge_list(text))
    return seconds, repeats, hashlib.sha256(report.encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="sbgraph-scale-") as workdir:
        skipped = {}
        reason = compiled_backend(workdir)
        if reason:
            skipped["c"] = reason
        runs = []
        for shape in SHAPES:
            for n in args.sizes:
                arcs = arcs_of(shape, n)
                text = gen.edge_list_text(n, arcs)
                for backend in _kernels.available_backends():
                    with _kernels.use_backend(backend):
                        seconds, repeats, digest = measure(text)
                    runs.append({
                        "shape": shape, "n": n, "m": len(arcs),
                        "backend": backend, "seconds": seconds,
                        "repeats": repeats, "report_sha256": digest,
                    })
                    print(
                        f"{shape} n={n} {backend}: " + " ".join(
                            f"{k}={v:.3f}/{repeats[k]}"
                            for k, v in seconds.items()
                        ),
                        flush=True,
                    )
    bench = {
        "tag": args.tag,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "sizes": list(args.sizes),
        "repeats": {"min": REPEATS, "max": MAX_REPEATS, "budget_s": BUDGET_S},
        "backends": _kernels.available_backends(),
        "skipped_backends": skipped,
        "runs": runs,
    }
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
