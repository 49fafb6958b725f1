"""The measured process: one client running one workload in a closed loop.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE MIN_PASSES

Every workload is a fixed pool of inputs; a pass runs each input once.
Prints one JSON document on stdout with every op's latency by input, the
host samples, failures, the reference output of every analyze input,
and, with TRACE=1, the per-layer metrics of a traced second phase.
`run.py` starts it and checks what it returns; it imports only sbgraph
(from the checkout's `src`) and numpy, so its peak RSS is the library's
own.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402  (the benchmark's own directory is on sys.path)
import host  # noqa: E402
import numpy  # noqa: E402
import sbgraph  # noqa: E402
import sbgraph.report  # noqa: E402
import spans  # noqa: E402

# Five sizes of 24 graphs each: p50 and p90 over the 120 inputs fall in
# the middle of the n = 8 and the n = 10 graphs, not between two sizes.
ORACLE_SIZES = range(6, 11)
ORACLE_COPIES = 24
ORACLE_P = 0.6


class AnalyzeWork:
    """`sbgraph analyze` on a fixed pool: parse, analyze, render, every op.

    The first output of each input, computed before timing starts, is the
    reference that every later op must reproduce byte for byte; that pass
    is also the warm-up.
    """

    def __init__(self, workload, seed):
        self.pool = gen.analyze_pool(workload, seed)
        self.slots = len(self.pool)
        self.reference = [self.op(i) for i in range(self.slots)]

    def op(self, slot):
        # Looked up on the module at each call, so tracing sees them.
        g = sbgraph.parse_edge_list(self.pool[slot][3])
        return sbgraph.report.render_report(sbgraph.analyze(g))

    def ok(self, slot, out):
        return out == self.reference[slot]

    def inputs(self):
        return [{"kind": kind, "n": n} for kind, n, _, _ in self.pool]


class OracleWork:
    """`sbgraph oracle --count`: generate a graph, then cross-check it.

    Input j of the pool is n = 6 + j mod 5 with generator seed
    SEED * 10**6 + j.  Every op generates its graph afresh and must
    report `passed=True` and the arc count the warm-up pass before timing
    recorded.
    """

    reference = None

    def __init__(self, workload, seed):
        self.pool = [
            (ORACLE_SIZES[j % len(ORACLE_SIZES)], seed * 10**6 + j)
            for j in range(len(ORACLE_SIZES) * ORACLE_COPIES)
        ]
        self.slots = len(self.pool)
        self.arcs = [self.op(slot)[1] for slot in range(self.slots)]

    def op(self, slot):
        n, gen_seed = self.pool[slot]
        g = sbgraph.gen_random_sb(n, ORACLE_P, gen_seed)
        return sbgraph.oracle_check(g).passed, g.m

    def ok(self, slot, out):
        passed, m = out
        return passed and m == self.arcs[slot]

    def inputs(self):
        sizes = {}
        for (n, _), m in zip(self.pool, self.arcs):
            sizes.setdefault(n, []).append(m)
        return [
            {"n": n, "graphs": len(ms), "m_min": min(ms), "m_max": max(ms)}
            for n, ms in sorted(sizes.items())
        ]


def run_phase(work, seconds, min_passes, recorder=None):
    """Whole passes until `seconds` have elapsed and `min_passes` ran.

    Ending on a pass boundary gives every input the same number of
    samples whatever the speed of the code under test.  The host's speed
    is sampled a few times per pass, outside the ops; `elapsed_s` leaves
    those samples out.
    """
    latencies = [[] for _ in range(work.slots)]
    host_s = []
    failed = 0
    errors = []
    ops = passes = 0
    clock = time.perf_counter
    per_pass = host.SAMPLES_PER_PASS
    marks = {work.slots * k // per_pass for k in range(per_pass)}
    begin = clock()
    while True:
        for slot in range(work.slots):
            if slot in marks:
                host_s.append(host.sample())
            span = recorder.open(spans.OP) if recorder is not None else None
            t0 = clock()
            try:
                out = work.op(slot)
            except Exception as exc:  # an op that raises counts as failed
                out = exc
            t1 = clock()
            if span is not None:
                recorder.close(span)
            ops += 1
            latencies[slot].append(t1 - t0)
            raised = isinstance(out, Exception)
            if raised or not work.ok(slot, out):
                failed += 1
                if len(errors) < 5:
                    what = "raised" if raised else "wrong output"
                    errors.append(f"slot {slot}: {what} {out!r:.200}")
        passes += 1
        if clock() - begin >= seconds and passes >= min_passes:
            break
    elapsed = clock() - begin - sum(host_s)
    return {
        "ops": ops,
        "passes": passes,
        "failed": failed,
        "errors": errors,
        "elapsed_s": elapsed,
        "latencies": latencies,
        "host_s": host_s,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv):
    workload, seed, seconds, traced, min_passes = argv
    seed, seconds, traced = int(seed), float(seconds), int(traced)
    min_passes = int(min_passes)
    src = (ROOT / "src").resolve()
    if src not in Path(sbgraph.__file__).resolve().parents:
        raise SystemExit(f"sbgraph imported from {sbgraph.__file__}, not {src}")
    work_cls = OracleWork if workload == "oracle-sweep" else AnalyzeWork
    work = work_cls(workload, seed)
    result = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": sbgraph.backend_name(),
        "reference": work.reference,
    }
    if traced:
        # Half the time untraced, half traced: the ratio of the two
        # throughputs is the tracing overhead.
        result["plain"] = run_phase(work, seconds / 2, min_passes)
        recorder = spans.Recorder()
        with spans.tracing(recorder) as missing:
            result["traced"] = run_phase(work, seconds / 2, min_passes, recorder)
        if spans.leftover_wrappers():
            raise SystemExit(f"wrappers left behind: {spans.leftover_wrappers()}")
        result["missing_targets"] = missing
        result["layers"] = spans.layer_metrics(recorder, result["traced"]["ops"])
        recorder.write(ROOT / ".bench_out" / f"spans-{workload}.txt")
    else:
        result["plain"] = run_phase(work, seconds, min_passes)
        result["peak_rss_mb"] = peak_rss_mb()
    result["inputs"] = work.inputs()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
