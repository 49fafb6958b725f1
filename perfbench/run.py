"""Layered benchmark for sbgraph.

    python3 perfbench/run.py --workload analyze-robust --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload in turn

Each workload is a closed loop with one client in a single process and no
threads, on whichever kernel backend sbgraph selects at import, with the
library defaults (parallel=False).  Run from the root of a checkout; the
library is imported from its `src` directory.

With --trace 0 the last line of stdout reports the end-to-end metrics;
with --trace 1 it reports the per-layer metrics of a traced run (see
spans.py).  The lines before it record the machine, the versions, the
backend, the seed and every input.  Exit status is 0 only when every op
produced a correct result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import nxcheck  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("analyze-robust", "analyze-fragile", "oracle-sweep")
# Each input's latency is the median of at least this many samples.
MIN_PASSES = 5
# Times are reported for a nominal host, on which the median of
# host.sample() takes this long (5-10 ms on a 2-vCPU Intel Xeon VM).
HOST_SAMPLE_S = 0.008
SETUP_REPEATS = 7
# Leaves time for the checks after the worker within three minutes.
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def import_seconds():
    """Median over fresh interpreters of the wall time of `import sbgraph`,
    each scaled to the nominal host by a host sample (median of three)
    taken in the same interpreter just before the import."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import host; "
        "h = sorted(host.sample() for _ in range(3))[1]; "
        "t = time.perf_counter(); import sbgraph; "
        "print(time.perf_counter() - t, h)"
    )
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env = dict(os.environ, PYTHONPATH=path)
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise SystemExit(f"import sbgraph failed:\n{proc.stderr}")
        seconds, host_s = map(float, proc.stdout.split())
        samples.append(seconds * HOST_SAMPLE_S / host_s)
    return statistics.median(samples)


def run_worker(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         str(seconds), str(trace), str(MIN_PASSES)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def gate(workload, seed, reference):
    """networkx recheck of each input's reference report, outside every
    timed region.  Returns the slots whose report is wrong."""
    bad = set()
    for slot, (kind, n, arcs, _text) in enumerate(gen.analyze_pool(workload, seed)):
        problems, facts = nxcheck.check_report(n, arcs, reference[slot])
        share = (
            f"{facts['b_bridges'] / facts['m']:.4f}" if facts["sb"] else "n/a"
        )
        print(
            f"input {slot}: kind={kind} n={n} m={facts['m']} sc={facts['sc']} "
            f"sb={facts['sb']} b_bridge_share={share} "
            f"b_articulation_points={facts.get('b_articulation_points', 'n/a')}"
            + (f" MISMATCH {problems}" if problems else "")
        )
        if problems:
            bad.add(slot)
    return bad


def phase_stats(phase, bad_slots=()):
    """Throughput, latency percentiles and failures of one measured phase.

    Every input of the pool runs once per pass, and its latency is the
    median of its samples.  Other tenants of a shared host slow every op
    by up to half for minutes at a time, so each latency is scaled to the
    nominal host: multiplied by HOST_SAMPLE_S over the median host sample
    of the same phase (eight per pass, see host.py).  The percentiles are
    taken over the inputs, and ops_per_s is the rate of one pass at those
    latencies, so both describe the same op mix on every commit.  The
    unscaled figures over every op are returned beside them.
    """
    lat = phase["latencies"]
    host = statistics.median(phase["host_s"])
    scaled = [statistics.median(slot) * HOST_SAMPLE_S / host for slot in lat]
    raw = sorted(x for slot in lat for x in slot)
    failed = phase["failed"] + sum(len(lat[s]) for s in bad_slots)
    return {
        "ops": phase["ops"],
        "passes": phase["passes"],
        "inputs": len(scaled),
        "failed": min(failed, phase["ops"]),
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p90_ms": statistics.quantiles(
            scaled, n=10, method="inclusive"
        )[-1] * 1e3,
        "host_ms": host * 1e3,
        "raw_ops_per_s": phase["ops"] / phase["elapsed_s"],
        "raw_p50_ms": statistics.median(raw) * 1e3,
        "raw_p90_ms": statistics.quantiles(raw, n=10)[-1] * 1e3,
    }


def run_workload(workload, seed, seconds, trace):
    print(f"workload={workload} seed={seed} seconds={seconds} trace={trace}")
    res = run_worker(workload, seed, seconds, trace)
    print(
        f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r} "
        f"python={res['python']} numpy={res['numpy']} backend={res['backend']}"
    )
    if workload == "oracle-sweep":
        for item in res["inputs"]:
            print(
                f"inputs n={item['n']}: graphs={item['graphs']} "
                f"m={item['m_min']}..{item['m_max']}"
            )
        bad = set()
    else:
        bad = gate(workload, seed, res["reference"])
    phases = [p for p in ("plain", "traced") if p in res]
    stats = {p: phase_stats(res[p], bad) for p in phases}
    attempted = sum(s["ops"] for s in stats.values())
    failed = sum(s["failed"] for s in stats.values())
    for p in phases:
        for err in res[p]["errors"]:
            print(f"error ({p}): {err}")
    plain = stats["plain"]
    if trace:
        traced = stats["traced"]
        layers = dict(res["layers"])
        layers["trace.overhead_ratio"] = traced["ops_per_s"] / plain["ops_per_s"]
        if res["missing_targets"]:
            print(f"not traced (absent from sbgraph): {res['missing_targets']}")
        metrics = {
            k: {"value": v, "unit": spans.unit(k)} for k, v in layers.items()
        }
        print(
            f"traced ops={traced['ops']} untraced ops={plain['ops']} "
            f"self-time sum / traced op wall = {layers['trace.attributed_ratio']:.4f}"
        )
    else:
        values = {
            "ops_per_s": plain["ops_per_s"],
            "latency_p50_ms": plain["latency_p50_ms"],
            "latency_p90_ms": plain["latency_p90_ms"],
            "setup_s": import_seconds(),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {
            k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()
        }
        print(
            f"latency samples: {plain['inputs']} inputs x {plain['passes']} passes, "
            f"measured_s={res['plain']['elapsed_s']:.2f}; median host sample "
            f"{plain['host_ms']:.3f} ms; unscaled, over every op: "
            f"ops_per_s={plain['raw_ops_per_s']:.4g} "
            f"p50_ms={plain['raw_p50_ms']:.4g} p90_ms={plain['raw_p90_ms']:.4g}"
        )
    print(f"failed_ratio {failed / attempted:.6f} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return failed == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [run_workload(w, args.seed, args.seconds, args.trace) for w in chosen]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
