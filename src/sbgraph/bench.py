"""Benchmark the 2-edge-biconnected block pipeline.

Generates sparse strongly biconnected graphs (expected density 4n arcs),
times the full block computation per kernel backend, and checks that the
growth across size doublings stays within the cubic budget.
"""

from __future__ import annotations

import time

from . import _kernels
from .blocks import two_edge_biconnected_blocks
from .generate import gen_random_sb
from .graph import build_digraph

CUBIC_FUDGE = 2.0


def measure(g, backend, repeat=3):
    """Best-of-`repeat` wall time of the block computation on g.

    Each repeat runs on a fresh copy of g, built before its timer starts,
    so no repeat reads the facts an earlier one kept on the graph.
    """
    best = float("inf")
    with _kernels.use_backend(backend):
        for _ in range(repeat):
            fresh = build_digraph(g.n, g.edges)
            start = time.perf_counter()
            blocks = two_edge_biconnected_blocks(fresh)
            best = min(best, time.perf_counter() - start)
    return best, blocks


def run_bench(sizes=(50, 100, 200), seed=7, backends=None, repeat=3,
              mean_degree=4.0, max_tries=100000):
    """Benchmark every backend on one generated graph per size.

    Returns a dict with per-run timings and the doubling ratios for each
    backend (consecutive sizes that differ by exactly 2x).
    """
    if backends is None:
        backends = _kernels.available_backends()
    sizes = sorted(sizes)
    graphs = {}
    for n in sizes:
        p = min(1.0, mean_degree / (n - 1))
        graphs[n] = gen_random_sb(n, p, seed, max_tries=max_tries)
    runs = []
    times = {b: {} for b in backends}
    for n in sizes:
        g = graphs[n]
        reference = None
        for backend in backends:
            seconds, blocks = measure(g, backend, repeat=repeat)
            times[backend][n] = seconds
            if reference is None:
                reference = blocks
            elif blocks != reference:
                raise AssertionError(
                    f"backends disagree on n={n}: {backend} differs"
                )
            runs.append(
                {
                    "n": n,
                    "m": g.m,
                    "backend": backend,
                    "seconds": round(seconds, 6),
                    "blocks": len(reference),
                }
            )
    ratios = []
    for backend in backends:
        for lo, hi in zip(sizes, sizes[1:]):
            if hi != 2 * lo:
                continue
            ratio = times[backend][hi] / max(times[backend][lo], 1e-9)
            ratios.append(
                {
                    "backend": backend,
                    "from_n": lo,
                    "to_n": hi,
                    "ratio": round(ratio, 3),
                    "cubic_budget": 8.0 * CUBIC_FUDGE,
                    "within_budget": ratio <= 8.0 * CUBIC_FUDGE,
                }
            )
    return {"seed": seed, "runs": runs, "doubling": ratios}


def format_bench(result):
    lines = ["n      m      backend  seconds    blocks"]
    for run in result["runs"]:
        lines.append(
            f"{run['n']:<6} {run['m']:<6} {run['backend']:<8} "
            f"{run['seconds']:<10.4f} {run['blocks']}"
        )
    for r in result["doubling"]:
        verdict = "ok" if r["within_budget"] else "EXCEEDED"
        lines.append(
            f"doubling {r['from_n']}->{r['to_n']} [{r['backend']}]: "
            f"{r['ratio']:.2f}x (budget {r['cubic_budget']:.0f}x) {verdict}"
        )
    return "\n".join(lines) + "\n"
