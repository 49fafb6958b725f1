"""Cross-checks of the fast paths against their oracles.

Used by the CLI oracle subcommand and handy when hunting for
counterexamples: on a mismatch the offending graph is shrunk greedily to
a minimal witness that still mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .blocks import (
    oracle_two_edge_biconnected_blocks,
    two_edge_biconnected_blocks,
)
from .connectivity import check_guard, is_strongly_biconnected
from .graph import remove_edge, remove_vertex
from .sbc import sbc_oracle, strongly_biconnected_components


@dataclass(frozen=True)
class OracleCheckReport:
    passed: bool
    failure: str | None = None
    witness: object = None

    def describe(self):
        if self.passed:
            return "ok: fast paths agree with their oracles"
        w = self.witness
        return (
            f"MISMATCH in {self.failure}; minimized witness: n={w.n} "
            f"edges={list(w.edges)}"
        )


def _sbc_mismatch(g, guard):
    fast = strongly_biconnected_components(g).components
    slow = sbc_oracle(g, guard=guard).components
    return fast != slow


def _blocks_mismatch(g, guard):
    if not is_strongly_biconnected(g):
        return False
    return two_edge_biconnected_blocks(g) != oracle_two_edge_biconnected_blocks(
        g, guard=guard
    )


def _minimize(g, mismatch):
    """Shrink g by one edge, else one vertex, while the mismatch persists,
    trying edges first again after each shrink."""
    while True:
        shrinks = chain(
            (remove_edge(g, e) for e in g.edges),
            (remove_vertex(g, v)[0] for v in range(g.n)),
        )
        h = next(filter(mismatch, shrinks), None)
        if h is None:
            return g
        g = h


def oracle_check(g, guard=12):
    """Compare the refinement SBC decomposition with the subset-search
    oracle, and the 2-edge-biconnected blocks read off the probes with
    the helper-graph oracle, which rebuilds them on graph copies.

    One guard, n <= guard, bounds both.  Returns a report; on the first
    mismatch the witness graph is shrunk to a minimal failing example.
    """
    check_guard("oracle_check", g.n, guard)
    for failure, mismatch in (
        ("sbc refinement vs enumeration oracle", _sbc_mismatch),
        ("2eb blocks vs helper-graph oracle", _blocks_mismatch),
    ):
        if mismatch(g, guard):
            witness = _minimize(g, lambda h: mismatch(h, guard))
            return OracleCheckReport(
                passed=False, failure=failure, witness=witness
            )
    return OracleCheckReport(passed=True)
