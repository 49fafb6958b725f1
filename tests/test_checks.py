from itertools import islice

import pytest

import sbgraph as sg
from sbgraph import blocks, checks
from helpers import c3, random_sb_corpus


def test_oracle_check_passes_on_corpus():
    for g in random_sb_corpus(10, seed_base=4000):
        report = sg.oracle_check(g)
        assert report.passed
        assert report.witness is None


def test_oracle_check_describe_ok():
    assert "ok" in sg.oracle_check(c3()).describe()


def test_oracle_check_guard():
    g = sg.gen_random_sb(14, 0.5, 1)
    with pytest.raises(sg.GuardError):
        sg.oracle_check(g)
    assert sg.oracle_check(g, guard=14).passed


def test_minimize_shrinks_to_minimal_example():
    g = sg.gen_random_sb(6, 0.8, 3)
    witness = checks._minimize(g, lambda h: h.m >= 4)
    assert witness.m == 4


def test_oracle_check_reports_and_minimizes_mismatch(monkeypatch):
    monkeypatch.setattr(checks, "_sbc_mismatch", lambda h, guard: h.m >= 3)
    report = checks.oracle_check(c3())
    assert not report.passed
    assert report.failure == "sbc refinement vs enumeration oracle"
    assert report.witness.m == 3
    assert "MISMATCH" in report.describe()


def test_minimize_drops_edges_then_vertices():
    witness = checks._minimize(sg.gen_random_sb(7, 0.8, 3), lambda h: h.n >= 4)
    assert (witness.n, witness.m) == (4, 0)


def test_oracle_check_reports_blocks_mismatch(monkeypatch):
    monkeypatch.setattr(
        checks, "two_edge_biconnected_blocks", lambda h: ["wrong"]
    )
    report = checks.oracle_check(c3())
    assert not report.passed
    assert report.failure == "2eb blocks vs helper-graph oracle"
    assert report.witness == c3()


def test_oracle_check_sees_a_dropped_b_bridge_probe(monkeypatch):
    """The 2eb oracle rebuilds the blocks on graph copies instead of
    reading the fast path's probes, so a fast path that skips a b-bridge
    probe disagrees with it."""
    g = sg.build_digraph(5, [(0, 4), (1, 3), (2, 0), (3, 0), (4, 1), (4, 2)])
    assert sg.cut_report(g).b_bridges
    probes = blocks._b_bridge_probes
    monkeypatch.setattr(
        blocks, "_b_bridge_probes", lambda h: islice(probes(h), 1, None)
    )
    report = sg.oracle_check(g)
    assert not report.passed
    assert report.failure == "2eb blocks vs helper-graph oracle"
