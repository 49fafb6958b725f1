"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -rA` to get one pass/fail
line per criterion plus the timing printout of each.
"""

import json
import time

import pytest

import sbgraph as sg
from sbgraph.bench import run_bench
from sbgraph.cli import main
from helpers import one_based, overlaps_at_most

CORPUS_SIZE = 504  # 84 graphs per vertex count in [3, 8]


@pytest.fixture(scope="module")
def corpus():
    start = time.perf_counter()
    graphs = []
    for i in range(CORPUS_SIZE):
        n = 3 + i % 6
        graphs.append(sg.gen_random_sb(n, 0.6, 10_000 + i))
    return graphs, time.perf_counter() - start


def _cli_blocks(capsys, path, kind, *extra):
    start = time.perf_counter()
    code = main(["blocks", "--kind", kind, path, *extra])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["blocks"], elapsed


def test_criterion_1_fig1_2eb_blocks_exact(capsys, fig1_path):
    blocks, elapsed = _cli_blocks(capsys, fig1_path, "2eb")
    expected = [
        list(one_based(4, 15)),
        list(one_based(4, 9, 10, 11, 12, 13, 14)),
    ]
    assert blocks == expected
    assert elapsed < 1.0
    print(f"criterion 1 PASS ({elapsed:.3f}s): fig1 2eb blocks exact")


def test_criterion_2_fig1_2e_block_membership(capsys, fig1_path):
    blocks, elapsed = _cli_blocks(capsys, fig1_path, "2e")
    assert list(one_based(4, 9, 10, 11, 12, 13, 14, 15)) in blocks
    print(f"criterion 2 PASS ({elapsed:.3f}s): fig1 2e block membership")


def test_criterion_3_fig1_arc_deletion_separates(fig1):
    start = time.perf_counter()
    h = sg.remove_edge(fig1, one_based(2, 15))
    d = sg.strongly_biconnected_components(h)
    separated = not sg.same_sbc(d, 15 - 1, 12 - 1)
    assert separated
    elapsed = time.perf_counter() - start
    print(
        f"criterion 3 PASS ({elapsed:.3f}s): deleting the (2,15) arc parts "
        "15 and 12"
    )


def test_criterion_4_fig1_2esb_component(fig1):
    start = time.perf_counter()
    comps = sg.components_2esb(fig1)
    assert comps == [one_based(9, 10, 11, 12, 13, 14)]
    big_block = one_based(4, 9, 10, 11, 12, 13, 14)
    assert big_block in sg.two_edge_biconnected_blocks(fig1)
    assert set(comps[0]) <= set(big_block)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 4 PASS ({elapsed:.3f}s): fig1 2esb component exact and "
        "inside its 2eb block"
    )


def test_criterion_5_fig2_2sb_blocks_exact(capsys, fig2_path, fig2):
    blocks, elapsed = _cli_blocks(capsys, fig2_path, "2sb")
    expected = [list(one_based(1, 2, 3, 4)), list(one_based(3, 4, 5, 6))]
    assert blocks == expected
    assert len(set(blocks[0]) & set(blocks[1])) == 2
    assert elapsed < 1.0
    pair = set(one_based(2, 6))
    assert any(pair <= set(b) for b in sg.two_strong_blocks(fig2))
    assert not any(pair <= set(b) for b in blocks)
    print(
        f"criterion 5 PASS ({elapsed:.3f}s): fig2 2sb blocks exact, overlap "
        "2, vertices 2/6 split"
    )


def test_criterion_6_oracle_equivalence(corpus):
    graphs, gen_seconds = corpus
    assert len(graphs) >= 500
    start = time.perf_counter()
    mismatches = 0
    for g in graphs:
        if sg.two_edge_biconnected_blocks(g) != (
            sg.oracle_two_edge_biconnected_blocks(g)
        ):
            mismatches += 1
        if sg.strongly_biconnected_components(g).components != (
            sg.sbc_oracle(g).components
        ):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert gen_seconds + elapsed < 60.0
    print(
        f"criterion 6 PASS ({gen_seconds + elapsed:.2f}s): {len(graphs)} "
        "graphs, zero oracle mismatches"
    )


def test_criterion_7_invariant_suite(corpus, fig1, fig2):
    graphs, _ = corpus
    start = time.perf_counter()
    violations = 0
    for g in list(graphs) + [fig1, fig2]:
        eb = sg.two_edge_biconnected_blocks(g)
        if not overlaps_at_most(eb, 1):
            violations += 1
        if not overlaps_at_most(sg.two_strong_biconnected_blocks(g), 2):
            violations += 1
        bridges = set(sg.b_bridges(g))
        for e in g.edges:
            if e in bridges:
                continue
            d = sg.strongly_biconnected_components(sg.remove_edge(g, e))
            if not all(
                sg.same_sbc(d, v, w)
                for v in range(g.n)
                for w in range(v)
            ):
                violations += 1
                break
        for c in sg.components_2vsb(g):
            h, _ = sg.induced_subgraph(g, c)
            if h.m < 2 * len(c):
                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    print(
        f"criterion 7 PASS ({elapsed:.2f}s): structural invariants hold on "
        f"{len(graphs)} graphs + both fixtures"
    )


def test_criterion_8_cubic_scaling():
    start = time.perf_counter()
    result = run_bench(
        sizes=(50, 100, 200), seed=7, backends=[sg.backend_name()], repeat=2
    )
    elapsed = time.perf_counter() - start
    by_n = {r["n"]: r["seconds"] for r in result["runs"]}
    assert by_n[200] < 30.0
    for step in result["doubling"]:
        assert step["within_budget"], step
    print(
        f"criterion 8 PASS ({elapsed:.2f}s): t50={by_n[50]:.3f}s "
        f"t100={by_n[100]:.3f}s t200={by_n[200]:.3f}s, doublings "
        f"{[s['ratio'] for s in result['doubling']]} within 16x"
    )


def test_criterion_9_byte_identical_reports(fig1_path, fig2_path):
    start = time.perf_counter()
    for path in (fig1_path, fig2_path):
        with open(path) as handle:
            text = handle.read()
        g = sg.parse_edge_list(text)
        base = sg.emit_report(g)
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        header, arcs = lines[0], lines[1:]
        rng = sg.SplitMix64(99)
        for _ in range(3):
            rng.shuffle(arcs)
            shuffled = sg.parse_edge_list("\n".join([header] + arcs) + "\n")
            assert sg.emit_report(shuffled) == base
    elapsed = time.perf_counter() - start
    print(
        f"criterion 9 PASS ({elapsed:.2f}s): shuffled inputs give "
        "byte-identical reports"
    )
