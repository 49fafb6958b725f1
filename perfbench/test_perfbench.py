"""Tests of the benchmark's own parts: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import nxcheck  # noqa: E402
import run  # noqa: E402
import sbgraph  # noqa: E402
import sbgraph.report  # noqa: E402
import spans  # noqa: E402


def digraph(n, arcs):
    d = nx.DiGraph()
    d.add_nodes_from(range(n))
    d.add_edges_from(arcs)
    return d


def is_sb(d):
    return nx.is_strongly_connected(d) and nx.is_biconnected(d.to_undirected())


@pytest.mark.parametrize("workload", ["analyze-robust", "analyze-fragile"])
def test_pool_is_seeded_and_ear_inputs_are_strongly_biconnected(workload):
    pool = gen.analyze_pool(workload, 3)
    assert pool == gen.analyze_pool(workload, 3)
    assert pool != gen.analyze_pool(workload, 4)
    for kind, n, arcs, text in pool:
        assert len(set(arcs)) == len(arcs)
        assert all(u != v and 0 <= u < n and 0 <= v < n for u, v in arcs)
        assert sbgraph.parse_edge_list(text).edges == tuple(arcs)
        if kind == "ear":
            assert is_sb(digraph(n, arcs))


@pytest.mark.parametrize("seed", range(5))
def test_ear_graph_hits_its_size_and_arc_budget(seed):
    rng = random.Random(seed)
    arcs = gen.ear_graph(rng, 30, 75, 3, 8)
    assert len(arcs) == 75
    assert is_sb(digraph(30, arcs))


@pytest.mark.parametrize("seed", range(5))
def test_glued_inputs_are_strongly_connected_but_not_biconnected(seed):
    arcs = gen.glued_graph(random.Random(seed), 40, 92, 3, 8)
    d = digraph(40, arcs)
    assert nx.is_strongly_connected(d)
    assert not is_sb(d)
    assert len(list(nx.articulation_points(d.to_undirected()))) >= 1


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10]: children [1, 4] and [3, 6] overlap, so they cover
    # [1, 6]; a grandchild [2, 3] belongs to the first child only; a
    # child running past its parent's end is clipped at 10.
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_layer_metrics_count_probes_under_each_family_span():
    rec = spans.Recorder()
    op = rec.open(spans.OP)
    fam = rec.open("blocks.two_edge_blocks")
    for count in (1, 2, 1, 3):
        k = rec.open("kernels.scc_ids")
        rec.close(k)
        rec.note_a[k], rec.note_b[k] = 5, count
    rec.close(fam)
    rec.close(op)
    m = spans.layer_metrics(rec, ops=2)
    assert m["blocks.two_edge_blocks.probes"] == 2.0
    assert m["blocks.two_edge_blocks.probe_yield"] == 0.5
    assert m["kernels.scc_ids.calls"] == 2.0
    assert m["kernels.vertices_in"] == 10.0
    assert 0.0 < m["trace.attributed_ratio"] <= 1.0


def test_tracing_rebinds_every_import_and_leaves_no_wrapper():
    import sbgraph.blocks
    import sbgraph.checks
    import sbgraph.graph

    original = sbgraph.graph.remove_edge
    g = sbgraph.gen_random_sb(6, 0.6, 1)
    rec = spans.Recorder()
    with spans.tracing(rec):
        assert sbgraph.blocks.remove_edge is not original
        assert sbgraph.checks.remove_edge is sbgraph.blocks.remove_edge
        traced = sbgraph.report.render_report(sbgraph.analyze(g))
        assert sbgraph.oracle_check(g).passed
    assert spans.leftover_wrappers() == []
    assert sbgraph.blocks.remove_edge is original
    assert sbgraph.checks.remove_edge is original
    assert traced == sbgraph.report.render_report(sbgraph.analyze(g))
    names = {rec.names[i] for i in rec.name}
    assert {"report.analyze", "blocks.two_edge_blocks", "kernels.scc_ids",
            "checks.oracle_check", "sbc.sbc_oracle"} <= names


def test_tracing_restores_wrappers_when_the_body_raises():
    rec = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.tracing(rec):
            raise RuntimeError("boom")
    assert spans.leftover_wrappers() == []


def test_nxcheck_accepts_sbgraph_reports_and_flags_wrong_ones():
    kind, n, arcs, text = gen.analyze_pool("analyze-fragile", 1)[0]
    report = sbgraph.report.render_report(
        sbgraph.analyze(sbgraph.parse_edge_list(text))
    )
    problems, facts = nxcheck.check_report(n, arcs, report)
    assert problems == [] and facts["sb"] and facts["b_bridges"] > 0
    tampered = json.loads(report)
    tampered["b_bridges"] = tampered["b_bridges"][1:]
    tampered["blocks_2e"] = []
    problems, _ = nxcheck.check_report(n, arcs, json.dumps(tampered))
    assert problems == ["b_bridges", "blocks_2e"]


def test_benchmark_json_declares_every_emitted_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    rec = spans.Recorder()
    rec.close(rec.open(spans.OP))
    emitted = [*spans.layer_metrics(rec, 1), "trace.overhead_ratio"]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, spans.unit(name)) for name in emitted
    ]


def test_phase_stats_scale_each_input_median_to_the_nominal_host():
    phase = {
        "ops": 9, "passes": 3, "failed": 0, "elapsed_s": 3.0,
        "latencies": [[0.3, 0.1, 0.2], [0.2, 0.4, 0.3], [0.9, 0.6, 0.5]],
        # The median host sample equals HOST_SAMPLE_S, so the scale is 1.
        "host_s": [2 * run.HOST_SAMPLE_S, run.HOST_SAMPLE_S, 0.5 * run.HOST_SAMPLE_S],
    }
    stats = run.phase_stats(phase)
    assert stats["ops_per_s"] == pytest.approx(3 / 1.1)
    assert stats["latency_p50_ms"] == pytest.approx(300.0)
    assert stats["latency_p90_ms"] == pytest.approx(540.0)
    assert stats["raw_ops_per_s"] == pytest.approx(3.0)
    assert stats["failed"] == 0
    # On a host twice as slow every latency is halved back.
    slow = dict(phase, host_s=[2 * run.HOST_SAMPLE_S])
    assert run.phase_stats(slow)["latency_p50_ms"] == pytest.approx(150.0)
    # Every op of an input whose reference failed the gate counts.
    assert run.phase_stats(phase, bad_slots={2})["failed"] == 3


def test_host_sample_imports_nothing_before_the_timed_import():
    # setup_s takes a host sample in the same interpreter just before
    # `import sbgraph`; a module loaded by the sample would be left out of
    # the import's time.
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); before = set(sys.modules); "
        "import host; host.sample(); print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "['host']"
