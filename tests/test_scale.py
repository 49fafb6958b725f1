import hashlib
import json
import subprocess
import sys

import pytest

import sbgraph as sg
from sbgraph import _kernels
from helpers import ROOT, directed_cycle, scale_run

STAGES = [
    "parse", "verdict", "cut_report",
    "bbridges", "bap", "sbc", "2eb", "2sb", "2e", "2s",
]


def test_scale_run_writes_a_bench_file(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scale" / "run.py"), "--tag", "smoke",
         "--sizes", "30", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    backends = bench["backends"]
    assert "pure" in backends
    assert sorted(backends + list(bench["skipped_backends"])) == ["c", "pure"]
    runs = bench["runs"]
    assert [(r["shape"], r["backend"]) for r in runs] == [
        (shape, backend)
        for shape in ("long", "short", "twinned", "cycle")
        for backend in backends
    ]
    assert bench["repeats"] == {"min": 3, "max": 25, "budget_s": 0.5}
    digests = {}
    for run in runs:
        assert run["n"] == 30
        assert list(run["seconds"]) == STAGES
        assert all(s >= 0 for s in run["seconds"].values())
        # Each stage's run count sits next to its seconds; at n = 30 the
        # parse is far under 20 ms, so it takes all 25 runs.
        assert list(run["repeats"]) == STAGES
        assert all(3 <= k <= 25 for k in run["repeats"].values())
        assert run["repeats"]["parse"] == 25
        # Every backend writes the same report.
        assert digests.setdefault(run["shape"], run["report_sha256"]) == (
            run["report_sha256"]
        )
    report = sg.emit_report(directed_cycle(30)).encode()
    assert digests["cycle"] == hashlib.sha256(report).hexdigest()


@pytest.mark.parametrize(
    "durations,runs",
    [([0.3] * 3, 3), ([0.125] * 6, 4), ([0.001] * 30, 25),
     ([0.01, 0.6, 0.01], 3)],
)
def test_scale_run_repeats_a_stage_until_its_budget(
    monkeypatch, durations, runs
):
    # At least three runs, then more until they add up to 0.5 s, at most
    # 25; the least is kept.
    run = scale_run()
    times = iter(durations)
    monkeypatch.setattr(run, "cold", lambda stage, text: next(times))
    assert run.least(None, "") == (min(durations[:runs]), runs)


@pytest.mark.parametrize(
    "stderr,detail",
    [
        ("warning: x\nsrc/_ckern.c:513:1: error: expected ';'\n"
         "src/_ckern.c:600:1: error: later\nerror: command failed\n",
         "src/_ckern.c:513:1: error: expected ';'"),
        ("building '_ckern' extension\n  optional extension skipped  \n\n",
         "optional extension skipped"),
    ],
)
def test_scale_run_records_why_the_build_wrote_no_module(
    monkeypatch, stderr, detail
):
    # setup.py marks the extension optional, so a failed compile exits 0:
    # the reason names the missing module and the compiler's first error,
    # or else the last line the build wrote.
    run = scale_run()
    monkeypatch.delitem(_kernels._BACKENDS, "c", raising=False)
    monkeypatch.setattr(
        run, "build_compiled",
        lambda root, workdir: subprocess.CompletedProcess([], 0, "", stderr),
    )
    assert run.compiled_backend("unused") == (
        f"setup.py build_ext wrote no module (exit 0): {detail}"
    )
