import hashlib
import json
import subprocess
import sys

import sbgraph as sg
from helpers import ROOT, directed_cycle

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
    digests = {}
    for run in runs:
        assert run["n"] == 30
        assert list(run["seconds"]) == STAGES
        assert all(s >= 0 for s in run["seconds"].values())
        # Every backend writes the same report.
        assert digests.setdefault(run["shape"], run["report_sha256"]) == (
            run["report_sha256"]
        )
    report = sg.emit_report(directed_cycle(30)).encode()
    assert digests["cycle"] == hashlib.sha256(report).hexdigest()
