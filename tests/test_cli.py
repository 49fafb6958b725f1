import json
import subprocess
import sys

import pytest

import sbgraph as sg
from sbgraph import _kernels
from sbgraph.cli import main
from sbgraph.report import FAMILIES
from helpers import bidirected_complete, c3, glued, one_based


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_fig1(capsys, fig1_path):
    code, out, _ = run_cli(capsys, "check", fig1_path)
    assert code == 0
    data = json.loads(out)
    assert data["strongly_biconnected"] is True
    assert data["n"] == 16 and data["m"] == 29


def test_check_text_format(capsys, fig1_path):
    code, out, _ = run_cli(capsys, "check", fig1_path, "--format", "text")
    assert code == 0
    assert "strongly_biconnected: True" in out


def test_analyze_deterministic_bytes(capsys, fig1_path):
    code, out1, _ = run_cli(capsys, "analyze", fig1_path)
    assert code == 0
    code, out2, _ = run_cli(capsys, "analyze", fig1_path)
    assert out1 == out2
    data = json.loads(out1)
    assert data["blocks_2eb"] == [
        list(one_based(4, 15)),
        list(one_based(4, 9, 10, 11, 12, 13, 14)),
    ]


def test_analyze_text(capsys, fig1_path):
    code, out, _ = run_cli(capsys, "analyze", fig1_path, "--format", "text")
    assert code == 0
    assert "[blocks_2eb]" in out


@pytest.mark.parametrize(
    "kind,expect",
    [
        ("2eb", [[3, 14], [3, 8, 9, 10, 11, 12, 13]]),
        ("sbc", [list(range(16))]),
    ],
)
def test_blocks_kinds_fig1(capsys, fig1_path, kind, expect):
    code, out, _ = run_cli(capsys, "blocks", "--kind", kind, fig1_path)
    assert code == 0
    assert json.loads(out)["blocks"] == expect


def test_blocks_2sb_fig2(capsys, fig2_path):
    code, out, _ = run_cli(capsys, "blocks", "--kind", "2sb", fig2_path)
    assert code == 0
    assert json.loads(out)["blocks"] == [[0, 1, 2, 3], [2, 3, 4, 5]]


def test_blocks_bbridges_and_bap(capsys, tmp_path):
    path = tmp_path / "c3.edges"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out, _ = run_cli(capsys, "blocks", "--kind", "bbridges", str(path))
    assert code == 0
    assert json.loads(out)["blocks"] == [[0, 1], [1, 2], [2, 0]]
    code, out, _ = run_cli(capsys, "blocks", "--kind", "bap", str(path))
    assert code == 0
    assert json.loads(out)["vertices"] == [0, 1, 2]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_blocks_kind_matches_analyze_field(capsys, tmp_path, fig1_path,
                                           fig2_path, family):
    sc_not_sb = tmp_path / "glued.edges"
    sc_not_sb.write_text(sg.emit_edge_list(glued(bidirected_complete(4), c3())))
    for path in (fig1_path, fig2_path, str(sc_not_sb)):
        code, out, _ = run_cli(capsys, "analyze", path)
        assert code == 0
        value = json.loads(out)[family.key]
        code, out, err = run_cli(capsys, "blocks", "--kind", family.kind, path)
        if isinstance(value, dict):
            assert code == 1 and "precondition failure" in err
            continue
        assert code == 0
        data = json.loads(out)
        assert data.pop("kind") == family.kind
        assert list(data.values()) == [value]


def test_blocks_text_format(capsys, fig1_path):
    code, out, _ = run_cli(
        capsys, "blocks", "--kind", "2eb", fig1_path, "--format", "text"
    )
    assert code == 0
    assert out == "3 14\n3 8 9 10 11 12 13\n"


def test_blocks_guarded_kinds(capsys, fig1_path):
    code, _, err = run_cli(capsys, "blocks", "--kind", "2esb", fig1_path)
    assert code == 3
    assert "resource error" in err
    code, out, _ = run_cli(
        capsys, "blocks", "--kind", "2esb", fig1_path, "--guard", "16"
    )
    assert code == 0
    assert json.loads(out)["blocks"] == [[8, 9, 10, 11, 12, 13]]


def test_blocks_precondition_exit_code(capsys, tmp_path):
    path = tmp_path / "arc.edges"
    path.write_text("2 1\n0 1\n")
    code, _, err = run_cli(capsys, "blocks", "--kind", "2eb", str(path))
    assert code == 1
    assert "precondition failure" in err


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("2 1\n0 7\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/file.edges")
    assert code == 2


def test_gen_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "g.edges"
    code, _, _ = run_cli(
        capsys, "gen", "--n", "6", "--p", "0.5", "--seed", "1",
        "-o", str(out_path),
    )
    assert code == 0
    g = sg.parse_edge_list(out_path.read_text())
    assert g == sg.gen_random_sb(6, 0.5, 1)
    assert sg.is_strongly_biconnected(g)


def test_gen_stdout_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "gen", "--n", "5", "--p", "0.6", "--seed", "3")
    assert code == 0
    code, out2, _ = run_cli(capsys, "gen", "--n", "5", "--p", "0.6", "--seed", "3")
    assert out1 == out2


def test_gen_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "gen", "--n", "100", "--p", "0.001", "--seed", "7",
        "--max-tries", "200",
    )
    assert code == 3
    assert "resource error" in err


def test_gen_bad_parameters_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "2", "--p", "0.5", "--seed", "1"])
    assert exc.value.code == 2
    assert "argument --n: must be >= 3" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "5", "--p", "1.5", "--seed", "1"])
    assert exc.value.code == 2
    assert "argument --p: must be in (0, 1], got 1.5" in capsys.readouterr().err


def test_oracle_file_mode(capsys, fig1_path):
    code, out, _ = run_cli(capsys, "oracle", fig1_path, "--guard", "16")
    assert code == 0
    assert "ok" in out


def test_oracle_sweep_mode(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--count", "10", "--seed", "5")
    assert code == 0
    assert "10 random graphs" in out


def test_export_dot_highlight(capsys, fig1_path):
    code, out, _ = run_cli(
        capsys, "export-dot", fig1_path, "--highlight", "2eb"
    )
    assert code == 0
    assert out.startswith("digraph g {")
    assert out.count("->") == 29
    shared_line = next(
        ln for ln in out.splitlines() if ln.strip().startswith("3 [")
    )
    assert shared_line.count("#") == 2


def test_bench_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--sizes", "16,32", "--repeat", "1", "--seed", "11",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    backends = {r["backend"] for r in data["runs"]}
    assert "pure" in backends
    assert all(r["seconds"] >= 0 for r in data["runs"])


def test_stdin_input(capsys, monkeypatch):
    import io as _io

    monkeypatch.setattr(sys, "stdin", _io.StringIO("3 3\n0 1\n1 2\n2 0\n"))
    code, out, _ = run_cli(capsys, "check", "-")
    assert code == 0
    assert json.loads(out)["strongly_biconnected"] is True


def test_module_entry_point(fig1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sbgraph", "blocks", "--kind", "2eb", fig1_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["blocks"] == [
        [3, 14],
        [3, 8, 9, 10, 11, 12, 13],
    ]


def test_kernels_flag(capsys, fig1_path):
    before = _kernels.backend_name()
    try:
        code, out, _ = run_cli(
            capsys, "--kernels", "pure", "blocks", "--kind", "2eb", fig1_path
        )
        assert code == 0
        assert json.loads(out)["blocks"][0] == [3, 14]
    finally:
        _kernels.set_backend(before)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["oracle", "--count", "3", "--nmin", "5", "--nmax", "4"],
         "--nmax (4) must be >= --nmin (5)"),
        (["bench", "--sizes", "1,2"], "every size must be >= 3"),
        (["bench", "--sizes", "16,x"], "comma-separated integers"),
        (["oracle", "--count", "3", "--nmin", "1", "--nmax", "2"],
         "argument --nmin: must be >= 3, got 1"),
        (["oracle", "--count", "-5"], "argument --count: must be >= 0, got -5"),
        (["gen", "--n", "2", "--p", "0.5", "--seed", "1"],
         "argument --n: must be >= 3, got 2"),
        (["bench", "--repeat", "0", "--sizes", "3", "--backends", "pure"],
         "argument --repeat: must be >= 1, got 0"),
        (["analyze", "fig2.edges", "--parallel", "on"],
         "unrecognized arguments: --parallel on"),
        (["gen", "--n", "5", "--p", "0", "--seed", "1"],
         "argument --p: must be in (0, 1], got 0"),
        (["gen", "--n", "5", "--p", "nan", "--seed", "1"],
         "argument --p: must be in (0, 1], got nan"),
        (["gen", "--n", "5", "--p", "x", "--seed", "1"],
         "argument --p: invalid float value: 'x'"),
        (["oracle", "--count", "3", "--p", "1.01"],
         "argument --p: must be in (0, 1], got 1.01"),
        (["oracle", "--count", "3", "--p", "-0.5"],
         "argument --p: must be in (0, 1], got -0.5"),
        (["gen", "--n", "5", "--p", "0.5", "--seed", "1", "--max-tries", "-3"],
         "argument --max-tries: must be >= 1, got -3"),
        (["--kernels", "c", "analyze", "fig1.edges"],
         "argument --kernels: invalid choice: 'c'"),
        (["bench", "--backends", "c"],
         "argument --backends: invalid choice: 'c'"),
    ],
)
def test_invalid_arguments_exit_2(capsys, monkeypatch, argv, message):
    # As on a host without the compiled extension.
    monkeypatch.delitem(_kernels._BACKENDS, "c", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{dir}"],
        ["gen", "--n", "5", "--p", "0.5", "--seed", "1", "-o", "{dir}"],
    ],
)
def test_unopenable_path_exit_2(capsys, tmp_path, argv):
    # Like a missing file, a path that cannot be opened (here a directory)
    # returns 2 from main with a message naming it, not a traceback.
    argv = [a.format(dir=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"cannot open {str(tmp_path)!r}" in err
    assert "Traceback" not in err
    assert out == ""
