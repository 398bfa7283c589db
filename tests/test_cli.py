"""End-to-end command-line behavior: exit codes, determinism, formats."""

import os
from pathlib import Path

import pytest

from semind.cli import main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SEMIND_CACHE", str(tmp_path / "cache"))
    return tmp_path


def test_count_circulant_ap4(capsys, cache):
    code, out, _ = run(
        capsys, "count", "--pattern", "ap4", "--construct", "circulant:0.6667",
        "--n", "600",
    )
    assert code == 0
    rho = float(out.splitlines()[0].split("rho=")[1])
    assert abs(rho - 4 / 27) / (4 / 27) < 0.02
    assert "curve=ap4" in out


def test_count_host_literal(capsys, cache):
    code, out, _ = run(capsys, "count", "--pattern", "ap4", "--host", "3 RRR")
    assert code == 0
    assert "count=0" in out


def test_count_usage_errors(capsys, cache):
    code, _, err = run(capsys, "count", "--pattern", "nosuch", "--host", "3 RRR")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "count", "--pattern", "ap4", "--host", "3 RXR")
    assert code == 2
    code, _, err = run(capsys, "count", "--pattern", "ap4")
    assert code == 2


def test_verify_exit_codes(capsys, cache):
    code, out, _ = run(capsys, "verify", "ap4")
    assert code == 0
    assert "verdict=PASS" in out
    code, out, _ = run(
        capsys, "verify", "peenn", "--B", "sqrt2-1", "--C", "-0.1",
        "--interval", "1/sqrt2,0.8",
    )
    assert code == 1
    code, out, _ = run(capsys, "verify", "stability")
    assert code == 0


def test_verify_reports_archived(capsys, cache, tmp_path):
    code, _, _ = run(capsys, "verify", "stability")
    assert code == 0
    reports = list((tmp_path / "cache" / "reports").glob("*-verify-stability.txt"))
    assert reports


def test_enumerate_cache_format(capsys, cache, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--k", "4")
    assert code == 0
    path = tmp_path / "cache" / "basis-k4.txt"
    lines = path.read_text().splitlines()
    assert lines[0] == "# semind-basis k=4 count=11"
    assert len(lines) == 12


def test_profile_deterministic_and_threaded(capsys, cache, tmp_path):
    args = (
        "profile", "--curve", "ap4+ds:2", "--beta-min", "0", "--beta-max", "1",
        "--beta-grid-step", "0.01",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    code, out3, _ = run(capsys, "--threads", "2", *args)
    assert code == 0 and out3 == out1
    header = out1.splitlines()[0]
    assert header == "beta,value,curve,flag"
    assert any(",ds:2,0" in ln for ln in out1.splitlines())  # flagged rows


def test_search_and_oracle_agree(capsys, cache):
    _, out_s, _ = run(capsys, "search", "--pattern", "ac4", "--n", "4", "--profile")
    _, out_o, _ = run(capsys, "oracle", "--pattern", "ac4", "--n", "4")
    assert out_s == out_o


def test_search_line_format(capsys, cache):
    code, out, _ = run(capsys, "search", "--pattern", "ap4", "--n", "4", "--m", "2")
    assert code == 0
    assert out.startswith("n=4 m=2 best=8 rho=")
    assert "witness='4 " in out


def test_hill_climb_cli(capsys, cache):
    code, out, _ = run(
        capsys, "search", "--pattern", "ac4", "--n", "20", "--hill",
        "--beta", "0.5", "--restarts", "1", "--seed-construct", "cliques:0.5,0.5",
    )
    assert code == 0
    assert out.startswith("n=20 m=95 ")


def test_hill_climb_cli_rejects_beta_out_of_range(capsys, cache):
    code, out, err = run(
        capsys, "search", "--pattern", "ac4", "--n", "20", "--hill", "--beta", "1.5",
    )
    assert code == 2 and out == ""
    assert "target density must lie in [0, 1]" in err


def test_hill_climb_cli_rejects_small_n(capsys, cache):
    code, out, err = run(capsys, "search", "--pattern", "ac4", "--n", "3", "--hill")
    assert code == 2 and out == ""
    assert "n >= the pattern's 4 vertices" in err
    code, out, err = run(capsys, "search", "--pattern", "2 R", "--n", "1", "--hill")
    assert code == 2 and out == ""
    assert "n >= 2" in err


def test_hill_climb_cli_rejects_negative_restarts(capsys, cache):
    code, out, err = run(
        capsys, "search", "--pattern", "ac4", "--n", "20", "--hill", "--restarts", "-1",
    )
    assert code == 2 and out == ""
    assert "restarts must be non-negative" in err


def test_figures_deterministic(capsys, cache, tmp_path):
    out1 = tmp_path / "f1"
    out2 = tmp_path / "f2"
    assert run(capsys, "figure", "--id", "4", "--out", str(out1),
               "--beta-grid-step", "0.02")[0] == 0
    assert run(capsys, "figure", "--id", "4", "--out", str(out2),
               "--beta-grid-step", "0.02")[0] == 0
    for name in ("figure4.csv", "figure4.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert run(capsys, "figure", "--id", "3", "--out", str(out1))[0] == 2


def test_config_file_and_flag_precedence(capsys, cache, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta_grid_step = 0.5\n")
    code, _, err = run(
        capsys, "--config", str(cfg), "profile", "--curve", "ap4",
    )
    assert code == 2  # config value out of range
    cfg.write_text("beta_grid_step = 0.05\n")
    code, out, _ = run(capsys, "--config", str(cfg), "profile", "--curve", "ap4")
    assert code == 0
    assert len(out.splitlines()) == 22  # header + 21 grid points
    code, out, _ = run(
        capsys, "--config", str(cfg), "profile", "--curve", "ap4",
        "--beta-grid-step", "0.1",
    )
    assert code == 0
    assert len(out.splitlines()) == 12  # flags win over the config file


def test_count_pattern_file(capsys, cache, tmp_path):
    pfile = tmp_path / "pat.txt"
    pfile.write_text("4 RFFBFR\n")
    code, out, _ = run(
        capsys, "count", "--pattern", f"@{pfile}", "--host", "4 RBBRBR",
    )
    assert code == 0
    assert "count=6" in out


def test_count_tree_builtin(capsys, cache):
    code, out, _ = run(
        capsys, "count", "--pattern", "tree:0-1,1-2", "--construct",
        "clique_iso:0.8", "--n", "50",
    )
    assert code == 0
    assert "count=" in out
