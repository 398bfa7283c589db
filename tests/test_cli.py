"""End-to-end command-line behavior: exit codes, determinism, formats."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from math import comb
from pathlib import Path

import pytest

import semind
from semind import cli, counting, flags, graphs, profiles, search
from semind.cli import main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SEMIND_CACHE", str(tmp_path / "cache"))
    return tmp_path


def usage_error(capsys, *argv) -> tuple[str, str]:
    """Run argv, which must fail as a usage error: exit 2 with one `error:`
    line and no traceback on stderr.  Returns stdout and stderr."""
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return out, err


def test_count_circulant_ap4(capsys, cache):
    code, out, _ = run(
        capsys, "count", "--pattern", "ap4", "--construct", "circulant:0.6667",
        "--n", "600",
    )
    assert code == 0
    rho = float(out.splitlines()[0].split("rho=")[1])
    assert abs(rho - 4 / 27) / (4 / 27) < 0.02
    assert "curve=ap4" in out


def test_count_circulant_at_n_8000(capsys, cache):
    # a circulant's masks cost about 1 + n / 800 units per vertex to make, not
    # one per ordered pair, so ap4 on 8,000 vertices fits the work budget
    code, out, err = run(
        capsys, "count", "--pattern", "ap4", "--construct", "circulant:0.5", "--n", "8000",
    )
    assert code == 0 and err == ""
    assert out.startswith("pattern='4 RFFBFR' host='circulant:0.5:n=8000' count=")


def test_count_refuses_a_circulant_past_its_memory_cap(capsys, cache, monkeypatch):
    # its masks would take 2 n^2 bits, 400 MB here, though the count fits the
    # work budget; it is refused before any mask is made
    monkeypatch.setattr(graphs.Circulant, "masks", property(lambda c: pytest.fail("masks made")))
    out, err = usage_error(
        capsys, "count", "--pattern", "ap4", "--construct", "circulant:0.5", "--n", "41000",
    )
    assert out == "" and "circulants are capped at n <= 32768 (memory guard)" in err


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
    code, out, err = run(
        capsys, "count", "--pattern", "6 RRRRRRRRRRRRRRR", "--construct", "circulant:0.5",
        "--n", "600",
    )
    assert code == 2 and out == "" and "exceeds the work budget of 5e+07; reduce n" in err


@pytest.mark.parametrize("pattern,construct,n", [
    ("peenn", "circulant:0.5", 100),
    ("ap4", "complement:complement:circulant:0.5", 10),
    ("ac4", "complement:circulant:0.475", 41),  # odd degree on odd n
])
def test_count_vertex_transitive_host(capsys, cache, pattern, construct, n):
    code, out, err = run(capsys, "count", "--pattern", pattern, "--construct", construct,
                         "--n", str(n))
    host = graphs.make_construction(cli.construct_from_arg(construct), n)
    expected = counting.count_injections(cli.pattern_from_arg(pattern), host)
    assert code == 0 and err == ""
    assert f" count={expected} " in out.splitlines()[0]


def test_count_rejects_profile_k_before_counting(capsys, cache):
    cases = (
        (("--host", "5 RBBRBRRBBR", "--profile-k", "9"), "profiles support 1 <= k <= 5"),
        (("--host", "5 RBBRBRRBBR", "--profile-k", "0"), "profiles support 1 <= k <= 5"),
        (("--host", "4 RBBRBR", "--profile-k", "5"), "k exceeds host size"),
        (("--construct", "cliques:0.5", "--n", "5000", "--profile-k", "5"),
         "exceeds the work budget of 5e+07; reduce the host size or k"),
    )
    for extra, message in cases:
        code, out, err = run(capsys, "count", "--pattern", "ap4", *extra)
        assert code == 2 and out == ""
        assert message in err


def test_count_profile_budget_counts_prefixes(capsys, cache):
    # a 5-profile enumerates C(n, 3) prefixes, each followed by n host
    # vertices: 80 vertices fit the work budget, 400 do not
    code, out, err = run(
        capsys, "count", "--pattern", "ap4", "--construct", "circulant:0.5",
        "--n", "80", "--profile-k", "5",
    )
    assert code == 0 and err == ""
    rows = out.split("class_code,count\n")[1].splitlines()
    assert sum(int(row.split(",")[1]) for row in rows if row.startswith("5 ")) == comb(80, 5)
    code, out, err = run(
        capsys, "count", "--pattern", "ap4", "--construct", "circulant:0.5",
        "--n", "400", "--profile-k", "5",
    )
    assert code == 2 and out == ""
    assert "estimated work 8.47e+09 exceeds the work budget of 5e+07" in err


def test_verify_exit_codes(capsys, cache):
    code, out, _ = run(capsys, "verify", "ap4")
    assert code == 0
    assert "verdict=PASS" in out
    code, out, _ = run(capsys, "verify", "ap4", "--alpha-max", "1/4")
    assert code == 0 and "verdict=PASS" in out
    code, out, _ = run(capsys, "verify", "ap4", "--alpha-max", "1")  # the domain's end
    assert code == 1 and "verdict=FAIL" in out
    code, out, _ = run(
        capsys, "verify", "peenn", "--B", "sqrt2-1", "--C", "-0.1",
        "--interval", "1/sqrt2,0.8",
    )
    assert code == 1
    code, out, _ = run(capsys, "verify", "stability")
    assert code == 0


# sha256 of the full stdout of each passing `verify` run, recorded before
# the two certificates became data entries of one checker
VERIFY_GOLDEN = {
    ("verify", "ap4"): "ca3b9d24e61b697e91b221e4caf6be104c3896fe8c6dce410eb173a1206a84d4",
    ("verify", "ap4", "--alpha-max", "1/4"):
        "0a0ed284c69dee12006d01fc8d74dc93a83af4e8b876495230f0a8ac708f2133",
    ("verify", "peenn"): "63e662fbcd9b079090bd8159639bbf54d73c24c25bcffe107624d7442bc5765a",
    ("verify", "peenn", "--B", "sqrt2-1", "--C", "sqrt2-1", "--interval", "1/sqrt2,0.8"):
        "7337ffb2750c5510f47ad58a5dac6fd03a1b941f872001e4b607a6e4eda4436d",
    ("verify", "stability"): "a9c1ef2df4cc95c7f3b72e08798c4330167890faef3f255b2a557d90e1bef3ef",
}


@pytest.mark.parametrize("argv", list(VERIFY_GOLDEN), ids=" ".join)
def test_verify_output_is_unchanged(capsys, cache, tmp_path, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GOLDEN[argv]
    (report,) = (tmp_path / "cache" / "reports").iterdir()
    body = report.read_text()
    assert body.endswith("\n" + out) and body.count("\n# sha256 data/") == 3


# sha256 of the `class=` lines and of the full stdout of each failing run;
# the full stdout pins the "at ..." and "near ..." points of every FAIL line
@pytest.mark.parametrize("argv,class_lines,stdout,verdict,fails,named,unnamed", [
    (("verify", "ap4", "--alpha-max", "3/5"),
     "7ee976f33b6d5709549a435328fd2bb8b47bd2fc8e6cefbc206d90a50a255d3a",
     "3462120f46531dfea17c278991b3d1c05caa72060d692a066b36e831d9af14ad",
     "verdict=FAIL classes=11 max_coeff=VIOLATION", 1, ("C4",), ("C3", "class=")),
    (("verify", "peenn", "--B", "sqrt2-1", "--C", "-0.1", "--interval", "1/sqrt2,0.8"),
     "951d711f0281470a4dc6e7ceeca97b4559afb71573e092fc34613143f9c9e61d",
     "616c7657becb8415e8170dea98e879c46c46dbfc48ebb9697744b986d2e795cf",
     "verdict=FAIL classes=34 max_coeff=VIOLATION", 2,
     ("class='5 BBRRBRRRRR'", "30*C"), ()),
    (("verify", "peenn", "--B", "1e-3", "--C", "0", "--interval", "4/5,1"),
     "1bcf15f0fa5137bf2d4280623c5cf86403c266d5a99653317a41fc6a53a353af",
     "fdc1a8702cbd889397ff3bb74001d3bbc42edd4338c8a8d8f56e872a24a541c9",
     "verdict=FAIL classes=34 max_coeff=VIOLATION", 14,
     ("at a=0.800000", "near a=0.950000", "near a=0.996875"), ("square multiplier",)),
], ids=["ap4", "peenn", "peenn-rational"])
def test_verify_failing_runs(capsys, cache, argv, class_lines, stdout, verdict, fails, named, unnamed):
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 1 and lines[-1] == verdict
    got = "".join(ln + "\n" for ln in lines if ln.startswith("class="))
    assert hashlib.sha256(got.encode()).hexdigest() == class_lines
    failures = [ln for ln in lines if ln.startswith("FAIL ")]
    assert len(failures) == fails
    for word in named:
        assert any(word in f for f in failures), (word, failures)
    assert not any(word in f for f in failures for word in unnamed)
    assert hashlib.sha256(out.encode()).hexdigest() == stdout


def test_verify_reports_archived(capsys, cache, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
    for _ in range(3):  # all within one (pinned) second
        code, _, _ = run(capsys, "verify", "stability")
        assert code == 0
    reports = sorted((tmp_path / "cache" / "reports").iterdir())
    assert [p.name for p in reports] == [
        "20260101-000000-verify-stability-1.txt",
        "20260101-000000-verify-stability-2.txt",
        "20260101-000000-verify-stability.txt",
    ]
    data = Path(semind.__file__).parent / "data"
    header = [f"# semind {semind.__version__}", "# argv: verify stability"] + [
        f"# sha256 data/{f.name} {hashlib.sha256(f.read_bytes()).hexdigest()}"
        for f in sorted(data.glob("*.txt"))
    ]
    assert len(header) == 5
    for report in reports:
        assert report.read_text().splitlines()[: len(header)] == header


def test_enumerate_cache_format(capsys, cache, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--k", "4")
    assert code == 0
    path = tmp_path / "cache" / "basis-k4.txt"
    lines = path.read_text().splitlines()
    assert lines[0] == "# semind-basis k=4 count=11"
    assert len(lines) == 12


def test_profile_rejects_bad_beta_range(capsys, cache, tmp_path):
    out_file = tmp_path / "curves.csv"
    for lo, hi in (("0.5", "0.2"), ("-0.1", "0.5"), ("0.2", "1.5")):
        for extra in ((), ("--out", str(out_file))):
            code, out, err = run(
                capsys, "profile", "--curve", "ap4", "--beta-min", lo, "--beta-max", hi,
                *extra,
            )
            assert code == 2 and out == ""
            assert "need 0 <= --beta-min <= --beta-max <= 1" in err
    assert not out_file.exists()


@pytest.mark.parametrize("step", ["1e-8", "5e-324"])  # 1 / 5e-324 overflows to inf
def test_profile_refuses_a_grid_over_the_work_budget(capsys, cache, monkeypatch, step):
    calls = []
    monkeypatch.setattr(profiles, "_raw_value", lambda *a: calls.append(a))
    out, err = usage_error(capsys, "profile", "--curve", "ap4", "--beta-grid-step", step)
    assert out == "" and "exceeds the work budget" in err
    assert calls == []


@pytest.mark.parametrize("fig_id, step", [(4, "0.03"), (5, "0.03"), (7, "0.02")])
def test_profile_and_figure_emit_the_same_rows(capsys, cache, tmp_path, fig_id, step):
    """Each series of a figure equals `profile` of its curve on its range,
    including ranges whose last grid point would overshoot hi: ac4 on
    [0, 0.5] at step 0.03 ends at 0.48."""
    from semind.figures import figure_definition

    assert run(capsys, "figure", "--id", str(fig_id), "--out", str(tmp_path),
               "--beta-grid-step", step)[0] == 0
    fig_rows = (tmp_path / f"figure{fig_id}.csv").read_text().splitlines()[1:]

    def rows_of(label):  # a label may hold a comma: beta,value,<label>,flag
        return [r for r in fig_rows if r.split(",", 2)[2].rpartition(",")[0] == label]

    series, _, _ = figure_definition(fig_id, float(step))
    for s in series:
        label = s.curve_id.label()
        code, out, _ = run(capsys, "profile", "--curve", label, "--beta-min", repr(s.lo),
                           "--beta-max", repr(s.hi), "--beta-grid-step", step)
        assert code == 0
        assert out.splitlines()[1:] == rows_of(label)
    assert sum(map(len, map(rows_of, {s.curve_id.label() for s in series}))) == len(fig_rows)
    if fig_id == 4:
        assert rows_of("ac4")[-1].startswith("0.48,")


def test_search_loads_enumerated_basis(capsys, cache, monkeypatch):
    args = ("search", "--pattern", "ap4", "--n", "6", "--profile")
    code, want, _ = run(capsys, *args)
    assert code == 0
    assert run(capsys, "enumerate", "--k", "6")[0] == 0

    def no_enumeration(k):
        raise RuntimeError(f"enumerated k={k}")

    monkeypatch.setattr(graphs, "_enumerate_classes", no_enumeration)
    graphs._graph_classes.cache_clear()
    try:
        code, out, _ = run(capsys, *args)
        assert code == 0 and out == want
        graphs._graph_classes.cache_clear()
        with pytest.raises(RuntimeError):  # only the CLI registers a cache directory
            graphs._graph_classes(6)
    finally:
        graphs._graph_classes.cache_clear()


def test_cli_paths_load_neither_numpy_nor_scipy(tmp_path):
    # each command runs in a fresh process, which then lists the modules it
    # loaded: numpy and scipy never, and of the package only what it runs;
    # a bare import, which every command pays, and the curve commands
    # `profile` and `figure` load no dataclasses, inspect or fractions either
    script = textwrap.dedent("""
        import json
        import sys

        def loaded(*roots):
            return sorted(m for m in sys.modules if m.partition(".")[0] in roots)

        def lazy_import():
            import colorsys

        argv, expected, light = json.loads(sys.argv[1])
        import semind.cli
        if argv:
            assert semind.cli.main(argv) == 0
        heavy = loaded("dataclasses", "inspect", "fractions")
        assert not (light and heavy), heavy
        assert not loaded("numpy", "scipy"), loaded("numpy", "scipy")
        assert loaded("semind") == sorted(expected), loaded("semind")
        assert not loaded("colorsys")
        lazy_import()
        assert loaded("colorsys") == ["colorsys"]  # the probe sees lazy imports
    """)
    src = str(Path(semind.__file__).resolve().parent.parent)
    env = dict(os.environ, SEMIND_CACHE=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    search_modules = ("graphs", "counting", "search")
    for argv, modules in (
        ((), ()),  # a bare `import semind.cli`
        (("enumerate", "--k", "4"), ("graphs",)),
        (("count", "--pattern", "peenn", "--construct", "clique_iso:0.8", "--n", "1000"),
         ("graphs", "counting")),
        (("search", "--pattern", "ap4", "--n", "5", "--profile"), search_modules),
        (("oracle", "--pattern", "ap4", "--n", "4"), search_modules),
        (("figure", "--id", "6", "--beta-grid-step", "0.05"), ("figures",)),
        (("profile", "--curve", "prog_s:2,1+conj_s21", "--beta-grid-step", "0.05"),
         ("figures",)),
        (("verify", "stability"), ("graphs", "counting", "exactalg", "flags", "certificates")),
    ):
        expected = ["semind", "semind.cli", "semind.profiles", *(f"semind.{m}" for m in modules)]
        light = modules in ((), ("figures",))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps([argv, expected, light])], cwd=tmp_path,
            env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)


def test_profile_deterministic_and_threaded(capsys, cache, tmp_path):
    args = (
        "profile", "--curve", "ap4+ds:2", "--beta-min", "0", "--beta-max", "1",
        "--beta-grid-step", "0.01",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    code, out3, _ = run(capsys, "--threads", "2", *args)
    assert code == 2 and out3 == ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\n")
    code, out3, err = run(capsys, "--config", str(cfg), *args)
    assert code == 2 and out3 == "" and "unknown key 'threads'" in err
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


def test_hill_climb_cli_symmetric_witness(capsys, cache):
    # the 12 vertices of the all-red witness are twins: 12! orderings minimize its code
    code, out, _ = run(
        capsys, "search", "--hill", "--pattern", "ac4", "--n", "12", "--beta", "1",
        "--restarts", "0",
    )
    assert code == 0
    assert out == f"n=12 m=66 best=0 rho=0 witness='12 {'R' * 66}'\n"


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
    cfg.write_text("tolerance = 1e-10\n")
    code, _, err = run(capsys, "--config", str(cfg), "profile", "--curve", "ap4")
    assert code == 2 and "unknown key 'tolerance'" in err
    for key, value, kind in (("seed", "x", "an integer"), ("beta_grid_step", "fine", "a number")):
        cfg.write_text(f"# run settings\n{key} = {value}\n")
        code, out, err = run(capsys, "--config", str(cfg), "profile", "--curve", "ap4")
        assert code == 2 and out == ""
        assert f"{cfg}:2: {key}: expected {kind}, got '{value}'" in err


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


@pytest.mark.parametrize("argv", [
    ("count", "--pattern", "s:2", "--host", "3 RRR"),
    ("count", "--pattern", "ds:x", "--host", "3 RRR"),
    ("count", "--pattern", "tree:1", "--host", "3 RRR"),
    ("count", "--pattern", "ap4", "--construct", "three_part:0.3", "--n", "10"),
    ("count", "--pattern", "ap4", "--construct", "cliques:a", "--n", "10"),
    ("profile", "--curve", "ds:x"),
    ("profile", "--curve", "ell:2"),
    ("profile", "--curve", "ap4:junk"),
])
def test_malformed_arguments_are_named(capsys, cache, argv):
    code, out, err = run(capsys, *argv)
    bad = argv[argv.index("--construct") + 1] if "--construct" in argv else argv[2]
    assert code == 2 and out == ""
    assert f"{bad!r}: expected " in err, err


def test_count_builds_a_constructed_host_once(capsys, cache, monkeypatch):
    calls = []
    to_host = graphs.Circulant.to_host

    def counted(circ):
        calls.append(circ)
        return to_host(circ)

    monkeypatch.setattr(graphs.Circulant, "to_host", counted)
    code, out, _ = run(
        capsys, "count", "--pattern", "ap4", "--construct", "circulant:0.5",
        "--n", "40", "--profile-k", "3",
    )
    assert code == 0 and len(calls) == 1
    assert out == (
        "pattern='4 RFFBFR' host='circulant:0.5:n=40' count=299600 rho=0.11703125\n"
        "class_code,count\n3 BBB,480\n3 BBR,5400\n3 BRR,2200\n3 RRR,1800\n"
        "curve=ap4 beta=0.512820512821 value=0.12812083818 in_range=1\n"
    )


def test_usage_errors_share_one_class():
    for exc in (graphs.GraphFormatError, semind.UnsupportedSizeError,
                graphs.ConstructionError, profiles.CurveSpecError):
        assert issubclass(exc, semind.UsageError)
    for exc in (profiles.BracketError, flags.FlagTypeError):
        assert not issubclass(exc, semind.UsageError)


@pytest.mark.parametrize("argv,message", [
    (("verify", "ap4", "--alpha-max", "1/0"), "cannot parse exact value '1/0'"),
    (("verify", "peenn", "--B", "1/0", "--C", "1", "--interval", "0,1"),
     "cannot parse exact value '1/0'"),
    (("verify", "peenn", "--B", "1", "--C", "1", "--interval", "0.5"),
     "bad --interval '0.5': expected lo,hi with exact endpoints"),
    (("count", "--pattern", "@missing.txt", "--host", "3 RRR"), "'missing.txt'"),
    (("count", "--pattern", "ap4", "--host", "@missing.txt"), "'missing.txt'"),
    (("count", "--pattern", "@binary.txt", "--host", "3 RRR"), "binary.txt: not UTF-8 text"),
    (("--config", "missing.cfg", "profile", "--curve", "ap4"), "'missing.cfg'"),
    (("profile", "--curve", "ap4", "--out", "no/such/dir/x.csv"), "'no/such/dir/x.csv'"),
    (("count", "--pattern", "ap4", "--construct", "cliques:0.5", "--n", "1"),
     "constructions need n >= 2"),
    (("verify", "peenn", "--B", "1", "--C", "1", "--interval", "0.8,0.5"),
     "--interval '0.8,0.5' needs lo < hi"),
    (("verify", "peenn", "--B", "1", "--C", "1", "--interval", "0.5,0.5"),
     "--interval '0.5,0.5' needs lo < hi"),
    (("verify", "ap4", "--alpha-max", "-1"), "--alpha-max must be positive (got '-1')"),
    (("verify", "ap4", "--alpha-max", "0"), "--alpha-max must be positive (got '0')"),
    # flags that the chosen mode never reads
    (("search", "--pattern", "ap4", "--n", "5", "--m", "3", "--hill"),
     "--m is not read with --hill"),
    (("search", "--pattern", "ap4", "--n", "5", "--m", "3", "--profile"),
     "--m is not read with --profile"),
    (("search", "--pattern", "ap4", "--n", "5", "--beta", "0.5"),
     "--beta is not read without --hill"),
    (("search", "--pattern", "ap4", "--n", "5", "--seed-construct", "cliques:0.5"),
     "--seed-construct is not read without --hill"),
    (("count", "--pattern", "ap4", "--host", "4 RBBRBR", "--n", "4"),
     "--n is not read with --host"),
    (("verify", "ap4", "--B", "1"), "--B is not read by verify ap4"),
    (("verify", "ap4", "--C", "1"), "--C is not read by verify ap4"),
    (("verify", "ap4", "--interval", "0,1"), "--interval is not read by verify ap4"),
    (("verify", "ap4", "--open-lo"), "--open-lo is not read by verify ap4"),
    (("verify", "peenn", "--alpha-max", "1/4"), "--alpha-max is not read by verify peenn"),
    (("verify", "stability", "--B", "1"), "--B is not read by verify stability"),
    (("verify", "stability", "--C", "1"), "--C is not read by verify stability"),
    (("verify", "stability", "--interval", "0,1"), "--interval is not read by verify stability"),
    (("verify", "stability", "--open-lo"), "--open-lo is not read by verify stability"),
    (("verify", "stability", "--alpha-max", "1/4"),
     "--alpha-max is not read by verify stability"),
    # flags are spelled out: a prefix of a flag is no flag
    (("search", "--pattern", "ap4", "--n", "5", "--pro"), "unrecognized arguments: --pro"),
    (("count", "--pattern", "ap4", "--host", "3 RRR", "--profile", "3"),
     "unrecognized arguments: --profile 3"),
    (("--cache=cache2", "verify", "stability"), "unrecognized arguments: --cache=cache2"),
    (("--cache", "cache2", "verify", "stability"), "invalid choice: 'cache2'"),
    (("search", "--hill", "--pattern", "ac4", "--n", "20", "--beta", "0.4", "--seed", "1"),
     "unrecognized arguments: --seed 1"),
    # --n 0 is given, so it reaches the constructions' own check
    (("count", "--pattern", "ap4", "--construct", "cliques:0.5,0.5", "--n", "0"),
     "constructions need n >= 2"),
    # certificate intervals outside the parameter's domain [0, 1]
    (("verify", "peenn", "--B", "0", "--C", "0", "--interval=-1,1/2"),
     "the interval [-1, 1/2] of a leaves its domain [0, 1]"),
    (("verify", "peenn", "--B", "0", "--C", "0", "--interval", "1,2"),
     "the interval [1, 2] of a leaves its domain [0, 1]"),
    (("verify", "ap4", "--alpha-max", "5"), "the interval [0, 5] of x leaves its domain [0, 1]"),
    # an unknown flag is named, not only the value it leaves behind
    (("--cache", "x", "verify", "stability"), "unrecognized arguments: --cache;"),
    (("--cache", "x"), "unrecognized arguments: --cache;"),
    (("--cache", "verify", "stability"), "unrecognized arguments: --cache"),
    # flags that are read only together with others
    (("search", "--pattern", "ap4", "--n", "6", "--restarts", "5"),
     "--restarts is not read without --hill"),
    (("search", "--pattern", "ap4", "--n", "6", "--restarts", "0", "--profile"),
     "--restarts is not read without --hill"),
    (("verify", "peenn", "--open-lo"), "peenn overrides need --B, --C and --interval"),
    # a NaN construction fraction fails the range checks
    (("count", "--pattern", "ap4", "--construct", "cliques:nan", "--n", "10"),
     "clique fractions must be nonnegative"),
    (("count", "--pattern", "ap4", "--construct", "three_part:nan,0.2", "--n", "10"),
     "three_part needs x, y >= 0 and x + y <= 1"),
    (("count", "--pattern", "ap4", "--construct", "complement:cliques:nan", "--n", "10"),
     "clique fractions must be nonnegative"),
    (("search", "--hill", "--pattern", "ap4", "--n", "10", "--seed-construct", "cliques:nan"),
     "clique fractions must be nonnegative"),
])
def test_bad_input_is_a_usage_error(capsys, cache, monkeypatch, argv, message):
    monkeypatch.chdir(cache)  # relative file names resolve inside the test directory
    (cache / "binary.txt").write_bytes(b"\xff\xfe\x00")
    out, err = usage_error(capsys, *argv)
    assert out == "" and message in err, err


@pytest.mark.parametrize("argv,message", [
    (("search", "--pattern", "ap4", "--n", "5", "--m", "99"), "m must lie in [0, 10]"),
    (("enumerate", "--k", "0"), "k must be positive"),
    (("count", "--pattern", "s:0,0", "--host", "3 RRR"), "star needs a + b >= 1 leaves"),
    (("count", "--pattern", "ds:0", "--host", "3 RRR"), "double star needs s >= 1"),
    (("count", "--pattern", "tree:0-0", "--host", "3 RRR"),
     "tree edges need two distinct vertices"),
    (("count", "--pattern", "tree:0-5", "--host", "6 " + "R" * 15),
     "tree edges do not connect vertex 1 to vertex 0"),
    (("count", "--pattern", "tree:0-1,0-1", "--host", "3 RRR"), "tree edge 0-1 is repeated"),
    (("count", "--pattern", "tree:0-1,1-2,2-0", "--host", "3 RRR"),
     "tree edge 0-2 closes a cycle"),
    (("count", "--pattern", "tree:0-1,2-3", "--host", "4 RRRRRR"),
     "tree edges do not connect vertex 2 to vertex 0"),
])
def test_library_checks_are_usage_errors(capsys, cache, argv, message):
    out, err = usage_error(capsys, *argv)
    assert out == "" and message in err, err


def test_search_and_oracle_reject_small_n_before_any_work(capsys, cache, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("swept")

    for name in ("exact_max", "full_profile", "brute_force_profile"):
        monkeypatch.setattr(search, name, no_sweep)
    for argv in (
        ("search", "--pattern", "ap4", "--n", "3"),
        ("search", "--pattern", "ap4", "--n", "3", "--profile"),
        ("oracle", "--pattern", "ap4", "--n", "3"),
    ):
        out, err = usage_error(capsys, *argv)
        assert out == "" and "--n must be at least the pattern's 4 vertices (got 3)" in err


def test_work_budget_refuses_before_any_count(capsys, cache, monkeypatch):
    def no_count(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(counting, "_extend", no_count)
    monkeypatch.setattr(counting, "blowup_injections", no_count)
    iso = graphs.make_construction(graphs.clique_plus_isolated(0.7071), 60)
    (cache / "iso60.txt").write_text(iso.to_text())
    k6 = "6 " + "R" * 15
    for argv in (
        ("count", "--pattern", k6, "--host", "60 " + "R" * comb(60, 2)),
        ("count", "--pattern", k6, "--host", f"@{cache / 'iso60.txt'}"),
        ("count", "--pattern", "9 " + "F" * 36,
         "--construct", "cliques:" + ",".join(["0.1"] * 10), "--n", "100"),
        ("oracle", "--pattern", "ap4", "--n", "7"),
        ("count", "--pattern", k6, "--construct", "circulant:0.5", "--n", "600"),
        ("count", "--pattern", "ap4", "--construct", "cliques:0.5", "--n", "5000",
         "--profile-k", "5"),
        ("search", "--hill", "--pattern", "peenn", "--n", "120", "--beta", "0.3",
         "--restarts", "1"),
    ):
        out, err = usage_error(capsys, *argv)
        assert out == "" and "exceeds the work budget of 5e+07" in err


def test_count_and_profile_share_one_work_budget(capsys, cache, monkeypatch):
    def no_count(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(counting, "_extend", no_count)
    monkeypatch.setattr(counting, "blowup_injections", no_count)
    monkeypatch.setattr(counting, "induced_profile", no_count)
    free7, k5 = cli.pattern_from_arg("7 " + "F" * 21), cli.pattern_from_arg("5 " + "R" * 10)
    nine_parts = "cliques:" + ",".join(["0.1"] * 8)
    host = graphs.parse_host("110 " + ("RB" * 3000)[:comb(110, 2)])
    parts = graphs.realize(cli.construct_from_arg(nine_parts), 100)
    # each estimate fits the budget on its own, but not their sum
    for count_units, profile_units in (
        (counting.count_work(free7, parts), counting.profile_work(100, 5)),
        (counting.count_work(k5, host), counting.profile_work(110, 5)),
    ):
        assert max(count_units, profile_units) <= semind.WORK_BUDGET
        assert count_units + profile_units > semind.WORK_BUDGET
    for argv in (
        ("--pattern", free7.to_text(), "--construct", nine_parts, "--n", "100"),
        ("--pattern", k5.to_text(), "--host", host.to_text()),
    ):
        out, err = usage_error(capsys, "count", *argv, "--profile-k", "5")
        assert out == "" and "exceeds the work budget of 5e+07" in err


def test_hill_climb_past_n_200(capsys, cache):
    code, out, err = run(
        capsys, "search", "--hill", "--pattern", "ac4", "--n", "300", "--beta", "0.4",
        "--restarts", "0",
    )
    assert code == 0 and err == "" and out.startswith("n=300 m=17940 ")


def test_verify_prints_a_report_it_cannot_archive(capsys, cache):
    not_a_dir = cache / "cache-file"
    not_a_dir.write_text("")
    out, err = usage_error(capsys, "--cache-dir", str(not_a_dir), "verify", "stability")
    assert "verdict=PASS" in out and "cache-file" in err


class _ClosedStdout:
    """A stdout whose reader has gone, as in `semind ... | head -1`: the
    broken pipe shows on `write` or, for output still buffered, on `flush`."""

    def __init__(self, fd: int, on: str):
        self.fd, self.on = fd, on

    def write(self, text: str) -> int:
        if self.on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self) -> None:
        if self.on == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("on", ["write", "flush"])
def test_closed_stdout_ends_the_run_quietly(capsys, cache, monkeypatch, on):
    with open(cache / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(sink.fileno(), on))
        code = main(["count", "--pattern", "ap4", "--host", "5 RBBRBRRBBR", "--profile-k", "3"])
    assert code == 1 and capsys.readouterr().err == ""


def test_internal_fault_exits_3_with_a_traceback(capsys, cache, monkeypatch):
    def fault(args, cfg):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "cmd_count", fault)
    code, out, err = run(capsys, "count", "--pattern", "ap4", "--host", "3 RRR")
    assert code == 3 and out == ""
    assert err.startswith("Traceback") and err.endswith("ValueError: internal fault\n")
    assert not any(line.startswith("error:") for line in err.splitlines())
