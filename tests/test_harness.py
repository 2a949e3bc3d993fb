import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rksv import cli
from rksv import petrov_galerkin as pg
from rksv.harness import (ConvergenceTable, ExperimentConfig, NumericalError, TableRow,
                          build_mesh, config_from_file, problem_definition,
                          resolve_cfl_exponent, run_checks, run_convergence, run_solve,
                          time_step)
from rksv.mesh import SubdivisionRule
from rksv.ssp_rk import integrate, ssp_tableau
from rksv.sv_space import error_norms, project_initial, reconstruct


def _cfg(**kw):
    base = dict(example=1, scheme=SubdivisionRule.RRSV, k=1, s=3,
                n_values=(8,), cfl=0.1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_exponent_defaults_follow_analyzer():
    assert resolve_cfl_exponent(_cfg(s=3)) == 1
    assert resolve_cfl_exponent(_cfg(s=4, k=2)) == Fraction(5, 4)
    assert resolve_cfl_exponent(_cfg(s=1)) == 2
    assert resolve_cfl_exponent(_cfg(s=4, cfl_exponent=Fraction(1))) == 1


def test_example_two_defaults_to_unit_exponent():
    cfg = _cfg(example=2, scheme=SubdivisionRule.RSV_ADAPTIVE, k=3, s=5,
               n_values=(32,), cfl=1e-3)
    assert resolve_cfl_exponent(cfg) == 1


def test_time_step_uses_min_cv_width():
    cfg = _cfg(s=4)
    mesh = build_mesh(cfg, 8)
    assert time_step(cfg, mesh) == pytest.approx(0.1 * mesh.min_cv_width ** 1.25)


def test_example_two_rejects_rrsv():
    with pytest.raises(ValueError):
        _cfg(example=2, scheme=SubdivisionRule.RRSV, k=3, s=5, cfl=1e-3)


def test_cfl_must_be_in_unit_interval():
    with pytest.raises(ValueError):
        _cfg(cfl=0.0)
    with pytest.raises(ValueError):
        _cfg(cfl=1.5)


def test_unknown_problem_rejected():
    with pytest.raises(ValueError):
        _cfg(example="no_such_problem")


def test_solve_at_time_zero_is_projection_error():
    cfg = _cfg(k=2, n_values=(16,), t_final=0.0)
    res = run_solve(cfg)
    definition = problem_definition(1)
    problem = definition.make()
    mesh = build_mesh(cfg, 16)
    state = project_initial(problem, mesh, 2)
    l2, linf = error_norms(state, problem)
    assert res.l2 == pytest.approx(l2, rel=1e-12)
    assert res.linf == pytest.approx(linf, rel=1e-12)
    assert res.steps == 0


def test_example_one_rsv_is_all_right_radau(capsys):
    # alpha=None is the constant 1, so the adaptive rule orients every element
    # right-Radau and the run is the RRSV run
    rsv = _cfg(scheme=SubdivisionRule.RSV_ADAPTIVE, k=2, s=3)
    mesh = build_mesh(rsv, 8)
    assert mesh.rule == SubdivisionRule.RSV_ADAPTIVE and not mesh.left_oriented.any()
    assert run_solve(rsv).l2 == run_solve(_cfg(k=2, s=3)).l2
    assert cli.main(["solve", "--example", "1", "--scheme", "rsv", "--k", "2", "--s", "3",
                     "--n", "8", "--cfl", "0.1"]) == 0


def test_convergence_requires_doubling_sizes():
    with pytest.raises(ValueError):
        run_convergence(_cfg(n_values=(8, 16)))
    with pytest.raises(ValueError):
        run_convergence(_cfg(n_values=(8, 16, 24)))


def test_convergence_csv_is_deterministic():
    cfg = _cfg(k=1, n_values=(4, 8, 16), t_final=0.2)
    a = run_convergence(cfg).to_csv()
    b = run_convergence(cfg).to_csv()
    assert a == b
    lines = a.splitlines()
    assert lines[0] == "k,N,L2,order_L2,Linf,order_Linf"
    first = lines[1].split(",")
    assert first[3] == "" and first[5] == ""          # no order on the first row
    assert "e-" in first[2]
    order = float(lines[3].split(",")[3])
    assert 1.5 < order < 2.5


def test_divergent_run_marks_nan_and_continues():
    # tau ~ sqrt(h_min) leaves forward Euler far outside its stability region
    cfg = _cfg(s=1, k=4, cfl=0.9, cfl_exponent=Fraction(1, 2), n_values=(4, 8, 16),
               t_final=5.0)
    table = run_convergence(cfg)
    assert np.isnan(table.rows[1].l2) and np.isnan(table.rows[2].l2)
    assert len(table.rows) == 3
    assert ",nan," in table.to_csv()


def test_weak_two_stability_witness():
    # s=1, k=1, tau = 0.1*h_min^2: energy growth stays within 1 percent over T=1
    cfg = _cfg(s=1, k=1, scheme=SubdivisionRule.LSV, cfl=0.1,
               cfl_exponent=Fraction(2), n_values=(32,))
    problem = problem_definition(1).make()
    mesh = build_mesh(cfg, 32)
    tau = time_step(cfg, mesh)
    state = project_initial(problem, mesh, 1)
    e0 = pg.energy_norm(reconstruct(state).coeffs, mesh)
    peak = 0.0

    def track(s):
        nonlocal peak
        peak = max(peak, pg.energy_norm(reconstruct(s).coeffs, mesh) / e0)

    integrate(state, problem, ssp_tableau(1), tau, 1.0, on_step=track)
    assert peak <= 1.01


def test_run_checks_small_sample_passes():
    report = run_checks(seed=7, trials=5)
    assert report.passed
    text = report.text()
    assert "jump identity" in text
    assert text.count("pass") >= len(report.results)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# custom run\n"
        "problem: degenerate_sine\n"
        "scheme = rsv\n"
        "k: 3\n"
        "s: 5\n"
        "n: 8,16\n"
        "cfl: 1e-3\n"
        "cfl_exp: 1\n"
        "t_final: 0.05\n"
        "seed: 9\n")
    cfg = config_from_file(path)
    assert cfg.example == "degenerate_sine"
    assert cfg.scheme == SubdivisionRule.RSV_ADAPTIVE
    assert cfg.n_values == (8, 16)
    assert cfg.cfl_exponent == 1
    assert cfg.seed == 9
    over = config_from_file(path, k=4, n=(32,))
    assert over.k == 4 and over.n_values == (32,)


def test_config_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("problem degenerate_sine\n")
    with pytest.raises(ValueError):
        config_from_file(path)


_GOOD_CONFIG = {"problem": "advection_sine", "scheme": "lsv", "k": "2", "s": "3", "n": "8"}


def _write_config(path, **entries):
    path.write_text("".join(f"{key}: {value}\n"
                            for key, value in {**_GOOD_CONFIG, **entries}.items()))
    return path


@pytest.mark.parametrize("key, raw, expected", (("k", "2.5", "an integer"),
                                                ("n", "16,x", "integers separated"),
                                                ("cfl", "fast", "a number")))
def test_config_file_names_bad_values(tmp_path, capsys, key, raw, expected):
    path = _write_config(tmp_path / "exp.cfg", **{key: raw})
    message = f"{path}: {key} must be {expected}"
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_file(path)
    assert cli.main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.rstrip().endswith(f"got {raw!r}")


@pytest.mark.parametrize("key", ("cfl_exponent", "t-final"))
def test_config_file_rejects_unknown_keys(tmp_path, capsys, key):
    # a misspelled key would otherwise leave its setting at the default
    path = _write_config(tmp_path / "exp.cfg", **{key: "1/2"})
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown key {key!r}")):
        config_from_file(path)
    assert cli.main(["solve", "--config", str(path)]) == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI


def test_cli_analyze_outputs_key_factors(capsys):
    assert cli.main(["analyze", "--s-max", "12"]) == 0
    out = capsys.readouterr().out
    assert "-68428800" in out
    assert "tau = O(h^{13/12})" in out


# the analysis benchmark compares these printed rows: the layout is pinned byte for byte
ANALYZE_S12_MARKDOWN = """\
|     scheme |  s |      c_zz | zeta | rho | gamma |      CFL condition |
|------------|----|-----------|------|-----|-------|--------------------|
|  RKSV(1,k) |  1 |         1 |    1 |   1 |     2 |       tau = O(h^2) |
|  RKSV(2,k) |  2 |         1 |    2 |   2 |     4 |   tau = O(h^{4/3}) |
|  RKSV(3,k) |  3 |        -3 |    2 |   2 |     - |         tau = O(h) |
|  RKSV(4,k) |  4 |        -8 |    3 |   2 |     5 |   tau = O(h^{5/4}) |
|  RKSV(5,k) |  5 |        40 |    3 |   3 |     6 |   tau = O(h^{6/5}) |
|  RKSV(6,k) |  6 |       180 |    4 |   4 |     8 |   tau = O(h^{8/7}) |
|  RKSV(7,k) |  7 |     -1260 |    4 |   4 |     - |         tau = O(h) |
|  RKSV(8,k) |  8 |     -8064 |    5 |   4 |     9 |   tau = O(h^{9/8}) |
|  RKSV(9,k) |  9 |     72576 |    5 |   5 |    10 |  tau = O(h^{10/9}) |
| RKSV(10,k) | 10 |    604800 |    6 |   6 |    12 | tau = O(h^{12/11}) |
| RKSV(11,k) | 11 |  -6652800 |    6 |   6 |     - |         tau = O(h) |
| RKSV(12,k) | 12 | -68428800 |    7 |   6 |    13 | tau = O(h^{13/12}) |
"""


def test_cli_analyze_markdown_pinned(capsys):
    assert cli.main(["analyze", "--s-max", "12"]) == 0
    assert capsys.readouterr().out == ANALYZE_S12_MARKDOWN


def test_convergence_markdown_pinned():
    nan = float("nan")
    table = ConvergenceTable((TableRow(3, 16, 1.234e-4, None, 2.5e-3, None),
                              TableRow(3, 32, 7.7e-6, 4.0024, 1.6e-4, 3.96),
                              TableRow(3, 64, nan, nan, 1.0e-12, 17.25)))
    assert table.to_markdown() == (
        "| k |  N |       L2 | order |     Linf | order |\n"
        "|---|----|----------|-------|----------|-------|\n"
        "| 3 | 16 | 1.23e-04 |     - | 2.50e-03 |     - |\n"
        "| 3 | 32 | 7.70e-06 |  4.00 | 1.60e-04 |  3.96 |\n"
        "| 3 | 64 |      nan |   nan | 1.00e-12 | 17.25 |")


def test_cli_analyze_single_s_with_matrices(capsys):
    assert cli.main(["analyze", "--s", "2", "--show-matrices"]) == 0
    out = capsys.readouterr().out
    assert "C^(0)" in out and "H^(2)" in out


def test_cli_solve_and_snapshot(tmp_path, capsys, monkeypatch):
    import rksv.harness
    import rksv.ssp_rk

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    # every module that binds integrate by name, so a second solve cannot hide
    for module in (rksv.ssp_rk, rksv.harness, cli):
        monkeypatch.setattr(module, "integrate", counted, raising=False)
    snap = tmp_path / "snap.txt"
    code = cli.main(["solve", "--example", "1", "--scheme", "rrsv", "--k", "1",
                     "--s", "3", "--n", "16", "--cfl", "0.1", "--snapshot", str(snap)])
    assert code == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "L2=" in out and "steps=" in out
    assert snap.exists()
    lines = snap.read_text().splitlines()
    assert lines[0].startswith("# x u_h")
    # the snapshot is the solved state, not the initial data: u(x, 1) = sin(x - 1)
    x, u = np.array([[float(v) for v in line.split()] for line in lines[1:]]).T
    assert np.max(np.abs(u - np.sin(x - 1.0))) < 5e-2
    assert np.max(np.abs(u - np.sin(x))) > 0.5


def test_cli_converge_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code = cli.main(["converge", "--example", "1", "--scheme", "lsv", "--k", "1",
                     "--s", "3", "--n", "4,8,16", "--cfl", "0.1", "--t-final", "0.2",
                     "--format", "csv", "--output", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("k,N,L2,order_L2,Linf,order_Linf")
    assert capsys.readouterr().out.strip().splitlines()[0] == "k,N,L2,order_L2,Linf,order_Linf"


@pytest.mark.parametrize("command, flag", (("solve", "--snapshot"), ("converge", "--output")))
def test_cli_unwritable_output_fails_before_solving(tmp_path, capsys, monkeypatch,
                                                   command, flag):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved before checking the output path")

    monkeypatch.setattr(cli, "run_solve", unreachable)
    monkeypatch.setattr(cli, "run_convergence", unreachable)
    n = "8" if command == "solve" else "8,16"
    missing = tmp_path / "missing" / "out.txt"
    code = cli.main([command, "--example", "1", "--scheme", "lsv", "--k", "1", "--s", "3",
                     "--n", n, "--cfl", "0.1", flag, str(missing)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and "No such file or directory" in captured.err
    assert captured.out == ""
    assert not missing.parent.exists()


def test_cli_usage_errors_exit_one(capsys):
    assert cli.main(["solve", "--example", "1"]) == 1       # missing flags
    assert cli.main(["frobnicate"]) == 1                    # unknown subcommand
    assert cli.main(["analyze", "--format", "yaml"]) == 1   # bad choice
    capsys.readouterr()
    for scheme in ("lsv", "rrsv", "rsv"):                   # k beyond the node tables
        assert cli.main(["solve", "--example", "1", "--scheme", scheme, "--k", "13",
                         "--s", "3", "--n", "8", "--cfl", "0.1"]) == 1
        assert "k must be in 1..12, got 13" in capsys.readouterr().err
    assert cli.main(["solve", "--example", "1", "--scheme", "lsv", "--k", "2", "--s", "3",
                     "--n", "16,x", "--cfl", "0.1"]) == 1               # malformed --n
    assert "error: --n must be integers separated by commas or spaces, got '16,x'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("t_final", ("inf", "nan", "-1"))
def test_cli_rejects_bad_t_final(capsys, t_final):
    code = cli.main(["solve", "--example", "1", "--scheme", "lsv", "--k", "2", "--s", "3",
                     "--n", "8", "--cfl", "0.1", "--t-final", t_final])
    assert code == 1
    assert "t_final must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("solve", "converge"))
@pytest.mark.parametrize("exponent", ("0", "-1", "-1/2"))
def test_cli_rejects_non_positive_cfl_exp(capsys, command, exponent):
    n = "8" if command == "solve" else "8,16,32"
    code = cli.main([command, "--example", "1", "--scheme", "lsv", "--k", "2", "--s", "3",
                     "--n", n, "--cfl", "0.1", "--cfl-exp", exponent])
    assert code == 1
    assert "cfl_exponent must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("solve", "converge"))
def test_cli_rejects_zero_denominator_cfl_exp(capsys, command):
    n = "8" if command == "solve" else "8,16,32"
    code = cli.main([command, "--example", "1", "--scheme", "lsv", "--k", "2", "--s", "3",
                     "--n", n, "--cfl", "0.1", "--cfl-exp", "1/0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cfl_exponent must be a number" in err


def test_config_file_rejects_zero_denominator_cfl_exp(capsys, tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("problem: advection_sine\nscheme: lsv\nk: 2\ns: 3\nn: 8\ncfl_exp: 3/0\n")
    with pytest.raises(ValueError, match="cfl_exponent must be a number"):
        config_from_file(path)
    assert cli.main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'3/0'" in err


def test_python_dash_m_runs_cli():
    # a clean checkout: the package on PYTHONPATH, no installed entry point
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "rksv", "analyze", "--s", "3"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "RKSV(3,k)" in done.stdout


def test_cli_numerical_failure_exit_two(capsys):
    # T=40 overflows to nan; T=5 ends finite at L2 ~ 2e17, past the divergence
    # limit that solve and converge share
    for t_final in ("40", "5"):
        code = cli.main(["solve", "--example", "1", "--scheme", "lsv", "--k", "4",
                         "--s", "1", "--n", "16", "--cfl", "0.9", "--cfl-exp", "1/2",
                         "--t-final", t_final])
        assert code == 2, t_final
        assert "numerical failure" in capsys.readouterr().err


def test_cli_check_exit_codes(monkeypatch, capsys):
    from rksv.harness import CheckReport, CheckResult

    good = CheckReport((CheckResult("demo", 0.0, 1.0),))
    bad = CheckReport((CheckResult("demo", 2.0, 1.0),))
    monkeypatch.setattr(cli, "run_checks", lambda seed: good)
    assert cli.main(["check"]) == 0
    monkeypatch.setattr(cli, "run_checks", lambda seed: bad)
    assert cli.main(["check", "--seed", "3"]) == 3
    capsys.readouterr()
