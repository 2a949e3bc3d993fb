import dataclasses
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
from rksv.harness import (CONFIG_KEYS, ConvergenceTable, ExperimentConfig, NumericalError,
                          TableRow, build_mesh, config_from_file, problem_definition,
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


def test_degenerate_source_matches_its_formula(rng):
    # the in-place evaluation against the plain formula g = exp(sin(x - t))
    # (cos x + (sin x - 1) cos(x - t)) by angle addition, bit for bit, on the
    # (N, k+3, 1) points and 1-D times the solver passes
    x = rng.uniform(0.0, 2.0 * np.pi, (64, 8, 1))
    t = rng.uniform(0.0, 0.1, 56)
    sx, cx, st, ct = np.sin(x), np.cos(x), np.sin(t), np.cos(t)
    formula = np.exp(sx * ct - cx * st) * (cx + (sx - 1.0) * (cx * ct + sx * st))
    got = problem_definition(2).make().source(x, t)
    assert got.shape == (64, 8, 56) and np.array_equal(got, formula)
    exact = np.exp(np.sin(x - t)) * (cx + (sx - 1.0) * np.cos(x - t))
    assert np.max(np.abs(got - exact)) < 1e-14


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
    e0 = pg.energy_norm(reconstruct(state), mesh)
    peak = 0.0

    def track(s):
        nonlocal peak
        peak = max(peak, pg.energy_norm(reconstruct(s), mesh) / e0)

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
    assert config_from_file(path, n=[32, 64]).n_values == (32, 64)


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
                                                ("cfl", "fast", "a number"),
                                                ("scheme", "xx", "one of lsv/rrsv/rsv")))
def test_config_file_names_bad_values(tmp_path, capsys, key, raw, expected):
    path = _write_config(tmp_path / "exp.cfg", **{key: raw})
    message = f"{path}: {key} must be {expected}"
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_file(path)
    assert cli.main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.rstrip().endswith(f"got {raw!r}")
    # the same text from a flag on top of a good file goes through the same
    # converter and is named after the flag
    good = _write_config(tmp_path / "good.cfg")
    assert cli.main(["solve", "--config", str(good), f"--{key}", raw]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{key} must be {expected}") and str(good) not in err
    assert err.rstrip().endswith(f"got {raw!r}")


def test_config_file_that_is_not_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfeproblem: advection_sine\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: 'utf-8' codec can't decode")):
        config_from_file(path)
    assert cli.main(["solve", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("key", ("cfl_exponent", "t-final"))
def test_config_file_rejects_unknown_keys(tmp_path, capsys, key):
    # a misspelled key would otherwise leave its setting at the default
    path = _write_config(tmp_path / "exp.cfg", **{key: "1/2"})
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown key {key!r}")):
        config_from_file(path)
    assert cli.main(["solve", "--config", str(path)]) == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_config_file_rejects_repeated_keys(tmp_path, capsys):
    # a second 'k' would otherwise silently override the first
    path = tmp_path / "exp.cfg"
    path.write_text("problem: advection_sine\nscheme: lsv\nk: 2\ns: 3\nn: 8\nk = 3\n")
    message = f"{path}:6: repeated key 'k'"
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_file(path)
    assert cli.main(["solve", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("key, raw, expected", (("cfl", "2", "cfl must be in (0, 1], got 2.0"),
                                                ("s", "13", "s must be in 1..12, got 13"),
                                                ("k", "0", "k must be >= 1, got 0")))
def test_config_file_names_out_of_range_values(tmp_path, capsys, key, raw, expected):
    path = _write_config(tmp_path / "exp.cfg", **{key: raw})
    message = f"{path}: {expected}"
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_file(path)
    assert cli.main(["solve", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("flag, raw, expected", (
    ("--cfl", "2", "cfl must be in (0, 1], got 2.0"),
    ("--s", "13", "s must be in 1..12, got 13"),
    ("--k", "0", "k must be >= 1, got 0"),
    ("--k", "13", "k must be in 1..12, got 13"),
    ("--n", "1", "need at least 2 elements on a uniform mesh, got 1")))
def test_config_range_errors_name_their_source(tmp_path, capsys, flag, raw, expected):
    # the same bad value from the file names the file, and from a flag on top
    # of a valid file names the flag, not the file
    key = flag[2:]
    bad = _write_config(tmp_path / "bad.cfg", **{key: raw})
    assert cli.main(["solve", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: {expected}")
    good = _write_config(tmp_path / "good.cfg")
    assert cli.main(["solve", "--config", str(good), flag, raw]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: {expected}") and str(good) not in err


def test_perturbed_mesh_size_errors_name_their_source(tmp_path, capsys):
    # Example 2's perturbed mesh takes N >= 4: a config error before any solve
    expected = "need at least 4 elements on a perturbed mesh, got 2"
    bad = _write_config(tmp_path / "bad.cfg", problem="degenerate_sine", n="2,4,8")
    assert cli.main(["converge", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: {expected}")
    assert cli.main(["converge", "--example", "2", "--scheme", "lsv", "--k", "2", "--s", "3",
                     "--n", "2,4,8", "--cfl", "0.1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: --n: {expected}")


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


@pytest.mark.parametrize("command", ("solve", "converge"))
@pytest.mark.parametrize("source", ("flag", "file"))
def test_cli_rejects_overflowing_cfl_exp(capsys, tmp_path, command, source):
    # 1e400 is a valid fraction but no float: a usage error before any solve,
    # which names the config file that set it
    n = "8" if command == "solve" else "8,16,32"
    if source == "flag":
        argv = ["--example", "1", "--scheme", "lsv", "--k", "2", "--s", "3", "--n", n,
                "--cfl", "0.1", "--cfl-exp", "1e400"]
    else:
        path = tmp_path / "exp.cfg"
        path.write_text(f"problem: advection_sine\nscheme: lsv\nk: 2\ns: 3\nn: {n}\n"
                        f"cfl_exp: 1e400\n")
        argv = ["--config", str(path)]
    assert cli.main([command] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert "cfl_exponent must be positive and fit in a float" in captured.err
    assert "got 1e400" in captured.err
    if source == "file":
        assert str(path) in captured.err


@pytest.mark.parametrize("command", ("solve", "converge"))
@pytest.mark.parametrize("exponent", ("400", "30"))
def test_cli_rejects_cfl_exp_whose_tau_cannot_step(capsys, command, exponent):
    # a large finite exponent underflows tau = cfl * h_min^e (to 0 or to a
    # subnormal at e = 400), or leaves more steps than an int holds (e = 30):
    # a usage error naming the flag, N and tau, not a traceback or exit 2
    n = "8" if command == "solve" else "8,16,32"
    argv = [command, "--example", "1", "--scheme", "lsv", "--k", "2", "--s", "3", "--n", n,
            "--cfl", "0.1", "--cfl-exp", exponent]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: --cfl-exp {exponent}: tau = ")
    assert "at N=8 " in captured.err and "than an int holds" in captured.err


def test_run_solve_rejects_zero_tau():
    # at e = 400 on N=32, tau underflows to exactly 0, which once raised a
    # ZeroDivisionError in step_plan
    config = ExperimentConfig(example=1, scheme=SubdivisionRule.LSV, k=2, s=3, n_values=(32,),
                              cfl=0.1, cfl_exponent="400")
    assert time_step(config, build_mesh(config, 32)) == 0.0
    with pytest.raises(ValueError, match=r"^cfl_exp 400: tau = cfl \* h_min\^e = 0 at N=32"):
        run_solve(config)


@pytest.mark.parametrize("command", ("solve", "converge"))
def test_cli_cfl_exp_from_a_file_whose_tau_cannot_step_names_the_file(capsys, tmp_path,
                                                                      command):
    path = _write_config(tmp_path / "exp.cfg", n="8" if command == "solve" else "8,16,32",
                         cfl_exp="400")
    assert cli.main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {path}: cfl_exp 400: tau = ")
    assert "--cfl-exp" not in captured.err and "than an int holds" in captured.err


@pytest.mark.parametrize("flag, value, message", (
    ("--cfl-exp", "1e400", "cfl_exponent must be positive and fit in a float"),
    ("--cfl", "2", "cfl must be in (0, 1]"),
    ("--t-final", "-1", "t_final must be finite and non-negative"),
    ("--k", "13", "k must be in 1..12, got 13"),
    ("--n", "1", "need at least 2 elements on a uniform mesh, got 1")))
def test_cli_example_errors_name_the_flag(capsys, flag, value, message):
    # a bad value given with --example is reported under its flag, as the
    # same value given as an override to --config is
    flags = {"--scheme": "lsv", "--k": "2", "--s": "3", "--n": "8", "--cfl": "0.1", flag: value}
    assert cli.main(["solve", "--example", "1"] + [a for item in flags.items() for a in item]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {flag}: {message}")


@pytest.mark.parametrize("command, flag, code", (("solve", "--snapshot", 2),
                                                 ("converge", "--output", 1)))
def test_cli_failed_run_leaves_no_new_output_file(tmp_path, capsys, command, flag, code):
    # a run that fails after the output path was probed (a diverging solve; a
    # study with too few meshes) leaves no file that the probe created, and a
    # file that was already there as it was
    argv = {"solve": ["--example", "1", "--scheme", "lsv", "--k", "4", "--s", "1", "--n", "16",
                      "--cfl", "0.9", "--cfl-exp", "1/2", "--t-final", "5"],
            "converge": ["--example", "1", "--scheme", "lsv", "--k", "1", "--s", "3",
                         "--n", "8,16", "--cfl", "0.1"]}[command]
    fresh, kept = tmp_path / "fresh.txt", tmp_path / "kept.txt"
    kept.write_text("an earlier run\n")
    for path in (fresh, kept):
        assert cli.main([command] + argv + [flag, str(path)]) == code
        capsys.readouterr()
    assert not fresh.exists()
    assert kept.read_text() == "an earlier run\n"


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
    assert cli.main(["check", "--seed", "-1"]) == 1   # a usage error, before any check
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"


# ---------------------------------------------------------------------------
# one config path: --example is a config that has no file


@pytest.mark.parametrize("command", ("solve", "converge"))
def test_every_config_key_is_a_flag(command):
    # _build_config passes each flag under its config key, so no key may lack a flag
    dests = vars(cli.build_parser().parse_args([command]))
    assert set(CONFIG_KEYS) - {"problem"} <= set(dests)


def test_solve_help_lists_the_scheme_choices(capsys):
    # the flags take text, so the choices live in the help, not in argparse
    assert cli.main(["solve", "--help"]) == 0
    assert "one of lsv/rrsv/rsv" in capsys.readouterr().out


def _flag_argv(values):
    return [a for key, value in values.items() for a in (f"--{key.replace('_', '-')}", value)]


@pytest.mark.parametrize("example, values", (
    ("1", {"scheme": "lsv", "k": "2", "s": "3", "n": "8,16,32", "cfl": "0.1"}),
    ("1", {"scheme": "rrsv", "k": "4", "s": "5", "n": "16 32 64", "cfl": "0.5",
           "cfl_exp": "5/4", "t_final": "0.25"}),
    ("2", {"scheme": "rsv", "k": "3", "s": "5", "n": "8,16,32", "cfl": "1e-3",
           "cfl_exp": "1", "seed": "9"})))
def test_example_flags_and_config_file_give_equal_configs(tmp_path, example, values):
    path = tmp_path / "exp.cfg"
    path.write_text(f"problem: {problem_definition(int(example)).name}\n" +
                    "".join(f"{key}: {value}\n" for key, value in values.items()))
    parser = cli.build_parser()
    from_flags = cli._build_config(parser.parse_args(["converge", "--example", example] +
                                                     _flag_argv(values)))
    from_file = cli._build_config(parser.parse_args(["converge", "--config", str(path)]))
    assert from_flags == dataclasses.replace(from_file, example=int(example))


@pytest.mark.parametrize("seed", ("-1", str(2**64)))
def test_seed_outside_64_bits_names_its_source(tmp_path, capsys, seed):
    # the mesh stream reads the seed mod 2^64: -1 would give the mesh of
    # 2^64 - 1, and 2^64 the mesh of 0
    expected = f"seed must be in 0..2^64-1, got {seed}"
    flags = ["--scheme", "rsv", "--k", "2", "--s", "3", "--n", "8", "--cfl", "0.1"]
    assert cli.main(["solve", "--example", "2", *flags, "--seed", seed]) == 1
    assert capsys.readouterr().err == f"error: --seed: {expected}\n"
    good = _write_config(tmp_path / "good.cfg", problem="degenerate_sine", scheme="rsv")
    assert cli.main(["solve", "--config", str(good), "--seed", seed]) == 1
    assert capsys.readouterr().err == f"error: --seed: {expected}\n"
    bad = _write_config(tmp_path / "bad.cfg", problem="degenerate_sine", scheme="rsv", seed=seed)
    assert cli.main(["solve", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {expected}\n"
    assert _cfg(seed=2**64 - 1).seed == 2**64 - 1


def test_run_solve_rejects_several_mesh_sizes():
    # the single-size rule of solve lives in run_solve, not only in the CLI
    with pytest.raises(ValueError,
                       match=re.escape("n must be a single mesh size for solve, got (8, 16)")):
        run_solve(_cfg(n_values=(8, 16)))
    assert run_solve(_cfg(n_values=(8, 16)), 8).n == 8


@pytest.mark.parametrize("command, n, expected", (
    ("solve", "8,16", "n must be a single mesh size for solve, got (8, 16)"),
    ("converge", "8,16", "n must list at least 3 mesh sizes, got (8, 16)"),
    ("converge", "8,16,40", "n must double from each mesh size to the next, got (8, 16, 40)")))
def test_mesh_size_list_errors_name_their_source(tmp_path, capsys, command, n, expected):
    flags = ["--scheme", "lsv", "--k", "2", "--s", "3", "--cfl", "0.1"]
    assert cli.main([command, "--example", "1", *flags, "--n", n]) == 1
    assert capsys.readouterr().err == f"error: --{expected}\n"
    good = _write_config(tmp_path / "good.cfg")
    assert cli.main([command, "--config", str(good), "--n", n]) == 1
    assert capsys.readouterr().err == f"error: --{expected}\n"
    bad = _write_config(tmp_path / "bad.cfg", n=n)
    assert cli.main([command, "--config", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {expected}\n"


@pytest.mark.parametrize("flag, value", (("--s", "13"), ("--s", "0"), ("--s-max", "0"),
                                         ("--s-max", "13")))
def test_cli_analyze_range_errors_name_their_flag(capsys, flag, value):
    assert cli.main(["analyze", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {flag} must be in 1..12, got {value}\n"
