from fractions import Fraction

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


def test_cli_usage_errors_exit_one(capsys):
    assert cli.main(["solve", "--example", "1"]) == 1       # missing flags
    assert cli.main(["frobnicate"]) == 1                    # unknown subcommand
    assert cli.main(["analyze", "--format", "yaml"]) == 1   # bad choice
    capsys.readouterr()


def test_cli_numerical_failure_exit_two(capsys):
    code = cli.main(["solve", "--example", "1", "--scheme", "lsv", "--k", "4",
                     "--s", "1", "--n", "16", "--cfl", "0.9", "--cfl-exp", "1/2",
                     "--t-final", "40"])
    assert code == 2
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
