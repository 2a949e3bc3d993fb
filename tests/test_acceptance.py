"""Acceptance suite: one test per release criterion, each printing a verdict line."""

import time
from fractions import Fraction

import numpy as np
import pytest

from reference_matrices import C_STEPS, D_STEPS, G_STEPS, H_STEPS, KEY_FACTORS
from rksv import petrov_galerkin as pg
from rksv.harness import (ExperimentConfig, build_mesh, problem_definition, run_checks,
                          run_convergence, time_step)
from rksv.matrix_transfer import error_transfer, key_factor_table, stability_transfer
from rksv.mesh import BoundaryCondition, SubdivisionRule, uniform_mesh
from rksv.ssp_rk import integrate, rk_step, ssp_tableau
from rksv.sv_space import Problem, SpatialOperator, project_initial, reconstruct


def _verdict(criterion, ok, detail=""):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_key_factor_table_exact():
    start = time.perf_counter()
    reports = key_factor_table(12)
    elapsed = time.perf_counter() - start
    ok = True
    for r in reports:
        c, zeta, rho, gamma, exp_str = KEY_FACTORS[r.s]
        ok &= (r.c_diag, r.zeta, r.rho, r.gamma) == (c, zeta, rho, gamma)
        ok &= r.cfl_exponent == Fraction(exp_str)
    ok &= elapsed < 1.0
    assert _verdict(1, ok, f"(12 exact rows, {elapsed * 1e3:.0f} ms)")


def test_criterion_2_worked_matrix_oracle():
    ok = True
    for s in (1, 2, 3, 4):
        r = error_transfer(s)
        ok &= list(r.a_steps) == C_STEPS[s]
        ok &= list(r.d_steps) == D_STEPS[s]
        ok &= list(r.g_steps) == G_STEPS[s]
        ok &= list(r.b_steps) == H_STEPS[s]
        if s == 3:
            ok &= r.a_steps[2][2][2] == -3
        if s == 4:
            ok &= r.a_steps[3][3][3] == -8
    assert _verdict(2, ok, "(C/D/G/H for s=1..4, every step, exact)")


# Reference L2 errors at N = 16, 32, 64, 128 (time T = 1, lambda = 0.1)
_EXAMPLE1_L2 = {
    (3, 1, "rrsv"): (1.64e-02, 4.10e-03, 1.00e-03, 2.59e-04),
    (3, 1, "lsv"): (2.28e-02, 5.60e-03, 1.40e-03, 3.46e-04),
    (3, 2, "rrsv"): (5.20e-04, 6.52e-05, 8.16e-06, 1.02e-06),
    (3, 2, "lsv"): (8.23e-04, 1.03e-04, 1.28e-05, 1.61e-06),
    (3, 3, "rrsv"): (1.25e-05, 7.82e-07, 4.88e-08, 3.05e-09),
    (3, 3, "lsv"): (2.06e-05, 1.28e-06, 8.03e-08, 5.01e-09),
    (4, 2, "rrsv"): (5.20e-04, 6.52e-05, 8.15e-06, 1.02e-06),
    (4, 2, "lsv"): (8.03e-04, 1.03e-04, 1.28e-05, 1.61e-06),
    (4, 3, "rrsv"): (1.21e-05, 7.56e-07, 4.72e-08, 2.95e-09),
    (4, 3, "lsv"): (2.03e-05, 1.26e-06, 7.93e-08, 4.95e-09),
    (4, 4, "rrsv"): (1.90e-07, 5.95e-09, 1.86e-10, 5.81e-12),
    (4, 4, "lsv"): (3.71e-07, 1.16e-08, 3.64e-10, 1.13e-11),
}


def test_criterion_3_example1_convergence():
    start = time.perf_counter()
    failures = []
    for (s, k, scheme), expected in _EXAMPLE1_L2.items():
        cfg = ExperimentConfig(example=1, scheme=SubdivisionRule(scheme), k=k, s=s,
                               n_values=(16, 32, 64, 128), cfl=0.1, t_final=1.0)
        table = run_convergence(cfg)
        ord_l2, ord_linf = table.final_orders
        if abs(ord_l2 - (k + 1)) > 0.15 or abs(ord_linf - (k + 1)) > 0.15:
            failures.append(f"{s}/{k}/{scheme}: orders {ord_l2:.2f}/{ord_linf:.2f}")
        for row, ref in zip(table.rows, expected):
            ratio = row.l2 / ref
            if not 1.0 / 3.0 <= ratio <= 3.0:
                failures.append(f"{s}/{k}/{scheme} N={row.n}: {ratio:.2f}x off reference")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    assert _verdict(3, ok, f"(12 cells, {elapsed:.0f} s){'; ' + '; '.join(failures) if failures else ''}")


def test_criterion_4_example2_convergence():
    start = time.perf_counter()
    failures, orders = [], []
    for k in (3, 4, 5):
        cfg = ExperimentConfig(example=2, scheme=SubdivisionRule.RSV_ADAPTIVE, k=k, s=5,
                               n_values=(32, 64, 128, 256), cfl=1e-3, t_final=0.1)
        table = run_convergence(cfg)
        ord_l2, _ = table.final_orders
        orders.append(f"{ord_l2:.4f}")
        if abs(ord_l2 - (k + 1)) > 0.2:
            failures.append(f"k={k}: final L2 order {ord_l2:.2f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    detail = (f"(k=3,4,5 to N=256, {elapsed:.0f} s, final L2 orders "
              f"{'/'.join(orders)})")
    assert _verdict(4, ok, f"{detail}{'; ' + '; '.join(failures) if failures else ''}")


@pytest.mark.parametrize("scheme", (SubdivisionRule.LSV, SubdivisionRule.RRSV))
def test_criterion_5_energy_monotonicity(scheme):
    problem = Problem(u0=np.sin, u_exact=lambda x, t: np.sin(x - t))
    mesh = uniform_mesh(0.0, 2.0 * np.pi, 32, scheme, 2, BoundaryCondition.PERIODIC)
    cfg = ExperimentConfig(example=1, scheme=scheme, k=2, s=3, n_values=(32,), cfl=0.05)
    tau = time_step(cfg, mesh)
    state = project_initial(problem, mesh, 2)
    energies = [pg.energy_norm(reconstruct(state), mesh)]
    integrate(state, problem, ssp_tableau(3), tau, 1.0,
              on_step=lambda s: energies.append(pg.energy_norm(reconstruct(s), mesh)))
    increments = np.diff(energies)
    ok = bool(np.all(increments <= 1e-12))
    assert _verdict(5, ok,
                    f"({scheme.value}, {len(increments)} steps, max increment {increments.max():.2e})")


def test_criterion_6_identity_suite():
    report = run_checks(seed=0, trials=100)
    for result in report.results:
        print(f"  {result.line()}")
    assert _verdict(6, report.passed, f"({len(report.results)} identity groups, 100 trials)")


def test_criterion_7_linear_equivalence():
    worst = 0.0
    for scheme in (SubdivisionRule.LSV, SubdivisionRule.RRSV):
        mesh = uniform_mesh(0.0, 2.0 * np.pi, 8, scheme, 1, BoundaryCondition.PERIODIC)
        problem = Problem(u0=np.sin)
        mat = SpatialOperator(mesh, problem).L.dense()
        state = project_initial(problem, mesh, 1)
        tau = 0.05
        for s in range(1, 9):
            stepped = rk_step(state, problem, ssp_tableau(s), tau)
            u = state.values.ravel()
            acc = u.copy()
            term = u.copy()
            for j in range(1, s + 1):
                term = tau * (mat @ term) / j
                acc = acc + term
            worst = max(worst, np.max(np.abs(stepped.values.ravel() - acc))
                        / np.max(np.abs(acc)))
    ok = worst < 1e-12
    assert _verdict(7, ok, f"(s=1..8, both rules, worst relative defect {worst:.2e})")


def test_criterion_8_cross_transfer_consistency():
    ok = True
    for s in range(1, 13):
        stab = stability_transfer(s)
        err = error_transfer(s)
        ok &= (stab.zeta, stab.rho, stab.c_diag) == (err.zeta, err.rho, err.c_diag)
    assert _verdict(8, ok, "(zeta, rho, c_diag identical for s=1..12)")
