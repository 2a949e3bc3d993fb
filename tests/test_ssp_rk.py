from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from conftest import BOTH_RULES, periodic_mesh
from rksv.harness import ExperimentConfig, build_mesh, problem_definition
from rksv.mesh import BoundaryCondition, SubdivisionRule, perturbed_mesh
from rksv.ssp_rk import integrate, rk_step, ssp_tableau
from rksv.sv_space import Problem, SpatialOperator, materialize_operator, project_initial


def test_tableau_reference_rows():
    assert ssp_tableau(1).final_weights == (Fraction(1),)
    assert ssp_tableau(3).final_weights == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
    assert ssp_tableau(4).final_weights == (
        Fraction(3, 8), Fraction(1, 3), Fraction(1, 4), Fraction(1, 24))


@pytest.mark.parametrize("s", range(1, 13))
def test_tableau_invariants(s):
    tab = ssp_tableau(s)
    final = tab.final_weights
    assert tab.g[0][0] == 1
    assert final[-1] == Fraction(1, factorial(s))
    assert sum(final) == 1
    assert all(w > 0 for w in final)
    assert all(factorial(s) % w.denominator == 0 for w in final)


def test_tableau_shu_osher_matrices():
    tab = ssp_tableau(3)
    c = tab.c_matrix
    d = tab.d_matrix
    assert np.allclose(c[:2], np.eye(3)[:2])
    assert np.allclose(c[2], [1.0 / 3.0, 0.5, 1.0 / 6.0])
    assert np.allclose(d[:2], np.eye(3)[:2])
    assert np.allclose(d[2], [0.0, 0.0, 1.0 / 6.0])


def test_tableau_rejects_out_of_range():
    with pytest.raises(ValueError):
        ssp_tableau(0)
    with pytest.raises(ValueError):
        ssp_tableau(13)


def test_single_stage_is_forward_euler():
    mesh = periodic_mesh(6, SubdivisionRule.LSV, 1)
    problem = Problem(u0=np.sin)
    state = project_initial(problem, mesh, 1)
    tau = 0.01
    from rksv.sv_space import apply_L

    stepped = rk_step(state, problem, ssp_tableau(1), tau)
    euler = state.values + tau * apply_L(state, problem)
    assert np.allclose(stepped.values, euler, atol=1e-15)
    assert stepped.t == tau


@pytest.mark.parametrize("s", (1, 3, 5))
def test_constant_state_is_fixed_point(s):
    mesh = periodic_mesh(5, SubdivisionRule.RRSV, 2)
    problem = Problem(u0=lambda x: np.ones_like(x))
    state = project_initial(problem, mesh, 2)
    stepped = rk_step(state, problem, ssp_tableau(s), 0.037)
    assert np.max(np.abs(stepped.values - state.values)) < 1e-13


@pytest.mark.parametrize("rule", BOTH_RULES)
@pytest.mark.parametrize("s", range(1, 9))
def test_step_equals_truncated_exponential(rule, s):
    mesh = periodic_mesh(8, rule, 1)
    problem = Problem(u0=np.sin)
    mat = materialize_operator(mesh, problem)
    state = project_initial(problem, mesh, 1)
    tau = 0.02
    stepped = rk_step(state, problem, ssp_tableau(s), tau)
    u = state.values.ravel()
    acc = u.copy()
    term = u.copy()
    for j in range(1, s + 1):
        term = tau * (mat @ term) / j
        acc = acc + term
    assert np.max(np.abs(stepped.values.ravel() - acc)) < 1e-12 * np.max(np.abs(acc))


def test_integrate_exact_step_counts():
    mesh = periodic_mesh(4, SubdivisionRule.LSV, 1)
    problem = Problem(u0=np.sin)
    state = project_initial(problem, mesh, 1)
    tau = 0.125
    taken = []
    out = integrate(state, problem, ssp_tableau(2), tau, 3 * tau,
                    on_step=lambda s: taken.append(s.t))
    assert len(taken) == 3
    assert out.t == 3 * tau

    taken.clear()
    out = integrate(state, problem, ssp_tableau(2), tau, 2.5 * tau,
                    on_step=lambda s: taken.append(s.t))
    assert len(taken) == 3
    assert abs((taken[-1] - taken[-2]) - tau / 2.0) < 1e-15
    assert out.t == 2.5 * tau


def test_integrate_zero_width_is_identity():
    mesh = periodic_mesh(4, SubdivisionRule.LSV, 1)
    problem = Problem(u0=np.sin)
    state = project_initial(problem, mesh, 1)
    out = integrate(state, problem, ssp_tableau(3), 0.1, 0.0)
    assert out is state


def test_integrate_rejects_bad_tau():
    mesh = periodic_mesh(4, SubdivisionRule.LSV, 1)
    problem = Problem(u0=np.sin)
    state = project_initial(problem, mesh, 1)
    with pytest.raises(ValueError):
        integrate(state, problem, ssp_tableau(3), 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(state, problem, ssp_tableau(3), -0.1, 1.0)


@pytest.mark.parametrize("s", (2, 4))
def test_mass_conserved_per_step(s):
    mesh = periodic_mesh(12, SubdivisionRule.RRSV, 2)
    problem = Problem(u0=lambda x: np.sin(x) + 0.5 * np.cos(2 * x))
    state = project_initial(problem, mesh, 2)
    mass0 = state.total_mass
    for _ in range(20):
        state = rk_step(state, problem, ssp_tableau(s), 5e-3)
        assert abs(state.total_mass - mass0) < 1e-12


def test_stage_source_weights_reference_rows():
    from rksv.ssp_rk import stage_source_weights

    # s = 1 and 2 keep the plain samples g(t), g(t + tau)
    assert stage_source_weights(1) == ((Fraction(1),),)
    assert stage_source_weights(2) == ((1, 0), (0, 1))
    assert stage_source_weights(3) == (
        (1, 0, 0), (Fraction(-1, 2), 2, Fraction(-1, 2)), (-1, 2, 0))


@pytest.mark.parametrize("s", range(1, 13))
def test_step_exact_for_polynomial_source(s):
    # L u = 0 for a constant state, so one step must add the exact integral of
    # a source of degree s-1 in t: the stage sources integrate it exactly
    mesh = periodic_mesh(6, SubdivisionRule.LSV, 2)
    # truncated series of (1 - t) e^{-t}: of order 1 at every sample time t + i*tau
    coeffs = np.array([(-1.0) ** m * (m + 1) / factorial(m) for m in range(s)])
    poly = np.polynomial.Polynomial(coeffs)
    problem = Problem(u0=lambda x: 0.7 * np.ones_like(x),
                      source=lambda x, t: poly(t) * np.ones_like(x))
    state = project_initial(problem, mesh, 2)
    state.t = 0.3
    tau = 0.2
    stepped = rk_step(state, problem, ssp_tableau(s), tau)
    anti = poly.integ()
    expected = state.values + (anti(state.t + tau) - anti(state.t)) * mesh.cv_widths
    assert np.max(np.abs(stepped.values - expected)) < 1e-14


@pytest.mark.parametrize("s", (3, 4, 5))
def test_temporal_order_with_source(s):
    # Example 2 (manufactured source) on its N=16, k=5 mesh: tau ladder T/4,
    # T/8, T/16 against a T/64 reference, so the spatial error cancels
    t_final = 0.1
    cfg = ExperimentConfig(example=2, scheme=SubdivisionRule.RSV_ADAPTIVE, k=5, s=s,
                           n_values=(16,), cfl=1e-3)
    problem = problem_definition(2).make()
    mesh = build_mesh(cfg, 16)
    state = project_initial(problem, mesh, 5)
    tableau = ssp_tableau(s)
    reference = integrate(state, problem, tableau, t_final / 64, t_final).values
    errors = []
    for m in (4, 8, 16):
        values = integrate(state, problem, tableau, t_final / m, t_final).values
        errors.append(np.sqrt(np.sum((values - reference) ** 2 / mesh.cv_widths)))
    order = -np.polyfit(np.arange(3), np.log2(errors), 1)[0]
    assert abs(order - s) < 0.3, f"s={s}: observed temporal order {order:.2f}"


@pytest.mark.parametrize("k", range(1, 6))
def test_source_integrals_exact_to_degree_k_plus_2(rng, k):
    # the element rule integrates the degree-(k+2) interpolant at k+3 Gauss points
    mesh = perturbed_mesh(12, 5, SubdivisionRule.RSV_ADAPTIVE, k, BoundaryCondition.PERIODIC,
                          alpha=np.sin)
    assert mesh.left_oriented.any() and not mesh.left_oriented.all()
    # scaled to [-1, 1] over the domain, so no cancellation in the exact integrals
    poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, k + 3), domain=[0.0, 2.0 * np.pi])
    problem = Problem(u0=np.sin, alpha=np.sin, source=lambda x, t: poly(x))
    got = SpatialOperator(mesh, problem).source_integrals(0.0)
    exact = np.empty_like(got)
    for i in range(mesh.n_elements):
        c, half = mesh.centers[i], 0.5 * mesh.lengths[i]
        on_ref = np.polynomial.Polynomial(poly.convert(domain=[c - half, c + half]).coef)
        exact[i] = half * np.diff(on_ref.integ()(mesh.reference_nodes(i)))
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("s", (1, 3, 5))
def test_source_sampled_s_times_per_step_on_element_rule(s):
    # every step uses the source at its s times t + i*tau, but s-1 of them are
    # the previous step's: integrate evaluates one new sample per full step
    k, n, steps = 3, 8, 4
    mesh = periodic_mesh(n, SubdivisionRule.LSV, k)
    sizes, times = [], []

    def g(x, t):
        sizes.append(x.size)
        times.append(t)
        return np.cos(x - t)

    problem = Problem(u0=np.sin, source=g)
    state = project_initial(problem, mesh, k)
    tau = 2.0 ** -7
    full = [j * tau for j in range(steps + s - 1)]
    integrate(state, problem, ssp_tableau(s), tau, steps * tau)
    assert sizes == [n * (k + 3)] * (steps + s - 1)
    assert times == full

    # a shortened last step samples all s afresh at t + i*dt
    sizes.clear()
    times.clear()
    dt = 0.75 * tau
    integrate(state, problem, ssp_tableau(s), tau, steps * tau + dt)
    assert sizes == [n * (k + 3)] * (steps + 2 * s - 1)
    assert times == full + [steps * tau + i * dt for i in range(s)]


@pytest.mark.parametrize("shortened", (False, True))
@pytest.mark.parametrize("s", (3, 5))
def test_integrate_source_window_matches_fresh_steps(s, shortened):
    # integrate reuses s-1 samples per step; chained rk_step calls sample afresh.
    # A dyadic tau makes the unshortened run exactly `steps` full steps.
    k, steps, tau = 3, 7, 2.0 ** -6
    mesh = perturbed_mesh(12, 5, SubdivisionRule.RSV_ADAPTIVE, k, BoundaryCondition.PERIODIC,
                          alpha=np.sin)
    assert mesh.left_oriented.any() and not mesh.left_oriented.all()
    problem = Problem(u0=lambda x: np.exp(np.sin(x)), alpha=np.sin,
                      source=lambda x, t: np.cos(x - 7.0 * t) + np.sin(3.0 * x) * t ** 2)
    state = project_initial(problem, mesh, k)
    tableau = ssp_tableau(s)
    t_final = (steps + (0.4 if shortened else 0.0)) * tau
    got = integrate(state, problem, tableau, tau, t_final).values
    op = SpatialOperator(mesh, problem)
    fresh = state
    for _ in range(steps):
        fresh = rk_step(fresh, problem, tableau, tau, op)
    if shortened:
        fresh = rk_step(fresh, problem, tableau, t_final - fresh.t, op)
    assert np.max(np.abs(got - fresh.values)) <= 1e-13 * np.max(np.abs(fresh.values))
