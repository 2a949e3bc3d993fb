from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np
import pytest

from conftest import BOTH_RULES, periodic_mesh
from rksv import ssp_rk
from rksv.harness import ExperimentConfig, build_mesh, problem_definition, time_step
from rksv.mesh import BoundaryCondition, SubdivisionRule, perturbed_mesh, uniform_mesh
from rksv.ssp_rk import (BLOCK_STEPS, _block_steps, _derivatives_from_samples, _fused_steps,
                         integrate, rk_step, ssp_tableau, step_increment, step_plan)
from rksv.sv_space import Problem, SpatialOperator, materialize_operator, project_initial


@lru_cache(maxsize=None)
def stage_source_weights(s):
    """C_s[l][i] = sum_{q<=l} binom(l, q) (V^-1)[q][i] with V[i][q] = i^q / q!.

    l forward-Euler steps of the shift
    tau^q p^{(q)} <- tau^q p^{(q)} + tau^{q+1} p^{(q+1)} leave
    sum_q binom(l, q) tau^q p^{(q)}(t) as the source seen by stage l.
    """
    v_inv = _derivatives_from_samples(s)
    return tuple(tuple(sum(comb(ell, q) * v_inv[q][i] for q in range(ell + 1))
                       for i in range(s)) for ell in range(s))


def stage_chain_increment(values, tableau, tau, op, samples):
    """Oracle: u^{n+1} - u^n by the s-stage Shu-Osher chain of forward-Euler stages.

    ``samples`` holds the source integrals G(t^n + i*tau), i = 0..s-1; stage l
    receives sum_i C_s[l][i] G(t^n + i*tau).  Since the final weights sum to
    one, the recombination collapses to u^n + sum_j W_j d^j + w_{s-1} tau F(u^{n,s-1}),
    W_j the sum of the final weights after stage j.
    """
    s = tableau.s
    final = tableau.final_weights
    tails = [float(sum(final[j + 1:])) for j in range(s - 1)]
    c = np.array([[float(w) for w in row] for row in stage_source_weights(s)])
    sources = (c @ samples.reshape(s, -1)).reshape(samples.shape)
    u = values
    delta = np.zeros_like(values)
    for ell in range(s - 1):
        d = tau * (op.L.apply(u) + sources[ell])
        delta += tails[ell] * d
        u = u + d
    delta += (float(final[-1]) * tau) * (op.L.apply(u) + sources[s - 1])
    return delta


def stage_chain_step(values, tableau, t, tau, op):
    """One oracle step from t, the source sampled afresh at t + i*tau."""
    samples = np.stack([op.source_integrals(t + i * tau) for i in range(tableau.s)])
    return values + stage_chain_increment(values, tableau, tau, op, samples)


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


@pytest.mark.parametrize("t0", (0.0, 0.3))
def test_step_plan_matches_on_step_count(t0):
    # t_final on, just above and just below a multiple of tau: the plan's count
    # and the time sequence t0 + j*tau, ..., t_final are those of the steps taken
    mesh = periodic_mesh(4, SubdivisionRule.LSV, 1)
    problem = Problem(u0=np.sin)
    state = project_initial(problem, mesh, 1)
    state.t = t0
    for tau in (0.1, 0.125, 1.0 / 3.0, 0.07):
        for n in (1, 2, 7, 10):
            for t_final in (t0 + n * tau, t0 + n * tau + 1e-15, t0 + n * tau - 1e-15,
                            t0 + (n + 0.5) * tau):
                taken = []
                integrate(state, problem, ssp_tableau(2), tau, t_final,
                          on_step=lambda st: taken.append(st.t))
                n_full, last = step_plan(t0, tau, t_final)
                assert len(taken) == n_full + (last > 0.0)
                assert taken[:n_full] == [t0 + j * tau for j in range(1, n_full + 1)]
                if last:
                    assert taken[n_full:] == [t_final]
                    assert last < tau and last == t_final - (t0 + n_full * tau)


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


@pytest.mark.parametrize("tau, t_final", [(np.inf, 1.0), (np.nan, 1.0), (0.1, np.inf),
                                          (0.1, np.nan)])
def test_integrate_rejects_non_finite(tau, t_final):
    mesh = periodic_mesh(4, SubdivisionRule.LSV, 1)
    problem = Problem(u0=np.sin)
    state = project_initial(problem, mesh, 1)
    with pytest.raises(ValueError, match="finite"):
        integrate(state, problem, ssp_tableau(3), tau, t_final)


@pytest.mark.parametrize("tau", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("sourced", (False, True))
def test_rk_step_rejects_non_finite_tau(tau, sourced):
    mesh = periodic_mesh(4, SubdivisionRule.LSV, 1)
    problem = Problem(u0=np.sin, source=(lambda x, t: np.cos(x + t)) if sourced else None)
    state = project_initial(problem, mesh, 1)
    with pytest.raises(ValueError, match="tau must be finite"):
        rk_step(state, problem, ssp_tableau(3), tau)
    with pytest.raises(ValueError, match="tau must be finite"):
        SpatialOperator(mesh, problem).increment_map(3, tau)


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
        y = (mesh.cv_bounds[i] - c) * (2 / mesh.lengths[i])
        exact[i] = half * np.diff(on_ref.integ()(y))
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("s", (1, 3, 5))
def test_source_sampled_s_times_per_step_on_element_rule(s):
    # every step uses the source at its s times t + i*tau, but s-1 of them are
    # the previous step's: across all calls integrate evaluates each sample time
    # t0 + j*tau once, bit-exactly, on the N(k+3) element points, also across
    # the boundaries of its forcing blocks
    k, n = 3, 8
    steps = 2 * BLOCK_STEPS + 5
    mesh = periodic_mesh(n, SubdivisionRule.LSV, k)
    shapes, times = [], []

    def g(x, t):
        shapes.append(x.shape[:2])
        times.extend(np.atleast_1d(t).tolist())
        return np.cos(x - t)

    problem = Problem(u0=np.sin, source=g)
    state = project_initial(problem, mesh, k)
    state.t = 0.375
    tau = 2.0 ** -7
    full = [state.t + j * tau for j in range(steps + s - 1)]
    integrate(state, problem, ssp_tableau(s), tau, state.t + steps * tau)
    assert set(shapes) == {(n, k + 3)}
    assert len(shapes) == -(-steps // BLOCK_STEPS)  # one call per block on this small mesh
    assert times == full

    # a shortened last step samples all s afresh at t + i*dt
    shapes.clear()
    times.clear()
    dt = 0.75 * tau
    integrate(state, problem, ssp_tableau(s), tau, state.t + steps * tau + dt)
    t_last = state.t + steps * tau
    assert set(shapes) == {(n, k + 3)}
    assert times == full + [t_last + i * dt for i in range(s)]

    # a run shorter than one step is that shortened step alone: one call
    shapes.clear()
    times.clear()
    integrate(state, problem, ssp_tableau(s), tau, state.t + dt)
    assert shapes == [(n, k + 3)]
    assert times == [state.t + i * dt for i in range(s)]


@pytest.mark.parametrize("shortened", (False, True))
@pytest.mark.parametrize("s", (3, 5))
def test_integrate_source_window_matches_fresh_steps(s, shortened):
    # integrate reuses s-1 samples per step; chained rk_step calls sample afresh.
    # A dyadic tau makes the unshortened run exactly `steps` full steps.  With
    # steps = 0 the run is the shortened step alone, whose forcing integrate
    # and rk_step both take from a one-step ``_forcings`` stream.
    k, tau = 3, 2.0 ** -6
    mesh = perturbed_mesh(12, 5, SubdivisionRule.RSV_ADAPTIVE, k, BoundaryCondition.PERIODIC,
                          alpha=np.sin)
    assert mesh.left_oriented.any() and not mesh.left_oriented.all()
    problem = Problem(u0=lambda x: np.exp(np.sin(x)), alpha=np.sin,
                      source=lambda x, t: np.cos(x - 7.0 * t) + np.sin(3.0 * x) * t ** 2)
    state = project_initial(problem, mesh, k)
    tableau = ssp_tableau(s)
    for steps in ((7, 0) if shortened else (7,)):
        t_final = (steps + (0.4 if shortened else 0.0)) * tau
        got = integrate(state, problem, tableau, tau, t_final).values
        fresh = state
        for _ in range(steps):
            fresh = rk_step(fresh, problem, tableau, tau)
        if shortened:
            fresh = rk_step(fresh, problem, tableau, t_final - fresh.t)
        scale = np.max(np.abs(fresh.values))
        assert np.max(np.abs(got - fresh.values)) <= 1e-13 * scale, steps


def _forcing_cases():
    # a perturbed two-orientation RSV mesh, and an INFLOW_ZERO mesh whose left
    # end is an inflow and whose right end an outflow
    rsv = perturbed_mesh(12, 5, SubdivisionRule.RSV_ADAPTIVE, 3, BoundaryCondition.PERIODIC,
                         alpha=np.sin)
    assert rsv.left_oriented.any() and not rsv.left_oriented.all()
    inflow = perturbed_mesh(10, 3, SubdivisionRule.LSV, 2, BoundaryCondition.INFLOW_ZERO,
                            alpha=np.cos)
    # a source that is rough on the mesh's source points, so that high powers
    # of L in the forcing are not damped away
    rough = np.random.default_rng(7).uniform(-1.0, 1.0, (rsv.n_elements, rsv.k + 3, 1))
    return [
        (rsv, Problem(u0=lambda x: np.exp(np.sin(x)), alpha=np.sin,
                      source=lambda x, t: np.cos(x - 7.0 * t) + rough * np.sin(3.0 * t))),
        (inflow, Problem(u0=lambda x: np.sin(x) ** 2, alpha=np.cos,
                         source=lambda x, t: np.exp(-t) * np.cos(2.0 * x) + t)),
    ]


@pytest.mark.parametrize("s", range(1, 13))
def test_block_forcing_matches_stage_chain(s):
    # integrate's steps, A u + f with f formed block by block, against the stage
    # chain stepped one step at a time with fresh samples; the step count
    # crosses two block boundaries and is not a multiple of the block size.
    # tau times the spectral radius of L is in [1/4, 1/2), so that with the
    # rough source even the last Horner term of s = 12 shows above roundoff
    tableau = ssp_tableau(s)
    for mesh, problem in _forcing_cases():
        op = SpatialOperator(mesh, problem)
        block = _block_steps(op)
        steps = 2 * block + 7
        tau = 2.0 ** np.floor(np.log2(0.5 / np.max(np.abs(np.linalg.eigvals(op.L.dense())))))
        state = project_initial(problem, mesh, mesh.k)
        state.t = 0.3
        for shortened in (False, True):
            t_final = state.t + (steps + (0.4 if shortened else 0.0)) * tau
            taken = []
            got = integrate(state, problem, tableau, tau, t_final,
                            on_step=lambda st: taken.append(st.t)).values
            expected_times = [state.t + j * tau for j in range(1, steps + 1)]
            expected = state.values
            for step in range(steps):
                expected = stage_chain_step(expected, tableau, state.t + step * tau, tau, op)
            if shortened:
                t_last = state.t + steps * tau
                expected = stage_chain_step(expected, tableau, t_last, t_final - t_last, op)
                expected_times.append(t_final)
            assert taken == expected_times
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= 1e-13 * scale, (mesh.bc, shortened)


@pytest.mark.parametrize("s", (1, 3, 5))
def test_one_row_sourced_integrate_matches_stage_chain(s):
    # a uniform periodic mesh with a constant coefficient stores L as one row,
    # so the forcing's products with L broadcast that row; the run crosses a
    # forcing block boundary and ends in a shortened step
    mesh = periodic_mesh(10, SubdivisionRule.RRSV, 3)
    problem = Problem(u0=np.sin, source=lambda x, t: np.cos(x - 3.0 * t) + t)
    op = SpatialOperator(mesh, problem)
    assert op.L.row_blocks.shape[0] == 1
    tableau = ssp_tableau(s)
    tau = 2.0 ** np.floor(np.log2(0.5 / np.max(np.abs(np.linalg.eigvals(op.L.dense())))))
    steps = _block_steps(op) + 3
    state = project_initial(problem, mesh, mesh.k)
    t_final = (steps + 0.4) * tau
    got = integrate(state, problem, tableau, tau, t_final).values
    expected = state.values
    for step in range(steps):
        expected = stage_chain_step(expected, tableau, step * tau, tau, op)
    expected = stage_chain_step(expected, tableau, steps * tau, t_final - steps * tau, op)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("s", range(1, 13))
def test_stage_chain_matches_assembled_step(s):
    # with zero source samples the stage chain is P_s(tau L) u - u, which the
    # source-free step applies as one assembled map
    mesh = perturbed_mesh(12, 5, SubdivisionRule.RSV_ADAPTIVE, 3, BoundaryCondition.PERIODIC,
                          alpha=np.sin)
    problem = Problem(u0=lambda x: np.exp(np.sin(x)), alpha=np.sin)
    op = SpatialOperator(mesh, problem)
    values = project_initial(problem, mesh, 3).values
    tau = 0.5 / np.linalg.norm(materialize_operator(mesh, problem), 2)
    chain = stage_chain_increment(values, ssp_tableau(s), tau, op, np.zeros((s,) + values.shape))
    assembled = step_increment(values, op.increment_map(s, tau))
    assert np.max(np.abs(assembled - chain)) < 1e-13 * np.max(np.abs(chain))


@pytest.mark.parametrize("shortened", (False, True))
def test_source_free_integrate_assembles_the_step(monkeypatch, shortened):
    # one assembly for tau, one more for a shortened last step, no stage applications
    k, s, steps, tau = 2, 4, 9, 2.0 ** -5
    mesh = perturbed_mesh(10, 3, SubdivisionRule.RSV_ADAPTIVE, k, BoundaryCondition.PERIODIC,
                          alpha=np.sin)
    problem = Problem(u0=lambda x: np.exp(np.sin(x)), alpha=np.sin)
    state = project_initial(problem, mesh, k)
    t_final = (steps + (0.3 if shortened else 0.0)) * tau
    calls = {"tendency": 0, "polynomial": []}
    tendency, polynomial = SpatialOperator.tendency, SpatialOperator.polynomial

    def counted_tendency(self, values, t):
        calls["tendency"] += 1
        return tendency(self, values, t)

    def counted_polynomial(self, coeffs, tau=1.0):
        calls["polynomial"].append(tau)
        return polynomial(self, coeffs, tau)

    monkeypatch.setattr(SpatialOperator, "tendency", counted_tendency)
    monkeypatch.setattr(SpatialOperator, "polynomial", counted_polynomial)
    got = integrate(state, problem, ssp_tableau(s), tau, t_final).values
    assert calls["tendency"] == 0
    assert calls["polynomial"] == [tau] + ([t_final - steps * tau] if shortened else [])

    # the same steps through the dense truncated exponential
    mat = materialize_operator(mesh, problem)

    def dense_step(u, dt):
        acc, term = u.copy(), u.copy()
        for j in range(1, s + 1):
            term = dt * (mat @ term) / j
            acc = acc + term
        return acc

    u = state.values.ravel()
    for _ in range(steps):
        u = dense_step(u, tau)
    if shortened:
        u = dense_step(u, t_final - steps * tau)
    assert np.max(np.abs(got.ravel() - u)) < 1e-12 * np.max(np.abs(u))


def _record_increment_maps(monkeypatch):
    """The tau of every ``increment_map`` call and the (n_full, m) of every
    ``_fused_steps`` call from here on."""
    maps, fusions = [], []
    increment_map = SpatialOperator.increment_map

    def recorded(self, s, tau):
        maps.append(tau)
        return increment_map(self, s, tau)

    def recorded_fusion(one, n_full):
        m, band = _fused_steps(one, n_full)
        fusions.append((n_full, m))
        return m, band

    monkeypatch.setattr(SpatialOperator, "increment_map", recorded)
    monkeypatch.setattr(ssp_rk, "_fused_steps", recorded_fusion)
    return maps, fusions


def _fused_cases():
    # (mesh, problem, s, full steps): one-sided bands on both rules, one with
    # zero inflow, and a two-sided band on a two-orientation RSV mesh; each
    # step count fuses at least 2 steps and is not a multiple of the group
    rsv = perturbed_mesh(12, 5, SubdivisionRule.RSV_ADAPTIVE, 3, BoundaryCondition.PERIODIC,
                         alpha=np.sin)
    return [
        (periodic_mesh(12, SubdivisionRule.LSV, 2), Problem(u0=np.sin), 2, 101),
        (uniform_mesh(-1.0, 2.0, 16, SubdivisionRule.RRSV, 3, BoundaryCondition.INFLOW_ZERO),
         Problem(u0=lambda x: np.exp(-4.0 * x * x)), 3, 331),
        (rsv, Problem(u0=lambda x: np.exp(np.sin(x)), alpha=np.sin), 2, 133),
    ]


@pytest.mark.parametrize("case", range(3))
def test_fused_integrate_matches_chained_steps(monkeypatch, case):
    mesh, problem, s, steps = _fused_cases()[case]
    op = SpatialOperator(mesh, problem)
    tau = 0.5 / np.linalg.norm(op.L.dense(), 2)
    fused, _ = _fused_steps(op.increment_map(s, tau), steps)
    assert fused >= 2 and steps % fused
    tableau = ssp_tableau(s)
    state = project_initial(problem, mesh, mesh.k)
    state.t = 0.3
    t_final = state.t + (steps + 0.4) * tau
    maps, fusions = _record_increment_maps(monkeypatch)
    got = integrate(state, problem, tableau, tau, t_final)
    # one map for a step of tau, squared into the groups' map, one for the short step
    short = t_final - (state.t + steps * tau)
    assert maps == [tau, short] and fusions == [(steps, fused)]
    assert got.t == t_final

    expected = state
    for _ in range(steps):
        expected = rk_step(expected, problem, tableau, tau)
    expected = rk_step(expected, problem, tableau, t_final - expected.t)
    scale = np.max(np.abs(expected.values))
    assert np.max(np.abs(got.values - expected.values)) <= 1e-13 * scale

    # a callback sees every step, so each step is applied on its own
    maps.clear()
    fusions.clear()
    taken = []
    stepped = integrate(state, problem, tableau, tau, t_final,
                        on_step=lambda st: taken.append(st.t))
    assert maps == [tau, short] and fusions == []
    assert taken == [state.t + j * tau for j in range(1, steps + 1)] + [t_final]
    assert np.max(np.abs(stepped.values - got.values)) <= 1e-13 * scale


def test_fused_run_at_the_real_cfl(monkeypatch):
    # Example 1 at the analyzer's CFL exponent (e = 5/4 at s = 4), where
    # tau ||L|| is small and the squared maps are trimmed: the fused run
    # matches the stepwise one and conserves mass, and the one-step maps are
    # the exact-coefficient Horner products
    s, k, n = 4, 4, 32
    config = ExperimentConfig(example=1, scheme=SubdivisionRule.RRSV, k=k, s=s, n_values=(n,),
                              cfl=0.1, t_final=1.0)
    problem = problem_definition(1).make()
    mesh = build_mesh(config, n)
    tau = time_step(config, mesh)
    state = project_initial(problem, mesh, k)
    n_full, last = step_plan(state.t, tau, config.t_final)
    op = SpatialOperator(mesh, problem)
    fused, _ = _fused_steps(op.increment_map(s, tau), n_full)
    assert fused >= 8 and last > 0.0
    _, fusions = _record_increment_maps(monkeypatch)
    got = integrate(state, problem, ssp_tableau(s), tau, config.t_final)
    assert fusions == [(n_full, fused)]
    stepwise = integrate(state, problem, ssp_tableau(s), tau, config.t_final,
                         on_step=lambda st: None)
    scale = np.max(np.abs(stepwise.values))
    assert np.max(np.abs(got.values - stepwise.values)) <= 1e-13 * scale
    assert abs(got.total_mass - state.total_mass) <= 1e-13
    taylor = [0.0] + [float(Fraction(1, factorial(j))) for j in range(1, s + 1)]
    for dt in (tau, last):
        one_step, reference = op.increment_map(s, dt), op.polynomial(taylor, dt)
        assert np.array_equal(one_step.offsets, reference.offsets)
        assert np.array_equal(one_step.blocks, reference.blocks)


def test_sourced_integrate_steps_one_at_a_time(monkeypatch):
    # the source forcing is formed per step, so a sourced run never fuses
    mesh = periodic_mesh(12, SubdivisionRule.LSV, 2)
    problem = Problem(u0=np.sin, source=lambda x, t: np.cos(x - t))
    op = SpatialOperator(mesh, problem)
    steps, tau = 400, 2.0 ** -10
    assert _fused_steps(op.increment_map(2, tau), steps)[0] > 1
    maps, fusions = _record_increment_maps(monkeypatch)
    integrate(project_initial(problem, mesh, 2), problem, ssp_tableau(2), tau, steps * tau)
    assert maps == [tau] and fusions == []
