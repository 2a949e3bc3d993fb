import dataclasses
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import mpmath
import numpy as np
import pytest

from conftest import BOTH_RULES, pair_parts, periodic_mesh
from rksv import ssp_rk
from rksv.harness import ExperimentConfig, build_mesh, problem_definition, time_step
from rksv.mesh import BoundaryCondition, SubdivisionRule, perturbed_mesh, uniform_mesh
from rksv.ssp_rk import (BLOCK_STEPS, MAX_BATCH, _block_steps, _derivatives_from_samples,
                         _fusion, _GroupMaps, integrate, rk_step, ssp_tableau, step_increment,
                         step_plan)
from rksv.sv_space import BandedOperator, Problem, SpatialOperator, project_initial


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
    stepped = rk_step(state, problem, ssp_tableau(1), tau)
    euler = state.values + tau * SpatialOperator(mesh, problem).tendency(state.values, 0.0)
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
    mat = SpatialOperator(mesh, problem).L.dense()
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
    # every source call is on the N(k+3) element points.  A step taken on its
    # own uses the source at its s times t + i*tau, s-1 of them the previous
    # step's: across all calls integrate evaluates each sample time t0 + j*tau
    # of those steps once, bit-exactly, also across forcing blocks.  A fused
    # group of m steps from t0 + n*tau samples that first step time and its
    # d+1 fit nodes, strictly inside its span up to t0 + (n+m+s-2)*tau, in
    # one call per MAX_BATCH groups before the steps left over
    k, n = 3, 16
    steps = 1205
    mesh = periodic_mesh(n, SubdivisionRule.LSV, k)
    shapes, calls = [], []

    def g(x, t):
        shapes.append(x.shape[:2])
        calls.append(np.atleast_1d(t).tolist())
        return np.cos(x - t)

    problem = Problem(u0=np.sin, source=g)
    state = project_initial(problem, mesh, k)
    state.t = 0.375
    tau = 2.0 ** -10
    op = SpatialOperator(mesh, problem)
    m, maps = _fusion(op, s, tau, op.increment_map(s, tau), steps)
    assert m == 16
    groups = steps // m
    t_end = state.t + steps * tau
    full = [state.t + j * tau for j in range(steps + s - 1)]

    # with a callback every step is taken on its own: one call per block
    integrate(state, problem, ssp_tableau(s), tau, t_end, on_step=lambda st: None)
    assert set(shapes) == {(n, k + 3)} and len(calls) == -(-steps // BLOCK_STEPS)
    assert sorted(sum(calls, [])) == full

    shapes.clear()
    calls.clear()
    integrate(state, problem, ssp_tableau(s), tau, t_end)
    assert set(shapes) == {(n, k + 3)}
    batches = -(-groups // MAX_BATCH)
    starts = []
    for times in calls[:batches]:
        times = np.reshape(times, (len(maps.moments) + 1, -1))  # a column per group
        starts += times[0].tolist()
        for first, nodes in zip(times[0], times[1:].T):
            assert len(set(nodes)) == len(maps.moments)
            assert np.all((nodes > first) & (nodes < first + (m + s - 2) * tau))
    assert starts == [state.t + j * m * tau for j in range(groups)]
    assert sorted(sum(calls[batches:], [])) == full[groups * m:]
    fused = calls[:]

    # a shortened last step samples all s afresh at t + i*dt, after the full steps
    shapes.clear()
    calls.clear()
    dt = 0.75 * tau
    integrate(state, problem, ssp_tableau(s), tau, t_end + dt)
    assert set(shapes) == {(n, k + 3)}
    assert calls[:-1] == fused and calls[-1] == [t_end + i * dt for i in range(s)]

    # a run shorter than one step is that shortened step alone: one call
    shapes.clear()
    calls.clear()
    integrate(state, problem, ssp_tableau(s), tau, state.t + dt)
    assert shapes == [(n, k + 3)]
    assert calls == [[state.t + i * dt for i in range(s)]]


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
    tau = 0.5 / np.linalg.norm(op.L.dense(), 2)
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
    mat = SpatialOperator(mesh, problem).L.dense()

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
    """The tau of every ``increment_map`` call (("extended", tau) for
    ``extended_increment_map``) and the (n_full, m, type of the maps) of every
    ``_fusion`` call from here on."""
    maps, fusions = [], []
    increment_map = SpatialOperator.increment_map
    extended_increment_map = SpatialOperator.extended_increment_map

    def recorded(self, s, tau):
        maps.append(tau)
        return increment_map(self, s, tau)

    def recorded_extended(self, s, tau):
        maps.append(("extended", tau))
        return extended_increment_map(self, s, tau)

    def recorded_fusion(op, s, tau, one, n_full):
        m, group = _fusion(op, s, tau, one, n_full)
        fusions.append((n_full, m, type(group)))
        return m, group

    monkeypatch.setattr(SpatialOperator, "increment_map", recorded)
    monkeypatch.setattr(SpatialOperator, "extended_increment_map", recorded_extended)
    monkeypatch.setattr(ssp_rk, "_fusion", recorded_fusion)
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
    fused, _ = _fusion(op, s, tau, op.increment_map(s, tau), steps)
    assert fused >= 2 and steps % fused
    tableau = ssp_tableau(s)
    state = project_initial(problem, mesh, mesh.k)
    state.t = 0.3
    t_final = state.t + (steps + 0.4) * tau
    maps, fusions = _record_increment_maps(monkeypatch)
    got = integrate(state, problem, tableau, tau, t_final)
    # one map for a step of tau, squared into the groups' map, one for the short step
    short = t_final - (state.t + steps * tau)
    assert maps == [tau, short] and fusions == [(steps, fused, BandedOperator)]
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
    fused, _ = _fusion(op, s, tau, op.increment_map(s, tau), n_full)
    assert fused >= 8 and last > 0.0
    _, fusions = _record_increment_maps(monkeypatch)
    got = integrate(state, problem, ssp_tableau(s), tau, config.t_final)
    assert fusions == [(n_full, fused, BandedOperator)]
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
    # a sourced run fuses its full steps through an extended-precision A_m
    # (one float64 map for tau, one (hi, lo) Horner map squared into the
    # group map), unless a callback must see every step: one ladder call,
    # which returns the group maps, where the source-free copy squares A
    mesh = periodic_mesh(12, SubdivisionRule.LSV, 2)
    problem = Problem(u0=np.sin, source=lambda x, t: np.cos(x - t))
    op = SpatialOperator(mesh, problem)
    free = SpatialOperator(mesh, dataclasses.replace(problem, source=None))
    steps, tau = 400, 2.0 ** -10
    assert _fusion(free, 2, tau, free.increment_map(2, tau), steps)[0] > 1
    m, _ = _fusion(op, 2, tau, op.increment_map(2, tau), steps)
    assert m > 1
    maps, fusions = _record_increment_maps(monkeypatch)
    state = project_initial(problem, mesh, 2)
    fused = integrate(state, problem, ssp_tableau(2), tau, steps * tau)
    assert maps == [tau, ("extended", tau)] and fusions == [(steps, m, _GroupMaps)]

    maps.clear()
    fusions.clear()
    stepwise = integrate(state, problem, ssp_tableau(2), tau, steps * tau,
                         on_step=lambda st: None)
    assert maps == [tau] and fusions == []
    scale = np.max(np.abs(stepwise.values))
    assert np.max(np.abs(fused.values - stepwise.values)) <= 1e-13 * scale


def _ladder_arrays(maps):
    """Every array that the group maps of a fused sourced run hold."""
    return [band.row_blocks for band in (maps.a, *maps.moments)]


def test_sourced_run_fuses_without_extended_longdouble(monkeypatch):
    # the (hi, lo) ladder is float64 arithmetic throughout, so where
    # np.longdouble is no wider than float64 (patched so here) a sourced run
    # still fuses with the same m and the same maps, none of them
    # np.longdouble, and matches the stepwise run
    mesh, problem = _forcing_cases()[0]
    op = SpatialOperator(mesh, problem)
    s, steps = 3, 1500
    tau = 2.0 ** np.floor(np.log2(1e-3 / np.max(np.abs(np.linalg.eigvals(op.L.dense())))))
    one = op.increment_map(s, tau)
    m, maps = _fusion(op, s, tau, one, steps)
    assert m > 1
    extended = np.dtype(np.longdouble)
    monkeypatch.setattr(np, "longdouble", np.float64)
    plain_m, plain = _fusion(op, s, tau, one, steps)
    assert plain_m == m
    for a, b in zip(_ladder_arrays(maps), _ladder_arrays(plain), strict=True):
        assert a.dtype == b.dtype == np.float64 != extended and np.array_equal(a, b)
    maps, fusions = _record_increment_maps(monkeypatch)
    state = project_initial(problem, mesh, mesh.k)
    t_final = (steps + 0.5) * tau
    got = integrate(state, problem, ssp_tableau(s), tau, t_final)
    assert fusions == [(steps, m, _GroupMaps)]
    assert maps == [tau, ("extended", tau), t_final - steps * tau]
    stepwise = integrate(state, problem, ssp_tableau(s), tau, t_final, on_step=lambda st: None)
    scale = np.max(np.abs(stepwise.values))
    assert np.max(np.abs(got.values - stepwise.values)) <= 1e-13 * scale


def source_free_ladder(one, n_full):
    """Oracle: the float64 ladder of source-free runs as its own function, as
    it was before one ``_fusion`` served both kinds of run, kept to pin that
    merge bit for bit."""
    n, k1, _ = one.blocks.shape
    m, band = 1, one
    while n_full // (2 * m) > len(band.offsets) * k1:
        doubled = band.compose(band)
        if len(doubled.offsets) >= n:
            break
        m, band = 2 * m, doubled
    return m, band


def _longdouble_pair(band):
    """A np.longdouble band B as a (hi, lo) pair band: float64(B) over float64(B - hi)."""
    hi = band._grid.astype(np.float64)
    pair = np.concatenate([hi, (band._grid - hi).astype(np.float64)], axis=1)
    return BandedOperator(np.broadcast_to(pair, (len(band.blocks),) + pair.shape[1:]),
                          band.offsets)


def sourced_ladder(op, s, tau, one, n_full):
    """Oracle: the sourced ladder as its own function (see ``source_free_ladder``),
    as it was when A_m was squared in np.longdouble: the Horner map with a
    np.longdouble tau and coefficients, squared by ``compose``, which keeps
    the dtype, and split into a float64 (hi, lo) pair."""
    d = max(ssp_rk.FIT_DEGREE, s - 1)
    least = 1 << (d + 1).bit_length()
    rate = (ssp_rk._EXTENDED_SQUARE + d + 1) * (op.mesh.k + 1) / (2 * d + 4)
    if n_full // least <= rate * len(one.offsets):
        return 1, one
    taylor = [np.longdouble(0)] + [np.longdouble(1) / factorial(j) for j in range(1, s + 1)]
    m, band = 1, op.polynomial(taylor, np.longdouble(tau))
    moments = [op.polynomial(tau * weights, tau) for weights in ssp_rk._forcing_weights(s, d).T]
    second = np.array([[comb(q, r) * 2.0 ** -q for q in range(d + 1)] for r in range(d + 1)])
    first = second * (-1.0) ** np.add.outer(np.arange(d + 1), np.arange(d + 1))
    while 2 * m <= ssp_rk.MAX_GROUP and n_full // (2 * m) > rate * len(band.offsets):
        doubled = band.compose(band)
        if len(doubled.offsets) >= op.mesh.n_elements:
            break
        hi, band, m = _longdouble_pair(band), doubled, 2 * m  # the product reads its hi
        for q in range(d, -1, -1):
            moments[q] = hi.product(ssp_rk._combination(moments[:q + 1], first[:q + 1, q]),
                                    ssp_rk._combination(moments[:q + 1],
                                                        (first + second)[:q + 1, q]))
    return (m, _GroupMaps(_longdouble_pair(band), moments)) if m >= least else (1, one)


def _same_band(a, b):
    return (np.array_equal(a.offsets, b.offsets) and a.row_blocks.dtype == b.row_blocks.dtype
            and np.array_equal(a.row_blocks, b.row_blocks))


def _close_band(a, b, rel):
    """a and b on the same offsets, their blocks within rel of b's largest."""
    return (np.array_equal(a.offsets, b.offsets) and
            np.max(np.abs(a.blocks - b.blocks)) <= rel * np.max(np.abs(b.blocks)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="the sourced oracle needs an extended np.longdouble")
@pytest.mark.parametrize("s", (3, 12))
def test_one_ladder_matches_the_two_it_replaced(s):
    # _fusion against the two ladders it replaced over an n_full sweep: the
    # same m at every point; without a source a bit-identical A_m, with one
    # hi + lo within 2^-62 of the np.longdouble oracle's and the moment maps
    # within 1e-15 (they are doubled with float64(A_m), which may differ by
    # an ulp).  On N=16, k=1 at tau = 2^-5 the widths go 4, 7, 13, 16 (with
    # s = 3), so the ladder breaks at mesh width, and the sourced one, below
    # its least m, does not fuse; at tau = 2^-12 the price sets m over the
    # sweep, and the sourced m stops at MAX_GROUP
    mesh = periodic_mesh(16, SubdivisionRule.LSV, 1)
    sourced = Problem(u0=np.sin, source=lambda x, t: np.cos(x - t))
    sweep = [2] + [3 << e for e in range(15)]
    seen = {}
    for problem in (dataclasses.replace(sourced, source=None), sourced):
        op = SpatialOperator(mesh, problem)
        for tau in (2.0 ** -5, 2.0 ** -12):
            one = op.increment_map(s, tau)
            for n_full in sweep:
                m, got = _fusion(op, s, tau, one, n_full)
                if problem.source is None:
                    expected_m, expected = source_free_ladder(one, n_full)
                else:
                    expected_m, expected = sourced_ladder(op, s, tau, one, n_full)
                assert m == expected_m, (problem.source, tau, n_full)
                seen.setdefault(("sourced" if problem.source else "free", tau), []).append(m)
                if isinstance(expected, _GroupMaps):
                    assert np.array_equal(got.a.offsets, expected.a.offsets), (tau, n_full)
                    pair, oracle = (hi.dense().astype(np.longdouble) + lo.dense()
                                    for hi, lo in (pair_parts(got.a), pair_parts(expected.a)))
                    defect = np.max(np.abs(pair - oracle))
                    assert defect <= 2.0 ** -62 * np.max(np.abs(oracle)), (tau, n_full)
                    assert all(_close_band(a, b, 1e-15) for a, b in
                               zip(got.moments, expected.moments, strict=True)), (tau, n_full)
                else:
                    assert isinstance(got, BandedOperator) and got.blocks.dtype == np.float64
                    assert _same_band(got, expected), (problem.source, tau, n_full)
    # the sweep crosses the price, the mesh-width break, least and MAX_GROUP
    free = SpatialOperator(mesh, dataclasses.replace(sourced, source=None))
    band = _fusion(free, s, 2.0 ** -5, free.increment_map(s, 2.0 ** -5), 2 ** 16)[1]
    assert len(band.compose(band).offsets) >= mesh.n_elements
    assert max(seen["free", 2.0 ** -5]) > 1 and set(seen["sourced", 2.0 ** -5]) == {1}
    assert len(set(seen["free", 2.0 ** -12])) >= 5
    assert max(seen["free", 2.0 ** -12]) > ssp_rk.MAX_GROUP
    least = 1 << (max(ssp_rk.FIT_DEGREE, s - 1) + 1).bit_length()
    assert {1, ssp_rk.MAX_GROUP} <= set(seen["sourced", 2.0 ** -12])
    assert min(m for m in seen["sourced", 2.0 ** -12] if m > 1) >= least


def test_benchmark_runs_pick_their_group_sizes():
    # m of the benchmark's solves, which the merge of the ladders kept: the
    # three advection cells at N = 16..128 and the degenerate Example 2 solve
    cells = {(3, 1, "rrsv"): (4, 4, 8, 16), (4, 4, "lsv"): (16, 32, 64, 128),
             (4, 4, "rrsv"): (16, 32, 64, 128)}
    runs = [(ExperimentConfig(example=1, scheme=SubdivisionRule(scheme), k=k, s=s,
                              n_values=(16, 32, 64, 128), cfl=0.1, t_final=1.0), picked)
            for (s, k, scheme), picked in cells.items()]
    runs.append((ExperimentConfig(example=2, scheme=SubdivisionRule.RSV_ADAPTIVE, k=5, s=5,
                                  n_values=(64,), cfl=1e-3, t_final=0.1), (64,)))
    for config, picked in runs:
        problem = problem_definition(config.example).make()
        got = []
        for n in config.n_values:
            mesh = build_mesh(config, n)
            tau = time_step(config, mesh)
            n_full, _ = step_plan(0.0, tau, config.t_final)
            op = SpatialOperator(mesh, problem)
            got.append(_fusion(op, config.s, tau, op.increment_map(config.s, tau), n_full)[0])
        assert tuple(got) == picked, config


@pytest.mark.parametrize("s", (3, 5))
def test_extended_fused_map_matches_mpmath(s):
    # A_m = P_s(tau L)^m - I by Horner and squaring in np.longdouble, split
    # into float64 (hi, lo), against the same Horner and squaring in 128-bit
    # mpmath from the float64 L, on a two-orientation mesh; tau ||L|| ~ 1e-3
    # keeps the band of A_16 (11 offsets) narrower than the mesh, and the
    # float64 ladder of compose misses the same bound by ~20x
    mesh = perturbed_mesh(12, 5, SubdivisionRule.RSV_ADAPTIVE, 1, BoundaryCondition.PERIODIC,
                          alpha=np.sin)
    assert mesh.left_oriented.any() and not mesh.left_oriented.all()
    op = SpatialOperator(mesh, Problem(u0=np.sin, alpha=np.sin, source=lambda x, t: x))
    l_dense = op.L.dense()
    tau = 2.0 ** np.floor(np.log2(1e-3 / np.max(np.abs(np.linalg.eigvals(l_dense)))))
    one = op.increment_map(s, tau)
    m, fused = _fusion(op, s, tau, one, 1000)
    assert m == 16 and len(fused.a.offsets) < mesh.n_elements
    hi, lo = pair_parts(fused.a)
    with mpmath.workprec(128):
        tau_l = mpmath.matrix(l_dense.tolist()) * tau
        eye = mpmath.eye(tau_l.rows)
        p = eye
        for j in range(s, 0, -1):  # P_s(z) = 1 + z/1 (1 + z/2 (1 + ...))
            p = eye + tau_l * p / j
        exact = p - eye
        for _ in range(4):
            exact = exact + exact + exact * exact
        # hi + lo - exact, summed in 128 bits and rounded once
        defect = np.array((mpmath.matrix(hi.dense().tolist())
                           + mpmath.matrix(lo.dense().tolist()) - exact).tolist(),
                          dtype=float)
        squared = one
        for _ in range(4):
            squared = squared.compose(squared)
        float64_defect = np.array((mpmath.matrix(squared.dense().tolist()) - exact).tolist(),
                                  dtype=float)
    scale = np.max(np.abs(hi.dense()))
    assert np.max(np.abs(defect)) <= 1e-17 * scale
    assert np.max(np.abs(float64_defect)) > 1e-17 * scale


@pytest.mark.parametrize("s", (1, 2, 3, 5, 8, 12))
def test_fused_sourced_integrate_matches_stage_chain(s):
    # the fused run (groups of m steps through A_m and the batched forced
    # response, then the steps left one at a time and a shortened step)
    # against the stage chain stepped one step at a time with fresh samples;
    # the groups fill two or more super-blocks of MAX_BATCH groups
    tableau = ssp_tableau(s)
    for mesh, problem in _forcing_cases():
        op = SpatialOperator(mesh, problem)
        tau = 2.0 ** np.floor(np.log2(1e-3 / np.max(np.abs(np.linalg.eigvals(op.L.dense())))))
        m, _ = _fusion(op, s, tau, op.increment_map(s, tau), 10 ** 6)
        assert m >= 16
        steps = (MAX_BATCH + 1) * m + 5
        state = project_initial(problem, mesh, mesh.k)
        state.t = 0.3
        t_final = state.t + (steps + 0.4) * tau
        got = integrate(state, problem, tableau, tau, t_final).values
        expected = state.values
        for step in range(steps):
            expected = stage_chain_step(expected, tableau, state.t + step * tau, tau, op)
        t_last = state.t + steps * tau
        expected = stage_chain_step(expected, tableau, t_last, t_final - t_last, op)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-13 * scale, mesh.bc


def chain_forced_response(op, s, t, tau, m):
    """Oracle: the forced response sum_j P^{m-1-j} f^{n+j} of m steps from t
    (P = I + A), by a chain through the m+s-1 samples that shares nothing
    with the moment maps: S_{-1} = 0, S_j = P S_{j-1} + G(t + j*tau), and
    W = F - P^m V, F = sum_i F_i S_{m-1+i}, V = sum_{i>=1} F_i S_{i-1}."""
    one = op.increment_map(s, tau)
    samples = op.source_integrals(t + np.arange(m + s - 1) * tau)
    chain = np.zeros(samples.shape[:2])
    snaps = [chain]
    for j in range(m + s - 1):
        chain = chain + one.apply(chain) + samples[:, :, j]
        snaps.append(chain)
    windows = np.stack([np.stack(snaps[m:m + s]), np.stack(snaps[:s])]).reshape(2, s, -1)
    f, v = ssp_rk._forcing(op, s, tau, windows).T.reshape((2,) + chain.shape)
    for _ in range(m):
        v = v + one.apply(v)
    return f - v


@pytest.mark.parametrize("s", (1, 2, 3, 5, 8, 12))
def test_moment_forced_response_matches_chain(s):
    # every fused group's W = sum_q M_q c_q, over two batches of groups,
    # against the chain through its samples
    for mesh, problem in _forcing_cases():
        op = SpatialOperator(mesh, problem)
        tau = 2.0 ** np.floor(np.log2(1e-3 / np.max(np.abs(np.linalg.eigvals(op.L.dense())))))
        one = op.increment_map(s, tau)
        m, maps = _fusion(op, s, tau, one, 10 ** 6)
        assert m >= 16 and len(maps.moments) >= s
        t0 = 0.3
        plan = list(ssp_rk._group_steps(op, s, t0, tau, one, maps, m, (MAX_BATCH + 1) * m))
        assert [steps for _, steps, _ in plan] == [m] * (MAX_BATCH + 1)
        for g, (_, _, w) in enumerate(plan):
            expected = chain_forced_response(op, s, t0 + g * m * tau, tau, m)
            assert np.max(np.abs(w - expected)) <= 1e-14 * np.max(np.abs(expected)), (mesh.bc, g)


def test_fit_check_steps_the_groups_of_a_fast_source():
    # cos(x - 300 t) turns by ~0.3 rad over a group's span, which the fit
    # cannot follow to rounding: every group's check fires and its steps are
    # taken one at a time, and the run still matches the stage chain
    mesh, _ = _forcing_cases()[0]
    problem = Problem(u0=lambda x: np.exp(np.sin(x)), alpha=np.sin,
                      source=lambda x, t: np.cos(x - 300.0 * t))
    op = SpatialOperator(mesh, problem)
    s, steps = 3, 1500
    tau = 2.0 ** np.floor(np.log2(1e-3 / np.max(np.abs(np.linalg.eigvals(op.L.dense())))))
    one = op.increment_map(s, tau)
    m, maps = _fusion(op, s, tau, one, steps)
    assert m > 1
    plan = list(ssp_rk._group_steps(op, s, 0.0, tau, one, maps, m, steps))
    assert len(plan) == steps and all(n == 1 for _, n, _ in plan)
    tableau = ssp_tableau(s)
    state = project_initial(problem, mesh, mesh.k)
    got = integrate(state, problem, tableau, tau, steps * tau).values
    expected = state.values
    for step in range(steps):
        expected = stage_chain_step(expected, tableau, step * tau, tau, op)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("s", (1, 3, 5, 8, 12))
def test_fused_run_exact_for_polynomial_source(s):
    # a source of degree s-1 in t (so d >= s-1): the groups' fits reproduce
    # it, and for a constant state (L u = 0) the fused run adds its exact
    # integral, as a single step does
    mesh = periodic_mesh(24, SubdivisionRule.LSV, 2)
    poly = np.polynomial.Polynomial([(-1.0) ** m * (m + 1) / factorial(m) for m in range(s)])
    problem = Problem(u0=lambda x: 0.7 * np.ones_like(x),
                      source=lambda x, t: poly(t) * np.ones_like(x))
    state = project_initial(problem, mesh, 2)
    state.t = 0.3
    tau, steps = 2.0 ** -12, 2003
    op = SpatialOperator(mesh, problem)
    m, maps = _fusion(op, s, tau, op.increment_map(s, tau), steps)
    assert m >= 16 and len(maps.moments) >= s
    t_final = state.t + steps * tau
    got = integrate(state, problem, ssp_tableau(s), tau, t_final)
    anti = poly.integ()
    expected = state.values + (anti(t_final) - anti(state.t)) * mesh.cv_widths
    assert np.max(np.abs(got.values - expected)) < 1e-13
