from collections import Counter

import numpy as np
import pytest
from numpy.polynomial import legendre as leg

from conftest import BOTH_RULES, periodic_mesh, random_coeffs, state_from_coeffs
from rksv import sv_space
from rksv.harness import run_checks
from rksv.mesh import BoundaryCondition, SubdivisionRule, perturbed_mesh, uniform_mesh
from rksv.sv_space import (Problem, SpatialOperator, SvState, apply_L, error_norms,
                           materialize_operator, project_initial, reconstruct, snapshot_table,
                           workspace)


def cv_mass_matrix(rule, k):
    """M[j, m] = integral of L_m over the j-th reference CV of the rule."""
    return sv_space._variant(rule, k, False).mass


def test_mass_matrix_lsv_k1():
    m = cv_mass_matrix(SubdivisionRule.LSV, 1)
    assert np.allclose(m, [[1.0, -0.5], [1.0, 0.5]], atol=1e-15)


def test_mass_matrix_rrsv_k1():
    m = cv_mass_matrix(SubdivisionRule.RRSV, 1)
    assert np.allclose(m, [[2.0 / 3.0, -4.0 / 9.0], [4.0 / 3.0, 4.0 / 9.0]], atol=1e-15)


@pytest.mark.parametrize("rule", BOTH_RULES)
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_mass_matrix_first_column_is_cv_widths(rule, k):
    from rksv.mesh import reference_nodes

    m = cv_mass_matrix(rule, k)
    widths = np.diff(reference_nodes(rule, k))
    assert np.allclose(m[:, 0], widths, atol=1e-15)


_VARIANT_TABLES = ("y", "mass", "mass_inv", "trace", "trace_map", "quad_y", "quad_w",
                   "quad_basis", "source_map", "node_weights", "interp_inv")


def test_meshes_share_one_variant_per_rule_and_k():
    meshes = [periodic_mesh(6, SubdivisionRule.RRSV, 3),
              perturbed_mesh(11, 2, "rrsv", 3, BoundaryCondition.INFLOW_ZERO)]
    first, second = (workspace(mesh).variants for mesh in meshes)
    assert len(first) == len(second) == 1
    assert first[0] is second[0]
    assert workspace(periodic_mesh(6, SubdivisionRule.LSV, 3)).variants[0] is not first[0]
    # the key is normalised: a string rule and a numpy bool reach the same entry
    sv_space._shared_variant.cache_clear()
    ops = sv_space._variant("lsv", np.int64(2), np.bool_(False))
    assert ops is sv_space._variant(SubdivisionRule.LSV, 2, False)
    assert ops.rule is SubdivisionRule.LSV and ops.left_oriented is False


def test_two_orientation_rsv_mesh_has_one_variant_per_orientation():
    mesh = perturbed_mesh(10, 3, SubdivisionRule.RSV_ADAPTIVE, 3, BoundaryCondition.PERIODIC,
                          alpha=np.sin)
    variants = workspace(mesh).variants
    assert [v.left_oriented for v in variants] == [False, True]
    other = uniform_mesh(0.0, 2.0 * np.pi, 9, SubdivisionRule.RSV_ADAPTIVE, 3,
                         BoundaryCondition.PERIODIC, alpha=np.sin)
    assert [v.left_oriented for v in workspace(other).variants] == [False, True]
    assert all(a is b for a, b in zip(variants, workspace(other).variants))
    assert np.array_equal(variants[1].y, -variants[0].y[::-1])


def test_right_oriented_rsv_shares_the_rrsv_variant():
    # both use the right-Radau nodes, so they are one process-wide entry
    for k in (1, 3):
        assert sv_space._variant("rsv", k, False) is sv_space._variant("rrsv", k, False)
        assert sv_space._variant("rsv", k, True) is not sv_space._variant("rrsv", k, False)
    mesh = perturbed_mesh(10, 3, SubdivisionRule.RSV_ADAPTIVE, 3, BoundaryCondition.PERIODIC,
                          alpha=np.sin)
    assert workspace(mesh).variants[0] is workspace(periodic_mesh(6, "rrsv", 3)).variants[0]


@pytest.mark.parametrize("rule, left_oriented", [("lsv", False), ("rrsv", False),
                                                 ("rsv", False), ("rsv", True)])
def test_variant_tables_are_read_only(rule, left_oriented):
    ops = sv_space._variant(rule, 2, left_oriented)
    for name in _VARIANT_TABLES:
        table = getattr(ops, name)
        with pytest.raises(ValueError):
            table[...] = 0.0
    # every array the variant holds, eager or cached, is among the names checked
    held = {name for name, value in vars(ops).items() if isinstance(value, np.ndarray)}
    assert held == set(_VARIANT_TABLES)


def test_single_variant_mesh_tables_are_shared_views():
    # one variant: each table is a read-only view of the shared table, not a copy
    ws = workspace(periodic_mesh(6, SubdivisionRule.RRSV, 2))
    assert len(ws.variants) == 1
    for name in _VARIANT_TABLES:
        table, shared = ws.table(name), getattr(ws.variants[0], name)
        assert table.shape == (6,) + shared.shape and np.array_equal(table[4], shared)
        assert np.shares_memory(table, shared) and not table.flags.writeable
        assert ws.table(name) is table


def test_check_suite_builds_each_variant_once(monkeypatch):
    built = Counter()
    init = sv_space._VariantOps.__init__

    def counted(self, rule, k, left_oriented):
        built[rule, k, left_oriented] += 1
        init(self, rule, k, left_oriented)

    monkeypatch.setattr(sv_space._VariantOps, "__init__", counted)
    sv_space._shared_variant.cache_clear()
    assert run_checks(0, 10).passed
    assert 1 <= len(built) <= 8 and max(built.values()) == 1


def test_reconstruct_constant():
    mesh = periodic_mesh(6, SubdivisionRule.RRSV, 2)
    values = mesh.cv_widths.copy()  # integrals of the unit function
    rec = reconstruct(SvState(mesh, 2, values, 0.0))
    assert np.allclose(rec.coeffs[:, 0], 1.0, atol=1e-14)
    assert np.allclose(rec.coeffs[:, 1:], 0.0, atol=1e-14)


@pytest.mark.parametrize("rule", BOTH_RULES)
def test_reconstruct_reproduces_global_polynomial(rule):
    k = 3
    mesh = uniform_mesh(-1.0, 2.0, 5, rule, k, BoundaryCondition.INFLOW_ZERO)
    poly = np.polynomial.Polynomial([0.3, -1.2, 0.5, 2.0])
    anti = poly.integ()
    values = anti(mesh.cv_bounds[:, 1:]) - anti(mesh.cv_bounds[:, :-1])
    rec = reconstruct(SvState(mesh, k, values, 0.0))
    x = np.linspace(-1.0, 2.0, 201)[1:-1]
    idx = np.searchsorted(mesh.boundaries, x, side="right") - 1
    y = (x - mesh.centers[idx]) * 2.0 / mesh.lengths[idx]
    u_h = np.einsum("pm,pm->p", rec.coeffs[idx], leg.legvander(y, k))
    assert np.max(np.abs(u_h - poly(x))) < 1e-12


def test_reconstruct_k1_matches_direct_solve(rng):
    # independent oracle: solve the 2x2 system for the element polynomial;
    # over half an element, integral of 1 is h/2 and of y(x) is -+h/4
    mesh = uniform_mesh(0.0, 1.0, 2, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)
    values = np.array([[0.2, 0.3], [0.1, -0.4]])
    rec = reconstruct(SvState(mesh, 1, values, 0.0))
    for i in range(2):
        h = mesh.lengths[i]
        a = np.array([[h / 2.0, -h / 4.0], [h / 2.0, h / 4.0]])
        c = np.linalg.solve(a, values[i])
        assert np.allclose(rec.coeffs[i], c, atol=1e-13)


def test_reconstruction_round_trip(rng):
    for rule in BOTH_RULES:
        mesh = periodic_mesh(9, rule, 4)
        coeffs = random_coeffs(rng, mesh)
        state = state_from_coeffs(mesh, coeffs)
        rec = reconstruct(state)
        assert np.max(np.abs(rec.coeffs - coeffs)) < 1e-12


@pytest.mark.parametrize("rule", BOTH_RULES)
@pytest.mark.parametrize("s_shape", [(8, 2)])
def test_apply_L_constant_state(rule, s_shape):
    n, k = s_shape
    mesh = periodic_mesh(n, rule, k)
    problem = Problem(u0=lambda x: np.ones_like(x))
    state = project_initial(problem, mesh, k)
    assert np.max(np.abs(apply_L(state, problem))) < 1e-13


def test_apply_L_telescopes_to_zero(rng):
    mesh = periodic_mesh(8, SubdivisionRule.RRSV, 2)
    problem = Problem(u0=np.sin)
    state = project_initial(problem, mesh, 2)
    assert abs(apply_L(state, problem).sum()) < 1e-12


def test_apply_L_global_linear_inflow():
    mesh = uniform_mesh(0.0, 1.0, 4, SubdivisionRule.LSV, 1, BoundaryCondition.INFLOW_ZERO)
    problem = Problem(u0=lambda x: x)
    state = project_initial(problem, mesh, 1)
    tendency = apply_L(state, problem)
    expected = mesh.cv_bounds[:, :-1] - mesh.cv_bounds[:, 1:]
    expected[0, 0] = 0.0 - mesh.cv_bounds[0, 1]  # zero ghost at the inflow
    assert np.max(np.abs(tendency - expected)) < 1e-13


def test_apply_L_is_linear(rng):
    mesh = periodic_mesh(6, SubdivisionRule.LSV, 2)
    problem = Problem(u0=np.sin)
    u = rng.normal(size=(6, 3))
    v = rng.normal(size=(6, 3))
    f = lambda w: apply_L(SvState(mesh, 2, w, 0.0), problem)
    assert np.allclose(f(2.0 * u - 3.0 * v), 2.0 * f(u) - 3.0 * f(v), atol=1e-12)


def test_project_constant_gives_cv_widths():
    mesh = periodic_mesh(5, SubdivisionRule.RRSV, 3)
    state = project_initial(Problem(u0=lambda x: np.ones_like(x)), mesh, 3)
    assert np.max(np.abs(state.values - mesh.cv_widths)) < 1e-14


def test_project_sine_has_zero_mass():
    mesh = periodic_mesh(16, SubdivisionRule.LSV, 2)
    state = project_initial(Problem(u0=np.sin), mesh, 2)
    assert abs(state.total_mass) < 1e-12


def test_project_quadratic_single_cv():
    # element [-0.1, 0.3] with a midpoint split puts one CV exactly at [0.1, 0.3]
    mesh = uniform_mesh(-0.5, 0.3, 2, SubdivisionRule.LSV, 1, BoundaryCondition.INFLOW_ZERO)
    state = project_initial(Problem(u0=lambda x: x * x), mesh, 1)
    assert abs(mesh.cv_bounds[1, 1] - 0.1) < 1e-15
    assert abs(state.values[1, 1] - (0.027 - 0.001) / 3.0) < 1e-15


def test_project_initial_order_on_perturbed_mesh():
    # Example 2 at t=0, k=5: the projection error must keep falling as h^6
    # rather than stall at a round-off floor that grows with N
    from rksv.harness import ExperimentConfig, build_mesh, problem_definition

    problem = problem_definition(2).make()
    errs = []
    for n in (128, 256):
        cfg = ExperimentConfig(example=2, scheme=SubdivisionRule.RSV_ADAPTIVE, k=5, s=5,
                               n_values=(n,), cfl=1e-3)
        state = project_initial(problem, build_mesh(cfg, n), 5)
        errs.append(error_norms(state, problem)[0])
    order = np.log2(errs[0] / errs[1])
    assert order >= 5.8, f"L2 errors {errs}, order {order:.2f}"


def test_error_norms_exact_polynomial():
    mesh = uniform_mesh(0.0, 1.0, 4, SubdivisionRule.RRSV, 2, BoundaryCondition.INFLOW_ZERO)
    poly = np.polynomial.Polynomial([0.1, 0.4, -0.7])
    problem = Problem(u0=poly, u_exact=lambda x, t: poly(x))
    state = project_initial(problem, mesh, 2)
    l2, linf = error_norms(state, problem)
    assert l2 < 1e-13 and linf < 1e-13


def test_error_norms_constant_offset():
    # u_h is a degree-k polynomial reproduced exactly, so the offset dominates
    mesh = uniform_mesh(0.0, 1.0, 4, SubdivisionRule.LSV, 1, BoundaryCondition.INFLOW_ZERO)
    poly = np.polynomial.Polynomial([0.2, 0.9])
    c = 0.37
    problem = Problem(u0=poly, u_exact=lambda x, t: poly(x) + c)
    state = project_initial(problem, mesh, 1)
    l2, linf = error_norms(state, problem)
    assert abs(l2 - c * np.sqrt(1.0)) < 1e-13
    assert abs(linf - c) < 1e-13


def test_error_norms_projection_scale_k2():
    # frozen from the projection-only oracle: L2 = 4.36e-5 (LSV), 4.91e-5 (RRSV)
    for rule in BOTH_RULES:
        mesh = periodic_mesh(32, rule, 2)
        problem = Problem(u0=np.sin, u_exact=lambda x, t: np.sin(x - t))
        state = project_initial(problem, mesh, 2)
        l2, _ = error_norms(state, problem)
        assert 1e-4 / 3.0 < l2 < 3e-4


def test_error_norms_requires_exact_solution():
    mesh = periodic_mesh(4, SubdivisionRule.LSV, 1)
    state = project_initial(Problem(u0=np.sin), mesh, 1)
    with pytest.raises(ValueError):
        error_norms(state, Problem(u0=np.sin))


def test_snapshot_table_matches_projected_polynomial():
    mesh = uniform_mesh(0.0, 1.0, 3, SubdivisionRule.LSV, 2, BoundaryCondition.INFLOW_ZERO)
    poly = np.polynomial.Polynomial([0.2, -0.3, 1.1])
    state = project_initial(Problem(u0=poly), mesh, 2)
    lines = snapshot_table(state, points_per_element=4).splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 3 * 4
    x, u = map(float, lines[5].split())
    assert abs(u - poly(x)) < 1e-12


def test_materialize_operator_matches_apply(rng):
    mesh = periodic_mesh(4, SubdivisionRule.RRSV, 1)
    problem = Problem(u0=np.sin)
    mat = materialize_operator(mesh, problem)
    u = rng.normal(size=(4, 2))
    direct = apply_L(SvState(mesh, 1, u, 0.0), problem)
    assert np.allclose(mat @ u.ravel(), direct.ravel(), atol=1e-13)


def _oracle_linear(mesh, alpha, values):
    """Flux differences from a per-element reconstruction, upwinded interface by interface."""
    n, k = mesh.n_elements, mesh.k
    traces = np.empty((n, k + 2))
    for i in range(n):
        y = (mesh.cv_bounds[i] - mesh.centers[i]) * (2 / mesh.lengths[i])
        anti = np.array([leg.legval(y, leg.legint(mode)) for mode in np.eye(k + 1)]).T
        cv_mass = 0.5 * mesh.lengths[i] * np.diff(anti, axis=0)
        traces[i] = leg.legval(y, np.linalg.solve(cv_mass, values[i]))
    periodic = mesh.bc == BoundaryCondition.PERIODIC
    zero = np.zeros(1)
    u_minus = np.concatenate([traces[-1:, -1] if periodic else zero, traces[:, -1]])
    u_plus = np.concatenate([traces[:, 0], traces[:1, 0] if periodic else zero])
    x_if = mesh.boundaries.copy()
    if periodic:
        x_if[-1] = x_if[0]  # the two domain ends are one interface
    a_if = alpha(x_if)
    f_if = a_if * np.where(a_if >= 0.0, u_minus, u_plus)
    flux = np.empty((n, k + 2))
    flux[:, 0] = f_if[:-1]
    flux[:, -1] = f_if[1:]
    flux[:, 1:-1] = alpha(mesh.cv_bounds[:, 1:-1]) * traces[:, 1:-1]
    return flux[:, :-1] - flux[:, 1:]


def _sine_meshes(k):
    rsv = SubdivisionRule.RSV_ADAPTIVE
    return [
        # N odd: the middle element straddles the sink x = pi of alpha = sin
        uniform_mesh(0.0, 2.0 * np.pi, 9, rsv, k, BoundaryCondition.PERIODIC, alpha=np.sin),
        perturbed_mesh(10, 3, rsv, k, BoundaryCondition.PERIODIC, alpha=np.sin),
        # alpha > 0 at the left end and < 0 at the right end: inflow at both
        uniform_mesh(0.3, 2.0 * np.pi - 0.3, 7, rsv, k, BoundaryCondition.INFLOW_ZERO,
                     alpha=np.sin),
    ]


@pytest.mark.parametrize("k", range(1, 6))
def test_linear_matches_upwind_oracle(rng, k):
    one = lambda x: np.ones_like(x)
    sine_meshes = _sine_meshes(k)
    for mesh in sine_meshes[:2]:
        a = np.sin(mesh.boundaries)
        assert np.any((a[:-1] > 0.0) & (a[1:] < 0.0)), "no element couples to both neighbours"
    cases = [(mesh, np.sin) for mesh in sine_meshes]
    for rule in BOTH_RULES:
        cases.append((periodic_mesh(6, rule, k), one))
        cases.append((uniform_mesh(-1.0, 2.0, 5, rule, k, BoundaryCondition.INFLOW_ZERO), one))
        cases.append((periodic_mesh(2, rule, k), one))  # both neighbours are one element
    for mesh, alpha in cases:
        problem = Problem(u0=np.sin, alpha=None if alpha is one else alpha)
        values = rng.normal(size=(mesh.n_elements, k + 1))
        expected = _oracle_linear(mesh, alpha, values)
        tol = 1e-11 * np.max(np.abs(expected))
        assert np.max(np.abs(SpatialOperator(mesh, problem).L.apply(values) - expected)) < tol
        dense = materialize_operator(mesh, problem) @ values.ravel()
        assert np.max(np.abs(dense - expected.ravel())) < tol


def _polynomial_cases():
    rsv = SubdivisionRule.RSV_ADAPTIVE
    cases = []
    for rule in BOTH_RULES:
        for n in (2, 3):  # every band of degree >= 2 is wider than the mesh
            cases += [pytest.param(periodic_mesh(n, rule, 2), None, s,
                                   id=f"periodic-{rule.value}-N{n}-s{s}") for s in (1, 2, 5, 12)]
    # alpha > 0 at the left end and < 0 at the right end: inflow at both, and
    # the degree-12 band wraps the N=5 mesh twice
    inflow = uniform_mesh(0.3, 2.0 * np.pi - 0.3, 5, rsv, 3, BoundaryCondition.INFLOW_ZERO,
                          alpha=np.sin)
    cases += [pytest.param(inflow, np.sin, s, id=f"inflow-both-ends-s{s}") for s in (3, 12)]
    two_orientations = perturbed_mesh(10, 3, rsv, 3, BoundaryCondition.PERIODIC, alpha=np.sin)
    assert two_orientations.left_oriented.any() and not two_orientations.left_oriented.all()
    cases += [pytest.param(two_orientations, np.sin, s, id=f"perturbed-rsv-s{s}") for s in (4, 12)]
    return cases


@pytest.mark.parametrize("mesh, alpha, degree", _polynomial_cases())
def test_polynomial_blocks_match_dense_series(rng, mesh, alpha, degree):
    # the series is built from the oracle's dense L, column by column; random
    # coefficients and tau ||L|| = 1 give every power of tau L an O(1) share
    problem = Problem(u0=np.sin, alpha=alpha)
    n, k1 = mesh.n_elements, mesh.k + 1
    oracle_alpha = np.ones_like if alpha is None else alpha
    mat = np.stack([_oracle_linear(mesh, oracle_alpha, unit.reshape(n, k1)).ravel()
                    for unit in np.eye(n * k1)], axis=1)
    tau = 1.0 / np.linalg.norm(mat, 2)
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    expected = np.zeros_like(mat)
    power = np.eye(len(mat))
    for c in coeffs:
        expected += c * power
        power = tau * mat @ power
    band = SpatialOperator(mesh, problem).polynomial(coeffs, tau)
    # only the span of live offsets is kept: at most -d..d, its end blocks are
    # nonzero on some element, and with alpha = 1 the upwind band is -d..0
    assert len(band.offsets) <= 2 * degree + 1
    assert band.blocks.shape[2] == len(band.offsets) * k1
    blocks = band.blocks.reshape(n, k1, len(band.offsets), k1)
    assert np.any(blocks[:, :, 0] != 0) and np.any(blocks[:, :, -1] != 0)
    if alpha is None:
        assert np.array_equal(band.offsets, np.arange(-degree, 1))
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(band.dense() - expected)) < 1e-12 * scale
    values = rng.normal(size=(n, k1))
    got = band.apply(values).ravel()
    assert np.max(np.abs(got - expected @ values.ravel())) < 1e-12 * scale * np.max(np.abs(values))


def _example_operator(example, scheme, n):
    from rksv.harness import ExperimentConfig, build_mesh, problem_definition

    config = ExperimentConfig(example=example, scheme=scheme, k=3, s=3, n_values=(n,), cfl=0.1)
    return SpatialOperator(build_mesh(config, n), problem_definition(example).make())


def test_one_way_increment_maps_are_upwind_only():
    # alpha = 1: the upwind flux reads only the left trace, so L spans -1..0
    # and P_s(tau L) - I spans -s..0 even where -s wraps the periodic mesh
    ops = [_example_operator(1, scheme, 8) for scheme in ("lsv", "rrsv", "rsv")]
    ops += [SpatialOperator(uniform_mesh(-1.0, 2.0, 16, rule, 3, BoundaryCondition.INFLOW_ZERO),
                            Problem(u0=np.sin)) for rule in BOTH_RULES]
    for op in ops:
        assert np.array_equal(op.L.offsets, [-1, 0])
        for s in range(1, 13):
            assert np.array_equal(op.increment_map(s, 0.01).offsets, np.arange(-s, 1))


def test_two_way_increment_maps_keep_both_sides():
    # alpha = sin changes sign, so both neighbours are upwind of some element
    op = _example_operator(2, "rsv", 32)
    assert op.mesh.left_oriented.any() and not op.mesh.left_oriented.all()
    assert np.array_equal(op.L.offsets, [-1, 0, 1])
    for s in range(1, 13):
        assert np.array_equal(op.increment_map(s, 0.01).offsets, np.arange(-s, s + 1))


def _fused_map_meshes():
    # (mesh, alpha, alpha >= 0): both rules and a two-orientation RSV mesh, periodic
    # and with zero inflow, plus a periodic mesh narrower than every fused span
    rsv = SubdivisionRule.RSV_ADAPTIVE
    meshes = []
    for bc in (BoundaryCondition.PERIODIC, BoundaryCondition.INFLOW_ZERO):
        meshes += [(uniform_mesh(0.0, 2.0 * np.pi, 7, rule, 2, bc), None, True)
                   for rule in BOTH_RULES]
        two_orientations = perturbed_mesh(8, 3, rsv, 3, bc, alpha=np.sin)
        assert two_orientations.left_oriented.any() and not two_orientations.left_oriented.all()
        meshes.append((two_orientations, np.sin, False))
    meshes.append((periodic_mesh(3, SubdivisionRule.LSV, 2), None, True))
    return meshes


def _row_sum_norms(blocks):
    """The largest row-sum norm over the elements of each offset's block, blocks
    of shape (N, k+1, offsets, k+1)."""
    return np.abs(blocks).sum(axis=3).max(axis=(0, 1))


def _dense_power_blocks(mesh, s, tau, m, offsets):
    """The blocks of P_s(tau L)^m - I (alpha = 1) at ``offsets``, shape
    (N, k+1, len(offsets), k+1), read from the dense m-th power of I + A.

    On a periodic mesh the offsets alias mod N, so its uniform elements are
    first laid out on a ring long enough that none does: every element of the
    ring has the same blocks.
    """
    n, k1 = mesh.n_elements, mesh.k + 1
    if mesh.bc == BoundaryCondition.PERIODIC:
        assert mesh.domain == (0.0, 2.0 * np.pi) and mesh.regularity_ratio < 1.0 + 1e-12
        laps = -min(offsets) // n + 1
        mesh = uniform_mesh(0.0, 2.0 * np.pi * laps, n * laps, mesh.rule, mesh.k, mesh.bc)
        n = mesh.n_elements
    step = np.eye(n * k1) + SpatialOperator(mesh, Problem(u0=np.sin)).increment_map(s, tau).dense()
    power = (np.linalg.matrix_power(step, m) - np.eye(n * k1)).reshape(n, k1, n, k1)
    rows = np.arange(n)
    blocks = np.stack([power[rows, :, (rows + o) % n] for o in offsets], axis=2)
    return blocks[:mesh.n_elements]


@pytest.mark.parametrize("s", range(1, 13))
def test_fused_increment_map_is_power_of_one_step(s):
    # P_s(tau L)^m - I against the m-th matrix power of the one-step map
    # I + A; tau ||L|| = 1 gives every power of tau L an O(1) share
    for mesh, alpha, one_way in _fused_map_meshes():
        op = SpatialOperator(mesh, Problem(u0=np.sin, alpha=alpha))
        tau = 1.0 / np.linalg.norm(op.L.dense(), 2)
        one_step = op.increment_map(s, tau)
        step = one_step.dense()
        step += np.eye(len(step))
        fused = one_step
        for m in range(1, 6):
            if m > 1:  # the m-th power by chained compose
                fused = fused.compose(one_step)
            expected = np.linalg.matrix_power(step, m) - np.eye(len(step))
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(fused.dense() - expected)) < 1e-12 * scale, (mesh.rule, m)
            if not one_way:
                continue
            # with zero inflow, paths longer than the mesh meet a zero edge block
            reach = m * s if mesh.bc == BoundaryCondition.PERIODIC else \
                min(m * s, mesh.n_elements - 1)
            if m == 1:
                # the one-step map keeps every nonzero block
                assert np.array_equal(fused.offsets, np.arange(-reach, 1))
            else:
                # a composed map keeps a run of -reach..0 that contains 0, both
                # its end blocks exceed 2^-60, and every dropped offset's block is
                # at most 2^-60 in the dense reference
                low = fused.offsets[0]
                assert -reach <= low and np.array_equal(fused.offsets, np.arange(low, 1))
                kept = fused.blocks.reshape(mesh.n_elements, mesh.k + 1, -1, mesh.k + 1)
                assert np.all(_row_sum_norms(kept[:, :, [0, -1]]) > sv_space.NEGLIGIBLE)
                dropped = np.arange(-reach, low)
                if len(dropped):
                    reference = _dense_power_blocks(mesh, s, tau, m, dropped)
                    assert np.all(_row_sum_norms(reference) <= sv_space.NEGLIGIBLE), (m, low)


def test_zero_coefficient_keeps_only_offset_zero():
    mesh = periodic_mesh(6, SubdivisionRule.RRSV, 2)
    op = SpatialOperator(mesh, Problem(u0=np.sin, alpha=np.zeros_like))
    assert np.array_equal(op.L.offsets, [0])
    out = op.L.apply(np.ones((6, 3)))
    assert out.shape == (6, 3) and not out.any()
    assert np.array_equal(op.increment_map(4, 0.1).offsets, [0])


def test_nan_blocks_are_kept():
    # a NaN block is not a zero block: trimming must not hide it
    op = SpatialOperator(periodic_mesh(4, SubdivisionRule.LSV, 1),
                         Problem(u0=np.sin, alpha=lambda x: np.where(x > 3.0, np.nan, 1.0)))
    assert np.array_equal(op.L.offsets, [-1, 0, 1])
    assert np.isnan(op.L.apply(np.ones((4, 2)))).any()


def _one_row(band):
    return band.row_blocks.shape[0] == 1


def _squared(band, times):
    """The increment map of 2^times applications of ``band``, by repeated squaring."""
    for _ in range(times):
        band = band.compose(band)
    return band


@pytest.mark.parametrize("scheme", ("lsv", "rrsv"))
@pytest.mark.parametrize("k", (1, 4))
def test_example_1_bands_store_one_row(scheme, k):
    # Example 1 (alpha = 1 on a uniform periodic mesh): L, the one-step map and
    # a fused map each store the one row that every element shares, and
    # ``blocks`` still reads as a read-only (N, k+1, W(k+1)) array
    from rksv.harness import ExperimentConfig, build_mesh, problem_definition, time_step

    n, s = 32, 4
    config = ExperimentConfig(example=1, scheme=scheme, k=k, s=s, n_values=(n,), cfl=0.1)
    mesh = build_mesh(config, n)
    op = SpatialOperator(mesh, problem_definition(1).make())
    tau = time_step(config, mesh)
    for band in (op.L, op.increment_map(s, tau), _squared(op.increment_map(s, tau), 3)):
        assert _one_row(band)
        assert band.blocks.shape == (n, k + 1, len(band.offsets) * (k + 1))
        assert not band.blocks.flags.writeable


def test_varying_rows_stay_per_element():
    # alpha = sin on the Example 2 mesh, and the zeroed edge rows of an
    # INFLOW_ZERO mesh, give rows that differ from element to element
    ops = [_example_operator(2, "rsv", 32)]
    ops += [SpatialOperator(uniform_mesh(0.0, 1.0, 16, rule, 3, BoundaryCondition.INFLOW_ZERO),
                            Problem(u0=np.sin)) for rule in BOTH_RULES]
    for op in ops:
        for band in (op.L, op.increment_map(4, 0.01), _squared(op.increment_map(4, 0.01), 2)):
            assert band.row_blocks.shape[0] == op.mesh.n_elements


def test_one_row_band_matches_per_element_band(rng):
    # N explicit copies of one row are stored as one row; the same band with one
    # entry of one element moved by 1 ulp is stored per element, and the two
    # agree in every operation, including powers by ``compose``
    n, k1 = 9, 3
    offsets = np.arange(-2, 2)
    row = 0.2 * rng.uniform(-1.0, 1.0, (1, k1, len(offsets), k1))
    copies = np.repeat(row, n, axis=0)
    nudged = copies.copy()
    nudged[4, 1, 2, 0] = np.nextafter(nudged[4, 1, 2, 0], np.inf)
    one, per = sv_space.BandedOperator(copies, offsets), sv_space.BandedOperator(nudged, offsets)
    assert _one_row(one) and per.row_blocks.shape[0] == n
    assert one.blocks.shape == per.blocks.shape and np.array_equal(one.gather, per.gather)

    def close(got, expected):
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))

    close(one.apply(values := rng.normal(size=(n, k1))), per.apply(values))
    close(one.apply_columns(columns := rng.normal(size=(n * k1, 5))), per.apply_columns(columns))
    close(one.dense(), per.dense())
    one_power, per_power = one, per
    for m in range(2, 6):
        one_power, per_power = one_power.compose(one), per_power.compose(per)
        if m in (2, 3, 5):
            assert _one_row(one_power) and per_power.row_blocks.shape[0] == n
            assert np.array_equal(one_power.offsets, per_power.offsets)
            close(one_power.dense(), per_power.dense())
            close(one_power.apply(values), per_power.apply(values))
    # a product of a one-row band and a per-element one has a row per element
    other = sv_space.BandedOperator(0.2 * rng.uniform(-1.0, 1.0, copies.shape), offsets)
    for x, y in ((one, other), (other, one)):
        mixed = x.compose(y)
        assert mixed.row_blocks.shape[0] == n
        close(mixed.dense(), x.dense() + y.dense() + x.dense() @ y.dense())


@pytest.mark.parametrize("s", (1, 3, 4))
@pytest.mark.parametrize("k", (1, 3))
def test_one_row_symbol_eigenvalues_match_dense(s, k):
    # on a uniform periodic mesh the increment map is block circulant, so its
    # spectrum is that of the symbols sum_o B_o e^{2 pi i o j / N}, j = 0..N-1,
    # B_o the blocks of the one stored row
    from scipy.optimize import linear_sum_assignment

    n, k1 = 12, k + 1
    for rule in BOTH_RULES:
        op = SpatialOperator(periodic_mesh(n, rule, k), Problem(u0=np.sin))
        band = op.increment_map(s, 1.0 / np.linalg.norm(op.L.dense(), 2))
        assert _one_row(band)
        b = band.blocks[0].reshape(k1, len(band.offsets), k1)
        theta = 2.0 * np.pi * np.arange(n) / n
        symbols = np.einsum("iok,jo->jik", b, np.exp(1j * np.outer(theta, band.offsets)))
        from_symbols = np.linalg.eigvals(symbols).ravel()
        dense = np.linalg.eigvals(band.dense())
        distance = np.abs(from_symbols[:, None] - dense[None, :])
        rows, cols = linear_sum_assignment(distance)
        assert np.max(distance[rows, cols]) <= 1e-12, (rule, s, k)


def test_operator_leaves_mesh_untouched():
    # an alpha that returns its argument must not let the periodic wrap of the
    # interface coefficients write into mesh.boundaries
    mesh = periodic_mesh(4, SubdivisionRule.LSV, 1)
    before = mesh.boundaries.copy()
    SpatialOperator(mesh, Problem(u0=np.sin, alpha=lambda x: x))
    assert np.array_equal(mesh.boundaries, before)


def test_variable_coefficient_rsv_consistency():
    # semi-discrete residual of the exact manufactured solution must be O(h^{k+1})
    from rksv.harness import problem_definition

    problem = problem_definition(2).make()
    errs = []
    for n in (16, 32):
        mesh = uniform_mesh(0.0, 2.0 * np.pi, n, SubdivisionRule.RSV_ADAPTIVE, 2,
                            BoundaryCondition.PERIODIC, alpha=problem.alpha)
        state = project_initial(problem, mesh, 2)
        tendency = apply_L(state, problem, t=0.0)
        # compare against the exact rate of change of the CV integrals
        eps = 1e-6
        exact_now = project_initial(Problem(u0=lambda x: problem.u_exact(x, 0.0)), mesh, 2)
        exact_next = project_initial(Problem(u0=lambda x: problem.u_exact(x, eps)), mesh, 2)
        rate = (exact_next.values - exact_now.values) / eps
        errs.append(np.max(np.abs(tendency - rate)))
    assert errs[1] < errs[0] / 4.0  # at least O(h^2) pointwise on CV rates
