from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial import legendre as leg

from conftest import BOTH_RULES, pair_parts, periodic_mesh, random_coeffs, state_from_coeffs
from rksv import sv_space
from rksv.harness import run_checks
from rksv.mesh import BoundaryCondition, SubdivisionRule, perturbed_mesh, uniform_mesh
from rksv.sv_space import (Problem, SpatialOperator, SvState, error_norms, project_initial,
                           reconstruct, snapshot_table, workspace)


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


@pytest.mark.parametrize("rule, left_oriented", ((SubdivisionRule.LSV, False),
                                                 (SubdivisionRule.RRSV, False),
                                                 (SubdivisionRule.RSV_ADAPTIVE, True)))
def test_variant_tables_match_a_40_digit_reference(rule, left_oriented):
    # the reference starts from the same float64 nodes, so only the table
    # arithmetic is measured: M[j, m] from (L_{m+1} - L_{m-1}) / (2m+1) at the CV
    # bounds, and the trace map L_m(y_j) M^-1
    with mpmath.workdps(40):
        for k in range(1, 13):
            ops = sv_space._variant(rule, k, left_oriented)
            values = [[mpmath.legendre(m, mpmath.mpf(float(y))) for m in range(k + 2)]
                      for y in ops.y]
            anti = [[row[1]] + [(row[m + 1] - row[m - 1]) / (2 * m + 1) for m in range(1, k + 1)]
                    for row in values]
            mass = mpmath.matrix([[b - a for a, b in zip(lo, hi)]
                                  for lo, hi in zip(anti, anti[1:])])
            trace_map = mpmath.matrix([row[:k + 1] for row in values]) * mass ** -1
            for got, ref, ulps in ((ops.mass, mass, 4), (ops.trace_map, trace_map, 16)):
                err = max(abs(mpmath.mpf(float(got[i, j])) - ref[i, j])
                          for i in range(got.shape[0]) for j in range(got.shape[1]))
                assert err <= ulps * np.spacing(np.max(np.abs(got))), (k, got.shape)


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
    state = SvState(mesh, values, 0.0)
    assert state.k == mesh.k == 2  # the degree is the mesh's, not a second field
    with pytest.raises(AttributeError):
        state.k = 3
    with pytest.raises(ValueError, match="values shape"):
        SvState(mesh, np.zeros((6, 4)))
    coeffs = reconstruct(state)
    assert np.allclose(coeffs[:, 0], 1.0, atol=1e-14)
    assert np.allclose(coeffs[:, 1:], 0.0, atol=1e-14)


@pytest.mark.parametrize("rule", BOTH_RULES)
def test_reconstruct_reproduces_global_polynomial(rule):
    k = 3
    mesh = uniform_mesh(-1.0, 2.0, 5, rule, k, BoundaryCondition.INFLOW_ZERO)
    poly = np.polynomial.Polynomial([0.3, -1.2, 0.5, 2.0])
    anti = poly.integ()
    values = anti(mesh.cv_bounds[:, 1:]) - anti(mesh.cv_bounds[:, :-1])
    coeffs = reconstruct(SvState(mesh, values, 0.0))
    x = np.linspace(-1.0, 2.0, 201)[1:-1]
    idx = np.searchsorted(mesh.boundaries, x, side="right") - 1
    y = (x - mesh.centers[idx]) * 2.0 / mesh.lengths[idx]
    u_h = np.einsum("pm,pm->p", coeffs[idx], leg.legvander(y, k))
    assert np.max(np.abs(u_h - poly(x))) < 1e-12


def test_reconstruct_k1_matches_direct_solve(rng):
    # independent oracle: solve the 2x2 system for the element polynomial;
    # over half an element, integral of 1 is h/2 and of y(x) is -+h/4
    mesh = uniform_mesh(0.0, 1.0, 2, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)
    values = np.array([[0.2, 0.3], [0.1, -0.4]])
    coeffs = reconstruct(SvState(mesh, values, 0.0))
    for i in range(2):
        h = mesh.lengths[i]
        a = np.array([[h / 2.0, -h / 4.0], [h / 2.0, h / 4.0]])
        c = np.linalg.solve(a, values[i])
        assert np.allclose(coeffs[i], c, atol=1e-13)


def test_reconstruction_round_trip(rng):
    for rule in BOTH_RULES:
        mesh = periodic_mesh(9, rule, 4)
        coeffs = random_coeffs(rng, mesh)
        state = state_from_coeffs(mesh, coeffs)
        assert np.max(np.abs(reconstruct(state) - coeffs)) < 1e-12


@pytest.mark.parametrize("rule", BOTH_RULES)
@pytest.mark.parametrize("s_shape", [(8, 2)])
def test_apply_L_constant_state(rule, s_shape):
    n, k = s_shape
    mesh = periodic_mesh(n, rule, k)
    problem = Problem(u0=lambda x: np.ones_like(x))
    state = project_initial(problem, mesh, k)
    assert np.max(np.abs(SpatialOperator(mesh, problem).tendency(state.values, 0.0))) < 1e-13


def test_apply_L_telescopes_to_zero(rng):
    mesh = periodic_mesh(8, SubdivisionRule.RRSV, 2)
    problem = Problem(u0=np.sin)
    state = project_initial(problem, mesh, 2)
    assert abs(SpatialOperator(mesh, problem).tendency(state.values, 0.0).sum()) < 1e-12


def test_apply_L_global_linear_inflow():
    mesh = uniform_mesh(0.0, 1.0, 4, SubdivisionRule.LSV, 1, BoundaryCondition.INFLOW_ZERO)
    problem = Problem(u0=lambda x: x)
    state = project_initial(problem, mesh, 1)
    tendency = SpatialOperator(mesh, problem).tendency(state.values, 0.0)
    expected = mesh.cv_bounds[:, :-1] - mesh.cv_bounds[:, 1:]
    expected[0, 0] = 0.0 - mesh.cv_bounds[0, 1]  # zero ghost at the inflow
    assert np.max(np.abs(tendency - expected)) < 1e-13


def test_apply_L_is_linear(rng):
    mesh = periodic_mesh(6, SubdivisionRule.LSV, 2)
    problem = Problem(u0=np.sin)
    u = rng.normal(size=(6, 3))
    v = rng.normal(size=(6, 3))
    f = lambda w: SpatialOperator(mesh, problem).tendency(w, 0.0)
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
    op = SpatialOperator(mesh, problem)
    mat = op.L.dense()
    u = rng.normal(size=(4, 2))
    direct = op.tendency(u, 0.0)
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
        dense = SpatialOperator(mesh, problem).L.dense() @ values.ravel()
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
    assert np.isnan(op.L.apply_columns(np.ones((8, 3)))).any()
    assert np.isnan(op.L.dense()).any()
    # and through every product: the NaN reaches each element whose row of L
    # holds one (the staircase's zeros may spread it across that row), and
    # trimming keeps its offsets
    nan_rows = np.isnan(op.L.blocks).any(axis=(1, 2))
    assert nan_rows.any() and not nan_rows.all()
    for band in (op.L.compose(op.L), op.L.product(op.L), op.increment_map(3, 0.1)):
        assert np.isnan(band.norms).any()
        assert np.isnan(band.blocks).any(axis=(1, 2))[nan_rows].all()
        assert np.isnan(band.apply(np.ones((4, 2))))[nan_rows].any()


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
    assert one.blocks.shape == per.blocks.shape

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


def _column_bands():
    # (id, band): per-element and one-row bands, bands wider than an N=2 mesh,
    # zero edge blocks, one-sided (-s..0 and 0..s) and asymmetric trimmed
    # spans, and the float64 pair of an extended-precision fused map
    rsv = SubdivisionRule.RSV_ADAPTIVE

    def shifted_sine(x):  # nonzero at the periodic ends, so the wrap carries flux
        return 0.5 + np.sin(x)

    two_orientations = SpatialOperator(
        perturbed_mesh(10, 3, rsv, 3, BoundaryCondition.PERIODIC, alpha=shifted_sine),
        Problem(u0=np.sin, alpha=shifted_sine))
    assert len(workspace(two_orientations.mesh).variants) == 2
    assert np.array_equal(two_orientations.L.offsets, [-1, 0, 1])
    one_row = SpatialOperator(periodic_mesh(9, SubdivisionRule.LSV, 2), Problem(u0=np.sin))
    narrow_one_row = SpatialOperator(periodic_mesh(2, SubdivisionRule.LSV, 2), Problem(u0=np.sin))
    narrow = SpatialOperator(periodic_mesh(2, SubdivisionRule.RRSV, 2),
                             Problem(u0=np.sin, alpha=lambda x: 1.5 + np.sin(x)))
    aliased = narrow.increment_map(12, 0.1)
    assert len(aliased.offsets) == 13  # wraps the mesh six times
    inflow = SpatialOperator(
        uniform_mesh(0.3, 2.0 * np.pi - 0.3, 5, rsv, 3, BoundaryCondition.INFLOW_ZERO,
                     alpha=np.sin), Problem(u0=np.sin, alpha=np.sin))
    backward = SpatialOperator(periodic_mesh(7, SubdivisionRule.RRSV, 3),
                               Problem(u0=np.sin, alpha=lambda x: -np.ones_like(x)))
    downwind = backward.increment_map(4, 0.05)
    assert np.array_equal(downwind.offsets, np.arange(5))
    blocks = np.random.default_rng(7).uniform(-1.0, 1.0, (11, 3, 9, 3))
    blocks[:, :, [0, 1, 8]] = 0.0  # offsets -6, -5 and 2 are trimmed
    asymmetric = sv_space.BandedOperator(blocks, np.arange(-6, 3))
    assert np.array_equal(asymmetric.offsets, np.arange(-4, 2))
    fused = two_orientations.extended_increment_map(5, 0.02)
    hi, lo = pair_parts(fused.compose(fused))
    bands = [("L-per-element", two_orientations.L),
             ("A-per-element", two_orientations.increment_map(5, 0.02)),
             ("A2-hi", hi), ("A2-lo", lo),
             ("L-one-row", one_row.L), ("A-one-row", one_row.increment_map(4, 0.1)),
             ("N2-s12-one-row", narrow_one_row.increment_map(12, 0.1)),
             ("N2-s12-per-element", aliased),
             ("inflow-L", inflow.L), ("inflow-s3", inflow.increment_map(3, 0.05)),
             ("inflow-s12", inflow.increment_map(12, 0.05)),
             ("one-sided-0..s", downwind),
             ("asymmetric-trimmed", asymmetric)]
    return [pytest.param(band, id=name) for name, band in bands]


def _gather(band):
    """The (N, W(k+1)) index into ``values.ravel()`` of each element's
    neighbours, from the band's offsets alone: an oracle that shares no code
    with the band's wrap-padded window."""
    n, k1, wk = band.blocks.shape
    elements = (np.arange(n)[:, None] + band.offsets[None, :]) % n
    return (elements[:, :, None] * k1 + np.arange(k1)).reshape(n, wk)


def _gathered_dense(band):
    """The band's dense matrix, each block added at its gathered columns, so
    aliased columns accumulate."""
    n, k1, _ = band.blocks.shape
    mat = np.zeros((n * k1, n * k1))
    np.add.at(mat, (np.arange(n * k1).reshape(n, k1, 1), _gather(band)[:, None, :]), band.blocks)
    return mat


@pytest.mark.parametrize("layout", ("C", "F", "K1"))
@pytest.mark.parametrize("band", _column_bands())
def test_apply_columns_matches_gathered_product(rng, band, layout):
    # the products multiply the same operands as the gathered products, so
    # they agree bit for bit; the dense matrices sum aliases in different
    # orders, so they agree to rounding
    n, k1, _ = band.blocks.shape
    columns = {"C": lambda: rng.normal(size=(n * k1, 8)),
               "F": lambda: rng.normal(size=(8, n * k1)).T,  # as ``_forcing`` passes it
               "K1": lambda: rng.normal(size=(n * k1, 1))}[layout]()
    gather = _gather(band)
    got = band.apply_columns(columns)
    gathered = (band.row_blocks @ columns[gather]).reshape(columns.shape)
    assert got.shape == columns.shape
    assert np.array_equal(got, gathered)
    if layout == "K1":
        values = columns.reshape(n, k1)
        neighbours = values.ravel()[gather]
        expected = (neighbours @ band.row_blocks[0].T if len(band.row_blocks) == 1
                    else np.einsum("nij,nj->ni", band.row_blocks, neighbours))
        assert np.array_equal(band.apply(values), expected)
    oracle = _gathered_dense(band)
    dense = band.dense()
    assert np.max(np.abs(dense - oracle)) <= 1e-15 * np.max(np.abs(oracle))
    scale = np.max(np.abs(oracle) @ np.abs(columns))
    assert np.max(np.abs(got - oracle @ columns)) <= 1e-15 * scale


def _random_pair(rng, structure):
    """A (hi, lo) pair band with random blocks where ``structure``'s are
    nonzero (its offsets, rows and zero blocks), lo some 2^-53 of hi."""
    grid = np.where(structure._grid != 0.0, rng.uniform(-1.0, 1.0, structure._grid.shape), 0.0)
    pair = np.concatenate([grid, grid * rng.uniform(-1.0, 1.0, grid.shape) * 2.0 ** -53], axis=1)
    return sv_space.BandedOperator(np.broadcast_to(pair, (len(structure.blocks),) + pair.shape[1:]),
                                   structure.offsets)


def _exact_dense(pair):
    """The pair's dense matrix hi + lo as Fractions (object array)."""
    return sum(np.vectorize(Fraction, otypes=[object])(_gathered_dense(part))
               for part in pair_parts(pair))


def _sliced_product_structures():
    rsv = SubdivisionRule.RSV_ADAPTIVE
    two_orientations = SpatialOperator(
        perturbed_mesh(12, 3, rsv, 2, BoundaryCondition.PERIODIC, alpha=lambda x: 0.5 + np.sin(x)),
        Problem(u0=np.sin, alpha=lambda x: 0.5 + np.sin(x)))
    assert len(workspace(two_orientations.mesh).variants) == 2
    inflow = SpatialOperator(
        uniform_mesh(0.3, 2.0 * np.pi - 0.3, 12, rsv, 2, BoundaryCondition.INFLOW_ZERO,
                     alpha=np.sin), Problem(u0=np.sin, alpha=np.sin))
    one_row = SpatialOperator(periodic_mesh(12, SubdivisionRule.LSV, 2), Problem(u0=np.sin))
    per_element = SpatialOperator(perturbed_mesh(12, 5, SubdivisionRule.RRSV, 2,
                                                 BoundaryCondition.PERIODIC), Problem(u0=np.sin))
    return {"one-row": one_row.increment_map(2, 0.1),
            "per-element": per_element.increment_map(2, 0.1),
            "two-orientation": two_orientations.increment_map(2, 0.1),
            "inflow-zero": inflow.increment_map(2, 0.05)}


@pytest.mark.parametrize("name", ("one-row", "per-element", "two-orientation", "inflow-zero"))
def test_sliced_product_matches_exact_product(name):
    # the (hi, lo) product of random pairs, and of a pair with itself, is
    # within 2^-76 of max|X| |Y| + |X| max|Y| of the exact product (in
    # Fractions), and exact where |X||Y| is 0: the slices' unit is one per
    # band, so an entry of a small |X||Y| is not held to 2^-76 of itself (one
    # read 2^-69.4).  The product of the leading slices is exact, so the
    # banded product and a dense BLAS product sum it to the same bits
    structure = _sliced_product_structures()[name]
    assert _one_row(structure) == (name == "one-row")
    rng = np.random.default_rng(11)
    x, y = _random_pair(rng, structure), _random_pair(rng, structure)
    n, k1 = len(structure.blocks), structure._grid.shape[3]
    for a, b in ((x, y), (x, x)):
        q = sv_space._extended_product(a._grid, a.offsets, b._grid)  # b._grid is a._grid for x, x
        offsets = a.offsets[0] + b.offsets[0] + np.arange(q.shape[2])
        assert len(offsets) < n  # no aliased columns: every dense entry is one block entry
        product = sv_space.BandedOperator(np.broadcast_to(q, (n,) + q.shape[1:]), offsets)
        exact = _exact_dense(a).dot(_exact_dense(b))
        defect = np.abs(np.vectorize(float)(_exact_dense(product) - exact).astype(float))
        ax, ay = (np.abs(_gathered_dense(pair_parts(band)[0])) for band in (a, b))
        bound = ax.max() * ay.sum(axis=0) + ax.sum(axis=1)[:, None] * ay.max()
        assert np.all(defect <= 2.0 ** -76 * bound) and np.all(defect[ax @ ay == 0.0] == 0.0)
        beta = (53 - (len(a.offsets) * k1 - 1).bit_length()) // 2
        slices = []
        for band in (a, b):  # hi to a multiple of 2^-beta of the power of two above max|hi|
            hi = band._grid[:, :k1]
            unit = 2.0 ** (np.frexp(np.abs(hi).max())[1] - beta)
            slices.append(np.rint(hi / unit) * unit)
        lead = [sv_space.BandedOperator(np.broadcast_to(g, (n,) + g.shape[1:]), band.offsets, -1.0)
                for g, band in zip(slices, (a, b))]
        blas = _gathered_dense(lead[0]) @ _gathered_dense(lead[1])
        q = sv_space._band_product(slices[0], a.offsets, slices[1])
        banded = sv_space.BandedOperator(np.broadcast_to(q, (n,) + q.shape[1:]), offsets, -1.0)
        assert np.array_equal(_gathered_dense(banded), blas), name


def _per_offset_band_product(x, x_offsets, y, first=0, last=None, q=None):
    """``sv_space._band_product`` as one matmul per offset of X, each added
    into the span: the kernel it replaced, kept as its oracle."""
    n = max(len(x), len(y))
    x = np.broadcast_to(x, (n,) + x.shape[1:])
    y = np.broadcast_to(y, (n,) + y.shape[1:])
    _, k1, width, _ = y.shape
    last = len(x_offsets) + width - 1 if last is None else last
    q = np.zeros((n, k1, last - first, k1), np.result_type(x, y)) if q is None else q
    product = np.empty((n, k1, width * k1), q.dtype)
    for j, o in enumerate(x_offsets):
        lo, hi = max(first - j, 0), min(last - j, width)  # Y's blocks that land in the span
        if lo >= hi:
            continue
        rows, out = y[:, :, lo:hi].reshape(n, k1, -1), product[:, :, :(hi - lo) * k1]
        m = n - o % n  # block o of X acts on element (i + o) mod N
        np.matmul(x[:m, :, j], rows[n - m:], out=out[:m])
        if m < n:
            np.matmul(x[m:, :, j], rows[:n - m], out=out[m:])
        q[:, :, j + lo - first:j + hi - first] += out.reshape(n, k1, hi - lo, k1)
    return q


def _kernel_cases():
    # (id, x blocks, x offsets, y blocks): one-row and per-element rows in
    # every mix, a one-row Y of one block (as ``polynomial`` starts), spans
    # wider than the mesh, and real bands with zero INFLOW_ZERO edge blocks
    rng = np.random.default_rng(17)

    def blocks(rows, k1, width):
        return rng.uniform(-1.0, 1.0, (rows, k1, width, k1))

    n, k1 = 12, 3
    cases = [("per-element", blocks(n, k1, 4), np.arange(-2, 2), blocks(n, k1, 5)),
             ("one-row-x", blocks(1, k1, 4), np.arange(-1, 3), blocks(n, k1, 5)),
             ("one-row-y", blocks(n, k1, 4), np.arange(-3, 1), blocks(1, k1, 5)),
             ("one-row-both", blocks(1, k1, 4), np.arange(-2, 2), blocks(1, k1, 5)),
             ("one-block-y", blocks(n, k1, 3), np.arange(-1, 2), blocks(1, k1, 1)),
             ("aliased-N2", blocks(2, k1, 7), np.arange(-3, 4), blocks(2, k1, 5)),
             ("aliased-N3-one-row-x", blocks(1, k1, 9), np.arange(-8, 1), blocks(3, k1, 6))]
    inflow = SpatialOperator(
        uniform_mesh(0.3, 2.0 * np.pi - 0.3, 7, SubdivisionRule.RSV_ADAPTIVE, 3,
                     BoundaryCondition.INFLOW_ZERO, alpha=np.sin), Problem(u0=np.sin, alpha=np.sin))
    one = inflow.increment_map(3, 0.05)
    grid = inflow.L._grid  # offsets -1..1: no inflow from outside either end
    assert np.array_equal(inflow.L.offsets, [-1, 0, 1])
    assert not grid[0, :, 0].any() and not grid[-1, :, -1].any()
    cases += [("inflow-L-A", inflow.L._grid, inflow.L.offsets, one._grid),
              ("inflow-A-A", one._grid, one.offsets, one._grid)]
    return [pytest.param(x, offsets, y, id=name) for name, x, offsets, y in cases]


@pytest.mark.parametrize("budget", (None, 3000, 1))
@pytest.mark.parametrize("x, x_offsets, y", _kernel_cases())
def test_band_product_matches_per_offset_oracle(monkeypatch, x, x_offsets, y, budget):
    # every span first..last-1 of the product, fresh and added into given
    # blocks, agrees with the per-offset oracle to a few ulps of max|X| max|Y|
    # (the two sum each entry's terms in different orders), whether the
    # elements make one chunk, uneven chunks or chunks of one
    if budget is not None:
        monkeypatch.setattr(sv_space, "_PRODUCT_FLOATS", budget)
    width = len(x_offsets) + y.shape[2] - 1
    n, k1 = max(len(x), len(y)), x.shape[1]
    tolerance = 8.0 * np.finfo(float).eps * np.abs(x).max() * np.abs(y).max()
    base = np.random.default_rng(3).uniform(-1.0, 1.0, (n, k1, width, k1))
    spans = {(0, width), (1, width - 1), (width // 2, width // 2 + 1), (0, 1), (width - 1, width)}
    for first, last in spans:
        got = sv_space._band_product(x, x_offsets, y, first, last)
        expected = _per_offset_band_product(x, x_offsets, y, first, last)
        assert got.shape == expected.shape == (n, k1, last - first, k1)
        assert np.max(np.abs(got - expected)) <= tolerance, (first, last)
        into = base[:, :, first:last].copy()
        added = sv_space._band_product(x, x_offsets, y, first, last, into)
        assert added is into
        oracle = _per_offset_band_product(x, x_offsets, y, first, last, base[:, :, first:last].copy())
        sum_rounding = np.finfo(float).eps * np.abs(oracle).max()
        assert np.max(np.abs(into - oracle)) <= tolerance + sum_rounding, (first, last)
    # as the pair product's lo rows: added into one strided half, and then
    # its negative added in the same order cancels it exactly
    pair = np.zeros((n, 2 * k1, width, k1))
    sv_space._band_product(x, x_offsets, y, q=pair[:, k1:])
    assert not pair[:, :k1].any()
    assert np.max(np.abs(pair[:, k1:] - _per_offset_band_product(x, x_offsets, y))) <= tolerance
    sv_space._band_product(x, x_offsets, -y, q=pair[:, k1:])
    assert not pair.any()


@pytest.mark.parametrize("name", ("one-row", "per-element", "two-orientation", "inflow-zero"))
def test_extended_product_matches_per_offset_oracle(monkeypatch, name):
    # the leading slices' product is exact in any order, so the hi rows (that
    # product, renormalised with lo) are the oracle's bit for bit, and the
    # pair differs only by the lo rows' rounding, within 2^-76 Wx(k+1) of
    # max|X| max|Y|.  (A renormalised hi entry could move by one ulp only
    # where hi + lo lies within a lo rounding of a float64 tie.)
    structure = _sliced_product_structures()[name]
    rng = np.random.default_rng(19)
    x, y = _random_pair(rng, structure), _random_pair(rng, structure)
    k1 = structure._grid.shape[3]
    for a, b in ((x, y), (x, x), (x, structure)):
        got = sv_space._extended_product(a._grid, a.offsets, b._grid)
        with monkeypatch.context() as patch:
            patch.setattr(sv_space, "_band_product", _per_offset_band_product)
            expected = sv_space._extended_product(a._grid, a.offsets, b._grid)
        hi, lo = got[:, :k1], got[:, k1:]
        scale = np.abs(a._grid).max() * np.abs(b._grid).max()
        assert np.array_equal(hi, expected[:, :k1])
        pair_defect = np.abs((hi - expected[:, :k1]) + (lo - expected[:, k1:]))
        assert np.max(pair_defect) <= 2.0 ** -76 * len(a.offsets) * k1 * scale


def _traced_peak(product, operand):
    """The tracemalloc peak, in bytes, of one call ``product(operand)``."""
    import tracemalloc

    product(operand)  # builds the cached row index
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        product(operand)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_apply_columns_makes_no_gathered_copy():
    # at N=64, k=5 the (N, W(k+1), K) gathered stack of an 11-offset map is
    # 270 KB; the product reads one wrap-padded ((N+W-1)(k+1), K) copy of 28 KB
    n, k, count = 64, 5, 8
    op = SpatialOperator(perturbed_mesh(n, 0, SubdivisionRule.RSV_ADAPTIVE, k,
                                        BoundaryCondition.PERIODIC, alpha=np.sin),
                         Problem(u0=np.sin, alpha=np.sin))
    band = op.increment_map(5, 0.01)
    assert len(band.offsets) == 11 and band.row_blocks.shape[0] == n
    columns = np.random.default_rng(3).normal(size=(n * (k + 1), count))
    padded_bytes = (n + len(band.offsets) - 1) * (k + 1) * count * columns.itemsize
    gathered_bytes = n * band.blocks.shape[2] * count * columns.itemsize
    # the peak holds the padded copy and the (N(k+1), K) result
    assert _traced_peak(band.apply_columns, columns) < 2 * padded_bytes < gathered_bytes / 4
    # one vector, through the per-element band and a one-row fused map
    one_row = _squared(SpatialOperator(periodic_mesh(n, SubdivisionRule.LSV, k),
                                       Problem(u0=np.sin)).increment_map(4, 0.02), 2)
    assert _one_row(one_row) and len(one_row.offsets) == 17
    values = np.random.default_rng(4).normal(size=(n, k + 1))
    for vector_band in (band, one_row):
        width = len(vector_band.offsets)
        padded_bytes = (n + width - 1) * (k + 1) * values.itemsize
        gathered_bytes = n * width * (k + 1) * values.itemsize
        # the peak holds the padded copy, the (N, k+1) result and a few
        # small buffers of the product
        assert _traced_peak(vector_band.apply, values) < gathered_bytes / 2, width
        assert 2 * (padded_bytes + values.nbytes) < gathered_bytes / 2


def test_band_product_stays_within_its_chunk_budget():
    # one product at N=256, k=5 of two 23-offset bands (45 offsets out): the
    # staircase buffer, Y's gathered rows and a chunk's product (when it is
    # added into given blocks) stay within _PRODUCT_FLOATS, where one
    # unchunked buffer of all N + 22 extended elements would be 5x that
    n, k1, width = 256, 6, 23
    budget = sv_space._PRODUCT_FLOATS * np.dtype(float).itemsize
    rng = np.random.default_rng(23)
    x, y = (rng.uniform(-1.0, 1.0, (n, k1, width, k1)) for _ in range(2))
    offsets = np.arange(-11, 12)
    unchunked = (n + width - 1) * k1 * ((2 * width - 1) * k1 + (width - 1) * k1 + 1) * 8
    assert unchunked > 5 * budget
    fresh = _traced_peak(lambda b: sv_space._band_product(x, offsets, b), y)
    assert fresh - n * k1 * (2 * width - 1) * k1 * 8 <= budget
    into = np.zeros((n, 2 * k1, 2 * width - 1, k1))[:, k1:]  # as the pair product's lo rows
    assert _traced_peak(lambda b: sv_space._band_product(x, offsets, b, q=into), y) <= budget


def test_band_blocks_are_read_only():
    # every band is immutable, whether its blocks were copied by trimming or not
    op = SpatialOperator(perturbed_mesh(10, 3, SubdivisionRule.RSV_ADAPTIVE, 3,
                                        BoundaryCondition.PERIODIC, alpha=np.sin),
                         Problem(u0=np.sin, alpha=np.sin))
    one = op.increment_map(3, 0.02)
    trimmed = one.compose(one)
    assert len(trimmed.offsets) < 2 * len(one.offsets) - 1
    pair = op.extended_increment_map(3, 0.02)
    for band in (op.L, trimmed, pair, pair.compose(pair)):
        before = band.row_blocks.copy()
        with pytest.raises(ValueError):
            band.row_blocks *= 2.0
        assert np.array_equal(band.row_blocks, before)


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
        tendency = SpatialOperator(mesh, problem).tendency(state.values, 0.0)
        # compare against the exact rate of change of the CV integrals
        eps = 1e-6
        exact_now = project_initial(Problem(u0=lambda x: problem.u_exact(x, 0.0)), mesh, 2)
        exact_next = project_initial(Problem(u0=lambda x: problem.u_exact(x, eps)), mesh, 2)
        rate = (exact_next.values - exact_now.values) / eps
        errs.append(np.max(np.abs(tendency - rate)))
    assert errs[1] < errs[0] / 4.0  # at least O(h^2) pointwise on CV rates
