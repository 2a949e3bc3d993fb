import numpy as np
import pytest
from numpy.polynomial.legendre import legder, legvander

from conftest import BOTH_RULES, periodic_mesh, random_coeffs, state_from_coeffs
from rksv import petrov_galerkin as pg
from rksv.mesh import BoundaryCondition, SubdivisionRule, perturbed_mesh, uniform_mesh
from rksv.sv_space import Problem, SpatialOperator


RSV = SubdivisionRule.RSV_ADAPTIVE
RSV_DEGREES = (2, 3, 5)


def rsv_mesh(k, bc=BoundaryCondition.PERIODIC):
    """Perturbed N=9 RSV mesh oriented by sin: both Radau orientations occur."""
    mesh = perturbed_mesh(9, 3, RSV, k, bc, alpha=np.sin)
    assert mesh.left_oriented.any() and not mesh.left_oriented.all()
    return mesh


def local_values(mesh, coeffs, x):
    """Row i: element i's Legendre expansion ``coeffs[i]`` at the points x[i]."""
    y = (x - mesh.centers[:, None]) * (2.0 / mesh.lengths)[:, None]
    return np.einsum("ipm,im->ip", legvander(y, coeffs.shape[1] - 1), coeffs)


def _ah_lhs_rhs_jump(v, w, mesh):
    lhs = pg.bilinear_ah(v, w, mesh) + pg.bilinear_ah(w, v, mesh)
    v_l, v_r = pg.boundary_traces(v, mesh)
    w_l, w_r = pg.boundary_traces(w, mesh)
    jump = np.sum((np.roll(v_l, -1) - v_r) * (np.roll(w_l, -1) - w_r))
    return lhs, -jump


def test_map_to_test_constant_is_identity():
    mesh = periodic_mesh(5, SubdivisionRule.RRSV, 3)
    coeffs = np.zeros((5, 4))
    coeffs[:, 0] = 2.5
    assert np.allclose(pg.map_to_test(coeffs, mesh), 2.5, atol=1e-14)


def test_map_to_test_linear_lsv_k1():
    # w = y on an element of width 2: w* = (-1, +1) since A = (0, 2, 0)
    mesh = uniform_mesh(0.0, 4.0, 2, SubdivisionRule.LSV, 1, BoundaryCondition.PERIODIC)
    coeffs = np.zeros((2, 2))
    coeffs[:, 1] = 1.0
    star = pg.map_to_test(coeffs, mesh)
    assert np.allclose(star, [[-1.0, 1.0], [-1.0, 1.0]], atol=1e-14)


@pytest.mark.parametrize("rule", BOTH_RULES)
def test_map_to_test_endpoint_identity(rule, rng):
    # w*_{i,k} = w(x_{i+1/2}^-) - A_{i,k+1} w_x(x_{i+1/2}^-) for cubic w
    mesh = periodic_mesh(6, rule, 3)
    w = random_coeffs(rng, mesh)
    star = pg.map_to_test(w, mesh)
    vals = pg._node_values(w, mesh)
    derivs = pg._node_values(pg.derivative_coeffs(w, mesh), mesh) * (2.0 / mesh.lengths)[:, None]
    a = pg.node_weights(mesh)
    rhs = vals[:, -1] - a[:, -1] * derivs[:, -1]
    assert np.max(np.abs(star[:, -1] - rhs)) < 1e-12


def test_bilinear_constant_v_vanishes(rng):
    mesh = periodic_mesh(7, SubdivisionRule.LSV, 2)
    v = np.zeros((7, 3))
    v[:, 0] = 1.7
    w = random_coeffs(rng, mesh)
    assert abs(pg.bilinear_ah(v, w, mesh)) < 1e-13


@pytest.mark.parametrize("rule", BOTH_RULES)
@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_bilinear_self_dissipative(rule, k, rng):
    mesh = periodic_mesh(9, rule, k)
    v = random_coeffs(rng, mesh)
    assert pg.bilinear_ah(v, v, mesh) <= 1e-12


@pytest.mark.parametrize("rule", BOTH_RULES)
def test_jump_identity(rule, rng):
    mesh = periodic_mesh(8, rule, 3)
    v, w = random_coeffs(rng, mesh), random_coeffs(rng, mesh)
    lhs, rhs = _ah_lhs_rhs_jump(v, w, mesh)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs), abs(rhs))


def test_inner_star_constants():
    mesh = uniform_mesh(0.0, 3.0, 4, SubdivisionRule.RRSV, 2, BoundaryCondition.PERIODIC)
    v = np.zeros((4, 3)); v[:, 0] = 2.0
    w = np.zeros((4, 3)); w[:, 0] = -1.5
    assert abs(pg.inner_star(v, w, mesh) - 2.0 * (-1.5) * 3.0) < 1e-13


@pytest.mark.parametrize("rule", BOTH_RULES + (RSV,))
def test_inner_star_symmetry(rule, rng):
    meshes = [rsv_mesh(k) for k in RSV_DEGREES] if rule == RSV else [periodic_mesh(10, rule, 4)]
    for mesh in meshes:
        v, w = random_coeffs(rng, mesh), random_coeffs(rng, mesh)
        a, b = pg.inner_star(v, w, mesh), pg.inner_star(w, v, mesh)
        assert abs(a - b) < 1e-11 * max(1.0, abs(a))


@pytest.mark.parametrize("rule", BOTH_RULES)
def test_inner_star_decomposition(rule, rng):
    mesh = periodic_mesh(6, rule, 3)
    v, w = random_coeffs(rng, mesh), random_coeffs(rng, mesh)
    anti = pg.global_antiderivative(v, mesh)
    dw = pg.derivative_coeffs(w, mesh)
    residual = 0.0
    for i in range(mesh.n_elements):
        scale = 2.0 / mesh.lengths[i]
        xc = mesh.centers[i]

        def f(x, ca=anti[i], cd=dw[i]):
            y = (np.asarray(x) - xc) * scale
            return (legvander(y, mesh.k + 1) @ ca) * \
                   (legvander(y, mesh.k) @ cd) * scale

        residual += pg.quadrature_residual(f, mesh)[i]
    lhs = pg.inner_star(v, w, mesh)
    rhs = pg.l2_inner(v, w, mesh) + residual
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs), abs(rhs))
    if rule == SubdivisionRule.RRSV:
        assert abs(residual) < 1e-12  # degree-2k integrand: Radau-exact


def test_quadrature_residual_exactness_degrees(rng):
    k = 3
    for rule, degree in ((SubdivisionRule.LSV, 2 * k - 1), (SubdivisionRule.RRSV, 2 * k)):
        mesh = uniform_mesh(0.0, 1.0, 4, rule, k, BoundaryCondition.PERIODIC)
        coeff = rng.normal(size=degree + 1)
        poly = np.polynomial.Polynomial(coeff)
        assert abs(pg.quadrature_residual(poly, mesh)[2]) < 1e-12


def test_quadrature_residual_degree_2k_lsv_defect(rng):
    # the defect at degree 2k is the Gauss-rule defect: independent of lower terms
    k = 2
    mesh = uniform_mesh(0.0, 1.0, 4, SubdivisionRule.LSV, k, BoundaryCondition.PERIODIC)
    base = np.polynomial.Polynomial([0.0] * (2 * k) + [1.0])     # x^{2k}
    lower = np.polynomial.Polynomial(rng.normal(size=2 * k))     # degree < 2k
    r1 = pg.quadrature_residual(base, mesh)[1]
    r2 = pg.quadrature_residual(base + lower, mesh)[1]
    assert abs(r1) > 1e-8
    assert abs(r1 - r2) < 1e-13


@pytest.mark.parametrize("k", RSV_DEGREES)
def test_quadrature_residual_rsv_mirrored_weights(k, rng):
    # each orientation's Radau rule is exact to degree 2k on its own elements;
    # right-Radau weights at mirrored nodes would not be
    mesh = rsv_mesh(k)
    coeffs = rng.normal(size=(mesh.n_elements, 2 * k + 1))
    residual = pg.quadrature_residual(lambda x: local_values(mesh, coeffs, x), mesh)
    assert residual.shape == (mesh.n_elements,)
    assert np.max(np.abs(residual)) < 1e-12
    if k == 2:
        top = np.zeros((mesh.n_elements, 2 * k + 2))
        top[:, -1] = 1.0   # L_{2k+1} on every element: beyond the rule's degree
        defect = pg.quadrature_residual(lambda x: local_values(mesh, top, x), mesh)
        assert np.min(np.abs(defect)) > 1e-2   # 0.19-0.29 on this mesh


@pytest.mark.parametrize("k", RSV_DEGREES)
def test_lagrange_interpolant_reproduces_degree_k_on_rsv(k, rng):
    mesh = rsv_mesh(k)
    poly = np.polynomial.Polynomial(rng.normal(size=k + 1))
    interp = pg.lagrange_interpolant(poly, mesh)
    y = np.linspace(-1.0, 1.0, 7)
    x = mesh.centers[:, None] + 0.5 * mesh.lengths[:, None] * y
    exact = poly(x)
    assert np.max(np.abs(interp @ legvander(y, k).T - exact)) < \
        1e-12 * np.max(np.abs(exact))


def test_basis_tables_take_any_shape(rng):
    # the check suite and the per-CV quadrature evaluate L_m on 2-D point arrays
    y = rng.uniform(-1.0, 1.0, size=(4, 6))
    got = legvander(y, 5)
    assert got.shape == (4, 6, 6)
    assert np.array_equal(got, np.stack([legvander(row, 5) for row in y]))


def test_energy_norm_constant():
    mesh = periodic_mesh(6, SubdivisionRule.LSV, 2)
    w = np.zeros((6, 3)); w[:, 0] = 1.0
    assert abs(pg.energy_norm(w, mesh) - np.sqrt(2.0 * np.pi)) < 1e-13


def test_energy_norm_rrsv_equals_l2(rng):
    mesh = periodic_mesh(7, SubdivisionRule.RRSV, 3)
    w = random_coeffs(rng, mesh)
    l2 = np.sqrt(pg.l2_inner(w, w, mesh))
    assert abs(pg.energy_norm(w, mesh) - l2) < 1e-11


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_energy_norm_lsv_equivalent_to_l2(k, rng):
    mesh = periodic_mesh(8, SubdivisionRule.LSV, k)
    ratios = []
    for _ in range(50):
        w = random_coeffs(rng, mesh)
        ratios.append(pg.energy_norm(w, mesh) / np.sqrt(pg.l2_inner(w, w, mesh)))
    assert 0.5 < min(ratios) and max(ratios) < 2.0


@pytest.mark.parametrize("rule", BOTH_RULES)
def test_interpolation_annihilation(rule, rng):
    mesh = periodic_mesh(6, rule, 3)
    u = lambda x: np.sin(x) + 0.4 * np.cos(2.0 * x)
    interp = pg.lagrange_interpolant(u, mesh)
    # interpolation conditions hold at x_{i,1}..x_{i,k+1}
    vals = pg.interpolation_nodes_values(interp, mesh)
    assert np.max(np.abs(vals - u(mesh.cv_bounds[:, 1:]))) < 1e-13
    # so the direct a_h sum over eta = interp - u vanishes
    w = random_coeffs(rng, mesh)
    star = pg.map_to_test(w, mesh)
    eta = vals - u(mesh.cv_bounds[:, 1:])
    traces = np.empty((mesh.n_elements, mesh.k + 2))
    traces[:, 1:] = eta
    traces[1:, 0] = eta[:-1, -1]
    traces[0, 0] = eta[-1, -1]
    assert abs(-np.sum(star * np.diff(traces, axis=1))) < 1e-12


@pytest.mark.parametrize("rule", BOTH_RULES)
def test_per_element_identity(rule, rng):
    # a_{h,i}(v, w*) = (v, w_x)_i - v-w-|right + v-w+|left for interior elements
    mesh = periodic_mesh(6, rule, 3)
    v, w = random_coeffs(rng, mesh), random_coeffs(rng, mesh)
    star = pg.map_to_test(w, mesh)
    vv = pg._node_values(v, mesh)
    wv = pg._node_values(w, mesh)
    dw = pg.derivative_coeffs(w, mesh)
    i = 3
    v_minus = np.concatenate([[vv[i - 1, -1]], vv[i, 1:]])
    lhs = -np.sum(star[i] * np.diff(v_minus))
    mode = 2.0 / (2 * np.arange(mesh.k + 1) + 1)
    inner = np.sum(v[i] * dw[i] * mode)  # (v, w_y)_ref = (v, w_x)_i after the h/2 factors
    rhs = inner - vv[i, -1] * wv[i, -1] + vv[i - 1, -1] * wv[i, 0]
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


@pytest.mark.parametrize("rule", BOTH_RULES + (RSV,))
@pytest.mark.parametrize("bc", (BoundaryCondition.PERIODIC, BoundaryCondition.INFLOW_ZERO))
def test_galerkin_identity_links_solver_and_form(rule, bc, rng):
    if rule == RSV:
        meshes = [rsv_mesh(k, bc) for k in RSV_DEGREES]
    else:
        meshes = [uniform_mesh(0.0, 2.0 * np.pi, 8, rule, 2, bc)]
    for mesh in meshes:
        v, w = random_coeffs(rng, mesh), random_coeffs(rng, mesh)
        state = state_from_coeffs(mesh, v)
        problem = Problem(u0=np.sin)
        tendency = SpatialOperator(mesh, problem).tendency(state.values, 0.0)
        star = pg.map_to_test(w, mesh)
        lhs = float(np.sum(star * tendency))
        rhs = pg.bilinear_ah(v, w, mesh)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs), abs(rhs))


def test_global_antiderivative_is_continuous_primitive(rng):
    mesh = periodic_mesh(5, SubdivisionRule.LSV, 3)
    v = random_coeffs(rng, mesh)
    anti = pg.global_antiderivative(v, mesh)
    ends = legvander(np.array([-1.0, 1.0]), mesh.k + 1)
    lefts, rights = anti @ ends[0], anti @ ends[1]
    assert abs(lefts[0]) < 1e-13                            # vanishes at x = a
    assert np.max(np.abs(rights[:-1] - lefts[1:])) < 1e-12  # continuity
    # d/dy of the primitive, scaled by 2/h, recovers v at the midpoints
    danti = legder(anti, axis=1)
    dv = (danti @ legvander(np.array([0.0]), mesh.k)[0]) * 2.0 / mesh.lengths
    v_mid = v @ legvander(np.array([0.0]), mesh.k)[0]
    assert np.max(np.abs(dv - v_mid)) < 1e-12
