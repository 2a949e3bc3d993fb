import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rksv._basis import legendre_vandermonde
from rksv.mesh import SubdivisionRule
from rksv.quadrature import (gauss_legendre_nodes, gauss_rule, interpolatory_weights,
                             right_radau_nodes)


def test_legendre_constant_and_linear():
    assert legendre_vandermonde(0.37, 0)[0] == 1.0
    for y in (-0.9, 0.0, 0.25, 1.0):
        assert legendre_vandermonde(y, 1)[1] == y


def test_legendre_root_of_degree_two():
    assert abs(legendre_vandermonde(1.0 / math.sqrt(3.0), 2)[2]) < 1e-15


def test_gauss_nodes_small_degrees():
    assert np.allclose(gauss_legendre_nodes(1).nodes, [0.0], atol=1e-15)
    r3 = 1.0 / math.sqrt(3.0)
    assert np.allclose(gauss_legendre_nodes(2).nodes, [-r3, r3], atol=1e-15)
    r35 = math.sqrt(3.0 / 5.0)
    assert np.allclose(gauss_legendre_nodes(3).nodes, [-r35, 0.0, r35], atol=1e-15)


@pytest.mark.parametrize("k", range(1, 13))
def test_gauss_node_invariants(k):
    nodes = gauss_legendre_nodes(k).nodes
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > -1.0 and nodes[-1] < 1.0
    assert np.allclose(nodes, -nodes[::-1], atol=1e-15)
    assert np.max(np.abs(legendre_vandermonde(nodes, k)[:, k])) < 1e-14


def test_gauss_nodes_rejects_out_of_range():
    with pytest.raises(ValueError):
        gauss_legendre_nodes(0)
    with pytest.raises(ValueError):
        gauss_legendre_nodes(13)


def test_radau_nodes_small_degrees():
    assert np.allclose(right_radau_nodes(1).nodes, [1.0])
    assert np.allclose(right_radau_nodes(2).nodes, [-1.0 / 3.0, 1.0], atol=1e-15)
    # roots of L3 - L2 = (y - 1)(5y^2 + 2y - 1)/2
    r6 = math.sqrt(6.0)
    expected = [(-1.0 - r6) / 5.0, (-1.0 + r6) / 5.0, 1.0]
    assert np.allclose(right_radau_nodes(3).nodes, expected, atol=1e-14)


@pytest.mark.parametrize("m", range(1, 14))
def test_radau_node_invariants(m):
    nodes = right_radau_nodes(m).nodes
    assert nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > -1.0
    values = legendre_vandermonde(nodes, m)
    defect = values[:, m] - values[:, m - 1]
    assert np.max(np.abs(defect)) < 1e-12


def test_radau_rejects_zero():
    with pytest.raises(ValueError):
        right_radau_nodes(0)


@pytest.mark.parametrize("k", range(1, 13))
def test_interior_points_strictly_inside(k):
    assert np.all(np.abs(gauss_legendre_nodes(k).nodes) < 1.0)
    assert np.all(np.abs(right_radau_nodes(k + 1).nodes[:-1]) < 1.0)


def test_interpolatory_weights_examples():
    lsv1 = interpolatory_weights(SubdivisionRule.LSV, 1)
    assert np.allclose(lsv1.weights, [0.0, 2.0, 0.0])
    lsv2 = interpolatory_weights(SubdivisionRule.LSV, 2)
    assert np.allclose(lsv2.weights, [0.0, 1.0, 1.0, 0.0])
    rrsv1 = interpolatory_weights(SubdivisionRule.RRSV, 1)
    assert np.allclose(rrsv1.weights, [0.0, 1.5, 0.5])


@pytest.mark.parametrize("rule,degree_of", [
    (SubdivisionRule.LSV, lambda k: 2 * k - 1),
    (SubdivisionRule.RRSV, lambda k: 2 * k),
])
@pytest.mark.parametrize("k", range(1, 13))
def test_interpolatory_weights_exactness(rule, degree_of, k):
    iw = interpolatory_weights(rule, k)
    assert iw.exactness_degree == degree_of(k)
    assert iw.weights[0] == 0.0
    if rule == SubdivisionRule.LSV:
        assert iw.weights[-1] == 0.0
    assert abs(iw.weights.sum() - 2.0) < 1e-13
    for m in range(iw.exactness_degree + 1):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        assert abs(iw.apply(iw.nodes**m) - exact) < 1e-13


@pytest.mark.parametrize("points", range(1, 21))
def test_gauss_rule_matches_leggauss_and_is_exact(points):
    nodes, weights = gauss_rule(points)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(points)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
    assert np.max(np.abs(weights - ref_weights)) <= 1e-14
    for m in range(2 * points):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        assert abs(weights @ nodes**m - exact) <= 1e-14


def gauss_quad(f, a: float, b: float, points: int) -> float:
    """Integrate f over [a, b] with a mapped Gauss rule (exact to degree 2*points-1)."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    nodes, weights = gauss_rule(points)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return float(half * np.sum(weights * np.asarray(f(mid + half * nodes), dtype=float)))


def test_gauss_quad_examples():
    assert abs(gauss_quad(lambda x: np.ones_like(x), 0.0, 2.0, 3) - 2.0) < 1e-14
    assert abs(gauss_quad(lambda x: x**3, -1.0, 1.0, 2)) < 1e-14
    assert abs(gauss_quad(lambda x: x**4, 0.0, 1.0, 3) - 0.2) < 1e-14


def test_gauss_quad_rejects_bad_input():
    with pytest.raises(ValueError):
        gauss_quad(lambda x: x, 1.0, 0.0, 3)
    with pytest.raises(ValueError):
        gauss_quad(lambda x: x, 0.0, 1.0, 0)


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=12),
    points=st.integers(min_value=1, max_value=12),
)
def test_gauss_quad_polynomial_exactness(coeffs, points):
    degree = len(coeffs) - 1
    if degree > 2 * points - 1:
        coeffs = coeffs[: 2 * points]
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(2.5) - poly.integ()(-1.0)
    approx = gauss_quad(poly, -1.0, 2.5, points)
    assert abs(approx - exact) < 1e-11 * max(1.0, abs(exact))
