import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legvander

from rksv.mesh import SubdivisionRule, reference_nodes
from rksv.quadrature import gauss_rule, interpolatory_weights, right_radau_nodes

_MP = mpmath.mp.clone()
_MP.dps = 40


def _mp_legendre(n, x):
    """L_n(x) and L_n'(x) at 40 digits for n >= 1, by the three-term recurrence."""
    p0, p1 = _MP.mpf(1), x
    for m in range(1, n):
        p0, p1 = p1, ((2 * m + 1) * x * p1 - m * p0) / (m + 1)
    return p1, n * (p0 - x * p1) / (1 - x * x)


def _mp_roots(f, guesses):
    """Newton from the given float guesses; the roots must come out distinct."""
    roots = []
    for x in map(_MP.mpf, guesses):
        for _ in range(100):
            value, slope = f(x)
            step = value / slope
            x -= step
            if abs(step) < _MP.mpf(10) ** -38:
                break
        roots.append(x)
    roots.sort()
    assert all(b - a > 1e-3 for a, b in zip(roots, roots[1:]))
    return roots


def mp_gauss(n):
    """n-point Gauss-Legendre nodes and weights w = 2 / ((1 - x^2) L_n'(x)^2)."""
    guesses = [-math.cos((2 * i - 1) * math.pi / (2 * n)) for i in range(1, n + 1)]
    nodes = _mp_roots(lambda x: _mp_legendre(n, x), guesses)
    return nodes, [2 / ((1 - x * x) * _mp_legendre(n, x)[1] ** 2) for x in nodes]


def mp_right_radau(m):
    """m right-Radau nodes (roots of L_m - L_{m-1}) and weights
    w = (1 + x) / (m^2 L_{m-1}(x)^2), with 2 / m^2 at x = 1."""
    def f(x):
        (a, da), (b, db) = _mp_legendre(m, x), _mp_legendre(m - 1, x)
        return a - b, da - db

    guesses = [math.cos(2.0 * math.pi * i / (2 * m - 1)) for i in range(1, m)]
    nodes = _mp_roots(f, guesses) + [_MP.mpf(1)]
    weights = [(1 + x) / (m * m * _mp_legendre(m - 1, x)[0] ** 2) for x in nodes[:-1]]
    return nodes, weights + [_MP.mpf(2) / (m * m)]


def _max_error(got, reference):
    return max(abs(float(_MP.mpf(float(g)) - r)) for g, r in zip(got, reference, strict=True))


def test_legendre_constant_and_linear():
    assert np.array_equal(legvander(np.array([0.37]), 0), [[1.0]])
    y = np.array([-0.9, 0.0, 0.25, 1.0])
    assert np.array_equal(legvander(y, 1)[:, 1], y)


def test_legendre_root_of_degree_two():
    assert abs(legvander(np.array([1.0 / math.sqrt(3.0)]), 2)[0, 2]) < 1e-15


def test_gauss_nodes_small_degrees():
    assert np.allclose(gauss_rule(1)[0], [0.0], atol=1e-15)
    r3 = 1.0 / math.sqrt(3.0)
    assert np.allclose(gauss_rule(2)[0], [-r3, r3], atol=1e-15)
    r35 = math.sqrt(3.0 / 5.0)
    assert np.allclose(gauss_rule(3)[0], [-r35, 0.0, r35], atol=1e-15)


@pytest.mark.parametrize("k", range(1, 13))
def test_gauss_node_invariants(k):
    nodes = gauss_rule(k)[0]
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > -1.0 and nodes[-1] < 1.0
    assert np.allclose(nodes, -nodes[::-1], atol=1e-15)
    assert np.max(np.abs(legvander(nodes, k)[:, k])) < 1e-14


def test_radau_nodes_small_degrees():
    assert np.allclose(right_radau_nodes(1), [1.0])
    assert np.allclose(right_radau_nodes(2), [-1.0 / 3.0, 1.0], atol=1e-15)
    # roots of L3 - L2 = (y - 1)(5y^2 + 2y - 1)/2
    r6 = math.sqrt(6.0)
    expected = [(-1.0 - r6) / 5.0, (-1.0 + r6) / 5.0, 1.0]
    assert np.allclose(right_radau_nodes(3), expected, atol=1e-14)


@pytest.mark.parametrize("m", range(1, 14))
def test_radau_node_invariants(m):
    nodes = right_radau_nodes(m)
    assert nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > -1.0
    values = legvander(nodes, m)
    defect = values[:, m] - values[:, m - 1]
    assert np.max(np.abs(defect)) < 1e-12


def test_radau_rejects_zero():
    with pytest.raises(ValueError):
        right_radau_nodes(0)


@pytest.mark.parametrize("k", range(1, 13))
def test_interior_points_strictly_inside(k):
    assert np.all(np.abs(gauss_rule(k)[0]) < 1.0)
    assert np.all(np.abs(right_radau_nodes(k + 1)[:-1]) < 1.0)


def test_interpolatory_weights_examples():
    lsv1 = interpolatory_weights(SubdivisionRule.LSV, 1)
    assert np.allclose(lsv1, [0.0, 2.0, 0.0])
    lsv2 = interpolatory_weights(SubdivisionRule.LSV, 2)
    assert np.allclose(lsv2, [0.0, 1.0, 1.0, 0.0])
    rrsv1 = interpolatory_weights(SubdivisionRule.RRSV, 1)
    assert np.allclose(rrsv1, [0.0, 1.5, 0.5])


@pytest.mark.parametrize("rule,degree_of", [
    (SubdivisionRule.LSV, lambda k: 2 * k - 1),
    (SubdivisionRule.RRSV, lambda k: 2 * k),
])
@pytest.mark.parametrize("k", range(1, 13))
def test_interpolatory_weights_exactness(rule, degree_of, k):
    nodes, weights = reference_nodes(rule, k), interpolatory_weights(rule, k)
    assert weights.shape == nodes.shape == (k + 2,)
    assert not weights.flags.writeable
    assert weights[0] == 0.0
    if rule == SubdivisionRule.LSV:
        assert weights[-1] == 0.0
    assert abs(weights.sum() - 2.0) < 1e-13
    for m in range(degree_of(k) + 1):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        assert abs(weights @ nodes**m - exact) < 1e-13


@pytest.mark.parametrize("points", range(1, 21))
def test_gauss_rule_matches_leggauss_and_is_exact(points):
    # the reference is a 40-digit mpmath rule, independent of numpy's leggauss
    nodes, weights = gauss_rule(points)
    ref_nodes, ref_weights = mp_gauss(points)
    assert _max_error(nodes, ref_nodes) <= 4e-16
    assert _max_error(weights, ref_weights) <= 4e-15
    assert not nodes.flags.writeable and not weights.flags.writeable
    for m in range(2 * points):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        assert abs(weights @ nodes**m - exact) <= 1e-14


@pytest.mark.parametrize("m", range(2, 14))
def test_radau_nodes_and_rrsv_weights_match_mpmath(m):
    ref_nodes, ref_weights = mp_right_radau(m)
    assert _max_error(right_radau_nodes(m), ref_nodes) <= 4e-16
    weights = interpolatory_weights(SubdivisionRule.RRSV, m - 1)
    assert weights[0] == 0.0
    assert _max_error(weights[1:], ref_weights) <= 4e-15


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
