"""Legendre/Radau node sets, interpolatory weights, and Gauss rules."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._basis import legendre_vandermonde

__all__ = [
    "MAX_DEGREE",
    "NodeSet",
    "InterpolatoryWeights",
    "legendre_deriv",
    "gauss_legendre_nodes",
    "gauss_legendre_weights",
    "right_radau_nodes",
    "interpolatory_weights",
    "gauss_rule",
]

MAX_DEGREE = 12

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def legendre_deriv(m, y):
    """Evaluate L_m' at y via (1-y^2) L_m' = m (L_{m-1} - y L_m)."""
    y = np.asarray(y, dtype=float)
    if m == 0:
        out = np.zeros_like(y)
        return out if out.ndim else float(out)
    v = legendre_vandermonde(y, m)
    lm, lm1 = v[..., m], v[..., m - 1]
    denom = 1.0 - y * y
    interior = np.abs(denom) > 1e-14
    out = np.empty_like(y)
    out[interior] = m * (lm1[interior] - y[interior] * lm[interior]) / denom[interior]
    # endpoint limits: L_m'(+-1) = (+-1)^(m-1) m(m+1)/2
    edge = ~interior
    if np.any(edge):
        out[edge] = np.sign(y[edge]) ** (m - 1) * m * (m + 1) / 2.0
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NodeSet:
    """An ordered set of quadrature/subdivision nodes on [-1, 1]."""

    kind: str  # gauss_legendre | right_radau | left_radau
    count: int
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.shape != (self.count,):
            raise ValueError("node count mismatch")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < -1.0 or nodes[-1] > 1.0:
            raise ValueError("nodes must lie in [-1, 1]")


def _newton(f, fprime, x0):
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(_NEWTON_MAX_ITER):
        fx = f(x)
        x_new = x - fx / fprime(x)
        if np.max(np.abs(x_new - x)) < _NEWTON_TOL:
            return x_new
        x = x_new
    return x


@lru_cache(maxsize=None)
def gauss_legendre_nodes(k: int) -> NodeSet:
    """The k Gauss-Legendre nodes (roots of L_k), for 1 <= k <= 12."""
    if not 1 <= k <= MAX_DEGREE:
        raise ValueError(f"k must be in 1..{MAX_DEGREE}, got {k}")
    i = np.arange(1, k + 1)
    guess = -np.cos((2 * i - 1) * np.pi / (2 * k))
    nodes = _newton(lambda y: legendre_vandermonde(y, k)[..., k],
                    lambda y: legendre_deriv(k, y), guess)
    nodes = (nodes - nodes[::-1]) / 2.0  # enforce symmetry about 0
    if np.max(np.abs(legendre_vandermonde(nodes, k)[:, k])) >= 1e-14:
        raise RuntimeError(f"Gauss-Legendre Newton iteration failed for k={k}")
    return NodeSet("gauss_legendre", k, nodes)


@lru_cache(maxsize=None)
def gauss_legendre_weights(k: int) -> np.ndarray:
    """Gauss-Legendre weights w_i = 2 / ((1 - y_i^2) L_k'(y_i)^2)."""
    y = gauss_legendre_nodes(k).nodes
    dp = legendre_deriv(k, y)
    return 2.0 / ((1.0 - y * y) * dp * dp)


@lru_cache(maxsize=None)
def right_radau_nodes(m: int) -> NodeSet:
    """The m roots of L_m - L_{m-1}; the last node is exactly +1."""
    if not 1 <= m <= MAX_DEGREE + 1:
        raise ValueError(f"m must be in 1..{MAX_DEGREE + 1}, got {m}")
    if m == 1:
        return NodeSet("right_radau", 1, np.array([1.0]))
    # mirrored Chebyshev-Gauss-Radau points as interior initial guesses
    i = np.arange(1, m)
    guess = np.sort(np.cos(2.0 * np.pi * i / (2 * m - 1)))

    def f(y):
        v = legendre_vandermonde(y, m)
        return v[..., m] - v[..., m - 1]

    def fp(y):
        return legendre_deriv(m, y) - legendre_deriv(m - 1, y)

    interior = _newton(f, fp, guess)
    if np.max(np.abs(f(interior))) >= 1e-13:
        raise RuntimeError(f"right-Radau Newton iteration failed for m={m}")
    nodes = np.concatenate([interior, [1.0]])
    return NodeSet("right_radau", m, nodes)


@dataclass(frozen=True)
class InterpolatoryWeights:
    """Weights A_0..A_{k+1} of the subdivision-point quadrature on [-1, 1]."""

    nodes: np.ndarray  # y_0 = -1 < y_1 < ... < y_{k+1} = 1
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape:
            raise ValueError("nodes/weights shape mismatch")
        if abs(weights.sum() - 2.0) > 1e-13:
            raise ValueError("weights must sum to 2")

    def apply(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


def _moment_weights(nodes: np.ndarray) -> np.ndarray:
    """Interpolatory weights on the given nodes via the Vandermonde moment system."""
    n = len(nodes)
    powers = np.arange(n)
    vandermonde = nodes[None, :] ** powers[:, None]
    moments = np.where(powers % 2 == 0, 2.0 / (powers + 1), 0.0)
    return np.linalg.solve(vandermonde, moments)


def _verify_exactness(nodes, weights, degree):
    for m in range(degree + 1):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        if abs(weights @ nodes**m - exact) > 1e-12:
            raise RuntimeError(f"quadrature not exact at degree {m}")


def interpolatory_weights(rule, k: int) -> InterpolatoryWeights:
    """Subdivision-point weights (A_0, ..., A_{k+1}) for the LSV or RRSV rule.

    LSV pads the k-point Gauss rule with zero endpoint weights (exact to
    degree 2k-1); RRSV pads the (k+1)-point right-Radau rule with a zero
    weight at -1 (exact to degree 2k).
    """
    from .mesh import SubdivisionRule  # local import to avoid a cycle

    rule = SubdivisionRule(rule)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if rule == SubdivisionRule.LSV:
        interior = gauss_legendre_nodes(k).nodes
        nodes = np.concatenate([[-1.0], interior, [1.0]])
        weights = np.concatenate([[0.0], gauss_legendre_weights(k), [0.0]])
        degree = 2 * k - 1
    elif rule == SubdivisionRule.RRSV:
        radau = right_radau_nodes(k + 1).nodes
        nodes = np.concatenate([[-1.0], radau])
        weights = np.concatenate([[0.0], _moment_weights(radau)])
        degree = 2 * k
    else:
        raise ValueError(f"no single reference rule for {rule}; resolve per element")
    _verify_exactness(nodes, weights, degree)
    return InterpolatoryWeights(nodes, weights, degree)


@lru_cache(maxsize=None)
def gauss_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference Gauss-Legendre rule (nodes, weights) on [-1, 1]."""
    if not 1 <= points <= 20:
        raise ValueError(f"points must be in 1..20, got {points}")
    if points <= MAX_DEGREE:
        return gauss_legendre_nodes(points).nodes, gauss_legendre_weights(points)
    # beyond the NodeSet range
    return np.polynomial.legendre.leggauss(points)
