"""Gauss-Legendre and right-Radau nodes, and the subdivision-point weights on them.

Nodes come from ``numpy.polynomial.legendre``: ``leggauss`` for the Gauss
rules, and ``legroots`` of L_m - L_{m-1}, polished by one Newton step, for the
right-Radau nodes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

__all__ = [
    "right_radau_nodes",
    "interpolatory_weights",
    "gauss_rule",
]


@lru_cache(maxsize=None)
def gauss_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference Gauss-Legendre rule (nodes, weights) on [-1, 1]; cached, read-only."""
    if not 1 <= points <= 20:
        raise ValueError(f"points must be in 1..20, got {points}")
    nodes, weights = legendre.leggauss(points)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=None)
def right_radau_nodes(m: int) -> np.ndarray:
    """The m roots of L_m - L_{m-1}, ascending; the last is exactly +1. Cached, read-only."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    series = np.zeros(m + 1)
    series[m], series[m - 1] = 1.0, -1.0
    nodes = np.sort(legendre.legroots(series).real)
    nodes[-1] = 1.0
    # the companion eigenvalues are ~1e-15 off; one Newton step brings them to an ulp
    y = nodes[:-1]
    y -= legendre.legval(y, series) / legendre.legval(y, legendre.legder(series))
    nodes.flags.writeable = False
    return nodes


def _moment_weights(nodes: np.ndarray) -> np.ndarray:
    """Interpolatory weights on the given nodes, from the Legendre moments
    sum_j w_j L_m(y_j) = integral of L_m = (2, 0, ..., 0)."""
    moments = np.zeros(len(nodes))
    moments[0] = 2.0
    return np.linalg.solve(legendre.legvander(nodes, len(nodes) - 1).T, moments)


def _verify_exactness(nodes, weights, degree):
    for m in range(degree + 1):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        if abs(weights @ nodes**m - exact) > 1e-13:
            raise RuntimeError(f"quadrature not exact at degree {m}")


def interpolatory_weights(rule, k: int) -> np.ndarray:
    """Read-only subdivision-point weights (A_0, ..., A_{k+1}) for the LSV or RRSV
    rule, at the nodes -1 = y_0 < ... < y_{k+1} = 1 of ``reference_nodes(rule, k)``.

    LSV pads the k-point Gauss rule with zero endpoint weights (exact to
    degree 2k-1); RRSV pads the (k+1)-point right-Radau rule with a zero
    weight at -1 (exact to degree 2k), checked to 1e-13 at every degree.
    """
    from .mesh import SubdivisionRule, reference_nodes  # local import to avoid a cycle

    rule = SubdivisionRule(rule)
    if rule == SubdivisionRule.RSV_ADAPTIVE:
        raise ValueError(f"no single reference rule for {rule}; resolve per element")
    nodes = reference_nodes(rule, k)
    if rule == SubdivisionRule.LSV:
        weights = np.concatenate([[0.0], gauss_rule(k)[1], [0.0]])
        degree = 2 * k - 1
    else:
        weights = np.concatenate([[0.0], _moment_weights(nodes[1:])])
        degree = 2 * k
    _verify_exactness(nodes, weights, degree)
    weights.flags.writeable = False
    return weights
