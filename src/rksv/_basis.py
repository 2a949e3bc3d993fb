"""Legendre modal-basis helpers shared by the solver and the analysis surface."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "legendre_vandermonde",
    "antiderivative_values",
    "mass_matrix",
    "derivative_matrix",
    "antiderivative_matrix",
]


def legendre_vandermonde(y, kmax: int) -> np.ndarray:
    """L_0(y) .. L_kmax(y) along a new last axis; shape y.shape + (kmax+1,)."""
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape + (kmax + 1,))
    out[..., 0] = 1.0
    if kmax >= 1:
        out[..., 1] = y
    for m in range(1, kmax):
        out[..., m + 1] = ((2 * m + 1) * y * out[..., m] - m * out[..., m - 1]) / (m + 1)
    return out


def antiderivative_values(y, kmax: int) -> np.ndarray:
    """Values of an antiderivative of L_m at y, via (L_{m+1} - L_{m-1}) / (2m+1);
    shape y.shape + (kmax+1,)."""
    v = legendre_vandermonde(y, kmax + 1)
    out = np.empty(v.shape[:-1] + (kmax + 1,))
    out[..., 0] = v[..., 1]
    for m in range(1, kmax + 1):
        out[..., m] = (v[..., m + 1] - v[..., m - 1]) / (2 * m + 1)
    return out


def mass_matrix(y) -> np.ndarray:
    """M[j, m] = integral of L_m over [y_j, y_{j+1}] for consecutive node pairs."""
    y = np.asarray(y, dtype=float)
    anti = antiderivative_values(y, len(y) - 2)
    return np.diff(anti, axis=0)


@lru_cache(maxsize=None)
def derivative_matrix(k: int) -> np.ndarray:
    """D with (D @ c) the Legendre coefficients of d/dy of sum(c_m L_m); cached, read-only."""
    d = np.zeros((k + 1, k + 1))
    for m in range(k + 1):
        for j in range(m + 1, k + 1, 2):
            d[m, j] = 2 * m + 1
    d.flags.writeable = False
    return d


def antiderivative_matrix(k: int) -> np.ndarray:
    """A with (A @ c) the degree-(k+1) Legendre coefficients of an antiderivative.

    The constant mode is left at zero; callers pin it from continuity.
    """
    a = np.zeros((k + 2, k + 1))
    for m in range(k + 1):
        a[m + 1, m] += 1.0 / (2 * m + 1)
        if m >= 1:
            a[m - 1, m] -= 1.0 / (2 * m + 1)
    return a
