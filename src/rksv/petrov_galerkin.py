"""Executable analysis machinery: trial-to-test mapping, bilinear form, energy norm.

Piecewise polynomials are passed as (N, k+1) arrays of per-element Legendre
coefficients on the reference element, the array that ``sv_space.reconstruct``
returns.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legder, legint, legvander

from .mesh import BoundaryCondition, Mesh1D
from .quadrature import gauss_rule
from .sv_space import _read_only, workspace

__all__ = [
    "node_weights",
    "map_to_test",
    "bilinear_ah",
    "inner_star",
    "quadrature_residual",
    "energy_norm",
    "boundary_traces",
    "derivative_coeffs",
    "l2_inner",
    "global_antiderivative",
    "lagrange_interpolant",
    "interpolation_nodes_values",
]

_RESIDUAL_POINTS = 20  # reference rule for R_i, exact to degree 39


def node_weights(mesh: Mesh1D) -> np.ndarray:
    """Physical quadrature weights A_{i,j} = (h_i/2) A_j; shape (N, k+2)."""
    return workspace(mesh).table("node_weights") * 0.5 * mesh.lengths[:, None]


def _node_values(coeffs: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """Values of the piecewise polynomial at all CV bounds; shape (N, k+2)."""
    return np.einsum("ijm,im->ij", workspace(mesh).table("trace"), coeffs)


def map_to_test(coeffs: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """The trial-to-test mapping: piecewise constants w*_{i,j}; shape (N, k+1).

    w*_{i,0} = w(x_{i,0}^+) + A_{i,0} w_x(x_{i,0}) and each later constant adds
    A_{i,j} w_x(x_{i,j}).
    """
    vals = _node_values(coeffs, mesh)
    derivs = _node_values(derivative_coeffs(coeffs, mesh), mesh) * (2 / mesh.lengths)[:, None]
    a = node_weights(mesh)
    star = np.empty((mesh.n_elements, mesh.k + 1))
    star[:, 0] = vals[:, 0] + a[:, 0] * derivs[:, 0]
    increments = a[:, 1:-1] * derivs[:, 1:-1]
    star[:, 1:] = star[:, [0]] + np.cumsum(increments, axis=1)
    return star


def boundary_traces(coeffs: np.ndarray, mesh: Mesh1D) -> tuple[np.ndarray, np.ndarray]:
    """Element traces (left-endpoint values, right-endpoint values)."""
    vals = _node_values(coeffs, mesh)
    return vals[:, 0].copy(), vals[:, -1].copy()


@lru_cache(maxsize=None)
def _derivative_matrix(k: int) -> np.ndarray:
    """d/dy on k+1 Legendre coefficients, its last row zero; cached, read-only."""
    return _read_only(np.vstack([legder(np.eye(k + 1), axis=0), np.zeros(k + 1)]))


@lru_cache(maxsize=None)
def _antiderivative_matrix(k: int) -> np.ndarray:
    """k+1 Legendre coefficients -> the k+2 of the antiderivative vanishing at y = -1;
    cached, read-only."""
    return _read_only(legint(np.eye(k + 1), axis=0, lbnd=-1))


def derivative_coeffs(coeffs: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """Reference-coordinate Legendre coefficients of d/dy of each element polynomial."""
    return coeffs @ _derivative_matrix(mesh.k).T


def interpolation_nodes_values(coeffs: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """Values of each element polynomial at its own nodes x_{i,1}..x_{i,k+1}."""
    return np.einsum("ijm,im->ij", workspace(mesh).table("trace")[:, 1:], coeffs)


def _upwind_traces(coeffs: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """u^- at the k+2 CV bounds of each element, honouring the bc at x_{i,0}."""
    vals = _node_values(coeffs, mesh)
    out = np.empty_like(vals)
    out[:, 1:] = vals[:, 1:]
    out[1:, 0] = vals[:-1, -1]
    if mesh.bc == BoundaryCondition.PERIODIC:
        out[0, 0] = vals[-1, -1]
    else:
        out[0, 0] = 0.0
    return out


def bilinear_ah(v: np.ndarray, w: np.ndarray, mesh: Mesh1D) -> float:
    """a_h(v, w*) = -sum_{i,j} w*_{i,j} (v^-_{i,j+1} - v^-_{i,j})."""
    star = map_to_test(w, mesh)
    vm = _upwind_traces(v, mesh)
    return float(-np.sum(star * np.diff(vm, axis=1)))


def inner_star(v: np.ndarray, w: np.ndarray, mesh: Mesh1D) -> float:
    """(v, w*) = sum_{i,j} w*_{i,j} * integral of v over C_{i,j}."""
    star = map_to_test(w, mesh)
    return 0.5 * float(np.einsum("ij,ijm,im,i->", star, workspace(mesh).table("mass"), v,
                                 mesh.lengths))


def quadrature_residual(f, mesh: Mesh1D) -> np.ndarray:
    """R_i(f) of every element: Gauss reference integral over I_i minus the weighted
    node sum; shape (N,).

    ``f`` is called once on an (N, 20) array of Gauss points and once on
    ``mesh.cv_bounds``; row i of its result is element i's function.
    """
    gy, gw = gauss_rule(_RESIDUAL_POINTS)
    half = 0.5 * mesh.lengths
    x = mesh.centers[:, None] + half[:, None] * gy
    integral = half * (np.asarray(f(x), dtype=float) @ gw)
    return integral - np.sum(node_weights(mesh) * np.asarray(f(mesh.cv_bounds), dtype=float),
                             axis=1)


def energy_norm(w: np.ndarray, mesh: Mesh1D) -> float:
    """sqrt of (w, w*); raises if the radicand is negative beyond roundoff."""
    sq = inner_star(w, w, mesh)
    if sq < -1e-12:
        raise ValueError(f"energy norm radicand {sq} is negative: broken rule")
    return float(np.sqrt(max(sq, 0.0)))


def l2_inner(v: np.ndarray, w: np.ndarray, mesh: Mesh1D) -> float:
    """Exact L2 inner product from Legendre orthogonality."""
    k = mesh.k
    mode = 2.0 / (2 * np.arange(k + 1) + 1)
    return float(np.sum(0.5 * mesh.lengths[:, None] * v * w * mode[None, :]))


def global_antiderivative(v: np.ndarray, mesh: Mesh1D) -> np.ndarray:
    """Coefficients (N, k+2) of the primitive of v vanishing at the left domain end."""
    anti = v @ _antiderivative_matrix(mesh.k).T * (0.5 * mesh.lengths)[:, None]
    # each element's primitive vanishes at its left end and, as every L_m(1) = 1,
    # reaches the sum of its coefficients at its right end
    anti[:, 0] += np.concatenate([[0.0], np.cumsum(anti[:-1].sum(axis=1))])
    return anti


def lagrange_interpolant(u, mesh: Mesh1D) -> np.ndarray:
    """Coefficients of the piecewise interpolant of u at x_{i,1}..x_{i,k+1}."""
    values = np.asarray(u(mesh.cv_bounds[:, 1:]), dtype=float)
    return np.einsum("imj,ij->im", workspace(mesh).table("interp_inv"), values)
