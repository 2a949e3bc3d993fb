"""The spatial side of the SV scheme: reconstruction, upwind fluxes, residuals.

The unknowns are control-volume integrals I_{i,j} of a piecewise degree-k
polynomial; the tendency of each I_{i,j} is the flux difference across its
control volume plus the source integral, assembled once per (mesh, problem)
as ``L I + Q g`` (``SpatialOperator``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from typing import Callable, Optional

import numpy as np

from ._basis import antiderivative_values, legendre_vandermonde, mass_matrix
from .mesh import BoundaryCondition, Mesh1D, SubdivisionRule, reference_nodes
from .quadrature import gauss_rule, interpolatory_weights

__all__ = [
    "Problem",
    "SvState",
    "Reconstruction",
    "SpatialOperator",
    "BandedOperator",
    "reconstruct",
    "apply_L",
    "project_initial",
    "error_norms",
    "snapshot_table",
    "materialize_operator",
]

_COND_LIMIT = 1e12
NEGLIGIBLE = 2.0 ** -60    # row-sum norm below which a composed map's outer block is dropped


@dataclass
class Problem:
    """A scalar conservation law u_t + (alpha(x) u)_x = g(x, t) on the mesh domain.

    ``source(x, t)`` may be called with an array t of several times that
    broadcasts against x (the solver passes x with a trailing unit axis and a
    1-D t); a result without the time axis is broadcast over it.
    """

    u0: Callable[[np.ndarray], np.ndarray]
    alpha: Optional[Callable[[np.ndarray], np.ndarray]] = None  # None: constant 1
    source: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    u_exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def alpha_values(self, x: np.ndarray) -> np.ndarray:
        if self.alpha is None:
            return np.ones_like(x)
        return np.array(self.alpha(x), dtype=float)  # a copy: callers may write to it


@dataclass
class SvState:
    """Control-volume integrals of u_h: values[i, j] = integral over C_{i,j}."""

    mesh: Mesh1D
    k: int
    values: np.ndarray  # (N, k+1)
    t: float = 0.0

    def __post_init__(self):
        expected = (self.mesh.n_elements, self.k + 1)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")

    @property
    def total_mass(self) -> float:
        return float(self.values.sum())


@dataclass
class Reconstruction:
    """Per-element Legendre coefficients of u_h on the reference element."""

    mesh: Mesh1D
    coeffs: np.ndarray  # (N, k+1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _VariantOps:
    """Reference tables of all elements with the same reference nodes, built once
    per process for each (rule, k, left_oriented) by ``_variant``, so read-only."""

    def __init__(self, rule: SubdivisionRule, k: int, left_oriented: bool):
        self.rule = rule
        self.left_oriented = left_oriented
        self.y = y = reference_nodes(rule, k, left_oriented)
        self.mass = _read_only(mass_matrix(y))
        if np.linalg.cond(self.mass) > _COND_LIMIT:
            raise RuntimeError("CV mass matrix is numerically singular")
        self.mass_inv = _read_only(np.linalg.inv(self.mass))
        self.trace = _read_only(legendre_vandermonde(y, k))  # (k+2, k+1), values at CV bounds
        # CV integrals -> values at the CV bounds, on an element of length 2
        self.trace_map = _read_only(self.trace @ self.mass_inv)
        gy, gw = gauss_rule(k + 3)
        # per-CV quadrature in element coordinates: (k+1, k+3)
        mid = 0.5 * (y[:-1] + y[1:])
        half = 0.5 * np.diff(y)
        self.quad_y = _read_only(mid[:, None] + half[:, None] * gy[None, :])
        self.quad_w = _read_only(half[:, None] * gw[None, :])  # weights on the reference element
        self.quad_basis = _read_only(legendre_vandermonde(self.quad_y, k))

    @cached_property
    def source_map(self) -> np.ndarray:
        """Values at the k+3 element Gauss points -> CV integrals of their
        degree-(k+2) interpolant, on an element of length 2: (k+1, k+3).

        Built on first use, since only operators with a source need it.
        """
        q = len(self.y) + 1
        gy, _ = gauss_rule(q)
        return _read_only(np.diff(antiderivative_values(self.y, q - 1), axis=0) @
                          np.linalg.inv(legendre_vandermonde(gy, q - 1)))

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Reference weights A_0..A_{k+1} at the CV bounds, mirrored on left-Radau elements."""
        base = SubdivisionRule.LSV if self.rule == SubdivisionRule.LSV else SubdivisionRule.RRSV
        w = interpolatory_weights(base, len(self.y) - 2).weights
        return _read_only(w[::-1] if self.left_oriented else w)

    @cached_property
    def interp_inv(self) -> np.ndarray:
        """Values at the interpolation nodes y_1..y_{k+1} -> Legendre coefficients."""
        return _read_only(np.linalg.inv(self.trace[1:]))


_shared_variant = lru_cache(maxsize=None)(_VariantOps)  # keyed on (rule, k, left_oriented)


def _variant(rule, k: int, left_oriented: bool) -> _VariantOps:
    """The process-wide ``_VariantOps``, under a key normalised to (enum, int, bool);
    a right-oriented ``RSV_ADAPTIVE`` element has the nodes of, and shares, ``RRSV``'s."""
    rule, left_oriented = SubdivisionRule(rule), bool(left_oriented)
    if rule == SubdivisionRule.RSV_ADAPTIVE and not left_oriented:
        rule = SubdivisionRule.RRSV
    return _shared_variant(rule, int(k), left_oriented)


class _MeshWorkspace:
    """Per-mesh cache: the shared variant tables of each element, stacked on first use."""

    def __init__(self, mesh: Mesh1D):
        flags, self.element_variant = np.unique(mesh.left_oriented, return_inverse=True)
        self.variants = [_variant(mesh.rule, mesh.k, f) for f in flags]
        self._tables: dict[str, np.ndarray] = {}

    def table(self, name: str) -> np.ndarray:
        """The named ``_VariantOps`` table of every element: shape (N, ...), read-only."""
        stacked = self._tables.get(name)
        if stacked is None:
            tables = [getattr(ops, name) for ops in self.variants]
            if len(tables) == 1:  # a view of the shared table, itself read-only
                stacked = np.broadcast_to(tables[0], self.element_variant.shape + tables[0].shape)
            else:
                stacked = _read_only(np.stack(tables)[self.element_variant])
            self._tables[name] = stacked
        return stacked


_workspaces: "weakref.WeakKeyDictionary[Mesh1D, _MeshWorkspace]" = weakref.WeakKeyDictionary()


def workspace(mesh: Mesh1D) -> _MeshWorkspace:
    ws = _workspaces.get(mesh)
    if ws is None:
        ws = _MeshWorkspace(mesh)
        _workspaces[mesh] = ws
    return ws


def reconstruct(state: SvState) -> Reconstruction:
    """Recover per-element Legendre coefficients from CV integrals."""
    return Reconstruction(state.mesh, _coefficients(state.mesh, state.values))


def _coefficients(mesh: Mesh1D, values: np.ndarray) -> np.ndarray:
    return np.einsum("imj,ij->im", workspace(mesh).table("mass_inv"),
                     values * (2.0 / mesh.lengths)[:, None])


def _require_finite(**values: float) -> None:
    """Raise ValueError naming every value if any of them is NaN or infinite."""
    if not all(np.isfinite(v) for v in values.values()):
        got = ", ".join(f"{name}={v}" for name, v in values.items())
        raise ValueError(f"{' and '.join(values)} must be finite, got {got}")


def _band_product(x: np.ndarray, x_offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The blocks of XY from X's blocks x (R, k+1, len(x_offsets), k+1) and Y's rows
    (R', k+1, W(k+1)), from offset x_offsets[0] + (Y's first offset) on.

    R and R' are 1 (one row that every element shares) or N; the product has
    max(R, R') rows, so a product of one-row bands is one element's matmuls.
    """
    n = max(len(x), len(rows))
    x = np.broadcast_to(x, (n,) + x.shape[1:])
    rows = np.broadcast_to(rows, (n,) + rows.shape[1:])
    _, k1, wk = rows.shape
    width = wk // k1
    q = np.zeros((n, k1, len(x_offsets) + width - 1, k1))
    product = np.empty(rows.shape)
    for j, o in enumerate(x_offsets):
        # block o of X acts on element (i + o) mod N: Y's rows are shifted by
        # two slices, so no shifted copy of the band is made
        m = n - o % n
        np.matmul(x[:m, :, j], rows[n - m:], out=product[:m])
        np.matmul(x[m:, :, j], rows[:n - m], out=product[m:])
        q[:, :, j:j + width] += product.reshape(n, k1, width, k1)
    return q


class BandedOperator:
    """A linear map on the CV integrals, as per-element blocks over a span of neighbours.

    Row block i is sum_o B[i, o] v_{(i+o) mod N} over the explicit ``offsets``,
    not symmetric in general: only the span from the first to the last offset
    whose block's row-sum norm exceeds ``negligible`` (0: is nonzero) on some
    element is kept (a NaN block counts), and always 0.  The blocks are stored
    in ``row_blocks`` as one (k+1, len(offsets)(k+1)) row when every element's
    row is bit-identical (a uniform mesh with a constant coefficient), else as
    one row per element; ``blocks`` is the read-only (N, ...) view of either.
    A gather index into ``values.ravel()`` reads each element's neighbours;
    offsets are taken mod N only by the gather, so when the span is wider than
    the mesh aliased columns accumulate.
    """

    def __init__(self, blocks: np.ndarray, offsets: np.ndarray, negligible: float = 0.0):
        n, k1, _, _ = blocks.shape  # blocks[i, :, j, :] = B[i, offsets[j]]
        # a stride-0 view (a product of one-row bands) repeats one row by construction
        if blocks.strides[0] == 0 or (blocks == blocks[:1]).all():
            blocks = blocks[:1]
        norms = np.abs(blocks).sum(axis=3).max(axis=(0, 1))
        live = np.flatnonzero(~(norms <= negligible) | (offsets == 0))
        span = slice(live[0], live[-1] + 1)
        self.offsets = offsets[span]
        width = len(self.offsets)
        self.row_blocks = np.ascontiguousarray(blocks[:, :, span]).reshape(-1, k1, width * k1)
        self.blocks = np.broadcast_to(self.row_blocks, (n, k1, width * k1))
        elements = (np.arange(n)[:, None] + self.offsets[None, :]) % n
        self.gather = (elements[:, :, None] * k1 + np.arange(k1)).reshape(n, width * k1)

    def compose(self, other: BandedOperator) -> BandedOperator:
        """X + Y + XY, X this map and Y ``other``: the increment map of (I + X)(I + Y).

        The identity never enters, so every term stays the size of an
        increment.  The outer blocks with a row-sum norm <= ``NEGLIGIBLE`` on
        every element are dropped; each would add at most 2^-60 max|u| to an
        increment.  Offsets stay integers, as in ``SpatialOperator.polynomial``.
        """
        n, k1, _ = self.blocks.shape
        wx, wy = len(self.offsets), len(other.offsets)
        x = self.row_blocks.reshape(-1, k1, wx, k1)
        q = _band_product(x, self.offsets, other.row_blocks)
        # q starts at the sum of the two first offsets, each <= 0
        x0, y0 = -other.offsets[0], -self.offsets[0]
        q[:, :, x0:x0 + wx] += x
        q[:, :, y0:y0 + wy] += other.row_blocks.reshape(-1, k1, wy, k1)
        return BandedOperator(np.broadcast_to(q, (n,) + q.shape[1:]),
                              np.arange(q.shape[2]) - x0 - y0, negligible=NEGLIGIBLE)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The map applied to CV integrals of shape (N, k+1)."""
        gathered = values.ravel()[self.gather]
        if len(self.row_blocks) == 1:  # one GEMM with the row every element shares
            return gathered @ self.row_blocks[0].T
        return np.einsum("nij,nj->ni", self.row_blocks, gathered)

    def apply_columns(self, columns: np.ndarray) -> np.ndarray:
        """The map applied to each column of an (N(k+1), K) stack of ``values.ravel()``."""
        return (self.row_blocks @ columns[self.gather]).reshape(columns.shape)

    def dense(self) -> np.ndarray:
        """The (N(k+1), N(k+1)) matrix of the map, acting on ``values.ravel()``."""
        n, k1, _ = self.blocks.shape
        mat = np.zeros((n * k1, n * k1))
        rows = np.arange(n * k1).reshape(n, k1, 1)
        np.add.at(mat, (rows, self.gather[:, None, :]), self.blocks)  # accumulates aliases
        return mat


class SpatialOperator:
    """The affine tendency ``L u + Q g(t)``, assembled once for a (mesh, problem) pair.

    L is a ``BandedOperator`` acting on the CV integrals of each element and
    its two neighbours, [v_{i-1}, v_i, v_{i+1}], less a neighbour that is
    upwind of no element (with alpha >= 0, L reads only -1..0); Q maps the
    source at one (k+3)-point Gauss rule per element to the CV integrals of
    its degree-(k+2) interpolant.
    """

    def __init__(self, mesh: Mesh1D, problem: Problem):
        self.mesh = mesh
        self.problem = problem
        ws = workspace(mesh)
        n, k1 = mesh.n_elements, mesh.k + 1
        half_h = 0.5 * mesh.lengths
        # traces[i] maps the CV integrals of element i to u_h at its k+2 CV bounds
        traces = ws.table("trace_map") / half_h[:, None, None]
        a_if = problem.alpha_values(mesh.boundaries)
        periodic = mesh.bc == BoundaryCondition.PERIODIC
        if periodic:
            a_if[-1] = a_if[0]
        # upwind split alpha = alpha^+ + alpha^-: the interface flux is
        # alpha^+ u^- + alpha^- u^+, so exactly one trace enters it
        a_plus = np.where(a_if >= 0.0, a_if, 0.0)[:, None]
        a_minus = a_if[:, None] - a_plus
        # flux rows at the CV bounds that element i's own trace carries; interior
        # CV faces need no upwinding because the trace is single-valued there
        own = np.empty((n, k1 + 1, k1))
        own[:, 0] = a_minus[:-1] * traces[:, 0]
        own[:, 1:-1] = problem.alpha_values(mesh.cv_bounds[:, 1:-1])[:, :, None] * traces[:, 1:-1]
        own[:, -1] = a_plus[1:] * traces[:, -1]
        # interface fluxes carried by the neighbours' traces
        left = a_plus[:-1] * np.roll(traces[:, -1], 1, axis=0)
        right = a_minus[1:] * np.roll(traces[:, 0], -1, axis=0)
        if not periodic:
            left[0] = 0.0     # zero inflow states outside the domain
            right[-1] = 0.0
        blocks = np.zeros((n, k1, 3, k1))
        blocks[:, 0, 0] = left
        blocks[:, :, 1] = own[:, :-1] - own[:, 1:]
        blocks[:, -1, 2] = -right
        self.L = BandedOperator(blocks, np.arange(-1, 2))
        if problem.source is not None:
            gy, _ = gauss_rule(mesh.k + 3)
            self.source_points = mesh.centers[:, None] + half_h[:, None] * gy[None, :]
            self.source_map = half_h[:, None, None] * ws.table("source_map")

    def tendency(self, values: np.ndarray, t: float) -> np.ndarray:
        """d/dt of the CV integrals at time t: ``L.apply(values) + source_integrals(t)``."""
        out = self.L.apply(values)
        if self.problem.source is not None:
            out += self.source_integrals(t)
        return out

    def polynomial(self, coeffs, tau: float = 1.0) -> BandedOperator:
        """sum_j coeffs[j] (tau L)^j, multiplied out by Horner's rule in tau L.

        Each factor tau L adds L's offsets to the span, so a degree-d
        polynomial of an L over -1..1 has blocks at the offsets -d..d, and of
        a one-sided L over -1..0 at -d..0.  The offsets stay integers until
        the gather takes them mod N: on a mesh narrower than the span the
        aliased columns then accumulate, and on an INFLOW_ZERO mesh every
        path through a domain end meets a zero edge block of L.
        """
        n, k1 = self.mesh.n_elements, self.mesh.k + 1
        l_offsets = self.L.offsets
        tau_l = tau * self.L.row_blocks.reshape(-1, k1, len(l_offsets), k1)
        eye = np.eye(k1)
        p = np.zeros((1, k1, 1, k1))  # one row until a per-element L enters
        p[:, :, 0] = coeffs[-1] * eye
        low = 0  # the lowest offset of p
        for c in coeffs[-2::-1]:
            p = _band_product(tau_l, l_offsets, p.reshape(len(p), k1, -1))
            low += l_offsets[0]
            p[:, :, -low] += c * eye
        return BandedOperator(np.broadcast_to(p, (n,) + p.shape[1:]), low + np.arange(p.shape[2]))

    def increment_map(self, s: int, tau: float) -> BandedOperator:
        """A = P_s(tau L) - I, P_s(z) = sum_{j<=s} z^j/j!: the source-free
        increment of one s-stage linear SSP step of length tau, which is
        ``polynomial`` with the Taylor coefficients 1/j!."""
        _require_finite(tau=tau)
        return self.polynomial([0.0] + [1.0 / factorial(j) for j in range(1, s + 1)], tau)

    def source_integrals(self, t) -> np.ndarray:
        """CV integrals of the source g(., t); the problem must have a source.

        One time gives shape (N, k+1); a 1-D array of T times gives
        (N, k+1, T) from a single ``source`` call.
        """
        times = np.asarray(t, dtype=float)
        x = self.source_points[..., None]
        g = np.asarray(self.problem.source(x, times.reshape(-1)), dtype=float)
        g = np.broadcast_to(g, x.shape[:-1] + (times.size,))
        return (self.source_map @ g).reshape(self.source_map.shape[:2] + times.shape)


def apply_L(state: SvState, problem: Problem, t: float | None = None) -> np.ndarray:
    """Tendency of the CV integrals at stage time t (defaults to state.t)."""
    op = SpatialOperator(state.mesh, problem)
    return op.tendency(state.values, state.t if t is None else t)


def project_initial(problem: Problem, mesh: Mesh1D, k: int) -> SvState:
    """CV integrals of u0 by (k+3)-point Gauss quadrature per control volume.

    The rules are mapped from the reference element, x = center + (h/2) y, so
    a CV width is (h/2) times a reference width rather than a difference of
    two physical coordinates, which would lose digits to the size of |x|.
    """
    if k != mesh.k:
        raise ValueError(f"k={k} does not match mesh.k={mesh.k}")
    ws = workspace(mesh)
    half_h = 0.5 * mesh.lengths[:, None, None]
    x = mesh.centers[:, None, None] + half_h * ws.table("quad_y")
    w = half_h * ws.table("quad_w")
    vals = np.asarray(problem.u0(x), dtype=float)
    return SvState(mesh, k, np.einsum("ijq,ijq->ij", vals, w), 0.0)


def error_norms(state: SvState, problem: Problem, t: float | None = None) -> tuple[float, float]:
    """(L2, Linf) error against problem.u_exact at time t."""
    if problem.u_exact is None:
        raise ValueError("problem has no exact solution")
    t = state.t if t is None else t
    mesh = state.mesh
    ws = workspace(mesh)
    coeffs = _coefficients(mesh, state.values)
    half_h = 0.5 * mesh.lengths[:, None]
    xq = mesh.centers[:, None, None] + half_h[:, :, None] * ws.table("quad_y")
    err = np.einsum("im,ijqm->ijq", coeffs, ws.table("quad_basis")) - \
        np.asarray(problem.u_exact(xq, t), dtype=float)
    l2_sq = float(np.sum(err * err * ws.table("quad_w") * half_h[:, :, None]))
    # Linf samples: 20 even points and the CV bounds of each element
    even = np.linspace(-1.0, 1.0, 20)
    us = np.concatenate([coeffs @ legendre_vandermonde(even, mesh.k).T,
                         np.einsum("ijm,im->ij", ws.table("trace"), coeffs)], axis=1)
    xs = np.concatenate([mesh.centers[:, None] + half_h * even, mesh.cv_bounds], axis=1)
    linf = float(np.max(np.abs(us - problem.u_exact(xs, t))))
    return float(np.sqrt(l2_sq)), linf


def snapshot_table(state: SvState, points_per_element: int = 8) -> str:
    """Plain-text (x, u_h(x)) records sampled uniformly inside each element."""
    if points_per_element < 2:
        raise ValueError("need at least 2 sample points per element")
    recon = reconstruct(state)
    mesh = state.mesh
    y = np.linspace(-1.0, 1.0, points_per_element)
    basis = legendre_vandermonde(y, mesh.k)
    lines = ["# x u_h"]
    for i in range(mesh.n_elements):
        xs = mesh.centers[i] + 0.5 * mesh.lengths[i] * y
        us = basis @ recon.coeffs[i]
        lines.extend(f"{x:.15g} {u:.15g}" for x, u in zip(xs, us))
    return "\n".join(lines)


def materialize_operator(mesh: Mesh1D, problem: Problem) -> np.ndarray:
    """Dense matrix of the linear part of the tendency (source excluded)."""
    return SpatialOperator(mesh, problem).L.dense()
