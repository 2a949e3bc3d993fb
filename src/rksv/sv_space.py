"""The spatial side of the SV scheme: reconstruction, upwind fluxes, residuals.

The unknowns are control-volume integrals I_{i,j} of a piecewise degree-k
polynomial; the tendency of each I_{i,j} is the flux difference across its
control volume plus the source integral, assembled once per (mesh, problem)
as ``L I + Q g`` (``SpatialOperator``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import legint, legvander

from .mesh import BoundaryCondition, Mesh1D, SubdivisionRule, reference_nodes
from .quadrature import gauss_rule, interpolatory_weights

__all__ = [
    "Problem",
    "SvState",
    "SpatialOperator",
    "BandedOperator",
    "reconstruct",
    "project_initial",
    "error_norms",
    "snapshot_table",
]

_COND_LIMIT = 1e12
NEGLIGIBLE = 2.0 ** -60    # row-sum norm below which a composed map's outer block is dropped
_PRODUCT_FLOATS = 1 << 17  # floats that one chunk of a band product's elements may hold


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
        return np.array(np.broadcast_to(self.alpha(x), np.shape(x)), dtype=float)  # a writable copy


@dataclass
class SvState:
    """Control-volume integrals of u_h: values[i, j] = integral over C_{i,j}."""

    mesh: Mesh1D
    values: np.ndarray  # (N, mesh.k+1)
    t: float = 0.0

    def __post_init__(self):
        expected = (self.mesh.n_elements, self.mesh.k + 1)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")

    @property
    def k(self) -> int:
        return self.mesh.k

    @property
    def total_mass(self) -> float:
        return float(self.values.sum())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _cv_integrals(y: np.ndarray, degree: int) -> np.ndarray:
    """M[j, m] = integral of L_m over [y_j, y_{j+1}] for m = 0..degree: differences of
    antiderivatives, whose constant of integration cancels."""
    return np.diff(legvander(y, degree + 1) @ legint(np.eye(degree + 1), axis=0), axis=0)


class _VariantOps:
    """Reference tables of all elements with the same reference nodes, built once
    per process for each (rule, k, left_oriented) by ``_variant``, so read-only."""

    def __init__(self, rule: SubdivisionRule, k: int, left_oriented: bool):
        self.rule = rule
        self.left_oriented = left_oriented
        self.y = y = reference_nodes(rule, k, left_oriented)
        self.mass = _read_only(_cv_integrals(y, k))
        if np.linalg.cond(self.mass) > _COND_LIMIT:
            raise RuntimeError("CV mass matrix is numerically singular")
        self.mass_inv = _read_only(np.linalg.inv(self.mass))
        self.trace = _read_only(legvander(y, k))  # (k+2, k+1), values at CV bounds
        # CV integrals -> values at the CV bounds, on an element of length 2
        self.trace_map = _read_only(self.trace @ self.mass_inv)
        gy, gw = gauss_rule(k + 3)
        # per-CV quadrature in element coordinates: (k+1, k+3)
        mid = 0.5 * (y[:-1] + y[1:])
        half = 0.5 * np.diff(y)
        self.quad_y = _read_only(mid[:, None] + half[:, None] * gy[None, :])
        self.quad_w = _read_only(half[:, None] * gw[None, :])  # weights on the reference element
        self.quad_basis = _read_only(legvander(self.quad_y, k))

    @cached_property
    def source_map(self) -> np.ndarray:
        """Values at the k+3 element Gauss points -> CV integrals of their
        degree-(k+2) interpolant, on an element of length 2: (k+1, k+3).

        Built on first use, since only operators with a source need it.
        """
        q = len(self.y) + 1
        gy, _ = gauss_rule(q)
        return _read_only(_cv_integrals(self.y, q - 1) @ np.linalg.inv(legvander(gy, q - 1)))

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Reference weights A_0..A_{k+1} at the CV bounds, mirrored on left-Radau elements."""
        base = SubdivisionRule.LSV if self.rule == SubdivisionRule.LSV else SubdivisionRule.RRSV
        w = interpolatory_weights(base, len(self.y) - 2)
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


def reconstruct(state: SvState) -> np.ndarray:
    """The (N, k+1) reference-element Legendre coefficients of u_h, from the CV integrals."""
    mesh = state.mesh
    return np.einsum("imj,ij->im", workspace(mesh).table("mass_inv"),
                     state.values * (2.0 / mesh.lengths)[:, None])


def _require_finite(**values: float) -> None:
    """Raise ValueError naming every value if any of them is NaN or infinite."""
    if not all(np.isfinite(v) for v in values.values()):
        got = ", ".join(f"{name}={v}" for name, v in values.items())
        raise ValueError(f"{' and '.join(values)} must be finite, got {got}")


def _band_product(x: np.ndarray, x_offsets: np.ndarray, y: np.ndarray,
                  first: int = 0, last: int | None = None,
                  q: np.ndarray | None = None) -> np.ndarray:
    """The blocks of XY at the offsets first..last-1 (by default all), counted
    from x_offsets[0] + (Y's first offset), from X's blocks x (R, k+1, Wx, k+1)
    and Y's blocks y (R', k+1, Wy, k+1), in the wider of the two dtypes, or
    added into the blocks q.  R and R' are 1 (one row that every element
    shares) or N; the product has max(R, R') rows.

    Row i is X's block row i times the staircase whose block (j, c) is block
    first + c - j of Y's row (i + o_j) mod N, or 0: a strided view of a zero
    buffer holding row r of Y's row (e + o_0) mod N as row e(k+1) + r, shifted
    r columns left, so one batched matmul per chunk of elements forms the rows.
    """
    n, ny = max(len(x), len(y)), len(y)
    _, k1, wx, _ = x.shape
    last = wx + y.shape[2] - 1 if last is None else last
    fresh = q is None
    q = np.zeros((n, k1, last - first, k1), np.result_type(x, y)) if fresh else q
    b0, b1 = max(first - wx + 1, 0), min(last, y.shape[2])  # Y's blocks that reach the span
    width = (last - first) * k1
    row = (wx - 1) * k1 + width + 1  # a buffer row holds every column that a staircase reads
    per = k1 * row + k1 * (b1 - b0) * k1  # buffer and gathered floats per extended element
    chunk = min(max((_PRODUCT_FLOATS - (wx - 1) * per) // (per + k1 * width), 1), ny)
    buffer, u = np.zeros((chunk + wx - 1) * k1 * row, q.dtype), q.itemsize
    out = q.reshape(n, k1, width)  # a view: q's last two axes are contiguous blocks
    x_rows = np.broadcast_to(x.reshape(len(x), k1, wx * k1), (n, k1, wx * k1))
    for i in range(0, ny, chunk):
        e = min(chunk, ny - i) + wx - 1  # the extended elements of elements i .. i + chunk - 1
        np.ndarray((e, k1, b1 - b0, k1), q.dtype, buffer, (wx - 1 - first + b0) * k1 * u,
                   (k1 * row * u, (row - 1) * u, k1 * u, u))[...] = \
            y[(i + x_offsets[0] + np.arange(e)) % ny, :, b0:b1]
        stairs = np.ndarray((e - wx + 1, wx * k1, width), q.dtype, buffer, (wx - 1) * k1 * u,
                            (k1 * row * u, (row - 1) * u, u))
        rows = slice(i, i + chunk) if ny > 1 else slice(None)  # a one-row Y has one staircase
        if fresh:
            np.matmul(x_rows[rows], stairs, out=out[rows])
        else:
            out[rows] += x_rows[rows] @ stairs
    return q


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a + b rounded, its rounding error in place of b): Knuth's TwoSum."""
    s = a + b
    v = s - a
    b -= v
    v -= s  # -(a's part of s)
    v += a
    b += v
    return s, b


def _add(q: np.ndarray, z: np.ndarray) -> None:
    """q += z, blocks (R, rows, ..., k+1) of one kind; a pair's (``BandedOperator``)
    hi rows by TwoSum, whose error goes to the lo rows with z's, renormalised."""
    k1 = q.shape[-1]
    if q.shape[1] == k1:
        q += z
        return
    s, error = _two_sum(z[:, :k1], q[:, :k1])
    q[:, k1:] += error + z[:, k1:]
    q[:, :k1] = _two_sum(s, q[:, k1:])[0]


def _extended_product(x: np.ndarray, x_offsets: np.ndarray, y: np.ndarray,
                      first: int = 0, last: int | None = None) -> np.ndarray:
    """``_band_product`` in (hi, lo) arithmetic: XY as a pair's blocks, to
    about 2^-76 of max|X| |Y| + |X| max|Y|, from float64 or pair blocks x
    and y (y may be x).

    Each is cut into a leading slice Z0, its hi rounded to a multiple of
    2^-beta P (P the least power of two above max|hi|), and a float64 rest
    RZ.  With beta = (53 - ceil(log2 Wx(k+1))) // 2 the Wx(k+1) slice
    products in an entry of X0 Y0 sum exactly in any order (Ozaki, Ogita,
    Oishi & Rump, Numer. Algorithms 59 (2012)): XY = X0 Y0 (the hi rows,
    TwoSum-renormalised) + X0 RY + RX Y (the lo rows).
    """
    k1 = y.shape[3]
    beta = (53 - (len(x_offsets) * k1 - 1).bit_length()) // 2

    def sliced(z):  # [Z0; RZ], formed in place
        out = np.empty(z.shape[:1] + (2 * k1,) + z.shape[2:])
        z0, rest = out[:, :k1], out[:, k1:]
        unit = np.ldexp(1.0, int(np.frexp(np.abs(z[:, :k1]).max())[1]) - beta)
        np.rint(np.divide(z[:, :k1], unit, out=z0), out=z0)
        z0 *= unit
        np.subtract(z[:, :k1], z0, out=rest)
        if z.shape[1] > k1:
            rest += z[:, k1:]
        return out

    ys = sliced(y)
    xs = ys if x is y else sliced(x)
    last = len(x_offsets) + y.shape[2] - 1 if last is None else last
    q = np.zeros((max(len(x), len(y)), 2 * k1, last - first, k1))
    _band_product(xs[:, :k1], x_offsets, ys[:, :k1], first, last, q[:, :k1])
    _band_product(xs[:, :k1], x_offsets, ys[:, k1:], first, last, q[:, k1:])
    _band_product(xs[:, k1:], x_offsets, ys[:, :k1] + ys[:, k1:], first, last, q[:, k1:])
    q[:, :k1] = _two_sum(q[:, :k1], q[:, k1:])[0]
    return q


class BandedOperator:
    """A linear map on the CV integrals, as per-element blocks over a span of neighbours.

    Row block i is sum_o B[i, o] v_{(i+o) mod N} over the explicit ``offsets``,
    not symmetric in general: only the span from the first to the last offset
    whose block's row-sum norm exceeds ``negligible`` (0: is nonzero) on some
    element is kept (a NaN block counts), and always 0 (``norms``: their
    row-sum norms, maximised over the elements).  ``row_blocks`` holds one
    (k+1, len(offsets)(k+1)) row when every element's row is bit-identical (a
    uniform mesh with a constant coefficient), else one row per element;
    ``_grid`` is it as (R, k+1, len(offsets), k+1), ``blocks`` its (N, ...) view.
    Every product reads each element's neighbours as its window of one
    wrap-padded copy of the values (``_padded_rows``).  Offsets are taken mod
    N only by that index, so when the span is wider than the mesh an element
    meets a neighbour more than once and the aliased columns accumulate.

    Blocks of 2(k+1) rows are a (hi, lo) pair, the map hi + lo of their upper
    and lower k+1 rows, hi its float64 rounding (TwoSum-renormalised), which
    ``apply`` applies as hi v + lo v (``apply_columns`` takes float64 bands).
    """

    def __init__(self, blocks: np.ndarray, offsets: np.ndarray, negligible: float = 0.0):
        n, rows, _, k1 = blocks.shape  # blocks[i, :, j, :] = B[i, offsets[j]]
        # a stride-0 view (a product of one-row bands) repeats one row by construction
        if blocks.strides[0] == 0 or (blocks == blocks[:1]).all():
            blocks = blocks[:1]
        # summed one column at a time, so that no temporary the size of the blocks is made
        norms = sum(np.abs(blocks[..., c]) for c in range(k1)).max(axis=(0, 1))
        live = np.flatnonzero(~(norms <= negligible) | (offsets == 0))
        span = slice(live[0], live[-1] + 1)
        self.offsets, self.norms = offsets[span], norms[span]
        width = len(self.offsets)
        self._grid = _read_only(np.ascontiguousarray(blocks[:, :, span]))
        self.row_blocks = self._grid.reshape(-1, rows, width * k1)
        self.blocks = np.broadcast_to(self.row_blocks, (n, rows, width * k1))

    def product(self, other: BandedOperator, *plus: BandedOperator) -> BandedOperator:
        """XY + the maps in ``plus`` (within XY's offsets), X this map and Y ``other``.

        Only the span of the offsets o whose bound sum_{a+b=o} |X_a| |Y_b| +
        sum |Z_o| (``norms``) exceeds ``NEGLIGIBLE`` (or is NaN), and 0, is
        formed; of it the outer blocks with a row-sum norm <= ``NEGLIGIBLE`` on
        every element are dropped, each adding at most 2^-60 max|u| to an
        increment.  Offsets stay integers, as in ``SpatialOperator.polynomial``.
        Where Y and the Z are pairs, XY + Z is one (``_extended_product``);
        else X's hi rows make a float64 XY + Z.
        """
        low = self.offsets[0] + other.offsets[0]
        bound = np.convolve(self.norms, other.norms)
        for z in plus:
            bound[z.offsets - low] += z.norms
        # (1 - 1e-12) covers the rounding of the bound against the formed blocks'
        live = np.flatnonzero(~(bound <= NEGLIGIBLE * (1.0 - 1e-12)))
        first, last = live.min(initial=-low), live.max(initial=-low) + 1
        k1 = self._grid.shape[3]
        q = (_extended_product(self._grid, self.offsets, other._grid, first, last)
             if other._grid.shape[1] > k1 else
             _band_product(self._grid[:, :k1], self.offsets, other._grid, first, last))
        for z in plus:  # offsets are consecutive: z's block j lands at z.offsets[0] - low + j
            at = z.offsets[0] - low - first
            lo, hi = max(-at, 0), min(last - first - at, len(z.offsets))
            _add(q[:, :, at + lo:at + hi], z._grid[:, :, lo:hi])
        return BandedOperator(np.broadcast_to(q, (len(self.blocks),) + q.shape[1:]),
                              low + first + np.arange(last - first), negligible=NEGLIGIBLE)

    def compose(self, other: BandedOperator) -> BandedOperator:
        """X + Y + XY (``product``), X this map and Y ``other``: the increment map
        of (I + X)(I + Y), in which every term stays the size of an increment."""
        return self.product(other, self, other)

    @cached_property
    def _padded_rows(self) -> np.ndarray:
        """The index of the values' wrap-padded copy, built on first use
        (intermediate bands are never applied): the rows, mod N(k+1), from the
        first element's first neighbour to the last element's last, so element
        i's neighbours are rows i(k+1) .. i(k+1) + W(k+1) - 1 of it."""
        n, k1 = len(self.blocks), self._grid.shape[3]
        return np.arange(self.offsets[0] * k1, (n + self.offsets[-1]) * k1) % (n * k1)

    def _windows(self, columns: np.ndarray) -> np.ndarray:
        """The (N, W(k+1), ...) neighbour windows of ``columns`` (N(k+1) rows):
        a strided view of one wrap-padded copy in which each element's window
        overlaps its neighbours', so no gathered copy is made."""
        n, wk, k1 = len(self.blocks), self.blocks.shape[2], self._grid.shape[3]
        padded = columns[self._padded_rows]
        return np.ndarray((n, wk) + padded.shape[1:], padded.dtype, padded, 0,
                          (k1 * padded.strides[0],) + padded.strides)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The map applied to CV integrals of shape (N, k+1)."""
        windows = self._windows(values.ravel())
        if len(self.row_blocks) == 1:  # one matmul with the row every element shares
            out = windows @ self.row_blocks[0].T
        else:
            out = np.matmul(self.row_blocks, windows[..., None])[..., 0]
        k1 = values.shape[1]
        return out if out.shape[1] == k1 else out[:, :k1] + out[:, k1:]

    def apply_columns(self, columns: np.ndarray) -> np.ndarray:
        """The map applied to each column of an (N(k+1), K) stack of ``values.ravel()``."""
        return (self.row_blocks @ self._windows(columns)).reshape(columns.shape)

    def dense(self) -> np.ndarray:
        """The (N(k+1), N(k+1)) matrix of the map, acting on ``values.ravel()``."""
        return self.apply_columns(np.eye(len(self.blocks) * self._grid.shape[3]))


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
        a product's wrap-padded index takes them mod N: on a mesh narrower
        than the span the aliased columns then accumulate, and on an
        INFLOW_ZERO mesh every path through a domain end meets a zero edge
        block of L.  The blocks take the widest dtype of tau, the coefficients
        and L's float64; (hi, lo) coefficients make a pair (``BandedOperator``).
        """
        n, k1 = self.mesh.n_elements, self.mesh.k + 1
        l_offsets = self.L.offsets
        tau_l = tau * self.L._grid
        # each coefficient times I, as (1, k+1, k+1) blocks, 2(k+1) rows for a pair
        eyes = [np.multiply.outer(c, np.eye(k1)).reshape(1, -1, k1) for c in coeffs]
        product = _band_product if eyes[0].shape[1] == k1 else _extended_product
        # one row until a per-element L enters
        p = np.zeros((1, eyes[0].shape[1], 1, k1), np.result_type(tau_l, *eyes))
        p[:, :, 0] = eyes[-1]
        low = 0  # the lowest offset of p
        for c in eyes[-2::-1]:
            p = product(tau_l, l_offsets, p)
            low += l_offsets[0]
            _add(p[:, :, -low], c)
        return BandedOperator(np.broadcast_to(p, (n,) + p.shape[1:]), low + np.arange(p.shape[2]))

    def increment_map(self, s: int, tau: float) -> BandedOperator:
        """A = P_s(tau L) - I, P_s(z) = sum_{j<=s} z^j/j!: the source-free
        increment of one s-stage linear SSP step of length tau, which is
        ``polynomial`` with the Taylor coefficients 1/j!, rounded to float64."""
        _require_finite(tau=tau)
        return self.polynomial([0.0] + [1.0 / factorial(j) for j in range(1, s + 1)], tau)

    def extended_increment_map(self, s: int, tau: float) -> BandedOperator:
        """``increment_map`` as a pair: the exact L, the (hi, lo) of the exact tau^j/j!."""
        taylor = [Fraction(tau) ** j / factorial(j) for j in range(1, s + 1)]
        return self.polynomial([(0.0, 0.0)] + [(float(c), float(c - Fraction(float(c))))
                                               for c in taylor])

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
    vals = np.ascontiguousarray(np.broadcast_to(problem.u0(x), x.shape), dtype=float)
    return SvState(mesh, np.einsum("ijq,ijq->ij", vals, w), 0.0)


def error_norms(state: SvState, problem: Problem, t: float | None = None) -> tuple[float, float]:
    """(L2, Linf) error against problem.u_exact at time t."""
    if problem.u_exact is None:
        raise ValueError("problem has no exact solution")
    t = state.t if t is None else t
    mesh = state.mesh
    ws = workspace(mesh)
    coeffs = reconstruct(state)
    half_h = 0.5 * mesh.lengths[:, None]
    xq = mesh.centers[:, None, None] + half_h[:, :, None] * ws.table("quad_y")
    err = np.einsum("im,ijqm->ijq", coeffs, ws.table("quad_basis")) - \
        np.asarray(problem.u_exact(xq, t), dtype=float)
    l2_sq = float(np.sum(err * err * ws.table("quad_w") * half_h[:, :, None]))
    # Linf samples: 20 even points and the CV bounds of each element
    even = np.linspace(-1.0, 1.0, 20)
    us = np.concatenate([coeffs @ legvander(even, mesh.k).T,
                         np.einsum("ijm,im->ij", ws.table("trace"), coeffs)], axis=1)
    xs = np.concatenate([mesh.centers[:, None] + half_h * even, mesh.cv_bounds], axis=1)
    linf = float(np.max(np.abs(us - problem.u_exact(xs, t))))
    return float(np.sqrt(l2_sq)), linf


def snapshot_table(state: SvState, points_per_element: int = 8) -> str:
    """Plain-text (x, u_h(x)) records sampled uniformly inside each element."""
    if points_per_element < 2:
        raise ValueError("need at least 2 sample points per element")
    coeffs = reconstruct(state)
    mesh = state.mesh
    y = np.linspace(-1.0, 1.0, points_per_element)
    basis = legvander(y, mesh.k)
    lines = ["# x u_h"]
    for i in range(mesh.n_elements):
        xs = mesh.centers[i] + 0.5 * mesh.lengths[i] * y
        us = basis @ coeffs[i]
        lines.extend(f"{x:.15g} {u:.15g}" for x, u in zip(xs, us))
    return "\n".join(lines)
