"""SSP Runge-Kutta tableaus (exact rationals) and the time-stepping loop.

The s-stage linear SSP step is linear in u and in the source, so every step
is u^{n+1} = u^n + A u^n + f^n.  A = P_s(tau L) - I, P_s(z) = sum_{j<=s}
z^j/j!, is the source-free increment, assembled as per-element banded blocks
(``SpatialOperator.increment_map``) once per run of ``integrate`` for its step
length and once for a shortened last step; the forcing f^n depends only on
the source, not on u.  Without a source every step is the same map, so a long
run without a per-step callback applies m steps at once as u <- u + A_m u,
A_m = P_s(tau L)^m - I built by squaring A, which drops the outer blocks of
row-sum norm <= 2^-60 (``_fusion``, the one squaring ladder of every run).

A step with a source uses its samples at the s times t^n + i*tau,
i = 0..s-1, and stage l of the Shu-Osher chain receives the combination
G_l = sum_i C_s[l][i] G(t^n + i*tau), C_s[l][i] = sum_{q<=l} binom(l, q)
(V^-1)[q][i] with V[i][q] = i^q / q!.  Stage l thereby sees the stage value of
the autonomous system (u, p, tau p', ..., tau^{s-1} p^{(s-1)}), p the
interpolant of the samples, so the step is the degree-s Taylor polynomial of
that system and the scheme stays s-th order in time with a time-dependent
source (Carpenter, Gottlieb, Abarbanel & Don, SIAM J. Sci. Comput. 16
(1995)).  Multiplied out, the source part of that polynomial is

    f^n = tau sum_r (tau L)^r E_r,  E_r = sum_{m<=s-1-r} D_m / (r+m+1)!,

with D_m = tau^m p^{(m)}(t^n) the scaled derivatives of the interpolant, so
E_r = sum_i W[r][i] G(t^n + i*tau) with exact weights W
(``_forcing_weights``).  A sourced step taken on its own, in ``integrate`` or
``rk_step``, takes f from ``_forcings``, which forms it for a block of
consecutive steps at once: one source call for all their sample times, one
small product per step for the E_r, and s-1 products with L by Horner's
rule, each over the whole block.

A sourced run without a callback fuses its full steps too, in groups of m:
u <- u + A_m u + W, W = sum_j P^{m-1-j} f^{n+j} (P = I + A).  Over ~1e5
steps a float64 A_m would lower the k=5 Example 2 order from 5.91 to 5.63,
so A_m is built, squared and applied as a float64 (hi, lo) pair, by
error-free products of leading slices (``BandedOperator``).  Over a group's
samples t^n + theta, 0 <= theta <= (m+s-2) tau, the source is a polynomial
to rounding, sum_{q<=d} c_q y^q in y = 2 theta/(m tau) - 1, so
W = sum_q M_q c_q: the moment maps
M_q = sum_j P^{m-1-j} sum_i F_i y_{j+i}^q (F_i as in ``_forcing``) are the
same for every group, and the same ladder, squaring A_m, doubles them in
float64 (``_fusion``), Van Loan's block-triangular augmentation
(IEEE Trans. Autom. Control 23 (1978)) of the autonomous system above:

    M_q(2m) = 2^-q [P_m sum_r C(q,r) (-1)^(q-r) M_r + sum_r C(q,r) M_r],

from M_q(1) = sum_i F_i (2i-1)^q.  B groups cost (d+2)B source times for
their fits (``_group_steps``) and d+1 products with B columns, whatever m is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import comb, factorial
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .matrix_transfer import MAX_STAGES
from .sv_space import BandedOperator, Problem, SpatialOperator, SvState, _require_finite

__all__ = ["MAX_STAGES", "RkTableau", "ssp_tableau", "rk_step", "step_plan", "integrate"]

BLOCK_STEPS = 32          # full steps whose source forcing is formed together
_BLOCK_FLOATS = 1 << 17   # 1 MiB of float64: the bound on a block's source values
MAX_GROUP = 64            # full steps per fused sourced update at most
MAX_BATCH = 8             # groups whose forced response is formed together at most
FIT_DEGREE = 6            # the least degree of a group's source fit (and at least s-1)
_FIT_TOLERANCE = 2.0 ** -48  # a group's fit residual, over |G| + |t G'|, that steps it
# a sourced level's price c in W(k+1) applications, tuned: a (hi, lo) square costs 2.1-2.8, but
# c also pays the moment ladder past d + 1 (at c = 3, 400- and 600-step runs fused ~3x slower)
_EXTENDED_SQUARE = 16


@dataclass(frozen=True)
class RkTableau:
    """Shu-Osher form of the s-stage linear SSP scheme.

    ``g`` holds rows 0..s-1 of the coefficient triangle; row r is the final
    recombination of the (r+1)-stage method, so the last row drives this
    scheme and every earlier stage is plain forward Euler.
    """

    s: int
    g: tuple[tuple[Fraction, ...], ...]

    @property
    def final_weights(self) -> tuple[Fraction, ...]:
        return self.g[self.s - 1]


@lru_cache(maxsize=None)
def ssp_tableau(s: int) -> RkTableau:
    """Exact coefficients from g_{r,l} = g_{r-1,l-1}/l, g_{r,r} = 1/(r+1)!."""
    if not 1 <= s <= MAX_STAGES:
        raise ValueError(f"s must be in 1..{MAX_STAGES}, got {s}")
    rows = [(Fraction(1),)]
    for r in range(1, s):
        prev = rows[r - 1]
        row = [Fraction(0)] * (r + 1)
        for ell in range(1, r):
            row[ell] = prev[ell - 1] / ell
        row[r] = Fraction(1, factorial(r + 1))
        row[0] = 1 - sum(row[1:])
        rows.append(tuple(row))
    tab = RkTableau(s, tuple(rows))
    final = tab.final_weights
    if final[-1] != Fraction(1, factorial(s)) or sum(final) != 1:
        raise AssertionError("SSP recursion produced an inconsistent row")
    if any(w <= 0 for w in final):
        raise AssertionError(f"non-positive SSP weight at s={s}")
    return tab


@lru_cache(maxsize=None)
def _derivatives_from_samples(s: int) -> tuple[tuple[Fraction, ...], ...]:
    """V^-1 with V[i][q] = i^q / q!, exact.

    V maps the scaled derivatives tau^q p^{(q)}(t) of a degree-(s-1) polynomial
    p to its samples p(t + i*tau), so V^-1, whose column i is q! times the
    coefficients of the Lagrange polynomial of node i, maps them back.
    """
    columns = []
    for i in range(s):
        coeffs = [Fraction(1)]
        for j in (j for j in range(s) if j != i):  # times (x - j) / (i - j)
            coeffs = [(a - j * b) / (i - j) for a, b in zip([0] + coeffs, coeffs + [0])]
        columns.append([factorial(q) * c for q, c in enumerate(coeffs)])
    return tuple(zip(*columns))


@lru_cache(maxsize=None)
def _forcing_weights(s: int, d: int | None = None) -> np.ndarray:
    """W[r][i] = sum_{m<=s-1-r} (V^-1)[m][i] / (r+m+1)!, summed exactly, then rounded.

    E_r = sum_i W[r][i] G(t + i*tau) is the coefficient of tau (tau L)^r in the
    source part of the step.  Given d, the columns are the exact
    sum_i W[r][i] (2i-1)^q, q = 0..d, instead: those of M_q(1).
    """
    v_inv = _derivatives_from_samples(s)
    exact = [[sum(v_inv[m][i] / factorial(r + m + 1) for m in range(s - r)) for i in range(s)]
             for r in range(s)]
    if d is not None:
        exact = [[sum(w * (2 * i - 1) ** q for i, w in enumerate(row)) for q in range(d + 1)]
                 for row in exact]
    weights = np.array(exact, dtype=float)
    weights.flags.writeable = False
    return weights


def _block_steps(op: SpatialOperator) -> int:
    """Steps per forcing block: ``BLOCK_STEPS``, fewer where the source's values
    at the N(k+3) element points of each step would pass ``_BLOCK_FLOATS``."""
    return max(1, min(BLOCK_STEPS, _BLOCK_FLOATS // (op.mesh.n_elements * (op.mesh.k + 3))))


def _forcing(op: SpatialOperator, s: int, tau: float, windows: np.ndarray) -> np.ndarray:
    """sum_i F_i windows[c, i] for each window c, as the columns of an (N(k+1), count) array.

    F_i = sum_r tau^(r+1) W[r][i] L^r, so a window of the source integrals
    G(t + i*tau), i = 0..s-1, gives the forcing of the step from t.
    ``windows`` has shape (count, s, N(k+1)) and may be a strided view; by
    Horner's rule it takes s-1 products with L, each over all the windows.
    """
    weights = _forcing_weights(s) * tau ** np.arange(1, s + 1)[:, None]
    h = np.matmul(weights[s - 1], windows).T
    for r in range(s - 2, -1, -1):
        h = op.L.apply_columns(h)
        h += np.matmul(weights[r], windows).T
    return h


def _forcings(op: SpatialOperator, s: int, t0: float, tau: float, n_steps: int, first: int = 0):
    """Yield the forcing f^n of each step n = first..first+n_steps-1 of length tau from t0.

    The steps are formed in blocks of up to ``_block_steps(op)``.  The block of
    steps j0..j0+count-1 needs G(t0 + j*tau), j = j0..j0+count+s-2.  The first
    s-1 of them are the previous block's last, so every sample time is
    evaluated once, in one source call per block; j is an integer, so a
    sample time does not drift with the step count.
    """
    block = _block_steps(op)
    shape = op.L.blocks.shape[:2]
    window = np.empty((0, shape[0] * shape[1]))
    for j0 in range(first, first + n_steps, block):
        count = min(block, first + n_steps - j0)
        keep = window[len(window) - (s - 1):]
        j = np.arange(j0 + len(keep), j0 + count + s - 1)
        fresh = op.source_integrals(t0 + j * tau)
        window = np.concatenate([keep, fresh.reshape(-1, len(j)).T])
        windows = sliding_window_view(window, s, axis=0).transpose(0, 2, 1)
        yield from np.ascontiguousarray(_forcing(op, s, tau, windows).T).reshape((count,) + shape)


def step_increment(values: np.ndarray, increment: BandedOperator,
                   forcing: np.ndarray | None = None) -> np.ndarray:
    """u^{n+1} - u^n = A u^n + f^n, assembled purely from O(tau) terms.

    ``increment`` is A = P_s(tau L) - I, or P_s(tau L)^m - I for m steps at
    once, and ``forcing`` the source forcing f^n or a group's W (None without
    a source).  Keeping only the increment avoids swallowing it in O(u)-sized
    additions, which matters for runs with ~1e5 steps.
    """
    delta = increment.apply(values)
    if forcing is not None:
        delta += forcing
    return delta


def rk_step(state: SvState, problem: Problem, tableau: RkTableau, tau: float) -> SvState:
    """Advance one step of length tau, sampling the source afresh at t + i*tau
    (``_forcings`` for a single step)."""
    _require_finite(tau=tau)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    op = SpatialOperator(state.mesh, problem)
    s = tableau.s
    forcing = None if problem.source is None else next(_forcings(op, s, state.t, tau, 1))
    delta = step_increment(state.values, op.increment_map(s, tau), forcing)
    return SvState(state.mesh, state.values + delta, state.t + tau)


def step_plan(t0: float, tau: float, t_final: float) -> tuple[int, float]:
    """(number of full steps, length of the shortened last step or 0.0) from t0 to t_final.

    Full step j ends at t0 + (j+1)*tau.  A step is full while at least tau and
    more than the tolerance 1e-14*max(1, |t_final|) remain; what remains after
    the full steps, if more than the tolerance, is one shortened last step.
    """
    tol = 1e-14 * max(1.0, abs(t_final))

    def rest(j):
        return t_final - (t0 + j * tau)

    def full(j):
        return rest(j) > tol and rest(j) >= tau

    # the remaining time falls with j, so the full steps are a prefix 0..n-1
    n = max(0, int((t_final - t0) / tau) - 1)
    while n > 0 and not full(n - 1):
        n -= 1
    while full(n):
        n += 1
    return n, (rest(n) if rest(n) > tol else 0.0)


class _GroupMaps(NamedTuple):
    """A_m as a (hi, lo) pair band, and the moment maps M_q."""

    a: BandedOperator
    moments: list[BandedOperator]


def _combination(bands: list[BandedOperator], weights: np.ndarray) -> BandedOperator:
    """sum_r weights[r] bands[r], on the union of their (consecutive) offsets."""
    low, k1 = min(band.offsets[0] for band in bands), bands[0]._grid.shape[1]
    grid = np.zeros((max(len(band.row_blocks) for band in bands), k1,
                     max(band.offsets[-1] for band in bands) - low + 1, k1))
    for band, weight in zip(bands, weights):
        grid[:, :, band.offsets[0] - low:band.offsets[-1] - low + 1] += weight * band._grid
    return BandedOperator(np.broadcast_to(grid, (len(bands[0].blocks),) + grid.shape[1:]),
                          low + np.arange(grid.shape[2]))


def _fusion(op: SpatialOperator, s: int, tau: float, one: BandedOperator,
            n_full: int) -> tuple[int, BandedOperator | _GroupMaps]:
    """(m, maps): the full steps per fused application in a run of n_full steps
    whose one-step map is ``one``, and their maps: A_m = P_s(tau L)^m - I
    without a source, the ``_GroupMaps`` with one; (1, one) where not fused.

    A level squares A_m (``compose``; with a source, the (hi, lo) pair of
    ``extended_increment_map``) and, with a source, doubles each M_q(1)
    (``polynomial``) by a float64 ``product`` with float64(A_m), in place
    from the top.  It costs about (c + d + 1) W(k+1) applications of A_m, W
    its offsets and c = 1 for a float64 square (with a source the tuned
    ``_EXTENDED_SQUARE``, which covers a pair's square and the moment ladder's
    cost past d + 1), and a group about 2(d+2) (one without a source, where
    d + 1 = 0), so m doubles while the groups of 2m outnumber that ratio and
    the squared band is narrower than the mesh, so that no column aliases.
    At tau = O(h^e), e > 1, the trimmed W grows far slower than m.  The
    source fit adds limits: 2m <= ``MAX_GROUP`` and m >= the least power of
    two >= d+2 (where a group's source times cost less than its steps') in
    a run that repays a level there.
    """
    sourced = op.problem.source is not None
    d = max(FIT_DEGREE, s - 1) if sourced else -1
    square, group = (_EXTENDED_SQUARE, 2 * d + 4) if sourced else (1, 1)
    # the groups that repay a level, per offset of the band it squares
    rate = (square + d + 1) * (op.mesh.k + 1) / group
    m, band, moments, top = 1, one, [], n_full
    if sourced:
        least = 1 << (d + 1).bit_length()
        if n_full // least <= rate * len(one.offsets):
            return 1, one
        band, top = op.extended_increment_map(s, tau), MAX_GROUP
        moments = [op.polynomial(tau * weights, tau) for weights in _forcing_weights(s, d).T]
        # the halves of a doubled group: M_q(2m) = sum_r (P_m first[r][q] + second[r][q]) M_r(m)
        second = np.array([[comb(q, r) * 2.0 ** -q for q in range(d + 1)] for r in range(d + 1)])
        first = second * (-1.0) ** np.add.outer(np.arange(d + 1), np.arange(d + 1))
    while 2 * m <= top and n_full // (2 * m) > rate * len(band.offsets):
        doubled = band.compose(band)
        if len(doubled.offsets) >= op.mesh.n_elements:
            break
        if sourced:
            for q in range(d, -1, -1):  # M_q(2m) reads only M_r(m), r <= q
                halves = first[:q + 1, q], (first + second)[:q + 1, q]
                moments[q] = band.product(*(_combination(moments[:q + 1], h) for h in halves))
        band, m = doubled, 2 * m
    if not sourced:
        return m, band
    return (m, _GroupMaps(band, moments)) if m >= least else (1, one)


def _group_steps(op: SpatialOperator, s: int, t0: float, tau: float, one: BandedOperator,
                 maps: _GroupMaps, m: int, n_full: int):
    """Yield (map, full steps, forcing) for the n_full steps of length tau from
    t0: the groups of m steps, then the n_full mod m steps left one at a time.

    Up to ``MAX_BATCH`` groups share one source call at their first step time
    t^n and at t^n + z_p tau, z_p the d+1 Chebyshev nodes of their m+s-2 steps.
    The fit c = V^-1 G (V[p][q] = y_p^q) is of the samples less the first, so
    its rounding scales with their spread.  A group whose fit misses the first
    by more than ``_FIT_TOLERANCE`` (|G| + |t G'|), the samples' own rounding
    over eps, takes its m steps one at a time.
    """
    span, q = m + s - 2, np.arange(len(maps.moments))
    z = span / 2 * (1.0 - np.cos(np.pi * (2 * q + 1) / (2 * len(q))))
    v = (2 * z.astype(np.longdouble) / m - 1)[:, None] ** q
    inverse = np.linalg.inv(v.astype(np.float64))
    for _ in range(2):  # Newton steps X <- X + X (I - V X), the residual in np.longdouble
        inverse = (inverse + inverse @ (np.eye(len(v)) - v @ inverse)).astype(np.float64)
    at_first = (-1.0) ** q @ inverse  # the fit at y = -1, per sample
    groups, single = divmod(n_full, m)
    for g0 in range(0, groups, MAX_BATCH):
        starts = m * np.arange(g0, min(g0 + MAX_BATCH, groups))
        g = op.source_integrals(t0 + (starts + np.concatenate([[0.0], z])[:, None]) * tau)
        spread = g[:, :, 1:] - g[:, :, :1]  # (N, k+1, d+1, B)
        c = np.tensordot(inverse, spread, axes=(1, 2))
        c[0] += g[:, :, 0]
        miss = np.abs(np.tensordot(at_first, spread, axes=(0, 2))).max(axis=(0, 1))
        scale = (np.abs(g[:, :, 0]).max(axis=(0, 1)) +
                 np.abs(spread).max(axis=(0, 1, 2)) * np.abs(t0 + starts * tau) / (span * tau))
        fits = miss <= _FIT_TOLERANCE * scale
        w = sum(mq.apply_columns(cq.reshape(-1, len(starts))) for mq, cq in zip(maps.moments, c))
        for start, forcing, fit in zip(starts, w.T.reshape((-1,) + op.L.blocks.shape[:2]), fits):
            if fit:
                yield maps.a, m, forcing
            else:
                yield from zip(repeat(one), repeat(1), _forcings(op, s, t0, tau, m, start))
    yield from zip(repeat(one), repeat(1), _forcings(op, s, t0, tau, single, groups * m))


def integrate(state: SvState, problem: Problem, tableau: RkTableau, tau: float,
              t_final: float, on_step=None) -> SvState:
    """Step repeatedly to t_final, shortening only the last step (``step_plan``).

    ``on_step(state)`` is invoked after every completed step.  The state is
    accumulated with a compensated (Kahan) sum so that the many tiny step
    increments of strongly CFL-restricted runs are not lost to rounding.

    Every application is one product with an assembled increment map, plus
    a forcing with a source, and one compensated update.  A run without
    ``on_step`` takes its full steps in groups of m through
    A_m = P_s(tau L)^m - I and the rest one at a time through
    A = P_s(tau L) - I; a shortened last step has its own A.  One ladder
    (``_fusion``) squares A into A_m: in float64 without a source, else as a
    (hi, lo) pair next to the moment maps, and a group adds
    W = sum_q M_q c_q (``_group_steps``).
    """
    _require_finite(tau=tau, t_final=t_final)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if t_final < state.t - 1e-14:
        raise ValueError(f"t_final={t_final} is before state time {state.t}")
    n_full, last = step_plan(state.t, tau, t_final)
    if n_full == 0 and last == 0.0:
        return state
    op = SpatialOperator(state.mesh, problem)
    values = state.values.copy()
    comp = np.zeros_like(values)
    s = tableau.s
    one = op.increment_map(s, tau) if n_full else None
    m, group = _fusion(op, s, tau, one, n_full) if on_step is None and n_full >= 2 else (1, one)
    # (map, full steps it takes, forcing) for every application
    if problem.source is None:
        plan = chain(repeat((group, m, None), n_full // m), repeat((one, 1, None), n_full % m))
    else:
        plan = (_group_steps(op, s, state.t, tau, one, group, m, n_full) if m > 1 else
                zip(repeat(one), repeat(1), _forcings(op, s, state.t, tau, n_full)))
    if last > 0.0:  # the shortened last step, whose map is built before the first step
        forcing = (repeat(None) if problem.source is None else
                   _forcings(op, s, state.t + n_full * tau, last, 1))
        plan = chain(plan, zip(repeat(op.increment_map(s, last), 1), repeat(0), forcing))
    step = 0  # full steps taken
    for increment, steps, f in plan:
        delta = step_increment(values, increment, f)
        y = delta + comp
        new_values = values + y
        comp = (values - new_values) + y
        values = new_values
        step += steps
        if on_step is not None:
            t = t_final if steps == 0 else state.t + step * tau
            on_step(SvState(state.mesh, values + comp, t))
    return SvState(state.mesh, values + comp, t_final)
