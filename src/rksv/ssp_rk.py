"""SSP Runge-Kutta tableaus (exact rationals) and the time-stepping loop.

The s-stage linear SSP step is linear in u and in the source, so every step
is u^{n+1} = u^n + A u^n + f^n.  A = P_s(tau L) - I, P_s(z) = sum_{j<=s}
z^j/j!, is the source-free increment, assembled as per-element banded blocks
(``SpatialOperator.increment_map``) once per run of ``integrate`` for its step
length and once for a shortened last step; the forcing f^n depends only on
the source, not on u.  Without a source every step is the same map, so a long
run without a per-step callback applies m steps at once as u <- u + A_m u,
A_m = P_s(tau L)^m - I built by squaring A, which drops the outer blocks of
row-sum norm <= 2^-60 (``_fused_steps``).

A step with a source uses its samples at the s times t^n + i*tau,
i = 0..s-1, and stage l of the Shu-Osher chain receives the combination
G_l = sum_i C_s[l][i] G(t^n + i*tau), C_s[l][i] = sum_{q<=l} binom(l, q)
(V^-1)[q][i] with V[i][q] = i^q / q!.  Stage l thereby sees the stage value
of the autonomous system
(u, p, tau p', ..., tau^{s-1} p^{(s-1)}), p the interpolant of the samples,
so the step is the degree-s Taylor polynomial of that system and the scheme
stays s-th order in time with a time-dependent source (Carpenter, Gottlieb,
Abarbanel & Don, SIAM J. Sci. Comput. 16 (1995)).  Multiplied out, the
source part of that polynomial is

    f^n = tau sum_r (tau L)^r E_r,  E_r = sum_{m<=s-1-r} D_m / (r+m+1)!,

with D_m = tau^m p^{(m)}(t^n) the scaled derivatives of the interpolant, so
E_r = sum_i W[r][i] G(t^n + i*tau) with exact weights W
(``_forcing_weights``).  Every sourced step takes f from one stream,
``_forcings``, which forms it for a block of consecutive steps at once: one
source call for all their sample times, one small product per step for the
E_r, and s-1 products with L by Horner's rule, each over the whole block.
``integrate`` draws its full steps and its shortened last step from it, and
``rk_step`` a stream of one step.

A sourced run without a callback fuses its full steps too, in groups of m:
u <- u + A_m u + W, W = sum_j (I + A)^{m-1-j} f^{n+j} the group's forced
response (``_group_forcings``).  W comes from one chain over the source
samples, S_t = (I + A) S_{t-1} + G_{n+t}, run for B groups at once as the
columns of one stack, and two Horner sums of the chain's snapshots, so a
fused step costs neither a forcing nor a product of A with one vector.  Over
the ~1e5 steps of a run, the float64 rounding of a squared A_m would lower
the k=5 Example 2 order from 5.91 to 5.63, so A_m is built by the same
Horner and squaring in ``np.longdouble`` and applied as a float64 (hi, lo)
pair (``_sourced_fusion``).  m is the largest power of two <= 64 whose band
is narrower than the mesh with two or more groups in the run, and at least
s-1; B is at most 8, fewer where the chain's products would pass
``_BLOCK_FLOATS``.  Where ``np.longdouble`` is no wider than float64 the
pair would lose its low part, so there sourced runs take m = 1: the
per-step forcings of an unfused run, in the same loop.  The steps left over
(n_full mod m) and a shortened last step take their forcing from
``_forcings``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import factorial
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .matrix_transfer import MAX_STAGES
from .sv_space import BandedOperator, Problem, SpatialOperator, SvState, _require_finite

__all__ = ["MAX_STAGES", "RkTableau", "ssp_tableau", "rk_step", "step_plan", "integrate"]

BLOCK_STEPS = 32          # full steps whose source forcing is formed together
_BLOCK_FLOATS = 1 << 17   # 1 MiB of float64: the bound on a block's source values or padded stack
MAX_GROUP = 64            # full steps per fused sourced update at most
MAX_BATCH = 8             # groups whose forced response is formed together at most
# the platform probe: an np.longdouble no wider than float64 cannot hold A_m's low part
_LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)


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
    p to its samples p(t + i*tau), so V^-1 maps the samples to the derivatives.
    """
    # Gauss-Jordan on [V | I] in exact arithmetic; every leading block of V is a
    # Vandermonde matrix on distinct nodes times a diagonal, so no pivoting
    rows = [[Fraction(i ** q, factorial(q)) for q in range(s)] +
            [Fraction(int(i == j)) for j in range(s)] for i in range(s)]
    for col in range(s):
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(s):
            if r != col:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return tuple(tuple(row[s:]) for row in rows)


@lru_cache(maxsize=None)
def _forcing_weights(s: int) -> np.ndarray:
    """W[r][i] = sum_{m<=s-1-r} (V^-1)[m][i] / (r+m+1)!, summed exactly, then rounded.

    E_r = sum_i W[r][i] G(t + i*tau) is the coefficient of tau (tau L)^r in the
    source part of the step.
    """
    v_inv = _derivatives_from_samples(s)
    weights = np.array([[float(sum(v_inv[m][i] / factorial(r + m + 1) for m in range(s - r)))
                         for i in range(s)] for r in range(s)])
    weights.flags.writeable = False
    return weights


def _block_steps(op: SpatialOperator) -> int:
    """Steps per forcing block: ``BLOCK_STEPS``, fewer where the largest block
    temporary, the source's values at the N(k+3) element points of each
    step, would pass ``_BLOCK_FLOATS``."""
    points = op.mesh.n_elements * (op.mesh.k + 3)
    return max(1, min(BLOCK_STEPS, _BLOCK_FLOATS // points))


def _forcing(op: SpatialOperator, s: int, tau: float, windows: np.ndarray) -> np.ndarray:
    """sum_i F_i windows[c, i] for each window c, as the columns of an (N(k+1), count) array.

    F_i = sum_r tau^(r+1) W[r][i] L^r, so a window of the source integrals
    G(t + i*tau), i = 0..s-1, gives the forcing of the step from t.
    ``windows`` has shape (count, s, N(k+1)) and may be a strided view.  With
    tau^(r+1) folded into row r of W, Horner's rule f = E'_0 + L(E'_1 + L(...))
    needs s-1 products with L, each over all the windows.
    """
    weights = _forcing_weights(s) * tau ** np.arange(1, s + 1)[:, None]
    h = np.matmul(weights[s - 1], windows).T
    for r in range(s - 2, -1, -1):
        h = op.L.apply_columns(h)
        h += np.matmul(weights[r], windows).T
    return h


def _forcings(op: SpatialOperator, s: int, t0: float, tau: float, n_steps: int,
              first: int = 0, window: np.ndarray | None = None):
    """Yield the forcing f^n of each step n = first..first+n_steps-1 of length tau from t0.

    The steps are formed in blocks of up to ``_block_steps(op)``.  The block of
    steps j0..j0+count-1 needs G(t0 + j*tau), j = j0..j0+count+s-2.  The first
    s-1 of them are the previous block's last (for the first block, the rows
    of ``window`` if given), so every sample time is evaluated once, in one
    source call per block; j is an integer, so a sample time does not drift
    with the step count.
    """
    block = _block_steps(op)
    shape = op.L.blocks.shape[:2]
    if window is None:
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

    ``increment`` is A = P_s(tau L) - I for this step's tau, or P_s(tau L)^m - I
    for m source-free steps at once, and ``forcing`` the step's source forcing
    f^n (None without a source).  Keeping only the increment avoids swallowing
    it in O(u)-sized additions, which matters for runs with ~1e5 steps.
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


def _fused_steps(one: BandedOperator, n_full: int) -> tuple[int, BandedOperator]:
    """(m, A_m): the full steps per application of the fused map
    A_m = P_s(tau L)^m - I in a run of n_full source-free steps whose one-step
    map is ``one``, and that map.

    m = 1 is doubled by squaring A_m (``BandedOperator.compose``, which drops
    the outer blocks with a row-sum norm <= 2^-60 on every element) while
    more than W(k+1) applications of the doubled map remain, W the offsets
    of A_m (a product of two W-wide bands costs about W(k+1) applications),
    and while the doubled band is narrower than the mesh, so that no column
    aliases.  At tau = O(h^e), e > 1, tau ||L|| shrinks with h and the outer
    blocks of A_m decay faster than geometrically, so W grows far slower
    than m.
    """
    n, k1, _ = one.blocks.shape
    m, band = 1, one
    while n_full // (2 * m) > len(band.offsets) * k1:
        doubled = band.compose(band)
        if len(doubled.offsets) >= n:
            break
        m, band = 2 * m, doubled
    return m, band


class _SplitMap(NamedTuple):
    """An increment map applied as the float64 pair of ``BandedOperator.split``."""

    hi: BandedOperator
    lo: BandedOperator

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.hi.apply(values) + self.lo.apply(values)

    def apply_columns(self, columns: np.ndarray) -> np.ndarray:
        return self.hi.apply_columns(columns) + self.lo.apply_columns(columns)


def _sourced_fusion(op: SpatialOperator, s: int, tau: float, one: BandedOperator,
                    n_full: int) -> tuple[int, BandedOperator | _SplitMap]:
    """(m, A_m): the full steps per group of a sourced run of n_full steps whose
    one-step map is ``one``, and A_m = P_s(tau L)^m - I as a ``_SplitMap``;
    (1, one) where the run is not fused.

    m is the largest power of two <= ``MAX_GROUP`` for which the band of A_m
    stays narrower than the mesh and two or more groups fit in the full steps.
    A_m is the Horner map ``increment_map`` squared by ``compose``, all in
    ``np.longdouble``, then split into float64 (hi, lo).  Fusing needs
    m >= s-1, so that a group shares samples with the next group only, and an
    extended ``np.longdouble`` (``_LONGDOUBLE_EPS`` < 1e-18).
    """
    least = 1 << (max(2, s - 1) - 1).bit_length()  # the least power of two >= 2, s-1
    if _LONGDOUBLE_EPS >= 1e-18 or n_full // least < 2:
        return 1, one
    m, band = 1, op.increment_map(s, np.longdouble(tau))
    while 2 * m <= MAX_GROUP and n_full // (2 * m) >= 2:
        doubled = band.compose(band)
        if len(doubled.offsets) >= op.mesh.n_elements:
            break
        m, band = 2 * m, doubled
    return (m, _SplitMap(*band.split())) if m >= least else (1, one)


def _group_forcings(op: SpatialOperator, s: int, t0: float, tau: float,
                    one: BandedOperator, fused: _SplitMap, m: int, n_full: int):
    """Yield the forcing W of each group of m steps of length tau from t0, then
    the forcing of each of the n_full mod m steps left (``_forcings``).

    With P = I + A, A = ``one``, and G_j the source integrals at t0 + j*tau,
    the group of steps n..n+m-1 adds W = sum_j P^{m-1-j} f^{n+j} to P^m u.
    The chain S_{-1} = 0, S_t = P S_{t-1} + G_{n+t}, t = 0..m+s-2, gives
    W = F - P^m V with F = sum_i F_i S_{m-1+i} and V = sum_{i>=1} F_i S_{i-1}
    (F_i as in ``_forcing``, which forms F and V from the chain's snapshots).
    B groups run the chain together as the columns of an (N(k+1), B) stack:
    B is the most, up to ``MAX_BATCH``, that keep the wrap-padded
    ((N+W-1)(k+1), B) copy that a product with A reads within
    ``_BLOCK_FLOATS``.  The samples of chain steps s-1..m-1 are fetched about
    ``_block_steps(op)`` at a time, in whole chain steps.  A group's first s-1
    samples, fetched together for the B groups, are also the previous group's
    last, and the next group's are carried over, so every sample time
    t0 + j*tau is evaluated once.
    """
    shape = op.L.blocks.shape[:2]
    size = shape[0] * shape[1]
    groups, single = divmod(n_full, m)
    padded = (shape[0] + len(one.offsets) - 1) * shape[1]
    batch = max(1, min(MAX_BATCH, _BLOCK_FLOATS // padded))
    chunk = max(1, _block_steps(op) // batch)

    def samples(j):  # (N(k+1), *j.shape), without a source call for no times
        if j.size == 0:
            return np.empty((size,) + j.shape)
        return op.source_integrals(t0 + j.ravel() * tau).reshape((size,) + j.shape)

    lead = np.arange(s - 1)[:, None]  # a group's first s-1 steps
    carry = samples(lead)  # (N(k+1), s-1, 1): the first s-1 samples of the next group
    for g0 in range(0, groups, batch):
        b = min(batch, groups - g0)
        first = m * (g0 + np.arange(b + 1))  # the first step of each group, and of the next
        head = np.concatenate([carry, samples(first[1:] + lead)], axis=2)
        chain_s = np.zeros((size, b))
        # the windows of V ([0, S_0..S_{s-2}]) and of F ([S_{m-1}..S_{m+s-2}]), side by side
        snaps = np.zeros((s, size, 2 * b))
        for t in range(m + s - 1):
            if t < s - 1:
                g = head[:, t, :b]
            elif t < m:
                if (t - s + 1) % chunk == 0:
                    block = samples(first[:b] + np.arange(t, min(t + chunk, m))[:, None])
                g = block[:, (t - s + 1) % chunk]
            else:  # the next group's head
                g = head[:, t - m, 1:]
            chain_s = chain_s + one.apply_columns(chain_s) + g
            if t < s - 1:
                snaps[t + 1, :, :b] = chain_s
            if t >= m - 1:
                snaps[t - m + 1, :, b:] = chain_s
        h = _forcing(op, s, tau, snaps.transpose(2, 0, 1))
        v, f = h[:, :b], h[:, b:]
        yield from (f - v - fused.apply_columns(v)).T.reshape((b,) + shape)
        carry = head[:, :, b:]
    yield from _forcings(op, s, t0, tau, single, groups * m, carry[:, :, 0].T)


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
    A = P_s(tau L) - I; a shortened last step has its own A.  Without a
    source, A_m is A squared in float64 (``_fused_steps``).  With one, A_m is
    squared in ``np.longdouble`` and applied as a float64 (hi, lo) pair, and
    a group adds its forced response W (``_sourced_fusion``,
    ``_group_forcings``): m is the largest power of two <= ``MAX_GROUP``
    whose band stays narrower than the mesh with two or more groups in the
    run, at least s-1, else 1 (also where ``np.longdouble`` is no wider than
    float64).  The forcings come from one stream: the groups' W and the
    per-step ``_forcings`` of the steps left from state.t, then ``_forcings``
    over the shortened step from state.t + n_full*tau.
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
    m, group = 1, one
    if on_step is None and n_full >= 2:
        if problem.source is None:
            m, group = _fused_steps(one, n_full)
        else:
            m, group = _sourced_fusion(op, s, tau, one, n_full)
    groups, single = divmod(n_full, m)
    # (map, full steps it takes): the groups of m, the rest one at a time, then
    # the shortened last step as (map, 0)
    shortened = [(op.increment_map(s, last), 0)] if last > 0.0 else []
    forcings = repeat(None)
    if problem.source is not None:
        full = (_forcings(op, s, state.t, tau, n_full) if m == 1 else
                _group_forcings(op, s, state.t, tau, one, group, m, n_full))
        forcings = chain(full, _forcings(op, s, state.t + n_full * tau, last, len(shortened)))
    step = 0  # full steps taken
    for (increment, steps), f in zip(chain(repeat((group, m), groups),
                                           repeat((one, 1), single), shortened), forcings):
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
