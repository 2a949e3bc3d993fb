"""SSP Runge-Kutta tableaus (exact rationals) and the time-stepping loop.

Without a source the s-stage linear SSP step is the fixed map
u -> P_s(tau L) u, P_s(z) = sum_{j<=s} z^j/j!, so the solver assembles the
increment map A = P_s(tau L) - I once per step length as per-element banded
blocks (``SpatialOperator.polynomial``) and each step is one block product.

With a source the step runs the stage chain: s-1 forward-Euler stages
followed by a convex recombination, u^{n+1} = sum_k g_k u^{n,k} +
tau * g_{s-1} F(u^{n,s-1}), with F(u) = L u + G the linear spatial operator
plus the source integrals.  The chain shares each of its s applications of L
between u and the source; an assembled A plus a Horner source term needs
(2s+1) + 3(s-1) block products per element against the chain's 3s.

A step with a source uses its samples at the s times t^n + i*tau,
i = 0..s-1, and stage l receives the combination
G_l = sum_i C_s[l][i] G(t^n + i*tau) (``stage_source_weights``).  Stage l
thereby sees the stage value of the autonomous system
(u, p, tau p', ..., tau^{s-1} p^{(s-1)}), p the interpolant of the samples,
so the step is the degree-s Taylor polynomial of that system and the scheme
stays s-th order in time with a time-dependent source (Carpenter, Gottlieb,
Abarbanel & Don, SIAM J. Sci. Comput. 16 (1995)).  With a fixed tau, s-1 of a
step's samples are the previous step's, so ``integrate`` keeps them in a
window and evaluates the source once per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial

import numpy as np

from .sv_space import BandedOperator, Problem, SpatialOperator, SvState

__all__ = ["MAX_STAGES", "RkTableau", "ssp_tableau", "stage_source_weights", "rk_step",
           "step_plan", "integrate"]

MAX_STAGES = 12


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

    @cached_property
    def step_weights(self) -> tuple[np.ndarray, float, np.ndarray]:
        """(W_j = sum of the final weights after stage j, last weight, C_s), as floats.

        Cached on the instance: a cache keyed on the tableau would hash all
        its Fractions on every step.
        """
        final = self.final_weights
        tails = np.array([float(sum(final[j + 1:])) for j in range(self.s - 1)])
        c = np.array([[float(w) for w in row] for row in stage_source_weights(self.s)])
        return tails, float(final[-1]), c


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
def stage_source_weights(s: int) -> tuple[tuple[Fraction, ...], ...]:
    """C_s[l][i] = sum_{q<=l} binom(l, q) (V^-1)[q][i] with V[i][q] = i^q / q!.

    V maps the scaled derivatives tau^q p^{(q)}(t) of a degree-(s-1) polynomial
    p to its samples p(t + i*tau); l forward-Euler steps of the shift
    tau^q p^{(q)} <- tau^q p^{(q)} + tau^{q+1} p^{(q+1)} leave
    sum_q binom(l, q) tau^q p^{(q)}(t) as the source seen by stage l.
    """
    if not 1 <= s <= MAX_STAGES:
        raise ValueError(f"s must be in 1..{MAX_STAGES}, got {s}")
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
    v_inv = [row[s:] for row in rows]
    return tuple(tuple(sum(comb(ell, q) * v_inv[q][i] for q in range(ell + 1))
                       for i in range(s)) for ell in range(s))


def _source_samples(op: SpatialOperator, t: float, tau: float, s: int) -> np.ndarray:
    """The source integrals G(t + i*tau), i = 0..s-1, shape (s, N, k+1)."""
    return np.stack([op.source_integrals(t + i * tau) for i in range(s)])


def _increment_map(op: SpatialOperator, s: int, tau: float) -> BandedOperator:
    """A = P_s(tau L) - I = sum_{j=1..s} (tau L)^j / j!, the source-free step."""
    return op.polynomial([0.0] + [1.0 / factorial(j) for j in range(1, s + 1)], tau)


def step_increment(values: np.ndarray, tableau: RkTableau, tau: float, op: SpatialOperator,
                   samples: np.ndarray | None,
                   increment: BandedOperator | None = None) -> np.ndarray:
    """u^{n+1} - u^n, assembled purely from O(tau) terms.

    Without a source (``samples`` None) the step is the fixed map
    A = P_s(tau L) - I; ``increment`` is A assembled for this tau (built here
    when not given), and the step is one banded block product.

    With a source the stage chain runs: since the final weights sum to one,
    the recombination collapses to u^n + sum_j W_j d^j + w_{s-1} tau F(u^{n,s-1});
    keeping only the increments avoids swallowing them in O(u)-sized
    additions, which matters for runs with ~1e5 steps.  ``samples`` holds the
    source integrals G(t^n + i*tau), i = 0..s-1, taken by the caller; one
    (s x s) product per step turns them into the stage sources.
    """
    if samples is None:
        if increment is None:
            increment = _increment_map(op, tableau.s, tau)
        return increment.apply(values)
    tails, w_last, c = tableau.step_weights
    s = tableau.s
    sources = (c @ samples.reshape(s, -1)).reshape(samples.shape)
    u = values
    delta = np.zeros_like(values)
    for ell in range(s - 1):
        d = tau * (op.linear(u) + sources[ell])
        delta += tails[ell] * d
        u = u + d
    delta += (w_last * tau) * (op.linear(u) + sources[s - 1])
    return delta


def rk_step(state: SvState, problem: Problem, tableau: RkTableau, tau: float,
            op: SpatialOperator | None = None) -> SvState:
    """Advance one step of length tau, sampling the source afresh at t + i*tau."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if op is None:
        op = SpatialOperator(state.mesh, problem)
    samples = None
    if problem.source is not None:
        samples = _source_samples(op, state.t, tau, tableau.s)
    delta = step_increment(state.values, tableau, tau, op, samples)
    return SvState(state.mesh, state.k, state.values + delta, state.t + tau)


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


def integrate(state: SvState, problem: Problem, tableau: RkTableau, tau: float,
              t_final: float, on_step=None) -> SvState:
    """Step repeatedly to t_final, shortening only the last step (``step_plan``).

    ``on_step(state)`` is invoked after every completed step.  The state is
    accumulated with a compensated (Kahan) sum so that the many tiny step
    increments of strongly CFL-restricted runs are not lost to rounding.

    Without a source every step applies the increment map A = P_s(tau L) - I,
    assembled once for tau and once more for a shortened last step.

    With a source the steps keep the stage chain, whose s applications of L
    serve u and the source together; a fused A plus a Horner source term
    costs more block products per element and measured slower on the finest
    Example 2 mesh.  The source is sampled once per full step: the window
    ``samples`` holds sample j at state.t + j*tau, j = step..step+s-1, with j
    an integer, so a reused sample is bit-identical to a fresh one and no
    sample time drifts with the step count.  A shortened last step samples
    all s afresh at t + i*dt.
    """
    if not (np.isfinite(tau) and np.isfinite(t_final)):
        raise ValueError(f"tau and t_final must be finite, got tau={tau}, t_final={t_final}")
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
    samples = increment = None
    for step in range(n_full + (last > 0.0)):
        short = step == n_full
        dt = last if short else tau
        if problem.source is None:
            if step == 0 or short:
                increment = _increment_map(op, s, dt)
        elif short:
            samples = _source_samples(op, state.t + step * tau, dt, s)
        elif step == 0:
            samples = _source_samples(op, state.t, tau, s)
        else:
            samples[:-1] = samples[1:]
            samples[-1] = op.source_integrals(state.t + (step + s - 1) * tau)
        delta = step_increment(values, tableau, dt, op, samples, increment)
        y = delta + comp
        new_values = values + y
        comp = (values - new_values) + y
        values = new_values
        if on_step is not None:
            t = t_final if short else state.t + (step + 1) * tau
            on_step(SvState(state.mesh, state.k, values + comp, t))
    return SvState(state.mesh, state.k, values + comp, t_final)
