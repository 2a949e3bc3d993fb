"""SSP Runge-Kutta tableaus (exact rationals) and the time-stepping loop.

The s-stage scheme is a chain of s-1 forward-Euler stages followed by a
convex recombination: u^{n+1} = sum_k g_k u^{n,k} + tau * g_{s-1} F(u^{n,s-1}),
with F(u) = L u + G the linear spatial operator plus the source integrals.

A source is sampled at the s times t^n + i*tau, i = 0..s-1, and stage l
receives the combination G_l = sum_i C_s[l][i] G(t^n + i*tau)
(``stage_source_weights``).  Stage l thereby sees the stage value of the
autonomous system (u, p, tau p', ..., tau^{s-1} p^{(s-1)}), p the interpolant
of the samples, so the step is the degree-s Taylor polynomial of that system
and the scheme stays s-th order in time with a time-dependent source
(Carpenter, Gottlieb, Abarbanel & Don, SIAM J. Sci. Comput. 16 (1995)).
Without a source the step is the truncated exponential sum_{j<=s} (tau L)^j/j!.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial

import numpy as np

from .sv_space import Problem, SpatialOperator, SvState

__all__ = ["MAX_STAGES", "RkTableau", "ssp_tableau", "stage_source_weights", "rk_step",
           "integrate"]

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

    @property
    def c_matrix(self) -> np.ndarray:
        c = np.eye(self.s)
        c[-1, :] = [float(w) for w in self.final_weights]
        return c

    @property
    def d_matrix(self) -> np.ndarray:
        d = np.eye(self.s)
        d[-1, -1] = float(self.final_weights[-1])
        d[-1, :-1] = 0.0
        return d


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


def step_increment(values: np.ndarray, t: float, tableau: RkTableau, tau: float,
                   op: SpatialOperator) -> np.ndarray:
    """u^{n+1} - u^n, assembled purely from O(tau) stage increments.

    Since the final weights sum to one, the recombination collapses to
    u^n + sum_j W_j d^j + w_{s-1} tau F(u^{n,s-1}); keeping only the
    increments avoids swallowing them in O(u)-sized additions, which
    matters for runs with ~1e5 steps.  With a source, the s samples are
    combined into the stage sources by one (s x s) product per step.
    """
    tails, w_last, c = tableau.step_weights
    s = tableau.s
    sources = None
    if op.problem.source is not None:
        samples = np.empty((s,) + values.shape)
        for i in range(s):
            samples[i] = op.source_integrals(t + i * tau)
        sources = (c @ samples.reshape(s, -1)).reshape(samples.shape)

    def stage(u, ell):
        f = op.linear(u)
        if sources is not None:
            f += sources[ell]
        return f

    u = values
    delta = np.zeros_like(values)
    for ell in range(s - 1):
        d = tau * stage(u, ell)
        delta += tails[ell] * d
        u = u + d
    delta += (w_last * tau) * stage(u, s - 1)
    return delta


def rk_step(state: SvState, problem: Problem, tableau: RkTableau, tau: float,
            op: SpatialOperator | None = None) -> SvState:
    """Advance one step of length tau; stage sources as in ``step_increment``."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if op is None:
        op = SpatialOperator(state.mesh, problem)
    delta = step_increment(state.values, state.t, tableau, tau, op)
    return SvState(state.mesh, state.k, state.values + delta, state.t + tau)


def integrate(state: SvState, problem: Problem, tableau: RkTableau, tau: float,
              t_final: float, on_step=None) -> SvState:
    """Step repeatedly to t_final, shortening only the last step.

    ``on_step(state)`` is invoked after every completed step.  The state is
    accumulated with a compensated (Kahan) sum so that the many tiny step
    increments of strongly CFL-restricted runs are not lost to rounding.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if t_final < state.t - 1e-14:
        raise ValueError(f"t_final={t_final} is before state time {state.t}")
    op = SpatialOperator(state.mesh, problem)
    tol = 1e-14 * max(1.0, abs(t_final))
    if t_final - state.t <= tol:
        return state
    values = state.values.copy()
    comp = np.zeros_like(values)
    t = state.t
    step = 0
    while t_final - t > tol:
        dt = min(tau, t_final - t)
        delta = step_increment(values, t, tableau, dt, op)
        y = delta + comp
        new_values = values + y
        comp = (values - new_values) + y
        values = new_values
        step += 1
        t = state.t + step * dt if dt == tau else t_final
        if on_step is not None:
            on_step(SvState(state.mesh, state.k, values + comp, t))
    return SvState(state.mesh, state.k, values + comp, t_final)
