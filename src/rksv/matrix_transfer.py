"""Exact matrix-transferring analysis of the fully discrete schemes.

Starting from the energy (or error) equation, inner-product couplings of
temporal differences are traded for bilinear-form couplings, one
row/column at a time, until a nonzero diagonal entry appears.  Everything
here is integer arithmetic: the scaling vector is alpha_p = s!/p!, so every
matrix entry stays an exact integer of arbitrary precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from ._markdown import markdown_table

__all__ = [
    "MAX_STAGES",
    "TransferReport",
    "alpha_vector",
    "stability_transfer",
    "error_transfer",
    "key_factor_table",
    "render_table",
    "render_matrices",
    "bareiss_det",
]

MAX_STAGES = 12

Matrix = list[list[int]]

MONOTONE = "monotone"
WEAK = "weak"


def alpha_vector(s: int) -> tuple[int, ...]:
    """Scaling vector (alpha_0, ..., alpha_s) with alpha_p = s!/p!."""
    _check_stage(s)
    return tuple(factorial(s) // factorial(p) for p in range(s + 1))


def bareiss_det(matrix: Matrix) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class TransferReport:
    """Outcome of one transfer run: key factors, classification, matrix trace."""

    s: int
    alpha: tuple[int, ...]
    zeta: int
    rho: int
    c_diag: int
    stability_class: str            # MONOTONE or WEAK
    gamma: int | None               # absent for monotone schemes
    cfl_exponent: Fraction          # e in tau = O(h^e)
    a_steps: tuple[Matrix, ...]     # A^(0..zeta) (C for the error transfer)
    b_steps: tuple[Matrix, ...]     # B^(0..zeta) (H for the error transfer)
    d_steps: tuple[Matrix, ...] = field(default=())   # error transfer only
    g_steps: tuple[Matrix, ...] = field(default=())   # error transfer only

    @property
    def cfl_condition(self) -> str:
        e = self.cfl_exponent
        if e == 1:
            return "tau = O(h)"
        if e.denominator == 1:
            return f"tau = O(h^{e.numerator})"
        return f"tau = O(h^{{{e.numerator}/{e.denominator}}})"


def _check_stage(s: int):
    if not 1 <= s <= MAX_STAGES:
        raise ValueError(f"s must be in 1..{MAX_STAGES}, got {s}")


def _copy(m: Matrix) -> Matrix:
    return [row[:] for row in m]


def _get(m: Matrix, p: int, q: int, s: int) -> int:
    return m[p][q] if 0 <= p <= s and 0 <= q <= s else 0


def _classify(zeta: int, rho: int, c_diag: int):
    if c_diag < 0 and rho == zeta:
        return MONOTONE, None, Fraction(1)
    gamma = 2 * rho + 1 if c_diag < 0 else min(2 * zeta, 2 * rho + 1)
    return WEAK, gamma, Fraction(gamma, gamma - 1)


def _indicator_rho(b: Matrix, zeta: int) -> int:
    for kappa in range(zeta):
        minor = [row[: kappa + 1] for row in b[: kappa + 1]]
        if bareiss_det(minor) <= 0:
            return kappa
    return zeta


def _run_transfer(s: int, with_error: bool) -> TransferReport:
    alpha = alpha_vector(s)
    a: Matrix = [[0 if p == 0 and q == 0 else alpha[p] * alpha[q] for q in range(s + 1)]
                 for p in range(s + 1)]
    b: Matrix = [[0] * (s + 1) for _ in range(s + 1)]
    a_steps = [_copy(a)]
    b_steps = [_copy(b)]
    if with_error:
        d: Matrix = [[-alpha[p] * alpha[q] for q in range(s + 1)] for p in range(s + 1)]
        d[s][s] = 0
        g: Matrix = [[0] * (s + 1) for _ in range(s + 1)]
        d_steps = [_copy(d)]
        g_steps = [_copy(g)]
    zeta = None
    for level in range(1, s + 1):
        old = _copy(a)
        # deposit the bilinear couplings released by this exchange
        for p in range(level - 1, s):
            b[p][level - 1] = 2 * _get(old, p + 1, level - 1, s)
            b[level - 1][p] = b[p][level - 1]
        if with_error:
            for p in range(level, s + 1):
                d[p][level - 1] += old[p][level - 1]
                d[level - 1][p] = d[p][level - 1]
                g[p][level - 1] = 2 * old[p][level - 1]
                g[level - 1][p] = g[p][level - 1]
        # rewrite the inner-product couplings
        for p in range(s + 1):
            for q in range(level):
                a[p][q] = 0
                a[q][p] = 0
        a[level][level] = _get(old, level, level, s) - 2 * _get(old, level + 1, level - 1, s)
        for p in range(level + 1, s):
            a[p][level] = _get(old, p, level, s) - _get(old, p + 1, level - 1, s)
            a[level][p] = a[p][level]
        a_steps.append(_copy(a))
        b_steps.append(_copy(b))
        if with_error:
            d_steps.append(_copy(d))
            g_steps.append(_copy(g))
        if a[level][level] != 0:
            zeta = level
            break
    if zeta is None:  # unreachable for 1 <= s <= 12; guards the hard cap
        raise RuntimeError(f"transfer did not terminate within {s} exchanges")
    rho = _indicator_rho(b, zeta)
    cls, gamma, exponent = _classify(zeta, rho, a[zeta][zeta])
    return TransferReport(
        s=s,
        alpha=alpha,
        zeta=zeta,
        rho=rho,
        c_diag=a[zeta][zeta],
        stability_class=cls,
        gamma=gamma,
        cfl_exponent=exponent,
        a_steps=tuple(a_steps),
        b_steps=tuple(b_steps),
        d_steps=tuple(d_steps) if with_error else (),
        g_steps=tuple(g_steps) if with_error else (),
    )


@lru_cache(maxsize=None)
def stability_transfer(s: int) -> TransferReport:
    """Transfer the energy equation of the s-stage scheme; exact integers."""
    _check_stage(s)
    return _run_transfer(s, with_error=False)


@lru_cache(maxsize=None)
def error_transfer(s: int) -> TransferReport:
    """Transfer the error equation; also tracks the interpolation/truncation matrices."""
    _check_stage(s)
    return _run_transfer(s, with_error=True)


def key_factor_table(s_max: int) -> list[TransferReport]:
    """Stability reports for s = 1..s_max (the key-factor table rows)."""
    _check_stage(s_max)
    return [stability_transfer(s) for s in range(1, s_max + 1)]


def render_table(reports, fmt: str = "md") -> str:
    """Render key-factor rows as markdown, CSV, or a LaTeX tabular body."""
    rows = [(f"RKSV({r.s},k)", r.s, r.c_diag, r.zeta, r.rho,
             r.gamma if r.gamma is not None else "-", r.cfl_condition)
            for r in reports]
    header = ("scheme", "s", "c_zz", "zeta", "rho", "gamma", "CFL condition")
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(str(v) for v in row) for row in rows]
        return "\n".join(lines)
    if fmt == "tex":
        lines = [" & ".join(header) + r" \\"]
        lines += [" & ".join(str(v) for v in row) + r" \\" for row in rows]
        return "\n".join(lines)
    if fmt == "md":
        return markdown_table(header, rows)
    raise ValueError(f"unknown format {fmt!r}")


def _matrix_lines(name: str, step: int, m: Matrix, fmt: str) -> list[str]:
    if fmt == "tex":
        body = r" \\ ".join(" & ".join(str(v) for v in row) for row in m)
        return [rf"{name}^{{({step})}} = \begin{{array}}{{{'r' * len(m)}}} {body} \end{{array}}"]
    width = max(len(str(v)) for row in m for v in row)
    lines = [f"{name}^({step}) ="]
    lines += ["  [" + "  ".join(str(v).rjust(width) for v in row) + "]" for row in m]
    return lines


def render_matrices(report: TransferReport, fmt: str = "md") -> str:
    """Per-step dumps of the transfer matrices (aligned text or LaTeX arrays)."""
    named = [("A", report.a_steps), ("B", report.b_steps)]
    if report.d_steps:
        named = [("C", report.a_steps), ("D", report.d_steps),
                 ("G", report.g_steps), ("H", report.b_steps)]
    lines = [f"# s = {report.s}: zeta = {report.zeta}, rho = {report.rho}, "
             f"c_diag = {report.c_diag}, class = {report.stability_class}"]
    for step in range(len(report.a_steps)):
        for name, steps in named:
            lines.extend(_matrix_lines(name, step, steps[step], fmt))
        lines.append("")
    return "\n".join(lines)
