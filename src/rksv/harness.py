"""Experiment driver: configured solves, convergence studies, and the check suite."""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isfinite
from typing import Callable, Optional

import numpy as np

from . import matrix_transfer, petrov_galerkin as pg
from ._basis import legendre_vandermonde
from ._markdown import markdown_table
from .mesh import BoundaryCondition, Mesh1D, SubdivisionRule, perturbed_mesh, uniform_mesh
from .quadrature import interpolatory_weights
from .ssp_rk import integrate, ssp_tableau, step_plan
from .sv_space import Problem, SvState, apply_L, error_norms, project_initial, workspace

__all__ = [
    "NumericalError",
    "ProblemDefinition",
    "PROBLEM_REGISTRY",
    "ExperimentConfig",
    "SolveResult",
    "ConvergenceTable",
    "CheckResult",
    "CheckReport",
    "problem_definition",
    "resolve_cfl_exponent",
    "time_step",
    "build_mesh",
    "run_solve",
    "run_convergence",
    "run_checks",
    "parse_config_file",
    "parse_n_values",
    "config_from_file",
]

DIVERGENCE_LIMIT = 1e3


class NumericalError(RuntimeError):
    """A solve failed or diverged; carries the (example, scheme, k, s, N) context."""


# ---------------------------------------------------------------------------
# problem definitions


@dataclass(frozen=True)
class ProblemDefinition:
    """A registered coefficient / initial-condition / exact-solution triple."""

    name: str
    make: Callable[[], Problem]
    mesh_kind: str                      # "uniform" | "perturbed"
    domain: tuple[float, float]
    bc: BoundaryCondition
    default_t_final: float
    default_exponent: Optional[Fraction]  # None: take the analyzer's CFL exponent
    allowed_schemes: Optional[tuple[SubdivisionRule, ...]] = None


def _advection_sine() -> Problem:
    return Problem(
        u0=np.sin,
        alpha=None,
        source=None,
        u_exact=lambda x, t: np.sin(x - t),
    )


def _degenerate_u(x, t):
    return np.exp(np.sin(x - t))


def _degenerate_source(x, t):
    # g = u_t + (sin(x) u)_x for the manufactured u = exp(sin(x - t)), with
    # sin(x - t) and cos(x - t) by angle addition: a call with a time axis on t
    # takes the trig of x once for all of its times
    sx, cx = np.sin(x), np.cos(x)
    st, ct = np.sin(t), np.cos(t)
    sxt = sx * ct - cx * st   # sin(x - t)
    cxt = cx * ct + sx * st   # cos(x - t)
    return np.exp(sxt) * (cx + (sx - 1.0) * cxt)


def _degenerate_sine() -> Problem:
    return Problem(
        u0=lambda x: np.exp(np.sin(x)),
        alpha=np.sin,
        source=_degenerate_source,
        u_exact=_degenerate_u,
    )


PROBLEM_REGISTRY: dict[str, ProblemDefinition] = {
    "advection_sine": ProblemDefinition(
        name="advection_sine",
        make=_advection_sine,
        mesh_kind="uniform",
        domain=(0.0, 2.0 * np.pi),
        bc=BoundaryCondition.PERIODIC,
        default_t_final=1.0,
        default_exponent=None,
    ),
    "degenerate_sine": ProblemDefinition(
        name="degenerate_sine",
        make=_degenerate_sine,
        mesh_kind="perturbed",
        domain=(0.0, 2.0 * np.pi),
        bc=BoundaryCondition.PERIODIC,
        default_t_final=0.1,
        # tau = cfl * h: the O(tau^s) error of the s-th order stage sources
        # carries cfl^s (1e-15 at s=5, cfl=1e-3): far below h^{k+1}, k <= 5,
        # on every mesh of the convergence studies
        default_exponent=Fraction(1),
        allowed_schemes=(SubdivisionRule.RSV_ADAPTIVE, SubdivisionRule.LSV),
    ),
}

_EXAMPLE_NAMES = {1: "advection_sine", 2: "degenerate_sine"}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: problem, scheme, discretization orders, mesh sizes, CFL."""

    example: int | str              # 1 | 2 | registered problem name
    scheme: SubdivisionRule
    k: int
    s: int
    n_values: tuple[int, ...]
    cfl: float
    cfl_exponent: Fraction | str | float | None = None  # parsed to a Fraction
    t_final: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scheme", SubdivisionRule(self.scheme))
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.t_final is not None and not (isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError(f"t_final must be finite and non-negative, got {self.t_final}")
        if self.cfl_exponent is not None:
            try:
                exponent = Fraction(str(self.cfl_exponent))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"cfl_exponent must be a number or a fraction p/q with "
                                 f"q != 0, got {self.cfl_exponent!r}") from None
            if exponent <= 0:
                raise ValueError(f"cfl_exponent must be positive (tau = cfl * h^e), "
                                 f"got {exponent}")
            object.__setattr__(self, "cfl_exponent", exponent)
        definition = problem_definition(self.example)
        allowed = definition.allowed_schemes
        if allowed is not None and self.scheme not in allowed:
            names = "/".join(r.value for r in allowed)
            raise ValueError(f"{definition.name} supports only {names}, got {self.scheme.value}")


def problem_definition(example) -> ProblemDefinition:
    name = _EXAMPLE_NAMES.get(example, example)
    try:
        return PROBLEM_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown problem {example!r}") from None


def resolve_cfl_exponent(config: ExperimentConfig) -> Fraction:
    if config.cfl_exponent is not None:
        return config.cfl_exponent
    default = problem_definition(config.example).default_exponent
    if default is not None:
        return default
    return matrix_transfer.stability_transfer(config.s).cfl_exponent


def build_mesh(config: ExperimentConfig, n: int) -> Mesh1D:
    definition = problem_definition(config.example)
    alpha = definition.make().alpha_values  # orients alpha=None as the constant 1
    if definition.mesh_kind == "perturbed":
        return perturbed_mesh(n, config.seed, config.scheme, config.k, definition.bc,
                              alpha=alpha)
    a, b = definition.domain
    return uniform_mesh(a, b, n, config.scheme, config.k, definition.bc, alpha=alpha)


def time_step(config: ExperimentConfig, mesh: Mesh1D) -> float:
    """tau = cfl * h_min^e with h_min the smallest control-volume width."""
    exponent = resolve_cfl_exponent(config)
    return config.cfl * mesh.min_cv_width ** float(exponent)


# ---------------------------------------------------------------------------
# solves and convergence studies


@dataclass(frozen=True)
class SolveResult:
    n: int
    l2: float
    linf: float
    steps: int
    tau: float
    wall_time: float
    state: SvState          # the final state, at the run's t_final


def run_solve(config: ExperimentConfig, n: int | None = None) -> SolveResult:
    """Project, integrate to T, and measure errors for a single mesh size."""
    if n is None:
        if len(config.n_values) != 1:
            raise ValueError("run_solve needs a single mesh size")
        n = config.n_values[0]
    definition = problem_definition(config.example)
    problem = definition.make()
    t_final = definition.default_t_final if config.t_final is None else config.t_final
    try:
        mesh = build_mesh(config, n)
        tau = time_step(config, mesh)
        tableau = ssp_tableau(config.s)
        state = project_initial(problem, mesh, config.k)
        n_full, last = step_plan(state.t, tau, t_final)
        steps = n_full + (last > 0.0)
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            state = integrate(state, problem, tableau, tau, t_final)
            wall = time.perf_counter() - start
            l2, linf = error_norms(state, problem)
    except (FloatingPointError, np.linalg.LinAlgError, OverflowError) as exc:
        raise NumericalError(
            f"solve failed for example={config.example} scheme={config.scheme.value} "
            f"k={config.k} s={config.s} N={n}: {exc}") from exc
    if not (l2 <= DIVERGENCE_LIMIT and np.isfinite(linf)):
        raise NumericalError(
            f"solve diverged for example={config.example} scheme={config.scheme.value} "
            f"k={config.k} s={config.s} N={n}: L2={l2:.3e} (limit {DIVERGENCE_LIMIT:g})")
    return SolveResult(n, l2, linf, steps, tau, wall, state)


@dataclass(frozen=True)
class TableRow:
    k: int
    n: int
    l2: float
    order_l2: Optional[float]
    linf: float
    order_linf: Optional[float]


def _fmt_err(v: float) -> str:
    return "nan" if not np.isfinite(v) else f"{v:.2e}"


def _fmt_order(v: Optional[float]) -> str:
    return "" if v is None else ("nan" if not np.isfinite(v) else f"{v:.2f}")


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[TableRow, ...]

    def to_csv(self) -> str:
        lines = ["k,N,L2,order_L2,Linf,order_Linf"]
        for r in self.rows:
            lines.append(f"{r.k},{r.n},{_fmt_err(r.l2)},{_fmt_order(r.order_l2)},"
                         f"{_fmt_err(r.linf)},{_fmt_order(r.order_linf)}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        header = ("k", "N", "L2", "order", "Linf", "order")
        cells = [(str(r.k), str(r.n), _fmt_err(r.l2), _fmt_order(r.order_l2) or "-",
                  _fmt_err(r.linf), _fmt_order(r.order_linf) or "-") for r in self.rows]
        return markdown_table(header, cells)

    @property
    def final_orders(self) -> tuple[Optional[float], Optional[float]]:
        last = self.rows[-1]
        return last.order_l2, last.order_linf


def run_convergence(config: ExperimentConfig) -> ConvergenceTable:
    """Solve on each mesh size and report observed orders between doublings; a
    size whose solve fails or diverges (``NumericalError``) reads nan."""
    ns = config.n_values
    if len(ns) < 3:
        raise ValueError("need at least 3 mesh sizes")
    if any(b != 2 * a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"mesh sizes must double: {ns}")
    rows = []
    prev: Optional[SolveResult] = None
    for n in ns:
        try:
            res = run_solve(config, n)
        except NumericalError:
            rows.append(TableRow(config.k, n, float("nan"), None, float("nan"), None))
            prev = None
            continue
        if prev is None:
            rows.append(TableRow(config.k, n, res.l2, None, res.linf, None))
        else:
            rows.append(TableRow(config.k, n, res.l2, float(np.log2(prev.l2 / res.l2)),
                                 res.linf, float(np.log2(prev.linf / res.linf))))
        prev = res
    return ConvergenceTable(tuple(rows))


# ---------------------------------------------------------------------------
# the randomized identity / invariant suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect < self.tolerance

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status}  {self.name}: defect {self.defect:.3e} (tol {self.tolerance:.1e})"


@dataclass(frozen=True)
class CheckReport:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def text(self) -> str:
        lines = [r.line() for r in self.results]
        lines.append("all checks passed" if self.passed else "CHECK SUITE FAILED")
        return "\n".join(lines)


def _rel_defect(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _random_mesh(rng, k, rule, n_max=32):
    n = int(rng.integers(4, n_max + 1))
    return uniform_mesh(0.0, 2.0 * np.pi, n, rule, k, BoundaryCondition.PERIODIC)


def _random_coeffs(rng, mesh):
    return rng.uniform(-1.0, 1.0, size=(mesh.n_elements, mesh.k + 1))


def _jump_sum(v, w, mesh):
    v_l, v_r = pg.boundary_traces(v, mesh)
    w_l, w_r = pg.boundary_traces(w, mesh)
    jv = np.roll(v_l, -1) - v_r   # jump at x_{i+1/2}: v^+ - v^-, periodic wrap
    jw = np.roll(w_l, -1) - w_r
    return float(np.sum(jv * jw))


def run_checks(seed: int = 0, trials: int = 100) -> CheckReport:
    """Randomized identity suite plus the exact analyzer cross-checks."""
    rng = np.random.default_rng(seed)
    rules = (SubdivisionRule.LSV, SubdivisionRule.RRSV)
    results: list[CheckResult] = []

    def sampled(name, tol, fn):
        worst = 0.0
        for _ in range(trials):
            k = int(rng.integers(1, 5))
            rule = rules[int(rng.integers(2))]
            mesh = _random_mesh(rng, k, rule)
            worst = max(worst, fn(rng, mesh))
        results.append(CheckResult(name, worst, tol))

    def jump_defect(rng, mesh):
        v, w = _random_coeffs(rng, mesh), _random_coeffs(rng, mesh)
        lhs = pg.bilinear_ah(v, w, mesh) + pg.bilinear_ah(w, v, mesh)
        return _rel_defect(lhs, -_jump_sum(v, w, mesh))

    def dissipativity_defect(rng, mesh):
        v = _random_coeffs(rng, mesh)
        return pg.bilinear_ah(v, v, mesh)  # must be <= 0 up to roundoff

    def symmetry_defect(rng, mesh):
        v, w = _random_coeffs(rng, mesh), _random_coeffs(rng, mesh)
        return _rel_defect(pg.inner_star(v, w, mesh), pg.inner_star(w, v, mesh))

    def decomposition_defect(rng, mesh):
        v, w = _random_coeffs(rng, mesh), _random_coeffs(rng, mesh)
        anti = pg.global_antiderivative(v, mesh)
        dw = pg.derivative_coeffs(w, mesh)
        scale = (2.0 / mesh.lengths)[:, None]

        def f(x):  # row i: the primitive of v times w_x, on element i
            y = (x - mesh.centers[:, None]) * scale
            av = np.einsum("ipm,im->ip", legendre_vandermonde(y, mesh.k + 1), anti)
            return av * np.einsum("ipm,im->ip", legendre_vandermonde(y, mesh.k), dw) * scale

        residual = float(np.sum(pg.quadrature_residual(f, mesh)))
        lhs = pg.inner_star(v, w, mesh)
        return _rel_defect(lhs, pg.l2_inner(v, w, mesh) + residual)

    def annihilation_defect(rng, mesh):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        u = lambda x: np.sin(x + phase) + 0.3 * np.cos(2.0 * x)
        interp = pg.lagrange_interpolant(u, mesh)
        w = _random_coeffs(rng, mesh)
        star = pg.map_to_test(w, mesh)
        # eta = P_h u - u vanishes at every upwind trace point, so the direct
        # sum for a_h(eta, w*) is assembled from pointwise eta values
        eta = pg.interpolation_nodes_values(interp, mesh) - u(mesh.cv_bounds[:, 1:])
        traces = np.empty((mesh.n_elements, mesh.k + 2))
        traces[:, 1:] = eta
        traces[1:, 0] = eta[:-1, -1]
        traces[0, 0] = eta[-1, -1]  # periodic wrap
        return abs(float(-np.sum(star * np.diff(traces, axis=1))))

    def galerkin_defect(rng, mesh):
        v, w = _random_coeffs(rng, mesh), _random_coeffs(rng, mesh)
        values = 0.5 * mesh.lengths[:, None] * np.einsum("ijm,im->ij",
                                                         workspace(mesh).table("mass"), v)
        state = SvState(mesh, mesh.k, values, 0.0)
        problem = Problem(u0=lambda x: np.zeros_like(x))
        tendency = apply_L(state, problem)
        star = pg.map_to_test(w, mesh)
        return _rel_defect(float(np.sum(star * tendency)), pg.bilinear_ah(v, w, mesh))

    sampled("jump identity a_h(v,w*)+a_h(w,v*) = -sum [v][w]", 1e-11, jump_defect)
    sampled("dissipativity a_h(v,v*) <= 0 (periodic)", 1e-12, dissipativity_defect)
    sampled("inner-product symmetry (v,w*) = (w,v*)", 1e-11, symmetry_defect)
    sampled("inner-product decomposition (v,w*) = (v,w) + R(w_x d^-1 v)", 1e-11,
            decomposition_defect)
    sampled("interpolation annihilation a_h(eta,w*) = 0", 1e-12, annihilation_defect)
    sampled("Petrov-Galerkin identity (Lv,w*) = a_h(v,w*)", 1e-11, galerkin_defect)

    # quadrature exactness at the advertised degrees
    worst = 0.0
    for k in range(1, 13):
        for rule, degree in ((SubdivisionRule.LSV, 2 * k - 1), (SubdivisionRule.RRSV, 2 * k)):
            iw = interpolatory_weights(rule, k)
            for m in range(degree + 1):
                exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
                worst = max(worst, abs(iw.apply(iw.nodes**m) - exact))
    results.append(CheckResult("quadrature exactness (2k-1 LSV / 2k RRSV)", worst, 1e-13))

    # analyzer cross-checks are exact: defect is 0 or 1
    mismatch = 0.0
    for s in range(1, 13):
        stab = matrix_transfer.stability_transfer(s)
        err = matrix_transfer.error_transfer(s)
        if (stab.zeta, stab.rho, stab.c_diag) != (err.zeta, err.rho, err.c_diag):
            mismatch = 1.0
    results.append(CheckResult("stability/error transfer agree on (zeta, rho, c)", mismatch, 0.5))

    bad = 0.0
    for s in range(1, 13):
        tab = ssp_tableau(s)
        if any((factorial(s) % w.denominator) != 0 for w in tab.final_weights):
            bad = 1.0
    results.append(CheckResult("SSP weight denominators divide s!", bad, 0.5))

    return CheckReport(tuple(results))


# ---------------------------------------------------------------------------
# plain-text configuration files


def parse_config_file(path) -> dict[str, str]:
    """Parse 'key: value' / 'key = value' lines; '#' starts a comment."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in (":", "="):
                if sep in line:
                    key, value = line.split(sep, 1)
                    entries[key.strip()] = value.strip()
                    break
            else:
                raise ValueError(f"{path}:{lineno}: expected 'key: value', got {raw!r}")
    return entries


CONFIG_KEYS = ("problem", "scheme", "k", "s", "n", "cfl", "cfl_exp", "t_final", "seed")


def _convert(convert, raw, where: str, expected: str):
    """convert(raw), or a ValueError naming where ``raw`` came from and what it should be."""
    try:
        return convert(raw)
    except ValueError:
        raise ValueError(f"{where} must be {expected}, got {raw!r}") from None


def parse_n_values(raw: str, where: str) -> tuple[int, ...]:
    """Element counts from a string such as '16,32 64'; ``where`` names it in errors."""
    return _convert(lambda r: tuple(int(v) for v in r.replace(",", " ").split()), raw, where,
                    "integers separated by commas or spaces")


def config_from_file(path, **overrides) -> ExperimentConfig:
    """An ExperimentConfig from a plain-text file of ``CONFIG_KEYS`` plus keyword overrides."""
    entries = parse_config_file(path)
    unknown = [key for key in entries if key not in CONFIG_KEYS]
    if unknown:
        raise ValueError(f"{path}: unknown key {unknown[0]!r} (keys: {', '.join(CONFIG_KEYS)})")

    def pick(key, convert=str, expected="", default=None):
        if key in overrides and overrides[key] is not None:
            return overrides[key]
        if key not in entries:
            return default
        return _convert(convert, entries[key], f"{path}: {key}", expected)
    problem = pick("problem")
    if problem is None:
        raise ValueError(f"{path}: missing 'problem' entry")
    n_raw = pick("n")
    if n_raw is None:
        raise ValueError(f"{path}: missing 'n' entry")
    n_values = parse_n_values(n_raw, f"{path}: n") if isinstance(n_raw, str) else n_raw
    rules = "/".join(r.value for r in SubdivisionRule)
    return ExperimentConfig(
        example=problem,
        scheme=pick("scheme", SubdivisionRule, f"one of {rules}", SubdivisionRule.RRSV),
        k=pick("k", int, "an integer", 1),
        s=pick("s", int, "an integer", 3),
        n_values=tuple(n_values),
        cfl=pick("cfl", float, "a number", 0.1),
        cfl_exponent=pick("cfl_exp"),
        t_final=pick("t_final", float, "a number"),
        seed=pick("seed", int, "an integer", 0),
    )
