"""The benchmark workloads: inputs from the seed, the timed body, the gates.

Each workload is the traffic this repository actually serves:

* ``advection``  - the Example 1 convergence study on three criterion-3 cells:
  source-free stepping on a uniform single-orientation mesh at the
  analyzer-chosen CFL exponent (reconstruction, traces and fluxes).
* ``degenerate`` - one Example 2 solve at N=64: the manufactured source, two
  Radau orientation groups and ~25.6k tiny compensated steps.
* ``analysis``   - the randomized check suite and a cold ``rksv analyze``:
  hundreds of small fresh meshes and per-call operators, almost no stepping.

The gate functions take plain numbers so that the self-tests can feed them
corrupted results.  ``rk`` is a namespace holding the rksv submodules of the
current import (the benchmark re-imports the package to time set-up).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

ADVECTION_CELLS = ((3, 1, "rrsv"), (4, 4, "lsv"), (4, 4, "rrsv"))
ORDER_TOLERANCE = 0.15          # criterion 3: final orders within 0.15 of k+1
L2_RATIO = (1.0 / 3.0, 3.0)     # criterion 3: each row within 1/3-3x of the reference
DEGENERATE_MARGIN = 0.02        # degenerate L2 may exceed the release value by 2%

# temporal-order probe: tau-ladder tau0, tau0/2, tau0/4 against a tau0/16
# reference on N=16; tau0 keeps order-5 temporal error far above roundoff
PROBE_N = 16
PROBE_T = 0.1
PROBE_STEPS = 4


def pass_share(attempted: int, failed: int) -> float:
    return (attempted - failed) / attempted


# ---------------------------------------------------------------------------
# gates


def advection_failures(cell, l2_rows, final_orders) -> list[bool]:
    """One flag per (cell, N) solve; a bad final order fails the finest row."""
    s, k, scheme = cell
    reference = REFERENCE["advection_l2"][f"{s}/{k}/{scheme}"]
    lo, hi = L2_RATIO
    failed = [not (math.isfinite(l2) and lo <= l2 / ref <= hi)
              for l2, ref in zip(l2_rows, reference)]
    if any(o is None or not abs(o - (k + 1)) <= ORDER_TOLERANCE for o in final_orders):
        failed[-1] = True
    return failed


def degenerate_failed(l2: float, n: int) -> bool:
    limit = REFERENCE["degenerate_l2"][str(n)] * (1.0 + DEGENERATE_MARGIN)
    return not (math.isfinite(l2) and l2 <= limit)


def _cfl_exponent(condition: str) -> str:
    """'tau = O(h)' -> '1', 'tau = O(h^2)' -> '2', 'tau = O(h^{4/3})' -> '4/3'."""
    inner = condition.strip()[len("tau = O("):-1]
    if inner == "h":
        return "1"
    return inner[len("h^"):].strip("{}")


def analyzer_row_failures(table_text: str, transfers_agree: dict[int, bool]) -> list[bool]:
    """One flag per published key-factor row, checked against the printed table."""
    printed = {}
    for line in table_text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 7 and cells[0].startswith("RKSV("):
            _, s, c, zeta, rho, gamma, condition = cells
            printed[int(s)] = (int(c), int(zeta), int(rho),
                               None if gamma == "-" else int(gamma),
                               Fraction(_cfl_exponent(condition)))
    failed = []
    published = {k: v for k, v in REFERENCE["key_factors"].items() if k != "about"}
    for s_key, (c, zeta, rho, gamma, e) in published.items():
        s = int(s_key)
        expected = (c, zeta, rho, gamma, Fraction(e))
        failed.append(printed.get(s) != expected or not transfers_agree.get(s, False))
    return failed


# ---------------------------------------------------------------------------
# shared pieces


@dataclasses.dataclass
class BodyResult:
    attempted: int
    failed: int
    l2_err: float | None = None


def _config(rk, example, scheme, k, s, n_values, cfl, t_final, seed=0):
    return rk.harness.ExperimentConfig(example=example, scheme=rk.mesh.SubdivisionRule(scheme),
                                       k=k, s=s, n_values=tuple(n_values), cfl=cfl,
                                       t_final=t_final, seed=seed)


def _prepare_mesh(rk, config, n):
    """What every solve pays before its first step."""
    problem = rk.harness.problem_definition(config.example).make()
    mesh = rk.harness.build_mesh(config, n)
    rk.sv_space.workspace(mesh)
    rk.sv_space.SpatialOperator(mesh, problem)
    rk.sv_space.project_initial(problem, mesh, config.k)


def temporal_probe(rk, config, without_source=False) -> tuple[float, float]:
    """(observed temporal order, L2 temporal error at tau0) on an N=16 mesh.

    The order is the least-squares slope of log2(error) over the ladder; the
    error is the CV-average L2 distance from the tau0/16 reference solution.
    """
    problem = rk.harness.problem_definition(config.example).make()
    if without_source:
        problem = dataclasses.replace(problem, source=None)
    mesh = rk.harness.build_mesh(config, PROBE_N)
    state = rk.sv_space.project_initial(problem, mesh, config.k)
    tableau = rk.ssp_rk.ssp_tableau(config.s)
    tau0 = PROBE_T / PROBE_STEPS
    reference = rk.ssp_rk.integrate(state, problem, tableau, tau0 / 16, PROBE_T).values
    errors = []
    for level in range(3):
        values = rk.ssp_rk.integrate(state, problem, tableau, tau0 / 2**level, PROBE_T).values
        errors.append(float(np.sqrt(np.sum((values - reference) ** 2 / mesh.cv_widths))))
    slope = np.polyfit(np.arange(3), np.log2(errors), 1)[0]
    return float(-slope), errors[0]


# ---------------------------------------------------------------------------
# workloads


class Advection:
    name = "advection"

    def __init__(self, seed: int, tiny: bool = False):
        self.n_values = (16, 32, 64) if tiny else (16, 32, 64, 128)

    def configs(self, rk):
        return [(cell, _config(rk, 1, cell[2], cell[1], cell[0], self.n_values, 0.1, 1.0))
                for cell in ADVECTION_CELLS]

    def setup(self, rk):
        for _, config in self.configs(rk):
            for n in config.n_values:
                _prepare_mesh(rk, config, n)

    def body(self, rk) -> BodyResult:
        failed = []
        finest = []
        for cell, config in self.configs(rk):
            table = rk.harness.run_convergence(config)
            l2_rows = [row.l2 for row in table.rows]
            failed += advection_failures(cell, l2_rows, table.final_orders)
            finest.append(l2_rows[-1])
        l2 = float(np.exp(np.mean(np.log(finest))))
        return BodyResult(len(failed), sum(failed), l2)

    def accuracy(self, rk, body: BodyResult) -> tuple[float, float]:
        s, k, scheme = ADVECTION_CELLS[1]
        order, _ = temporal_probe(rk, _config(rk, 1, scheme, k, s, (PROBE_N,), 0.1, None))
        return body.l2_err, order


class Degenerate:
    name = "degenerate"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n = 16 if tiny else 64

    def config(self, rk, n):
        return _config(rk, 2, "rsv", 5, 5, (n,), 1e-3, 0.1, seed=self.seed)

    def setup(self, rk):
        _prepare_mesh(rk, self.config(rk, self.n), self.n)
        _prepare_mesh(rk, self.config(rk, PROBE_N), PROBE_N)

    def body(self, rk) -> BodyResult:
        try:
            result = rk.harness.run_solve(self.config(rk, self.n))
        except rk.harness.NumericalError:
            return BodyResult(1, 1, math.nan)
        return BodyResult(1, int(degenerate_failed(result.l2, self.n)), result.l2)

    def accuracy(self, rk, body: BodyResult) -> tuple[float, float]:
        order, _ = temporal_probe(rk, self.config(rk, PROBE_N))
        return body.l2_err, order


class Analysis:
    name = "analysis"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.trials = 5 if tiny else 100

    def _analyzer_caches(self, rk):
        mt = rk.matrix_transfer
        # the tracer hides lru_cache behind a wrapper; __wrapped__ reaches it
        return [getattr(f, "cache_clear", None) or f.__wrapped__.cache_clear
                for f in (mt.stability_transfer, mt.error_transfer)]

    def setup(self, rk):
        for clear in self._analyzer_caches(rk):
            clear()
        rk.matrix_transfer.stability_transfer(rk.matrix_transfer.MAX_STAGES)

    def body(self, rk) -> BodyResult:
        report = rk.harness.run_checks(self.seed, self.trials)
        failed = [not r.passed for r in report.results]
        for clear in self._analyzer_caches(rk):
            clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rk.cli.main(["analyze", "--s-max", "12", "--show-matrices"])
        mt = rk.matrix_transfer
        agree = {}
        for s in range(1, mt.MAX_STAGES + 1):
            stab, err = mt.stability_transfer(s), mt.error_transfer(s)
            agree[s] = (stab.zeta, stab.rho, stab.c_diag) == (err.zeta, err.rho, err.c_diag)
        rows = analyzer_row_failures(out.getvalue(), agree)
        if code != 0:
            rows = [True] * len(rows)
        failed += rows
        return BodyResult(len(failed), sum(failed))

    def accuracy(self, rk, body: BodyResult) -> tuple[float, float]:
        # the solver-side check of the verdict "s=5 is O(tau^5)": the degenerate
        # probe with its source removed, so only the homogeneous scheme is left
        config = _config(rk, 2, "rsv", 5, 5, (PROBE_N,), 1e-3, 0.1, seed=self.seed)
        order, error = temporal_probe(rk, config, without_source=True)
        return error, order


WORKLOADS = {w.name: w for w in (Advection, Degenerate, Analysis)}
