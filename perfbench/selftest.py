"""Self-tests of the benchmark: python3 -m pytest perfbench/selftest.py

Smoke runs use ``--tiny`` inputs; they check that every metric named in
BENCHMARK.json is emitted, and that the gates turn a corrupted result into
failed operations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import (ADVECTION_CELLS, REFERENCE, WORKLOADS, advection_failures,  # noqa: E402
                       analyzer_row_failures, degenerate_failed, pass_share)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_workload_names_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run("analysis", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("cell", ADVECTION_CELLS)
def test_corrupted_advection_l2_fails(cell):
    s, k, scheme = cell
    reference = REFERENCE["advection_l2"][f"{s}/{k}/{scheme}"]
    good = advection_failures(cell, reference, (k + 1.0, k + 1.0))
    assert not any(good)
    bad = advection_failures(cell, [10 * v for v in reference], (k + 1.0, k + 1.0))
    assert all(bad)
    assert pass_share(len(bad), sum(bad)) < pass_share(len(good), sum(good))
    nan_row = advection_failures(cell, [float("nan")] + reference[1:], (k + 1.0, k + 1.0))
    assert nan_row[0]
    low_order = advection_failures(cell, reference, (k + 0.7, k + 1.0))
    assert low_order == [False] * (len(reference) - 1) + [True]


def test_corrupted_degenerate_l2_fails():
    ref = REFERENCE["degenerate_l2"]["64"]
    assert not degenerate_failed(ref, 64)
    assert degenerate_failed(10 * ref, 64)
    assert degenerate_failed(float("nan"), 64)


def _table(rows):
    from fractions import Fraction

    lines = ["| scheme | s | c_zz | zeta | rho | gamma | CFL condition |", "|---|"]
    for s, (c, zeta, rho, gamma, e) in rows.items():
        e = Fraction(e)
        cond = ("tau = O(h)" if e == 1 else f"tau = O(h^{e})" if e.denominator == 1
                else f"tau = O(h^{{{e.numerator}/{e.denominator}}})")
        lines.append(f"| RKSV({s},k) | {s} | {c} | {zeta} | {rho} | "
                     f"{'-' if gamma is None else gamma} | {cond} |")
    return "\n".join(lines)


def test_corrupted_analyzer_rows_fail():
    published = {int(s): row for s, row in REFERENCE["key_factors"].items() if s != "about"}
    agree = {s: True for s in published}
    assert not any(analyzer_row_failures(_table(published), agree))
    wrong = dict(published)
    wrong[4] = [-8, 3, 3, 5, "5/4"]
    flags = analyzer_row_failures(_table(wrong), agree)
    assert flags == [s == 4 for s in sorted(published)]
    flags = analyzer_row_failures(_table(published), {**agree, 7: False})
    assert flags == [s == 7 for s in sorted(published)]
    assert all(analyzer_row_failures("", agree))


def test_self_time_subtracts_children():
    spans = tracer.Tracer()
    inner = spans.wrap("inner", lambda: sum(range(20000)))

    def outer_fn():
        inner()
        inner()
        return sum(range(20000))

    outer = spans.wrap("outer", outer_fn)
    outer()
    summary = spans.summary()
    calls_in, incl_in, self_in = summary["inner"]
    calls_out, incl_out, self_out = summary["outer"]
    assert (calls_in, calls_out) == (2, 1)
    assert self_in == incl_in
    assert self_out == pytest.approx(incl_out - incl_in)
    name_id, parent, start, end = spans.arrays()
    assert list(parent) == [-1, 0, 0]
    assert all(end >= start)
