"""Tests of the benchmark itself: each correctness check fires on a
corrupted output, the computed pair counts equal the product of the
argument sizes, and BENCHMARK.json matches spec.py.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from deconv import grid_signal  # noqa: E402
from deconv.errors import AcceptanceGateError  # noqa: E402
from deconv.small_sets import SmallSetReport  # noqa: E402

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REF = json.load(_fh)


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(obj, str):
            fh.write(obj)
        else:
            json.dump(obj, fh)


def _deconvolve_dir(tmp_path, **overrides):
    ref = REF["deconvolve"]["indicator"]
    plan = dict(ref["plan"], eps=1e-6, achieved_error=ref["achieved_error"])
    terms = dict(ref["terms"])
    dec = dict(terms, total_bound=3.0 * sum(terms.values()),
               achieved_sq_error=ref["achieved_error"] ** 2)
    for key, value in overrides.items():
        (plan if key in plan else dec)[key] = value
    _write(tmp_path / "plan.json", plan)
    _write(tmp_path / "decomposition.json", dec)
    _write(tmp_path / "reconstruction.csv", "t,re,im\n0,0,0\n")
    return str(tmp_path)


def test_deconvolve_check_passes_reference_output(tmp_path):
    ref = REF["deconvolve"]["indicator"]
    assert checks.check_deconvolve(_deconvolve_dir(tmp_path), ref) == []


@pytest.mark.parametrize("field, factor", [
    ("s_eps", 1.001), ("delta", 1 + 1e-6), ("r_eps", 1 - 1e-6),
    ("outer_term", 1.01), ("data_term", 0.99), ("achieved_error", 1.05),
])
def test_deconvolve_check_fires(tmp_path, field, factor):
    ref = REF["deconvolve"]["indicator"]
    value = {**ref["plan"], **ref["terms"],
             "achieved_error": ref["achieved_error"]}[field]
    out = _deconvolve_dir(tmp_path, **{field: value * factor})
    assert checks.check_deconvolve(out, ref)


def test_deconvolve_check_fires_on_broken_certificate(tmp_path):
    ref = REF["deconvolve"]["indicator"]
    out = _deconvolve_dir(tmp_path, achieved_sq_error=1.0)
    assert any("exceeds total bound" in p
               for p in checks.check_deconvolve(out, ref))


def _sweep_dir(tmp_path, gates=("asymptotic_radius_ok",), failures=(),
               row_scale=None):
    rows = REF["sweep"]["rows"]
    names = ("eps", "s_eps", "delta", "r_eps", "achieved_error", "bound")
    lines = [",".join(names)]
    for i, row in enumerate(rows):
        vals = [row[k] for k in names[:-1]] + [1.0]
        if row_scale and row_scale[0] == i:
            vals[names.index(row_scale[1])] *= row_scale[2]
        lines.append(",".join(repr(v) for v in vals))
    _write(tmp_path / "sweep.csv", "\n".join(lines) + "\n")
    all_gates = ("stability_ok", "inversions_ok", "bounds_ok",
                 "asymptotic_radius_ok", "valid")
    _write(tmp_path / "summary.json",
           {"gates": {g: g not in gates for g in all_gates},
            "failures": list(failures)})
    return str(tmp_path)


def test_sweep_check_accepts_only_the_by_design_gate(tmp_path):
    gate = AcceptanceGateError("sweep gates failed: asymptotic_radius_ok")
    ref = REF["sweep"]
    assert checks.check_sweep(_sweep_dir(tmp_path), gate, ref) == []
    assert checks.check_sweep(_sweep_dir(tmp_path), None, ref)
    assert checks.check_sweep(
        _sweep_dir(tmp_path, gates=("asymptotic_radius_ok", "bounds_ok")),
        gate, ref)
    assert checks.check_sweep(_sweep_dir(tmp_path, gates=()), gate, ref)
    assert checks.check_sweep(
        _sweep_dir(tmp_path, failures=[{"eps": 1e-6, "reason": "x"}]),
        gate, ref)
    assert checks.check_sweep(
        _sweep_dir(tmp_path, row_scale=(2, "r_eps", 1.0001)), gate, ref)
    assert checks.check_sweep(
        _sweep_dir(tmp_path, row_scale=(0, "achieved_error", 300.0)),
        gate, ref)


def test_zero_count_check(tmp_path):
    radii = (20.0, 40.0, 100.0)
    good = [2 * math.floor(r / (2 * math.pi)) for r in radii]
    for counts, ok in ((good, True), (good[:2] + [good[2] - 2], False)):
        _write(tmp_path / "zeros.csv", "R,n,density\n" + "".join(
            f"{r},{n},{n / r}\n" for r, n in zip(radii, counts)))
        assert (checks.check_zero_counts(str(tmp_path)) == []) == ok


def _scan_report(intervals):
    intervals = tuple(intervals)
    return SmallSetReport(0.1, 20.0, sum(b - a for a, b in intervals),
                          len(intervals), intervals)


def test_indicator_scan_check():
    res, h = workloads.SCAN_RESOLUTION, 0.005
    want = checks.indicator_closed_form(0.1, 20.0, h)
    assert len(want) == 6
    assert checks.check_indicator_scan(_scan_report(want), res, h) == []
    assert checks.check_indicator_scan(_scan_report(want[1:]), res, h)
    shifted = [want[0]] + [(a + 1e-4, b) for a, b in want[1:]]
    assert checks.check_indicator_scan(_scan_report(shifted), res, h)


def test_gaussian_scan_check(tmp_path):
    report = {"r_eps": REF["smallset_gaussian"]["r_eps"],
              "interval_count": 0, "intervals": [], "measure_estimate": 0.0}
    _write(tmp_path / "smallset.json", report)
    assert checks.check_smallset_gaussian(
        str(tmp_path), REF["smallset_gaussian"]) == []
    report.update(interval_count=1, intervals=[[0.0, 0.01]],
                  measure_estimate=0.01)
    _write(tmp_path / "smallset.json", report)
    assert checks.check_smallset_gaussian(str(tmp_path),
                                          REF["smallset_gaussian"])


def test_analyze_kernel_check(tmp_path):
    ref = REF["analyze_kernel"]["two_sided_exp"]
    _write(tmp_path / "detector.json",
           {"superlinear": ref["superlinear"],
            "decade_ratio": ref["decade_ratio"]})
    for name, rows in ref["rows"].items():
        _write(tmp_path / name, "s,v\n" + "0,0\n" * rows)
    assert checks.check_analyze_kernel(str(tmp_path), ref) == []
    _write(tmp_path / "detector.json",
           {"superlinear": not ref["superlinear"],
            "decade_ratio": ref["decade_ratio"]})
    assert checks.check_analyze_kernel(str(tmp_path), ref)


def test_digest_ignores_only_manifest_timings(tmp_path):
    manifest = {"command": "zeros", "wall_clock_seconds": {"compute": 1.0}}
    _write(tmp_path / "manifest.json", manifest)
    _write(tmp_path / "zeros.csv", "R,n\n20,6\n")
    first = checks.digest(str(tmp_path))
    manifest["wall_clock_seconds"]["compute"] = 2.0
    _write(tmp_path / "manifest.json", manifest)
    assert checks.digest(str(tmp_path)) == first
    _write(tmp_path / "zeros.csv", "R,n\n20,8\n")
    assert checks.digest(str(tmp_path)) != first


def test_pairs_are_products_of_argument_sizes():
    signal = grid_signal.SampledSignal(0.0, 0.1, np.ones(5))
    tracer = tracing.Tracer()
    original = grid_signal.fourier_at
    tracer.install()
    try:
        tracer.begin_op(0)
        grid_signal.fourier_at(signal, np.linspace(0.0, 1.0, 7))
        transform = grid_signal.fourier_grid(signal, 0.5, 3)
        grid_signal.inverse_fourier(transform, 0.0, 0.1, 9)
        grid_signal.laplace_parts(signal, np.ones(4, dtype=complex))
    finally:
        tracer.uninstall()
    assert grid_signal.fourier_at is original
    work = [(s.name, s.work) for s in tracer.spans if s.name in tracing.SIZERS]
    assert work == [
        ("grid_signal.fourier_at", 7 * 5),
        ("grid_signal.fourier_grid", 7 * 5),
        ("grid_signal.fourier_at", 4 * 5),   # real signal: upper half only
        ("grid_signal.inverse_fourier", 9 * 7),
        ("grid_signal.laplace_parts", 4 * 5),
    ]
    index = next(i for i, s in enumerate(tracer.spans)
                 if s.name == "grid_signal.fourier_grid")
    grid = tracer.spans[index]
    assert [s.name for s in tracer.spans if s.parent == index] == [
        "grid_signal.fourier_at"]
    assert 0.0 <= grid.self_s <= grid.duration
    metrics = tracer.layer_metrics({0}, 1, 1.0, 0.0)
    assert metrics["grid_signal.fourier_at.pairs"] == 7 * 5 + 4 * 5
    assert metrics["grid_signal.fourier_at.calls"] == 2
    assert set(metrics) == {n for n, _u in spec.per_layer_metrics()}


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert fh.read() == spec.render_benchmark_json()
