"""Command bodies and the CLI wrapper: files, exit codes, determinism."""

import json
import math
import os
import random
import subprocess
import sys
import tempfile
import textwrap
import threading
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import deconv.commands as commands
import deconv.regularization as regularization
from deconv.cli import main
from deconv.commands import (GROWTH_CHECK_S, SWEEP_HEADER,
                             cmd_analyze_kernel, cmd_deconvolve, cmd_smallset,
                             cmd_sweep, cmd_zeros)
from deconv.config import load_config, parse_config
from deconv.errors import AcceptanceGateError, ConfigError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_config(kernel=None, eps_list=None):
    return {
        "kernel": kernel or {"type": "indicator", "a": 0.0, "b": 1.0},
        "f0": {"type": "synth_smooth"},
        "eps_list": eps_list or [1e-4, 1e-5, 1e-6, 1e-7],
        "beta": 0.2,
        "q": 1.0,
        "seed": 7,
        "grids": {"t_extent": 10.0, "t_step": 0.01,
                  "freq_extent_factor": 60.0, "freq_step": 0.01},
    }


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def read_json(out_dir, name):
    with open(out_dir / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_analyze_kernel_outputs(tmp_path):
    data = small_config()
    # the superlinearity detector spans s_hi/100 .. s_hi, so the indicator
    # profile needs a step finer than 1/100 of its unit support
    data["grids"]["t_step"] = 0.005
    cfg = parse_config(data)
    out = tmp_path / "out"
    manifest = cmd_analyze_kernel(cfg, str(out))
    for name in ("profile.csv", "dual.csv", "detector.json", "zeros.csv",
                 "zeros.json", "manifest.json"):
        assert (out / name).is_file()
    assert manifest["outputs"]["profile_csv"] == "profile.csv"
    # past the unit support the tail is unmeasurable: a saturated suffix
    rows = (out / "profile.csv").read_text().strip().split("\n")
    assert rows[0] == "s,p"
    assert rows[-1].endswith(",inf")
    detector = read_json(out, "detector.json")
    assert detector["superlinear"] is True  # compact support blows p up
    growth = detector["growth"]
    assert growth["s"] == list(GROWTH_CHECK_S)
    assert growth["divergent"] == [False, False]
    assert all(0.8 <= r <= 1.0 for r in growth["dual_ratio"])
    zeros = read_json(out, "zeros.json")
    assert abs(zeros["d_hat"] - zeros["predicted_d"]) <= 0.1


def test_analyze_kernel_skips_zeros_off_unit_support(tmp_path):
    cfg = parse_config(small_config(kernel={"type": "two_sided_exp",
                                            "rate": 1.0}))
    out = tmp_path / "out"
    manifest = cmd_analyze_kernel(cfg, str(out))
    assert not (out / "zeros.csv").exists()
    assert ("zero reports skipped: kernel support is not inside [0, 1]"
            in manifest["notes"])
    detector = read_json(out, "detector.json")
    assert detector["superlinear"] is False
    assert detector["growth"]["divergent"] == [True, True]


@pytest.mark.parametrize("kernel, nulls", [
    # the 0.01-step profile spans s_hi/100 .. s_hi in less than two decades
    ({"type": "indicator", "a": 0.0, "b": 1.0}, {"superlinear"}),
    # two samples: one finite profile node, no positive s and no G(s)
    ({"type": "file", "path": "kernel.csv"}, {"superlinear", "growth"})])
def test_analyze_kernel_writes_null_where_the_profile_cannot_decide(
        tmp_path, kernel, nulls):
    (tmp_path / "kernel.csv").write_text("t,re,im\n0.0,1.0,0.0\n"
                                         "0.5,1.0,0.0\n")
    cfg_path = write_config(tmp_path, small_config(kernel=kernel))
    out = tmp_path / "out"
    assert main(["analyze-kernel", "--config", cfg_path,
                 "--out", str(out)]) == 0
    for name in ("profile.csv", "dual.csv", "zeros.csv", "zeros.json"):
        assert (out / name).is_file()
    detector = read_json(out, "detector.json")
    verdict = [detector[k] for k in ("superlinear", "decade_ratio",
                                     "strictly_increasing")]
    assert verdict == [None] * 3
    assert (detector["growth"] is None) == ("growth" in nulls)
    notes = read_json(out, "manifest.json")["notes"]
    assert len(notes) == len(nulls)
    assert notes[0].startswith("superlinearity verdict not measured: ")


def test_zeros_json_predicts_density_from_its_own_exponents(tmp_path):
    # one growth profile feeds sigma_hat, mu_hat and predicted_d
    config = Path(__file__).resolve().parents[1] / "configs" / "indicator.json"
    out = tmp_path / "out"
    assert main(["analyze-kernel", "--config", str(config),
                 "--out", str(out)]) == 0
    zeros = read_json(out, "zeros.json")
    assert zeros["predicted_d"] == zeros["sigma_hat"] - zeros["mu_hat"]


def test_deconvolve_outputs(tmp_path):
    cfg = parse_config(small_config())
    out = tmp_path / "out"
    cmd_deconvolve(cfg, str(out), eps=1e-6, noise_free=True)
    plan = read_json(out, "plan.json")
    assert plan["eps"] == 1e-6
    assert plan["noise_free"] is True
    assert plan["achieved_error"] < 0.06
    dec = read_json(out, "decomposition.json")
    # the command raises unless the certificate holds; this one holds
    # with no rounding slack at all
    assert dec["achieved_sq_error"] <= dec["total_bound"]
    assert (out / "reconstruction.csv").is_file()


def test_manifest_records_the_heap_policy(tmp_path):
    out = tmp_path / "out"
    cmd_deconvolve(parse_config(small_config()), str(out), eps=1e-6,
                   noise_free=True)
    policy = read_json(out, "manifest.json")["heap_policy"]
    assert policy == commands._pin_heap_policy(commands._LIBC)
    assert policy in (None, {"mmap_threshold": 33554432,
                             "trim_threshold": 67108864})


def test_the_heap_policy_is_glibcs_ceiling():
    calls = []
    libc = types.SimpleNamespace(
        mallopt=lambda param, value: calls.append((param, value)) or 1)
    want = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}
    assert commands._pin_heap_policy(libc) == want
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD is -1 in glibc's malloc.h
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    assert commands._pin_heap_policy(commands._LIBC) in (None, want)


@pytest.mark.parametrize("libc", [
    None,  # no C library to load by name
    types.SimpleNamespace(),  # no mallopt (macOS, Windows)
    types.SimpleNamespace(mallopt=lambda param, value: 0),  # refused (musl)
], ids=["no-libc", "no-mallopt", "refused"])
def test_the_heap_policy_is_not_applied_without_mallopt(libc):
    assert commands._pin_heap_policy(libc) is None


def test_only_a_command_sets_the_heap_policy(tmp_path):
    # with ctypes.CDLL replaced by a recorder, importing every module of
    # the library calls no mallopt; one command then pins both thresholds
    code = textwrap.dedent("""
        import ctypes, importlib, json, pkgutil, sys, types
        calls = []
        def mallopt(param, value):
            calls.append([param, value])
            return 1
        ctypes.CDLL = lambda *args, **kwargs: types.SimpleNamespace(
            mallopt=mallopt)
        import deconv
        for module in pkgutil.iter_modules(deconv.__path__):
            importlib.import_module("deconv." + module.name)
        imported = list(calls)
        from deconv.commands import cmd_analyze_kernel
        from deconv.config import parse_config
        manifest = cmd_analyze_kernel(parse_config(json.loads(sys.argv[1])),
                                      sys.argv[2])
        print(json.dumps([imported, calls[len(imported):],
                          manifest["heap_policy"]]))
    """)
    config = small_config(kernel={"type": "two_sided_exp", "rate": 1.0})
    done = subprocess.run([sys.executable, "-c", code, json.dumps(config),
                           str(tmp_path / "out")], env=_src_env(),
                          check=True, capture_output=True, text=True,
                          timeout=120)
    imported, command, policy = json.loads(done.stdout)
    assert imported == []
    assert command == [[-3, 32 << 20], [-1, 64 << 20]]
    assert policy == {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}


def test_sweep_writes_everything_then_gates(tmp_path):
    cfg = parse_config(small_config())
    out = tmp_path / "out"
    # desk-scale radii sit far from the asymptotic regime, so the
    # log R / log log(1/eps) gate must fail while the files still land
    with pytest.raises(AcceptanceGateError, match="asymptotic_radius_ok"):
        cmd_sweep(cfg, str(out))
    summary = read_json(out, "summary.json")
    assert summary["gates"]["bounds_ok"] is True
    assert summary["gates"]["stability_ok"] is True
    assert summary["gates"]["valid"] is True
    assert summary["gates"]["asymptotic_radius_ok"] is False
    assert summary["bound_violations"] == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("eps,")
    assert len(lines) == 5
    assert (out / "manifest.json").is_file()


@pytest.mark.parametrize("name", ["gaussian", "indicator", "two_sided_exp"])
def test_shipped_sweeps_fail_only_the_asymptotic_radius_gate(tmp_path,
                                                             monkeypatch,
                                                             name):
    # the documented contract: every row computes, every certificate holds,
    # and only the gate no representable eps can pass fails
    sweeps = []

    def keeping(*args):
        sweeps.append(regularization.run_sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(commands, "run_sweep", keeping)
    with pytest.raises(AcceptanceGateError) as info:
        cmd_sweep(load_config(str(CONFIGS / f"{name}.json")), str(tmp_path))
    assert str(info.value) == "sweep gates failed: asymptotic_radius_ok"
    summary = read_json(tmp_path, "summary.json")
    assert summary["bound_violations"] == 0
    assert summary["failures"] == []
    # each CSV column read back, bit for bit, against the field it reports
    # (the records equal run_single per row, test_sweep_rows_equal_single_runs)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    (sweep,) = sweeps
    assert len(lines) == 1 + len(sweep.records)
    for r, line in zip(sweep.records, lines[1:]):
        want = (r.plan.eps, r.plan.s_eps, r.plan.delta, r.plan.r_eps,
                r.achieved_error, math.sqrt(r.total_bound),
                r.plan.rate_ref, r.achieved_error / r.plan.rate_ref,
                r.data_error)
        assert ([float(x).hex() for x in line.split(",")]
                == [w.hex() for w in want]), r.plan.eps


def _shrink_terms(monkeypatch, factor, eps=None):
    """Scale the certificate's three terms by factor, on every row or on the
    row at eps only: the two spectral sums and the plan's data term."""
    original = regularization.error_decomposition
    data_term = regularization.RegularizationPlan.data_term

    def scaled(plan):
        return factor if eps is None or plan.eps == eps else 1.0

    def shrunk(f0_hat, phi0_hat, plan):
        return tuple(scaled(plan) * term
                     for term in original(f0_hat, phi0_hat, plan))

    monkeypatch.setattr(regularization, "error_decomposition", shrunk)
    monkeypatch.setattr(regularization.RegularizationPlan, "data_term",
                        property(lambda plan: scaled(plan)
                                 * data_term.fget(plan)))


def test_sweep_counts_a_failed_certificate_as_a_bound_violation(
        tmp_path, monkeypatch):
    # the row is recorded, with its bound column below its error, and fails
    # bounds_ok instead of hiding among the failures
    _shrink_terms(monkeypatch, 1e-12, eps=1e-8)
    with pytest.raises(AcceptanceGateError, match="bounds_ok"):
        cmd_sweep(load_config(str(CONFIGS / "indicator.json")), str(tmp_path))
    summary = read_json(tmp_path, "summary.json")
    assert summary["bound_violations"] == 1
    assert summary["gates"]["bounds_ok"] is False
    assert summary["failures"] == []
    rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (5, 9)
    header = SWEEP_HEADER.split(",")
    row = rows[rows[:, 0] == 1e-8][0]
    assert row[header.index("achieved_error")] > row[header.index("bound")]


def test_deconvolve_writes_everything_then_fails_its_certificate(
        tmp_path, monkeypatch):
    _shrink_terms(monkeypatch, 0.0)
    out = tmp_path / "out"
    assert main(["deconvolve", "--config",
                 write_config(tmp_path, small_config()), "--out", str(out),
                 "--eps", "1e-6"]) == 3
    error = read_json(out, "error.json")
    assert error["error"] == "ValidationError"
    assert "certificate" in error["message"]
    for name in ("plan.json", "reconstruction.csv", "decomposition.json",
                 "manifest.json"):
        assert (out / name).is_file()
    dec = read_json(out, "decomposition.json")
    assert dec["total_bound"] == 0.0 < dec["achieved_sq_error"]


@pytest.mark.parametrize("t_extent, code", [(20.0, 3), (30.0, 0)])
def test_a_failed_certificate_names_the_time_window(tmp_path, t_extent,
                                                    code):
    # at q = 10 the synthetic f0 decays slowly: at t = +/-20 it is still
    # 6.8e-6 of its peak, and the part cut off the time grid outweighs the
    # certificate; at +/-30 it is 1.5e-9 and the certificate holds
    data = small_config(kernel={"type": "gaussian", "scale": 1.0},
                        eps_list=[1e-12])
    data.update(q=10.0, beta=0.05)
    data["grids"]["t_extent"] = t_extent
    out = tmp_path / "out"
    assert main(["deconvolve", "--config", write_config(tmp_path, data),
                 "--out", str(out)]) == code
    dec = read_json(out, "decomposition.json")
    assert (dec["achieved_sq_error"] > dec["total_bound"]) == (code == 3)
    if code == 3:
        message = read_json(out, "error.json")["message"]
        assert "certificate" in message and "grids.t_extent" in message
        assert "6.8e-06 of its peak" in message
        # the cut-off f0 leaves g0 itself far outside |g - g0|_2 <= eps
        assert math.isclose(dec["data_error"], 2.07e6 * 1e-12, rel_tol=0.01)
        assert "2.07e+06 eps" in message
        assert "outside the theorem's noise model" in message


def test_sweep_needs_four_levels(tmp_path):
    cfg = parse_config(small_config(eps_list=[1e-4, 1e-5, 1e-6]))
    with pytest.raises(ConfigError):
        cmd_sweep(cfg, str(tmp_path / "out"))


def test_smallset_outputs(tmp_path):
    cfg = parse_config(small_config())
    out = tmp_path / "out"
    manifest = cmd_smallset(cfg, str(out), eps=1e-8)
    assert "notes" not in manifest
    report = read_json(out, "smallset.json")
    assert report["eps"] == 1e-8
    assert report["interval_count"] == 0
    assert report["measure_estimate"] == 0.0
    # at r_eps <= 1 the Cartan ceiling exceeds 1, past the trivial 2 r_eps
    assert report["trivial_bound"] == 2.0 * report["r_eps"]
    assert report["bound"] > 1.0 > report["trivial_bound"]


def test_smallset_reports_a_loose_ceiling_without_a_note(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["smallset", "--config", cfg_path, "--out", str(out),
                     "--eps", "1e-6"]) == 0
        report = read_json(out, "smallset.json")
        assert report["r_eps"] < 1.0
        assert commands.cartan_bound(1.0, report["r_eps"]) == report["bound"]
    assert capsys.readouterr().err == ""
    assert "notes" not in read_json(out, "manifest.json")
    assert report["bound"] > report["trivial_bound"] == 2.0 * report["r_eps"]


def test_smallset_records_the_short_interval_warning(tmp_path, capsys,
                                                     monkeypatch):
    # r_eps is 0.168 here, so the scan step is 8.4e-6; a notch 2.4e-5 wide
    # at 0.1 is one sub-threshold interval shorter than four steps.  The
    # indicator's floor proves its set empty, so the stub floor lets the
    # notched transform reach the scan
    real = commands.fourier_at

    def notched(kernel, lam):
        lam = np.asarray(lam)
        return np.where(np.abs(lam - 0.1) < 1.2e-5, 0.0, real(kernel, lam))

    monkeypatch.setattr(commands, "fourier_at", notched)
    monkeypatch.setattr(commands, "_transform_floor", lambda kernel, r: 0.0)
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["smallset", "--config", cfg_path, "--out", str(out),
                     "--eps", "1e-6"]) == 0
    assert capsys.readouterr().err == ""
    assert read_json(out, "smallset.json")["interval_count"] == 1
    assert read_json(out, "manifest.json")["notes"] == [
        "1 sub-threshold interval(s) shorter than 4x the scan resolution: "
        "decrease resolution to rule out missed structure"]


SHIPPED = ("gaussian", "indicator", "two_sided_exp")
CONTRACT = ("analyze-kernel", "deconvolve", "smallset", "zeros")


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_small_sets_are_proved_empty(tmp_path, name):
    # at every eps of every shipped config the floor clears the threshold,
    # and the file says what the scan it skipped would have found
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    kernel = commands.build_kernel(cfg)
    for i, eps in enumerate(cfg.eps_list):
        out = tmp_path / str(i)
        cmd_smallset(cfg, str(out), eps=eps)
        report = read_json(out, "smallset.json")
        assert report["floor"] > report["threshold"]
        r = report["r_eps"]
        scanned = commands.measure_small_set(
            lambda lam: commands.fourier_at(kernel, lam), eps ** cfg.beta, r,
            r / 2e4).as_dict()
        assert {k: report[k] for k in scanned} == scanned


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("command", CONTRACT)
def test_shipped_configs_keep_the_command_contract(tmp_path, capsys, name,
                                                   command):
    # every command runs clean on every shipped config; zeros refuses the
    # two kernels with unbounded support, and analyze-kernel notes that it
    # skips their zero reports (sweep has its own test above)
    compact = name == "indicator"
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(out)])
    assert code == (2 if command == "zeros" and not compact else 0)
    if code:
        assert capsys.readouterr().err.count("\n") == 1
        return
    assert capsys.readouterr().err == ""
    notes = read_json(out, "manifest.json").get("notes", [])
    assert notes == ([] if compact or command != "analyze-kernel" else
                     ["zero reports skipped: kernel support is not inside "
                      "[0, 1]"])


def _warning_first(fn, message):
    """fn, warning `message` as a RuntimeWarning before each call."""
    def warned(*args, **kwargs):
        warnings.warn(message, RuntimeWarning)
        return fn(*args, **kwargs)
    return warned


@pytest.mark.parametrize("command, name", [
    ("analyze-kernel", "detect_superlinear"), ("deconvolve", "run_single"),
    ("zeros", "zero_density")])
def test_commands_note_warnings_instead_of_printing_them(
        tmp_path, capsys, monkeypatch, command, name):
    monkeypatch.setattr(commands, name,
                        _warning_first(getattr(commands, name), name))
    data = small_config()
    data["grids"]["t_step"] = 0.005  # the detector's two decades of s
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert read_json(out, "manifest.json")["notes"] == [name]


def test_sweep_notes_the_warnings_of_rows_on_both_threads(tmp_path, capsys,
                                                          monkeypatch):
    # with two CPUs the caller's first row waits until the helper thread
    # has taken a row, so both threads warn
    two = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1) > 1
    helper_started, real = threading.Event(), regularization.run_single

    def warned(instance, eps, seed=None, noise_free=False):
        helper = threading.current_thread() is not threading.main_thread()
        if helper:
            helper_started.set()
        elif two:
            helper_started.wait(timeout=60.0)
        warnings.warn(f"row {eps:g} on the {'helper' if helper else 'caller'}",
                      RuntimeWarning)
        return real(instance, eps, seed, noise_free)

    monkeypatch.setattr(regularization, "run_single", warned)
    data = small_config()
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 4
    assert capsys.readouterr().err.count("\n") == 1  # the gate line only
    notes = read_json(out, "manifest.json")["notes"]
    assert (sorted(note.split(" on ")[0] for note in notes)
            == sorted(f"row {eps:g}" for eps in data["eps_list"]))
    assert any(note.endswith("helper") for note in notes) == two


@pytest.mark.parametrize("command, freq_step", [
    ("deconvolve", 1e-7), ("sweep", 1e-7), ("deconvolve", 1e-320)])
def test_cli_refuses_an_oversized_grid_before_allocating_it(
        tmp_path, capsys, command, freq_step):
    # at freq_step 1e-7 the first gaussian row asks for 855,532,803
    # frequencies, 6.4 GiB for the grid alone, and at 1e-320 the count
    # overflows to inf; the refusal is size arithmetic, so the run's
    # traced peak stays below 32 MiB
    config = Path(__file__).resolve().parents[1] / "configs" / "gaussian.json"
    data = json.loads(config.read_text())
    data["grids"]["freq_step"] = freq_step
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([command, "--config", cfg_path, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 32 << 20
    err = read_json(out, "error.json")
    assert (err["error"], err["module"], err["operation"]) == (
        "ConfigError", "regularization", "run_single")
    assert "grids.freq_step" in err["message"]
    assert "grids.freq_extent_factor" in err["message"]
    assert capsys.readouterr().err.count("\n") == 1


def test_zeros_outputs_and_compactness_guard(tmp_path):
    cfg = parse_config(small_config())
    out = tmp_path / "out"
    cmd_zeros(cfg, str(out))
    lines = (out / "zeros.csv").read_text().strip().split("\n")
    assert lines[0] == "R,n,density"
    assert len(lines) == 6
    gauss = parse_config(small_config(kernel={"type": "gaussian",
                                              "scale": 1.0}))
    with pytest.raises(ConfigError):
        cmd_zeros(gauss, str(tmp_path / "out2"))


@pytest.mark.parametrize("command", [cmd_analyze_kernel, cmd_zeros])
def test_the_zero_count_is_timed_as_compute(tmp_path, monkeypatch, command):
    events = []
    count, stage = commands.zero_density, commands._Manifest.stage

    def counting(*args):
        events.append("zero_density")
        return count(*args)

    def staging(manifest, name):
        events.append(name)
        stage(manifest, name)

    monkeypatch.setattr(commands, "zero_density", counting)
    monkeypatch.setattr(commands._Manifest, "stage", staging)
    data = small_config()
    data["grids"]["t_step"] = 0.005
    manifest = command(parse_config(data), str(tmp_path / "out"))
    assert events == ["zero_density", "compute", "write"]
    assert list(manifest["wall_clock_seconds"]) == ["compute", "write"]


def test_zeros_propagates_unexpected_errors(tmp_path, monkeypatch):
    # only the documented refusals of growth_profile degrade to null
    # exponents; anything else is a bug and must surface
    def broken(kernel, radii):
        raise RuntimeError("boom")

    monkeypatch.setattr(commands, "growth_profile", broken)
    cfg = parse_config(small_config())
    with pytest.raises(RuntimeError, match="boom"):
        cmd_zeros(cfg, str(tmp_path / "out"))


def test_cli_success_exit_code(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    code = main(["deconvolve", "--config", cfg_path, "--out", str(out),
                 "--eps", "1e-6", "--noise-free"])
    assert code == 0
    assert (out / "manifest.json").is_file()
    assert not (out / "error.json").exists()


def test_cli_config_error_writes_error_json(tmp_path):
    bad = small_config()
    bad["beta"] = 0.5
    cfg_path = write_config(tmp_path, bad)
    out = tmp_path / "out"
    code = main(["smallset", "--config", cfg_path, "--out", str(out)])
    assert code == 2
    err = read_json(out, "error.json")
    assert err["error"] == "ConfigError"
    assert "beta" in err["message"]


def test_cli_smallset_saturation_exit_code(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    code = main(["smallset", "--config", cfg_path, "--out", str(out),
                 "--eps", "1e-305"])
    assert code == 3
    err = read_json(out, "error.json")
    assert err["error"] == "SaturationError"
    assert err["operation"] == "plan_radius"


def _off_lattice(data, folder):
    # 0.0033 is no multiple of the step: the indicator cannot be sampled
    data["kernel"] = {"type": "indicator", "a": 0.0, "b": 0.0033}
    data["grids"]["t_step"] = 0.005


def _eps_above_mass(data, folder):
    # the indicator of [0, 1] has l1 mass 1: no tail cutoff exists at eps 2
    data["eps_list"] = [2.0, 1e-5, 1e-6, 1e-7]


def _kernel_csv_not_numeric(data, folder):
    (folder / "kernel.csv").write_text("t,re,im\n0.0,1.0,0.0\n0.01,one,0.0\n")
    data["kernel"] = {"type": "file", "path": "kernel.csv"}


def _f0_csv_not_uniform(data, folder):
    (folder / "f0.csv").write_text("t,re,im\n0.0,1.0,0.0\n0.01,1.0,0.0\n"
                                   "0.03,1.0,0.0\n")
    data["f0"] = {"type": "file", "path": "f0.csv"}


def _narrow_frequency_grid(data, folder):
    # a frequency grid half as wide as r_eps cannot cover |lambda| <= r_eps
    data["grids"]["freq_extent_factor"] = 0.5


def _infinite_indicator_end(data, folder):
    data["kernel"] = {"type": "indicator", "a": 0.0, "b": math.inf}


def _past_the_alias_edge(data, folder):
    # 400 R_eps >= 51 is past pi / 0.1: the 0.1-step samples alias there
    data["grids"]["t_step"] = 0.1
    data["grids"]["freq_extent_factor"] = 400.0


def _subnormal_time_step(data, folder):
    # 10 / 1e-320 overflows to inf: neither the kernel nor the time grid
    # can be sampled, and no int() or allocation may see the count
    data["grids"]["t_step"] = 1e-320


def _empty_indicator(data, folder):
    data["kernel"] = {"type": "indicator", "a": 1.0, "b": 1.0}


def _zero_scale(data, folder):
    data["kernel"] = {"type": "gaussian", "scale": 0.0}


def _negative_rate(data, folder):
    data["kernel"] = {"type": "two_sided_exp", "rate": -1.0}


@pytest.mark.parametrize("edit,argv,operation", [
    (_off_lattice, ["deconvolve"], "build_kernel"),
    (_eps_above_mass, ["sweep"], "check_eps"),
    (None, ["deconvolve", "--eps", "1.5"], "check_eps"),
    (None, ["smallset", "--eps", "1.5"], "check_eps"),
    (_kernel_csv_not_numeric, ["deconvolve"], "build_kernel"),
    (_f0_csv_not_uniform, ["deconvolve"], "build_instance"),
    (_narrow_frequency_grid, ["deconvolve"], "load_config"),
    (_infinite_indicator_end, ["zeros"], "load_config"),
    (_subnormal_time_step, ["deconvolve"], "load_config"),
    (_subnormal_time_step, ["analyze-kernel"], "load_config"),
    (_past_the_alias_edge, ["deconvolve"], "run_single"),
    (_past_the_alias_edge, ["sweep"], "run_single"),
    (_empty_indicator, ["zeros"], "build_kernel"),
    (_zero_scale, ["smallset"], "build_kernel"),
    (_negative_rate, ["sweep"], "build_kernel"),
])
def test_cli_user_input_errors_exit_2(tmp_path, edit, argv, operation):
    data = small_config()
    if edit is not None:
        edit(data, tmp_path)
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    code = main([argv[0], "--config", cfg_path, "--out", str(out)] + argv[1:])
    assert code == 2
    err = read_json(out, "error.json")
    assert err["error"] == "ConfigError"
    assert err["operation"] == operation


def _eps_without_radius(data):
    # 0.5 < |phi0|_1 = 1, but 0.5^0.2 + 0.5 >= 1: the radius equation's
    # right side -log(eps^beta + eps) is not positive
    data["eps_list"] = [0.5, 1e-5, 1e-6, 1e-7]


@pytest.mark.parametrize("edit,argv", [
    (None, ["deconvolve", "--eps", "0.5"]),
    (None, ["smallset", "--eps", "0.5"]),
    (_eps_without_radius, ["sweep"]),
])
def test_cli_eps_without_radius_root_exits_2(tmp_path, edit, argv):
    data = small_config()
    if edit is not None:
        edit(data)
    cfg_path = write_config(tmp_path, data)
    out = tmp_path / "out"
    code = main([argv[0], "--config", cfg_path, "--out", str(out)] + argv[1:])
    assert code == 2
    err = read_json(out, "error.json")
    assert err["error"] == "ConfigError"
    assert err["operation"] == "check_eps"


def test_cli_gate_failure_exit_code(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    code = main(["sweep", "--config", cfg_path, "--out", str(out)])
    assert code == 4
    assert (out / "summary.json").is_file()
    err = read_json(out, "error.json")
    assert err["error"] == "AcceptanceGateError"


def test_cli_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code = main(["analyze-kernel", "--config", cfg_path, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("deconv: FileExistsError in cli.analyze-kernel: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out.read_text() == "not a directory\n"


def test_cli_unexpected_error_exits_5(tmp_path, monkeypatch, capsys):
    def broken(profile):
        raise RuntimeError("boom")

    monkeypatch.setattr(commands, "detect_superlinear", broken)
    cfg_path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    code = main(["analyze-kernel", "--config", cfg_path, "--out", str(out)])
    assert code == 5
    err = read_json(out, "error.json")
    assert err == {"error": "RuntimeError", "module": "cli",
                   "operation": "analyze-kernel", "message": "boom"}
    assert capsys.readouterr().err.count("\n") == 1


def test_reruns_are_byte_identical(tmp_path):
    cfg = parse_config(small_config())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cmd_smallset(cfg, str(out_a), eps=1e-6)
    cmd_smallset(cfg, str(out_b), eps=1e-6)
    assert ((out_a / "smallset.json").read_bytes()
            == (out_b / "smallset.json").read_bytes())

    exp = parse_config(small_config(kernel={"type": "two_sided_exp",
                                            "rate": 1.0}))
    out_c = tmp_path / "c"
    out_d = tmp_path / "d"
    cmd_analyze_kernel(exp, str(out_c))
    cmd_analyze_kernel(exp, str(out_d))
    for name in ("profile.csv", "dual.csv", "detector.json"):
        assert (out_c / name).read_bytes() == (out_d / name).read_bytes()
    # manifests agree except for the one intentionally variable block
    man_c = read_json(out_c, "manifest.json")
    man_d = read_json(out_d, "manifest.json")
    man_c.pop("wall_clock_seconds")
    man_d.pop("wall_clock_seconds")
    assert man_c == man_d


def _src_env(threads=None):
    """The environment for a subprocess importing deconv from this checkout,
    with BLAS capped at `threads` threads when that is given."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def _same_outputs_across_thread_counts(tmp_path, argv, code=0):
    """Run the CLI with BLAS on 1 and on 2 threads and compare every output
    file byte for byte, the manifests apart from their wall-clock timings;
    returns the file names."""
    config = Path(__file__).resolve().parents[1] / "configs"
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        done = subprocess.run([sys.executable, "-m", "deconv.cli", argv[0],
                               "--config", str(config / argv[1]),
                               "--out", str(out), *argv[2:]],
                              env=_src_env(threads), capture_output=True,
                              timeout=300)
        assert done.returncode == code, done.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name == "manifest.json":
            a, b = (read_json(out, name) for out in outs)
            a.pop("wall_clock_seconds")
            b.pop("wall_clock_seconds")
            assert a == b
        else:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    return names


def test_deconvolve_bytes_do_not_depend_on_thread_count(tmp_path):
    # BLAS reductions round differently with the thread count, so every
    # output byte must come from code that does not reach them
    _same_outputs_across_thread_counts(
        tmp_path, ["deconvolve", "gaussian.json", "--eps", "1e-6"])


@pytest.mark.parametrize("command", ["analyze-kernel", "zeros"])
def test_diagnostics_bytes_do_not_depend_on_thread_count(tmp_path, command):
    # the Young dual and the contour sums are elementwise: no BLAS reduction
    assert "zeros.json" in _same_outputs_across_thread_counts(
        tmp_path, [command, "indicator.json"])


@pytest.mark.parametrize("command, code, output", [
    ("sweep", 4, "sweep.csv"), ("smallset", 0, "smallset.json")])
def test_pipeline_bytes_do_not_depend_on_thread_count(tmp_path, command,
                                                      code, output):
    # chirp-z sums and elementwise reductions only; the sweep exits 4 by
    # design (criterion 3) and still writes its files
    assert output in _same_outputs_across_thread_counts(
        tmp_path, [command, "indicator.json"], code)


def test_cli_import_stays_light():
    # start-up cost: the CLI and the command bodies it loads must not pull
    # in scipy or numpy's FFT, which the chirp-z path reaches at call time
    code = ("import sys, deconv.cli, deconv.commands; "
            "print(sorted(m for m in ('scipy', 'numpy.fft') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          check=True, capture_output=True, text=True,
                          timeout=60)
    assert done.stdout.strip() == "[]"


def random_run(rng):
    """A small random config and command line, as wide as the CLI admits:
    any kernel, beta, q, 2 to 6 eps levels in (1e-18, 0.3) and grids; many
    are refused, which is part of what is tested."""
    t_step = rng.choice([0.005, 0.01, 0.02, 0.05, 0.1])
    kind = rng.choice(["indicator", "gaussian", "two_sided_exp"])
    if kind == "indicator":
        a = t_step * rng.randint(-100, 100)
        kernel = {"type": kind, "a": a, "b": a + t_step * rng.randint(2, 400)}
    elif kind == "gaussian":
        kernel = {"type": kind, "scale": rng.uniform(0.2, 3.0)}
    else:
        kernel = {"type": kind, "rate": rng.uniform(0.2, 5.0)}
    log_eps = (-18.0, math.log10(0.3))
    eps = sorted({10.0 ** rng.uniform(*log_eps)
                  for _ in range(rng.randint(2, 6))}, reverse=True)
    data = {"kernel": kernel, "f0": {"type": "synth_smooth"},
            "eps_list": eps, "beta": rng.uniform(0.01, 0.33),
            "q": rng.uniform(0.51, 8.0), "seed": rng.randint(0, 1000),
            "grids": {"t_extent": rng.uniform(1.0, 40.0), "t_step": t_step,
                      "freq_extent_factor": 10.0 ** rng.uniform(0.2, 3.3),
                      "freq_step": 10.0 ** rng.uniform(-2.4, -0.3)}}
    argv = [rng.choice(["analyze-kernel", "deconvolve", "sweep", "smallset",
                        "zeros"])]
    if argv[0] == "deconvolve" and rng.random() < 0.5:
        argv += ["--eps", repr(10.0 ** rng.uniform(*log_eps))]
    return data, argv


@settings(max_examples=250, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_configs_exit_cleanly_and_certify_inside_the_noise_model(seed):
    # no run is a bug (exit 5), every failure leaves error.json, and a
    # reconstruction whose data keep |g_eps - g0|_2 <= eps, the theorem's
    # noise model, holds its certificate: a deconvolve run exits 3 after
    # writing decomposition.json only when the certificate fails.  The
    # configs are drawn uniformly from a seed, not by hypothesis's own
    # strategies, which favour their simplest values
    data, argv = random_run(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = main(argv + ["--config", write_config(Path(tmp), data),
                            "--out", str(out)])
        assert code != 5, (data, argv)
        assert code == 0 or (out / "error.json").is_file(), (data, argv)
        if (out / "decomposition.json").is_file():
            dec, plan = (read_json(out, "decomposition.json"),
                         read_json(out, "plan.json"))
            if dec["data_error"] <= plan["eps"]:
                assert code == 0, (data, argv, dec)
