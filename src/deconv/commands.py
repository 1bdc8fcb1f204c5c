"""Command bodies behind the CLI: compute, persist reports, record a manifest.

Every command writes its files atomically into the output directory and
finishes with a manifest.json naming them.  All numeric CSV fields use 17
significant digits, so identical (config, seed) pairs reproduce identical
bytes; the manifest's wall_clock_seconds block is the one intentionally
non-reproducible record.  As each command starts, its manifest pins the heap
policy (see _pin_heap_policy) and records it; importing the library does not.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .config import (ExperimentConfig, build_instance, build_kernel,
                     check_eps, config_echo)
from .entire_diagnostics import (growth_profile, supported_in_unit_interval,
                                 zero_density)
from .errors import (AcceptanceGateError, ComputationError, ConfigError,
                     ValidationError)
from .fileio import atomic_write_text, write_csv
from .grid_signal import _transform_floor, fourier_at, write_signal_csv
from .kernels import default_profile_grid
from .regularization import (ErrorDecomposition, RegularizationPlan,
                             plan_radius, run_single, run_sweep)
from .small_sets import SmallSetReport, cartan_bound, measure_small_set
from .tail_profile import (detect_superlinear, growth_check, tail_mass_profile,
                           young_dual)

DUAL_GRID_STEP = 0.01
DUAL_GRID_MAX = 64.0
ZERO_RADII = (20.0, 40.0, 60.0, 80.0, 100.0)
GROWTH_CHECK_S = (20.0, 40.0)  # criterion 5's points
GROWTH_RADII_COUNT = 40
GROWTH_RADII_MAX = 400.0

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt's, from glibc's malloc.h


def _clean(obj):
    """JSON-safe copy: non-finite floats become null."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(_clean(obj), indent=2, sort_keys=True)
                      + "\n")


def _pin_heap_policy(libc):
    """Pin libc's mmap threshold at glibc's dynamic ceiling and the trim
    threshold at twice it, so the scratch numpy's FFT frees on every call
    stays for the next transform; the values applied, or None where libc
    has no mallopt or refuses either value.  No arithmetic depends on it."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mmap = 32 << 20  # glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit
    if not (mallopt(_M_MMAP_THRESHOLD, mmap)
            and mallopt(_M_TRIM_THRESHOLD, 2 * mmap)):
        return None
    return {"mmap_threshold": mmap, "trim_threshold": 2 * mmap}


# The process's C library.  Loading it at import sets nothing, and each
# command then pays for its two mallopt calls only, not for a dlopen.
try:
    _LIBC = ctypes.CDLL(None)
except (OSError, TypeError):  # no C library to load by name (Windows)
    _LIBC = None


class _Manifest(warnings.catch_warnings):
    """Collects outputs, stage timings and notes; written last, inside its
    `with` block.  Every warning raised in the block, on any thread,
    becomes a note instead of a line on stderr.  Entering the block applies
    the heap policy anew, which takes microseconds."""

    def __init__(self, command: str, config: ExperimentConfig, out_dir: str):
        super().__init__(record=True)
        self.command = command
        self.config = config
        self.out_dir = out_dir
        self.outputs = {}
        self.timings = {}
        self.notes = []
        self._t0 = time.perf_counter()
        os.makedirs(out_dir, exist_ok=True)

    def __enter__(self):
        self._heap_policy = _pin_heap_policy(_LIBC)
        self._caught = super().__enter__()
        warnings.simplefilter("always")
        return self

    def stage(self, name: str) -> None:
        now = time.perf_counter()
        self.timings[name] = now - self._t0
        self._t0 = now

    def path(self, key: str, basename: str) -> str:
        self.outputs[key] = basename
        return os.path.join(self.out_dir, basename)

    def write(self) -> dict:
        data = {
            "command": self.command,
            "config": config_echo(self.config),
            "heap_policy": self._heap_policy,
            "outputs": self.outputs,
            "versions": {
                "deconv": __version__,
                "numpy": np.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "wall_clock_seconds": self.timings,
        }
        self.notes.extend(str(w.message) for w in self._caught)
        if self.notes:
            data["notes"] = self.notes
        _write_json(os.path.join(self.out_dir, "manifest.json"), data)
        return data


def _plan_dict(plan: RegularizationPlan) -> dict:
    return {"eps": plan.eps, "beta": plan.beta, "q": plan.q, "c1": plan.c1,
            "c2": plan.c2, "delta": plan.delta, "s_eps": plan.s_eps,
            "r_eps": plan.r_eps}


def _decomposition_dict(d: ErrorDecomposition) -> dict:
    return {"outer_term": d.outer_term, "inner_term": d.inner_term,
            "data_term": d.data_term, "total_bound": d.total_bound,
            "achieved_sq_error": d.achieved_sq_error,
            "data_error": d.data_error}


def _zero_reports(kernel):
    """Zero-count table and growth exponents; NaN exponents when the growth
    profile cannot read them."""
    report = zero_density(kernel, np.array(ZERO_RADII))
    try:
        growth = growth_profile(
            kernel, np.linspace(10.0, GROWTH_RADII_MAX, GROWTH_RADII_COUNT))
        sigma_hat, mu_hat = growth.sigma_hat, growth.mu_hat
    except (ValidationError, ComputationError):
        sigma_hat = mu_hat = math.nan
    return report, sigma_hat, mu_hat


def _write_zero_reports(zeros, manifest: _Manifest) -> None:
    report, sigma_hat, mu_hat = zeros
    write_csv(manifest.path("zeros_csv", "zeros.csv"), "R,n,density",
              (report.radii, report.counts, report.densities))
    _write_json(manifest.path("zeros_json", "zeros.json"),
                {"sigma_hat": sigma_hat, "mu_hat": mu_hat,
                 "d_hat": report.d_hat, "predicted_d": sigma_hat - mu_hat})


def _detector(manifest: _Manifest, kernel, profile, dual) -> dict:
    """The superlinearity verdict and the growth-dual identities at
    GROWTH_CHECK_S; a part the profile cannot support is null, and a note
    says why."""
    report = dict.fromkeys(("superlinear", "decade_ratio",
                            "strictly_increasing", "growth"))
    try:
        verdict = detect_superlinear(profile)
    except ValidationError as exc:
        manifest.notes.append(f"superlinearity verdict not measured: {exc}")
    else:
        report.update(superlinear=verdict.verdict,
                      decade_ratio=verdict.decade_ratio,
                      strictly_increasing=verdict.strictly_increasing)
    try:
        check = growth_check(kernel, profile, dual, GROWTH_CHECK_S)
    except ValidationError as exc:
        manifest.notes.append(f"growth check not measured: {exc}")
    else:
        report["growth"] = {
            "s": check.s.tolist(), "dual_ratio": check.dual_ratio.tolist(),
            "shifted_ratio": check.shifted_ratio.tolist(),
            "moment_gap": check.moment_gap.tolist(),
            "divergent": check.divergent.tolist(),
            "truncation_dominated": check.truncation_dominated.tolist()}
    return report


def cmd_analyze_kernel(config: ExperimentConfig, out_dir: str) -> dict:
    """Tail profile, Young dual, superlinearity verdict and the growth-dual
    identities; zero reports when the kernel is compactly supported inside
    [0, 1]."""
    with _Manifest("analyze-kernel", config, out_dir) as manifest:
        kernel = build_kernel(config)
        profile = tail_mass_profile(kernel, default_profile_grid(kernel))
        dual = young_dual(profile,
                          np.arange(0.0, DUAL_GRID_MAX + 0.5 * DUAL_GRID_STEP,
                                    DUAL_GRID_STEP))
        detector = _detector(manifest, kernel, profile, dual)
        zeros = (_zero_reports(kernel) if supported_in_unit_interval(kernel)
                 else None)
        manifest.stage("compute")

        write_csv(manifest.path("profile_csv", "profile.csv"), "s,p",
                  (profile.s_grid, profile.p_values))
        write_csv(manifest.path("dual_csv", "dual.csv"), "s,pstar",
                  (dual.s_grid, dual.dual_values))
        _write_json(manifest.path("detector_json", "detector.json"), detector)
        if zeros is None:
            manifest.notes.append("zero reports skipped: kernel support is "
                                  "not inside [0, 1]")
        else:
            _write_zero_reports(zeros, manifest)
        manifest.stage("write")
        return manifest.write()


def cmd_deconvolve(config: ExperimentConfig, out_dir: str, eps: float = None,
                   noise_free: bool = False) -> dict:
    """One reconstruction at a single eps (default: first of eps_list); a
    failed certificate is raised once every file is on disk."""
    with _Manifest("deconvolve", config, out_dir) as manifest:
        instance = build_instance(config)
        eps = check_eps(config.eps_list[0] if eps is None else eps,
                        instance.profile.l1_total, config.beta)
        result = run_single(instance, eps, noise_free=noise_free)
        manifest.stage("compute")

        plan = _plan_dict(result.plan)
        plan["noise_free"] = noise_free
        plan["achieved_error"] = result.achieved_error
        _write_json(manifest.path("plan_json", "plan.json"), plan)
        write_signal_csv(manifest.path("reconstruction_csv",
                                       "reconstruction.csv"), result.f_eps)
        _write_json(manifest.path("decomposition_json", "decomposition.json"),
                    _decomposition_dict(result.decomposition))
        manifest.stage("write")
        written = manifest.write()
        if not result.decomposition.holds:
            gap, f0 = result.decomposition.data_error, np.abs(result.f0.values)
            outside = (": the data are outside the theorem's noise model "
                       "|g_eps - g0|_2 <= eps" if gap > eps else "")
            raise ValidationError(
                "achieved squared error exceeds its certificate; the data error"
                f" |g_eps - g0|_2 = {gap:.2g} is {gap / eps:.3g} eps{outside}. "
                f"f0 at +/-grids.t_extent = {config.grids.t_extent:g} is "
                f"{max(f0[0], f0[-1]) / np.max(f0):.2g} of its peak, and a "
                "larger grids.t_extent keeps more of it on the time grid",
                module="commands", operation="cmd_deconvolve")
        return written


SWEEP_HEADER = ("eps,s_eps,delta,r_eps,achieved_error,bound,rate_ref,c3_row,"
                "data_error")


def cmd_sweep(config: ExperimentConfig, out_dir: str) -> dict:
    """Noise-level sweep; exit status reflects the acceptance gates.

    All files are written before any gate failure is raised, so a failing
    sweep still leaves its full evidence on disk.
    """
    if len(config.eps_list) < 4:
        raise ConfigError("sweep needs an eps_list of at least 4 levels",
                          module="commands", operation="cmd_sweep")
    with _Manifest("sweep", config, out_dir) as manifest:
        instance = build_instance(config)
        sweep = run_sweep(instance, config.eps_list)
        manifest.stage("compute")

        rows = [(r.plan.eps, r.plan.s_eps, r.plan.delta, r.plan.r_eps,
                 r.achieved_error, r.bound, r.plan.rate_ref, r.c3_row,
                 r.decomposition.data_error)
                for r in sweep.records]
        write_csv(manifest.path("sweep_csv", "sweep.csv"), SWEEP_HEADER,
                  np.array(rows, dtype=np.float64).reshape(len(rows), 9).T)
        gates = {
            "stability_ok": sweep.c3_stability <= 10.0,
            "inversions_ok": sweep.inversions <= 1,
            "bounds_ok": sweep.bound_violations == 0,
            "asymptotic_radius_ok": abs(sweep.logr_over_loglog - 1.0) <= 0.15,
            "valid": not sweep.invalid,
        }
        summary = {
            "c3_fit": sweep.c3_fit,
            "c3_stability": sweep.c3_stability,
            "logR_over_loglog": sweep.logr_over_loglog,
            "inversions": sweep.inversions,
            "bound_violations": sweep.bound_violations,
            "invalid": sweep.invalid,
            "failures": [{"eps": e, "reason": r} for e, r in sweep.failures],
            "gates": gates,
        }
        _write_json(manifest.path("summary_json", "summary.json"), summary)
        manifest.stage("write")
        manifest.write()
        failed = sorted(name for name, ok in gates.items() if not ok)
        if failed:
            raise AcceptanceGateError(
                f"sweep gates failed: {', '.join(failed)}",
                module="commands", operation="cmd_sweep")
        return summary


def cmd_smallset(config: ExperimentConfig, out_dir: str,
                 eps: float = None) -> dict:
    """The sub-threshold frequency set at one eps, beside its two bounds."""
    with _Manifest("smallset", config, out_dir) as manifest:
        kernel = build_kernel(config)
        profile = tail_mass_profile(kernel, default_profile_grid(kernel))
        eps = check_eps(config.eps_list[0] if eps is None else eps,
                        profile.l1_total, config.beta)
        _, r_eps = plan_radius(eps, config.beta, config.q, profile)
        threshold = eps ** config.beta
        floor = _transform_floor(kernel, r_eps)  # above threshold: B is empty
        report = (SmallSetReport(threshold, r_eps, 0.0, 0, ())
                  if floor > threshold else
                  measure_small_set(lambda lam: fourier_at(kernel, lam),
                                    threshold, r_eps, r_eps / 2e4))
        bound = cartan_bound(config.q, r_eps)
        manifest.stage("compute")

        _write_json(manifest.path("smallset_json", "smallset.json"),
                    dict(report.as_dict(), eps=eps, bound=bound,
                         trivial_bound=2.0 * r_eps, floor=floor))
        manifest.stage("write")
        return manifest.write()


def cmd_zeros(config: ExperimentConfig, out_dir: str) -> dict:
    """Zero-count table; compact-support kernels only."""
    with _Manifest("zeros", config, out_dir) as manifest:
        kernel = build_kernel(config)
        if kernel.truncation_tail != 0.0:
            raise ConfigError("zeros requires a compact-support kernel: the "
                              "transform is entire only then",
                              module="commands", operation="cmd_zeros")
        zeros = _zero_reports(kernel)
        manifest.stage("compute")
        _write_zero_reports(zeros, manifest)
        manifest.stage("write")
        return manifest.write()
