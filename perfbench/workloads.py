"""Workload inputs and operation lists.

Inputs are the shipped configs under configs/ with the workload seed put in
their `seed` field (the splitmix64 stream behind the data noise); the
program sees only these generated config files.  Every operation is one
`cmd_*` call, the same body `deconv <command>` runs after argument parsing,
or one direct library scan.  Calls go through module attributes so that a
traced pass reaches the wrapped functions.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import checks

KERNELS = ("gaussian", "indicator", "two_sided_exp")
EPS = 1e-6
SCAN_RADIUS = 20.0
SCAN_RESOLUTION = SCAN_RADIUS / 2e4   # the resolution cmd_smallset uses


def write_configs(root: str, seed: int, out_dir: str) -> dict:
    """Shipped configs with the workload seed; returns name -> path."""
    paths = {}
    for name in KERNELS:
        with open(os.path.join(root, "configs", f"{name}.json"),
                  encoding="utf-8") as fh:
            data = json.load(fh)
        data["seed"] = seed
        paths[name] = os.path.join(out_dir, f"config-{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
    return paths


@dataclass
class Op:
    """One operation: run(out_dir) -> value; check(out_dir, value, exc)."""

    name: str
    run: Callable
    check: Callable
    sizes: dict = field(default_factory=dict)
    files: bool = True          # False: the returned value is the output


def _freq_samples(cfg, r_eps: float) -> int:
    g = cfg.grids
    return 2 * int(math.ceil(g.freq_extent_factor * r_eps / g.freq_step)) + 1


def _expect_ok(check):
    def wrapped(out_dir, value, exc):
        if exc is not None:
            return [f"raised {type(exc).__name__}: {exc}"]
        return check(out_dir, value)
    return wrapped


def build_ops(workload: str, configs: dict, reference: dict) -> list:
    """The operation list of one pass, with each op's problem sizes."""
    from deconv import commands, config, grid_signal, small_sets

    def kernel_len(name):
        return config.build_kernel(configs[name]).size

    def time_samples(name):
        return config.build_instance(configs[name]).time_grid()[2]

    if workload == "reconstruct":
        ops = []
        for name in ("gaussian", "indicator"):
            ref = reference["deconvolve"][name]
            ops.append(Op(
                f"deconvolve:{name}",
                lambda d, c=configs[name]: commands.cmd_deconvolve(c, d,
                                                                   eps=EPS),
                _expect_ok(lambda d, v, r=ref: checks.check_deconvolve(d, r)),
                {"kernel_len": kernel_len(name), "N": time_samples(name),
                 "M": _freq_samples(configs[name], ref["plan"]["r_eps"])}))
        return ops

    if workload == "sweep":
        ref = reference["sweep"]
        return [Op(
            "sweep:indicator",
            lambda d: commands.cmd_sweep(configs["indicator"], d),
            lambda d, v, exc: checks.check_sweep(d, exc, ref),
            {"kernel_len": kernel_len("indicator"),
             "N": time_samples("indicator"),
             "M": [_freq_samples(configs["indicator"], row["r_eps"])
                   for row in ref["rows"]]})]

    if workload == "scan":
        cfg = configs["indicator"]
        threshold = EPS ** cfg.beta

        def scan_indicator(_out_dir):
            kernel = config.build_kernel(cfg)
            return small_sets.measure_small_set(
                lambda lam: grid_signal.fourier_at(kernel, lam), threshold,
                SCAN_RADIUS, SCAN_RESOLUTION)

        scan_points = int(math.ceil(2 * SCAN_RADIUS / SCAN_RESOLUTION)) + 1
        return [
            Op("smallset:gaussian",
               lambda d: commands.cmd_smallset(configs["gaussian"], d,
                                               eps=EPS),
               _expect_ok(lambda d, v: checks.check_smallset_gaussian(
                   d, reference["smallset_gaussian"])),
               {"kernel_len": kernel_len("gaussian"), "M": scan_points}),
            Op("measure_small_set:indicator", scan_indicator,
               _expect_ok(lambda d, v: checks.check_indicator_scan(
                   v, SCAN_RESOLUTION, cfg.grids.t_step)),
               {"kernel_len": kernel_len("indicator"), "M": scan_points},
               files=False),
        ]

    if workload == "diagnostics":
        ops = [Op(f"analyze-kernel:{name}",
                  lambda d, c=configs[name]: commands.cmd_analyze_kernel(c, d),
                  _expect_ok(lambda d, v, r=reference["analyze_kernel"][name]:
                             checks.check_analyze_kernel(d, r)),
                  {"kernel_len": kernel_len(name)})
               for name in KERNELS]
        ops.append(Op("zeros:indicator",
                      lambda d: commands.cmd_zeros(configs["indicator"], d),
                      _expect_ok(lambda d, v: checks.check_zero_counts(d)),
                      {"kernel_len": kernel_len("indicator")}))
        return ops

    raise ValueError(f"unknown workload {workload!r}")


def record_reference(configs: dict, out_dir: str) -> dict:
    """Seed-independent reference values from one run of every command.

    The achieved errors are recorded at the configs' seed; checks allow
    the seed-to-seed spread derived in checks.py.
    """
    from deconv import commands
    from deconv.errors import AcceptanceGateError

    def sub(name):
        return os.path.join(out_dir, name)

    ref = {"deconvolve": {}, "analyze_kernel": {}}
    for name in ("gaussian", "indicator"):
        commands.cmd_deconvolve(configs[name], sub(f"d-{name}"), eps=EPS)
        plan = checks.load_json(os.path.join(sub(f"d-{name}"), "plan.json"))
        dec = checks.load_json(os.path.join(sub(f"d-{name}"),
                                             "decomposition.json"))
        ref["deconvolve"][name] = {
            "plan": {k: plan[k] for k in checks.PLAN_FIELDS},
            "terms": {k: dec[k] for k in checks.TERMS},
            "achieved_error": plan["achieved_error"]}

    try:
        commands.cmd_sweep(configs["indicator"], sub("sweep"))
    except AcceptanceGateError:
        pass
    ref["sweep"] = {"rows": [
        {k: float(row[k]) for k in ("eps",) + checks.PLAN_FIELDS
         + ("achieved_error",)}
        for row in checks.read_csv(os.path.join(sub("sweep"), "sweep.csv"))]}

    commands.cmd_smallset(configs["gaussian"], sub("smallset"), eps=EPS)
    ref["smallset_gaussian"] = {"r_eps": checks.load_json(
        os.path.join(sub("smallset"), "smallset.json"))["r_eps"]}

    for name in KERNELS:
        d = sub(f"ak-{name}")
        commands.cmd_analyze_kernel(configs[name], d)
        detector = checks.load_json(os.path.join(d, "detector.json"))
        ref["analyze_kernel"][name] = {
            "superlinear": detector["superlinear"],
            "decade_ratio": detector["decade_ratio"],
            "rows": {f: len(checks.read_csv(os.path.join(d, f)))
                     for f in ("profile.csv", "dual.csv")},
            "zeros": os.path.isfile(os.path.join(d, "zeros.csv"))}
    return ref
