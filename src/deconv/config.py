"""Experiment configuration: JSON schema, validation, instance building.

Hypothesis violations (beta outside (0, 1/3), q <= 1/2, non-decreasing
eps_list) are rejected here, before any computation starts.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError, ValidationError
from .grid_signal import _CHIRP_LIMIT, SampledSignal, read_signal_csv
from .kernels import (default_profile_grid, make_gaussian, make_indicator,
                      make_two_sided_exp)
from .tail_profile import TailProfile, tail_mass_profile

# each kernel type's parameters and the maker that samples them at the time
# step, refusing b <= a and scale or rate <= 0; a file kernel is read instead
_KERNELS = {
    "indicator": (("a", "b"), make_indicator),
    "gaussian": (("scale",), make_gaussian),
    "two_sided_exp": (("rate",), make_two_sided_exp),
    "file": (("path",), None),
}
_F0_PARAMS = {
    "synth_smooth": (),
    "file": ("path",),
}


@dataclass(frozen=True)
class GridSpec:
    """A run's grids: time [-t_extent, t_extent] at t_step; frequency
    freq_step * (-h .. h), h = ceil(freq_extent_factor*R_eps/freq_step) <= 2^62."""

    t_extent: float
    t_step: float
    freq_extent_factor: float
    freq_step: float

    def half_count(self, r_eps: float) -> int:
        h = self.freq_extent_factor * r_eps / self.freq_step
        return int(math.ceil(min(h, 2.0 ** 62)))  # an infinite h included


_GRID_KEYS = tuple(f.name for f in fields(GridSpec))
_TOP_KEYS = {"kernel", "f0", "eps_list", "beta", "q", "seed", "grids"}


@dataclass(frozen=True)
class ExperimentConfig:
    kernel: dict
    f0: dict
    eps_list: tuple
    beta: float
    q: float
    seed: int
    grids: GridSpec
    base_dir: str = "."  # file-type specs resolve relative to the config file


def _fail(msg: str) -> ConfigError:
    return ConfigError(msg, module="config", operation="load_config")


def _typed_spec(raw, kind: str, allowed: dict) -> dict:
    """raw with one allowed type and its parameters: numbers, or a path."""
    if not isinstance(raw, dict) or "type" not in raw:
        raise _fail(f"{kind} must be an object with a 'type' field")
    typ = raw["type"]
    if not isinstance(typ, str) or typ not in allowed:
        raise _fail(f"unknown {kind} type {typ!r}: expected one of "
                    f"{sorted(allowed)}")
    extra = set(raw) - {"type"} - set(allowed[typ])
    if extra:
        raise _fail(f"{kind} type {typ!r} does not take {sorted(extra)}")
    missing = set(allowed[typ]) - set(raw)
    if missing:
        raise _fail(f"{kind} type {typ!r} requires {sorted(missing)}")
    for name in allowed[typ]:
        if name != "path":
            _number(raw[name], f"{kind}.{name}")
        elif not isinstance(raw[name], str):
            raise _fail(f"{kind}.path must be a string")
    return dict(raw)


def _number(value, name: str) -> float:
    """A finite JSON number as a float; true and false are not numbers
    here, and neither are the Infinity and NaN that Python's json reads
    nor an integer too long for a float."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not abs(value) <= sys.float_info.max):
        raise _fail(f"{name} must be a finite number")
    return float(value)


def _positive(value, name: str) -> float:
    v = _number(value, name)
    if not v > 0.0:
        raise _fail(f"{name} must be positive and finite")
    return v


def parse_config(data: dict, base_dir: str = ".") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise _fail("config root must be a JSON object")
    extra = set(data) - _TOP_KEYS
    if extra:
        raise _fail(f"unknown config keys {sorted(extra)}")
    missing = _TOP_KEYS - set(data)
    if missing:
        raise _fail(f"missing config keys {sorted(missing)}")

    kernel = _typed_spec(data["kernel"], "kernel",
                         {typ: names for typ, (names, _) in _KERNELS.items()})
    f0 = _typed_spec(data["f0"], "f0", _F0_PARAMS)

    eps_raw = data["eps_list"]
    if not isinstance(eps_raw, list) or not eps_raw:
        raise _fail("eps_list must be a nonempty array of numbers")
    eps_list = tuple(_positive(e, "each eps_list entry") for e in eps_raw)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise _fail("eps_list must be strictly decreasing")

    beta = _positive(data["beta"], "beta")
    if not (beta < 1.0 / 3.0):
        raise _fail("beta must lie strictly inside (0, 1/3)")
    q = _positive(data["q"], "q")
    if not (q > 0.5):
        raise _fail("q must exceed 1/2")

    seed = data["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise _fail("seed must be a nonnegative integer")
    if seed + len(eps_list) - 1 >= 1 << 64:
        # sweep row i draws from seed + i, and the noise stream keeps only
        # the low 64 bits: a larger seed would alias a smaller one
        raise _fail("seed + len(eps_list) - 1 must be below 2^64")

    grids_raw = data["grids"]
    if not isinstance(grids_raw, dict) or set(grids_raw) != set(_GRID_KEYS):
        raise _fail(f"grids must contain exactly {sorted(_GRID_KEYS)}")
    grids = GridSpec(*(_positive(grids_raw[k], f"grids.{k}")
                       for k in _GRID_KEYS))
    if grids.t_step >= grids.t_extent:
        raise _fail("grids.t_step must be smaller than grids.t_extent")
    if not 2.0 * (grids.t_extent / grids.t_step) + 1.0 < _CHIRP_LIMIT:
        raise _fail("grids.t_extent / grids.t_step asks for a time grid of "
                    "2^26 samples or more, the chirp-z limit")
    if 2.0 * math.pi / grids.freq_step < 2.0 * grids.t_extent:
        raise _fail("grids.freq_step must be at most pi / grids.t_extent: "
                    "f0 wraps in time at period 2 pi / grids.freq_step")
    if not grids.freq_extent_factor > 1.0:
        raise _fail("grids.freq_extent_factor must exceed 1: the frequency "
                    "grid has to cover |lambda| <= r_eps")

    return ExperimentConfig(kernel, f0, eps_list, beta, q, seed, grids,
                            base_dir)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _fail(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _fail(f"config file {path} is not valid JSON: {exc}")
    return parse_config(data, os.path.dirname(os.path.abspath(path)))


def config_echo(config: ExperimentConfig) -> dict:
    """The validated configuration as plain JSON-ready data."""
    return {k: v for k, v in asdict(config).items() if k != "base_dir"}


def check_eps(eps, l1_total: float, beta: float) -> float:
    """eps as a float; ConfigError unless 0 < eps < |phi0|_1 (a cutoff exists)
    and eps^beta + eps < 1 (the radius equation has a positive right side)."""
    eps = float(eps)
    if not 0.0 < eps < l1_total:
        raise ConfigError(f"eps {eps!r} must lie in (0, |phi0|_1 = {l1_total!r})",
                          module="config", operation="check_eps")
    if eps ** beta + eps >= 1.0:
        raise ConfigError(f"eps {eps!r} gives eps^beta + eps >= 1 at beta "
                          f"{beta!r}: no frequency radius exists",
                          module="config", operation="check_eps")
    return eps


def _read_signal_file(config: ExperimentConfig, spec: dict, what: str,
                      operation: str) -> SampledSignal:
    """The t,re,im CSV a file-type spec names, relative to the config file;
    a missing or malformed file is a ConfigError."""
    path = os.path.join(config.base_dir, spec["path"])
    if not os.path.isfile(path):
        raise ConfigError(f"{what} file {path} does not exist",
                          module="config", operation=operation)
    try:
        return read_signal_csv(path)
    except (ValidationError, ValueError) as exc:
        raise ConfigError(f"{what} file {path} cannot be read: {exc}",
                          module="config", operation=operation) from exc


def build_kernel(config: ExperimentConfig) -> SampledSignal:
    """The sampled kernel; a spec its maker refuses at the time step (b <= a,
    scale or rate <= 0, a grid past the chirp-z limit) is a ConfigError."""
    spec = config.kernel
    names, maker = _KERNELS[spec["type"]]
    if maker is None:
        return _read_signal_file(config, spec, "kernel", "build_kernel")
    try:
        return maker(*(float(spec[name]) for name in names),
                     step=config.grids.t_step)
    except ValidationError as exc:
        raise ConfigError(f"kernel cannot be sampled: {exc}",
                          module="config", operation="build_kernel") from exc


@dataclass(frozen=True)
class SweepInstance:
    """A fully specified synthetic experiment, minus the noise level."""

    kernel: SampledSignal
    profile: TailProfile
    q: float
    beta: float
    grids: GridSpec
    base_seed: int
    f0_signal: SampledSignal = None  # optional measured unknown; else synthetic

    def time_grid(self) -> tuple[float, float, int]:
        g = self.grids
        return -g.t_extent, g.t_step, 2 * int(round(g.t_extent / g.t_step)) + 1


def build_instance(config: ExperimentConfig) -> SweepInstance:
    kernel = build_kernel(config)
    profile = tail_mass_profile(kernel, default_profile_grid(kernel))
    check_eps(config.eps_list[0], profile.l1_total, config.beta)  # the largest
    f0_signal = None
    if config.f0["type"] == "file":
        f0_signal = _read_signal_file(config, config.f0, "f0",
                                      "build_instance")
    return SweepInstance(
        kernel=kernel,
        profile=profile,
        q=config.q,
        beta=config.beta,
        grids=config.grids,
        base_seed=config.seed,
        f0_signal=f0_signal,
    )
