"""Config schema validation and instance building."""

import json
import math

import numpy as np
import pytest

from deconv.config import (build_instance, build_kernel, config_echo,
                           load_config, parse_config)
from deconv.errors import ConfigError
from deconv.grid_signal import SampledSignal, write_signal_csv


def good_config():
    return {
        "kernel": {"type": "indicator", "a": 0.0, "b": 1.0},
        "f0": {"type": "synth_smooth"},
        "eps_list": [1e-4, 1e-6],
        "beta": 0.2,
        "q": 1.0,
        "seed": 7,
        "grids": {"t_extent": 10.0, "t_step": 0.01,
                  "freq_extent_factor": 60.0, "freq_step": 0.01},
    }


def test_valid_config_parses():
    # the largest seed whose rows (seed, seed + 1) all fit in 64 bits
    assert parse_config(dict(good_config(), seed=2 ** 64 - 2)).seed == 2 ** 64 - 2
    cfg = parse_config(good_config())
    assert cfg.kernel["type"] == "indicator"
    assert cfg.eps_list == (1e-4, 1e-6)
    assert cfg.grids.freq_extent_factor == 60.0
    # the echo as the manifest writes it: JSON arrays for tuples
    assert json.loads(json.dumps(config_echo(cfg))) == good_config()


@pytest.mark.parametrize("mutate,reason", [
    (lambda d: d.update(beta=0.5), "beta above 1/3"),
    (lambda d: d.update(beta=0.0), "beta zero"),
    (lambda d: d.update(q=0.5), "q at the boundary"),
    (lambda d: d.update(eps_list=[1e-6, 1e-4]), "eps increasing"),
    (lambda d: d.update(eps_list=[1e-4, -1e-6]), "eps negative"),
    (lambda d: d.update(eps_list=[]), "eps empty"),
    (lambda d: d.update(eps_list=[True, 1e-6, 1e-8, 1e-10]), "bool eps"),
    (lambda d: d.update(seed=-1), "negative seed"),
    (lambda d: d.update(seed=True), "bool seed"),
    (lambda d: d.update(seed=1.5), "float seed"),
    (lambda d: d.update(seed=2 ** 64), "seed aliasing seed 0"),
    (lambda d: d.update(seed=2 ** 70), "seed far past 64 bits"),
    (lambda d: d.update(seed=2 ** 64 - 1), "last row's seed past 64 bits"),
    (lambda d: d.update(extra_key=1), "unknown top key"),
    (lambda d: d.pop("q"), "missing key"),
    (lambda d: d["grids"].pop("t_step"), "missing grid key"),
    (lambda d: d["grids"].update(bogus=1.0), "unknown grid key"),
    (lambda d: d["grids"].update(t_step=20.0), "step beyond extent"),
    (lambda d: d.update(kernel={"type": "wavelet"}), "unknown kernel"),
    (lambda d: d.update(kernel={"type": "indicator", "a": 1.0, "b": 0.0}),
     "indicator a >= b"),
    (lambda d: d.update(kernel={"type": "indicator", "a": False, "b": True}),
     "bool indicator ends"),
    (lambda d: d.update(kernel={"type": "gaussian", "scale": -1.0}),
     "negative scale"),
    (lambda d: d.update(kernel={"type": "gaussian"}), "missing scale"),
    (lambda d: d.update(kernel={"type": "gaussian", "scale": 1.0, "x": 2}),
     "extra kernel param"),
    (lambda d: d.update(f0={"type": "synth_smooth", "path": "x"}),
     "extra f0 param"),
    (lambda d: d.update(f0={"type": "mystery"}), "unknown f0 type"),
    (lambda d: d["grids"].update(freq_extent_factor=1.0),
     "frequency grid no wider than the radius"),
])
def test_bad_configs_are_rejected(mutate, reason):
    # the kernel makers refuse a >= b and a nonpositive scale or rate, and
    # build_kernel turns that into a ConfigError before any sample exists
    data = good_config()
    mutate(data)
    with pytest.raises(ConfigError):
        build_kernel(parse_config(data))


MALFORMED = (None, True, 0, -1, 0.5, 1.5, float("inf"), float("-inf"),
             float("nan"), 10 ** 400, "x", [], [1], {}, {"type": []},
             1e-320, 1e12,  # past the chirp-z limit as t_step, b, t_extent
             math.pi / 9.0)  # as freq_step, wraps f0 (2 pi / step < 20)
# every field of good_config(), and the path of a file-type kernel and f0
FIELDS = ([(key,) for key in good_config()]
          + [(key, sub) for key in ("kernel", "f0", "grids")
             for sub in good_config()[key]]
          + [("eps_list", 0), ("eps_list", 1), ("kernel", "path"),
             ("f0", "path")])


@pytest.mark.parametrize("field", FIELDS,
                         ids=[".".join(map(str, f)) for f in FIELDS])
def test_malformed_values_raise_config_error(field, tmp_path):
    # JSON admits Infinity and NaN, and any value in any field: whatever
    # the file holds, a bad config exits as a config error
    *outer, last = field
    for value in MALFORMED:
        data = good_config()
        if last == "path":
            data[outer[0]] = {"type": "file"}
        target = data
        for key in outer:
            target = target[key]
        target[last] = value
        try:
            build_instance(parse_config(data, str(tmp_path)))
        except ConfigError:
            pass
        except Exception as exc:
            pytest.fail(f"{field} = {value!r} raised {exc!r}")


def test_a_frequency_step_that_wraps_f0_is_refused():
    # the grid's period 2 pi / freq_step must cover the window 2 t_extent = 20
    data = good_config()
    data["grids"]["freq_step"] = 0.31
    parse_config(data)
    data["grids"]["freq_step"] = 0.32
    with pytest.raises(ConfigError, match="grids.freq_step"):
        parse_config(data)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(good_config()))
    cfg = load_config(str(path))
    assert cfg.base_dir == str(tmp_path)
    assert cfg.seed == 7


def test_load_config_bad_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_build_kernel_variants(tmp_path):
    cfg = parse_config(good_config())
    k = build_kernel(cfg)
    assert k.t_min == 0.0 and k.t_max == 1.0

    data = good_config()
    data["kernel"] = {"type": "gaussian", "scale": 1.0}
    g = build_kernel(parse_config(data))
    assert g.truncation_tail > 0.0

    data = good_config()
    data["kernel"] = {"type": "file", "path": "k.csv"}
    with pytest.raises(ConfigError):
        build_kernel(parse_config(data, str(tmp_path)))
    sig = SampledSignal(0.0, 0.01, np.ones(101))
    write_signal_csv(str(tmp_path / "k.csv"), sig)
    loaded = build_kernel(parse_config(data, str(tmp_path)))
    assert loaded.size == 101


def test_build_instance_synth():
    cfg = parse_config(good_config())
    inst = build_instance(cfg)
    assert inst.kernel.spacing == 0.01
    assert inst.kernel.t_min == 0.0 and inst.kernel.t_max == 1.0
    assert inst.f0_signal is None
    assert inst.base_seed == 7
    assert inst.profile.p_at(0.5) > 0.0


def test_build_instance_f0_file(tmp_path):
    data = good_config()
    data["f0"] = {"type": "file", "path": "f0.csv"}
    cfg = parse_config(data, str(tmp_path))
    with pytest.raises(ConfigError):
        build_instance(cfg)
    t = -5.0 + 0.01 * np.arange(1001)
    write_signal_csv(str(tmp_path / "f0.csv"),
                     SampledSignal(-5.0, 0.01, np.exp(-t * t)))
    inst = build_instance(cfg)
    assert inst.f0_signal is not None
    assert inst.f0_signal.size == 1001
