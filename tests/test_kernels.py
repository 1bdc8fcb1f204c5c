"""Fixture kernel factories: exact grids, recorded off-grid mass."""

import math

import numpy as np
import pytest

from deconv.errors import ValidationError
from deconv.grid_signal import l1_norm
from deconv.kernels import (GAUSSIAN_HALF_WIDTH, TWO_SIDED_EXP_HALF_WIDTH,
                            default_profile_grid, make_gaussian,
                            make_indicator, make_two_sided_exp)


def test_indicator_tiles_its_interval_exactly(indicator_kernel):
    k = indicator_kernel
    assert k.t_min == 0.0
    assert k.t_max == 1.0
    assert np.all(k.values == 1.0)
    assert k.truncation_tail == 0.0
    # trapezoid of the constant 1 over a tiling grid is the exact length
    assert math.isclose(l1_norm(k), 1.0, rel_tol=1e-12)


def test_indicator_rejects_non_tiling_step():
    with pytest.raises(ValidationError):
        make_indicator(0.0, 1.0, 0.003)
    with pytest.raises(ValidationError):
        make_indicator(1.0, 0.0, 0.005)
    with pytest.raises(ValidationError):
        make_indicator(0.0, 1.0, 0.6)  # fewer than two cells


def test_gaussian_truncation_tail_is_the_erfc_mass(gaussian_kernel):
    k = gaussian_kernel
    half = round(-k.t_min / k.spacing)
    want = math.sqrt(math.pi) * math.erfc(half * k.spacing)
    assert k.truncation_tail == want
    assert k.t_max >= GAUSSIAN_HALF_WIDTH
    assert k.values[0] == k.values[-1]  # even sampling


def test_gaussian_scale_stretches_the_grid():
    k = make_gaussian(2.0, 0.01)
    assert k.t_max >= 2.0 * GAUSSIAN_HALF_WIDTH
    mid = round(-k.t_min / k.spacing)
    assert k.values[mid] == 1.0
    assert math.isclose(l1_norm(k), 2.0 * math.sqrt(math.pi), rel_tol=1e-8)


def test_two_sided_exp_truncation_tail(exp_kernel):
    k = exp_kernel
    half = round(-k.t_min / k.spacing)
    want = 2.0 * math.exp(-half * k.spacing)
    assert k.truncation_tail == want
    assert k.t_max >= TWO_SIDED_EXP_HALF_WIDTH
    assert math.isclose(l1_norm(k), 2.0, rel_tol=1e-5)


def test_factories_reject_bad_parameters():
    with pytest.raises(ValidationError):
        make_gaussian(0.0, 0.005)
    with pytest.raises(ValidationError):
        make_gaussian(1.0, -0.1)
    with pytest.raises(ValidationError):
        make_two_sided_exp(-1.0, 0.005)


@pytest.mark.parametrize("make", [
    lambda: make_indicator(0.0, 1e12, 0.01),
    lambda: make_indicator(-1e308, 1e308, 1.0),  # b - a overflows to inf
    lambda: make_indicator(0.0, 1.0, 1e-320),
    lambda: make_gaussian(1e12, 0.01),
    lambda: make_gaussian(1.0, 1e-320),
    lambda: make_two_sided_exp(1e-320, 0.01),
], ids=["wide-indicator", "inf-span", "subnormal-step", "wide-gaussian",
        "gaussian-subnormal-step", "slow-exp"])
def test_factories_refuse_counts_past_the_chirp_limit(make):
    # refused from the float count, before int() or numpy sees it: these
    # asked for 1e14 samples or more, some for an infinite count, and
    # raised MemoryError or OverflowError
    with pytest.raises(ValidationError, match="chirp-z limit"):
        make()


def test_default_profile_grid_spans_the_kernel(gaussian_kernel,
                                               indicator_kernel):
    for k in (gaussian_kernel, indicator_kernel):
        s = default_profile_grid(k)
        assert s[0] == 0.0
        assert s[1] - s[0] == k.spacing
        reach = max(abs(k.t_min), abs(k.t_max))
        assert math.isclose(s[-1], reach, rel_tol=1e-12)
        assert np.all(np.diff(s) > 0)
