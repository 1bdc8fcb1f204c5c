import pytest

from deconv.config import GridSpec, SweepInstance
from deconv.kernels import (default_profile_grid, make_gaussian,
                            make_indicator, make_two_sided_exp)
from deconv.tail_profile import tail_mass_profile

GAUSSIAN_SEED = 20240817


@pytest.fixture(scope="session")
def gaussian_kernel():
    return make_gaussian(1.0, 0.005)


@pytest.fixture(scope="session")
def gaussian_profile(gaussian_kernel):
    return tail_mass_profile(gaussian_kernel,
                             default_profile_grid(gaussian_kernel))


@pytest.fixture(scope="session")
def indicator_kernel():
    return make_indicator(0.0, 1.0, 0.005)


@pytest.fixture(scope="session")
def indicator_profile(indicator_kernel):
    return tail_mass_profile(indicator_kernel,
                             default_profile_grid(indicator_kernel))


@pytest.fixture(scope="session")
def exp_kernel():
    return make_two_sided_exp(1.0, 0.005)


@pytest.fixture(scope="session")
def exp_profile(exp_kernel):
    return tail_mass_profile(exp_kernel, default_profile_grid(exp_kernel))


@pytest.fixture(scope="session")
def gaussian_instance(gaussian_kernel, gaussian_profile):
    return SweepInstance(kernel=gaussian_kernel,
                         profile=gaussian_profile, q=1.0, beta=0.2,
                         grids=GridSpec(t_extent=30.0, t_step=0.005,
                                        freq_extent_factor=800.0,
                                        freq_step=0.004),
                         base_seed=GAUSSIAN_SEED)


@pytest.fixture(scope="session")
def indicator_instance(indicator_kernel, indicator_profile):
    return SweepInstance(kernel=indicator_kernel,
                         profile=indicator_profile, q=1.0, beta=0.2,
                         grids=GridSpec(t_extent=20.0, t_step=0.005,
                                        freq_extent_factor=400.0,
                                        freq_step=0.004),
                         base_seed=GAUSSIAN_SEED)
