import numpy as np
import pytest
from hypothesis import settings

from dwspectral.core_image import ClassLabel, SpectralStack
from dwspectral.harness import ExperimentConfig
from dwspectral.physics import (
    AcquisitionParams,
    PhantomSpec,
    Shape,
    default_phantom_spec,
    render_phantom,
)

# The same examples on every run; no per-example deadline, since a loaded
# machine can make one example slow. Tests keep their own max_examples.
settings.register_profile("dwspectral", derandomize=True, deadline=None)
settings.load_profile("dwspectral")


def stack_of(array, b_values=(0.0, 500.0, 1000.0)):
    """A SpectralStack of ``array`` (n_bands, height, width) with the first
    n_bands of ``b_values``."""
    data = np.asarray(array, dtype=np.float64)
    return SpectralStack(data, b_values[: len(data)])


@pytest.fixture(scope="session")
def acq():
    return AcquisitionParams()


@pytest.fixture(scope="session")
def default_volume(acq):
    """Full-size noiseless phantom volume: (stacks, truth maps)."""
    return render_phantom(default_phantom_spec(), acq)


@pytest.fixture(scope="session")
def small_spec():
    return default_phantom_spec(width=48, height=48, slices=6)


@pytest.fixture(scope="session")
def small_volume(small_spec, acq):
    return render_phantom(small_spec, acq)


@pytest.fixture
def small_cfg(small_spec):
    return ExperimentConfig(
        phantom=small_spec,
        training_slice=3,
        noise_levels=(0.0, 0.05, 0.10),
        seeds=(1, 2, 3),
    )


@pytest.fixture(scope="session")
def uniform_matter_spec():
    """Every pixel MATTER: a single rect covering the whole 16x16 frame."""
    shape = Shape(
        "rect", ClassLabel.MATTER, {"x0": 0, "y0": 0, "x1": 15, "y1": 15}
    )
    return PhantomSpec(16, 16, 2, (shape,))
