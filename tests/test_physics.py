import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwspectral.core_image import FULL_SCALE, Band, ClassLabel
from dwspectral.errors import ValidationError
from dwspectral.physics import (
    AcquisitionParams,
    NoiseConfig,
    PhantomSpec,
    Shape,
    TissueParams,
    add_gaussian_noise,
    add_noise_to_stack,
    b_value,
    default_phantom_spec,
    render_phantom,
    signal,
)

CSF = TissueParams(rho=1.0, t2=2000.0, diffusion=3.0e-3)
MATTER = TissueParams(rho=0.8, t2=90.0, diffusion=0.8e-3)


class TestBValue:
    def test_zero_gradient(self):
        assert b_value(1.0, 0.0, 3.0) == 0.0

    def test_hand_evaluation(self):
        # 1 * 4 * 27 / 3
        assert b_value(1.0, 2.0, 3.0) == pytest.approx(36.0)

    def test_gamma_gradient_symmetry(self):
        assert b_value(2.0, 1.0, 3.0) == pytest.approx(b_value(1.0, 2.0, 3.0))

    def test_nonpositive_te_rejected(self):
        with pytest.raises(ValidationError):
            b_value(1.0, 1.0, 0.0)


class TestSignal:
    def test_b0_hand_evaluation(self):
        tissue = TissueParams(rho=100.0, t2=100.0, diffusion=1e-3)
        acq = AcquisitionParams(k_const=1.0, te=100.0, b_values=(0.0, 500.0))
        assert signal(tissue, acq, 0) == pytest.approx(100.0 * math.exp(-1.0))

    def test_zero_density_gives_zero(self):
        tissue = TissueParams(rho=0.0, t2=100.0, diffusion=1e-3)
        acq = AcquisitionParams()
        assert all(signal(tissue, acq, i) == 0.0 for i in range(3))

    def test_zero_diffusion_independent_of_b(self):
        tissue = TissueParams(rho=1.0, t2=100.0, diffusion=0.0)
        acq = AcquisitionParams()
        values = [signal(tissue, acq, i) for i in range(3)]
        assert values[0] == values[1] == values[2]

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1e-4, 1e-2), st.integers(0, 1))
    def test_monotone_decreasing_in_b_for_positive_diffusion(self, diff, i):
        tissue = TissueParams(rho=1.0, t2=100.0, diffusion=diff)
        acq = AcquisitionParams()
        assert signal(tissue, acq, i) > signal(tissue, acq, i + 1)


class TestPhantom:
    def test_all_background_renders_zero(self, acq):
        spec = PhantomSpec(8, 8, 2, ())
        stacks, truth = render_phantom(spec, acq)
        for stack, lm in zip(stacks, truth):
            assert np.all(lm.labels == int(ClassLabel.BACKGROUND))
            for band in stack.bands:
                assert np.all(band.data == 0.0)

    def test_uniform_matter_is_constant_per_band(self, uniform_matter_spec, acq):
        stacks, truth = render_phantom(uniform_matter_spec, acq)
        assert np.all(truth[0].labels == int(ClassLabel.MATTER))
        for i, band in enumerate(stacks[0].bands):
            assert np.unique(band.data).size == 1
        # brightest b=0 pixel sits at 60% of full scale
        assert stacks[0].bands[0].data[0, 0] == pytest.approx(0.60 * FULL_SCALE)

    def test_csf_decay_ratio_between_bands(self, default_volume):
        # independent evaluation of the signal equation per pixel
        stacks, truth = default_volume
        stack, lm = stacks[13], truth[13]
        csf = lm.labels == int(ClassLabel.CSF)
        ratio = stack.bands[2].data[csf].mean() / stack.bands[0].data[csf].mean()
        assert ratio == pytest.approx(math.exp(-3.0e-3 * 1000.0), rel=1e-12)

    def test_log_ratio_identity_at_tissue_pixels(self, default_volume):
        stacks, truth = default_volume
        d_of = {int(ClassLabel.CSF): 3.0e-3, int(ClassLabel.MATTER): 0.8e-3}
        for stack, lm in zip(stacks, truth):
            tissue = lm.labels != int(ClassLabel.BACKGROUND)
            d = np.vectorize(d_of.get)(lm.labels[tissue])
            for i in (1, 2):
                lhs = np.log(stack.bands[0].data[tissue] / stack.bands[i].data[tissue])
                expected = stack.b_values[i] * d
                rel = np.abs(lhs - expected) / expected
                assert rel.max() <= 1e-12

    def test_every_pixel_has_exactly_one_label(self, default_volume):
        _, truth = default_volume
        codes = {int(c) for c in ClassLabel}
        for lm in truth:
            assert set(np.unique(lm.labels)) <= codes

    def test_all_classes_present_on_every_slice(self, default_volume):
        _, truth = default_volume
        for lm in truth:
            assert set(np.unique(lm.labels)) == {1, 2, 3}

    def test_missing_tissue_entry_rejected(self, acq):
        shape = Shape("rect", ClassLabel.CSF, {"x0": 0, "y0": 0, "x1": 3, "y1": 3})
        spec = PhantomSpec(4, 4, 1, (shape,), tissue_table={ClassLabel.MATTER: MATTER})
        with pytest.raises(ValidationError, match="no entry for CSF"):
            render_phantom(spec, acq)

    def test_out_of_bounds_shape_rejected(self):
        shape = Shape("ellipse", ClassLabel.CSF, {"cx": 2, "cy": 2, "rx": 10, "ry": 2})
        with pytest.raises(ValidationError):
            PhantomSpec(8, 8, 1, (shape,))


class TestNoise:
    def _band(self, value=32768.0, n=128):
        return Band(n, n, np.full((n, n), value), slice_index=5)

    def test_zero_noise_is_identity(self):
        band = self._band()
        out = add_gaussian_noise(band, NoiseConfig(0.0, seed=3))
        np.testing.assert_array_equal(out.data, band.data)

    def test_same_seed_same_output(self):
        band = self._band()
        a = add_gaussian_noise(band, NoiseConfig(0.10, seed=3))
        b = add_gaussian_noise(band, NoiseConfig(0.10, seed=3))
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seed_differs(self):
        band = self._band()
        a = add_gaussian_noise(band, NoiseConfig(0.10, seed=3))
        b = add_gaussian_noise(band, NoiseConfig(0.10, seed=4))
        assert not np.array_equal(a.data, b.data)

    def test_sample_sigma_matches_target(self):
        # law of large numbers over 16384 pixels
        band = self._band()
        out = add_gaussian_noise(band, NoiseConfig(0.10, seed=3))
        sigma = np.std(out.data - band.data)
        assert abs(sigma - 6553.5) / 6553.5 < 0.05

    def test_output_clamped_to_range(self):
        band = self._band(value=100.0)
        out = add_gaussian_noise(band, NoiseConfig(0.20, seed=1))
        assert out.data.min() >= 0.0 and out.data.max() <= FULL_SCALE

    def test_xi_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            NoiseConfig(0.21)

    def test_stack_noise_deterministic_per_band(self, small_volume):
        stacks, _ = small_volume
        a = add_noise_to_stack(stacks[0], 0.05, seed=9)
        b = add_noise_to_stack(stacks[0], 0.05, seed=9)
        for ba, bb in zip(a.bands, b.bands):
            np.testing.assert_array_equal(ba.data, bb.data)
        # bands get independent realizations
        assert not np.array_equal(a.bands[0].data, a.bands[1].data)
