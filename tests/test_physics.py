import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwspectral.core_image import FULL_SCALE, ClassLabel, SpectralStack
from dwspectral.errors import ValidationError
from dwspectral.physics import (
    AcquisitionParams,
    PhantomSpec,
    Shape,
    TissueParams,
    add_noise_to_stack,
    default_phantom_spec,
    load_phantom_spec,
    render_phantom,
    signal,
)

from conftest import stack_of

CSF = TissueParams(rho=1.0, t2=2000.0, diffusion=3.0e-3)
MATTER = TissueParams(rho=0.8, t2=90.0, diffusion=0.8e-3)


class TestConfigNumbers:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "1", True])
    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda v: AcquisitionParams(k_const=v), "K"),
            (lambda v: AcquisitionParams(te=v), "TE"),
            (lambda v: AcquisitionParams(b_values=(0.0, 500.0, v)), "b-value"),
            (lambda v: TissueParams(rho=v, t2=90.0, diffusion=0.0), "spin density"),
            (lambda v: TissueParams(rho=1.0, t2=v, diffusion=0.0), "T2"),
            (lambda v: TissueParams(rho=1.0, t2=90.0, diffusion=v), "diffusion"),
        ],
    )
    def test_non_finite_or_non_number_rejected(self, build, what, value):
        with pytest.raises(ValidationError, match=f"{what} must be a finite number"):
            build(value)



class TestSpecDimensions:
    @pytest.mark.parametrize("value", [32.9, 32.0, True, "32", None, 0, -3])
    @pytest.mark.parametrize("key", ["width", "height", "slices"])
    def test_non_positive_integer_rejected(self, tmp_path, key, value):
        doc = {"width": 32, "height": 32, "slices": 2, "shapes": [], key: value}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        message = f"phantom {key} must be a positive integer, got {value!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_phantom_spec(spec)
        with pytest.raises(ValidationError, match=re.escape(message)):
            PhantomSpec(doc["width"], doc["height"], doc["slices"], ())

    def test_integer_dimensions_load(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"width": 7, "height": 5, "slices": 1, "shapes": []}))
        loaded = load_phantom_spec(spec)
        assert (loaded.width, loaded.height, loaded.slices) == (7, 5, 1)
        assert render_phantom(loaded, AcquisitionParams())[0][0].bands[0].data.shape == (5, 7)


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

    def test_missing_tissue_entry_rejected(self):
        shape = Shape("rect", ClassLabel.CSF, {"x0": 0, "y0": 0, "x1": 3, "y1": 3})
        with pytest.raises(ValidationError, match="no entry for CSF"):
            PhantomSpec(4, 4, 1, (shape,), tissue_table={ClassLabel.MATTER: MATTER})

    def test_out_of_bounds_shape_rejected(self):
        shape = Shape("ellipse", ClassLabel.CSF, {"cx": 2, "cy": 2, "rx": 10, "ry": 2})
        with pytest.raises(ValidationError):
            PhantomSpec(8, 8, 1, (shape,))


def per_slice_bounds_ok(shape, width, height, slices):
    """The bounds check made on every slice, one offset at a time."""

    def at(value, off):
        return value[0] + value[1] * off if isinstance(value, list) else value

    return all(
        Shape(
            shape.kind, shape.label, {k: at(v, off) for k, v in shape.params.items()}
        ).bounds_ok(width, height, 1)
        for off in range(-(slices // 2), slices - slices // 2)
    )


# A shape parameter: a constant, or [base, per-slice slope].
DRIFTING = st.floats(-20.0, 40.0) | st.tuples(
    st.floats(-20.0, 40.0), st.floats(-2.0, 2.0)
).map(list)


SHAPE_PARAMS = {
    "rect": ("x0", "y0", "x1", "y1"),
    "ellipse": ("cx", "cy", "rx", "ry"),
    "annulus_arc": ("cx", "cy", "r_in", "r_out", "theta0", "theta1"),
}


def one_rect_spec(path, slices, x1):
    """A spec file with one rect whose right edge drifts by 1e-5 px per
    slice: on slice offset ``off`` it lies at ``x1 + 1e-5 * off``."""
    shape = {
        "kind": "rect",
        "label": "MATTER",
        "params": {"x0": [5.5, 1e-5], "y0": 0, "x1": [x1, 1e-5], "y1": 3},
    }
    doc = {"width": 12, "height": 4, "slices": slices, "shapes": [shape]}
    path.write_text(json.dumps(doc))
    return path


def reference_arc_mask(p, x, y):
    """The annulus arc with the angle of every pixel of the slice."""
    dx, dy = x - p["cx"], y - p["cy"]
    r = np.hypot(dx, dy)
    theta = np.degrees(np.arctan2(dy, dx)) % 360.0
    t0, t1 = p["theta0"] % 360.0, p["theta1"] % 360.0
    if t0 <= t1:
        in_arc = (theta >= t0) & (theta <= t1)
    else:
        in_arc = (theta >= t0) | (theta <= t1)
    return (r >= p["r_in"]) & (r <= p["r_out"]) & in_arc


class TestAnnulusArc:
    @settings(max_examples=200)
    @given(
        values=st.lists(st.floats(-20.0, 40.0), min_size=4, max_size=4),
        angles=st.lists(st.floats(-400.0, 400.0) | st.sampled_from([0.0, 90.0, 360.0]),
                        min_size=2, max_size=2),
    )
    def test_matches_whole_slice_angles(self, values, angles):
        x = np.arange(24.0)[None, :]
        y = np.arange(20.0)[:, None]
        p = dict(zip(("cx", "cy", "r_in", "r_out", "theta0", "theta1"), values + angles))
        got = Shape("annulus_arc", ClassLabel.CSF, p).mask(x, y, 0.0)
        np.testing.assert_array_equal(got, reference_arc_mask(p, x, y))


class TestShapeBounds:
    # 1,000,001 slices run from offset -500,000 to 500,000, where the right
    # edge lies 5 px right of its base; the image's last column is 11.
    def test_leaving_only_on_last_slice_rejected(self, tmp_path):
        spec = one_rect_spec(tmp_path / "spec.json", 1_000_001, 6.000005)
        with pytest.raises(ValidationError, match="leaves image bounds"):
            load_phantom_spec(spec)
        # One slice fewer ends at offset 499,999, where the edge is inside.
        spec = one_rect_spec(tmp_path / "spec.json", 1_000_000, 6.000005)
        assert load_phantom_spec(spec).slices == 1_000_000

    def test_inside_on_every_slice_loads(self, tmp_path):
        spec = one_rect_spec(tmp_path / "spec.json", 1_000_001, 5.999995)
        assert load_phantom_spec(spec).slices == 1_000_001

    @pytest.mark.parametrize(
        "kind, params, key, past",
        [
            ("rect", {"x0": 0, "y0": 0, "x1": 9, "y1": 9}, "x1", 9.5),
            ("ellipse", {"cx": 5, "cy": 4, "rx": 4, "ry": 4}, "ry", 5),
            (
                "annulus_arc",
                {"cx": 5, "cy": 5, "r_in": 0.5, "r_out": 4, "theta0": 0, "theta1": 90},
                "r_out",
                4.5,
            ),
        ],
    )
    def test_extent_reaches_last_pixel(self, kind, params, key, past):
        """Each shape touches the edge of a 10x10 image and fits; moved
        past the edge on one side it does not."""
        assert Shape(kind, ClassLabel.CSF, params).bounds_ok(10, 10, 1)
        assert not Shape(kind, ClassLabel.CSF, {**params, key: past}).bounds_ok(10, 10, 1)

    @pytest.mark.parametrize(
        "kind, value",
        [
            (kind, value)
            for kind in sorted(SHAPE_PARAMS)
            for value in (math.nan, math.inf, -math.inf, [2.0, math.nan], [math.nan, 0.0])
        ],
    )
    def test_non_finite_parameter_rejected(self, tmp_path, kind, value):
        names = SHAPE_PARAMS[kind]
        params = dict(zip(names, (5.0, 5.0, 2.0, 3.0, 0.0, 90.0)))
        params[names[0]] = value
        shape = {"kind": kind, "label": "CSF", "params": params}
        doc = {"width": 12, "height": 12, "slices": 3, "shapes": [shape]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        message = f"shape parameter {names[0]} must be a finite number"
        with pytest.raises(ValidationError, match=message):
            load_phantom_spec(spec)

    @settings(max_examples=300)
    @given(
        kind=st.sampled_from(sorted(SHAPE_PARAMS)),
        values=st.lists(DRIFTING, min_size=6, max_size=6),
        slices=st.integers(1, 41),
    )
    def test_matches_per_slice_check(self, kind, values, slices):
        shape = Shape(kind, ClassLabel.MATTER, dict(zip(SHAPE_PARAMS[kind], values)))
        want = per_slice_bounds_ok(shape, 16, 16, slices)
        assert shape.bounds_ok(16, 16, slices) == want


class TestNoise:
    def _stack(self, value=32768.0, n=128):
        return stack_of(np.full((2, n, n), value), (0.0, 500.0))

    def test_zero_noise_is_identity(self):
        stack = self._stack()
        out = add_noise_to_stack(stack, 0.0, seed=3)
        for a, b in zip(out.bands, stack.bands):
            np.testing.assert_array_equal(a.data, b.data)

    def test_same_seed_same_output(self):
        stack = self._stack()
        a = add_noise_to_stack(stack, 0.10, seed=3)
        b = add_noise_to_stack(stack, 0.10, seed=3)
        np.testing.assert_array_equal(a.bands[0].data, b.bands[0].data)

    def test_different_seed_differs(self):
        stack = self._stack()
        a = add_noise_to_stack(stack, 0.10, seed=3)
        b = add_noise_to_stack(stack, 0.10, seed=4)
        assert not np.array_equal(a.bands[0].data, b.bands[0].data)

    def test_sample_sigma_matches_target(self):
        # law of large numbers over 16384 pixels
        stack = self._stack()
        out = add_noise_to_stack(stack, 0.10, seed=3)
        sigma = np.std(out.bands[0].data - stack.bands[0].data)
        assert abs(sigma - 6553.5) / 6553.5 < 0.05

    def test_output_clamped_to_range(self):
        out = add_noise_to_stack(self._stack(value=100.0), 0.20, seed=1)
        for band in out.bands:
            assert band.data.min() >= 0.0 and band.data.max() <= FULL_SCALE

    def test_xi_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="xi_max must lie in"):
            add_noise_to_stack(self._stack(), 0.21, seed=0)

    @pytest.mark.parametrize("xi", [False, True, math.nan, "0.05"])
    def test_xi_non_number_rejected(self, xi):
        with pytest.raises(ValidationError, match="xi_max must be a finite number"):
            add_noise_to_stack(self._stack(), xi, seed=0)

    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("xi", [0.01, 0.07, 0.20])
    def test_bytes_of_per_band_normal_draws(self, small_volume, xi, seed):
        # The reference: each band plus its own rng.normal(0, sigma) draw,
        # clipped. At 0.20 the brightest bands clip at full scale too.
        stack = small_volume[0][2]
        out = add_noise_to_stack(stack, xi, seed)
        assert isinstance(out, SpectralStack) and out.b_values == stack.b_values
        for i, (band, got) in enumerate(zip(stack.bands, out.bands)):
            rng = np.random.default_rng((seed, band.slice_index, i))
            want = band.data + rng.normal(0.0, xi * FULL_SCALE, band.data.shape)
            np.clip(want, 0.0, FULL_SCALE, out=want)
            assert got.data.tobytes() == want.tobytes()
            assert (got.width, got.height, got.slice_index) == (
                band.width, band.height, band.slice_index
            )

    def test_stack_noise_deterministic_per_band(self, small_volume):
        stacks, _ = small_volume
        a = add_noise_to_stack(stacks[0], 0.05, seed=9)
        b = add_noise_to_stack(stacks[0], 0.05, seed=9)
        for ba, bb in zip(a.bands, b.bands):
            np.testing.assert_array_equal(ba.data, bb.data)
        # bands get independent realizations
        assert not np.array_equal(a.bands[0].data, a.bands[1].data)
