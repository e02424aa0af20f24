import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dwspectral.core_image import (
    FULL_SCALE,
    Band,
    ClassLabel,
    LabelMap,
    SampleSet,
    SpectralStack,
    extract_band_samples,
    extract_samples,
    load_labelmap,
    load_stack,
    save_band,
    save_labelmap,
)
from dwspectral.errors import FormatError, ValidationError

from conftest import stack_of


def band(values, width, height, slice_index=0):
    return Band(np.array(values, dtype=float).reshape(height, width), slice_index)


def read_band_pgm(path):
    """The pixels of the 16-bit PGM at ``path``, read by load_stack from a
    two-band manifest that names the file twice."""
    manifest = path.with_name(path.name + ".json")
    manifest.write_text(json.dumps({"bands": [path.name] * 2, "b_values": [0, 500]}))
    return load_stack(manifest).data[0]


def pixel_features(stack):
    """The row-major reference for a stack's feature planes: all pixels as
    feature rows (height*width, n_bands), scaled into [0, 1] by FULL_SCALE."""
    return np.stack([b.data.ravel() for b in stack.bands], axis=1) / FULL_SCALE


class TestBandInvariants:
    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="negative intensities"):
            band([0, -1, 2, 3], 2, 2)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            band([0, np.nan, 2, 3], 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_non_finite_value_named(self, bad):
        with pytest.raises(ValidationError, match="non-finite intensities"):
            band([0, 1, bad, 3], 2, 2)

    def test_smallest_negative_rejected(self):
        with pytest.raises(ValidationError, match="negative intensities"):
            band([0, 1, 2, -5e-324], 2, 2)

    @pytest.mark.parametrize("values", [[np.nan, -1, 2, 3], [-1, 0, 2, np.nan], [-1, np.inf, 0, 0]])
    def test_non_finite_named_before_negative(self, values):
        with pytest.raises(ValidationError, match="non-finite intensities"):
            band(values, 2, 2)

    def test_empty_band_accepted(self):
        assert Band(np.zeros((0, 0))).data.shape == (0, 0)

    def test_negative_zero_accepted(self):
        b = band([-0.0, 1, 2, 3], 2, 2)
        assert np.signbit(b.data[0, 0])

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            (3, 4),
            elements=st.sampled_from([0.0, -0.0, 1.0, 65535.0, -1.0, -5e-324, np.nan, np.inf, -np.inf]),
        )
    )
    def test_checks_agree_with_elementwise_rule(self, arr):
        if not np.all(np.isfinite(arr)):
            want = "non-finite intensities"
        elif np.any(arr < 0):
            want = "negative intensities"
        else:
            Band(arr)
            return
        with pytest.raises(ValidationError, match=want):
            Band(arr)

    def test_data_is_immutable(self):
        b = band([1, 2, 3, 4], 2, 2)
        with pytest.raises(ValueError):
            b.data[0, 0] = 9


class TestPgmRoundTrip:
    def test_known_values(self, tmp_path):
        b = band([0, 100, 200, 65535], 2, 2)
        path = tmp_path / "b.pgm"
        save_band(b, path)
        np.testing.assert_array_equal(read_band_pgm(path), b.data)

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(
            np.int64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.integers(0, FULL_SCALE),
        )
    )
    def test_round_trip_is_identity(self, tmp_path_factory, values):
        h, w = values.shape
        b = Band(values.astype(float))
        path = tmp_path_factory.mktemp("pgm") / "b.pgm"
        save_band(b, path)
        np.testing.assert_array_equal(read_band_pgm(path), b.data)

    def test_rounding_half_to_even(self, tmp_path):
        b = band([100.5, 101.5, 0, 0], 2, 2)
        path = tmp_path / "b.pgm"
        save_band(b, path)
        loaded = read_band_pgm(path)
        assert loaded[0, 0] == 100
        assert loaded[0, 1] == 102

    def test_out_of_range_raises(self, tmp_path):
        b = band([0, 0, 0, 70000], 2, 2)
        with pytest.raises(ValidationError, match="refusing to clamp"):
            save_band(b, tmp_path / "b.pgm")


class TestPgmFormatErrors:
    def test_p2_header_rejected(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n65535\n0 1 2 3\n")
        with pytest.raises(FormatError, match="P2"):
            read_band_pgm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "b8.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError, match="maxval"):
            read_band_pgm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(5))
        with pytest.raises(FormatError, match="truncated"):
            read_band_pgm(path)

    def test_comments_in_header_accepted(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# generated\n2 1\n65535\n" + bytes(4))
        assert read_band_pgm(path).shape == (1, 2)


class TestStack:
    def test_b_values_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            stack_of(np.ones((2, 2, 2)), (500.0, 1000.0))

    def test_b_values_strictly_increasing(self):
        with pytest.raises(ValidationError):
            stack_of(np.ones((3, 2, 2)), (0.0, 1000.0, 500.0))

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), "1000", True])
    def test_non_finite_or_non_number_b_value_rejected(self, value):
        with pytest.raises(ValidationError, match="b-value must be a finite number"):
            stack_of(np.ones((3, 2, 2)), (0.0, 500.0, value))

    def test_single_band_rejected(self):
        with pytest.raises(ValidationError):
            stack_of(np.ones((1, 2, 2)), (0.0,))

    def test_band_count_must_match_b_values(self):
        with pytest.raises(ValidationError, match="3 bands but 2 b-values"):
            SpectralStack(np.ones((3, 2, 2)), (0.0, 500.0))

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "stack contains non-finite intensities"),
        (-1.0, "stack contains negative intensities"),
    ])
    def test_intensities_checked_across_all_bands(self, bad, message):
        data = np.ones((3, 2, 2))
        data[2, 1, 0] = bad
        with pytest.raises(ValidationError, match=message):
            stack_of(data)

    def test_shape_and_bands_come_from_data(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        stack = SpectralStack(data, (0.0, 500.0), slice_index=7)
        assert (stack.width, stack.height) == (4, 3)
        assert not stack.data.flags.writeable and stack.data.flags.c_contiguous
        assert [b.data.tolist() for b in stack.bands] == data.tolist()
        assert all(b.slice_index == 7 and np.shares_memory(b.data, stack.data) for b in stack.bands)

    @pytest.mark.parametrize("index", [-1, 2.5, "x", True, None])
    def test_slice_index_checked_where_made(self, index):
        # It keys the noise generators, which take only non-negative
        # integers: a bad one fails here, not in add_noise_to_stack.
        message = f"slice_index must be a non-negative integer, got {index!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            SpectralStack(np.ones((2, 2, 2)), (0.0, 500.0), slice_index=index)
        with pytest.raises(ValidationError, match=re.escape(message)):
            Band(np.ones((2, 2)), slice_index=index)

    def test_slice_index_kept_as_int(self):
        stack = SpectralStack(np.ones((2, 2, 2)), (0.0, 500.0), slice_index=np.int64(4))
        assert type(stack.slice_index) is int and type(stack.bands[0].slice_index) is int


class TestDimensions:
    @pytest.mark.parametrize("shape", [(), (4,), (1, 2, 2)])
    def test_band_must_be_2d(self, shape):
        with pytest.raises(ValidationError, match=f"band data must be 2-D, got {len(shape)}-D"):
            Band(np.ones(shape))

    @pytest.mark.parametrize("shape", [(), (2, 2), (2, 1, 2, 2)])
    def test_stack_must_be_3d(self, shape):
        with pytest.raises(ValidationError, match=f"stack data must be 3-D, got {len(shape)}-D"):
            SpectralStack(np.ones(shape), (0.0, 500.0))

    @pytest.mark.parametrize("shape", [(), (4,), (1, 2, 2)])
    def test_label_map_must_be_2d(self, shape):
        with pytest.raises(ValidationError, match=f"label map must be 2-D, got {len(shape)}-D"):
            LabelMap(np.ones(shape))

    def test_width_and_height_come_from_data(self):
        assert (band(range(6), 3, 2).width, band(range(6), 3, 2).height) == (3, 2)
        lm = LabelMap(np.ones((2, 3)))
        assert (lm.width, lm.height) == (3, 2)


def layouts(data):
    """Views of ``data`` (n_bands, height, width) in other memory layouts,
    none of them C-contiguous: band-interleaved pixels, column-major, and
    a strided window into a larger array."""
    interleaved = np.moveaxis(np.ascontiguousarray(np.moveaxis(data, 0, -1)), -1, 0)
    window = np.zeros((data.shape[0], 2 * data.shape[1], data.shape[2] + 3))
    window[:, ::2, 1:-2] = data
    return {
        "interleaved": interleaved,
        "fortran": np.asfortranarray(data),
        "strided": window[:, ::2, 1:-2],
    }


class TestAnyLayout:
    """A stack copies data of any layout into one C-contiguous array, so
    what it gives does not depend on how its input was laid out."""

    @pytest.mark.parametrize("layout", ["interleaved", "fortran", "strided"])
    def test_same_planes_noise_and_adc_as_contiguous_copy(self, small_volume, layout):
        from dwspectral.adc import adc_map_raw
        from dwspectral.physics import add_noise_to_stack

        ref = small_volume[0][2]
        view = layouts(ref.data)[layout]
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(view, ref.data)
        stack = SpectralStack(view, ref.b_values, ref.slice_index)
        assert stack.data.flags.c_contiguous
        assert stack.planes.tobytes() == ref.planes.tobytes()
        for xi in (0.0, 0.10):
            got = add_noise_to_stack(stack, xi, seed=4)
            want = add_noise_to_stack(ref, xi, seed=4)
            assert got.data.tobytes() == want.data.tobytes()
        assert adc_map_raw(stack).tobytes() == adc_map_raw(ref).tobytes()


class TestManifest:
    def _write_bands(self, tmp_path, shapes):
        paths = []
        for i, (w, h) in enumerate(shapes):
            p = tmp_path / f"band_{i}.pgm"
            save_band(Band(np.full((h, w), 10.0 * (i + 1))), p)
            paths.append(p.name)
        return paths

    def test_three_band_phantom_manifest(self, tmp_path):
        names = self._write_bands(tmp_path, [(4, 3)] * 3)
        manifest = tmp_path / "stack.json"
        manifest.write_text(
            json.dumps({"bands": names, "b_values": [0, 500, 1000], "slice_index": 13})
        )
        stack = load_stack(manifest)
        assert stack.data.shape == (3, 3, 4)
        assert stack.b_values == (0.0, 500.0, 1000.0)
        assert stack.slice_index == 13

    def test_dimension_mismatch_rejected(self, tmp_path):
        names = self._write_bands(tmp_path, [(4, 3), (4, 3), (5, 3)])
        manifest = tmp_path / "stack.json"
        manifest.write_text(json.dumps({"bands": names, "b_values": [0, 500, 1000]}))
        with pytest.raises(ValidationError, match="must share dimensions"):
            load_stack(manifest)

    def test_unordered_b_values_rejected(self, tmp_path):
        names = self._write_bands(tmp_path, [(4, 3)] * 3)
        manifest = tmp_path / "stack.json"
        manifest.write_text(json.dumps({"bands": names, "b_values": [500, 0, 1000]}))
        with pytest.raises(ValidationError):
            load_stack(manifest)

    def test_missing_key_rejected(self, tmp_path):
        manifest = tmp_path / "stack.json"
        manifest.write_text(json.dumps({"bands": []}))
        with pytest.raises(FormatError, match="b_values"):
            load_stack(manifest)


class TestLabelMapIO:
    def test_round_trip(self, tmp_path):
        labels = np.array([[1, 2], [3, 1]])
        lm = LabelMap(labels)
        path = tmp_path / "lm.pgm"
        save_labelmap(lm, path)
        np.testing.assert_array_equal(load_labelmap(path).labels, labels)

    def test_invalid_codes_rejected(self):
        with pytest.raises(ValidationError):
            LabelMap(np.array([[0, 1], [2, 3]]))

    @pytest.mark.parametrize("bad", [0, 4, -1])
    def test_each_invalid_code_named(self, bad):
        with pytest.raises(ValidationError) as exc:
            LabelMap(np.array([[1, bad], [2, 3]]))
        assert str(exc.value) == f"label map contains invalid labels [{bad}]"

    def test_all_invalid_codes_named_once(self):
        with pytest.raises(ValidationError, match=r"invalid labels \[-1, 0, 4\]$"):
            LabelMap(np.array([[4, 0, 1], [-1, 4, 3]]))

    def test_valid_and_empty_maps_accepted(self):
        labels = np.array([[1, 2, 3], [3, 2, 1]])
        np.testing.assert_array_equal(LabelMap(labels).labels, labels)
        assert LabelMap(np.empty((0, 0))).labels.size == 0

    def test_labels_are_uint8(self, tmp_path):
        lm = LabelMap(np.array([[1, 2], [3, 1]]))
        assert lm.labels.dtype == np.uint8
        save_labelmap(lm, tmp_path / "lm.pgm")
        assert load_labelmap(tmp_path / "lm.pgm").labels.dtype == np.uint8

    @pytest.mark.parametrize("bad", [256, 257, -255])
    def test_codes_that_wrap_in_uint8_rejected(self, bad):
        # 256 and 257 would cast to 0 and 1, -255 to 1: the range is checked first.
        with pytest.raises(ValidationError) as exc:
            LabelMap(np.array([[1, bad], [2, 3]], dtype=np.int64))
        assert str(exc.value) == f"label map contains invalid labels [{bad}]"

    @pytest.mark.parametrize("bad", [np.nan, 1.5, 2.0000001])
    def test_float_codes_must_be_whole(self, bad):
        with pytest.raises(ValidationError, match="non-integer labels"):
            LabelMap(np.array([[1.0, bad], [2.0, 3.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, 4.0, 0.0])
    def test_float_codes_out_of_range_rejected(self, bad):
        with pytest.raises(ValidationError, match="invalid labels"):
            LabelMap(np.array([[1.0, bad], [2.0, 3.0]]))

    def test_whole_float_codes_accepted(self):
        lm = LabelMap(np.array([[1.0, 2.0], [3.0, 1.0]]))
        assert lm.labels.tolist() == [[1, 2], [3, 1]]

    def test_non_numeric_codes_rejected(self):
        with pytest.raises(ValidationError, match="integer class codes"):
            LabelMap(np.array([["1", "2"]]))


class TestExtractSamples:
    def test_single_pixel_identity(self):
        stack = stack_of(np.reshape([100, 80, 60], (3, 1, 1)))
        lm = LabelMap(np.array([[1]]))
        s = extract_samples(stack, lm)
        np.testing.assert_array_equal(s.features, pixel_features(stack))
        assert s.labels.tolist() == [int(ClassLabel.CSF)]

    def test_single_pixel_normalized(self):
        stack = stack_of(np.reshape([100, 80, 60], (3, 1, 1)))
        lm = LabelMap(np.array([[1]]))
        s = extract_samples(stack, lm)
        np.testing.assert_allclose(
            s.features, [[100 / 65535, 80 / 65535, 60 / 65535]]
        )

    def test_row_major_order(self):
        values = [[0, 1, 2, 3], [10, 11, 12, 13], [20, 21, 22, 23]]
        stack = stack_of(np.reshape(values, (3, 2, 2)))
        lm = LabelMap(np.array([[1, 2], [3, 2]]))
        s = extract_samples(stack, lm)
        assert len(s) == 4
        expected = np.array([0, 1, 2, 3]) / FULL_SCALE
        np.testing.assert_array_equal(s.features[:, 0], expected)
        assert s.labels.tolist() == [1, 2, 3, 2]

    def test_dimension_mismatch(self):
        stack = stack_of(np.reshape([[0, 1], [2, 3]], (2, 1, 2)))
        lm = LabelMap(np.array([[1]]))
        with pytest.raises(ValidationError, match="does not match stack"):
            extract_samples(stack, lm)

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(
            np.int64,
            (2, 6),
            elements=st.integers(0, FULL_SCALE),
        )
    )
    def test_normalized_features_in_unit_interval(self, values):
        stack = stack_of(values.reshape(2, 2, 3))
        lm = LabelMap(np.full((2, 3), 2))
        s = extract_samples(stack, lm)
        assert s.features.min() >= 0.0 and s.features.max() <= 1.0

    def test_band_samples_scalar(self):
        b = band([5, 6, 7, 8], 2, 2)
        lm = LabelMap(np.full((2, 2), 2))
        s = extract_band_samples(b, lm)
        assert s.feature_dim == 1
        assert s.features.ravel().tolist() == [5, 6, 7, 8]


class TestSampleSet:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SampleSet(np.empty((0, 3)), np.empty((0,), dtype=int))

    def test_label_alignment_required(self):
        with pytest.raises(ValidationError):
            SampleSet(np.zeros((2, 3)), np.array([1]))

    @pytest.mark.parametrize("bad", [0, 4, 257, -255])
    def test_labels_checked_by_range(self, bad):
        with pytest.raises(ValidationError, match=rf"sample set contains invalid labels \[{bad}\]"):
            SampleSet(np.zeros((2, 3)), np.array([1, bad]))

    def test_nan_label_rejected(self):
        with pytest.raises(ValidationError, match="non-integer labels"):
            SampleSet(np.zeros((2, 3)), np.array([1.0, np.nan]))

    def test_labels_kept_as_uint8(self):
        s = SampleSet(np.zeros((3, 3)), np.array([1, 2, 3]))
        assert s.labels.dtype == np.uint8 and s.labels.tolist() == [1, 2, 3]
