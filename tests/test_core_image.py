import json

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
    load_band,
    load_labelmap,
    load_stack,
    save_band,
    save_labelmap,
)
from dwspectral.errors import FormatError, ValidationError


def band(values, width, height, slice_index=0):
    return Band(width, height, np.array(values, dtype=float).reshape(height, width), slice_index)


class TestBandInvariants:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="does not match"):
            Band(2, 2, np.zeros((3, 2)))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="negative intensities"):
            band([0, -1, 2, 3], 2, 2)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            band([0, np.nan, 2, 3], 2, 2)

    def test_data_is_immutable(self):
        b = band([1, 2, 3, 4], 2, 2)
        with pytest.raises(ValueError):
            b.data[0, 0] = 9


class TestPgmRoundTrip:
    def test_known_values(self, tmp_path):
        b = band([0, 100, 200, 65535], 2, 2)
        path = tmp_path / "b.pgm"
        save_band(b, path)
        loaded = load_band(path)
        np.testing.assert_array_equal(loaded.data, b.data)

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
        b = Band(w, h, values.astype(float))
        path = tmp_path_factory.mktemp("pgm") / "b.pgm"
        save_band(b, path)
        np.testing.assert_array_equal(load_band(path).data, b.data)

    def test_rounding_half_to_even(self, tmp_path):
        b = band([100.5, 101.5, 0, 0], 2, 2)
        path = tmp_path / "b.pgm"
        save_band(b, path)
        loaded = load_band(path)
        assert loaded.data[0, 0] == 100
        assert loaded.data[0, 1] == 102

    def test_out_of_range_raises(self, tmp_path):
        b = band([0, 0, 0, 70000], 2, 2)
        with pytest.raises(ValidationError, match="refusing to clamp"):
            save_band(b, tmp_path / "b.pgm")


class TestPgmFormatErrors:
    def test_p2_header_rejected(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n65535\n0 1 2 3\n")
        with pytest.raises(FormatError, match="P2"):
            load_band(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "b8.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError, match="maxval"):
            load_band(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(5))
        with pytest.raises(FormatError, match="truncated"):
            load_band(path)

    def test_comments_in_header_accepted(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# generated\n2 1\n65535\n" + bytes(4))
        b = load_band(path)
        assert (b.width, b.height) == (2, 1)


class TestStack:
    def test_b_values_must_start_at_zero(self):
        b0 = band([1, 2, 3, 4], 2, 2)
        with pytest.raises(ValidationError):
            SpectralStack((b0, b0), (500.0, 1000.0))

    def test_b_values_strictly_increasing(self):
        b0 = band([1, 2, 3, 4], 2, 2)
        with pytest.raises(ValidationError):
            SpectralStack((b0, b0, b0), (0.0, 1000.0, 500.0))

    def test_single_band_rejected(self):
        b0 = band([1, 2, 3, 4], 2, 2)
        with pytest.raises(ValidationError):
            SpectralStack((b0,), (0.0,))


class TestManifest:
    def _write_bands(self, tmp_path, shapes):
        paths = []
        for i, (w, h) in enumerate(shapes):
            p = tmp_path / f"band_{i}.pgm"
            save_band(Band(w, h, np.full((h, w), 10.0 * (i + 1))), p)
            paths.append(p.name)
        return paths

    def test_three_band_phantom_manifest(self, tmp_path):
        names = self._write_bands(tmp_path, [(4, 3)] * 3)
        manifest = tmp_path / "stack.json"
        manifest.write_text(
            json.dumps({"bands": names, "b_values": [0, 500, 1000], "slice_index": 13})
        )
        stack = load_stack(manifest)
        assert len(stack.bands) == 3
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
        lm = LabelMap(2, 2, labels)
        path = tmp_path / "lm.pgm"
        save_labelmap(lm, path)
        np.testing.assert_array_equal(load_labelmap(path).labels, labels)

    def test_invalid_codes_rejected(self):
        with pytest.raises(ValidationError):
            LabelMap(2, 2, np.array([[0, 1], [2, 3]]))

    @pytest.mark.parametrize("bad", [0, 4, -1])
    def test_each_invalid_code_named(self, bad):
        with pytest.raises(ValidationError) as exc:
            LabelMap(2, 2, np.array([[1, bad], [2, 3]]))
        assert str(exc.value) == f"label map contains invalid labels [{bad}]"

    def test_all_invalid_codes_named_once(self):
        with pytest.raises(ValidationError, match=r"invalid labels \[-1, 0, 4\]$"):
            LabelMap(3, 2, np.array([[4, 0, 1], [-1, 4, 3]]))

    def test_valid_and_empty_maps_accepted(self):
        labels = np.array([[1, 2, 3], [3, 2, 1]])
        np.testing.assert_array_equal(LabelMap(3, 2, labels).labels, labels)
        assert LabelMap(0, 0, np.empty((0, 0))).labels.size == 0


class TestExtractSamples:
    def _stack(self, values, w, h):
        bands = tuple(band(v, w, h) for v in values)
        return SpectralStack(bands, tuple(float(b) for b in (0, 500, 1000)[: len(bands)]))

    def test_single_pixel_identity(self):
        stack = self._stack([[100], [80], [60]], 1, 1)
        lm = LabelMap(1, 1, np.array([[1]]))
        s = extract_samples(stack, lm)
        np.testing.assert_array_equal(s.features, stack.pixel_features())
        assert s.labels.tolist() == [int(ClassLabel.CSF)]

    def test_single_pixel_normalized(self):
        stack = self._stack([[100], [80], [60]], 1, 1)
        lm = LabelMap(1, 1, np.array([[1]]))
        s = extract_samples(stack, lm)
        np.testing.assert_allclose(
            s.features, [[100 / 65535, 80 / 65535, 60 / 65535]]
        )

    def test_row_major_order(self):
        values = [[0, 1, 2, 3], [10, 11, 12, 13], [20, 21, 22, 23]]
        stack = self._stack(values, 2, 2)
        lm = LabelMap(2, 2, np.array([[1, 2], [3, 2]]))
        s = extract_samples(stack, lm)
        assert len(s) == 4
        expected = np.array([0, 1, 2, 3]) / FULL_SCALE
        np.testing.assert_array_equal(s.features[:, 0], expected)
        assert s.labels.tolist() == [1, 2, 3, 2]

    def test_dimension_mismatch(self):
        stack = self._stack([[0, 1], [2, 3]], 2, 1)
        lm = LabelMap(1, 1, np.array([[1]]))
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
        bands = tuple(band(row, 3, 2) for row in np.vstack([values[0], values[1]]))
        stack = SpectralStack(bands, (0.0, 500.0))
        lm = LabelMap(3, 2, np.full((2, 3), 2))
        s = extract_samples(stack, lm)
        assert s.features.min() >= 0.0 and s.features.max() <= 1.0

    def test_band_samples_scalar(self):
        b = band([5, 6, 7, 8], 2, 2)
        lm = LabelMap(2, 2, np.full((2, 2), 2))
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
