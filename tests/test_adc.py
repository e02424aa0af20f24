import struct
from types import SimpleNamespace

import numpy as np
import pytest

from dwspectral.adc import (
    AdcConfig,
    adc_map,
    adc_map_raw,
    load_adc_raw,
    save_adc_pgm,
    save_adc_raw,
)
from dwspectral.core_image import ClassLabel
from dwspectral.errors import FormatError, ValidationError
from dwspectral.physics import add_noise_to_stack

from conftest import stack_of


class TestAdcMap:
    def test_equal_bands_give_zero(self):
        stack = stack_of([[[50.0, 80.0]]] * 3)
        assert np.all(adc_map_raw(stack) == 0.0)

    def test_noiseless_phantom_recovers_diffusion(self, default_volume):
        stacks, truth = default_volume
        d_of = {int(ClassLabel.CSF): 3.0e-3, int(ClassLabel.MATTER): 0.8e-3}
        for stack, lm in [(stacks[13], truth[13]), (stacks[0], truth[0])]:
            raw = adc_map_raw(stack, AdcConfig(c_const=1.0, normalize_by_terms=True))
            for code, d in d_of.items():
                vals = raw[lm.labels == code]
                assert np.max(np.abs(vals - d) / d) <= 1e-9

    def test_c_constant_scales_output(self, default_volume):
        stacks, _ = default_volume
        one = adc_map_raw(stacks[13], AdcConfig(c_const=1.0))
        two = adc_map_raw(stacks[13], AdcConfig(c_const=2.0))
        np.testing.assert_allclose(two, 2.0 * one)

    def test_without_term_normalization_sums(self):
        stack = stack_of(
            [[[1000.0]], [[1000.0 * np.exp(-0.5)]], [[1000.0 * np.exp(-1.0)]]]
        )
        cfg = AdcConfig(normalize_by_terms=False)
        # each of the two terms contributes 1e-3
        assert adc_map_raw(stack, cfg)[0, 0] == pytest.approx(2e-3, rel=1e-12)

    def test_negative_raw_clamped_in_band(self):
        # background pixel: f1 at the floor, f2 above it
        stack = stack_of([[[0.5]], [[100.0]], [[100.0]]])
        cfg = AdcConfig(epsilon=1.0)
        assert adc_map_raw(stack, cfg)[0, 0] < 0.0
        assert adc_map(stack, cfg).data[0, 0] == 0.0

    def test_fewer_than_two_bands_rejected(self):
        fake = SimpleNamespace(data=np.ones((1, 1, 1)), b_values=(0.0,))
        with pytest.raises(ValidationError, match="at least 2 bands, got 1"):
            adc_map_raw(fake)

    def test_overflow_gives_nan_then_names_the_map(self):
        # C / b is inf and every log ratio is ln 1 = 0; a numpy warning
        # would fail the test.
        stack = stack_of(np.ones((3, 2, 2)), (0.0, 1e-300, 2e-300))
        cfg = AdcConfig(c_const=1e10)
        assert np.isnan(adc_map_raw(stack, cfg)).all()
        with pytest.raises(ValidationError, match="ADC map of slice 0 is not finite"):
            adc_map(stack, cfg)

    def test_stack_errors_keep_their_message_in_adc_map(self):
        fake = SimpleNamespace(data=np.ones((1, 1, 1)), b_values=(0.0,), slice_index=0)
        with pytest.raises(ValidationError, match="at least 2 bands, got 1"):
            adc_map(fake)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            AdcConfig(c_const=0.0)
        with pytest.raises(ValidationError):
            AdcConfig(epsilon=0.0)

    @pytest.mark.parametrize("value", ["false", None, 0, 1])
    def test_non_bool_normalize_rejected(self, value):
        with pytest.raises(ValidationError, match="normalize_by_terms must be true or false"):
            AdcConfig(normalize_by_terms=value)

    @pytest.mark.parametrize("field, what", [("c_const", "C"), ("epsilon", "epsilon")])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), "1", True])
    def test_non_number_config_rejected(self, field, what, value):
        with pytest.raises(ValidationError, match=f"{what} must be a finite number"):
            AdcConfig(**{field: value})


class TestAdcProperties:
    def test_invariant_under_common_band_scaling(self, default_volume):
        stacks, _ = default_volume
        stack = stacks[13]
        scaled = stack_of(stack.data * 1.5, stack.b_values)  # stays within 16 bits
        a = adc_map_raw(stack)
        b = adc_map_raw(scaled)
        # ratios cancel wherever signals sit above the epsilon floor
        tissue = stack.data[0] > 1.0
        np.testing.assert_allclose(a[tissue], b[tissue], rtol=1e-12)

    def test_noise_creates_background_artifacts(self, default_volume):
        stacks, truth = default_volume
        stack, lm = stacks[13], truth[13]
        clean = adc_map_raw(stack)
        tissue = lm.labels != int(ClassLabel.BACKGROUND)
        threshold = np.percentile(clean[tissue], 99)
        noisy = add_noise_to_stack(stack, 0.10, seed=11)
        noisy_adc = adc_map_raw(noisy)
        bg = lm.labels == int(ClassLabel.BACKGROUND)
        frac = np.mean(noisy_adc[bg] > threshold)
        assert frac >= 0.01


class TestPersistence:
    def test_raw_round_trip_exact(self, tmp_path, default_volume):
        stacks, _ = default_volume
        band = adc_map(stacks[13])
        path = tmp_path / "adc.bin"
        save_adc_raw(band, path)
        loaded = load_adc_raw(path)
        np.testing.assert_array_equal(loaded.data, band.data)

    def test_raw_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(FormatError):
            load_adc_raw(path)

    def test_raw_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.adc"
        path.write_bytes(b"ADCF" + bytes(7))
        with pytest.raises(FormatError, match="truncated header"):
            load_adc_raw(path)

    @pytest.mark.parametrize("width, height", [(0, 0), (0, 5), (5, 0)])
    def test_raw_zero_dimensions_rejected(self, tmp_path, width, height):
        path = tmp_path / "zero.adc"
        path.write_bytes(b"ADCF" + struct.pack("<II", width, height))
        with pytest.raises(FormatError, match=f"non-positive dimensions {width}x{height}"):
            load_adc_raw(path)

    def test_raw_trailing_bytes_rejected(self, tmp_path, default_volume):
        # A 128x128 file whose header was edited to say 64x64.
        stacks, _ = default_volume
        path = tmp_path / "edited.adc"
        save_adc_raw(adc_map(stacks[13]), path)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<II", 64, 64) + data[12:])
        message = f"{path}: trailing bytes, 131072 payload bytes where 64x64 takes 32768"
        with pytest.raises(FormatError, match=message):
            load_adc_raw(path)
        path.write_bytes(data + bytes(1))
        with pytest.raises(FormatError, match="131073 payload bytes where 128x128 takes 131072"):
            load_adc_raw(path)

    def test_raw_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.adc"
        path.write_bytes(b"ADCF" + struct.pack("<II", 2, 2) + bytes(31))
        with pytest.raises(FormatError, match="truncated payload, 31 payload bytes where 2x2 takes 32"):
            load_adc_raw(path)

    def test_pgm_sidecar_records_scale(self, tmp_path, default_volume):
        import json

        stacks, _ = default_volume
        band = adc_map(stacks[13])
        path = tmp_path / "adc.pgm"
        scale = save_adc_pgm(band, path)
        sidecar = json.loads((tmp_path / "adc.pgm.json").read_text())
        assert sidecar["scale"] == scale
        assert scale * band.data.max() == pytest.approx(65535.0)
