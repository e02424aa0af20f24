"""Apparent-diffusion-coefficient map computation and persistence."""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core_image import FULL_SCALE, Band, SpectralStack, finite_number, save_band
from .errors import FormatError, ValidationError


@dataclass(frozen=True)
class AdcConfig:
    """C is the proportionality constant; epsilon floors signals before the
    log so background noise does not produce -inf."""

    c_const: float = 1.0
    normalize_by_terms: bool = True
    epsilon: float = 1.0

    def __post_init__(self):
        if finite_number(self.c_const, "C") <= 0:
            raise ValidationError(f"C must be > 0, got {self.c_const}")
        if finite_number(self.epsilon, "epsilon") <= 0:
            raise ValidationError(f"epsilon must be > 0, got {self.epsilon}")
        if not isinstance(self.normalize_by_terms, bool):
            raise ValidationError(
                f"normalize_by_terms must be true or false, got {self.normalize_by_terms!r}"
            )


def adc_map_raw(stack: SpectralStack, cfg: AdcConfig = AdcConfig()) -> np.ndarray:
    """Unclamped per-pixel diffusion estimate, shape (height, width).

    Sums (C / b_i) * ln(f_1 / f_i) over all nonzero-b bands, with both
    signals floored at epsilon; optionally divided by the term count so a
    constant-D noiseless pixel yields exactly C * D; an overflow gives an
    inf or NaN pixel, not a warning.
    """
    data = stack.data
    n = len(data)
    if n < 2:
        raise ValidationError(f"ADC needs at least 2 bands, got {n}")
    f1 = np.maximum(data[0], cfg.epsilon)
    out = np.zeros_like(f1)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n):
            fi = np.maximum(data[i], cfg.epsilon)
            out += (cfg.c_const / stack.b_values[i]) * np.log(f1 / fi)
    if cfg.normalize_by_terms:
        out /= n - 1
    return out


def adc_map(stack: SpectralStack, cfg: AdcConfig = AdcConfig()) -> Band:
    """ADC map as a Band, clamped at 0; an inf or NaN pixel raises ValidationError."""
    clamped = np.maximum(adc_map_raw(stack, cfg), 0.0)
    try:
        return Band(clamped, stack.slice_index)
    except ValidationError:
        raise ValidationError(
            f"ADC map of slice {stack.slice_index} is not finite: C / b or a signal ratio overflows"
        ) from None


# ---------------------------------------------------------------------------
# Persistence: exact float dump plus a rescaled 16-bit view for inspection.

_RAW_MAGIC = b"ADCF"


def save_adc_raw(adc: Band, path) -> None:
    """Raw little-endian float64 dump with a (magic, width, height) header."""
    header = _RAW_MAGIC + struct.pack("<II", adc.width, adc.height)
    Path(path).write_bytes(header + adc.data.astype("<f8").tobytes())


def load_adc_raw(path) -> Band:
    path = Path(path)
    data = path.read_bytes()
    if data[:4] != _RAW_MAGIC:
        raise FormatError(f"{path}: bad magic, not a raw ADC file")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header, {len(data)} of 12 bytes")
    width, height = struct.unpack("<II", data[4:12])
    if width == 0 or height == 0:
        raise FormatError(f"{path}: non-positive dimensions {width}x{height}")
    expected = width * height * 8
    payload = data[12:]
    if len(payload) != expected:
        what = "truncated payload" if len(payload) < expected else "trailing bytes"
        raise FormatError(
            f"{path}: {what}, {len(payload)} payload bytes where {width}x{height} "
            f"takes {expected}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(height, width)
    return Band(values)


def save_adc_pgm(adc: Band, path) -> float:
    """Affine-rescaled 16-bit PGM plus a JSON sidecar recording the scale.

    Returns the scale factor; a pixel value v in the PGM decodes back to
    approximately v / scale. A peak so small that the scale overflows raises
    ValidationError before anything is written.
    """
    path = Path(path)
    peak = float(adc.data.max())
    scale = FULL_SCALE / peak if peak > 0 else 1.0
    if not math.isfinite(scale):  # the JSON sidecar cannot hold it
        raise ValidationError(
            f"ADC map peak {peak:g} is too small for a 16-bit PGM: {FULL_SCALE} / peak overflows"
        )
    scaled = Band(adc.data * scale, adc.slice_index)
    save_band(scaled, path)
    sidecar = {"scale": scale, "peak": peak, "slice_index": adc.slice_index}
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=2) + "\n"
    )
    return scale
