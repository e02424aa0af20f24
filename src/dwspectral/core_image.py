"""Image containers, label maps, sample extraction and PGM/JSON file I/O."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

FULL_SCALE = 65535  # 16-bit PGM maxval; stack features are divided by it


def nonnegative_int(value, what: str) -> int:
    """``value`` as an int; a bool, a non-integer or a negative value raises
    ValidationError. Seeds and slice indices key the noise generators, which
    accept only non-negative integers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValidationError(f"{what} must be a non-negative integer, got {value!r}")
    return int(value)


class ClassLabel(IntEnum):
    CSF = 1
    MATTER = 2
    BACKGROUND = 3


@dataclass(frozen=True)
class Band:
    """A single 2-D scalar image for one diffusion exponent and one slice.

    ``data`` is a float64 array of shape (height, width), row-major,
    holding non-negative finite intensities.
    """

    width: int
    height: int
    data: np.ndarray
    slice_index: int = 0

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.shape != (self.height, self.width):
            raise ValidationError(
                f"band data shape {arr.shape} does not match "
                f"(height={self.height}, width={self.width})"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("band contains non-finite intensities")
        if np.any(arr < 0):
            raise ValidationError("band contains negative intensities")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class SpectralStack:
    """Ordered bands plus their diffusion exponents (b-values, s/mm^2)."""

    bands: tuple[Band, ...]
    b_values: tuple[float, ...]

    def __post_init__(self):
        bands = tuple(self.bands)
        b_values = tuple(float(b) for b in self.b_values)
        if len(bands) < 2:
            raise ValidationError("a spectral stack needs at least 2 bands")
        if len(bands) != len(b_values):
            raise ValidationError(
                f"{len(bands)} bands but {len(b_values)} b-values"
            )
        first = bands[0]
        for b in bands[1:]:
            if (b.width, b.height) != (first.width, first.height):
                raise ValidationError("all bands in a stack must share dimensions")
            if b.slice_index != first.slice_index:
                raise ValidationError("all bands in a stack must share slice_index")
        if b_values[0] != 0.0:
            raise ValidationError(
                f"first b-value must be 0 (T2-weighted image), got {b_values[0]}"
            )
        if any(b_values[i] >= b_values[i + 1] for i in range(len(b_values) - 1)):
            raise ValidationError(f"b-values must be strictly increasing: {b_values}")
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "b_values", b_values)

    @property
    def width(self) -> int:
        return self.bands[0].width

    @property
    def height(self) -> int:
        return self.bands[0].height

    @property
    def slice_index(self) -> int:
        return self.bands[0].slice_index

    def pixel_features(self) -> np.ndarray:
        """All pixels as feature rows scaled into [0, 1] by FULL_SCALE,
        shape (height*width, n_bands), row-major."""
        return np.stack([b.data.ravel() for b in self.bands], axis=1) / FULL_SCALE


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel class assignment; ``labels`` is int array (height, width)."""

    width: int
    height: int
    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels, dtype=np.int64)
        if arr.shape != (self.height, self.width):
            raise ValidationError(
                f"label map shape {arr.shape} does not match "
                f"(height={self.height}, width={self.width})"
            )
        # The labels are the integers 1..3, so their range decides validity;
        # np.isin, several times slower, only names the offending values.
        if arr.size and (arr.min() < min(ClassLabel) or arr.max() > max(ClassLabel)):
            bad = np.unique(arr[~np.isin(arr, [int(c) for c in ClassLabel])])
            raise ValidationError(f"label map contains invalid labels {bad.tolist()}")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)


@dataclass(frozen=True)
class SampleSet:
    """Labeled feature vectors: ``features`` (n, d), ``labels`` (n,) ints."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValidationError("features must be a 2-D (n, d) array")
        if feats.shape[0] == 0:
            raise ValidationError("sample set must be non-empty")
        if labs.shape != (feats.shape[0],):
            raise ValidationError("labels must align one-to-one with features")
        if not np.isin(labs, [int(c) for c in ClassLabel]).all():
            raise ValidationError("sample labels must be valid class labels")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]


# ---------------------------------------------------------------------------
# PGM I/O (binary P5 only)

def _read_pgm_header(data: bytes, path) -> tuple[int, int, int, int]:
    """Parse a P5 header; returns (width, height, maxval, payload offset)."""
    pos = 0
    fields = []

    def next_token():
        nonlocal pos
        while pos < len(data):
            c = data[pos : pos + 1]
            if c == b"#":  # comment runs to end of line
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        return data[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise FormatError(
            f"{path}: magic number is {magic.decode('ascii', 'replace')!r}, "
            "expected binary PGM 'P5'"
        )
    for name in ("width", "height", "maxval"):
        tok = next_token()
        try:
            fields.append(int(tok))
        except ValueError:
            raise FormatError(f"{path}: non-numeric {name} field {tok!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: non-positive dimensions {width}x{height}")
    pos += 1  # exactly one whitespace byte separates header from payload
    return width, height, maxval, pos


def load_band(path, slice_index: int = 0) -> Band:
    """Read a 16-bit binary PGM (P5, maxval 65535) as a Band."""
    path = Path(path)
    data = path.read_bytes()
    width, height, maxval, offset = _read_pgm_header(data, path)
    if maxval != FULL_SCALE:
        raise FormatError(f"{path}: maxval is {maxval}, expected {FULL_SCALE}")
    expected = width * height * 2
    payload = data[offset : offset + expected]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: truncated payload, {len(payload)} of {expected} bytes"
        )
    pixels = np.frombuffer(payload, dtype=">u2").astype(np.float64)
    return Band(width, height, pixels.reshape(height, width), slice_index)


def save_band(band: Band, path) -> None:
    """Write a Band as 16-bit binary PGM, rounding half-to-even."""
    rounded = np.rint(band.data)
    if rounded.min() < 0 or rounded.max() > FULL_SCALE:
        raise ValidationError(
            f"band intensities [{rounded.min()}, {rounded.max()}] exceed "
            f"[0, {FULL_SCALE}] after rounding; refusing to clamp on save"
        )
    header = f"P5\n{band.width} {band.height}\n{FULL_SCALE}\n".encode("ascii")
    Path(path).write_bytes(header + rounded.astype(">u2").tobytes())


def load_labelmap(path) -> LabelMap:
    """Read an 8-bit P5 PGM holding ClassLabel integer codes."""
    path = Path(path)
    data = path.read_bytes()
    width, height, maxval, offset = _read_pgm_header(data, path)
    if maxval != 255:
        raise FormatError(f"{path}: label map maxval is {maxval}, expected 255")
    expected = width * height
    payload = data[offset : offset + expected]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: truncated payload, {len(payload)} of {expected} bytes"
        )
    labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    return LabelMap(width, height, labels.reshape(height, width))


def save_labelmap(labelmap: LabelMap, path) -> None:
    header = f"P5\n{labelmap.width} {labelmap.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + labelmap.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# JSON documents

def read_json(path, build):
    """``build`` applied to the JSON document in ``path``. Invalid or too
    deeply nested JSON, or a document of the wrong shape for ``build`` (a
    KeyError, TypeError, ValueError, OverflowError or AttributeError), raises
    FormatError naming the file; any other ValidationError gains the file
    name."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # also undecodable bytes
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return build(doc)
    except FormatError:
        raise  # already names its file: a band, a nested spec or a config block
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise FormatError(f"{path}: missing or unknown key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def config_from_json(cls, doc, where):
    """``cls(**doc)``; a non-object document, an unknown key or an ill-typed
    value raises FormatError naming ``where``."""
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Stack manifests

def load_stack(manifest_path) -> SpectralStack:
    """Load a SpectralStack from a JSON manifest.

    Manifest schema: {"bands": [path...], "b_values": [number...],
    "slice_index": int}; band paths are resolved relative to the manifest.
    """
    manifest_path = Path(manifest_path)

    def build(doc):
        slice_index = nonnegative_int(doc.get("slice_index", 0), "slice_index")
        bands = tuple(
            load_band(manifest_path.parent / rel, slice_index) for rel in doc["bands"]
        )
        return SpectralStack(bands, tuple(doc["b_values"]))

    return read_json(manifest_path, build)


def save_stack(stack: SpectralStack, out_dir, prefix: str = "band") -> Path:
    """Write all bands plus a manifest into ``out_dir``; returns manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for i, band in enumerate(stack.bands):
        name = f"{prefix}_{i}.pgm"
        save_band(band, out_dir / name)
        names.append(name)
    manifest = {
        "bands": names,
        "b_values": list(stack.b_values),
        "slice_index": stack.slice_index,
    }
    manifest_path = out_dir / f"{prefix}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


# ---------------------------------------------------------------------------
# Sample extraction

def extract_samples(stack: SpectralStack, labels: LabelMap) -> SampleSet:
    """One sample per labeled pixel, row-major order; feature i of a pixel
    is its intensity in band i divided by the full 16-bit scale."""
    if (labels.width, labels.height) != (stack.width, stack.height):
        raise ValidationError(
            f"label map {labels.width}x{labels.height} does not match "
            f"stack {stack.width}x{stack.height}"
        )
    if labels.width * labels.height == 0:
        raise ValidationError("label map is empty")
    return SampleSet(stack.pixel_features(), labels.labels.ravel())


def extract_band_samples(band: Band, labels: LabelMap) -> SampleSet:
    """Scalar samples from a single band (e.g. an ADC map), row-major."""
    if (labels.width, labels.height) != (band.width, band.height):
        raise ValidationError(
            f"label map {labels.width}x{labels.height} does not match "
            f"band {band.width}x{band.height}"
        )
    return SampleSet(band.data.reshape(-1, 1), labels.labels.ravel())
