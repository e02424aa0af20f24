"""Image containers, label maps, sample extraction and PGM/JSON file I/O."""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import IntEnum
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

FULL_SCALE = 65535  # 16-bit PGM maxval; stack features are divided by it


def whole_number(value, what: str, positive: bool = False) -> int:
    """``value`` as an int; a bool, a non-integer, a negative value or, when
    ``positive``, zero raises ValidationError naming ``what``. Seeds and
    slice indices key the noise generators, which accept only non-negative
    integers; sizes and iteration counts must be positive."""
    kind, least = ("positive", 1) if positive else ("non-negative", 0)
    # An int is known by its type: isinstance against numbers.Integral, an
    # ABC, costs three times as much, and a model's class codes pass here.
    integral = type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral))
    if not integral or value < least:
        raise ValidationError(f"{what} must be a {kind} integer, got {value!r}")
    return int(value)


def finite_number(value, what: str) -> float:
    """``value`` as a float; a bool, a string or another non-number, NaN or
    an infinity raises ValidationError naming ``what``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value)):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def b_value_sequence(values) -> tuple[float, ...]:
    """Diffusion exponents (s/mm^2) as floats: finite numbers, strictly
    increasing from the 0 of the T2-weighted image, given as a list or a
    tuple: a string or an object would iterate as characters or keys."""
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"b_values must be a JSON array, got {values!r}")
    b = tuple(finite_number(v, "b-value") for v in values)
    if not b or b[0] != 0.0:
        raise ValidationError(f"first b-value must be 0 (T2-weighted image), got {b}")
    if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
        raise ValidationError(f"b-values must be strictly increasing: {b}")
    return b


class ClassLabel(IntEnum):
    CSF = 1
    MATTER = 2
    BACKGROUND = 3


# As plain ints: a numpy scalar compares with an IntEnum member about a
# hundred times slower than with an int.
_CODE_RANGE = (int(min(ClassLabel)), int(max(ClassLabel)))


def _intensities(data, ndim: int, what: str, ceiling=np.finfo(np.float64).max) -> np.ndarray:
    """``data`` as a read-only, C-contiguous float64 array of ``ndim``
    dimensions; any other ``ndim``, or a negative, non-finite or
    above-``ceiling`` intensity, raises ValidationError naming ``what``."""
    arr = np.asarray(data, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise ValidationError(f"{what} data must be {ndim}-D, got {arr.ndim}-D")
    # Two reductions and no temporary: a NaN fails both comparisons, and an
    # infinity exceeds any ceiling, so the message is worked out only once
    # a check has failed.
    if arr.size and not (0 <= arr.min() and arr.max() <= ceiling):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{what} contains non-finite intensities")
        fault = "negative intensities" if arr.min() < 0 else f"intensities above {ceiling}"
        raise ValidationError(f"{what} contains {fault}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Band:
    """A single 2-D scalar image for one diffusion exponent and one slice.

    ``data`` is a float64 array of shape (height, width), row-major,
    holding non-negative finite intensities. A C-contiguous float64 array
    it is given is kept without a copy and made read-only, so the checks
    made on it keep holding; any other array is copied, and the caller's
    stays writable.
    """

    data: np.ndarray
    slice_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "data", _intensities(self.data, 2, "band"))
        object.__setattr__(self, "slice_index", whole_number(self.slice_index, "slice_index"))

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def planes(self) -> np.ndarray:
        """The map as one feature plane (1, height*width), unscaled: a Band
        such as an ADC map has no full scale."""
        return self.data.reshape(1, -1)


@dataclass(frozen=True)
class SpectralStack:
    """One slice's bands as a single (n_bands, height, width) float64 array,
    read-only and row-major, of intensities in [0, FULL_SCALE], plus their
    diffusion exponents (b-values, s/mm^2). An intensity above the 16-bit
    full scale is refused, so every feature lies in [0, 1]. Like a Band's,
    a C-contiguous float64 array it is given is kept without a copy and
    made read-only; any other is copied, and the caller's stays writable."""

    data: np.ndarray
    b_values: tuple[float, ...]
    slice_index: int = 0

    def __post_init__(self):
        b_values = b_value_sequence(self.b_values)
        data = _intensities(self.data, 3, "stack", FULL_SCALE)
        if len(data) < 2:
            raise ValidationError("a spectral stack needs at least 2 bands")
        if len(data) != len(b_values):
            raise ValidationError(f"{len(data)} bands but {len(b_values)} b-values")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "b_values", b_values)
        object.__setattr__(self, "slice_index", whole_number(self.slice_index, "slice_index"))

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> tuple[Band, ...]:
        """Each band as a Band viewing ``data``."""
        return tuple(Band(plane, self.slice_index) for plane in self.data)

    @cached_property
    def planes(self) -> np.ndarray:
        """Read-only feature planes (n_bands, height*width): band i, in
        row-major pixel order, scaled into [0, 1] by FULL_SCALE.
        Built on first use and kept in the instance, outside its fields, so
        every classifier of one stack shares one build."""
        x = self.data.reshape(len(self.data), -1) / FULL_SCALE
        x.setflags(write=False)
        return x


def _class_codes(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` as uint8 ClassLabel codes. The 1..3 range is checked on
    the input, before the cast, so that 257 cannot wrap to 1; a NaN, a
    non-whole value or a non-numeric dtype raises as well."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must hold integer class codes, got {arr.dtype}")
    if arr.dtype.kind == "f":
        odd = arr != np.floor(arr)  # NaN too; an infinity fails the range
        if odd.any():
            bad = np.unique(arr[odd])
            raise ValidationError(f"{what} contains non-integer labels {bad.tolist()}")
    # The labels are the integers 1..3, so their range decides validity.
    low, high = _CODE_RANGE
    if arr.size and (arr.min() < low or arr.max() > high):
        bad = np.unique(arr[(arr < low) | (arr > high)])
        raise ValidationError(f"{what} contains invalid labels {bad.tolist()}")
    return arr.astype(np.uint8, copy=False)


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel class assignment; ``labels`` is a uint8 array (height,
    width) of ClassLabel codes. A uint8 array it is given is kept without a
    copy and made read-only, so its checked codes hold; any other array is
    copied, and the caller's stays writable."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2:
            raise ValidationError(f"label map must be 2-D, got {arr.ndim}-D")
        arr = _class_codes(arr, "label map")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class SampleSet:
    """Labeled feature vectors: ``features`` (n, d) finite numbers, ``labels``
    (n,) uint8 class codes."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ValidationError("features must be a 2-D (n, d) array")
        if feats.shape[0] == 0:
            raise ValidationError("sample set must be non-empty")
        if not np.isfinite(feats).all():
            raise ValidationError("sample set contains non-finite features")
        if labs.shape != (feats.shape[0],):
            raise ValidationError("labels must align one-to-one with features")
        labs = _class_codes(labs, "sample set")
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

# The magic number and the three numeric fields, each one token after any
# whitespace and '#' comments, then the one whitespace byte that ends the
# header. A comment runs to the end of its line and a token cannot start
# with '#', so a field not there matches None rather than a comment's tail.
_PGM_HEADER = re.compile(rb"(?:(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]\S*))?" * 4 + rb"\s?")


def payload_pixels(payload: bytes, width: int, height: int, dtype, path) -> np.ndarray:
    """``payload`` as a read-only (height, width) array of ``dtype``; a
    payload shorter or longer than width x height pixels raises FormatError
    naming ``path``."""
    expected = width * height * np.dtype(dtype).itemsize
    if len(payload) != expected:
        what = "truncated payload" if len(payload) < expected else "trailing bytes"
        raise FormatError(
            f"{path}: {what}, {len(payload)} payload bytes where {width}x{height} "
            f"takes {expected}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(height, width)


def _read_pgm(path, maxval: int, dtype) -> np.ndarray:
    """The (height, width) pixels of a binary PGM whose maxval must be
    ``maxval``; 8-bit files hold label maps. Width, height and maxval must
    be ASCII decimal digits."""
    path = Path(path)
    data = path.read_bytes()
    header = _PGM_HEADER.match(data)
    magic, *tokens = header.groups()
    if magic not in (b"P5", None):
        raise FormatError(
            f"{path}: magic number is {magic.decode('ascii', 'replace')!r}, "
            "expected binary PGM 'P5'"
        )
    fields = []
    for name, token in zip(("width", "height", "maxval"), tokens):
        if token is None:  # as every field is when the magic number is missing
            raise FormatError(f"{path}: truncated PGM header")
        try:
            if not token.isdigit():  # int() would read b"+12" and b"1_2"
                raise ValueError
            fields.append(int(token))  # and refuses more digits than its limit
        except ValueError:
            raise FormatError(f"{path}: non-numeric {name} field {token!r}") from None
    width, height, found = fields
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: non-positive dimensions {width}x{height}")
    if found != maxval:
        what = "label map maxval" if maxval == 255 else "maxval"
        raise FormatError(f"{path}: {what} is {found}, expected {maxval}")
    return payload_pixels(data[header.end():], width, height, dtype, path)


def _write_pgm(path, pixels: np.ndarray, maxval: int) -> None:
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def save_band(band: Band, path) -> None:
    """Write a Band as 16-bit binary PGM, rounding half-to-even."""
    rounded = np.rint(band.data)
    if rounded.min() < 0 or rounded.max() > FULL_SCALE:
        raise ValidationError(
            f"band intensities [{rounded.min()}, {rounded.max()}] exceed "
            f"[0, {FULL_SCALE}] after rounding; refusing to clamp on save"
        )
    _write_pgm(path, rounded.astype(">u2"), FULL_SCALE)


def load_labelmap(path) -> LabelMap:
    """Read an 8-bit P5 PGM holding ClassLabel integer codes."""
    return LabelMap(_read_pgm(path, 255, np.uint8))


def save_labelmap(labelmap: LabelMap, path) -> None:
    _write_pgm(path, labelmap.labels, 255)


# ---------------------------------------------------------------------------
# JSON documents

def read_json(path, build):
    """``build`` applied to the JSON document in ``path``. Invalid or too
    deeply nested JSON, or a document of the wrong shape for ``build`` (a
    TypeError, ValueError, OverflowError or AttributeError), raises
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
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def check_keys(doc, required, what: str, optional=()) -> None:
    """Raise ValidationError naming ``what`` unless ``doc`` is a JSON object
    holding every key of ``required`` and no other key but ``optional``'s: a
    misspelled key would otherwise leave its field at its default unseen."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValidationError(f"missing keys {missing} in {what}")
    unknown = doc.keys() - {*required, *optional}
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in {what}")


@cache
def _schema(cls, given: tuple) -> tuple:
    """For the fields of ``cls`` not in ``given``: the required names, all
    names, and (name, class) where a dataclass makes the default."""
    read = [f for f in fields(cls) if f.name not in given]
    required = tuple(f.name for f in read if f.default is f.default_factory is MISSING)
    nested = tuple((f.name, f.default_factory) for f in read if is_dataclass(f.default_factory))
    return required, tuple(f.name for f in read), nested


def config_from_json(cls, doc, what: str, **given):
    """Dataclass ``cls`` from the fields in JSON object ``doc`` and those
    ``given``. A field with a default may be omitted; one whose default a
    dataclass makes is read as that dataclass, named by the field. A
    missing or unknown key or an ill-typed value raises ValidationError."""
    required, names, nested = _schema(cls, tuple(given))
    check_keys(doc, required, what, names)
    given |= {name: config_from_json(sub, doc[name], name) for name, sub in nested if name in doc}
    try:
        return cls(**(doc | given))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: {exc}") from exc


# ---------------------------------------------------------------------------
# Stack manifests

def load_stack(manifest_path) -> SpectralStack:
    """Load a SpectralStack from a JSON manifest.

    Manifest schema: {"bands": [path...], "b_values": [number...],
    "slice_index": int}, of which ``slice_index`` may be omitted for 0;
    band paths are resolved relative to the manifest, and any other key is
    refused: a misspelled slice index would key the noise of slice 0.
    """
    manifest_path = Path(manifest_path)

    def build(doc):
        check_keys(doc, ("bands", "b_values"), "stack manifest", ("slice_index",))
        paths = doc["bands"]
        if not (isinstance(paths, list) and all(isinstance(p, str) for p in paths)):
            raise ValidationError(f"bands must be a JSON array of paths, got {paths!r}")
        bands = [_read_pgm(manifest_path.parent / rel, FULL_SCALE, ">u2") for rel in paths]
        if len({b.shape for b in bands}) > 1:
            raise ValidationError("all bands in a stack must share dimensions")
        return SpectralStack(
            np.array(bands, np.float64), doc["b_values"], doc.get("slice_index", 0)
        )

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
    return SampleSet(stack.planes.T, labels.labels.ravel())


def extract_band_samples(band: Band, labels: LabelMap) -> SampleSet:
    """Scalar samples from a single band (e.g. an ADC map), row-major."""
    if (labels.width, labels.height) != (band.width, band.height):
        raise ValidationError(
            f"label map {labels.width}x{labels.height} does not match "
            f"band {band.width}x{band.height}"
        )
    return SampleSet(band.data.reshape(-1, 1), labels.labels.ravel())
