"""Forward spin-echo signal model, phantom synthesis and Gaussian noise."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core_image import (
    FULL_SCALE,
    Band,
    ClassLabel,
    LabelMap,
    SpectralStack,
    finite_number,
    nonnegative_int,
    read_json,
)
from .errors import ValidationError

# Headroom left above the brightest noiseless pixel so additive noise does
# not saturate immediately.
RENDER_HEADROOM = 0.60


@dataclass(frozen=True)
class TissueParams:
    """Per-tissue signal parameters: spin density, T2 (ms), diffusion (mm^2/s)."""

    rho: float
    t2: float
    diffusion: float

    def __post_init__(self):
        if finite_number(self.rho, "spin density") < 0:
            raise ValidationError(f"spin density must be >= 0, got {self.rho}")
        if finite_number(self.t2, "T2") <= 0:
            raise ValidationError(f"T2 must be > 0, got {self.t2}")
        if finite_number(self.diffusion, "diffusion") < 0:
            raise ValidationError(f"diffusion must be >= 0, got {self.diffusion}")


@dataclass(frozen=True)
class AcquisitionParams:
    """Scanner-side constants: proportionality K, echo time TE (ms), b-values."""

    k_const: float = 1.0
    te: float = 100.0
    b_values: tuple[float, ...] = (0.0, 500.0, 1000.0)

    def __post_init__(self):
        if finite_number(self.k_const, "K") <= 0:
            raise ValidationError(f"K must be > 0, got {self.k_const}")
        if finite_number(self.te, "TE") <= 0:
            raise ValidationError(f"TE must be > 0, got {self.te}")
        b = tuple(finite_number(v, "b-value") for v in self.b_values)
        if not b or b[0] != 0.0:
            raise ValidationError("b_values must start at 0")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValidationError(f"b_values must be strictly increasing: {b}")
        object.__setattr__(self, "b_values", b)


# Literature-typical defaults; chosen so CSF is bright at b=0 and dark at
# b=1000 while matter decays far less.
DEFAULT_TISSUES = {
    ClassLabel.CSF: TissueParams(rho=1.0, t2=2000.0, diffusion=3.0e-3),
    ClassLabel.MATTER: TissueParams(rho=0.8, t2=90.0, diffusion=0.8e-3),
    ClassLabel.BACKGROUND: TissueParams(rho=0.0, t2=1.0, diffusion=0.0),
}


def b_value(gamma: float, gradient: float, te: float) -> float:
    """Diffusion exponent of a spin-echo experiment: gamma^2 G^2 TE^3 / 3."""
    if te <= 0:
        raise ValidationError(f"TE must be > 0, got {te}")
    return gamma * gamma * gradient * gradient * te**3 / 3.0


def signal(tissue: TissueParams, acq: AcquisitionParams, band_index: int) -> float:
    """Noiseless voxel intensity K * rho * exp(-TE/T2) * exp(-b_i * D)."""
    if not 0 <= band_index < len(acq.b_values):
        raise ValidationError(
            f"band index {band_index} outside 0..{len(acq.b_values) - 1}"
        )
    b = acq.b_values[band_index]
    return (
        acq.k_const
        * tissue.rho
        * math.exp(-acq.te / tissue.t2)
        * math.exp(-b * tissue.diffusion)
    )


# ---------------------------------------------------------------------------
# Phantom geometry

_LABEL_NAMES = {c.name: c for c in ClassLabel}


def _eval_param(value, s: float):
    """A shape parameter is a scalar or [base, per-slice slope]."""
    if isinstance(value, (list, tuple)):
        base, slope = value
        return float(base) + float(slope) * s
    return float(value)


@dataclass(frozen=True)
class Shape:
    """Parametric region mapped to one class; parameters may vary per slice.

    kinds:
      ellipse      -- cx, cy, rx, ry
      annulus_arc  -- cx, cy, r_in, r_out, theta0, theta1 (degrees)
      rect         -- x0, y0, x1, y1 (inclusive pixel bounds)
    """

    kind: str
    label: ClassLabel
    params: dict

    def __post_init__(self):
        # An unknown kind or a missing or ill-formed parameter fails here,
        # not when the phantom is rendered.
        self.mask(1, 1, 0.0)

    def mask(self, width: int, height: int, slice_offset: float) -> np.ndarray:
        y, x = np.mgrid[0:height, 0:width].astype(np.float64)
        p = {k: _eval_param(v, slice_offset) for k, v in self.params.items()}
        if self.kind == "ellipse":
            rx, ry = max(p["rx"], 1e-9), max(p["ry"], 1e-9)
            return ((x - p["cx"]) / rx) ** 2 + ((y - p["cy"]) / ry) ** 2 <= 1.0
        if self.kind == "annulus_arc":
            dx, dy = x - p["cx"], y - p["cy"]
            r = np.hypot(dx, dy)
            theta = np.degrees(np.arctan2(dy, dx)) % 360.0
            t0, t1 = p["theta0"] % 360.0, p["theta1"] % 360.0
            if t0 <= t1:
                in_arc = (theta >= t0) & (theta <= t1)
            else:  # wraps through 0 degrees
                in_arc = (theta >= t0) | (theta <= t1)
            return (r >= p["r_in"]) & (r <= p["r_out"]) & in_arc
        if self.kind == "rect":
            return (
                (x >= p["x0"]) & (x <= p["x1"]) & (y >= p["y0"]) & (y <= p["y1"])
            )
        raise ValidationError(f"unknown shape kind {self.kind!r}")

    def bounds_ok(self, width: int, height: int, slices: int) -> bool:
        # Every bound is affine in the slice offset, so the first and the last
        # slice are its extremes; the slices between them need no check.
        for off in (-(slices // 2), slices - 1 - slices // 2):
            p = {k: _eval_param(v, off) for k, v in self.params.items()}
            if self.kind == "ellipse":
                if (
                    p["cx"] - p["rx"] < 0
                    or p["cx"] + p["rx"] > width - 1
                    or p["cy"] - p["ry"] < 0
                    or p["cy"] + p["ry"] > height - 1
                ):
                    return False
            elif self.kind == "annulus_arc":
                if (
                    p["cx"] - p["r_out"] < 0
                    or p["cx"] + p["r_out"] > width - 1
                    or p["cy"] - p["r_out"] < 0
                    or p["cy"] + p["r_out"] > height - 1
                ):
                    return False
            elif self.kind == "rect":
                if (
                    p["x0"] < 0
                    or p["y0"] < 0
                    or p["x1"] > width - 1
                    or p["y1"] > height - 1
                ):
                    return False
        return True


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry plus tissue table describing a synthetic head volume."""

    width: int
    height: int
    slices: int
    shapes: tuple[Shape, ...]
    tissue_table: dict = field(default_factory=lambda: dict(DEFAULT_TISSUES))

    def __post_init__(self):
        for name in ("width", "height", "slices"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValidationError(f"phantom {name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for shape in self.shapes:
            if not shape.bounds_ok(self.width, self.height, self.slices):
                raise ValidationError(
                    f"{shape.kind} shape ({shape.label.name}) leaves image "
                    "bounds on some slice"
                )

    def rasterize(self, slice_index: int) -> LabelMap:
        """Labels for one slice; CSF shapes override MATTER override BACKGROUND."""
        off = slice_index - self.slices // 2
        labels = np.full(
            (self.height, self.width), int(ClassLabel.BACKGROUND), dtype=np.int64
        )
        for wanted in (ClassLabel.MATTER, ClassLabel.CSF):  # CSF painted last
            for shape in self.shapes:
                if shape.label == wanted:
                    labels[shape.mask(self.width, self.height, off)] = int(wanted)
        return LabelMap(self.width, self.height, labels)


def default_phantom_spec(
    width: int = 128, height: int = 128, slices: int = 20
) -> PhantomSpec:
    """Standard 3-class head phantom: skull/brain ellipses, two enlarged
    ventricle lobes and three widened sulcal arcs (advanced-atrophy load),
    all drifting smoothly across slices."""
    cx, cy = width / 2.0, height / 2.0
    sx = width / 128.0  # scale geometry with resolution
    sy = height / 128.0

    def e(label, ccx, ccy, rx, rx_sl, ry, ry_sl):
        return Shape(
            "ellipse",
            label,
            {
                "cx": ccx,
                "cy": ccy,
                "rx": [rx * sx, rx_sl * sx],
                "ry": [ry * sy, ry_sl * sy],
            },
        )

    shapes = [
        e(ClassLabel.MATTER, cx, cy, 48.0, -0.35, 56.0, -0.40),  # head outline
        e(ClassLabel.MATTER, cx, cy, 42.0, -0.30, 50.0, -0.35),  # brain
        e(ClassLabel.CSF, cx - 12 * sx, cy - 5 * sy, 9.0, 0.12, 19.0, 0.25),
        e(ClassLabel.CSF, cx + 12 * sx, cy - 5 * sy, 9.0, 0.12, 19.0, 0.25),
    ]
    for t0, t1 in ((50.0, 110.0), (190.0, 245.0), (295.0, 350.0)):
        shapes.append(
            Shape(
                "annulus_arc",
                ClassLabel.CSF,
                {
                    "cx": cx,
                    "cy": cy,
                    "r_in": [27.0 * sx, -0.25 * sx],
                    "r_out": [39.5 * sx, -0.25 * sx],
                    "theta0": [t0, 1.5],
                    "theta1": [t1, 1.5],
                },
            )
        )
    return PhantomSpec(width, height, slices, tuple(shapes))


def _spec_from_json(doc) -> PhantomSpec:
    shapes = tuple(
        Shape(s["kind"], _LABEL_NAMES[s["label"]], s["params"]) for s in doc["shapes"]
    )
    tissues = {
        _LABEL_NAMES[name]: TissueParams(**params)
        for name, params in doc.get("tissues", {}).items()
    }
    return PhantomSpec(
        doc["width"], doc["height"], doc["slices"], shapes, tissues or dict(DEFAULT_TISSUES)
    )


def load_phantom_spec(path) -> PhantomSpec:
    """Read a PhantomSpec from JSON (see phantom_spec_to_json for schema)."""
    return read_json(path, _spec_from_json)


def phantom_spec_to_json(spec: PhantomSpec) -> dict:
    return {
        "width": spec.width,
        "height": spec.height,
        "slices": spec.slices,
        "shapes": [
            {
                "kind": s.kind,
                "label": s.label.name,
                "params": {
                    k: list(v) if isinstance(v, (list, tuple)) else v
                    for k, v in s.params.items()
                },
            }
            for s in spec.shapes
        ],
        "tissues": {
            label.name: {"rho": t.rho, "t2": t.t2, "diffusion": t.diffusion}
            for label, t in spec.tissue_table.items()
        },
    }


def render_phantom(
    spec: PhantomSpec, acq: AcquisitionParams
) -> tuple[list[SpectralStack], list[LabelMap]]:
    """Synthesize the noiseless volume: one stack and one truth map per slice.

    Intensities follow the forward signal model per label, then one global
    scale maps the brightest b=0 pixel to 60% of full 16-bit scale.
    """
    truth = [spec.rasterize(s) for s in range(spec.slices)]
    used = set()
    for lm in truth:
        used.update(int(v) for v in np.unique(lm.labels))
    for code in sorted(used):
        if ClassLabel(code) not in spec.tissue_table:
            raise ValidationError(
                f"tissue table has no entry for {ClassLabel(code).name}"
            )

    # Per-class signal per band; intensities are class-constant fields.
    levels = {
        code: [
            signal(spec.tissue_table[ClassLabel(code)], acq, i)
            for i in range(len(acq.b_values))
        ]
        for code in used
    }
    b0_max = max(lv[0] for lv in levels.values())
    scale = RENDER_HEADROOM * FULL_SCALE / b0_max if b0_max > 0 else 1.0

    stacks = []
    for s, lm in enumerate(truth):
        bands = []
        for i in range(len(acq.b_values)):
            img = np.zeros((spec.height, spec.width), dtype=np.float64)
            for code in used:
                img[lm.labels == code] = levels[code][i] * scale
            bands.append(Band(spec.width, spec.height, img, slice_index=s))
        stacks.append(SpectralStack(tuple(bands), acq.b_values))
    return stacks, truth


# ---------------------------------------------------------------------------
# Additive Gaussian noise

@dataclass(frozen=True)
class NoiseConfig:
    """Zero-mean Gaussian noise; xi_max is sigma as a fraction of full scale."""

    xi_max: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.xi_max <= 0.20:
            raise ValidationError(
                f"xi_max must lie in [0, 0.20], got {self.xi_max}"
            )
        nonnegative_int(self.seed, "seed")


def add_gaussian_noise(band: Band, cfg: NoiseConfig, stream: int = 0) -> Band:
    """Seeded additive noise, clamped to [0, full scale].

    The generator is keyed by (seed, slice_index, stream) so parallel
    per-band generation stays order-independent.
    """
    if cfg.xi_max == 0.0:
        return band
    rng = np.random.default_rng((cfg.seed, band.slice_index, stream))
    sigma = cfg.xi_max * FULL_SCALE
    noisy = band.data + rng.normal(0.0, sigma, size=band.data.shape)
    np.clip(noisy, 0.0, FULL_SCALE, out=noisy)
    return Band(band.width, band.height, noisy, band.slice_index)


def add_noise_to_stack(stack: SpectralStack, xi_max: float, seed: int) -> SpectralStack:
    """Independent noise per band; band index keys the generator stream."""
    cfg = NoiseConfig(xi_max, seed)
    bands = tuple(
        add_gaussian_noise(band, cfg, stream=i) for i, band in enumerate(stack.bands)
    )
    return SpectralStack(bands, stack.b_values)
