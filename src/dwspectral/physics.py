"""Forward spin-echo signal model, phantom synthesis and Gaussian noise."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_image import (
    FULL_SCALE,
    ClassLabel,
    LabelMap,
    SpectralStack,
    b_value_sequence,
    check_keys,
    config_from_json,
    finite_number,
    read_json,
    whole_number,
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
        object.__setattr__(self, "b_values", b_value_sequence(self.b_values))


# Literature-typical defaults; chosen so CSF is bright at b=0 and dark at
# b=1000 while matter decays far less.
DEFAULT_TISSUES = {
    ClassLabel.CSF: TissueParams(rho=1.0, t2=2000.0, diffusion=3.0e-3),
    ClassLabel.MATTER: TissueParams(rho=0.8, t2=90.0, diffusion=0.8e-3),
    ClassLabel.BACKGROUND: TissueParams(rho=0.0, t2=1.0, diffusion=0.0),
}


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


def _eval_param(value, s: float, name: str) -> float:
    """A shape parameter is a finite number or [base, per-slice slope]."""
    what = f"shape parameter {name}"
    if isinstance(value, (list, tuple)):
        base, slope = value
        return finite_number(base, what) + finite_number(slope, what) * s
    return finite_number(value, what)


def _ellipse_mask(p, x, y):
    rx, ry = max(p["rx"], 1e-9), max(p["ry"], 1e-9)
    return ((x - p["cx"]) / rx) ** 2 + ((y - p["cy"]) / ry) ** 2 <= 1.0


def _annulus_arc_mask(p, x, y):
    dx, dy = x - p["cx"], y - p["cy"]
    r = np.hypot(dx, dy)
    ring = (r >= p["r_in"]) & (r <= p["r_out"])
    # The angle only of the ring's pixels, a thin share of the slice.
    dx, dy = (np.broadcast_to(d, ring.shape)[ring] for d in (dx, dy))
    theta = np.degrees(np.arctan2(dy, dx)) % 360.0
    t0, t1 = p["theta0"] % 360.0, p["theta1"] % 360.0
    if t0 <= t1:
        in_arc = (theta >= t0) & (theta <= t1)
    else:  # wraps through 0 degrees
        in_arc = (theta >= t0) | (theta <= t1)
    ring[ring] = in_arc
    return ring


def _rect_mask(p, x, y):
    return (x >= p["x0"]) & (x <= p["x1"]) & (y >= p["y0"]) & (y <= p["y1"])


def _box(cx, cy, rx, ry):
    return cx - rx, cx + rx, cy - ry, cy + ry


# kind -> (its parameters; mask on the pixel coordinates x, y; extent (xmin,
# xmax, ymin, ymax)), mask and extent of the parameters evaluated at one
# slice offset.
_SHAPE_KINDS = {
    "ellipse": (
        ("cx", "cy", "rx", "ry"),
        _ellipse_mask,
        lambda p: _box(p["cx"], p["cy"], p["rx"], p["ry"]),
    ),
    "annulus_arc": (
        ("cx", "cy", "r_in", "r_out", "theta0", "theta1"),
        _annulus_arc_mask,
        lambda p: _box(p["cx"], p["cy"], p["r_out"], p["r_out"]),
    ),
    "rect": (
        ("x0", "y0", "x1", "y1"),
        _rect_mask,
        lambda p: (p["x0"], p["x1"], p["y0"], p["y1"]),
    ),
}


@dataclass(frozen=True)
class Shape:
    """Parametric region mapped to one class; parameters may vary per slice.

    kinds (_SHAPE_KINDS):
      ellipse      -- cx, cy, rx, ry
      annulus_arc  -- cx, cy, r_in, r_out, theta0, theta1 (degrees)
      rect         -- x0, y0, x1, y1 (inclusive pixel bounds)
    """

    kind: str
    label: ClassLabel
    params: dict

    def __post_init__(self):
        # An unknown kind, or a missing, unknown or ill-formed parameter,
        # fails here, not when the phantom is rendered.
        if self.kind not in _SHAPE_KINDS:
            raise ValidationError(f"unknown shape kind {self.kind!r}")
        check_keys(self.params, _SHAPE_KINDS[self.kind][0], f"{self.kind} params")
        origin = np.zeros(1)
        self.mask(origin, origin, 0.0)

    def _at(self, slice_offset: float) -> dict:
        return {k: _eval_param(v, slice_offset, k) for k, v in self.params.items()}

    def mask(self, x, y, slice_offset: float) -> np.ndarray:
        """The shape's pixels at ``slice_offset``, on pixel coordinates x and
        y that broadcast together (a row of columns and a column of rows)."""
        return _SHAPE_KINDS[self.kind][1](self._at(slice_offset), x, y)

    def bounds_ok(self, width: int, height: int, slices: int) -> bool:
        # Every bound is affine in the slice offset, so the first and the last
        # slice are its extremes; the slices between them need no check.
        extent = _SHAPE_KINDS[self.kind][2]
        for off in (-(slices // 2), slices - 1 - slices // 2):
            xmin, xmax, ymin, ymax = extent(self._at(off))
            if xmin < 0 or xmax > width - 1 or ymin < 0 or ymax > height - 1:
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
            value = whole_number(getattr(self, name), f"phantom {name}", positive=True)
            object.__setattr__(self, name, value)
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
            (self.height, self.width), int(ClassLabel.BACKGROUND), dtype=np.uint8
        )
        x = np.arange(self.width, dtype=np.float64)
        y = np.arange(self.height, dtype=np.float64)[:, None]
        for wanted in (ClassLabel.MATTER, ClassLabel.CSF):  # CSF painted last
            for shape in self.shapes:
                if shape.label == wanted:
                    labels[shape.mask(x, y, off)] = int(wanted)
        return LabelMap(labels)


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


def _shape_from_json(doc, index: int) -> Shape:
    check_keys(doc, ("kind", "label", "params"), f"shapes[{index}]")
    return Shape(doc["kind"], _LABEL_NAMES[doc["label"]], doc["params"])


def _spec_from_json(doc) -> PhantomSpec:
    check_keys(doc, ("width", "height", "slices", "shapes", "tissues"), "phantom spec")
    shapes = tuple(_shape_from_json(s, i) for i, s in enumerate(doc["shapes"]))
    table = {}  # an omitted table is PhantomSpec's default; an empty one is empty
    if "tissues" in doc:
        check_keys(doc["tissues"], _LABEL_NAMES, "tissues")
        table["tissue_table"] = {
            _LABEL_NAMES[name]: config_from_json(TissueParams, params, f"tissues.{name}")
            for name, params in doc["tissues"].items()
        }
    return PhantomSpec(doc["width"], doc["height"], doc["slices"], shapes, **table)


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

    # Intensities are class-constant fields: band i of a slice is row i of
    # this table, indexed by the slice's truth labels.
    n_bands = len(acq.b_values)
    lut = np.zeros((n_bands, max(ClassLabel) + 1))
    for code in used:
        tissue = spec.tissue_table[ClassLabel(code)]
        lut[:, code] = [signal(tissue, acq, i) for i in range(n_bands)]
    b0_max = lut[0].max()
    lut *= RENDER_HEADROOM * FULL_SCALE / b0_max if b0_max > 0 else 1.0

    # take, not lut[:, labels]: that result is not C-contiguous.
    stacks = [
        SpectralStack(lut.take(lm.labels, axis=1), acq.b_values, s)
        for s, lm in enumerate(truth)
    ]
    return stacks, truth


# ---------------------------------------------------------------------------
# Additive Gaussian noise

def add_noise_to_stack(stack: SpectralStack, xi_max: float, seed: int) -> SpectralStack:
    """Seeded zero-mean Gaussian noise of sigma ``xi_max`` x full scale,
    clamped to [0, full scale]. Band i of slice s draws from the generator
    keyed (seed, s, i), so each band's noise is independent of the others
    and of the order they are drawn in."""
    if not 0.0 <= finite_number(xi_max, "xi_max") <= 0.20:
        raise ValidationError(f"xi_max must lie in [0, 0.20], got {xi_max}")
    seed = whole_number(seed, "seed")
    if xi_max == 0.0:
        return stack
    # data + sigma * z in one buffer: the bytes of data + rng.normal(0, sigma),
    # whose draw is 0.0 + sigma * z for the same z.
    sigma = xi_max * FULL_SCALE
    noisy = np.empty(stack.data.shape)
    for i, buf in enumerate(noisy):
        np.random.default_rng((seed, stack.slice_index, i)).standard_normal(out=buf)
    noisy *= sigma
    noisy += stack.data
    np.clip(noisy, 0.0, FULL_SCALE, out=noisy)
    return SpectralStack(noisy, stack.b_values, stack.slice_index)
