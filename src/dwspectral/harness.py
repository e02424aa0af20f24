"""End-to-end experiments: train on one slice, classify the volume, sweep
Gaussian noise levels, and emit kappa-vs-noise curves."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .adc import AdcConfig, adc_map
from .classifiers import (
    MlpConfig,
    SomConfig,
    classify,
    label_som,
    train_ko_adc,
    train_mlp,
    train_polynomial,
    train_som,
)
from .core_image import (
    SpectralStack,
    config_from_json,
    extract_band_samples,
    extract_samples,
    finite_number,
    read_json,
    save_labelmap,
    whole_number,
)
from .errors import ValidationError
from .metrics import (
    MetricsReport,
    VolumeReport,
    merge_confusions,
    confusion,
    report_from_confusion,
    volumes,
)
from .physics import (
    AcquisitionParams,
    PhantomSpec,
    add_noise_to_stack,
    default_phantom_spec,
    load_phantom_spec,
    render_phantom,
)

DEFAULT_NOISE_LEVELS = tuple(i / 100.0 for i in range(1, 21))
DEFAULT_SEEDS = (1, 2, 3, 4, 5)
SWEEP_CSV_HEADER = "classifier,xi_max,seed,kappa,phi,v1,v2,v3,rate"


# name -> (input, train): input is "stack" or "adc", the slice's ADC map, and
# train(samples, seeds) -> {seed: model}, one PO model for all seeds. They call
# this module's train_* names, which the benchmark replaces here to trace them.
CLASSIFIERS = {
    "PO": ("stack", lambda x, seeds: dict.fromkeys(seeds, train_polynomial(x))),
    "MLP": ("stack", lambda x, seeds: {s: train_mlp(x, MlpConfig(seed=s)) for s in seeds}),
    "KO": ("stack", lambda x, seeds: {
        s: label_som(train_som(x, SomConfig(seed=s)), x) for s in seeds}),
    "KO-ADC": ("adc", lambda x, seeds: {s: train_ko_adc(x, SomConfig(seed=s)) for s in seeds}),
}


def training_samples(input: str, image, labels, adc_cfg: AdcConfig):
    """A classifier's training samples from ``image``, a stack or an ADC
    map; an "adc" input takes the map of a stack, made with ``adc_cfg``."""
    if input == "stack":
        return extract_samples(image, labels)
    if isinstance(image, SpectralStack):
        image = adc_map(image, adc_cfg)
    return extract_band_samples(image, labels)


@dataclass(frozen=True)
class ExperimentConfig:
    phantom: PhantomSpec = field(default_factory=default_phantom_spec)
    acquisition: AcquisitionParams = field(default_factory=AcquisitionParams)
    adc: AdcConfig = field(default_factory=AdcConfig)
    training_slice: int = 13
    noise_levels: tuple = DEFAULT_NOISE_LEVELS
    seeds: tuple = DEFAULT_SEEDS
    classifiers: tuple = tuple(CLASSIFIERS)

    def __post_init__(self):
        if not 0 <= self.training_slice < self.phantom.slices:
            raise ValidationError(
                f"training slice {self.training_slice} outside volume "
                f"of {self.phantom.slices} slices"
            )
        whole_number(self.training_slice, "training slice")  # such as 2.5
        levels = tuple(finite_number(v, "noise level") for v in self.noise_levels)
        if any(not 0.0 <= v <= 0.20 for v in levels):
            raise ValidationError(f"noise levels must lie in [0, 0.20]: {levels}")
        seeds = tuple(whole_number(s, "seed") for s in self.seeds)
        if not seeds:
            raise ValidationError("at least one seed is required")
        names = tuple(self.classifiers)
        unknown = [c for c in names if c not in CLASSIFIERS]
        if unknown:
            raise ValidationError(f"unknown classifiers {unknown}")
        if not names:
            raise ValidationError("at least one classifier must be selected")
        # A repeated value would score, and write, the same cells twice.
        named = (("noise levels", levels), ("seeds", seeds), ("classifiers", names))
        for what, values in named:
            if len(set(values)) != len(values):
                raise ValidationError(f"duplicate {what}: {values}")
        object.__setattr__(self, "noise_levels", levels)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "classifiers", names)


def load_experiment_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from JSON; omitted keys take defaults and a
    phantom spec path is resolved relative to the config file."""
    path = Path(path)

    def build(doc):
        kwargs = {
            key: doc[key]
            for key in ("training_slice", "noise_levels", "seeds", "classifiers")
            if doc.get(key) is not None
        }
        if doc.get("phantom_spec"):
            kwargs["phantom"] = load_phantom_spec(path.parent / doc["phantom_spec"])
        return ExperimentConfig(
            acquisition=config_from_json(
                AcquisitionParams, doc.get("acquisition") or {}, f"{path}: acquisition"
            ),
            adc=config_from_json(AdcConfig, doc.get("adc") or {}, f"{path}: adc"),
            **kwargs,
        )

    return read_json(path, build)


@dataclass(frozen=True)
class CellResult:
    classifier: str
    xi_max: float
    seed: int
    report: MetricsReport
    volume: VolumeReport

    def sort_key(self):
        return (self.classifier, self.xi_max, self.seed)


@dataclass
class BaselineResult:
    cells: list
    models: dict  # classifier -> {seed: model}
    stacks: list
    truth: list
    ground_truth_maps: list  # PO classification of the noiseless volume


@dataclass
class SweepResult:
    cells: list

    def median_kappa(self, classifier: str) -> dict:
        """xi_max -> median kappa over seeds."""
        by_level = {}
        for cell in self.cells:
            if cell.classifier == classifier:
                by_level.setdefault(cell.xi_max, []).append(cell.report.kappa)
        return {lvl: float(np.median(ks)) for lvl, ks in sorted(by_level.items())}


def train_models(cfg: ExperimentConfig, stacks, truth) -> dict:
    """Train every selected classifier once per seed on the training slice."""
    stack, labels = stacks[cfg.training_slice], truth[cfg.training_slice]
    samples, models = {}, {}
    for name in cfg.classifiers:
        input, train = CLASSIFIERS[name]
        if input not in samples:
            samples[input] = training_samples(input, stack, labels, cfg.adc)
        models[name] = train(samples[input], cfg.seeds)
    return models


def _classify_slice(name: str, model, stack, adc_cfg: AdcConfig):
    """Classifier ``name``'s labels of one slice, of its CLASSIFIERS input."""
    image = adc_map(stack, adc_cfg) if CLASSIFIERS[name][0] == "adc" else stack
    return classify(model, image)


def _score_cells(cfg: ExperimentConfig, stacks, truth, models, levels) -> list:
    """Score every (noise level, seed) cell: perturb every band of every
    slice, recompute the ADC map from the noisy bands, classify with each
    trained model and score against the noiseless phantom truth. Level 0
    leaves the bands as they are.

    A cell is one pass over its slices: each noisy slice is made once, every
    classifier labels it, sharing its feature planes, and each label map is
    scored as soon as it is made, so only confusion counts are kept. One
    helper thread, which lives only for this call, makes the noisy slices
    two ahead of the classifiers, across cell boundaries, so at most three
    are alive at once; numpy draws them with the GIL released.
    Each band's generator is keyed by (seed, slice, band), so the bytes do
    not depend on when the helper draws them. On an error the draws not yet
    started are cancelled and the helper is joined before the error
    propagates."""
    # Imported here, not at the top: concurrent.futures loads logging, and
    # every CLI process imports this module (+0.6 MB peak RSS per CLI step).
    from concurrent.futures import ThreadPoolExecutor

    cells = []
    draws = ((stack, level, seed) for level in levels for seed in cfg.seeds for stack in stacks)
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        ahead = deque(helper.submit(add_noise_to_stack, *d) for d in islice(draws, 2))
        for level in levels:
            for seed in cfg.seeds:
                scored = {name: [] for name in cfg.classifiers}
                for t in truth:
                    noisy = ahead.popleft().result()
                    ahead.extend(helper.submit(add_noise_to_stack, *d) for d in islice(draws, 1))
                    for name, matrices in scored.items():
                        pred = _classify_slice(name, models[name][seed], noisy, cfg.adc)
                        matrices.append(confusion(pred, t))
                for name, matrices in scored.items():
                    cm = merge_confusions(matrices)
                    report = report_from_confusion(cm)
                    cells.append(CellResult(name, level, seed, report, volumes(cm)))
    finally:
        helper.shutdown(cancel_futures=True)
    cells.sort(key=CellResult.sort_key)
    return cells


def run_baseline(cfg: ExperimentConfig, out_dir=None) -> BaselineResult:
    """Noiseless end-to-end run: render, train, then score the zero-noise
    cell of every seed; optionally writes baseline.json/csv and the
    polynomial-net ground-truth maps."""
    stacks, truth = render_phantom(cfg.phantom, cfg.acquisition)
    models = train_models(cfg, stacks, truth)
    cells = _score_cells(cfg, stacks, truth, models, (0.0,))
    ground_truth_maps = []
    if "PO" in cfg.classifiers:
        po_model = models["PO"][cfg.seeds[0]]
        ground_truth_maps = [_classify_slice("PO", po_model, st, cfg.adc) for st in stacks]

    result = BaselineResult(cells, models, stacks, truth, ground_truth_maps)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_cells_csv(cells, out_dir / "baseline.csv")
        (out_dir / "baseline.json").write_text(_baseline_json(cfg, cells))
        for i, lm in enumerate(ground_truth_maps):
            save_labelmap(lm, out_dir / f"po_ground_truth_{i:02d}.pgm")
    return result


def run_sweep(
    cfg: ExperimentConfig, out_dir=None, baseline: BaselineResult | None = None
) -> SweepResult:
    """Noise sweep over ``cfg.noise_levels`` x ``cfg.seeds`` with models
    trained once on the noiseless training slice (see _score_cells)."""
    if not cfg.noise_levels:
        raise ValidationError("sweep needs at least one noise level")
    if baseline is None:
        stacks, truth = render_phantom(cfg.phantom, cfg.acquisition)
        models = train_models(cfg, stacks, truth)
    else:
        stacks, truth, models = baseline.stacks, baseline.truth, baseline.models
    cells = _score_cells(cfg, stacks, truth, models, cfg.noise_levels)
    result = SweepResult(cells)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_cells_csv(cells, out_dir / "sweep.csv")
        (out_dir / "sweep_confusions.json").write_text(_confusions_json(cells))
        (out_dir / "kappa_vs_noise.svg").write_text(kappa_curve_svg(result, cfg))
    return result


# ---------------------------------------------------------------------------
# Output files

def _fmt(x: float) -> str:
    return format(x, ".12g")


def _write_cells_csv(cells, path) -> None:
    lines = [SWEEP_CSV_HEADER]
    for c in cells:
        rate = "" if c.volume.fluid_matter_rate is None else _fmt(c.volume.fluid_matter_rate)
        lines.append(
            ",".join(
                [
                    c.classifier,
                    _fmt(c.xi_max),
                    str(c.seed),
                    _fmt(c.report.kappa),
                    _fmt(c.report.phi),
                    _fmt(c.volume.v1),
                    _fmt(c.volume.v2),
                    _fmt(c.volume.v3),
                    rate,
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _baseline_json(cfg: ExperimentConfig, cells) -> str:
    per_clf = {}
    for c in cells:
        entry = per_clf.setdefault(c.classifier, {"seeds": {}})
        entry["seeds"][str(c.seed)] = {
            "metrics": c.report.to_json(),
            "volumes": c.volume.to_json(),
        }
    for name, entry in per_clf.items():
        kappas = [s["metrics"]["kappa"] for s in entry["seeds"].values()]
        phis = [s["metrics"]["overall_accuracy"] for s in entry["seeds"].values()]
        entry["median_kappa"] = float(np.median(kappas))
        entry["median_phi"] = float(np.median(phis))
    doc = {
        "training_slice": cfg.training_slice,
        "seeds": list(cfg.seeds),
        "classifiers": per_clf,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _confusions_json(cells) -> str:
    rows = [
        {
            "classifier": c.classifier,
            "xi_max": c.xi_max,
            "seed": c.seed,
            "confusion_matrix": c.report.matrix.counts.tolist(),
        }
        for c in cells
    ]
    return json.dumps(rows, indent=2) + "\n"


_SVG_COLORS = {"PO": "#1f77b4", "MLP": "#d62728", "KO": "#2ca02c", "KO-ADC": "#9467bd"}


def kappa_curve_svg(result: SweepResult, cfg: ExperimentConfig) -> str:
    """Line chart of median kappa per classifier versus noise level, written
    directly as SVG so the harness needs no plotting dependency."""
    width, height = 640, 420
    ml, mr, mt, mb = 60, 160, 30, 50
    pw, ph = width - ml - mr, height - mt - mb
    levels = sorted({c.xi_max for c in result.cells})
    x_min, x_max = min(levels), max(levels)
    x_span = (x_max - x_min) or 1.0

    def sx(x):
        return ml + pw * (x - x_min) / x_span

    def sy(k):  # kappa axis fixed to [0, 1]
        return mt + ph * (1.0 - min(max(k, 0.0), 1.0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = mt + ph * (1.0 - frac)
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="12">{frac:.2f}</text>'
        )
    for lvl in levels:
        x = sx(lvl)
        parts.append(
            f'<text x="{x:.1f}" y="{mt + ph + 16}" text-anchor="middle" '
            f'font-size="10">{_fmt(lvl)}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2}" y="{height - 10}" text-anchor="middle" '
        f'font-size="13">maximum Gaussian noise fraction</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {mt + ph / 2})">median kappa</text>'
    )
    legend_y = mt + 10
    for name in cfg.classifiers:
        series = result.median_kappa(name)
        if not series:
            continue
        color = _SVG_COLORS.get(name, "black")
        points = " ".join(
            f"{sx(lvl):.2f},{sy(k):.2f}" for lvl, k in sorted(series.items())
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<line x1="{ml + pw + 10}" y1="{legend_y}" x2="{ml + pw + 34}" '
            f'y2="{legend_y}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + pw + 40}" y="{legend_y + 4}" font-size="12">{name}</text>'
        )
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
