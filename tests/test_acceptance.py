"""Acceptance suite: one printed PASS/FAIL line per criterion.

Criteria 5, 6 and 8 share a single full-size baseline plus 400-cell noise
sweep (4 classifiers x 20 noise levels x 5 seeds), computed once per module.
"""

import time

import numpy as np
import pytest

from dwspectral.adc import AdcConfig, adc_map_raw
from dwspectral.core_image import ClassLabel
from dwspectral.harness import ExperimentConfig, run_baseline, run_sweep
from dwspectral.metrics import ConfusionMatrix, kappa, overall_accuracy
from dwspectral.physics import (
    AcquisitionParams,
    default_phantom_spec,
    render_phantom,
)

from test_classifiers import (  # reuse the oracle datasets and references
    annulus_dataset,
    backprop_step_errors,
    best_linear_accuracy,
    reference_po_labels,
)
from dwspectral.classifiers import _backprop_buffers, train_polynomial


@pytest.fixture(scope="module")
def full_run():
    """Default-size experiment shared by criteria 5, 6 and 8."""
    cfg = ExperimentConfig()
    t0 = time.perf_counter()
    baseline = run_baseline(cfg)
    t_baseline = time.perf_counter() - t0
    t0 = time.perf_counter()
    sweep = run_sweep(cfg, baseline=baseline)
    t_sweep = time.perf_counter() - t0
    return cfg, baseline, sweep, t_baseline, t_sweep


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_physics_identity(capsys):
    t0 = time.perf_counter()
    stacks, truth = render_phantom(default_phantom_spec(), AcquisitionParams())
    d_of = {int(ClassLabel.CSF): 3.0e-3, int(ClassLabel.MATTER): 0.8e-3}
    worst_log = 0.0
    worst_adc = 0.0
    for stack, lm in zip(stacks, truth):
        tissue = lm.labels != int(ClassLabel.BACKGROUND)
        d = np.vectorize(d_of.get)(lm.labels[tissue])
        for i in (1, 2):
            lhs = np.log(stack.bands[0].data[tissue] / stack.bands[i].data[tissue])
            expected = stack.b_values[i] * d
            worst_log = max(worst_log, np.max(np.abs(lhs - expected) / expected))
        raw = adc_map_raw(stack, AdcConfig(c_const=1.0, normalize_by_terms=True))
        worst_adc = max(worst_adc, np.max(np.abs(raw[tissue] - d) / d))
    elapsed = time.perf_counter() - t0
    ok = worst_log <= 1e-12 and worst_adc <= 1e-9 and elapsed < 5.0
    announce(
        capsys, 1, ok,
        f"log-ratio identity rel err {worst_log:.2e} (≤1e-12), "
        f"ADC rel err {worst_adc:.2e} (≤1e-9), {elapsed:.1f}s (<5s)",
    )


def test_criterion_2_metric_oracles(capsys):
    worked = ConfusionMatrix(np.array([[30, 10, 0], [20, 40, 0], [0, 0, 0]]))
    diag = ConfusionMatrix(np.diag([10, 20, 30]).astype(np.int64))
    chance = ConfusionMatrix(np.array([[25, 25, 0], [25, 25, 0], [0, 0, 0]]))
    ok = (
        kappa(worked) == pytest.approx(0.40, abs=1e-15)
        and overall_accuracy(worked) == pytest.approx(0.70, abs=1e-15)
        and kappa(diag) == 1.0
        and kappa(chance) == pytest.approx(0.0, abs=1e-15)
    )
    announce(
        capsys, 2, ok,
        f"kappa oracle {kappa(worked):.12g}=0.40, phi {overall_accuracy(worked):.12g}=0.70, "
        f"diag kappa {kappa(diag)}, chance kappa {kappa(chance):.1g}",
    )


def test_criterion_3_mlp_gradient_check(capsys):
    """The online step that train_mlp applies, one sample at a time, against
    central finite differences of that sample's loss 0.5 * |y - t|^2."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    b = _backprop_buffers(rng.uniform(-0.5, 0.5, (60, 4)), rng.uniform(-0.5, 0.5, (3, 61)))
    xb = np.hstack([rng.random((25, 3)), np.ones((25, 1))])
    t = np.full((25, 3), 0.1)
    t[np.arange(25), rng.integers(0, 3, 25)] = 0.9
    coords = [(0, i) for i in rng.choice(b.nh.size, 10, replace=False)]
    coords += [(1, i) for i in rng.choice(b.no.size, 10, replace=False)]
    worst = 0.0
    applied = True
    for xi, ti in zip(xb, t):
        _, step_applied, errors = backprop_step_errors(b, xi, ti, 0.2, coords)
        applied = applied and step_applied
        worst = max(worst, *errors)
    elapsed = time.perf_counter() - t0
    ok = applied and worst <= 1e-4 and elapsed < 10.0
    announce(
        capsys, 3, ok,
        f"backprop step vs finite differences worst rel err {worst:.2e} (≤1e-4) "
        f"on 20 coordinates x 25 samples, step applied {applied}, "
        f"{elapsed:.1f}s (<10s)",
    )


def test_criterion_4_hyperquadric_separability(capsys):
    samples = annulus_dataset()
    model = train_polynomial(samples)
    pred = reference_po_labels(model, samples.features)
    poly_acc = float(np.mean(pred == samples.labels))
    linear_acc = best_linear_accuracy(samples)
    ok = poly_acc >= 0.99 and linear_acc <= 0.70
    announce(
        capsys, 4, ok,
        f"annulus: quadratic net {poly_acc:.3f} (≥0.99), "
        f"best linear {linear_acc:.3f} (≤0.70)",
    )


def test_criterion_5_end_to_end_baseline(capsys, full_run):
    _, baseline, _, t_baseline, _ = full_run
    medians = {}
    for name in ("PO", "MLP", "KO", "KO-ADC"):
        ks = [c.report.kappa for c in baseline.cells if c.classifier == name]
        medians[name] = float(np.median(ks))
    ok = (
        medians["PO"] >= 0.99
        and medians["KO"] >= 0.95
        and medians["KO-ADC"] == 1.0
        and medians["MLP"] >= 0.90
        and t_baseline < 120.0
    )
    announce(
        capsys, 5, ok,
        "noiseless median kappa "
        + ", ".join(f"{n}={medians[n]:.4f}" for n in medians)
        + f" (PO≥0.99 KO≥0.95 KO-ADC=1.0 MLP≥0.90), {t_baseline:.1f}s (<120s)",
    )


def test_criterion_6_noise_sweep_ordering(capsys, full_run):
    _, _, sweep, _, t_sweep = full_run
    med = {name: sweep.median_kappa(name) for name in ("MLP", "KO", "KO-ADC")}
    ko_above_adc = all(med["KO"][x] > med["KO-ADC"][x] for x in (0.10, 0.20))
    ko_decay = (med["KO"][0.01] - med["KO"][0.20]) / med["KO"][0.01]
    mlp_decay = (med["MLP"][0.01] - med["MLP"][0.20]) / med["MLP"][0.01]
    ok = ko_above_adc and ko_decay < mlp_decay and t_sweep < 900.0
    announce(
        capsys, 6, ok,
        f"KO>KO-ADC at 0.10 ({med['KO'][0.10]:.3f}>{med['KO-ADC'][0.10]:.3f}) "
        f"and 0.20 ({med['KO'][0.20]:.3f}>{med['KO-ADC'][0.20]:.3f}); "
        f"KO decay {ko_decay:.3f} < MLP decay {mlp_decay:.3f}; "
        f"{t_sweep:.0f}s (<900s)",
    )


def test_criterion_7_determinism(capsys, tmp_path):
    cfg = ExperimentConfig(
        phantom=default_phantom_spec(width=48, height=48, slices=6),
        training_slice=3,
        noise_levels=(0.05, 0.10),
        seeds=(1, 2),
    )
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        baseline = run_baseline(cfg, out_dir=out)
        run_sweep(cfg, out_dir=out, baseline=baseline)
        outs.append(out)
    base_same = (outs[0] / "baseline.csv").read_bytes() == (outs[1] / "baseline.csv").read_bytes()
    sweep_same = (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
    ok = base_same and sweep_same
    announce(
        capsys, 7, ok,
        f"repeat runs byte-identical: baseline.csv={base_same}, sweep.csv={sweep_same}",
    )


def test_criterion_8_kappa_curve_shape(capsys, full_run):
    cfg, _, sweep, _, _ = full_run
    violations = {}
    for name in cfg.classifiers:
        med = sweep.median_kappa(name)
        series = [med[x] for x in sorted(med)]
        violations[name] = sum(
            1 for a, b in zip(series, series[1:]) if b > a + 1e-12
        )
    ok = all(v <= 1 for v in violations.values())
    announce(
        capsys, 8, ok,
        "median kappa non-increasing with ≤1 local violation: "
        + ", ".join(f"{n}={v}" for n, v in violations.items()),
    )
