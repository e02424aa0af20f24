"""The benchmark in ``perfbench/`` traces the program by wrapping names in
the namespaces of ``harness`` and ``cli`` (``perfbench/layers.py``). These
tests fail when a refactor removes or renames one of those names, or stops
calling it, so the traced benchmark run would break or lose a layer."""

import json
import sys
from pathlib import Path

import pytest

from dwspectral import cli, harness
from dwspectral.physics import phantom_spec_to_json

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WRAPPED = [
    (harness, layers.HARNESS_CALLS),
    (cli, layers.CLI_CALLS),
    (workloads, layers.BENCH_CALLS),
]


@pytest.fixture
def tracer():
    t = spans.Tracer()
    try:
        yield t
    finally:
        t.restore()


def test_install_wraps_every_name_and_restore_puts_it_back(tracer):
    originals = {
        (ns.__name__, attr): getattr(ns, attr) for ns, attrs in WRAPPED for attr in attrs
    }
    layers.install(tracer, workloads)
    for ns, attrs in WRAPPED:
        for attr in attrs:
            assert getattr(ns, attr) is not originals[ns.__name__, attr], attr
    tracer.restore()
    for ns, attrs in WRAPPED:
        for attr in attrs:
            assert getattr(ns, attr) is originals[ns.__name__, attr], attr


def test_baseline_and_sweep_call_every_wrapped_harness_name(tracer, small_spec, tmp_path):
    expected = {
        attr: "classifiers.classify." if attr == "classify"
        else layers.span_name(getattr(harness, attr))
        for attr in layers.HARNESS_CALLS
    }
    layers.install(tracer, workloads)
    cfg = harness.ExperimentConfig(
        phantom=small_spec, training_slice=3, noise_levels=(0.05,), seeds=(1,)
    )
    baseline = harness.run_baseline(cfg, out_dir=tmp_path / "baseline")
    harness.run_sweep(cfg, out_dir=tmp_path / "sweep", baseline=baseline)
    traced = {sp.name for sp in tracer.spans}
    missing = [
        attr for attr, name in expected.items()
        if not any(t.startswith(name) for t in traced)
    ]
    assert missing == []


def test_cli_steps_call_every_wrapped_cli_name(tracer, small_spec, tmp_path):
    """Each step exits 0 under tracing, so no MEASURES function raised
    (cli.main would not catch its error)."""
    expected = {
        attr: "classifiers.classify." if attr == "classify"
        else layers.span_name(getattr(cli, attr))
        for attr in layers.CLI_CALLS
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(phantom_spec_to_json(small_spec)))
    vol, noisy, adc = tmp_path / "vol", tmp_path / "noisy", tmp_path / "adc"
    truth = vol / "truth_03.pgm"
    steps = [
        ["phantom", "--spec", spec, "--out", vol],
        ["noise", "--xi", "0.05", "--seed", "1",
         "--stack", vol / "slice_03_manifest.json", "--out", noisy],
        ["adc", "--stack", noisy / "noisy_manifest.json", "--out", adc],
    ]
    for method in ("po", "mlp", "ko", "ko-adc"):
        model, pred = tmp_path / f"{method}.json", tmp_path / f"{method}.pgm"
        image = ["--adc", adc.with_suffix(".adc")] if method == "ko-adc" else [
            "--stack", noisy / "noisy_manifest.json"]
        steps += [
            ["train", "--method", method, *image, "--labels", truth, "--out", model],
            ["classify", "--model", model, *image, "--out", pred],
            ["eval", "--pred", pred, "--truth", truth, "--out", pred.with_suffix(".eval.json")],
        ]
    layers.install(tracer, workloads)
    for argv in steps:
        assert cli.main([str(a) for a in argv]) == 0, argv
    traced = {sp.name for sp in tracer.spans}
    missing = [
        attr for attr, name in expected.items()
        if not any(t.startswith(name) for t in traced)
    ]
    assert missing == []
    measured = tuple(expected[attr] for attr in layers.MEASURES)
    assert [sp.name for sp in tracer.spans if sp.name.startswith(measured) and not sp.attrs] == []
