"""The benchmark in ``perfbench/`` traces the program by wrapping names in
the namespaces of ``harness`` and ``cli`` (``perfbench/layers.py``). These
tests fail when a refactor removes or renames one of those names, or stops
calling it, so the traced benchmark run would break or lose a layer."""

import sys
from pathlib import Path

import pytest

from dwspectral import cli, harness

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
