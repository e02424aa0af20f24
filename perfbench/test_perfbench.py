"""Self-tests for the benchmark's own logic.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import envrecord  # noqa: E402

envrecord.pin(1)  # before numpy loads, as in a benchmark run

import golden  # noqa: E402
import layers  # noqa: E402
import pctl  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentile and sample-count rule ---------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (2000, 99.5), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert pctl.tail_percentile(n) == expected


def test_summary_reports_median_tail_and_count():
    s = pctl.summary(range(1, 101))
    assert s == {"median": 50.5, "n": 100, "tail_pct": 90.0, "tail": 90}
    assert sum(1 for v in range(1, 101) if v > s["tail"]) == 10
    assert "tail_pct" not in pctl.summary([3.0, 1.0, 2.0])


def test_percentile_interpolates_like_numpy():
    assert pctl.percentile([1, 2, 3, 4], 50) == 2.5
    assert pctl.percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)


# -- host-speed reference ------------------------------------------------------

def test_trimmed_mean_drops_a_rare_stall():
    assert speed.trimmed_mean([0.02] * 19 + [0.5]) == pytest.approx(0.02)
    assert speed.trimmed_mean([1.0, 2.0, 3.0]) == 2.0  # too few to cut


def test_speed_factor_scales_to_the_reference_pass():
    assert speed.factor([2 * speed.REF_PASS_S] * 10) == pytest.approx(0.5)  # half as fast
    probe = speed.SpeedProbe()
    probe.sample(3)
    assert len(probe.passes) == 3 and min(probe.passes) > 0


# -- spans: self time and parents across threads -----------------------------

def _tracer_with(*intervals):
    """A parent span [0, 10] on the main thread and children given as
    (start, end, thread) triples."""
    t = spans.Tracer()
    t.spans.append(spans.Span("bench.iteration", 0.0, 10.0, None, 1))
    t.spans.append(spans.Span("harness.run_sweep", 0.0, 10.0, 0, 1))
    for start, end, thread in intervals:
        t.spans.append(spans.Span("child", start, end, 1, thread))
    return t


def test_self_time_subtracts_union_of_overlapping_children():
    t = _tracer_with((1.0, 5.0, 2), (3.0, 8.0, 3), (8.5, 9.0, 2))
    assert t.self_time(1) == pytest.approx(10.0 - 7.0 - 0.5)


def test_self_time_clips_children_to_the_parent():
    t = _tracer_with((-1.0, 2.0, 2), (9.0, 12.0, 3))
    assert t.self_time(1) == pytest.approx(10.0 - 2.0 - 1.0)


def test_worker_thread_spans_take_the_main_threads_open_span_as_parent():
    t = spans.Tracer()
    both_started = threading.Barrier(2, timeout=10)

    def work():
        with t.span("child"):
            both_started.wait()
            time.sleep(0.05)

    with t.root("iteration"):
        with t.span("harness.run_sweep"):
            workers = [threading.Thread(target=work) for _ in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            assert not any(w.is_alive() for w in workers)
    sweep = t.named("harness.run_sweep")[0]
    children = t.named("child")
    assert [t.spans[c].parent for c in children] == [sweep, sweep]
    assert len({t.spans[c].thread for c in children}) == 2
    # The barrier makes the children overlap, so they cover one interval.
    covered = max(t.spans[c].end for c in children) - min(t.spans[c].start for c in children)
    assert t.self_time(sweep) == pytest.approx(t.spans[sweep].duration - covered)
    assert t.per_pass("child", lambda i: 1.0) == 2.0


def test_per_pass_adds_mean_setup_and_mean_iteration():
    t = spans.Tracer()
    for kind, n_children in (("setup", 1), ("setup", 3), ("iteration", 5)):
        with t.root(kind):
            for _ in range(n_children):
                with t.span("x"):
                    pass
    assert t.per_pass("x", lambda i: 1.0) == pytest.approx(2.0 + 5.0)


def test_wrap_and_restore_leave_the_namespace_as_it_was():
    class Namespace:
        @staticmethod
        def f(x):
            return x + 1

    t = spans.Tracer()
    original = Namespace.f
    t.wrap(Namespace, "f", "layer.f", lambda a, kw, out: {"out": out})
    with t.root("iteration"):
        assert Namespace.f(1) == 2
    t.restore()
    assert Namespace.f is original
    assert t.spans[t.named("layer.f")[0]].attrs == {"out": 2}


# -- correctness gate --------------------------------------------------------

def test_gate_passes_pinned_sweep_outputs_and_fails_a_corrupted_file(tmp_path):
    calls = workloads.Calls()
    sweep = workloads.Sweep(0, tmp_path, calls, ROOT / "src")
    sweep.setup(0)
    outcome = sweep.iterate(0)
    pinned = golden.load()["sweep"][outcome.key]
    assert golden.compare(pinned, sweep.record(outcome)) == []

    csv = tmp_path / "sweep" / "sweep.csv"
    data = bytearray(csv.read_bytes())
    data[-2] ^= 1
    csv.write_bytes(bytes(data))
    problems = golden.compare(pinned, sweep.record(outcome))
    assert len(problems) == 1 and problems[0].startswith("files sweep.csv")


def test_gate_reports_missing_files_kappa_and_unpinned_inputs():
    pinned = {"files": {"a": "1", "b": "2"}, "kappa": {"PO/0.0/1": 0.5}}
    got = {"files": {"a": "1"}, "kappa": {"PO/0.0/1": 0.25}}
    problems = golden.compare(pinned, got)
    assert problems == [
        "files b: missing",
        "kappa PO/0.0/1: expected 0.5, got 0.25",
    ]
    assert golden.compare(None, got) == ["no pinned reference for these inputs"]


def test_pooled_kappa_matches_the_program():
    from dwspectral.metrics import ConfusionMatrix, kappa

    counts = [[50, 3, 1], [4, 40, 2], [0, 1, 99]]
    assert golden.pooled_kappa(counts) == pytest.approx(kappa(ConfusionMatrix(counts)))


# -- contract with BENCHMARK.json ---------------------------------------------

def test_per_layer_metrics_match_the_declaration():
    emitted = layers.metrics(spans.Tracer(), threads=1)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert list(emitted) == list(declared)
    for name, unit in declared.items():
        assert layers.unit(name) == unit
        assert layers.target(name) is not None, name


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_the_declared_metrics_last(trace, section):
    proc = _run(ROOT, "--workload", "sweep", "--seed", "0", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[section]
    }


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _run(tmp_path, "--workload", "baseline", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
