import csv
import itertools
import json
import threading
import time
from collections import Counter

import numpy as np
import pytest

from dwspectral import harness
from dwspectral.errors import NumericalError, ValidationError
from dwspectral.harness import (
    CLASSIFIERS,
    DEFAULT_NOISE_LEVELS,
    DEFAULT_SEEDS,
    SWEEP_CSV_HEADER,
    ExperimentConfig,
    load_experiment_config,
    run_baseline,
    run_sweep,
)
from dwspectral.metrics import ConfusionMatrix, confusion, kappa, merge_confusions, volumes
from dwspectral.physics import add_noise_to_stack


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.noise_levels == DEFAULT_NOISE_LEVELS
        assert cfg.seeds == DEFAULT_SEEDS
        assert cfg.classifiers == tuple(CLASSIFIERS)

    def test_empty_classifier_list_rejected(self, small_spec):
        with pytest.raises(ValidationError, match="at least one classifier"):
            ExperimentConfig(phantom=small_spec, training_slice=3, classifiers=())

    def test_unknown_classifier_rejected(self, small_spec):
        with pytest.raises(ValidationError, match=r"unknown classifiers \['SVM'\]"):
            ExperimentConfig(
                phantom=small_spec, training_slice=3, classifiers=("PO", "SVM")
            )

    def test_training_slice_bounds(self, small_spec):
        with pytest.raises(ValidationError, match="training slice 6 outside volume"):
            ExperimentConfig(phantom=small_spec, training_slice=small_spec.slices)

    def test_noise_level_range(self, small_spec):
        with pytest.raises(ValidationError, match="noise levels must lie in"):
            ExperimentConfig(phantom=small_spec, training_slice=3, noise_levels=(0.25,))

    def test_load_from_json(self, tmp_path):
        doc = {
            "training_slice": 2,
            "noise_levels": [0.01, 0.02],
            "seeds": [7],
            "classifiers": ["PO", "KO"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_experiment_config(path)
        assert cfg.training_slice == 2
        assert cfg.noise_levels == (0.01, 0.02)
        assert cfg.seeds == (7,)
        assert cfg.classifiers == ("PO", "KO")


    @pytest.mark.parametrize("value", ["false", None, 0, 1])
    def test_adc_normalize_must_be_bool(self, tmp_path, value):
        # "false" is truthy: it used to average the log-ratio terms anyway.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"adc": {"normalize_by_terms": value}}))
        message = "normalize_by_terms must be true or false"
        with pytest.raises(ValidationError, match=message) as err:
            load_experiment_config(path)
        assert str(path) in str(err.value)


class TestBaseline:
    def test_outputs_and_cell_grid(self, small_cfg, tmp_path):
        result = run_baseline(small_cfg, out_dir=tmp_path)
        assert len(result.cells) == len(small_cfg.classifiers) * len(small_cfg.seeds)
        assert (tmp_path / "baseline.csv").exists()
        assert (tmp_path / "baseline.json").exists()
        maps = sorted(tmp_path.glob("po_ground_truth_*.pgm"))
        assert len(maps) == small_cfg.phantom.slices
        doc = json.loads((tmp_path / "baseline.json").read_text())
        assert set(doc["classifiers"]) == set(small_cfg.classifiers)

    def test_po_shared_across_seeds(self, small_cfg):
        result = run_baseline(small_cfg)
        models = result.models["PO"]
        assert len({id(m) for m in models.values()}) == 1


@pytest.fixture(scope="module")
def sweep_run(small_spec, tmp_path_factory):
    cfg = ExperimentConfig(
        phantom=small_spec,
        training_slice=3,
        noise_levels=(0.0, 0.05, 0.10),
        seeds=(1, 2, 3),
    )
    out = tmp_path_factory.mktemp("sweep")
    baseline = run_baseline(cfg, out_dir=out)
    result = run_sweep(cfg, out_dir=out, baseline=baseline)
    return cfg, out, baseline, result


class TestSweep:
    def test_row_count_covers_grid(self, sweep_run):
        cfg, out, _, result = sweep_run
        expected = len(cfg.classifiers) * len(cfg.noise_levels) * len(cfg.seeds)
        assert len(result.cells) == expected
        rows = read_csv_rows(out / "sweep.csv")
        assert len(rows) == expected

    def test_csv_header(self, sweep_run):
        _, out, _, _ = sweep_run
        first = (out / "sweep.csv").read_text().splitlines()[0]
        assert first == SWEEP_CSV_HEADER

    def test_zero_noise_rows_match_baseline(self, sweep_run):
        cfg, out, _, _ = sweep_run
        base = {
            (r["classifier"], r["seed"]): r for r in read_csv_rows(out / "baseline.csv")
        }
        for row in read_csv_rows(out / "sweep.csv"):
            if float(row["xi_max"]) != 0.0:
                continue
            b = base[(row["classifier"], row["seed"])]
            for field in ("kappa", "phi", "v1", "v2", "v3", "rate"):
                assert row[field] == b[field]

    def test_rerun_is_byte_identical(self, sweep_run, tmp_path):
        cfg, out, baseline, _ = sweep_run
        run_sweep(cfg, out_dir=tmp_path, baseline=baseline)
        assert (tmp_path / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()

    def test_kappa_recomputable_from_confusions(self, sweep_run):
        _, out, _, result = sweep_run
        rows = json.loads((out / "sweep_confusions.json").read_text())
        by_key = {
            (c.classifier, round(c.xi_max, 12), c.seed): c for c in result.cells
        }
        assert len(rows) == len(result.cells)
        for row in rows:
            cell = by_key[(row["classifier"], round(row["xi_max"], 12), row["seed"])]
            m = ConfusionMatrix(np.array(row["confusion_matrix"], dtype=np.int64))
            assert kappa(m) == pytest.approx(cell.report.kappa, abs=1e-12)

    def test_svg_written_with_all_series(self, sweep_run):
        cfg, out, _, _ = sweep_run
        svg = (out / "kappa_vs_noise.svg").read_text()
        assert svg.startswith("<svg") or "<svg" in svg
        for name in cfg.classifiers:
            assert name in svg

    def test_median_kappa_levels(self, sweep_run):
        cfg, _, _, result = sweep_run
        med = result.median_kappa("PO")
        assert sorted(med) == sorted(cfg.noise_levels)
        assert med[0.0] == pytest.approx(1.0)

    def test_cells_do_not_depend_on_classifier_order_or_subset(self, sweep_run, tmp_path):
        cfg, out, _, _ = sweep_run
        subset = ExperimentConfig(
            phantom=cfg.phantom,
            training_slice=cfg.training_slice,
            noise_levels=cfg.noise_levels,
            seeds=cfg.seeds,
            classifiers=("KO-ADC", "PO"),
        )
        run_sweep(subset, out_dir=tmp_path)
        full_rows = read_csv_rows(out / "sweep.csv")
        want = [r for r in full_rows if r["classifier"] in subset.classifiers]
        assert read_csv_rows(tmp_path / "sweep.csv") == want
        full = json.loads((out / "sweep_confusions.json").read_text())
        got = json.loads((tmp_path / "sweep_confusions.json").read_text())
        assert got == [r for r in full if r["classifier"] in subset.classifiers]

    def test_noise_drawn_once_per_level_seed_and_slice(self, sweep_run, monkeypatch):
        cfg, _, baseline, _ = sweep_run
        drawn = Counter()

        def counted(stack, xi_max, seed):
            drawn[xi_max, seed, stack.slice_index] += 1
            return add_noise_to_stack(stack, xi_max, seed)

        monkeypatch.setattr(harness, "add_noise_to_stack", counted)
        run_sweep(cfg, baseline=baseline)
        slices = range(cfg.phantom.slices)
        assert sorted(drawn) == sorted(itertools.product(cfg.noise_levels, cfg.seeds, slices))
        assert set(drawn.values()) == {1}

    def test_volumes_are_confusion_column_shares(self, sweep_run):
        cfg, _, baseline, _ = sweep_run
        models = baseline.models
        for name in cfg.classifiers:
            preds = []
            for stack in baseline.stacks:
                noisy = add_noise_to_stack(stack, 0.10, 2)
                preds.append(harness._classify_slice(name, models[name][2], noisy, cfg.adc))
            cm = merge_confusions(confusion(p, t) for p, t in zip(preds, baseline.truth))
            labels = np.concatenate([p.labels.ravel() for p in preds])
            shares = [100.0 * np.count_nonzero(labels == c) / labels.size for c in (1, 2, 3)]
            rep = volumes(cm)
            assert [rep.v1, rep.v2, rep.v3] == shares

    def test_empty_levels_rejected(self, small_spec):
        cfg = ExperimentConfig(
            phantom=small_spec, training_slice=3, noise_levels=(), seeds=(1,)
        )
        with pytest.raises(ValidationError, match="at least one noise level"):
            run_sweep(cfg)


class TestNoiseHelperThread:
    """A sweep draws its noise on one helper thread that lives only for the
    call: no thread outlives ``run_sweep`` or ``run_baseline``, whether the
    call returns or raises, and an error on either thread reaches the
    caller unchanged."""

    @pytest.fixture
    def one_level(self, small_spec):
        return ExperimentConfig(
            phantom=small_spec, training_slice=3, noise_levels=(0.05,), seeds=(1, 2)
        )

    def test_no_thread_left_after_baseline_and_sweep(self, one_level):
        before = threading.active_count()
        baseline = run_baseline(one_level)
        assert threading.active_count() == before
        run_sweep(one_level, baseline=baseline)
        assert threading.active_count() == before

    def test_noise_drawn_on_one_thread_other_than_the_callers(self, one_level, monkeypatch):
        baseline = run_baseline(one_level)
        threads = set()

        def recorded(stack, xi_max, seed):
            threads.add(threading.get_ident())
            return add_noise_to_stack(stack, xi_max, seed)

        monkeypatch.setattr(harness, "add_noise_to_stack", recorded)
        run_sweep(one_level, baseline=baseline)
        assert len(threads) == 1
        assert threading.get_ident() not in threads

    def test_classify_error_reaches_caller_and_helper_is_joined(self, one_level, monkeypatch):
        baseline = run_baseline(one_level)
        err = NumericalError("planted at slice 5")
        drawn = Counter()
        real_classify = harness.classify

        def counted(stack, xi_max, seed):
            drawn[seed, stack.slice_index] += 1
            return add_noise_to_stack(stack, xi_max, seed)

        def failing(model, image):
            if image.slice_index == 5:
                raise err
            return real_classify(model, image)

        monkeypatch.setattr(harness, "add_noise_to_stack", counted)
        monkeypatch.setattr(harness, "classify", failing)
        before = threading.active_count()
        with pytest.raises(NumericalError) as caught:
            run_sweep(one_level, baseline=baseline)
        assert caught.value is err
        assert threading.active_count() == before
        # Seed 1's slices come first; the helper draws at most two ahead of
        # the failing slice 5, and nothing twice.
        order = {(seed, k): (seed - 1) * one_level.phantom.slices + k for seed, k in drawn}
        assert max(order.values()) <= 5 + 2
        assert set(drawn.values()) == {1}

    def test_noise_error_reaches_caller_and_helper_is_joined(self, one_level, monkeypatch):
        baseline = run_baseline(one_level)
        err = ValidationError("planted in seed 2, slice 3")

        def failing(stack, xi_max, seed):
            if (seed, stack.slice_index) == (2, 3):
                raise err
            return add_noise_to_stack(stack, xi_max, seed)

        monkeypatch.setattr(harness, "add_noise_to_stack", failing)
        before = threading.active_count()
        with pytest.raises(ValidationError) as caught:
            run_sweep(one_level, baseline=baseline)
        assert caught.value is err
        assert threading.active_count() == before

    def test_draws_not_started_are_cancelled_on_error(self, small_spec, monkeypatch):
        """Slice 0's classify fails while the helper is drawing slice 1, with
        slice 2 queued behind it: slice 2 is never drawn."""
        cfg = ExperimentConfig(
            phantom=small_spec, training_slice=3, noise_levels=(0.05,), seeds=(1,),
            classifiers=("PO",),
        )
        baseline = run_baseline(cfg)
        drawing_1 = threading.Event()
        drawn = []

        def gated(stack, xi_max, seed):
            drawn.append(stack.slice_index)
            if stack.slice_index == 1:
                drawing_1.set()
                time.sleep(0.5)  # the failing caller cancels slice 2 meanwhile
            return add_noise_to_stack(stack, xi_max, seed)

        def failing(model, image):
            assert drawing_1.wait(timeout=10)
            raise NumericalError("planted at slice 0")

        monkeypatch.setattr(harness, "add_noise_to_stack", gated)
        monkeypatch.setattr(harness, "classify", failing)
        with pytest.raises(NumericalError, match="planted at slice 0"):
            run_sweep(cfg, baseline=baseline)
        assert drawn == [0, 1]
