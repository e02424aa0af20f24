import csv
import json

import numpy as np
import pytest

from dwspectral.errors import ValidationError
from dwspectral.harness import (
    CLASSIFIER_NAMES,
    DEFAULT_NOISE_LEVELS,
    DEFAULT_SEEDS,
    SWEEP_CSV_HEADER,
    ExperimentConfig,
    load_experiment_config,
    run_baseline,
    run_sweep,
)
from dwspectral.metrics import ConfusionMatrix, kappa


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.noise_levels == DEFAULT_NOISE_LEVELS
        assert cfg.seeds == DEFAULT_SEEDS
        assert cfg.classifiers == CLASSIFIER_NAMES

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

    def test_empty_levels_rejected(self, small_spec):
        cfg = ExperimentConfig(
            phantom=small_spec, training_slice=3, noise_levels=(), seeds=(1,)
        )
        with pytest.raises(ValidationError, match="at least one noise level"):
            run_sweep(cfg)
