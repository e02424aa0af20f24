import json

import numpy as np
import pytest

from dwspectral import cli, harness
from dwspectral.cli import main
from dwspectral.core_image import ClassLabel, LabelMap, load_labelmap, save_labelmap
from dwspectral.errors import FormatError, NumericalError, PipelineError, ValidationError
from dwspectral.metrics import confusion, kappa
from dwspectral.physics import phantom_spec_to_json


@pytest.fixture(scope="module")
def spec_file(small_spec, tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(phantom_spec_to_json(small_spec)))
    return path


@pytest.fixture(scope="module")
def phantom_dir(spec_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom")
    assert main(["phantom", "--spec", str(spec_file), "--out", str(out)]) == 0
    return out


class TestPhantomCommand:
    def test_file_counts(self, phantom_dir, small_spec):
        n = small_spec.slices
        assert len(list(phantom_dir.glob("slice_*_*.pgm"))) == 3 * n
        assert len(list(phantom_dir.glob("slice_*_manifest.json"))) == n
        assert len(list(phantom_dir.glob("truth_*.pgm"))) == n
        assert (phantom_dir / "run.json").exists()

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["phantom", "--spec", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_seeded_rerun_identical_bands(self, spec_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["phantom", "--spec", str(spec_file), "--out", str(a)]) == 0
        assert main(["phantom", "--spec", str(spec_file), "--out", str(b)]) == 0
        for pa in sorted(a.glob("*.pgm")):
            assert pa.read_bytes() == (b / pa.name).read_bytes()


class TestAdcCommand:
    def test_outputs_with_sidecar(self, phantom_dir, tmp_path):
        manifest = phantom_dir / "slice_03_manifest.json"
        out = tmp_path / "adc_03"
        assert main(["adc", "--stack", str(manifest), "--out", str(out)]) == 0
        assert (tmp_path / "adc_03.adc").exists()
        assert (tmp_path / "adc_03.pgm").exists()
        sidecar = json.loads((tmp_path / "adc_03.pgm.json").read_text())
        assert sidecar["scale"] > 0
        assert (tmp_path / "adc_03.adc.run.json").exists()

    def test_single_band_manifest_exits_2(self, phantom_dir, tmp_path, capsys):
        doc = json.loads((phantom_dir / "slice_03_manifest.json").read_text())
        doc["bands"] = doc["bands"][:1]
        doc["b_values"] = doc["b_values"][:1]
        bad = phantom_dir / "one_band.json"
        bad.write_text(json.dumps(doc))
        code = main(["adc", "--stack", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err


class TestTrainClassifyEval:
    def test_round_trip_po(self, phantom_dir, tmp_path):
        manifest = str(phantom_dir / "slice_03_manifest.json")
        truth = str(phantom_dir / "truth_03.pgm")
        model = tmp_path / "po.json"
        pred = tmp_path / "pred.pgm"
        report = tmp_path / "report.json"
        assert main(
            ["train", "--method", "po", "--stack", manifest, "--labels", truth,
             "--out", str(model)]
        ) == 0
        assert main(
            ["classify", "--model", str(model), "--stack", manifest,
             "--out", str(pred)]
        ) == 0
        assert main(
            ["eval", "--pred", str(pred), "--truth", truth, "--out", str(report)]
        ) == 0
        k = kappa(confusion(load_labelmap(pred), load_labelmap(truth)))
        assert k >= 0.99
        doc = json.loads(report.read_text())
        assert doc["metrics"]["kappa"] == pytest.approx(k)
        assert (tmp_path / "pred.pgm.run.json").exists()

    def test_eval_identity_map(self, phantom_dir, tmp_path):
        truth = str(phantom_dir / "truth_03.pgm")
        out = tmp_path / "self.json"
        assert main(["eval", "--pred", truth, "--truth", truth, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["kappa"] == 1.0
        assert doc["metrics"]["overall_accuracy"] == 1.0

    def test_ko_adc_round_trip(self, phantom_dir, tmp_path):
        manifest = str(phantom_dir / "slice_03_manifest.json")
        truth = str(phantom_dir / "truth_03.pgm")
        adc_out = tmp_path / "adc"
        assert main(["adc", "--stack", manifest, "--out", str(adc_out)]) == 0
        model = tmp_path / "koadc.json"
        pred = tmp_path / "pred.pgm"
        assert main(
            ["train", "--method", "ko-adc", "--adc", str(tmp_path / "adc.adc"),
             "--labels", truth, "--out", str(model), "--seed", "1"]
        ) == 0
        assert main(
            ["classify", "--model", str(model), "--adc", str(tmp_path / "adc.adc"),
             "--out", str(pred)]
        ) == 0
        k = kappa(confusion(load_labelmap(pred), load_labelmap(truth)))
        assert k >= 0.99

    def test_eval_single_class_maps_exits_2(self, tmp_path, capsys):
        """Kappa is undefined when both maps hold one class (p_e = 1)."""
        single = tmp_path / "matter.pgm"
        save_labelmap(LabelMap(4, 4, np.full((4, 4), int(ClassLabel.MATTER))), single)
        argv = ["eval", "--pred", single, "--truth", single, "--out", tmp_path / "r.json"]
        assert "kappa" in assert_one_error_line(argv, capsys)


class TestSweepCommand:
    def test_tiny_sweep_row_count(self, spec_file, tmp_path):
        cfg = {
            "phantom_spec": spec_file.name,
            "training_slice": 3,
            "noise_levels": [0.05],
            "seeds": [1, 2],
            "classifiers": ["PO", "KO-ADC"],
        }
        cfg_path = spec_file.parent / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 1 * 2
        assert (out / "run.json").exists()
        assert (out / "kappa_vs_noise.svg").exists()

    def test_run_record_contents(self, phantom_dir, tmp_path):
        doc = json.loads((phantom_dir / "run.json").read_text())
        assert doc["command"] == "phantom"
        assert all(len(h) == 64 for h in doc["input_digests"].values())
        out = tmp_path / "noisy"
        stack = phantom_dir / "slice_03_manifest.json"
        argv = ["noise", "--stack", str(stack), "--xi", "0.05", "--out", str(out)]
        assert main(argv) == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["seed"] == 0
        assert list(doc["input_digests"]) == [str(stack)]


def assert_one_error_line(argv, capsys) -> str:
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.fixture(scope="module")
def model_docs(phantom_dir, tmp_path_factory):
    """One trained model document per kind: po, mlp and som (method ko)."""
    out = tmp_path_factory.mktemp("models")
    docs = {}
    for method in ("po", "mlp", "ko"):
        path = out / f"{method}.json"
        assert main(
            ["train", "--method", method,
             "--stack", str(phantom_dir / "slice_03_manifest.json"),
             "--labels", str(phantom_dir / "truth_03.pgm"), "--out", str(path)]
        ) == 0
        docs[method] = json.loads(path.read_text())
    return docs


def classify_argv(phantom_dir, doc, out_dir, name="model"):
    """Write ``doc`` as a model file; returns the model path and the argv
    that classifies slice 2 with it."""
    model = out_dir / f"{name}.json"
    model.write_text(json.dumps(doc))
    stack = phantom_dir / "slice_02_manifest.json"
    argv = ["classify", "--model", model, "--stack", stack, "--out", model.with_suffix(".pgm")]
    return model, argv


class TestMalformedModelFiles:
    @pytest.mark.parametrize(
        "method, key",
        [("po", "weights"), ("mlp", "output_weights"), ("ko", "neurons")],
    )
    def test_missing_key_exits_2(
        self, phantom_dir, model_docs, tmp_path, capsys, method, key
    ):
        doc = {k: v for k, v in model_docs[method].items() if k != key}
        model, argv = classify_argv(phantom_dir, doc, tmp_path)
        err = assert_one_error_line(argv, capsys)
        assert str(model) in err and key in err

    def test_unknown_config_field_exits_2(
        self, phantom_dir, model_docs, tmp_path, capsys
    ):
        doc = json.loads(json.dumps(model_docs["mlp"]))
        doc["config"]["bogus"] = 1
        model, argv = classify_argv(phantom_dir, doc, tmp_path)
        assert str(model) in assert_one_error_line(argv, capsys)

    @pytest.mark.parametrize("method", ["po", "mlp", "ko"])
    def test_legacy_normalize_key_still_loads(
        self, phantom_dir, model_docs, tmp_path, method
    ):
        """Model files written before scaling was fixed by input kind carry
        a "normalize" flag; it is ignored and the predictions are unchanged."""
        docs = {"legacy": {**model_docs[method], "normalize": True},
                "current": model_docs[method]}
        for name, doc in docs.items():
            _, argv = classify_argv(phantom_dir, doc, tmp_path, name)
            assert main([str(a) for a in argv]) == 0
        legacy_pred = (tmp_path / "legacy.pgm").read_bytes()
        assert legacy_pred == (tmp_path / "current.pgm").read_bytes()


def unknown_tissue_key(doc):
    doc["tissues"]["CSF"]["bogus"] = 1
    return doc


def shape_without_rx(doc):
    del doc["shapes"][0]["params"]["rx"]
    return doc


def arc_without_r_in(doc):
    arc = next(s for s in doc["shapes"] if s["kind"] == "annulus_arc")
    del arc["params"]["r_in"]
    return doc


def unknown_shape_kind(doc):
    doc["shapes"][0]["kind"] = "blob"
    return doc


def three_element_parameter(doc):
    doc["shapes"][0]["params"]["rx"] = [1, 2, 3]
    return doc


def list_document(doc):
    return [1, 2]


def sweep_argv(spec_file, tmp_path, **edits):
    """A one-cell sweep on the small phantom, with ``edits`` applied to its
    config document."""
    cfg = tmp_path / "cfg.json"
    doc = {
        "phantom_spec": str(spec_file),
        "training_slice": 3,
        "noise_levels": [0.05],
        "seeds": [1],
        "classifiers": ["PO"],
    }
    cfg.write_text(json.dumps({**doc, **edits}))
    return ["sweep", "--config", cfg, "--out", tmp_path / "o"]


class TestMalformedConfigFiles:
    @pytest.mark.parametrize("text", ["{bad", '{"k_const": 1, "bogus": 2}'])
    def test_phantom_acq_exits_2(self, tmp_path, capsys, text):
        acq = tmp_path / "acq.json"
        acq.write_text(text)
        argv = ["phantom", "--acq", acq, "--out", tmp_path / "o"]
        assert str(acq) in assert_one_error_line(argv, capsys)

    def test_baseline_config_unknown_acquisition_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"acquisition": {"bogus": 1}}))
        argv = ["baseline", "--config", cfg, "--out", tmp_path / "o"]
        err = assert_one_error_line(argv, capsys)
        assert "acquisition" in err and "bogus" in err

    @pytest.mark.parametrize(
        "edit",
        [
            unknown_tissue_key,
            shape_without_rx,
            arc_without_r_in,
            unknown_shape_kind,
            three_element_parameter,
            list_document,
        ],
    )
    def test_phantom_spec_exits_2(self, small_spec, tmp_path, capsys, edit):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(edit(phantom_spec_to_json(small_spec))))
        argv = ["phantom", "--spec", spec, "--out", tmp_path / "o"]
        assert str(spec) in assert_one_error_line(argv, capsys)

    def test_baseline_config_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        argv = ["baseline", "--config", cfg, "--out", tmp_path / "o"]
        assert str(cfg) in assert_one_error_line(argv, capsys)

    @pytest.mark.parametrize("name", ["missing.json", "a_directory"])
    def test_unreadable_stack_exits_2(self, tmp_path, capsys, name):
        (tmp_path / "a_directory").mkdir()
        stack = tmp_path / name
        argv = ["noise", "--stack", stack, "--xi", "0.05", "--out", tmp_path / "o"]
        assert str(stack) in assert_one_error_line(argv, capsys)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("training_slice", 2.5, "training slice must be a non-negative integer"),
            ("seeds", [1.7], "seed must be a non-negative integer, got 1.7"),
            ("seeds", [1, 1], "duplicate seeds"),
            ("noise_levels", [0.05, 0.05], "duplicate noise levels"),
            ("classifiers", ["PO", "PO"], "duplicate classifiers"),
        ],
    )
    def test_sweep_config_exits_2(self, spec_file, tmp_path, capsys, key, value, message):
        argv = sweep_argv(spec_file, tmp_path, **{key: value})
        assert message in assert_one_error_line(argv, capsys)


class TestThreadSetting:
    @pytest.mark.parametrize(
        "value, message",
        [
            ("0", "must be >= 1, got 0"),
            ("-1", "must be >= 1, got -1"),
            ("two", "is not an integer: 'two'"),
        ],
    )
    def test_sweep_exits_2(self, spec_file, tmp_path, capsys, monkeypatch, value, message):
        monkeypatch.setenv("DWSPECTRAL_THREADS", value)
        err = assert_one_error_line(sweep_argv(spec_file, tmp_path), capsys)
        assert f"DWSPECTRAL_THREADS {message}" in err

    @pytest.mark.parametrize("command", ["sweep", "baseline"])
    def test_read_before_rendering(self, spec_file, tmp_path, capsys, monkeypatch, command):
        def render(*args):
            raise AssertionError("rendered before DWSPECTRAL_THREADS was read")

        monkeypatch.setattr(harness, "render_phantom", render)
        monkeypatch.setenv("DWSPECTRAL_THREADS", "0")
        argv = [command, *sweep_argv(spec_file, tmp_path)[1:]]
        assert "must be >= 1, got 0" in assert_one_error_line(argv, capsys)


NEGATIVE_SEED = "seed must be a non-negative integer, got -1"


class TestNegativeRngKeys:
    """Seeds and slice indices key numpy generators, which reject negative
    values; each must end in one error line, not a traceback."""

    def test_noise_seed_exits_2(self, phantom_dir, tmp_path, capsys):
        stack = phantom_dir / "slice_03_manifest.json"
        argv = ["noise", "--seed", "-1", "--stack", stack, "--xi", "0.05",
                "--out", tmp_path / "o"]
        assert NEGATIVE_SEED in assert_one_error_line(argv, capsys)

    @pytest.mark.parametrize("method", ["mlp", "ko", "ko-adc"])
    def test_train_seed_exits_2(self, phantom_dir, tmp_path, capsys, method):
        argv = ["train", "--seed", "-1", "--method", method,
                "--stack", phantom_dir / "slice_03_manifest.json",
                "--labels", phantom_dir / "truth_03.pgm", "--out", tmp_path / "m.json"]
        assert NEGATIVE_SEED in assert_one_error_line(argv, capsys)

    def test_sweep_config_seed_exits_2(self, spec_file, tmp_path, capsys):
        argv = sweep_argv(spec_file, tmp_path, seeds=[-1])
        assert NEGATIVE_SEED in assert_one_error_line(argv, capsys)

    @pytest.mark.parametrize("index", [-1, 1.5])
    def test_manifest_slice_index_exits_2(self, phantom_dir, tmp_path, capsys, index):
        doc = json.loads((phantom_dir / "slice_03_manifest.json").read_text())
        doc["slice_index"] = index
        manifest = phantom_dir / "bad_slice_index.json"  # band paths are relative
        manifest.write_text(json.dumps(doc))
        argv = ["noise", "--stack", manifest, "--xi", "0.05", "--out", tmp_path / "o"]
        err = assert_one_error_line(argv, capsys)
        assert str(manifest) in err and "slice_index" in err


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (ValidationError, 2, "error: "),
            (FormatError, 2, "error: "),
            (NumericalError, 1, "internal error: "),
            (PipelineError, 1, "internal error: "),
        ],
    )
    def test_error_class_sets_exit_code(
        self, monkeypatch, tmp_path, capsys, error, code, prefix
    ):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_phantom", fail)
        assert main(["phantom", "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"{prefix}boom\n"


class TestArgumentErrors:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["phantom", "--bogus", "x", "--out", "y"])
        assert exc.value.code == 2

    def test_seed_only_where_used(self):
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "--seed", "1", "--out", "y"])
        assert exc.value.code == 2

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])
