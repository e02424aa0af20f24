import json
import struct

import numpy as np
import pytest

from dwspectral import cli
from dwspectral.adc import save_adc_raw
from dwspectral.classifiers import SomModel, save_model
from dwspectral.cli import main
from dwspectral.core_image import (
    Band, ClassLabel, LabelMap, load_labelmap, load_stack, save_labelmap,
)
from dwspectral.errors import FormatError, NumericalError, PipelineError, ValidationError
from dwspectral.harness import ExperimentConfig, train_models
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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--c", "inf", "C must be a finite number, got inf"),
            ("--epsilon", "inf", "epsilon must be a finite number, got inf"),
            ("--epsilon", "nan", "epsilon must be a finite number, got nan"),
        ],
    )
    def test_non_finite_config_exits_2(self, phantom_dir, tmp_path, capsys, flag, value, message):
        manifest = phantom_dir / "slice_03_manifest.json"
        argv = ["adc", "--stack", manifest, flag, value, "--out", tmp_path / "x"]
        assert message in assert_one_error_line(argv, capsys)

    @pytest.mark.parametrize(
        "b_values, message",
        [
            ([0, 500, float("inf")], "b-value must be a finite number, got inf"),
            ([0, float("nan"), 1000], "b-value must be a finite number, got nan"),
            (["0", "500", "1000"], "b-value must be a finite number, got '0'"),
            ([0, True, 1000], "b-value must be a finite number, got True"),
        ],
    )
    def test_manifest_b_values_exit_2(self, phantom_dir, tmp_path, capsys, b_values, message):
        doc = json.loads((phantom_dir / "slice_03_manifest.json").read_text())
        doc["b_values"] = b_values
        manifest = phantom_dir / "bad_b_values.json"  # band paths are relative
        manifest.write_text(json.dumps(doc))  # Infinity and NaN, as Python writes them
        argv = ["adc", "--stack", manifest, "--out", tmp_path / "x"]
        err = assert_one_error_line(argv, capsys)
        assert str(manifest) in err and message in err
        assert not (tmp_path / "x.adc").exists()

    def test_manifest_unknown_key_exits_2(self, phantom_dir, tmp_path, capsys):
        """A misspelled slice index would load as slice 0, whose noise the
        noise command would then draw."""
        doc = json.loads((phantom_dir / "slice_03_manifest.json").read_text())
        doc["slice_idx"] = doc.pop("slice_index")
        manifest = phantom_dir / "slice_idx.json"
        manifest.write_text(json.dumps(doc))
        argv = ["noise", "--stack", manifest, "--xi", "0.1", "--seed", "1", "--out", tmp_path / "n"]
        err = assert_one_error_line(argv, capsys)
        assert str(manifest) in err and "unknown keys ['slice_idx'] in stack manifest" in err
        assert not (tmp_path / "n").exists()

    def test_non_finite_map_exits_2(self, phantom_dir, tmp_path, capsys):
        """C / b overflows to inf, and inf * ln 1 is NaN on the background:
        one error line naming the ADC map, and no numpy warning before it."""
        doc = json.loads((phantom_dir / "slice_03_manifest.json").read_text())
        doc["b_values"] = [0, 1e-300, 2e-300]
        manifest = phantom_dir / "tiny_b_values.json"
        manifest.write_text(json.dumps(doc))
        argv = ["adc", "--stack", manifest, "--c", "1e10", "--out", tmp_path / "x"]
        err = assert_one_error_line(argv, capsys)
        assert "ADC map of slice 3 is not finite" in err
        assert not (tmp_path / "x.adc").exists()

    def test_pgm_scale_overflow_exits_2(self, phantom_dir, tmp_path, capsys):
        """A finite map whose peak is below 65535 / 1.8e308: its PGM scale
        overflows, so one error line names the peak and no file is left."""
        manifest = phantom_dir / "slice_03_manifest.json"
        argv = ["adc", "--stack", manifest, "--c", "1e-310", "--out", tmp_path / "a"]
        err = assert_one_error_line(argv, capsys)
        assert "is too small for a 16-bit PGM" in err and "ADC map peak " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("width, height", [(0, 0), (0, 5), (5, 0)])
    def test_classify_zero_dimension_adc_exits_2(self, tmp_path, capsys, width, height):
        model = tmp_path / "ko-adc.json"
        save_model(SomModel(np.array([[0.0], [1e-3], [3e-3]]), (1, 2, 3)), model)
        adc = tmp_path / "zero.adc"
        adc.write_bytes(b"ADCF" + struct.pack("<II", width, height))
        argv = ["classify", "--model", model, "--adc", adc, "--out", tmp_path / "p.pgm"]
        err = assert_one_error_line(argv, capsys)
        assert f"{adc}: non-positive dimensions {width}x{height}" in err
        assert not (tmp_path / "p.pgm").exists()

    def test_classify_adc_with_trailing_bytes_exits_2(self, tmp_path, capsys):
        # 128x128 float64 values behind a header that says 64x64.
        model = tmp_path / "ko-adc.json"
        save_model(SomModel(np.array([[0.0], [1e-3], [3e-3]]), (1, 2, 3)), model)
        adc = tmp_path / "edited.adc"
        adc.write_bytes(b"ADCF" + struct.pack("<II", 64, 64) + bytes(128 * 128 * 8))
        argv = ["classify", "--model", model, "--adc", adc, "--out", tmp_path / "p.pgm"]
        err = assert_one_error_line(argv, capsys)
        assert f"{adc}: trailing bytes, 131072 payload bytes where 64x64 takes 32768" in err
        assert not (tmp_path / "p.pgm").exists()


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

    def test_ko_adc_overflowing_distances_exit_1(self, phantom_dir, tmp_path, capsys):
        """Squared distances between ADC values near 1e200 overflow: one
        internal-error line, and no numpy warning from training before it."""
        truth = phantom_dir / "truth_03.pgm"
        adc = tmp_path / "huge.adc"
        values = np.random.default_rng(0).uniform(0.0, 1e200, load_labelmap(truth).labels.shape)
        save_adc_raw(Band(values), adc)
        argv = ["train", "--method", "ko-adc", "--adc", adc, "--labels", truth,
                "--out", tmp_path / "m.json"]
        assert main([str(a) for a in argv]) == 1
        assert capsys.readouterr().err == "internal error: som model gave non-finite distances\n"
        assert not (tmp_path / "m.json").exists()

    def test_eval_single_class_maps_exits_2(self, tmp_path, capsys):
        """Kappa is undefined when both maps hold one class (p_e = 1)."""
        single = tmp_path / "matter.pgm"
        save_labelmap(LabelMap(np.full((4, 4), int(ClassLabel.MATTER))), single)
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

    @pytest.mark.parametrize(
        "method, key, value",
        [
            *(
                (method, key, value)
                for method, key in (("mlp", "eta0"), ("mlp", "target_error"), ("ko", "eta0"))
                for value in (float("nan"), float("inf"), True, "0.2")
            ),
            *(
                (method, key, value)
                for method, key in (("mlp", "max_epochs"), ("ko", "max_iters"))
                for value in (2.5, float("nan"), True, "10", 0)
            ),
        ],
    )
    def test_config_numbers_exit_2(
        self, phantom_dir, model_docs, tmp_path, capsys, method, key, value
    ):
        doc = json.loads(json.dumps(model_docs[method]))
        doc["config"][key] = value
        model, argv = classify_argv(phantom_dir, doc, tmp_path)
        err = assert_one_error_line(argv, capsys)
        rule = "positive integer" if key.startswith("max_") else "finite number"
        assert str(model) in err and f"must be a {rule}, got {value!r}" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [doc], "model file must be a JSON object, got list"),
            (lambda doc: "mlp", "model file must be a JSON object, got str"),
            (lambda doc: {**doc, "config": None}, "config must be a JSON object, got NoneType"),
            (lambda doc: {**doc, "config": [1]}, "config must be a JSON object, got list"),
        ],
        ids=["list", "string", "config-null", "config-list"],
    )
    def test_not_an_object_exits_2(
        self, phantom_dir, model_docs, tmp_path, capsys, edit, message
    ):
        model, argv = classify_argv(phantom_dir, edit(model_docs["mlp"]), tmp_path)
        err = assert_one_error_line(argv, capsys)
        assert err == f"error: {model}: {message}\n"
        assert not model.with_suffix(".pgm").exists()

    @pytest.mark.parametrize(
        "method, key",
        [("po", "bogus"), ("mlp", "normalise"), ("ko", "weights"), ("po", "epochs_run")],
    )
    def test_unknown_key_exits_2(self, phantom_dir, model_docs, tmp_path, capsys, method, key):
        """A key of another kind counts as unknown too: a PO file has no
        ``epochs_run`` and a SOM file no ``weights``."""
        doc = {**model_docs[method], key: 1}
        model, argv = classify_argv(phantom_dir, doc, tmp_path)
        err = assert_one_error_line(argv, capsys)
        assert err == f"error: {model}: unknown keys [{key!r}] in model file\n"
        assert not model.with_suffix(".pgm").exists()

    @pytest.mark.parametrize("value", ["banana", -7, 1.5, True, None, [1]])
    def test_epochs_run_exits_2(self, phantom_dir, model_docs, tmp_path, capsys, value):
        doc = {**model_docs["mlp"], "epochs_run": value}
        model, argv = classify_argv(phantom_dir, doc, tmp_path)
        err = assert_one_error_line(argv, capsys)
        want = f"epochs_run must be a non-negative integer, got {value!r}"
        assert str(model) in err and want in err

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"te": float("inf")}, "TE must be a finite number, got inf"),
            ({"k_const": float("nan")}, "K must be a finite number, got nan"),
            ({"b_values": [0, 500, float("inf")]}, "b-value must be a finite number, got inf"),
        ],
    )
    def test_phantom_acq_non_finite_exits_2(self, tmp_path, capsys, doc, message):
        acq = tmp_path / "acq.json"
        acq.write_text(json.dumps(doc))  # Infinity and NaN, as Python writes them
        argv = ["phantom", "--acq", acq, "--out", tmp_path / "o"]
        assert message in assert_one_error_line(argv, capsys)

    @pytest.mark.parametrize(
        "tissue, message",
        [
            ({"rho": float("inf")}, "spin density must be a finite number, got inf"),
            ({"t2": float("inf")}, "T2 must be a finite number, got inf"),
            ({"diffusion": float("nan")}, "diffusion must be a finite number, got nan"),
        ],
    )
    def test_phantom_spec_non_finite_tissue_exits_2(
        self, small_spec, tmp_path, capsys, tissue, message
    ):
        doc = phantom_spec_to_json(small_spec)
        doc["tissues"]["CSF"].update(tissue)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        argv = ["phantom", "--spec", spec, "--out", tmp_path / "o"]
        assert message in assert_one_error_line(argv, capsys)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("width", 32.9, "phantom width must be a positive integer, got 32.9"),
            ("slices", True, "phantom slices must be a positive integer, got True"),
            ("height", "32", "phantom height must be a positive integer, got '32'"),
            ("slices", 0, "phantom slices must be a positive integer, got 0"),
        ],
    )
    def test_phantom_spec_dimensions_exit_2(
        self, small_spec, tmp_path, capsys, key, value, message
    ):
        doc = phantom_spec_to_json(small_spec)
        doc[key] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        argv = ["phantom", "--spec", spec, "--out", tmp_path / "o"]
        err = assert_one_error_line(argv, capsys)
        assert str(spec) in err and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), [float("-inf"), 0.1]])
    def test_phantom_spec_non_finite_shape_parameter_exits_2(
        self, small_spec, tmp_path, capsys, value
    ):
        doc = phantom_spec_to_json(small_spec)
        doc["shapes"][2]["params"]["cx"] = value  # a CSF ventricle
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        argv = ["phantom", "--spec", spec, "--out", tmp_path / "o"]
        err = assert_one_error_line(argv, capsys)
        assert "shape parameter cx must be a finite number" in err
        assert not (tmp_path / "o").exists()

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
            ("noise_levels", ["0.05"], "noise level must be a finite number, got '0.05'"),
            ("noise_levels", [False], "noise level must be a finite number, got False"),
            ("classifiers", {"PO": 1}, "classifiers must be a list, got dict"),
            ("classifiers", "PO", "classifiers must be a list, got str"),
            ("noise_levels", "0.1", "noise_levels must be a list, got str"),
            ("seeds", 5, "seeds must be a list, got int"),
            ("classifiers", [["PO"]], "unknown classifiers [['PO']]"),
            ("training_slice", None, "training slice must be a non-negative integer, got None"),
            ("noise_levels", None, "noise_levels must be a list, got NoneType"),
            ("seeds", None, "seeds must be a list, got NoneType"),
            ("classifiers", None, "classifiers must be a list, got NoneType"),
            ("phantom_spec", None, "phantom_spec must be a file path, got None"),
            ("phantom_spec", "", "phantom_spec must be a file path, got ''"),
            ("phantom_spec", [], "phantom_spec must be a file path, got []"),
            ("phantom_spec", 0, "phantom_spec must be a file path, got 0"),
        ],
    )
    def test_sweep_config_exits_2(self, spec_file, tmp_path, capsys, key, value, message):
        argv = sweep_argv(spec_file, tmp_path, **{key: value})
        assert message in assert_one_error_line(argv, capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value",
        [(key, value) for key in ("acquisition", "adc") for value in (None, [], [1], "x", 0)],
        ids=[
            f"{key}-{name}"
            for key in ("acquisition", "adc")
            for name in ("null", "empty-list", "list", "string", "number")
        ],
    )
    def test_config_block_not_an_object_exits_2(self, spec_file, tmp_path, capsys, key, value):
        argv = sweep_argv(spec_file, tmp_path, **{key: value})
        err = assert_one_error_line(argv, capsys)
        want = f"{key} must be a JSON object, got {type(value).__name__}"
        assert err == f"error: {argv[2]}: {want}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [None, [1]], ids=["null", "list"])
    def test_acq_and_tissue_not_an_object_exits_2(self, small_spec, tmp_path, capsys, value):
        acq = tmp_path / "acq.json"
        acq.write_text(json.dumps(value))
        argv = ["phantom", "--acq", acq, "--out", tmp_path / "o"]
        want = f"acquisition must be a JSON object, got {type(value).__name__}"
        assert assert_one_error_line(argv, capsys) == f"error: {acq}: {want}\n"
        doc = phantom_spec_to_json(small_spec)
        doc["tissues"]["CSF"] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        argv = ["phantom", "--spec", spec, "--out", tmp_path / "o"]
        want = f"tissues.CSF must be a JSON object, got {type(value).__name__}"
        assert assert_one_error_line(argv, capsys) == f"error: {spec}: {want}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sweep", "baseline"])
    def test_config_unknown_key_exits_2(self, spec_file, tmp_path, capsys, command):
        """A misspelled key would leave its field at the default: here the
        default 400-cell sweep."""
        argv = sweep_argv(spec_file, tmp_path, clasifiers=["PO"])
        argv[0] = command
        err = assert_one_error_line(argv, capsys)
        assert str(argv[2]) in err and "unknown keys ['clasifiers'] in config" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(slicez=3), "unknown keys ['slicez'] in phantom spec"),
            (lambda doc: doc["shapes"][1].update(colour="red"),
             "unknown keys ['colour'] in shapes[1]"),
            (lambda doc: doc["shapes"][0]["params"].update(cz=[1, 2]),
             "unknown keys ['cz'] in ellipse params"),
        ],
        ids=["top-level", "shape", "params"],
    )
    def test_phantom_spec_unknown_key_exits_2(self, small_spec, tmp_path, capsys, edit, message):
        doc = phantom_spec_to_json(small_spec)
        edit(doc)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        argv = ["phantom", "--spec", spec, "--out", tmp_path / "o"]
        err = assert_one_error_line(argv, capsys)
        assert str(spec) in err and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "keep, missing", [((), "CSF"), (("CSF",), "MATTER")], ids=["empty", "csf-only"]
    )
    def test_phantom_spec_incomplete_tissue_table_exits_2(
        self, small_spec, tmp_path, capsys, keep, missing
    ):
        """An empty tissue table is a table, not an omitted one: it has no
        entry for the first tissue the phantom paints."""
        doc = phantom_spec_to_json(small_spec)
        doc["tissues"] = {name: doc["tissues"][name] for name in keep}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        argv = ["phantom", "--spec", spec, "--out", tmp_path / "o"]
        err = assert_one_error_line(argv, capsys)
        assert err == f"error: tissue table has no entry for {missing}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["false", None, 0, 1])
    def test_sweep_config_adc_normalize_exits_2(self, spec_file, tmp_path, capsys, value):
        argv = sweep_argv(spec_file, tmp_path, adc={"normalize_by_terms": value})
        err = assert_one_error_line(argv, capsys)
        assert str(argv[2]) in err and "normalize_by_terms must be true or false" in err
        assert not (tmp_path / "o").exists()


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
        want = f"slice_index must be a non-negative integer, got {index!r}"
        assert err == f"error: {manifest}: {want}\n"



@pytest.fixture(scope="module")
def adc_file(phantom_dir, tmp_path_factory):
    """The raw ADC map of slice 3."""
    out = tmp_path_factory.mktemp("adc") / "slice_03"
    assert main(["adc", "--stack", str(phantom_dir / "slice_03_manifest.json"),
                 "--out", str(out)]) == 0
    return out.with_suffix(".adc")


@pytest.fixture(scope="module")
def po_model(model_docs, tmp_path_factory):
    path = tmp_path_factory.mktemp("po") / "po.json"
    path.write_text(json.dumps(model_docs["po"]))
    return path


class TestInputFlags:
    """train and classify read one image, from --stack or --adc: a missing
    input, or one that would be ignored, ends in one error line and leaves
    no model, label map or run record."""

    def run(self, argv, out_dir, capsys) -> str:
        err = assert_one_error_line(argv, capsys)
        assert list(out_dir.iterdir()) == []
        return err

    @pytest.mark.parametrize("method", ["po", "mlp", "ko"])
    def test_train_without_stack(self, phantom_dir, tmp_path, capsys, method):
        argv = ["train", "--method", method, "--labels", phantom_dir / "truth_03.pgm",
                "--out", tmp_path / "m.json"]
        assert self.run(argv, tmp_path, capsys) == f"error: {method} training needs --stack\n"

    @pytest.mark.parametrize("method", ["po", "mlp", "ko"])
    def test_train_with_adc_not_stack(self, phantom_dir, adc_file, tmp_path, capsys, method):
        argv = ["train", "--method", method, "--adc", adc_file,
                "--labels", phantom_dir / "truth_03.pgm", "--out", tmp_path / "m.json"]
        err = self.run(argv, tmp_path, capsys)
        assert err == f"error: {method} training needs --stack, not --adc\n"

    def test_ko_adc_training_without_input(self, phantom_dir, tmp_path, capsys):
        argv = ["train", "--method", "ko-adc", "--labels", phantom_dir / "truth_03.pgm",
                "--out", tmp_path / "m.json"]
        err = self.run(argv, tmp_path, capsys)
        assert err == "error: ko-adc training needs --adc or --stack\n"

    def test_classify_without_input(self, po_model, tmp_path, capsys):
        argv = ["classify", "--model", po_model, "--out", tmp_path / "p.pgm"]
        assert self.run(argv, tmp_path, capsys) == "error: classify needs --stack or --adc\n"

    @pytest.mark.parametrize("method", ["po", "mlp", "ko", "ko-adc"])
    def test_train_with_both_inputs(self, phantom_dir, adc_file, tmp_path, capsys, method):
        argv = ["train", "--method", method, "--stack", phantom_dir / "slice_03_manifest.json",
                "--adc", adc_file, "--labels", phantom_dir / "truth_03.pgm",
                "--out", tmp_path / "m.json"]
        need = "--adc or --stack, not both" if method == "ko-adc" else "--stack, not --adc"
        assert self.run(argv, tmp_path, capsys) == f"error: {method} training needs {need}\n"

    def test_classify_with_both_inputs(self, phantom_dir, adc_file, po_model, tmp_path, capsys):
        argv = ["classify", "--model", po_model, "--stack", phantom_dir / "slice_03_manifest.json",
                "--adc", adc_file, "--out", tmp_path / "p.pgm"]
        err = self.run(argv, tmp_path, capsys)
        assert err == "error: classify needs --stack or --adc, not both\n"


class TestTrainMatchesHarness:
    @pytest.mark.parametrize("method", ["po", "mlp", "ko", "ko-adc"])
    def test_same_model_file(self, small_spec, phantom_dir, tmp_path, method):
        """dwspectral train writes the model that train_models trains from
        the same slice files, so the CLI and the harness train alike."""
        seed, n = 2, small_spec.slices
        stacks = [load_stack(phantom_dir / f"slice_{s:02d}_manifest.json") for s in range(n)]
        truth = [load_labelmap(phantom_dir / f"truth_{s:02d}.pgm") for s in range(n)]
        cfg = ExperimentConfig(phantom=small_spec, training_slice=3, seeds=(seed,))
        save_model(train_models(cfg, stacks, truth)[method.upper()][seed], tmp_path / "h.json")
        argv = ["train", "--method", method, "--seed", seed,
                "--stack", phantom_dir / "slice_03_manifest.json",
                "--labels", phantom_dir / "truth_03.pgm", "--out", tmp_path / "c.json"]
        assert main([str(a) for a in argv]) == 0
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "h.json").read_bytes()


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


class TestDispatch:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_replaced_command_runs_after_a_first_call(self, monkeypatch, tmp_path):
        """main runs the cmd_* that the module holds at the call, not one
        bound when the parser was built."""
        assert main(["phantom", "--out", str(tmp_path / "first")]) == 0
        calls = []

        def replaced(args):
            calls.append(args.out)
            return tmp_path / "run.json"

        monkeypatch.setattr(cli, "cmd_phantom", replaced)
        assert main(["phantom", "--out", str(tmp_path / "second")]) == 0
        assert calls == [str(tmp_path / "second")]
        assert json.loads((tmp_path / "run.json").read_text())["command"] == "phantom"


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
