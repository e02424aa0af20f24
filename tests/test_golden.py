"""Fixed-reference determinism: SHA-256 digests of the 48x48x6 experiment's
result files and of the four `dwspectral train` model files trained on that
phantom. A refactor must leave every digest unchanged; a change that alters
outputs on purpose updates the digests below and says so."""

import hashlib
import json

from dwspectral.cli import main
from dwspectral.harness import ExperimentConfig, run_baseline, run_sweep
from dwspectral.physics import phantom_spec_to_json

RUN_DIGESTS = {
    "baseline.csv": "6ebe902d84c69942402833f87038c5d19abef3851245d43cb21729df13c72dc8",
    "baseline.json": "8d4c60b6ad934bf4cbddb548520950aa2d3d0d3e8dcc3df0e6dede829b610c64",
    "sweep.csv": "3c90f48db1da3084dca51bafc9cc7d04011aca867d601818acde16a20c915a6e",
    "sweep_confusions.json": "5572fed3ef59a3efea89d59c4dba854fc4d9d53bf5f3e93d9b0871b704c5c7d3",
}
MODEL_DIGESTS = {
    "po": "f7bd20a45746b59fec7dbc6a512c349cbab018fba6c07a0ce083cf1ab06fe831",
    "mlp": "1e12e4ca8af5f3b4f32a8110076d9545a0d14c4842392b64339adea80e4a6e19",
    "ko": "2f1992a54794b2585f80ec5d14722ad6ef15064e22ad93011e9f68f15a8199d1",
    "ko-adc": "68ed963e34e1114536d6c69d9a135e4d712fde576167c264d776dec12f127144",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_experiment_outputs(small_spec, tmp_path):
    cfg = ExperimentConfig(
        phantom=small_spec,
        training_slice=3,
        noise_levels=(0.0, 0.05, 0.10),
        seeds=(1, 2, 3),
    )
    run_sweep(cfg, out_dir=tmp_path, baseline=run_baseline(cfg, out_dir=tmp_path))
    assert {name: sha256(tmp_path / name) for name in RUN_DIGESTS} == RUN_DIGESTS


def test_trained_model_files(small_spec, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(phantom_spec_to_json(small_spec)))
    vol = tmp_path / "vol"
    assert main(["phantom", "--spec", str(spec), "--out", str(vol)]) == 0
    digests = {}
    for method in MODEL_DIGESTS:
        model = tmp_path / f"{method}.json"
        assert main(
            ["train", "--method", method, "--seed", "1",
             "--stack", str(vol / "slice_03_manifest.json"),
             "--labels", str(vol / "truth_03.pgm"), "--out", str(model)]
        ) == 0
        digests[method] = sha256(model)
    assert digests == MODEL_DIGESTS
