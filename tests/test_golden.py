"""Fixed-reference determinism: SHA-256 digests of the 48x48x6 experiment's
result files, of the four `dwspectral train` model files trained on that
phantom, and of the image files `dwspectral phantom`, `noise` and `adc`
write for it. A refactor must leave every digest unchanged; a change that alters
outputs on purpose updates the digests below and says so.

The digests hold on the build REFERENCE_BUILD records. On another numpy or
SIMD dispatch target, np.exp and np.log may round differently, and the MLP
weights and the raw ADC map with them; a mismatch names both builds."""

import hashlib
import json

from dwspectral.cli import _build_info, main
from dwspectral.harness import ExperimentConfig, run_baseline, run_sweep
from dwspectral.physics import phantom_spec_to_json

# The numpy and SIMD dispatch targets that made the digests below and pass
# them, as cli._build_info reads them.
REFERENCE_BUILD = {
    "numpy": "2.4.6",
    "simd_dispatch": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}

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

CLI_FILE_DIGESTS = {
    "adc/slice_03.adc":
        "072b9194169b27d3b5f5670204b441ca0da08a8553d04bed3263b37c82c53c94",
    "adc/slice_03.pgm":
        "3884e9e0d787a665b616f8801154e7f9220538b699985bb5093ad51a3a19f1bc",
    "adc/slice_03.pgm.json":
        "2aff55f85480ff6dc85d3b23e3a152156ce0c77f3d7c43edc21701c68c5b2d1f",
    "noisy/noisy_0.pgm":
        "de9da894734701069a961595d9f71725eb537fdbe6c0a4268ed0ced4e765d99d",
    "noisy/noisy_1.pgm":
        "890f6644736d76e0474af61c9cae54e319e9dc6953cef88d92fa4cf1f78203c5",
    "noisy/noisy_2.pgm":
        "91c6e202962eb76e8938ef6e2af74166b5b59ee0a9ffad347d0e9845d89c6363",
    "noisy/noisy_manifest.json":
        "b6fb3620642980a092342d4f0f2c6410ee1537464061905229cc71713902eb6c",
    "vol/slice_00_0.pgm":
        "9f0b2c72c109098d89a0e55d1d2f65641da4f4a0ef1ee641eeac029a8a8648e0",
    "vol/slice_00_1.pgm":
        "dbcbdabcb6ea02591ab59d2b9414447341c3950cfbd19871b5685cfe63e42326",
    "vol/slice_00_2.pgm":
        "295adca78e0e3a3aca2a47d13b96fa93472e509081aabf56b18bc0b2c65fa7ca",
    "vol/slice_00_manifest.json":
        "a6da8f4a917a3a4762f63c0825bd01f0aca82174dda1850dea2827917f47663b",
    "vol/slice_01_0.pgm":
        "2c720e1dc61bbfa909f1e7e9ba23eb5256e00f7a2edcfa1973aaf64129f75b84",
    "vol/slice_01_1.pgm":
        "2eabbcdabd82488fe9c3070cf23fb4526bed97c6f4dcdf710a3d4dc3480879e0",
    "vol/slice_01_2.pgm":
        "8ba6e62177d3b9ebda1a1ca901294177789b4ee318784727101406f274a73a48",
    "vol/slice_01_manifest.json":
        "06d60885350a7803d6a5e9dcc697e695d43a75ccc8ff9eaaa9554a46b24fcbcf",
    "vol/slice_02_0.pgm":
        "823312c3cecc41b8bc7047394d74d96024022cee1933f78401f92bb7b2dc9985",
    "vol/slice_02_1.pgm":
        "b106fdfddf9a9a0a9b188fb5ee8e176522e040ad3132883acbbaada863a51029",
    "vol/slice_02_2.pgm":
        "bfcf782968e68c86e147b59f8da53ec53220de69ff5fd08a8675bc5b4b230d39",
    "vol/slice_02_manifest.json":
        "962348674cfc88ed8e099c525c9c8c00d6a75df3a9477516dd23ef1bf425fcff",
    "vol/slice_03_0.pgm":
        "00f87498d8f8037928c4f6b50f2d9a4833cb1c297d38261df40a8bad9fefd4ce",
    "vol/slice_03_1.pgm":
        "eda16cd32c5ebdd547534e7c57d1a2db0213f53652e2e6303a77b31cd575daba",
    "vol/slice_03_2.pgm":
        "835a0a42ec62d7374545e216956469166ce907c826f43a23d45e4b1cbd0d07a9",
    "vol/slice_03_manifest.json":
        "37e860e859cf6c998c6bb651428ba5e04a5986b337d9db66a51e31a6fe766688",
    "vol/slice_04_0.pgm":
        "d2edecf5b56b526998a2736a14073267270b8b3d8b8d676e380d1cb5bf2ae9be",
    "vol/slice_04_1.pgm":
        "1a3142538a51623d02f0dab9c5fdc8f576e33604241e9a77cbd0a9dffe872d27",
    "vol/slice_04_2.pgm":
        "4d9be276b514b7627866f04b9716254cac143bdf83a25707bc231a5d902f3bb3",
    "vol/slice_04_manifest.json":
        "2d2985078f3007022e7afa8b76c3b2fe872bdcf4f0b1014584ef533b7e65c79d",
    "vol/slice_05_0.pgm":
        "fd0e34df6d48b86a2b50efe62af0a645102e827a6b8834258be9eca9e1fa68f8",
    "vol/slice_05_1.pgm":
        "82c133adf9030c4060f11b8b91725aba247fd43c9a4f9fa080d813b91792861c",
    "vol/slice_05_2.pgm":
        "4f015efecb980faf2c2453d527d50cd081fec26c199cd54484e746490024cde8",
    "vol/slice_05_manifest.json":
        "22f9de8d6901379a95be472710ef0233a568a7228a2623cabd388cf9fea0dbca",
    "vol/truth_00.pgm":
        "e6a7083b1056a1d4e3ee6f307887751823fcff9db5de04d859e846b0f4d2ce8e",
    "vol/truth_01.pgm":
        "8d2820ba7f08bca2056d75f0b5afe04e364a3c392de8192245ac22f5184921c8",
    "vol/truth_02.pgm":
        "8f6d51a1f7e7e65ade4cb5aa20f3f1d2d08e057f35a3e58c63345e9fe019592a",
    "vol/truth_03.pgm":
        "19b3768bc28fd46bce6aa821da5541522d6c3fb3b986d4adb4b52c1e47780f62",
    "vol/truth_04.pgm":
        "2f7dbf2bc5192a0704016d00caaa17b740641bcf66f66a91bbdd05c81b17788a",
    "vol/truth_05.pgm":
        "787fae013f39e1322e2b131571ada8f80c276c7f7c9e2f6876c9a9ca8e405094",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_digests(got: dict, want: dict) -> None:
    build = {key: _build_info()[key] for key in REFERENCE_BUILD}
    assert got == want, f"digests made on {REFERENCE_BUILD}, checked on {build}"


def test_experiment_outputs(small_spec, tmp_path):
    cfg = ExperimentConfig(
        phantom=small_spec,
        training_slice=3,
        noise_levels=(0.0, 0.05, 0.10),
        seeds=(1, 2, 3),
    )
    run_sweep(cfg, out_dir=tmp_path, baseline=run_baseline(cfg, out_dir=tmp_path))
    assert_digests({name: sha256(tmp_path / name) for name in RUN_DIGESTS}, RUN_DIGESTS)


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
    assert_digests(digests, MODEL_DIGESTS)


def test_phantom_noise_adc_files(small_spec, tmp_path):
    """Pins the PGM codec, the phantom renderer and the noise generator
    byte for byte; the run records hold temporary paths and are left out."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(phantom_spec_to_json(small_spec)))
    vol, noisy, adc = tmp_path / "vol", tmp_path / "noisy", tmp_path / "adc" / "slice_03"
    assert main(["phantom", "--spec", str(spec), "--out", str(vol)]) == 0
    assert main(
        ["noise", "--xi", "0.05", "--seed", "1",
         "--stack", str(vol / "slice_03_manifest.json"), "--out", str(noisy)]
    ) == 0
    assert main(
        ["adc", "--stack", str(noisy / "noisy_manifest.json"), "--out", str(adc)]
    ) == 0
    digests = {
        str(path.relative_to(tmp_path)): sha256(path)
        for path in sorted(tmp_path.glob("*/**/*"))
        if path.is_file() and not path.name.endswith("run.json")
    }
    assert_digests(digests, CLI_FILE_DIGESTS)
