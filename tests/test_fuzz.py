"""Fuzz tests for the input boundary: random bytes, random JSON and valid
documents with one value replaced must end in ValidationError (or OSError
for a path that cannot be read), never in any other exception."""

import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwspectral.adc import AdcConfig, load_adc_raw
from dwspectral.classifiers import (
    MlpModel,
    PolyModel,
    SomModel,
    load_model,
    model_to_json,
    save_model,
)
from dwspectral.cli import main
from dwspectral.core_image import (
    Band,
    SpectralStack,
    load_band,
    load_labelmap,
    load_stack,
    save_stack,
)
from dwspectral.errors import ValidationError
from dwspectral.harness import load_experiment_config
from dwspectral.physics import AcquisitionParams, load_phantom_spec, phantom_spec_to_json

DEEP = "[" * 100_000

# Values at the edges of what JSON can hold, which random draws seldom hit.
edge_values = st.sampled_from([float("inf"), float("-inf"), float("nan"), 2**64, -1, 0])
scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | edge_values
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def pgm_like(maxval):
    """A P5 header with arbitrary fields, then arbitrary payload bytes."""
    field = st.integers(-2, 70000) | st.sampled_from(["x", "1e3", "0x10", ""])
    return st.builds(
        lambda w, h, m, payload: f"P5\n{w} {h}\n{m}\n".encode() + payload,
        field, field, st.sampled_from([maxval, 255, 65535, 0, -1]),
        st.binary(max_size=64),
    )


def adc_file(width, height, payload):
    return b"ADCF" + struct.pack("<II", width, height) + payload


dimension = st.integers(0, 2**32 - 1)
adc_like = st.builds(adc_file, dimension, dimension, st.binary(max_size=80)) | st.builds(
    # a NaN payload of the declared length reaches the Band checks
    lambda w, h: adc_file(w, h, np.full(w * h, np.nan).tobytes()),
    st.integers(0, 3),
    st.integers(0, 3),
)


DELETE = object()


@st.composite
def mutated(draw, doc):
    """``doc`` with one value replaced by random JSON, or deleted. The value
    is found by descending from the root one key at a time, stopping at each
    level with even odds, so values near the root are picked most often."""
    doc = json.loads(json.dumps(doc))
    value = draw(scalars | json_values | st.just(DELETE))
    parent, key, node = None, None, doc
    while node and isinstance(node, (dict, list)) and (
        parent is None or draw(st.booleans())
    ):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = parent[key]
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    return doc


def only_validation_errors(load, path):
    try:
        load(path)
    except (ValidationError, OSError):
        pass


@pytest.fixture(scope="module")
def valid_docs(small_spec):
    """One valid document per JSON loader."""
    neurons = np.array([[0.1, 0.1, 0.1], [0.5, 0.5, 0.5], [0.9, 0.9, 0.9]])
    return {
        "stack": {"bands": ["valid_0.pgm", "valid_1.pgm", "valid_2.pgm"],
                  "b_values": [0.0, 500.0, 1000.0], "slice_index": 0},
        "po": model_to_json(PolyModel(np.zeros((3, 10)))),
        "mlp": model_to_json(MlpModel(np.zeros((60, 4)), np.zeros((3, 61)))),
        "som": model_to_json(SomModel(neurons, class_of_neuron=(1, 2, 3))),
        "spec": phantom_spec_to_json(small_spec),
        "config": {
            "phantom_spec": "spec.json",
            "training_slice": 1,
            "noise_levels": [0.05],
            "seeds": [1],
            "classifiers": ["PO", "KO"],
            "acquisition": vars(AcquisitionParams()) | {"b_values": [0.0, 500.0]},
            "adc": vars(AdcConfig()),
        },
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, valid_docs):
    """A directory holding the bands and the phantom spec that the valid
    documents name."""
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    bands = tuple(Band(2, 2, rng.integers(0, 60000, (2, 2))) for _ in range(3))
    save_stack(SpectralStack(bands, (0.0, 500.0, 1000.0)), d, prefix="valid")
    (d / "spec.json").write_text(json.dumps(valid_docs["spec"]))
    return d


JSON_LOADERS = {
    "stack": load_stack,
    "po": load_model,
    "mlp": load_model,
    "som": load_model,
    "spec": load_phantom_spec,
    "config": load_experiment_config,
}


class TestBinaryLoaders:
    @settings(max_examples=150)
    @given(data=st.binary(max_size=64) | pgm_like(65535))
    def test_load_band(self, workdir, data):
        (workdir / "in.pgm").write_bytes(data)
        only_validation_errors(load_band, workdir / "in.pgm")

    @settings(max_examples=150)
    @given(data=st.binary(max_size=64) | pgm_like(255))
    def test_load_labelmap(self, workdir, data):
        (workdir / "in.pgm").write_bytes(data)
        only_validation_errors(load_labelmap, workdir / "in.pgm")

    @settings(max_examples=150)
    @given(data=st.binary(max_size=64) | adc_like)
    def test_load_adc_raw(self, workdir, data):
        (workdir / "in.adc").write_bytes(data)
        only_validation_errors(load_adc_raw, workdir / "in.adc")


class TestJsonLoaders:
    @pytest.mark.parametrize("kind", sorted(JSON_LOADERS))
    @settings(max_examples=60)
    @given(data=st.data())
    def test_random_bytes_and_json(self, workdir, kind, data):
        text = data.draw(
            st.binary(max_size=64)
            | json_values.map(lambda v: json.dumps(v).encode())
            | st.just(DEEP.encode())
        )
        path = workdir / "in.json"
        path.write_bytes(text)
        only_validation_errors(JSON_LOADERS[kind], path)

    @pytest.mark.parametrize("kind", sorted(JSON_LOADERS))
    @settings(max_examples=150)
    @given(data=st.data())
    def test_one_value_replaced(self, workdir, valid_docs, kind, data):
        doc = data.draw(mutated(valid_docs[kind]))
        path = workdir / "in.json"
        path.write_text(json.dumps(doc))
        only_validation_errors(JSON_LOADERS[kind], path)

    @pytest.mark.parametrize("kind", sorted(JSON_LOADERS))
    def test_valid_documents_load(self, workdir, valid_docs, kind):
        path = workdir / "in.json"
        path.write_text(json.dumps(valid_docs[kind]))
        JSON_LOADERS[kind](path)


# One command per flag that reads a JSON document; each gets ``doc`` as that
# flag's file and ``out`` as its output.
FLAG_ARGV = {
    "--spec": lambda doc, out: ["phantom", "--spec", doc, "--out", out],
    "--acq": lambda doc, out: ["phantom", "--acq", doc, "--out", out],
    "--stack": lambda doc, out: ["noise", "--stack", doc, "--xi", "0.05", "--out", out],
    "--model": lambda doc, out: ["classify", "--model", doc, "--stack", doc,
                                 "--out", out],
    "--config": lambda doc, out: ["sweep", "--config", doc, "--out", out],
}


def decodes_to_object(data: bytes) -> bool:
    """Whether ``data`` is a JSON object, which may be a valid input."""
    try:
        return isinstance(json.loads(data), dict)
    except (ValueError, RecursionError):
        return False


def run_main(flag, path, out) -> int:
    return main([str(a) for a in FLAG_ARGV[flag](path, out)])


@pytest.mark.parametrize("flag", sorted(FLAG_ARGV))
def test_main_exits_2_on_deep_json(tmp_path, capsys, flag):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    assert run_main(flag, deep, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}: ") and err.count("\n") == 1


@settings(max_examples=40)
@given(
    flag=st.sampled_from(sorted(FLAG_ARGV)),
    data=(st.binary(max_size=64) | json_values.map(lambda v: json.dumps(v).encode()))
    .filter(lambda d: not decodes_to_object(d)),
)
def test_main_exits_2_on_garbage(workdir, flag, data):
    path = workdir / "garbage"
    path.write_bytes(data)
    assert run_main(flag, path, workdir / "out") == 2


# Finite weights, so the loaders accept them, whose class scores overflow.
OVERFLOWING_MODELS = {
    "po+1e308": PolyModel(np.full((3, 10), 1e308)),
    "po-1e308": PolyModel(np.full((3, 10), -1e308)),
    "mlp+1e308": MlpModel(np.full((60, 4), 1e308), np.full((3, 61), 1e308)),
    "mlp-output+1e308": MlpModel(np.zeros((60, 4)), np.full((3, 61), 1e308)),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_MODELS))
def test_main_exits_1_on_overflowing_scores(workdir, tmp_path, capsys, name):
    model = tmp_path / "model.json"
    save_model(OVERFLOWING_MODELS[name], model)
    argv = ["classify", "--model", model, "--stack", workdir / "valid_manifest.json",
            "--out", tmp_path / "labels.pgm"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([str(a) for a in argv]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "model gave non-finite scores" in err
