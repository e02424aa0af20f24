"""Fuzz tests for the input boundary: random bytes, random JSON and valid
documents with one value replaced must end in ValidationError (or OSError
for a path that cannot be read), never in any other exception. A document
that loads must keep every value it holds."""

import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwspectral.adc import AdcConfig, load_adc_raw, save_adc_raw
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
    load_labelmap,
    load_stack,
    save_stack,
)
from dwspectral.errors import ValidationError
from dwspectral.harness import load_experiment_config
from dwspectral.physics import (
    AcquisitionParams,
    PhantomSpec,
    load_phantom_spec,
    phantom_spec_to_json,
)

from conftest import stack_of

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
# A value to put in a document: random JSON, or DELETE to remove one.
replacements = scalars | json_values | st.just(DELETE)
# The steps of a descent from a document's root (see mutated); short lists
# are drawn most often, so values near the root are picked most often.
descents = st.lists(st.integers(0, 2**16), min_size=1, max_size=6)


def mutated(doc, value, steps):
    """``doc`` with one value replaced by ``value``, or deleted where it is
    DELETE. The value is found by descending from the root, each step
    taking key or index ``step`` modulo the node's size, until the steps
    run out or the node is not a non-empty container."""
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    for step in steps:
        if not (node and isinstance(node, (dict, list))):
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, keys[step % len(keys)]
        node = parent[key]
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    return doc


def object_paths(doc, steps=()):
    """The keys and indices that lead from ``doc`` to each JSON object in
    it, the root included."""
    if isinstance(doc, dict):
        yield steps
        children = doc.items()
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for step, child in children:
        yield from object_paths(child, (*steps, step))


def only_validation_errors(load, path):
    """``load(path)``, or None where it raises ValidationError or OSError."""
    try:
        return load(path)
    except (ValidationError, OSError):
        return None


def json_type(value):
    """The JSON type of a decoded value: 1 and 1.0 share one, true does not."""
    return float if type(value) in (int, float) else type(value)


def assert_holds(doc, out, where="document"):
    """Each value of the decoded document ``doc`` is in ``out`` at the same
    place, of the same JSON type, and equal. ``out`` may hold more keys."""
    assert json_type(out) is json_type(doc), where
    if isinstance(doc, dict):
        for key, value in doc.items():
            assert key in out, f"{where}.{key}"
            assert_holds(value, out[key], f"{where}.{key}")
    elif isinstance(doc, list):
        assert len(out) == len(doc), where
        for i, (value, kept) in enumerate(zip(doc, out)):
            assert_holds(value, kept, f"{where}[{i}]")
    else:
        assert out == doc, where


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
    save_stack(stack_of(rng.integers(0, 60000, (3, 2, 2))), d, prefix="valid")
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
# The writer of each kind of document that has one.
JSON_WRITERS = {
    "po": model_to_json,
    "mlp": model_to_json,
    "som": model_to_json,
    "spec": phantom_spec_to_json,
}

SHAPE_PARAMS = {"cx", "cy", "rx", "ry", "r_in", "r_out", "theta0", "theta1", "x0", "y0", "x1", "y1"}
# The keys that each object of a valid document must hold, by the steps that
# lead to it from the root; "*" stands for any index or key. A shape's params
# object holds only its kind's parameters, all of them required. Every other
# key of a valid document may be omitted.
REQUIRED_KEYS = {
    "stack": {(): {"bands", "b_values"}},
    "po": {(): {"kind", "weights"}},
    "mlp": {(): {"kind", "hidden_weights", "output_weights"}, ("config",): set()},
    "som": {(): {"kind", "neurons"}, ("config",): set()},
    "spec": {
        (): {"width", "height", "slices", "shapes"},
        ("shapes", "*"): {"kind", "label", "params"},
        ("shapes", "*", "params"): SHAPE_PARAMS,
        ("tissues",): set(),
        ("tissues", "*"): {"rho", "t2", "diffusion"},
    },
    "config": {(): set(), ("acquisition",): set(), ("adc",): set()},
}


def required_keys(kind, steps):
    """The keys that the object at ``steps`` of a ``kind`` document must hold."""
    for pattern, keys in REQUIRED_KEYS[kind].items():
        if len(pattern) == len(steps) and all(p in ("*", s) for p, s in zip(pattern, steps)):
            return keys
    raise AssertionError(f"no keys declared for the {kind} object at {steps}")


def at(doc, steps):
    for step in steps:
        doc = doc[step]
    return doc


@pytest.fixture(scope="module")
def default_docs(small_spec):
    """Each document that has a writer, as written from an object made of
    its required values alone: every other key holds its default."""
    spec = PhantomSpec(small_spec.width, small_spec.height, small_spec.slices, small_spec.shapes)
    return {
        "po": model_to_json(PolyModel(np.zeros((3, 10)))),
        "mlp": model_to_json(MlpModel(np.zeros((60, 4)), np.zeros((3, 61)))),
        "som": model_to_json(SomModel(np.zeros((3, 3)))),
        "spec": phantom_spec_to_json(spec),
    }


class TestBinaryLoaders:
    @settings(max_examples=150)
    @given(data=st.binary(max_size=64) | pgm_like(65535))
    def test_load_band(self, workdir, data):
        """A band PGM as load_stack reads it, through a two-band manifest
        that names the file twice."""
        (workdir / "in.pgm").write_bytes(data)
        manifest = workdir / "in.json"
        manifest.write_text(json.dumps({"bands": ["in.pgm"] * 2, "b_values": [0, 500]}))
        only_validation_errors(load_stack, manifest)

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
    @given(value=replacements, steps=descents)
    # What numpy reads as another number, in the first weight of a model
    # file (steps [1, 0, 0]) and, for a SOM, in its first class code (steps
    # [2, 0]); and a spec's shapes as "" (steps [3]).
    @example(value="0.5", steps=[1, 0, 0])
    @example(value=True, steps=[1, 0, 0])
    @example(value=2**53 + 1, steps=[1, 0, 0])
    @example(value=True, steps=[2, 0])
    @example(value="", steps=[3])
    def test_one_value_replaced(self, workdir, valid_docs, kind, value, steps):
        """A mutated document is refused, or written back with each of its
        values; a key the mutation deleted may come back as its default."""
        doc = mutated(valid_docs[kind], value, steps)
        path = workdir / "in.json"
        path.write_text(json.dumps(doc))
        loaded = only_validation_errors(JSON_LOADERS[kind], path)
        if loaded is not None and kind in JSON_WRITERS:
            written = json.loads(json.dumps(JSON_WRITERS[kind](loaded)))
            assert_holds(json.loads(path.read_text()), written)

    @pytest.mark.parametrize("kind", sorted(JSON_LOADERS))
    @settings(max_examples=10)
    @given(key=st.text(max_size=8).map(lambda text: "?" + text))
    def test_unknown_key_at_any_depth(self, workdir, valid_docs, kind, key):
        """A key added to any object of a valid document is refused, and the
        error names it. No key a loader knows starts with "?"."""
        for steps in object_paths(valid_docs[kind]):
            doc = json.loads(json.dumps(valid_docs[kind]))
            node = doc
            for step in steps:
                node = node[step]
            node[key] = 1
            path = workdir / "in.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ValidationError) as caught:
                JSON_LOADERS[kind](path)
            assert repr(key) in str(caught.value), steps

    @pytest.mark.parametrize("kind", sorted(JSON_LOADERS))
    def test_missing_key_at_any_depth(self, workdir, valid_docs, default_docs, kind):
        """A required key deleted from any object of a valid document is
        refused by name. An optional one loads, or is refused for another
        reason; a writer then gives the key back with its default."""
        path = workdir / "in.json"
        for steps in object_paths(valid_docs[kind]):
            required = required_keys(kind, steps)
            for key in at(valid_docs[kind], steps):
                doc = json.loads(json.dumps(valid_docs[kind]))
                del at(doc, steps)[key]
                path.write_text(json.dumps(doc))
                where = (*steps, key)
                if key in required:
                    with pytest.raises(ValidationError) as caught:
                        JSON_LOADERS[kind](path)
                    assert f"missing keys [{key!r}] in" in str(caught.value), where
                    continue
                try:
                    loaded = JSON_LOADERS[kind](path)
                except ValidationError as exc:
                    assert "missing" not in str(exc), where
                    continue
                if kind in JSON_WRITERS:
                    written = json.loads(json.dumps(JSON_WRITERS[kind](loaded)))
                    assert at(written, where) == at(default_docs[kind], where), where

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


# Finite weights, so the loaders accept them, whose class scores or neuron
# distances overflow. A one-feature SOM classifies an ADC map (KO-ADC).
OVERFLOWING_MODELS = {
    "po+1e308": PolyModel(np.full((3, 10), 1e308)),
    "po-1e308": PolyModel(np.full((3, 10), -1e308)),
    "mlp+1e308": MlpModel(np.full((60, 4), 1e308), np.full((3, 61), 1e308)),
    "mlp-output+1e308": MlpModel(np.zeros((60, 4)), np.full((3, 61), 1e308)),
    "ko+1e308": SomModel(np.full((3, 3), 1e308), class_of_neuron=(1, 2, 3)),
    "ko-1e308": SomModel(np.full((3, 3), -1e308), class_of_neuron=(1, 2, 3)),
    "ko-adc+1e308": SomModel(np.full((3, 1), 1e308), class_of_neuron=(1, 2, 3)),
    "ko-adc-1e308": SomModel(np.full((3, 1), -1e308), class_of_neuron=(1, 2, 3)),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_MODELS))
def test_main_exits_1_on_overflowing_scores(workdir, tmp_path, capsys, name):
    model = OVERFLOWING_MODELS[name]
    save_model(model, tmp_path / "model.json")
    if name.startswith("ko-adc"):
        save_adc_raw(Band(np.array([[0.0, 1e-3], [2e-3, 3e-3]])), tmp_path / "adc.raw")
        image = ["--adc", tmp_path / "adc.raw"]
    else:
        image = ["--stack", workdir / "valid_manifest.json"]
    argv = ["classify", "--model", tmp_path / "model.json", *image,
            "--out", tmp_path / "labels.pgm"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([str(a) for a in argv]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1
    what = "distances" if isinstance(model, SomModel) else "scores"
    assert f"model gave non-finite {what}" in err
