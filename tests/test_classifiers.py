import math
import warnings
from dataclasses import fields
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dwspectral import classifiers
from dwspectral.adc import adc_map
from dwspectral.classifiers import (
    _MLP_BLOCK,
    MLP_HIDDEN,
    MlpConfig,
    MlpModel,
    PolyModel,
    SomConfig,
    SomModel,
    _backprop,
    _feature_planes,
    _first_best,
    _layer_views,
    _layers,
    _quadratic_planes,
    _sigmoid_of_negated,
    _step_rates,
    classify,
    label_som,
    model_from_json,
    model_to_json,
    train_ko_adc,
    train_mlp,
    train_polynomial,
    train_som,
)
from dwspectral.core_image import (
    FULL_SCALE,
    Band,
    ClassLabel,
    LabelMap,
    SampleSet,
    SpectralStack,
    extract_band_samples,
    extract_samples,
)
from dwspectral.errors import NumericalError, ValidationError
from dwspectral.harness import ExperimentConfig, train_models
from dwspectral.metrics import confusion, kappa
from dwspectral.physics import add_noise_to_stack, default_phantom_spec, render_phantom

from conftest import stack_of

from test_core_image import pixel_features


def blob_samples(centers_labels, n_per, spread, seed=0, clip=True):
    """Gaussian blobs with analytic labels; features kept inside [0, 1]."""
    rng = np.random.default_rng(seed)
    feats, labs = [], []
    for center, label in centers_labels:
        pts = rng.normal(center, spread, size=(n_per, len(center)))
        if clip:
            pts = np.clip(pts, 0.0, 1.0)
        feats.append(pts)
        labs.append(np.full(n_per, int(label)))
    return SampleSet(np.vstack(feats), np.concatenate(labs))


def accuracy(pred, truth):
    return float(np.mean(pred == truth))


# Plain-formula references: row-major, one (n, d) feature row per pixel.
def reference_sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def reference_monomials(feats):
    """The degree-2 monomials (n, 10) of feature rows (n, 3), in the order
    [1, x1, x2, x3, x1^2, x2^2, x3^2, x1x2, x1x3, x2x3]."""
    x1, x2, x3 = feats.T
    return np.stack(
        [np.ones_like(x1), x1, x2, x3, x1 * x1, x2 * x2, x3 * x3, x1 * x2, x1 * x3, x2 * x3],
        axis=1,
    )


def reference_po_labels(model, feats):
    return np.argmax(reference_monomials(feats) @ model.weights.T, axis=1) + 1


def reference_mlp_preactivations(model, feats):
    """The textbook forward pass up to the output pre-activations (n, 3)."""
    ones = np.ones((feats.shape[0], 1))
    hidden = reference_sigmoid(np.hstack([feats, ones]) @ model.hidden_weights.T)
    return np.hstack([hidden, ones]) @ model.output_weights.T


def reference_mlp_labels(model, feats):
    """Argmax of the textbook forward pass's pre-activations."""
    return np.argmax(reference_mlp_preactivations(model, feats), axis=1) + 1


def reference_sample_loss(wh, wo, xi, ti):
    """0.5 * |y - t|^2 of one sample ``xi`` (its features and a last 1) by
    the textbook forward pass."""
    h = reference_sigmoid(wh @ xi)
    y = reference_sigmoid(wo @ np.append(h, 1.0))
    return 0.5 * float(np.sum((y - ti) ** 2))


def reference_backprop_step(wh, wo, xi, ti, eta):
    """One online backpropagation step on (wh, wo) themselves, in place, in
    the arithmetic train_mlp used before it kept its weights negated: the
    sample ``xi`` (its features and a last 1), targets ``ti``. Returns the
    squared error |y - t|^2 of the step's forward pass."""
    h = reference_sigmoid(wh @ xi)
    hb = np.append(h, 1.0)
    y = reference_sigmoid(wo @ hb)
    err = y - ti
    sq_err = float(err @ err)
    d_out = err * y * (1.0 - y)
    d_hid = (wo[:, :MLP_HIDDEN].T @ d_out) * h * (1.0 - h)
    wo -= np.outer(d_out, hb) * eta
    wh -= np.outer(d_hid, xi) * eta
    return sq_err


def reference_train_mlp(samples, cfg):
    """train_mlp as a plain loop over reference_backprop_step: the initial
    weights, then one permutation per epoch, from one default_rng(seed).
    Returns (wh, wo, epochs_run)."""
    rng = np.random.default_rng(cfg.seed)
    wh = rng.uniform(-0.5, 0.5, size=(60, 4))
    wo = rng.uniform(-0.5, 0.5, size=(3, 61))
    n = len(samples)
    xb = np.hstack([samples.features, np.ones((n, 1))])
    targets = np.where(samples.labels[:, None] == np.arange(1, 4), 0.9, 0.1)
    for epoch in range(cfg.max_epochs):
        eta = cfg.eta0 * (1.0 - epoch / cfg.max_epochs)
        sq_err = 0.0
        for idx in rng.permutation(n):
            sq_err += reference_backprop_step(wh, wo, xb[idx], targets[idx], eta)
        if sq_err / (n * 3) <= cfg.target_error:
            return wh, wo, epoch + 1
    return wh, wo, cfg.max_epochs


def backprop_weights(w):
    """(wh, wo), new arrays, from training's flat buffer ``w`` of negated
    weights, as train_mlp unnegates them."""
    return _layer_views(0.0 - w)


def backprop_step_errors(backprop, xi, ti, eta, coords, step=1e-5):
    """Take one step of ``backprop``, the (step, w, delta) of _backprop, on
    sample (xi, ti), in place on its buffers, as train_mlp does. Returns its
    squared error; whether the negated weights ``w`` moved by exactly the
    ``delta`` it wrote; and, at each of ``coords`` (0 for wh or 1 for wo,
    and a flat index), the relative error between that delta divided by
    ``eta`` and the central finite difference of the sample's loss at the
    weights (wh, wo) before the step."""
    take, w, delta = backprop
    before = backprop_weights(w)
    w0 = w.copy()
    sq_err = take(xi, ti, _step_rates(eta))
    applied = np.array_equal(w, w0 + delta)
    steps = _layer_views(delta)
    errors = []
    for k, flat in coords:
        idx = np.unravel_index(flat, before[k].shape)
        w = [before[0].copy(), before[1].copy()]
        w[k][idx] = before[k][idx] + step
        lp = reference_sample_loss(*w, xi, ti)
        w[k][idx] = before[k][idx] - step
        lm = reference_sample_loss(*w, xi, ti)
        fd = (lp - lm) / (2 * step)
        grad = steps[k][idx] / eta
        errors.append(abs(fd - grad) / max(abs(fd), abs(grad), 1e-12))
    return sq_err, applied, errors


class TestQuadraticPlanes:
    def test_zero_input(self):
        assert _quadratic_planes(np.zeros((3, 1))).T.tolist() == [[1] + [0] * 9]

    def test_all_ones(self):
        assert _quadratic_planes(np.ones((3, 1))).T.tolist() == [[1] * 10]

    def test_hand_expansion(self):
        out = _quadratic_planes(np.array([[1.0], [2.0], [3.0]]))
        assert out.T.tolist() == [[1, 1, 2, 3, 1, 4, 9, 2, 3, 6]]

    def test_matches_stacked_expansion(self):
        x = np.random.default_rng(0).normal(scale=10.0, size=(500, 3))
        want = np.ascontiguousarray(reference_monomials(x).T)
        assert _quadratic_planes(x.T).tobytes() == want.tobytes()
        assert _quadratic_planes(x[7:8].T).tobytes() == want[:, 7].tobytes()


class TestPolynomial:
    def test_three_blobs_against_nearest_centroid_oracle(self):
        samples = blob_samples(
            [
                ((0.1, 0.1, 0.1), ClassLabel.CSF),
                ((0.5, 0.5, 0.5), ClassLabel.MATTER),
                ((0.9, 0.9, 0.9), ClassLabel.BACKGROUND),
            ],
            n_per=200,
            spread=0.04,
        )
        model = train_polynomial(samples)
        pred = reference_po_labels(model, samples.features)

        centroids = np.stack(
            [samples.features[samples.labels == c].mean(axis=0) for c in (1, 2, 3)]
        )
        d2 = ((samples.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        oracle = np.argmin(d2, axis=1) + 1
        assert accuracy(oracle, samples.labels) >= 0.99
        assert accuracy(pred, samples.labels) >= 0.99

    def test_duplicated_samples_same_decisions(self):
        samples = blob_samples(
            [((0.2, 0.2, 0.2), ClassLabel.CSF), ((0.8, 0.8, 0.8), ClassLabel.MATTER)],
            n_per=50,
            spread=0.05,
        )
        doubled = SampleSet(
            np.vstack([samples.features, samples.features]),
            np.concatenate([samples.labels, samples.labels]),
        )
        a = train_polynomial(samples)
        b = train_polynomial(doubled)
        da = reference_po_labels(a, samples.features)
        db = reference_po_labels(b, samples.features)
        np.testing.assert_array_equal(da, db)

    def test_training_is_deterministic(self):
        samples = blob_samples(
            [((0.2, 0.3, 0.4), ClassLabel.CSF), ((0.7, 0.6, 0.5), ClassLabel.MATTER)],
            n_per=40,
            spread=0.05,
        )
        np.testing.assert_array_equal(
            train_polynomial(samples).weights, train_polynomial(samples).weights
        )

    def test_too_few_samples_rejected(self):
        s = SampleSet(np.random.default_rng(0).random((5, 3)), np.array([1, 2, 1, 2, 1]))
        with pytest.raises(ValidationError):
            train_polynomial(s)

    def test_single_class_rejected(self):
        s = SampleSet(np.random.default_rng(0).random((20, 3)), np.full(20, 2))
        with pytest.raises(ValidationError, match="at least 2 classes"):
            train_polynomial(s)

    def test_wrong_arity_rejected(self):
        s = SampleSet(np.random.default_rng(0).random((20, 4)), np.tile([1, 2], 10))
        with pytest.raises(ValidationError, match="^polynomial net expects 3 features, got 4$"):
            train_polynomial(s)

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3)])
    def test_rows_required(self, shape):
        """Only (n, d) feature rows make a sample set to train on."""
        with pytest.raises(ValidationError, match=r"^features must be a 2-D \(n, d\) array$"):
            SampleSet(np.zeros(shape), np.ones(shape[:-1], dtype=int))

    def test_non_finite_input_rejected(self):
        """Only finite feature rows make a sample set to train on."""
        with pytest.raises(ValidationError, match="^sample set contains non-finite features$"):
            SampleSet(np.array([[0.1, np.nan, 0.2]]), np.ones(1, dtype=int))


def annulus_dataset(seed=0, n_per=400):
    """Inner disk (CSF) vs surrounding ring (MATTER) in the x1-x2 plane."""
    rng = np.random.default_rng(seed)
    r_in = 0.35 * np.sqrt(rng.random(n_per))
    t_in = rng.random(n_per) * 2 * np.pi
    inner = np.stack(
        [0.5 + r_in * np.cos(t_in), 0.5 + r_in * np.sin(t_in), np.zeros(n_per)], axis=1
    )
    r_out = rng.uniform(0.55, 0.80, n_per) / 2.0 + 0.275  # radii in [0.55, 0.675]...
    r_out = rng.uniform(0.55, 0.80, n_per) * 0.5 + 0.1
    t_out = rng.random(n_per) * 2 * np.pi
    ring = np.stack(
        [0.5 + r_out * np.cos(t_out), 0.5 + r_out * np.sin(t_out), np.zeros(n_per)],
        axis=1,
    )
    feats = np.clip(np.vstack([inner, ring]), 0.0, 1.0)
    labels = np.concatenate(
        [np.full(n_per, int(ClassLabel.CSF)), np.full(n_per, int(ClassLabel.MATTER))]
    )
    return SampleSet(feats, labels)


def best_linear_accuracy(samples):
    """Brute force over projection directions and all thresholds."""
    x = samples.features[:, :2]
    y = samples.labels
    best = 0.0
    for theta in np.linspace(0.0, np.pi, 360, endpoint=False):
        proj = x @ np.array([np.cos(theta), np.sin(theta)])
        order = np.argsort(proj)
        labs = y[order]
        # accuracy of every threshold position, both polarities
        csf_left = np.cumsum(labs == int(ClassLabel.CSF))
        matter_left = np.cumsum(labs == int(ClassLabel.MATTER))
        total_csf = csf_left[-1]
        total_matter = matter_left[-1]
        n = labs.size
        for k in range(n + 1):
            cl = csf_left[k - 1] if k else 0
            ml = matter_left[k - 1] if k else 0
            acc_a = (cl + (total_matter - ml)) / n
            acc_b = (ml + (total_csf - cl)) / n
            best = max(best, acc_a, acc_b)
    return best


@pytest.mark.parametrize("train", [
    train_polynomial,
    lambda s: train_mlp(s, MlpConfig()),
    lambda s: label_som(train_som(s, SomConfig()), s),
], ids=["po", "mlp", "som"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trainers_refuse_non_finite_features(train, bad):
    """A NaN passes the MLP's [0, 1] range check, and SOM training spreads
    it to the neurons: each trainer must name the feature instead."""
    samples = blob_samples(
        [((0.2, 0.2, 0.2), ClassLabel.CSF), ((0.8, 0.8, 0.8), ClassLabel.MATTER)], 10, 0.05
    )
    features = samples.features.copy()
    features[3, 1] = bad
    with pytest.raises(ValidationError, match="sample set contains non-finite features"):
        train(SampleSet(features, samples.labels))


class TestHyperquadricSeparability:
    def test_annulus_poly_vs_best_linear(self):
        samples = annulus_dataset()
        model = train_polynomial(samples)
        pred = reference_po_labels(model, samples.features)
        assert accuracy(pred, samples.labels) >= 0.99
        assert best_linear_accuracy(samples) <= 0.70


class TestMlp:
    def test_two_blob_convergence(self):
        samples = blob_samples(
            [((0.2, 0.2, 0.2), ClassLabel.CSF), ((0.8, 0.8, 0.8), ClassLabel.MATTER)],
            n_per=150,
            spread=0.05,
        )
        model = train_mlp(samples, MlpConfig(seed=3))
        assert model.epochs_run < 1000
        pred = reference_mlp_labels(model, samples.features)
        assert accuracy(pred, samples.labels) >= 0.99

    def test_same_seed_bit_identical(self):
        samples = blob_samples(
            [((0.3, 0.2, 0.1), ClassLabel.CSF), ((0.7, 0.8, 0.9), ClassLabel.MATTER)],
            n_per=60,
            spread=0.05,
        )
        a = train_mlp(samples, MlpConfig(seed=7))
        b = train_mlp(samples, MlpConfig(seed=7))
        np.testing.assert_array_equal(a.hidden_weights, b.hidden_weights)
        np.testing.assert_array_equal(a.output_weights, b.output_weights)

    def test_unnormalized_features_rejected(self):
        s = SampleSet(np.array([[0.5, 2.0, 0.1]] * 4), np.array([1, 2, 1, 2]))
        with pytest.raises(ValidationError):
            train_mlp(s, MlpConfig())

    def test_gradient_matches_finite_differences(self):
        """Each online step is eta times the gradient of its sample's loss:
        20 samples in turn, 20 coordinates of each layer."""
        rng = np.random.default_rng(42)
        b = _backprop(rng.uniform(-0.5, 0.5, (60, 4)), rng.uniform(-0.5, 0.5, (3, 61)))
        xb = np.hstack([rng.random((20, 3)), np.ones((20, 1))])
        t = np.full((20, 3), 0.1)
        t[np.arange(20), rng.integers(0, 3, 20)] = 0.9
        coords = [(0, i) for i in rng.choice(60 * 4, size=20, replace=False)]
        coords += [(1, i) for i in rng.choice(3 * 61, size=20, replace=False)]
        for xi, ti in zip(xb, t):
            loss = reference_sample_loss(*backprop_weights(b[1]), xi, ti)
            sq_err, applied, errors = backprop_step_errors(b, xi, ti, 0.2, coords)
            assert applied
            assert sq_err == pytest.approx(2 * loss, rel=1e-12)
            assert max(errors) <= 1e-4

    def test_training_applies_the_checked_step(self, monkeypatch):
        """train_mlp's weights are those of _backprop's step replayed by
        hand: the initial weights, then one permutation per epoch, from one
        default_rng(seed)."""
        samples = blob_samples(
            [((0.2, 0.3, 0.4), ClassLabel.CSF), ((0.7, 0.6, 0.5), ClassLabel.MATTER)],
            n_per=30,
            spread=0.05,
        )
        cfg = MlpConfig(target_error=1e-9, max_epochs=2, seed=5)
        calls = []

        def counted_backprop(wh, wo):
            step, w, delta = _backprop(wh, wo)

            def counted(*args):
                calls.append(1)
                return step(*args)

            return counted, w, delta

        monkeypatch.setattr(classifiers, "_backprop", counted_backprop)
        model = train_mlp(samples, cfg)
        assert model.epochs_run == 2 and len(calls) == 2 * len(samples)

        rng = np.random.default_rng(cfg.seed)
        step, w, _ = _backprop(
            rng.uniform(-0.5, 0.5, size=(60, 4)), rng.uniform(-0.5, 0.5, size=(3, 61))
        )
        xb = np.hstack([samples.features, np.ones((len(samples), 1))])
        targets = np.where(samples.labels[:, None] == np.arange(1, 4), 0.9, 0.1)
        for epoch in range(cfg.max_epochs):
            rates = _step_rates(cfg.eta0 * (1.0 - epoch / cfg.max_epochs))
            for idx in rng.permutation(len(samples)):
                step(xb[idx], targets[idx], rates)
        wh, wo = backprop_weights(w)
        assert model.hidden_weights.tobytes() == wh.tobytes()
        assert model.output_weights.tobytes() == wo.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_epochs=st.integers(2, 4),
        data=st.data(),
    )
    def test_matches_the_positive_weight_reference(self, seed, max_epochs, data):
        """Training on the negated flat buffer gives the weights and epoch
        count of the plain positive-weight loop, bit for bit, over several
        epochs: the target error is never reached, so eta decays."""
        n = data.draw(st.integers(3, 24))
        features = data.draw(arrays(np.float64, (n, 3), elements=st.floats(0.0, 1.0)))
        labels = data.draw(
            arrays(np.int64, n, elements=st.integers(1, 3)).filter(
                lambda a: np.unique(a).size >= 2
            )
        )
        samples = SampleSet(features, labels)
        cfg = MlpConfig(target_error=1e-12, max_epochs=max_epochs, seed=seed)
        model = train_mlp(samples, cfg)
        wh, wo, epochs_run = reference_train_mlp(samples, cfg)
        assert model.epochs_run == epochs_run == max_epochs
        assert model.hidden_weights.tobytes() == wh.tobytes()
        assert model.output_weights.tobytes() == wo.tobytes()


class TestMlpForwardPass:
    """The buffered forward pass against the textbook formulas, bit for bit."""

    def test_sigmoid_matches_formula(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 20_001), [-745.5, 709.9, -0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                got = _sigmoid_of_negated(-x)
        assert got.tobytes() == reference_sigmoid(x).tobytes()
        assert got[0] == 0.0 and got[-4] == 1.0

    def test_sigmoid_in_place(self):
        x = np.linspace(-30.0, 30.0, 101)
        a = -x
        assert _sigmoid_of_negated(a) is a
        assert a.tobytes() == reference_sigmoid(x).tobytes()

    def test_negated_weights_identity(self):
        rng = np.random.default_rng(5)
        xb = np.hstack([rng.random((1500, 3)), np.ones((1500, 1))])
        wh = rng.uniform(-5.0, 5.0, (60, 4))
        assert (xb @ (-wh).T).tobytes() == (-(xb @ wh.T)).tobytes()

    def test_layers_match_reference(self):
        rng = np.random.default_rng(6)
        wh = rng.uniform(-5.0, 5.0, (60, 4))
        wo = rng.uniform(-5.0, 5.0, (3, 61))
        forward, xb, hb = _layers(-wh, wo, 1024, _sigmoid_of_negated)
        # A full batch, then a partial one that must not see its columns.
        for n in (1024, 333):
            x = rng.random((n, 3))
            z = forward(x.T)
            want_xb = np.hstack([x, np.ones((n, 1))])
            want_h = reference_sigmoid(want_xb @ wh.T)
            assert xb[:, :n].tobytes() == want_xb.T.tobytes()
            assert hb[:60, :n].tobytes() == want_h.T.tobytes()
            assert np.all(hb[60] == 1.0)
            assert z.shape == (3, n)
            np.testing.assert_allclose(z, wo @ hb[:, :n], rtol=1e-13, atol=1e-13)

    def test_saturated_tie_goes_to_larger_preactivation(self, small_volume):
        # Every hidden unit is 0.5, so the output pre-activations are the
        # biases: 100 and 200 both give a sigmoid of exactly 1.0.
        wo = np.zeros((3, 61))
        wo[:, -1] = [100.0, 200.0, -5.0]
        model = MlpModel(np.zeros((60, 4)), wo)
        y = reference_sigmoid(reference_mlp_preactivations(model, np.full((1, 3), 0.5)))
        assert y[0, 0] == y[0, 1] == 1.0
        labels = classify(model, small_volume[0][0]).labels
        assert np.all(labels == int(ClassLabel.MATTER))


class TestNonFiniteScores:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_polynomial_overflow_raises(self, small_volume, sign):
        model = PolyModel(np.full((3, 10), sign * 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="po model gave non-finite scores"):
                classify(model, small_volume[0][0])

    def test_mlp_overflow_raises(self, small_volume):
        model = MlpModel(np.zeros((60, 4)), np.full((3, 61), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="mlp model gave non-finite scores"):
                classify(model, small_volume[0][0])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("kind", ["KO", "KO-ADC"])
    def test_som_overflow_raises(self, small_volume, kind, sign):
        d, image = (3, small_volume[0][0]) if kind == "KO" else (1, adc_map(small_volume[0][0]))
        model = SomModel(np.full((3, d), sign * 1e308), class_of_neuron=(1, 2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="som model gave non-finite distances"):
                classify(model, image)
            with pytest.raises(NumericalError, match="som model gave non-finite distances"):
                label_som(model, SampleSet(np.full((4, d), 0.5), np.array([1, 2, 3, 1])))

    def test_saturated_hidden_units_are_not_an_error(self, small_volume):
        # exp overflows for every hidden unit: each sigmoid is exactly 0.
        wh = np.zeros((60, 4))
        wh[:, -1] = -1e4
        wo = np.zeros((3, 61))
        wo[1, -1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = classify(MlpModel(wh, wo), small_volume[0][0]).labels
        assert np.all(labels == int(ClassLabel.MATTER))


class TestSom:
    def three_point_samples(self, n_per=200):
        pts = np.array([[0.1, 0.1, 0.1], [0.5, 0.5, 0.5], [0.9, 0.9, 0.9]])
        feats = np.repeat(pts, n_per, axis=0)
        labels = np.repeat([1, 2, 3], n_per)
        return SampleSet(feats, labels), pts

    def test_neurons_converge_to_cluster_points(self):
        samples, pts = self.three_point_samples()
        model = train_som(samples, SomConfig(max_iters=4000, seed=5))
        # each cluster point must have a neuron within 1e-3
        for p in pts:
            dists = np.linalg.norm(model.neurons - p, axis=1)
            assert dists.min() <= 1e-3

    def test_same_seed_identical(self):
        samples, _ = self.three_point_samples(50)
        a = train_som(samples, SomConfig(seed=2))
        b = train_som(samples, SomConfig(seed=2))
        np.testing.assert_array_equal(a.neurons, b.neurons)

    def test_vanishing_learning_rate_keeps_initial_neurons(self):
        samples, pts = self.three_point_samples(50)
        model = train_som(samples, SomConfig(eta0=1e-300, seed=2))
        # neurons stay at their 3 distinct initial samples
        for w in model.neurons:
            assert any(np.allclose(w, p) for p in pts)

    def test_identical_samples_rejected(self):
        s = SampleSet(np.ones((10, 3)) * 0.5, np.full(10, 2))
        with pytest.raises(ValidationError, match="at least 3 distinct samples"):
            train_som(s, SomConfig())

    def test_fewer_than_three_rejected(self):
        s = SampleSet(np.array([[0.1] * 3, [0.9] * 3]), np.array([1, 2]))
        with pytest.raises(ValidationError, match="at least 3 samples, got 2"):
            train_som(s, SomConfig())


class TestLabelSom:
    def test_majority_vote(self):
        samples = SampleSet(
            np.array([[0.1]] * 10 + [[0.12]] * 2 + [[0.5]] * 5 + [[0.9]] * 5),
            np.array([1] * 10 + [2] * 2 + [2] * 5 + [3] * 5),
        )
        model = SomModel(np.array([[0.1], [0.5], [0.9]]))
        labeled = label_som(model, samples)
        assert labeled.class_of_neuron[0] == ClassLabel.CSF

    def test_tie_breaks_to_lower_class(self):
        samples = SampleSet(
            np.array([[0.1]] * 10 + [[0.5]] * 3 + [[0.9]] * 3),
            np.array([1] * 5 + [2] * 5 + [2] * 3 + [3] * 3),
        )
        model = SomModel(np.array([[0.1], [0.5], [0.9]]))
        labeled = label_som(model, samples)
        assert labeled.class_of_neuron[0] == ClassLabel.CSF

    def test_unwon_neuron_raises(self):
        samples = SampleSet(np.array([[0.1]] * 5 + [[0.2]] * 5), np.array([1] * 5 + [2] * 5))
        model = SomModel(np.array([[0.1], [0.2], [50.0]]))
        with pytest.raises(NumericalError, match="neuron 2 wins no samples"):
            label_som(model, samples)

    def test_three_pure_clusters_get_distinct_labels(self):
        samples = blob_samples(
            [
                ((0.1, 0.1, 0.1), ClassLabel.CSF),
                ((0.5, 0.5, 0.5), ClassLabel.MATTER),
                ((0.9, 0.9, 0.9), ClassLabel.BACKGROUND),
            ],
            n_per=100,
            spread=0.02,
        )
        model = train_som(samples, SomConfig(max_iters=500, seed=1))
        labeled = label_som(model, samples)
        assert sorted(int(c) for c in labeled.class_of_neuron) == [1, 2, 3]


class TestClassify:
    def test_constant_argmax_gives_uniform_map(self, small_volume):
        stacks, _ = small_volume
        weights = np.zeros((3, 10))
        weights[1, 0] = 1.0  # matter bias dominates everywhere
        model = PolyModel(weights)
        lm = classify(model, stacks[0])
        assert np.all(lm.labels == int(ClassLabel.MATTER))

    def test_polynomial_on_noiseless_phantom(self, default_volume):
        stacks, truth = default_volume
        samples = extract_samples(stacks[13], truth[13])
        model = train_polynomial(samples)
        pred = classify(model, stacks[13])
        assert kappa(confusion(pred, truth[13])) >= 0.99

    def test_score_scale_and_shift_invariance(self, small_volume):
        stacks, truth = small_volume
        samples = extract_samples(stacks[3], truth[3])
        model = train_polynomial(samples)
        base = classify(model, stacks[0])
        scaled = PolyModel(model.weights * 7.0)
        shifted_w = model.weights.copy()
        shifted_w[:, 0] += 3.5  # shared constant via the bias monomial
        shifted = PolyModel(shifted_w)
        np.testing.assert_array_equal(classify(scaled, stacks[0]).labels, base.labels)
        np.testing.assert_array_equal(classify(shifted, stacks[0]).labels, base.labels)

    def test_pixel_permutation_equivariance(self, small_volume):
        stacks, truth = small_volume
        samples = extract_samples(stacks[3], truth[3])
        model = train_polynomial(samples)
        stack = stacks[0]
        rng = np.random.default_rng(0)
        perm = rng.permutation(stack.width * stack.height)
        pixels = stack.data.reshape(len(stack.data), -1)
        permuted = stack_of(pixels[:, perm].reshape(stack.data.shape), stack.b_values)
        direct = classify(model, stack).labels.ravel()
        via_perm = classify(model, permuted).labels.ravel()
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size)
        np.testing.assert_array_equal(via_perm[inverse], direct)

    def test_arity_mismatch_rejected(self, small_volume):
        stacks, _ = small_volume
        model = SomModel(np.array([[0.1], [0.5], [0.9]]), class_of_neuron=(1, 2, 3))
        with pytest.raises(ValidationError, match="model expects 1 features"):
            classify(model, stacks[0])

    def test_unlabeled_som_rejected(self, small_volume):
        stacks, truth = small_volume
        samples = extract_samples(stacks[3], truth[3])
        model = train_som(samples, SomConfig(seed=1))
        for _ in range(2):  # the second call would make a label table
            with pytest.raises(ValidationError, match="must be labeled"):
                classify(model, stacks[0])


def broadcast_winners(neurons, features):
    """Nearest neuron by one (n, 3, d) broadcast difference reduced over d."""
    d2 = ((features[:, None, :] - neurons[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


# Few distinct values, so that neurons repeat (tied distances) and features
# land on neurons; plus arbitrary finite values.
SOM_VALUES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, -2.0]), st.floats(-1e3, 1e3))


def reference_som_vote(neurons, samples):
    """label_som's class of each neuron by a majority vote over the samples
    that broadcast_winners gives it, or the first neuron that wins none."""
    won = broadcast_winners(neurons, samples.features)
    votes = [np.bincount(samples.labels[won == j], minlength=4) for j in range(3)]
    empty = [j for j in range(3) if not votes[j].any()]
    return empty[0] if empty else tuple(int(np.argmax(v)) for v in votes)


class TestSomWinners:
    """label_som's nearest neuron of each sample, against the broadcast
    reference."""

    @settings(max_examples=200)
    @given(d=st.sampled_from([1, 3]), data=st.data())
    def test_matches_broadcast_reference(self, d, data):
        neurons = data.draw(arrays(np.float64, (3, d), elements=SOM_VALUES))
        n = data.draw(st.integers(1, 40))
        x = data.draw(arrays(np.float64, (n, d), elements=SOM_VALUES))
        labels = data.draw(arrays(np.int64, n, elements=st.integers(1, 3)))
        samples = SampleSet(x, labels)
        want = reference_som_vote(neurons, samples)
        if isinstance(want, int):
            with pytest.raises(NumericalError, match=f"^neuron {want} wins no samples"):
                label_som(SomModel(neurons), samples)
        else:
            assert label_som(SomModel(neurons), samples).class_of_neuron == want

    @pytest.mark.parametrize("d", [1, 3])
    def test_duplicate_neurons_tie_to_lower_index(self, d):
        # Neurons 1 and 2 tie at every sample: neuron 1 wins the first two
        # samples, neuron 0 the third, and neuron 2 none.
        neurons = np.array([[0.5] * d, [0.2] * d, [0.2] * d])
        samples = SampleSet(np.array([[0.2] * d, [0.1] * d, [0.9] * d]), np.array([1, 2, 3]))
        assert broadcast_winners(neurons, samples.features).tolist() == [1, 1, 0]
        with pytest.raises(NumericalError, match="^neuron 2 wins no samples"):
            label_som(SomModel(neurons), samples)


@pytest.fixture(scope="module", params=[(37, 41), (48, 48)], ids=["37x41", "48x48"])
def noisy_slice(request):
    """Models of every kind trained on a small phantom, and a noisy slice of
    it whose pixel count spans several classify blocks, the last partial."""
    width, height = request.param
    cfg = ExperimentConfig(
        phantom=default_phantom_spec(width, height, 6), training_slice=3, seeds=(1,)
    )
    stacks, truth = render_phantom(cfg.phantom, cfg.acquisition)
    return cfg, train_models(cfg, stacks, truth), add_noise_to_stack(stacks[1], 0.1, 5)


def reference_som_labels(model, feats):
    lut = np.array([int(c) for c in model.class_of_neuron])
    return lut[broadcast_winners(model.neurons, feats)]


REFERENCE_LABELS = {
    "PO": reference_po_labels,
    "MLP": reference_mlp_labels,
    "KO": reference_som_labels,
    "KO-ADC": reference_som_labels,
}


def slice_input(cfg, stack, name):
    """The image a classifier reads, and its pixels as feature rows."""
    if name == "KO-ADC":
        image = adc_map(stack, cfg.adc)
        return image, image.data.reshape(-1, 1)
    return stack, pixel_features(stack)


class TestBlockedClassify:
    @pytest.mark.parametrize("name", ["PO", "MLP", "KO", "KO-ADC"])
    def test_labels_equal_whole_image_decision(self, noisy_slice, name, monkeypatch):
        cfg, models, stack = noisy_slice
        model = models[name][1]
        image, feats = slice_input(cfg, stack, name)
        want = REFERENCE_LABELS[name](model, feats)
        assert np.unique(want).size > 1
        got = classify(model, image).labels
        assert got.shape == (image.height, image.width)
        np.testing.assert_array_equal(got.ravel(), want)
        # Every kind again in MLP-sized blocks: several, the last partial.
        n = feats.shape[0]
        assert n > _MLP_BLOCK and n % _MLP_BLOCK
        monkeypatch.setattr(classifiers, "_BLOCK", _MLP_BLOCK)
        np.testing.assert_array_equal(classify(model, image).labels.ravel(), want)


class TestSharedPlanes:
    def test_stack_classifiers_build_the_planes_once(self, noisy_slice, monkeypatch):
        cfg, models, stack = noisy_slice
        fresh = SpectralStack(stack.data, stack.b_values)
        built = []
        build = SpectralStack.planes.func

        def counted(self):
            built.append(self)
            return build(self)

        planes = cached_property(counted)
        planes.__set_name__(SpectralStack, "planes")
        monkeypatch.setattr(SpectralStack, "planes", planes)
        labels = [classify(models[name][1], fresh).labels for name in ("PO", "MLP", "KO")]
        assert built == [fresh]
        assert all(lab.dtype == np.uint8 for lab in labels)
        x = fresh.planes
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0] = 0.0
        assert _feature_planes(models["PO"][1], fresh) is x


class TestLayoutIdentities:
    """The planar products that classify computes, bit for bit against the
    row-major formulas. The golden digests rely on these identities; a BLAS
    that breaks one fails here by name."""

    def test_feature_planes_are_pixel_feature_columns(self, noisy_slice):
        cfg, models, stack = noisy_slice
        x = _feature_planes(models["PO"][1], stack)
        assert x.tobytes() == np.ascontiguousarray(pixel_features(stack).T).tobytes()

    def test_stack_planes_are_pixel_feature_columns(self, noisy_slice):
        cfg, models, stack = noisy_slice
        want = np.ascontiguousarray(pixel_features(stack).T)
        assert stack.planes.shape == want.shape
        assert stack.planes.tobytes() == want.tobytes()

    def test_polynomial_scores(self, noisy_slice):
        cfg, models, stack = noisy_slice
        model = models["PO"][1]
        x = _feature_planes(model, stack)
        want = reference_monomials(pixel_features(stack)) @ model.weights.T
        got = model.exact_pass(x.shape[1])(x)
        assert got.tobytes() == np.ascontiguousarray(want.T).tobytes()

    def test_mlp_hidden_layer(self, noisy_slice):
        cfg, models, stack = noisy_slice
        model = models["MLP"][1]
        x = _feature_planes(model, stack)
        feats = pixel_features(stack)
        forward, _, hb = _layers(
            -model.hidden_weights, model.output_weights, _MLP_BLOCK, _sigmoid_of_negated
        )
        for start in range(0, x.shape[1], _MLP_BLOCK):
            cols = slice(start, start + _MLP_BLOCK)
            forward(x[:, cols])
            n = len(feats[cols])
            xb = np.hstack([feats[cols], np.ones((n, 1))])
            want = reference_sigmoid(xb @ model.hidden_weights.T)
            assert hb[:60, :n].tobytes() == np.ascontiguousarray(want.T).tobytes()


# Few distinct values, so that rows tie; both signed zeros, which compare
# equal; and +inf, which a squared distance reaches when it overflows.
TIE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf])


class TestFirstBest:
    @settings(max_examples=300)
    @given(rows=arrays(np.float64, st.tuples(st.just(3), st.integers(1, 50)),
                       elements=TIE_VALUES))
    def test_matches_numpy_tie_order(self, rows):
        np.testing.assert_array_equal(_first_best(rows, largest=True), np.argmax(rows, axis=0))
        np.testing.assert_array_equal(_first_best(rows, largest=False), np.argmin(rows, axis=0))


# The stacks below are 50x50, whose 2500 pixels make two float32 screen
# blocks, the last partial; feature planes x (3, 2500) become the stack
# FULL_SCALE * x.reshape(3, 50, 50).


def float64_labels(model, x):
    """The float64 pass alone over feature planes x: the first largest
    pre-activation of each pixel."""
    with np.errstate(over="ignore"):
        return _first_best(model.exact_pass(x.shape[1])(x), largest=True) + 1


def screen_outputs(model, x):
    """The outputs (3, n) of the MLP's float32 screen over feature planes x,
    by the pass that _screened_labels runs."""
    _, wh, wo = model.screen
    return _layers(wh, wo, x.shape[1], lambda a: np.tanh(a, out=a))[0](x)


def float32_gap(model, x):
    """The largest |z32 - z64| over x of the float32 screen that classify
    runs and the float64 pass."""
    with np.errstate(over="ignore"):
        z64 = model.exact_pass(x.shape[1])(x)
    return float(np.abs(screen_outputs(model, x).astype(np.float64) - z64).max())


def counting_fallback(monkeypatch):
    """Count the pixels that classify sends to the MLP's float64 pass."""
    seen = []
    exact = classifiers._exact_labels

    def spy(model, x):
        if isinstance(model, MlpModel):
            seen.append(x.shape[1])
        return exact(model, x)

    monkeypatch.setattr(classifiers, "_exact_labels", spy)
    return seen


def saturating_model(rng, wo, n=2500):
    """An MLP with hidden weights of +-1e4 and no hidden bias, output weights
    ``wo``, and feature planes (3, n) of odd multiples of 1/8. Each hidden
    pre-activation is then 1e4 times an odd multiple of 1/8, at least 1250
    in magnitude: every tanh of the screen is exactly +-1 and every sigmoid
    of the float64 pass exactly 0 or 1."""
    wh = 1e4 * rng.choice([-1.0, 1.0], (60, 4))
    wh[:, -1] = 0.0
    return MlpModel(wh, wo), rng.choice([0.125, 0.375, 0.625, 0.875], (3, n))


def centred_model(rng, scale):
    """An MLP with weights uniform in [-scale, scale], but for output biases
    that make its three outputs equal at the centre of the feature cube, so
    that class boundaries cross the cube."""
    wh, wo = rng.uniform(-scale, scale, (60, 4)), rng.uniform(-scale, scale, (3, 61))
    z = MlpModel(wh, wo.copy()).exact_pass(1)(np.full((3, 1), 0.5))[:, 0]
    wo[:, -1] -= z
    return MlpModel(wh, wo)


def exact_labels(model, x):
    """The float64 pass alone over feature planes x, for a PO, MLP or KO
    model: its class codes."""
    if isinstance(model, MlpModel):
        return float64_labels(model, x)
    if isinstance(model, PolyModel):
        return _first_best(model.exact_pass(x.shape[1])(x), largest=True) + 1
    lut = np.array([int(c) for c in model.class_of_neuron])
    return lut[_first_best(classifiers._som_distances(model.neurons, x), largest=False)]


def crossing_model(kind, rng, scale):
    """A PO, MLP or KO model whose class boundaries cross the feature cube:
    PO scores and MLP outputs equal at its centre (weights uniform in
    [-scale, scale]), or SOM neurons inside it whose classes may repeat."""
    if kind == "MLP":
        return centred_model(rng, scale)
    if kind == "PO":
        w = rng.uniform(-scale, scale, (3, 10))
        w[:, 0] -= w @ classifiers._quadratic_planes(np.full((3, 1), 0.5))[:, 0]
        return PolyModel(w)
    return SomModel(rng.uniform(0.0, 1.0, (3, 3)), class_of_neuron=tuple(rng.integers(1, 4, 3)))


def assert_proven_cells_hold(model, rng):
    """Prove the whole cube for ``model``; every proven cell must hold the
    float64 pass's label at its 8 corners and at random points inside it."""
    table = model.label_table
    with np.errstate(over="ignore"):
        table.prove(np.array(np.unravel_index(np.arange(64), (4, 4, 4))))
    labels = table.labels.reshape(64, 64, 64)
    assert np.all(labels != 0)
    proven = labels != classifiers._UNDECIDED
    # Corner (a, b, c) of cell (i, j, k) is vertex (i + a, j + b, k + c)
    # of the grid.
    v = np.arange(65) / 64
    vertices = np.array(np.meshgrid(v, v, v, indexing="ij")).reshape(3, -1)
    at_vertex = np.concatenate(
        [exact_labels(model, vertices[:, i:i + 8192]) for i in range(0, 65**3, 8192)]
    ).reshape(65, 65, 65)
    for a, b, c in np.ndindex(2, 2, 2):
        corner = at_vertex[a:a + 64, b:b + 64, c:c + 64]
        np.testing.assert_array_equal(corner[proven], labels[proven])
    x = rng.uniform(0.0, 1.0, (3, 8192))
    inside = table.labels[classifiers._LabelTable.cells(x)]
    held = inside != classifiers._UNDECIDED
    np.testing.assert_array_equal(exact_labels(model, x)[held], inside[held])
    return labels


def tanh_ulp_error(x):
    """The error of float32 np.tanh at float32 ``x``, in float32 ulp of the
    float64 tanh."""
    t64 = np.tanh(x.astype(np.float64))
    _, e = np.frexp(t64)
    ulp = np.ldexp(1.0, np.maximum(e - 24, -149))
    return np.abs(np.tanh(x) - t64) / ulp


FLOAT32_TEN = int(np.float32(10.0).view(np.uint32))
SIGN_BIT = np.uint32(0x80000000)


class TestFloat32Screen:
    """classify screens MLP pixels in float32 and decides every close call
    in float64: its labels are the float64 pass's."""

    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pair=st.sampled_from([(0, 1), (0, 2), (1, 2)]),
        delta=st.sampled_from([0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-3]),
    )
    def test_labels_equal_float64_pass(self, seed, pair, delta):
        # Random weights in [-8, 8]. Output row k is row i plus delta times
        # noise in [-1, 1], and its bias is 61 * delta higher still: z_k - z_i
        # lies in [delta, 121 * delta] in float64 (0 when delta is 0), while
        # float32 rounds the two rows apart either way.
        rng = np.random.default_rng(seed)
        wh = rng.uniform(-8.0, 8.0, (60, 4))
        wo = rng.uniform(-8.0, 8.0, (3, 61))
        i, k = pair
        wo[k] = wo[i] + delta * rng.uniform(-1.0, 1.0, 61)
        wo[k, -1] += 61 * delta
        model = MlpModel(wh, wo)
        image = stack_of(FULL_SCALE * rng.uniform(0.0, 1.0, (3, 50, 50)))
        x = _feature_planes(model, image)
        assert classifiers._screen_bound(model) is not None
        got = classify(model, image).labels.ravel()
        np.testing.assert_array_equal(got, float64_labels(model, x))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bound_covers_float32_error(self, seed):
        # tau is 8 times the bound on each |z32 - z64|.
        rng = np.random.default_rng(seed)
        model = MlpModel(rng.uniform(-8.0, 8.0, (60, 4)), rng.uniform(-8.0, 8.0, (3, 61)))
        x = rng.uniform(0.0, 1.0, (3, 4096))
        assert float32_gap(model, x) <= classifiers._screen_bound(model) / 8

    def test_trained_model_bound(self, noisy_slice):
        cfg, models, stack = noisy_slice
        model = models["MLP"][1]
        x = _feature_planes(model, stack)
        tau = classifiers._screen_bound(model)
        assert 0.0 < tau < 0.1
        assert float32_gap(model, x) <= tau / 8

    def test_exact_tie_goes_to_lower_class_through_float64(self, monkeypatch):
        # Rows 0 and 1 are equal and row 2 is below them everywhere.
        rng = np.random.default_rng(11)
        wh = rng.uniform(-4.0, 4.0, (60, 4))
        wo = rng.uniform(-4.0, 4.0, (3, 61))
        wo[1] = wo[0]
        wo[2] = wo[0]
        wo[2, -1] -= 1.0
        seen = counting_fallback(monkeypatch)
        image = stack_of(FULL_SCALE * rng.uniform(0.0, 1.0, (3, 50, 50)))
        labels = classify(MlpModel(wh, wo), image).labels
        assert np.all(labels == int(ClassLabel.CSF))
        assert seen == [2500]

    def test_clear_leads_skip_float64(self, noisy_slice, monkeypatch):
        cfg, models, stack = noisy_slice
        seen = counting_fallback(monkeypatch)
        classify(models["MLP"][1], stack)
        assert sum(seen) < stack.width * stack.height / 100

    def test_saturated_hidden_units_fold_bias_back(self, monkeypatch):
        # Every t_j is +-1, so output k of the screen is b'_k + sum_j
        # wo_kj * t_j / 2 = b_k + the sum of wo_kj over the units that are
        # on: the float64 output, with the folded bias cancelled back to b_k.
        rng = np.random.default_rng(23)
        model, x = saturating_model(rng, rng.uniform(-0.01, 0.01, (3, 61)))
        image = stack_of(FULL_SCALE * x.reshape(3, 50, 50))
        x = _feature_planes(model, image)
        tau = classifiers._screen_bound(model)
        assert tau is not None
        assert float32_gap(model, x) <= tau / 8
        seen = counting_fallback(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = classify(model, image).labels.ravel()
        want = float64_labels(model, x)
        assert np.unique(want).size == 3
        np.testing.assert_array_equal(got, want)
        # The screen decides most pixels. Its tau holds on the whole feature
        # cube, though these features reach only 7/8: here 380 of the 2,500
        # pixels lead by less than it and take the float64 pass.
        assert sum(seen) < 2500 / 5

    def test_folded_bias_tie_goes_to_lower_class_through_float64(self, monkeypatch):
        # Hidden units 0-29 depend on the pixel and units 30-59 are always
        # on. Rows 1 and 2 share their weights on units 0-29; on units
        # 30-59 they have p and q, and row 2's bias is sum(p) - sum(q)
        # higher. Every weight is a multiple of 2^-30 of magnitude below 2,
        # so every float64 sum is exact and the two outputs tie exactly.
        # Their folded float32 weights differ, and so do their screen
        # outputs. Row 0 is row 1 less 1.
        rng = np.random.default_rng(13)
        wo = rng.integers(-(2**23), 2**23, (3, 61)) * 2.0**-30
        wo[2, :30] = wo[1, :30]
        wo[2, -1] = wo[1, -1] + wo[1, 30:60].sum() - wo[2, 30:60].sum()
        wo[0] = wo[1]
        wo[0, -1] -= 1.0
        model, x = saturating_model(rng, wo)
        wh = model.hidden_weights.copy()
        wh[30:, :3] = 0.0
        wh[30:, 3] = 1e4
        model = MlpModel(wh, wo)
        image = stack_of(FULL_SCALE * x.reshape(3, 50, 50))
        x = _feature_planes(model, image)
        assert classifiers._screen_bound(model) is not None
        z = screen_outputs(model, x)
        assert np.any(z[1] != z[2])
        seen = counting_fallback(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = classify(model, image).labels
        assert np.all(labels == int(ClassLabel.MATTER))
        assert seen == [2500]

    def test_bound_follows_its_derivation(self):
        # S_j = 1 + 2 for every hidden unit and every |wo_kj| is 1:
        # tau = 8u * (60 * (2 * 3 + 4) + 64 * 61).
        wh = np.zeros((60, 4))
        wh[:, 0] = 1.0
        wh[:, -1] = -2.0
        model = MlpModel(wh, -np.ones((3, 61)))
        assert classifiers._screen_bound(model) == 8 * 2.0**-24 * (60 * 10 + 64 * 61)

    def test_bound_is_computed_once_per_model(self, monkeypatch):
        # A one-shot call, the call that makes the label table and a warm
        # call all take the tau of the model's one screen.
        calls = []
        bound = classifiers._screen_bound
        monkeypatch.setattr(classifiers, "_screen_bound", lambda m: calls.append(m) or bound(m))
        rng = np.random.default_rng(4)
        model = centred_model(rng, 2.0)
        image = stack_of(FULL_SCALE * rng.uniform(0.0, 1.0, (3, 50, 50)))
        want = float64_labels(model, image.planes)
        for _ in range(3):
            np.testing.assert_array_equal(classify(model, image).labels.ravel(), want)
        assert model.__dict__["label_table"].tau == model.screen[0] == bound(model)
        assert calls == [model]

    def test_tanh_error_within_bound(self):
        # Every 2179th float32 bit pattern in [0, 10], and its negation:
        # about 10^6 values, subnormals among them.
        bits = np.arange(0, FLOAT32_TEN + 1, 2179, dtype=np.uint32)
        x = np.concatenate([bits, bits | SIGN_BIT]).view(np.float32)
        assert x.size > 10**6
        assert np.abs(np.tanh(x)).max() <= 1.0
        assert tanh_ulp_error(x).max() <= classifiers._TANH_ULP

    def test_tanh_is_exactly_one_beyond_ten(self):
        # Every 9973rd float32 bit pattern above 10, up to +inf, and its
        # negation.
        bits = np.arange(FLOAT32_TEN + 1, 0x7F800001, 9973, dtype=np.uint32)
        bits[-1] = 0x7F800000
        x = np.concatenate([bits, bits | SIGN_BIT]).view(np.float32)
        assert np.all(np.abs(x) > 10.0) and np.isinf(x[-1])
        np.testing.assert_array_equal(np.tanh(x), np.sign(x))

    def test_subnormal_weights_take_float64_pass(self, monkeypatch):
        # Every hidden unit is 0.5. In float64, output 0 is 60 * 3 * 2^-150
        # = 90 * 2^-149 and output 1 is 100 * 2^-149, so MATTER wins. In
        # float32 each product 1.5 * 2^-149 rounds to 2 * 2^-149, and
        # output 0 would win by 20 * 2^-149: out of the screen's range.
        tiny = 2.0**-149
        wo = np.zeros((3, 61))
        wo[0, :60] = 3 * tiny
        wo[1, -1] = 100 * tiny
        model = MlpModel(np.zeros((60, 4)), wo)
        image = stack_of(np.full((3, 50, 50), 0.5 * FULL_SCALE))
        assert classifiers._screen_bound(model) is None
        seen = counting_fallback(monkeypatch)
        assert np.all(classify(model, image).labels == int(ClassLabel.MATTER))
        assert seen == [2500]

    @pytest.mark.parametrize("weight", [1e308, 2.0**61, 2.0**-61])
    def test_out_of_range_weights_have_no_bound(self, weight):
        wo = np.zeros((3, 61))
        wo[2, 5] = weight
        assert classifiers._screen_bound(MlpModel(np.zeros((60, 4)), wo)) is None

    @pytest.mark.parametrize(
        "column, tau",
        [
            ([1.0, 0.5, 0.0], 0.5),  # the lead equals tau
            ([1.0, 1.0, 0.0], 0.0),  # a tie
            ([np.inf, 1.0, 0.0], 0.0),
            ([2.0, 1.0, -np.inf], 0.0),
            ([2.0, np.nan, 0.0], 0.0),
            ([np.nan, 1.0, 0.0], 0.0),
        ],
    )
    def test_close_or_non_finite_leads_are_not_clear(self, column, tau):
        z = np.array(column, dtype=np.float32)[:, None]
        assert not classifiers._clear_lead(z, tau)[0]

    def test_clear_lead_in_every_row(self):
        z = np.array([[3.0, 0.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]], dtype=np.float32)
        np.testing.assert_array_equal(classifiers._clear_lead(z, 1.9), [True, True, True])
        np.testing.assert_array_equal(classifiers._clear_lead(z, 2.0), [False, False, False])

    # The label table (classifiers._LabelTable), made on a model's second
    # classify call.

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.5, 2.0, 8.0]),
        levels=st.lists(st.sampled_from([0.0, 0.01, 0.07, 0.20]), min_size=3, max_size=5),
    )
    def test_table_labels_equal_float64_pass(self, seed, scale, levels):
        # Each call's pixels scatter around the same 6 centres, at one noise
        # level, so later calls meet cells that earlier ones proved. A PO,
        # an MLP and a KO model classify each image.
        rng = np.random.default_rng(seed)
        models = [
            PolyModel(rng.uniform(-scale, scale, (3, 10))),
            MlpModel(rng.uniform(-scale, scale, (60, 4)), rng.uniform(-scale, scale, (3, 61))),
            crossing_model("KO", rng, scale),
        ]
        centres = rng.uniform(0.0, 1.0, (3, 6))
        for level in levels:
            x = centres[:, rng.integers(0, 6, 2500)] + level * rng.standard_normal((3, 2500))
            image = stack_of(FULL_SCALE * np.clip(x, 0.0, 1.0).reshape(3, 50, 50))
            for model in models:
                got = classify(model, image).labels.ravel()
                np.testing.assert_array_equal(got, exact_labels(model, image.planes))
        assert all(model.__dict__["label_table"] is not None for model in models)

    def test_boundary_cell_stays_undecided(self, monkeypatch):
        # z_0 - z_1 = 2 * sigmoid(64 * (x_0 - c)) - 1 with c the middle of
        # cell 10 of band 0, so the decision boundary between CSF and MATTER
        # crosses that cell; BACKGROUND is far below both. Over cell 10,
        # 64 * (x_0 - c) spans [-0.5, 0.5], and B_01 = 2 * sigmoid(-0.5) - 1
        # is negative: no bound proves the cell. Over cells 12-15 it spans
        # [1.5, 5.5], and B_01 = 2 * sigmoid(1.5) - 1 > 0.6 proves CSF there
        # in the grid of 16 boxes per band.
        c = 10.5 / 64
        wh = np.zeros((60, 4))
        wh[0, 0], wh[0, -1] = 64.0, -64.0 * c
        wo = np.zeros((3, 61))
        wo[0, 0], wo[1, 0], wo[1, -1], wo[2, -1] = 1.0, -1.0, 1.0, -10.0
        model = MlpModel(wh, wo)
        rng = np.random.default_rng(5)

        def pixels(low, high):  # band 0 in [low, high) / 64, bands 1 and 2 in cell 20
            x = rng.uniform(20 / 64, 21 / 64, (3, 2500))
            x[0] = rng.uniform(low / 64, high / 64, 2500)
            return stack_of(FULL_SCALE * x.reshape(3, 50, 50))

        # Both sides of the boundary cell take the float64 pass's labels,
        # before and after the table is made.
        sides = {ClassLabel.MATTER: pixels(10, 10.4), ClassLabel.CSF: pixels(10.6, 11)}
        for _ in range(2):
            for label, image in sides.items():
                x = _feature_planes(model, image)
                assert np.all(float64_labels(model, x) == int(label))
                assert np.all(classify(model, image).labels == int(label))
        table = model.__dict__["label_table"]
        cell = (np.array([10, 12]) * 64 + 20) * 64 + 20
        want = [classifiers._UNDECIDED, int(ClassLabel.CSF)]
        np.testing.assert_array_equal(table.labels[cell], want)
        # No pixel has visited cell 12, and it is decided by the table alone.
        seen = []
        monkeypatch.setattr(classifiers, "_screened_labels", lambda *a: seen.append(a))
        assert np.all(classify(model, pixels(12, 13)).labels == int(ClassLabel.CSF))
        assert seen == []

    @settings(max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.5, 2.0, 8.0, 32.0]))
    def test_proven_cells_hold_the_float64_label(self, seed, scale):
        rng = np.random.default_rng(seed)
        assert_proven_cells_hold(centred_model(rng, scale), rng)

    def test_table_does_not_depend_on_call_order(self):
        # Three images over overlapping parts of the cube, classified in
        # three orders, and the coarse boxes they reach proven one at a
        # time in a shuffled order: the four tables are equal.
        rng = np.random.default_rng(6)
        model = centred_model(rng, 4.0)
        wh, wo = model.hidden_weights, model.output_weights
        images = [
            stack_of(FULL_SCALE * rng.uniform(low, low + 0.5, (3, 50, 50)))
            for low in (0.0, 0.25, 0.5)
        ]
        tables = []
        for order in ([0, 0, 1, 2], [2, 1, 0, 2], [1, 2, 1, 0]):
            model = MlpModel(wh, wo)
            for i in order:
                classify(model, images[i])
            tables.append(model.__dict__["label_table"].labels)
        cells = np.array(np.unravel_index(np.flatnonzero(tables[0]), (64, 64, 64)))
        reached = np.unique(cells // 16, axis=1)
        assert reached.shape[1] == 22  # 3 * 2^3 boxes, two of them twice
        table = classifiers._mlp_table(MlpModel(wh, wo))
        with np.errstate(over="ignore"):
            for box in rng.permutation(reached.T):
                table.prove(box[:, None])
        tables.append(table.labels)
        assert set(np.unique(tables[0])) == {0, 1, 2, 3, classifiers._UNDECIDED}
        for table in tables[1:]:
            np.testing.assert_array_equal(table, tables[0])

    def test_every_coarse_box_proven_at_once(self, monkeypatch):
        # BACKGROUND's bias leads by 10, and the other output weights sum to
        # less than 1.3 in magnitude: every coarse box is proven, and no
        # level is left to refine.
        rng = np.random.default_rng(8)
        wo = rng.uniform(-0.01, 0.01, (3, 61))
        wo[2, -1] = 10.0
        model = MlpModel(rng.uniform(-1.0, 1.0, (60, 4)), wo)
        halves = []
        proven = classifiers._LabelTable._proven

        def spy(table, centres, half):
            halves.append(half)
            return proven(table, centres, half)

        monkeypatch.setattr(classifiers._LabelTable, "_proven", spy)
        image = stack_of(FULL_SCALE * rng.uniform(0.0, 1.0, (3, 50, 50)))
        for _ in range(2):
            assert np.all(classify(model, image).labels == int(ClassLabel.BACKGROUND))
        assert halves == [1 / 8]
        table = model.__dict__["label_table"].labels
        assert np.count_nonzero(table) == 64**3
        assert np.all(table == int(ClassLabel.BACKGROUND))

    def test_one_shot_classify_makes_no_table(self):
        rng = np.random.default_rng(3)
        for kind in ("PO", "MLP", "KO"):
            model = crossing_model(kind, rng, 1.0)
            doc = model_to_json(model)
            image = stack_of(FULL_SCALE * rng.uniform(0.0, 1.0, (3, 50, 50)))
            first = classify(model, image).labels
            assert "label_table" not in model.__dict__
            assert "_cells" not in image.__dict__
            np.testing.assert_array_equal(classify(model, image).labels, first)
            assert model.__dict__["label_table"].labels.nbytes == 64**3
            assert image.__dict__["_cells"] is not None
            assert model_to_json(model) == doc
            assert [f.name for f in fields(model)] == [f.name for f in fields(type(model))]

    def test_stack_above_full_scale_is_refused(self):
        """A stack holds 16-bit intensities, so its features lie in the
        cube that the screen's bound and the label tables cover; an ADC
        map, a Band, has no ceiling."""
        assert stack_of(np.full((3, 5, 5), FULL_SCALE)).planes.max() == 1.0
        data = np.full((3, 5, 5), float(FULL_SCALE))
        data[1, 2, 3] = np.nextafter(FULL_SCALE, np.inf)
        with pytest.raises(ValidationError, match="^stack contains intensities above 65535$"):
            stack_of(data)
        assert Band(data[1]).data.max() > FULL_SCALE

    def test_interval_bound_follows_its_derivation(self):
        # Every hidden unit has feature weights (1, 2, -3) and bias -1, so
        # R_j = 6 and S_j = 7. Output rows are 1, -1 and 0 on every unit,
        # and row 2 has bias 0.5. Over coarse box (1, 2, 0), of centre
        # (3/8, 5/8, 1/8) and half-width 1/8, a_j = 3/8 + 5/4 - 3/8 - 1 =
        # 1/4 and r * R_j = 3/4: lo = -1/2 and hi = 1. With d = wo_k - wo_l,
        # B_01 = 120 s(lo), B_02 = 60 s(lo) - 0.5, B_10 = -120 s(hi),
        # B_12 = -60 s(hi) - 0.5, B_20 = -60 s(hi) + 0.5, B_21 = 60 s(lo)
        # + 0.5. B_01 and B_02 exceed tau1 = 8u * (60 * (2 * 7 + 4) + 64 * 60):
        # the box is CSF.
        wh = np.tile([1.0, 2.0, -3.0, -1.0], (60, 1))
        wo = np.zeros((3, 61))
        wo[0, :60], wo[1, :60], wo[2, -1] = 1.0, -1.0, 0.5
        table = classifiers._mlp_table(MlpModel(wh, wo))
        assert table.tau == 8 * 2.0**-24 * (60 * 18 + 64 * 60)
        lo, hi = 1 / (1 + math.exp(0.5)), 1 / (1 + math.exp(-1.0))
        want = [120 * lo, 60 * lo - 0.5, -120 * hi, -60 * hi - 0.5, -60 * hi + 0.5, 60 * lo + 0.5]
        got = table.bounds(np.array([[3 / 8], [5 / 8], [1 / 8]]), 1 / 8)
        np.testing.assert_allclose(got[:, 0], want, rtol=1e-14)
        table.prove(np.array([[1], [2], [0]]))
        assert np.all(table.labels.reshape(64, 64, 64)[16:32, 32:48, :16] == int(ClassLabel.CSF))
        assert np.count_nonzero(table.labels) == 16**3

    def test_cells_are_floor_of_64x(self):
        edges = [0.0, np.nextafter(1 / 64, 0.0), 1 / 64, 0.5, np.nextafter(1.0, 0.0), 1.0]
        x = np.array([edges, edges[::-1], edges[1:] + edges[:1]])
        c = np.minimum(np.floor(64 * x), 63).astype(int)
        assert c[0].tolist() == [0, 0, 1, 32, 63, 63]
        want = (c[0] * 64 + c[1]) * 64 + c[2]
        np.testing.assert_array_equal(classifiers._LabelTable.cells(x), want)


class TestLabelTables:
    """The one label table (classifiers._LabelTable) for PO and KO models,
    beside the MLP's (TestFloat32Screen)."""

    @settings(max_examples=15)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["PO", "KO"]),
        scale=st.sampled_from([0.5, 2.0, 8.0, 32.0]),
    )
    def test_proven_cells_hold_the_float64_label(self, seed, kind, scale):
        rng = np.random.default_rng(seed)
        assert_proven_cells_hold(crossing_model(kind, rng, scale), rng)

    def test_po_bound_follows_its_derivation(self):
        # s_0 = x1^2, s_1 = x2 x3 and s_2 = 0.5 - x1 x3. Over coarse box
        # (1, 2, 0), lo = (1/4, 1/2, 0) and hi = (1/2, 3/4, 1/4), so with
        # d = w_k - w_l: B_01 = lo1^2 - hi2 hi3 = 1/16 - 3/16, B_02 = lo1^2 +
        # lo1 lo3 - 0.5, B_10 = lo2 lo3 - hi1^2, B_12 = lo2 lo3 + lo1 lo3 -
        # 0.5, B_20 = 0.5 - hi1 hi3 - hi1^2 = 1/8, B_21 = 0.5 - hi1 hi3 - hi2
        # hi3 = 3/16. Every term is exact. B_20 and B_21 exceed tau = 2^-46 *
        # 1.5: the box is BACKGROUND.
        w = np.zeros((3, 10))
        w[0, 4], w[1, 9], w[2, 0], w[2, 8] = 1.0, 1.0, 0.5, -1.0
        table = classifiers._poly_table(PolyModel(w))
        assert table.tau == 2.0**-46 * 1.5
        want = [-1 / 8, 1 / 16 - 0.5, -1 / 4, -0.5, 1 / 8, 3 / 16]
        got = table.bounds(np.array([[3 / 8], [5 / 8], [1 / 8]]), 1 / 8)
        assert got[:, 0].tolist() == want
        table.prove(np.array([[1], [2], [0]]))
        cube = table.labels.reshape(64, 64, 64)
        assert np.all(cube[16:32, 32:48, :16] == int(ClassLabel.BACKGROUND))
        assert np.count_nonzero(table.labels) == 16**3

    def test_ko_bound_follows_its_derivation(self):
        # Neurons (0, 0, 0), (1, 0, 0) and (0, 1, 0). Over coarse box
        # (0, 3, 0), of centre c = (1/8, 7/8, 1/8) and half-width 1/8,
        # B_kl = a . c + b - sum |a_i| / 8 with a = 2 (w_k - w_l) and b =
        # |w_l|^2 - |w_k|^2: B_01 = -1/4 + 1 - 1/4, B_02 = -7/4 + 1 - 1/4,
        # B_10 = 1/4 - 1 - 1/4, B_12 = 1/4 - 7/4 - 1/2, B_20 = 7/4 - 1 - 1/4,
        # B_21 = -1/4 + 7/4 - 1/2. D = (3, 6, 6), so tau = 2^-46 * 6. B_20
        # and B_21 exceed it: the box is neuron 2's, whose class is MATTER.
        neurons = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        table = classifiers._som_table(SomModel(neurons, class_of_neuron=(3, 1, 2)))
        assert table.tau == 2.0**-46 * 6
        got = table.bounds(np.array([[1 / 8], [7 / 8], [1 / 8]]), 1 / 8)
        assert got[:, 0].tolist() == [0.5, -1.0, -1.0, -2.0, 0.5, 1.0]
        table.prove(np.array([[0], [3], [0]]))
        cube = table.labels.reshape(64, 64, 64)
        assert np.all(cube[:16, 48:, :16] == int(ClassLabel.MATTER))
        assert np.count_nonzero(table.labels) == 16**3
        # Random neurons, at scales from 2^-4 to 2^30, and random boxes of
        # the grids of 4 to 64 boxes per band: the degree-2 bound is the
        # exact linear minimum to within 4 ulps of D_k + D_l.
        rng = np.random.default_rng(14)
        k, l = classifiers._PAIRS
        for scale in 2.0 ** np.arange(-4, 31, 2):
            for grid in (4, 16, 64):
                neurons = rng.uniform(-scale, scale, (3, 3))
                table = classifiers._som_table(SomModel(neurons, class_of_neuron=(1, 2, 3)))
                centres, half = (rng.integers(0, grid, (3, 8)) + 0.5) / grid, 0.5 / grid
                a = 2.0 * (neurons[k] - neurons[l])
                sq = np.square(neurons).sum(axis=1)
                b = (sq[l] - sq[k])[:, None]
                exact = a @ centres + b - half * np.abs(a).sum(axis=1)[:, None]
                d = np.square(1.0 + np.abs(neurons)).sum(axis=1)
                slack = 2.0**-50 * (d[k] + d[l])[:, None]
                assert np.all(np.abs(table.bounds(centres, half) - exact) <= slack)

    def test_two_neurons_of_one_class(self):
        # Neurons 0 and 2 are both CSF. The cells nearest either one are
        # proven CSF; the cells the boundary between them crosses are not,
        # but their pixels still take CSF from the float64 pass.
        neurons = np.array([[0.2, 0.2, 0.2], [0.5, 0.8, 0.5], [0.8, 0.2, 0.8]])
        model = SomModel(neurons, class_of_neuron=(1, 3, 1))
        labels = assert_proven_cells_hold(model, np.random.default_rng(9))
        centre = (np.array(np.meshgrid(*[np.arange(64)] * 3, indexing="ij")) + 0.5) / 64
        nearest = _first_best(
            classifiers._som_distances(neurons, centre.reshape(3, -1)), largest=False
        ).reshape(64, 64, 64)
        assert np.all(labels[nearest == 1] != int(ClassLabel.CSF))
        for j in (0, 2):
            assert np.count_nonzero(labels[nearest == j] == int(ClassLabel.CSF)) > 10_000
        rng = np.random.default_rng(10)
        image = stack_of(FULL_SCALE * rng.uniform(0.0, 1.0, (3, 50, 50)))
        for _ in range(2):
            got = classify(model, image).labels.ravel()
            np.testing.assert_array_equal(got, reference_som_labels(model, pixel_features(image)))

    def test_coincident_neurons_prove_no_cell_between_them(self):
        # Neurons 0 and 1 coincide: their bound against each other is 0,
        # so no cell nearest them is proven, and their pixels take neuron
        # 0's class, the lower index, through the float64 pass.
        neurons = np.array([[0.3, 0.3, 0.3], [0.3, 0.3, 0.3], [0.8, 0.8, 0.8]])
        model = SomModel(neurons, class_of_neuron=(2, 1, 3))
        labels = assert_proven_cells_hold(model, np.random.default_rng(11))
        assert set(np.unique(labels)) == {int(ClassLabel.BACKGROUND), classifiers._UNDECIDED}
        rng = np.random.default_rng(12)
        image = stack_of(FULL_SCALE * rng.uniform(0.1, 0.4, (3, 50, 50)))
        for _ in range(2):
            assert np.all(classify(model, image).labels == int(ClassLabel.MATTER))

    @pytest.mark.parametrize(
        "model",
        [
            PolyModel(np.full((3, 10), 1e308)),
            SomModel(np.full((3, 3), 1e200), class_of_neuron=(1, 2, 3)),
        ],
        ids=["PO", "KO"],
    )
    def test_out_of_range_model_makes_no_table(self, model):
        rng = np.random.default_rng(13)
        image = stack_of(FULL_SCALE * rng.uniform(0.5, 1.0, (3, 50, 50)))
        for _ in range(3):
            with pytest.raises(NumericalError, match="non-finite"):
                classify(model, image)
        assert model.__dict__["label_table"] is None

    @pytest.mark.parametrize("weight", [2.0**61, 2.0**-61], ids=["above", "below"])
    def test_po_weights_out_of_range_make_no_table(self, weight):
        w = np.zeros((3, 10))
        w[2, 0], w[1, 5] = 1.0, weight
        assert classifiers._poly_table(PolyModel(w)) is None

    def test_ko_neuron_above_range_makes_no_table(self):
        neurons = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0**61, 0.0, 0.0]])
        som_table = classifiers._som_table
        assert som_table(SomModel(neurons.copy(), class_of_neuron=(1, 2, 3))) is None
        neurons[2, 0] = 2.0**-1074  # no bottom to the KO range
        assert som_table(SomModel(neurons, class_of_neuron=(1, 2, 3))) is not None

    def test_stack_cells_are_built_once_and_shared(self, noisy_slice, monkeypatch):
        cfg, models, stack = noisy_slice
        fresh = SpectralStack(stack.data, stack.b_values)
        built = []
        cells = classifiers._LabelTable.cells

        def counted(x):
            built.append(x.shape)
            return cells(x)

        monkeypatch.setattr(classifiers._LabelTable, "cells", staticmethod(counted))
        trained = [models[name][1] for name in ("PO", "MLP", "KO")]
        for model in trained:
            model.__dict__.pop("_classified", None)
            classify(model, stack)  # each model's first call
        for model in trained:
            np.testing.assert_array_equal(
                classify(model, fresh).labels.ravel(), exact_labels(model, fresh.planes)
            )
        assert built == [fresh.planes.shape]
        shared = fresh.__dict__["_cells"]
        np.testing.assert_array_equal(shared, cells(fresh.planes))
        assert not shared.flags.writeable


class TestKoAdc:
    def test_scalar_clusters_labeled_correctly(self):
        vals = np.concatenate(
            [np.full(300, 0.0), np.full(100, 8e-4), np.full(50, 3e-3)]
        )
        labels = np.concatenate([np.full(300, 3), np.full(100, 2), np.full(50, 1)])
        samples = SampleSet(vals.reshape(-1, 1), labels)
        model = train_ko_adc(samples, SomConfig(seed=4, max_iters=500))
        order = np.argsort(model.neurons.ravel())
        got = [int(model.class_of_neuron[i]) for i in order]
        assert got == [3, 2, 1]

    def test_constant_adc_rejected(self):
        vals = np.full(100, 5e-4)
        samples = SampleSet(vals.reshape(-1, 1), np.full(100, 2))
        with pytest.raises(ValidationError, match="at least 3 distinct samples"):
            train_ko_adc(samples, SomConfig())

    def test_noiseless_phantom_exact_recovery(self, default_volume):
        stacks, truth = default_volume
        band = adc_map(stacks[13])
        samples = extract_band_samples(band, truth[13])
        model = train_ko_adc(samples, SomConfig(seed=1))
        for stack, lm in zip(stacks, truth):
            pred = classify(model, adc_map(stack))
            assert kappa(confusion(pred, lm)) == 1.0


class TestSerialization:
    def _round_trip(self, model):
        return model_from_json(model_to_json(model))

    def test_poly(self):
        m = PolyModel(np.arange(30.0).reshape(3, 10))
        r = self._round_trip(m)
        np.testing.assert_array_equal(r.weights, m.weights)

    def test_mlp(self):
        rng = np.random.default_rng(0)
        m = MlpModel(
            rng.random((60, 4)), rng.random((3, 61)), config=MlpConfig(seed=9),
            epochs_run=12,
        )
        r = self._round_trip(m)
        np.testing.assert_array_equal(r.hidden_weights, m.hidden_weights)
        assert r.config.seed == 9
        assert r.epochs_run == 12

    def test_som(self):
        m = SomModel(
            np.array([[0.1], [0.5], [0.9]]),
            class_of_neuron=(3, 2, 1),
        )
        r = self._round_trip(m)
        np.testing.assert_array_equal(r.neurons, m.neurons)
        assert r.class_of_neuron == (ClassLabel.BACKGROUND, ClassLabel.MATTER, ClassLabel.CSF)
