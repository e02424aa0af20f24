import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dwspectral.adc import adc_map
from dwspectral.classifiers import (
    _BLOCK_ROWS,
    MlpConfig,
    MlpModel,
    PolyModel,
    SomConfig,
    SomModel,
    _mlp_pass,
    _sigmoid,
    classify,
    expand_quadratic,
    label_som,
    mlp_forward,
    mlp_loss_and_gradients,
    model_from_json,
    model_to_json,
    train_ko_adc,
    train_mlp,
    train_polynomial,
    train_som,
)
from dwspectral.core_image import (
    ClassLabel,
    LabelMap,
    SampleSet,
    extract_band_samples,
    extract_samples,
)
from dwspectral.errors import NumericalError, ValidationError
from dwspectral.harness import ExperimentConfig, train_models
from dwspectral.metrics import confusion, kappa
from dwspectral.physics import add_noise_to_stack, default_phantom_spec, render_phantom


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


class TestExpandQuadratic:
    def test_zero_input(self):
        assert expand_quadratic(np.zeros(3)).tolist() == [1] + [0] * 9

    def test_all_ones(self):
        assert expand_quadratic(np.ones(3)).tolist() == [1] * 10

    def test_hand_expansion(self):
        out = expand_quadratic(np.array([1.0, 2.0, 3.0]))
        assert out.tolist() == [1, 1, 2, 3, 1, 4, 9, 2, 3, 6]

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValidationError, match="expects 3 features, got 4"):
            expand_quadratic(np.zeros(4))

    def test_matches_stacked_expansion(self):
        x = np.random.default_rng(0).normal(scale=10.0, size=(500, 3))
        x1, x2, x3 = x.T
        stacked = np.stack(
            [np.ones_like(x1), x1, x2, x3, x1 * x1, x2 * x2, x3 * x3,
             x1 * x2, x1 * x3, x2 * x3],
            axis=1,
        )
        assert expand_quadratic(x).tobytes() == stacked.tobytes()
        assert expand_quadratic(x[7]).tobytes() == stacked[7].tobytes()

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValidationError, match="requires finite input"):
            expand_quadratic(np.array([[0.1, np.nan, 0.2]]))


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
        pred = np.argmax(model.scores(samples.features), axis=1) + 1

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
        da = np.argmax(a.scores(samples.features), axis=1)
        db = np.argmax(b.scores(samples.features), axis=1)
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


class TestHyperquadricSeparability:
    def test_annulus_poly_vs_best_linear(self):
        samples = annulus_dataset()
        model = train_polynomial(samples)
        pred = np.argmax(model.scores(samples.features), axis=1) + 1
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
        pred = np.argmax(model.scores(samples.features), axis=1) + 1
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
        rng = np.random.default_rng(42)
        wh = rng.uniform(-0.5, 0.5, (60, 4))
        wo = rng.uniform(-0.5, 0.5, (3, 61))
        x = rng.random((20, 3))
        t = np.full((20, 3), 0.1)
        t[np.arange(20), rng.integers(0, 3, 20)] = 0.9

        _, grad_wh, grad_wo = mlp_loss_and_gradients(wh, wo, x, t)
        step = 1e-5
        for mat, grad in ((wh, grad_wh), (wo, grad_wo)):
            flat_idx = rng.choice(mat.size, size=20, replace=False)
            for fi in flat_idx:
                i, j = np.unravel_index(fi, mat.shape)
                orig = mat[i, j]
                mat[i, j] = orig + step
                lp, _, _ = mlp_loss_and_gradients(wh, wo, x, t)
                mat[i, j] = orig - step
                lm, _, _ = mlp_loss_and_gradients(wh, wo, x, t)
                mat[i, j] = orig
                fd = (lp - lm) / (2 * step)
                denom = max(abs(fd), abs(grad[i, j]), 1e-12)
                assert abs(fd - grad[i, j]) / denom <= 1e-4


def reference_sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


class TestMlpForwardPass:
    """The buffered forward pass against the textbook formulas, bit for bit."""

    def test_sigmoid_matches_formula(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 20_001), [-745.5, 709.9, -0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                got = _sigmoid(x)
        assert got.tobytes() == reference_sigmoid(x).tobytes()
        assert got[0] == 0.0 and got[-4] == 1.0

    def test_sigmoid_in_place(self):
        x = np.linspace(-30.0, 30.0, 101)
        want = reference_sigmoid(x)
        assert _sigmoid(x, out=x) is x
        assert x.tobytes() == want.tobytes()

    def test_negated_weights_identity(self):
        rng = np.random.default_rng(5)
        xb = np.hstack([rng.random((1500, 3)), np.ones((1500, 1))])
        wh = rng.uniform(-5.0, 5.0, (60, 4))
        assert (xb @ (-wh).T).tobytes() == (-(xb @ wh.T)).tobytes()

    def test_layers_match_reference(self):
        rng = np.random.default_rng(6)
        wh = rng.uniform(-5.0, 5.0, (60, 4))
        wo = rng.uniform(-5.0, 5.0, (3, 61))
        forward = _mlp_pass(wh, wo, 1024)
        # A full batch, then a partial one that must not see its rows.
        for n in (1024, 333):
            x = rng.random((n, 3))
            xb, hb, z = forward(x)
            want_xb = np.hstack([x, np.ones((n, 1))])
            want_h = reference_sigmoid(want_xb @ wh.T)
            assert xb.tobytes() == want_xb.tobytes()
            assert hb[:, :60].tobytes() == want_h.tobytes()
            assert np.all(hb[:, 60] == 1.0)
            np.testing.assert_allclose(z, hb @ wo.T, rtol=1e-13, atol=1e-13)
            assert mlp_forward(wh, wo, x).tobytes() == reference_sigmoid(z).tobytes()

    def test_saturated_tie_goes_to_larger_preactivation(self, small_volume):
        # Every hidden unit is 0.5, so the output pre-activations are the
        # biases: 100 and 200 both give a sigmoid of exactly 1.0.
        wo = np.zeros((3, 61))
        wo[:, -1] = [100.0, 200.0, -5.0]
        model = MlpModel(np.zeros((60, 4)), wo)
        y = model.scores(np.full((1, 3), 0.5))
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
        from dwspectral.core_image import Band as B, SpectralStack as S

        permuted = S(
            tuple(
                B(
                    b.width,
                    b.height,
                    b.data.ravel()[perm].reshape(b.height, b.width),
                    b.slice_index,
                )
                for b in stack.bands
            ),
            stack.b_values,
        )
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
        with pytest.raises(ValidationError, match="must be labeled"):
            classify(model, stacks[0])


def broadcast_winners(neurons, features):
    """Nearest neuron by one (n, 3, d) broadcast difference reduced over d."""
    d2 = ((features[:, None, :] - neurons[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


# Few distinct values, so that neurons repeat (tied distances) and features
# land on neurons; plus arbitrary finite values.
SOM_VALUES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, -2.0]), st.floats(-1e3, 1e3))


class TestSomWinners:
    @settings(max_examples=200)
    @given(d=st.sampled_from([1, 3]), data=st.data())
    def test_matches_broadcast_reference(self, d, data):
        neurons = data.draw(arrays(np.float64, (3, d), elements=SOM_VALUES))
        shape = st.tuples(st.integers(1, 40), st.just(d))
        x = data.draw(arrays(np.float64, shape, elements=SOM_VALUES))
        got = SomModel(neurons).winners(x)
        np.testing.assert_array_equal(got, broadcast_winners(neurons, x))

    @pytest.mark.parametrize("d", [1, 3])
    def test_duplicate_neurons_tie_to_lower_index(self, d):
        neurons = np.array([[0.5] * d, [0.2] * d, [0.2] * d])
        x = np.array([[0.2] * d, [0.1] * d, [0.9] * d])
        got = SomModel(neurons).winners(x)
        assert got.tolist() == [1, 1, 0]
        np.testing.assert_array_equal(got, broadcast_winners(neurons, x))


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


class TestBlockedClassify:
    @pytest.mark.parametrize("name", ["PO", "MLP", "KO", "KO-ADC"])
    def test_labels_equal_whole_image_decision(self, noisy_slice, name):
        cfg, models, stack = noisy_slice
        model = models[name][1]
        if name == "KO-ADC":
            image = adc_map(stack, cfg.adc)
            feats = image.data.reshape(-1, 1)
        else:
            image, feats = stack, stack.pixel_features()
        n = feats.shape[0]
        assert n > _BLOCK_ROWS and n % _BLOCK_ROWS
        got = classify(model, image).labels
        if isinstance(model, SomModel):
            lut = np.array([int(c) for c in model.class_of_neuron])
            want = lut[broadcast_winners(model.neurons, feats)]
        else:
            want = np.argmax(model.scores(feats), axis=1) + 1
        assert np.unique(want).size > 1
        assert got.shape == (image.height, image.width)
        np.testing.assert_array_equal(got.ravel(), want)


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
