"""The four classification methods behind one train/classify contract:
degree-2 polynomial network, multilayer perceptron, multispectral Kohonen
SOM, and the monospectral SOM applied to the ADC map."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .core_image import (
    Band,
    ClassLabel,
    LabelMap,
    SampleSet,
    SpectralStack,
    nonnegative_int,
    read_json,
)
from .errors import NumericalError, ValidationError

N_CLASSES = 3
MLP_HIDDEN = 60
SOM_NEURONS = 3

# Fraction of SOM iterations during which the chain neighborhood has radius
# 1 (neighbors updated at half strength); afterwards pure winner-take-all.
SOM_NEIGHBOR_PHASE = 0.25
SOM_NEIGHBOR_WEIGHT = 0.5


def expand_quadratic(x: np.ndarray) -> np.ndarray:
    """Degree-2 monomials of a 3-vector (or rows of an (n, 3) matrix), in
    the fixed order [1, x1, x2, x3, x1^2, x2^2, x3^2, x1x2, x1x3, x2x3]."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != 3:
        raise ValidationError(
            f"quadratic expansion expects 3 features, got {arr.shape[1]}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("quadratic expansion requires finite input")
    x1, x2, x3 = arr[:, 0], arr[:, 1], arr[:, 2]
    out = np.empty((arr.shape[0], 10))
    out[:, 0] = 1.0
    out[:, 1:4] = arr
    np.multiply(arr, arr, out=out[:, 4:7])
    np.multiply(x1, x2, out=out[:, 7])
    np.multiply(x1, x3, out=out[:, 8])
    np.multiply(x2, x3, out=out[:, 9])
    return out[0] if single else out


def _one_hot(labels: np.ndarray, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    t = np.full((labels.shape[0], N_CLASSES), low)
    t[np.arange(labels.shape[0]), labels - 1] = high
    return t


# ---------------------------------------------------------------------------
# Degree-2 polynomial network (hyperquadric discriminants)

@dataclass(frozen=True)
class PolyModel:
    """3x10 weight matrix mapping quadratic features to class scores."""

    weights: np.ndarray
    feature_dim = 3  # expand_quadratic takes exactly 3 features

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (N_CLASSES, 10):
            raise ValidationError(f"polynomial weights must be 3x10, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("polynomial weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def scores(self, features: np.ndarray) -> np.ndarray:
        return expand_quadratic(features) @ self.weights.T


def train_polynomial(samples: SampleSet) -> PolyModel:
    """Ridge-regularized least-squares fit of one-hot targets against the
    quadratic feature expansion; fully deterministic."""
    if len(samples) < 10:
        raise ValidationError(f"need at least 10 samples, got {len(samples)}")
    if np.unique(samples.labels).size < 2:
        raise ValidationError("training set must span at least 2 classes")
    if samples.feature_dim != 3:
        raise ValidationError(
            f"polynomial net expects 3 features, got {samples.feature_dim}"
        )
    phi = expand_quadratic(samples.features)
    targets = _one_hot(samples.labels)
    gram = phi.T @ phi
    lam = 1e-8 * np.trace(gram) / gram.shape[0]
    try:
        weights = np.linalg.solve(
            gram + lam * np.eye(gram.shape[0]), phi.T @ targets
        ).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal equations unsolvable: {exc}") from exc
    if not np.all(np.isfinite(weights)):
        raise NumericalError("polynomial fit produced non-finite weights")
    return PolyModel(weights)


# ---------------------------------------------------------------------------
# Multilayer perceptron, 3-60-3, logistic sigmoid, online backpropagation

@dataclass(frozen=True)
class MlpConfig:
    eta0: float = 0.2
    target_error: float = 0.05
    max_epochs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.eta0 <= 0:
            raise ValidationError(f"eta0 must be > 0, got {self.eta0}")
        if not 0 < self.target_error < 1:
            raise ValidationError(
                f"target error must lie in (0, 1), got {self.target_error}"
            )
        if self.max_epochs < 1:
            raise ValidationError(f"max_epochs must be >= 1, got {self.max_epochs}")
        nonnegative_int(self.seed, "seed")


@dataclass(frozen=True)
class MlpModel:
    """hidden_weights (60, 4) and output_weights (3, 61); the last column of
    each layer is its bias."""

    hidden_weights: np.ndarray
    output_weights: np.ndarray
    epochs_run: int = 0
    config: MlpConfig = field(default_factory=MlpConfig)

    def __post_init__(self):
        wh = np.asarray(self.hidden_weights, dtype=np.float64)
        wo = np.asarray(self.output_weights, dtype=np.float64)
        if wh.shape != (MLP_HIDDEN, 4):
            raise ValidationError(f"hidden weights must be 60x4, got {wh.shape}")
        if wo.shape != (N_CLASSES, MLP_HIDDEN + 1):
            raise ValidationError(f"output weights must be 3x61, got {wo.shape}")
        if not (np.all(np.isfinite(wh)) and np.all(np.isfinite(wo))):
            raise ValidationError("MLP weights must be finite")
        wh.setflags(write=False)
        wo.setflags(write=False)
        object.__setattr__(self, "hidden_weights", wh)
        object.__setattr__(self, "output_weights", wo)

    @property
    def feature_dim(self) -> int:
        return self.hidden_weights.shape[1] - 1

    def scores(self, features: np.ndarray) -> np.ndarray:
        return mlp_forward(self.hidden_weights, self.output_weights, features)


def _sigmoid_of_negated(a: np.ndarray) -> np.ndarray:
    """Overwrite ``a``, which holds -x, with 1 / (1 + exp(-x)). A value of
    x far below zero overflows exp, and its sigmoid is exactly 0."""
    np.exp(a, out=a)
    a += 1.0
    return np.reciprocal(a, out=a)


def _sigmoid(x, out=None) -> np.ndarray:
    """1 / (1 + exp(-x)), bit for bit, computed in ``out`` if given."""
    return _sigmoid_of_negated(np.negative(x, out=out))


def _mlp_pass(wh: np.ndarray, wo: np.ndarray, rows: int):
    """The forward pass for batches of up to ``rows`` feature rows.

    Returns ``forward(x)``, which gives views of the biased input, the biased
    hidden layer and the (n, 3) output pre-activations. Every call reuses
    the buffers allocated here, so a view is valid until the next call.
    Each buffer a ufunc or matmul writes is C-contiguous: a strided output
    falls off numpy's SIMD loops.
    """
    neg_wh_t = (-wh).T  # xb @ (-wh).T is bitwise -(xb @ wh.T)
    wo_t = np.ascontiguousarray(wo.T)
    xb = np.ones((rows, wh.shape[1]))
    h = np.empty((rows, MLP_HIDDEN))
    hb = np.ones((rows, MLP_HIDDEN + 1))
    z = np.empty((rows, N_CLASSES))

    def forward(x: np.ndarray):
        n = x.shape[0]
        xb[:n, :-1] = x
        np.matmul(xb[:n], neg_wh_t, out=h[:n])
        hb[:n, :MLP_HIDDEN] = _sigmoid_of_negated(h[:n])
        np.matmul(hb[:n], wo_t, out=z[:n])
        return xb[:n], hb[:n], z[:n]

    return forward


def _mlp_layers(wh: np.ndarray, wo: np.ndarray, features: np.ndarray):
    """Batch forward pass; returns the input and the hidden layer, each with
    a trailing bias column of ones, and the (n, 3) sigmoid outputs."""
    x = np.asarray(features, dtype=np.float64)
    xb, hb, z = _mlp_pass(wh, wo, x.shape[0])(x)
    return xb, hb, _sigmoid(z, out=z)


def mlp_forward(wh: np.ndarray, wo: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Batch forward pass; returns (n, 3) sigmoid outputs."""
    return _mlp_layers(wh, wo, features)[2]


def mlp_loss_and_gradients(
    wh: np.ndarray, wo: np.ndarray, features: np.ndarray, targets: np.ndarray
):
    """Summed squared-error loss 0.5*sum((y-t)^2) and its exact gradients.

    A batch reference for the finite-difference gradient check; train_mlp
    runs its own per-sample update loop.
    """
    xb, hb, y = _mlp_layers(wh, wo, features)
    h = hb[:, :MLP_HIDDEN]
    err = y - targets
    loss = 0.5 * float(np.sum(err * err))
    d_out = err * y * (1.0 - y)
    d_hid = (d_out @ wo[:, :MLP_HIDDEN]) * h * (1.0 - h)
    grad_wo = d_out.T @ hb
    grad_wh = d_hid.T @ xb
    return loss, grad_wh, grad_wo


def train_mlp(samples: SampleSet, cfg: MlpConfig) -> MlpModel:
    """Online backpropagation with per-epoch shuffling and linearly decaying
    learning rate; stops when the epoch mean-squared error reaches the
    configured target."""
    x = samples.features
    if samples.feature_dim != 3:
        raise ValidationError(f"MLP expects 3 features, got {samples.feature_dim}")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValidationError("MLP features must be scaled into [0, 1]")
    if np.unique(samples.labels).size < 2:
        raise ValidationError("training set must span at least 2 classes")
    targets = _one_hot(samples.labels, low=0.1, high=0.9)

    rng = np.random.default_rng(cfg.seed)
    wh = rng.uniform(-0.5, 0.5, size=(MLP_HIDDEN, 4))
    wo = rng.uniform(-0.5, 0.5, size=(N_CLASSES, MLP_HIDDEN + 1))

    n = x.shape[0]
    xb = np.hstack([x, np.ones((n, 1))])
    hb = np.ones(MLP_HIDDEN + 1)  # the hidden layer and its bias
    h = hb[:MLP_HIDDEN]
    step_wh = np.empty_like(wh)
    step_wo = np.empty_like(wo)
    epochs_run = cfg.max_epochs
    for epoch in range(cfg.max_epochs):
        eta = cfg.eta0 * (1.0 - epoch / cfg.max_epochs)
        order = rng.permutation(n)
        sq_err = 0.0
        for idx in order:
            xi = xb[idx]
            ti = targets[idx]
            _sigmoid(np.matmul(wh, xi, out=h), out=h)
            y = _sigmoid(wo @ hb)
            err = y - ti
            sq_err += float(err @ err)
            d_out = err * y * (1.0 - y)
            d_hid = (wo[:, :MLP_HIDDEN].T @ d_out) * h * (1.0 - h)
            # wo -= eta * outer(d_out, hb), and the same for wh, in place
            np.multiply.outer(d_out, hb, out=step_wo)
            step_wo *= eta
            wo -= step_wo
            np.multiply.outer(d_hid, xi, out=step_wh)
            step_wh *= eta
            wh -= step_wh
        mse = sq_err / (n * N_CLASSES)
        if not np.isfinite(mse):
            raise NumericalError(f"MLP diverged at epoch {epoch}")
        if mse <= cfg.target_error:
            epochs_run = epoch + 1
            break
    return MlpModel(wh, wo, config=cfg, epochs_run=epochs_run)


# ---------------------------------------------------------------------------
# Kohonen self-organizing map, 1-D chain of 3 neurons

@dataclass(frozen=True)
class SomConfig:
    eta0: float = 0.1
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.eta0 <= 0:
            raise ValidationError(f"eta0 must be > 0, got {self.eta0}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        nonnegative_int(self.seed, "seed")


@dataclass(frozen=True)
class SomModel:
    """Three weight vectors plus, after labeling, their class assignment."""

    neurons: np.ndarray
    class_of_neuron: tuple | None = None
    config: SomConfig = field(default_factory=SomConfig)

    def __post_init__(self):
        w = np.asarray(self.neurons, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != SOM_NEURONS:
            raise ValidationError(f"SOM needs exactly 3 neurons, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("SOM neurons must be finite")
        if self.class_of_neuron is not None:
            labels = tuple(ClassLabel(c) for c in self.class_of_neuron)
            if len(labels) != SOM_NEURONS:
                raise ValidationError("class_of_neuron must cover all 3 neurons")
            object.__setattr__(self, "class_of_neuron", labels)
        w.setflags(write=False)
        object.__setattr__(self, "neurons", w)

    @property
    def feature_dim(self) -> int:
        return self.neurons.shape[1]

    def winners(self, features: np.ndarray) -> np.ndarray:
        """Index of the nearest neuron for each feature row."""
        x = np.asarray(features, dtype=np.float64)
        # One feature at a time, summed in feature order: the same sums as
        # reducing an (n, 3, d) difference array, without building it.
        d2 = (x[:, 0, None] - self.neurons[:, 0]) ** 2
        for j in range(1, x.shape[1]):
            d2 += (x[:, j, None] - self.neurons[:, j]) ** 2
        return np.argmin(d2, axis=1)


def train_som(samples: SampleSet, cfg: SomConfig) -> SomModel:
    """Competitive training on a 3-neuron chain; labels in ``samples`` are
    ignored. Neurons start at 3 distinct seeded training samples; updates
    are winner-take-all with a radius-1 neighborhood during the early
    fraction of iterations and a linearly decaying learning rate."""
    x = samples.features
    n = x.shape[0]
    if n < SOM_NEURONS:
        raise ValidationError(f"need at least 3 samples, got {n}")
    if np.unique(x, axis=0).shape[0] < SOM_NEURONS:
        raise ValidationError("need at least 3 distinct samples")

    rng = np.random.default_rng(cfg.seed)
    neurons = []
    for idx in rng.permutation(n):
        cand = x[idx]
        if all(not np.array_equal(cand, w) for w in neurons):
            neurons.append(cand.copy())
        if len(neurons) == SOM_NEURONS:
            break
    w = np.stack(neurons)

    neighbor_cutoff = int(SOM_NEIGHBOR_PHASE * cfg.max_iters)
    for t in range(cfg.max_iters):
        xi = x[rng.integers(n)]
        eta = cfg.eta0 * (1.0 - t / cfg.max_iters)
        win = int(np.argmin(((w - xi) ** 2).sum(axis=1)))
        w[win] += eta * (xi - w[win])
        if t < neighbor_cutoff:
            for j in (win - 1, win + 1):
                if 0 <= j < SOM_NEURONS:
                    w[j] += eta * SOM_NEIGHBOR_WEIGHT * (xi - w[j])
    return SomModel(w, config=cfg)


def label_som(model: SomModel, samples: SampleSet) -> SomModel:
    """Label each neuron by majority vote over the samples it wins; ties go
    to the lower class integer."""
    if samples.feature_dim != model.feature_dim:
        raise ValidationError(
            f"samples have {samples.feature_dim} features, "
            f"model expects {model.feature_dim}"
        )
    winners = model.winners(samples.features)
    assignment = []
    for j in range(SOM_NEURONS):
        won = samples.labels[winners == j]
        if won.size == 0:
            raise NumericalError(f"neuron {j} wins no samples; cannot label it")
        counts = np.bincount(won, minlength=len(ClassLabel) + 1)
        assignment.append(ClassLabel(int(np.argmax(counts))))
    return SomModel(model.neurons, class_of_neuron=tuple(assignment), config=model.config)


def train_ko_adc(truth_samples: SampleSet, cfg: SomConfig) -> SomModel:
    """Monospectral SOM over scalar diffusion values: unsupervised training
    followed by majority-vote labeling."""
    if truth_samples.feature_dim != 1:
        raise ValidationError(
            f"ADC samples must be scalar, got dim {truth_samples.feature_dim}"
        )
    model = train_som(truth_samples, cfg)
    return label_som(model, truth_samples)


# ---------------------------------------------------------------------------
# Shared classification entry point

Model = PolyModel | MlpModel | SomModel


def _input_features(model: Model, image: SpectralStack | Band) -> np.ndarray:
    """Stack bands scaled into [0, 1]; an ADC map's values as they are."""
    if isinstance(image, SpectralStack):
        feats = image.pixel_features()
    else:
        feats = image.data.reshape(-1, 1)
    if feats.shape[1] != model.feature_dim:
        raise ValidationError(
            f"model expects {model.feature_dim} features, "
            f"input provides {feats.shape[1]}"
        )
    return feats


# Pixels per block in classify, so that every temporary of a block stays in
# cache. A power of two, hence a whole number of BLAS row tiles: with
# 1000-row blocks the MLP scores differed in their last bits (not in their
# argmax) from scoring the whole slice at once.
_BLOCK_ROWS = 1024


def classify(model: Model, image: SpectralStack | Band) -> LabelMap:
    """Per-pixel class decision: argmax of class scores for the polynomial
    and MLP models, nearest-neuron label for the SOM. Score ties break
    toward the lower class integer. The MLP's scores here are its output
    pre-activations: the sigmoid is monotone, but two outputs that both
    round to 1.0 still differ before it, and the larger one wins.

    Non-finite polynomial scores or MLP pre-activations raise
    NumericalError naming the model kind."""
    feats = _input_features(model, image)
    if isinstance(model, SomModel):
        if model.class_of_neuron is None:
            raise ValidationError("SOM model must be labeled before classification")
        lut = np.array([int(c) for c in model.class_of_neuron])

        def decide(x):
            return lut[model.winners(x)]
    else:
        if isinstance(model, MlpModel):
            forward = _mlp_pass(model.hidden_weights, model.output_weights, _BLOCK_ROWS)

            def scores(x):
                return forward(x)[2]
        else:
            scores = model.scores

        def decide(x):
            # Overflow is expected where a hidden unit saturates (its
            # sigmoid is then exactly 0); only non-finite scores are errors.
            with np.errstate(over="ignore", invalid="ignore"):
                s = scores(x)
            if not np.isfinite(s).all():
                raise NumericalError(f"{_model_kind(model)} model gave non-finite scores")
            return np.argmax(s, axis=1) + 1

    labels = np.empty(feats.shape[0], dtype=np.int64)
    for start in range(0, feats.shape[0], _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        labels[block] = decide(feats[block])
    return LabelMap(image.width, image.height, labels.reshape(image.height, image.width))


# ---------------------------------------------------------------------------
# Model serialization (JSON)

# A model file holds the kind, then every field of the model's dataclass in
# declaration order; a nested config is written as its own fields.
MODEL_KINDS = {
    "po": (PolyModel, None),
    "mlp": (MlpModel, MlpConfig),
    "som": (SomModel, SomConfig),
}


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return asdict(value) if is_dataclass(value) else value


def _model_kind(model: Model) -> str:
    return next(k for k, (cls, _) in MODEL_KINDS.items() if isinstance(model, cls))


def model_to_json(model: Model) -> dict:
    doc = {"kind": _model_kind(model)}
    doc.update((f.name, _plain(getattr(model, f.name))) for f in fields(model))
    return doc


def model_from_json(doc: dict) -> Model:
    """Inverse of model_to_json. Every field is required except
    ``epochs_run``; other keys, such as the scaling flag that older model
    files carry, are ignored."""
    kind = doc["kind"]
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cls, config_cls = MODEL_KINDS[kind]
    names = [f.name for f in fields(cls) if f.name != "epochs_run" or f.name in doc]
    kwargs = {name: doc[name] for name in names}
    if config_cls is not None:
        kwargs["config"] = config_cls(**kwargs["config"])
    return cls(**kwargs)


def save_model(model: Model, path) -> None:
    Path(path).write_text(json.dumps(model_to_json(model), indent=2) + "\n")


def load_model(path) -> Model:
    """Read a model JSON file; a malformed document, or one with a missing
    or ill-typed key, raises FormatError naming the file."""
    return read_json(path, model_from_json)
