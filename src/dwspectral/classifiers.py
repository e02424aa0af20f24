"""The four classification methods behind one train/classify contract:
degree-2 polynomial network, multilayer perceptron, multispectral Kohonen
SOM, and the monospectral SOM applied to the ADC map."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .core_image import (
    Band,
    ClassLabel,
    LabelMap,
    SampleSet,
    SpectralStack,
    check_keys,
    config_from_json,
    finite_number,
    read_json,
    whole_number,
)
from .errors import NumericalError, ValidationError

N_CLASSES = 3
MLP_HIDDEN = 60
SOM_NEURONS = 3

# Fraction of SOM iterations during which the chain neighborhood has radius
# 1 (neighbors updated at half strength); afterwards pure winner-take-all.
SOM_NEIGHBOR_PHASE = 0.25
SOM_NEIGHBOR_WEIGHT = 0.5


def _quadratic_planes(x: np.ndarray) -> np.ndarray:
    """The degree-2 monomials (10, n) of feature planes x (3, n), one row
    per monomial in the fixed order [1, x1, x2, x3, x1^2, x2^2, x3^2, x1x2,
    x1x3, x2x3]."""
    x1, x2, x3 = x
    out = np.empty((10, x.shape[1]))
    out[0] = 1.0
    out[1:4] = x
    np.multiply(x, x, out=out[4:7])
    np.multiply(x1, x2, out=out[7])
    np.multiply(x1, x3, out=out[8])
    np.multiply(x2, x3, out=out[9])
    return out


def _one_hot(labels: np.ndarray, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    t = np.full((labels.shape[0], N_CLASSES), low)
    t[np.arange(labels.shape[0]), labels - 1] = high
    return t


# The labels of the three score rows of a PO or MLP model, as classify
# writes them.
_CLASS_CODES = np.array([int(c) for c in ClassLabel], dtype=np.uint8)
_CLASS_CODES.setflags(write=False)

# Pixels per block in classify. A block's temporaries stay in cache: 65 rows
# per pixel for the MLP, at most 13 for PO or a SOM, whose larger blocks
# spread numpy's cost per call.
_MLP_BLOCK = 1024
_BLOCK = 8192


def _set_weights(model: Model, name: str, rows: int, cols: int | None) -> None:
    """Set ``model``'s field ``name`` to its value as a read-only float64
    array, cast without a copy, of ``rows`` rows of ``cols`` (where not
    None) finite numbers, or raise ValidationError. Nested lists, as JSON
    gives them, may hold what numpy reads as another number: true, "0.5"
    or 2^53 + 1."""
    value, what = getattr(model, name), f"{model.kind} {name}"
    w = np.asarray(value, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != rows or cols not in (None, w.shape[1]):
        raise ValidationError(f"{what} must be {rows}x{cols or 'd'}, got shape {w.shape}")
    if not w.shape[1]:
        raise ValidationError(f"{what} must hold at least one feature, got shape {w.shape}")
    types = set() if isinstance(value, np.ndarray) else {type(v) for row in value for v in row}
    exact = int not in types or w.ravel().tolist() == [v for row in value for v in row]
    if not (exact and types.isdisjoint({bool, str}) and np.isfinite(w).all()):
        raise ValidationError(f"{what} must be finite float64 numbers")
    w.setflags(write=False)
    object.__setattr__(model, name, w)


# ---------------------------------------------------------------------------
# Degree-2 polynomial network (hyperquadric discriminants)

@dataclass(frozen=True)
class PolyModel:
    """3x10 weight matrix mapping quadratic features to class scores."""

    weights: np.ndarray
    kind = "po"
    feature_dim = 3  # _quadratic_planes takes exactly 3 features
    classes = _CLASS_CODES
    nearest_wins = False
    block = _BLOCK
    screen = None
    label_table = cached_property(lambda self: _poly_table(self))

    def __post_init__(self):
        _set_weights(self, "weights", N_CLASSES, 10)

    def exact_pass(self, cols: int):
        """The float64 pass: class scores (3, n) of feature planes (3, n)."""
        return lambda x: self.weights @ _quadratic_planes(x)


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
    # The monomials as (n, 10) rows: BLAS rounds the products below
    # differently on other layouts.
    phi = np.ascontiguousarray(_quadratic_planes(samples.features.T).T)
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
        if finite_number(self.eta0, "eta0") <= 0:
            raise ValidationError(f"eta0 must be > 0, got {self.eta0}")
        if not 0 < finite_number(self.target_error, "target error") < 1:
            raise ValidationError(
                f"target error must lie in (0, 1), got {self.target_error}"
            )
        whole_number(self.max_epochs, "max_epochs", positive=True)
        whole_number(self.seed, "seed")


@dataclass(frozen=True)
class MlpModel:
    """hidden_weights (60, 4) and output_weights (3, 61); the last column of
    each layer is its bias."""

    hidden_weights: np.ndarray
    output_weights: np.ndarray
    epochs_run: int = 0
    config: MlpConfig = field(default_factory=MlpConfig)
    kind = "mlp"
    feature_dim = 3
    classes = _CLASS_CODES
    nearest_wins = False
    block = _MLP_BLOCK
    label_table = cached_property(lambda self: _mlp_table(self))

    def __post_init__(self):
        _set_weights(self, "hidden_weights", MLP_HIDDEN, 4)
        _set_weights(self, "output_weights", N_CLASSES, MLP_HIDDEN + 1)
        whole_number(self.epochs_run, "epochs_run")

    def exact_pass(self, cols: int):
        """The float64 pass for up to ``cols`` pixels (_layers): sigmoid
        hidden units, and the output pre-activations."""
        # (-wh) @ xb is bitwise -(wh @ xb)
        return _layers(-self.hidden_weights, self.output_weights, cols, _sigmoid_of_negated)[0]

    @cached_property
    def screen(self) -> tuple[float, np.ndarray, np.ndarray] | None:
        """The float32 screen (_screened_labels), made on first use and kept
        in the instance, outside its fields: _screen_bound's ``tau``, and
        the halved hidden weights and folded output weights rounded from
        float64; or None where _screen_bound gives no ``tau``.

        sigmoid(a) = 1/2 + tanh(a/2) / 2, so with hidden unit j in tanh
        form, t_j = tanh((wh_j / 2) . x), output k is sum_j (wo_kj / 2) *
        t_j + b'_k, where b'_k = b_k + sum_j wo_kj / 2, j over the 60 hidden
        units, rides on the hidden row of ones.
        """
        tau = _screen_bound(self)
        if tau is None:
            return None
        wh, wo = self.hidden_weights, self.output_weights
        folded = wo / 2.0
        folded[:, -1] = wo[:, -1] + folded[:, :-1].sum(axis=1)
        return tau, (wh / 2.0).astype(np.float32), folded.astype(np.float32)


def _sigmoid_of_negated(a: np.ndarray) -> np.ndarray:
    """Overwrite ``a``, which holds -x, with 1 / (1 + exp(-x)). A value of
    x far below zero overflows exp, and its sigmoid is exactly 0."""
    np.exp(a, out=a)
    a += 1.0
    return np.reciprocal(a, out=a)


def _layers(wh: np.ndarray, wo: np.ndarray, cols: int, activate):
    """A two-layer pass for feature planes (3, n) of up to ``cols`` pixels,
    whose hidden units are ``activate(wh @ xb)``, computed in place.

    Returns ``forward`` and its buffers for the input (4, cols) and the
    hidden layer (61, cols), each with a last row of ones. ``forward(x)``
    fills their first n columns and returns a view of the outputs ``wo @ hb``
    (3, n); every call reuses the buffers. Each row a ufunc or matmul writes
    is contiguous: a strided output falls off numpy's SIMD loops. The
    buffers take the weights' dtype, so float32 weights give a float32 pass.
    """
    xb = np.ones((wh.shape[1], cols), dtype=wh.dtype)
    hb = np.ones((MLP_HIDDEN + 1, cols), dtype=wh.dtype)
    z = np.empty((N_CLASSES, cols), dtype=wh.dtype)

    def forward(x: np.ndarray) -> np.ndarray:
        n = x.shape[1]
        xb[:-1, :n] = x
        activate(np.matmul(wh, xb[:, :n], out=hb[:MLP_HIDDEN, :n]))
        return np.matmul(wo, hb[:, :n], out=z[:, :n])

    return forward, xb, hb


# Training's flat weight buffer: -wh (60, 4), then -wo (3, 61).
_HIDDEN_SIZE = MLP_HIDDEN * 4
_WEIGHT_SIZE = _HIDDEN_SIZE + N_CLASSES * (MLP_HIDDEN + 1)


def _layer_views(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hidden (60, 4) and output (3, 61) views of a flat buffer laid
    out as training's weights."""
    hidden = flat[:_HIDDEN_SIZE].reshape(MLP_HIDDEN, 4)
    return hidden, flat[_HIDDEN_SIZE:].reshape(N_CLASSES, MLP_HIDDEN + 1)


def _step_rates(eta: float) -> np.ndarray:
    """The rates a backpropagation step scales its delta by: -eta for the
    hidden weights, whose delta it computes with its sign flipped, and eta
    for the output weights."""
    rates = np.full(_WEIGHT_SIZE, eta)
    rates[:_HIDDEN_SIZE] = -eta
    return rates


def _backprop(wh: np.ndarray, wo: np.ndarray):
    """Online backpropagation from weights wh (60, 4) and wo (3, 61), with
    every buffer made once, here, as _layers makes the forward passes'.

    Returns ``step``, the flat buffer ``w`` of the negated weights, -wh then
    -wo, and the flat buffer ``delta`` of w's size that ``step`` writes.
    ``step(xi, ti, rates)`` takes one step on sample ``xi`` (its features
    and a last 1) with targets ``ti`` and returns the squared error
    |y - t|^2 of its forward pass. It writes eta times the gradient of the
    sample's loss 0.5 * |y - t|^2 with respect to (wh, wo), flattened, into
    ``delta`` and adds it to ``w``, which subtracts it from (wh, wo).
    ``rates`` is _step_rates(eta). Negating is exact, so every rounding is
    that of the same step taken on (wh, wo).
    """
    w = np.empty(_WEIGHT_SIZE)
    nh, no = _layer_views(w)
    np.negative(wh, out=nh)
    np.negative(wo, out=no)
    no_hidden_t = no[:, :MLP_HIDDEN].T
    delta = np.empty_like(w)
    delta_h, delta_o = _layer_views(delta)
    # hy holds the hidden layer h, its bias 1 and the outputs y; om holds
    # 1 - hy. A ufunc call with an array operand costs less than one with
    # the scalar 1.0, hence the ones.
    hy = np.ones(MLP_HIDDEN + 1 + N_CLASSES)
    hb, h, y = hy[:MLP_HIDDEN + 1], hy[:MLP_HIDDEN], hy[MLP_HIDDEN + 1:]
    om, ones = np.empty_like(hy), np.ones_like(hy)
    omh, om_y = om[:MLP_HIDDEN], om[MLP_HIDDEN + 1:]
    ones_h, ones_y = ones[:MLP_HIDDEN], ones[MLP_HIDDEN + 1:]
    err, d_out, d_hid = np.empty(N_CLASSES), np.empty(N_CLASSES), np.empty(MLP_HIDDEN)
    d_out_col, d_hid_col = d_out[:, None], d_hid[:, None]
    # The step's numpy functions, each a closure variable, one attribute
    # lookup less than ``np.<name>``, and each called with its output
    # positional: a keyword ``out`` costs about 50 ns more per call.
    add, dot, exp, matmul = np.add, np.dot, np.exp, np.matmul
    multiply, reciprocal, subtract = np.multiply, np.reciprocal, np.subtract

    def step(xi: np.ndarray, ti: np.ndarray, rates: np.ndarray) -> float:
        # Each line is one numpy call into a buffer: the step's cost is
        # call overhead. (-wh) @ xi is bitwise -(wh @ xi), so
        # h = 1 / (1 + exp(-(wh @ xi))).
        dot(nh, xi, h)
        exp(h, h)
        add(h, ones_h, h)
        reciprocal(h, h)
        dot(no, hb, y)
        exp(y, y)
        add(y, ones_y, y)
        reciprocal(y, y)
        # 1 - h and 1 - y in one call
        subtract(ones, hy, om)
        subtract(y, ti, err)
        sq_err = float(err.dot(err))
        # d_out = (1 - y) * ((y - t) * y)
        multiply(err, y, err)
        multiply(om_y, err, d_out)
        # d_hid = -(wo^T d_out) * h * (1 - h), the hidden delta negated
        matmul(no_hidden_t, d_out, d_hid)
        multiply(d_hid, h, d_hid)
        multiply(d_hid, omh, d_hid)
        multiply(d_out_col, hb, delta_o)
        multiply(d_hid_col, xi, delta_h)
        multiply(delta, rates, delta)
        add(w, delta, w)
        return sq_err

    return step, w, delta


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
    step, w, _ = _backprop(
        rng.uniform(-0.5, 0.5, size=(MLP_HIDDEN, 4)),
        rng.uniform(-0.5, 0.5, size=(N_CLASSES, MLP_HIDDEN + 1)),
    )

    n = x.shape[0]
    # Each sample's features and a last 1, in one contiguous row: the
    # features of a stack's samples are a transposed view of its planes.
    xb = np.ones((n, 4))
    xb[:, :-1] = x
    epochs_run = cfg.max_epochs
    for epoch in range(cfg.max_epochs):
        rates = _step_rates(cfg.eta0 * (1.0 - epoch / cfg.max_epochs))
        order = rng.permutation(n)
        sq_err = 0.0
        for xi, ti in zip(xb[order], targets[order]):
            sq_err += step(xi, ti, rates)
        mse = sq_err / (n * N_CLASSES)
        if not np.isfinite(mse):
            raise NumericalError(f"MLP diverged at epoch {epoch}")
        if mse <= cfg.target_error:
            epochs_run = epoch + 1
            break
    # 0 - w, not -w: a weight that cancels to +0 is +0 unnegated too
    return MlpModel(*_layer_views(0.0 - w), config=cfg, epochs_run=epochs_run)


# ---------------------------------------------------------------------------
# Kohonen self-organizing map, 1-D chain of 3 neurons

@dataclass(frozen=True)
class SomConfig:
    eta0: float = 0.1
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if finite_number(self.eta0, "eta0") <= 0:
            raise ValidationError(f"eta0 must be > 0, got {self.eta0}")
        whole_number(self.max_iters, "max_iters", positive=True)
        whole_number(self.seed, "seed")


@dataclass(frozen=True)
class SomModel:
    """Three weight vectors plus, after labeling, their class assignment."""

    neurons: np.ndarray
    class_of_neuron: tuple | None = None
    config: SomConfig = field(default_factory=SomConfig)
    kind = "som"
    nearest_wins = True
    block = _BLOCK
    screen = None
    label_table = cached_property(lambda self: _som_table(self))

    def __post_init__(self):
        _set_weights(self, "neurons", SOM_NEURONS, None)
        codes = self.class_of_neuron
        if codes is not None:
            # A string or an object would iterate as characters or keys.
            if not (isinstance(codes, (list, tuple)) and len(codes) == SOM_NEURONS):
                raise ValidationError(f"class_of_neuron must be a list of 3 codes, got {codes!r}")
            object.__setattr__(self, "class_of_neuron", tuple(map(_class_label, codes)))

    @property
    def feature_dim(self) -> int:
        return self.neurons.shape[1]

    @cached_property
    def classes(self) -> np.ndarray:
        """The neurons' class codes, kept in the instance on first use."""
        if self.class_of_neuron is None:
            raise ValidationError("SOM model must be labeled before classification")
        return np.array(self.class_of_neuron, dtype=np.uint8)

    def exact_pass(self, cols: int):
        """The float64 pass: neuron distances (3, n) of feature planes (d, n)."""
        return partial(_som_distances, self.neurons)


def _class_label(code) -> ClassLabel:
    """A neuron's class code, a whole number, as its ClassLabel."""
    value = whole_number(code, "class code", positive=True)
    if value > N_CLASSES:
        raise ValidationError(f"class code must be 1, 2 or 3, got {code!r}")
    return ClassLabel(value)


def _som_distances(neurons: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distances (3, n) from each neuron to feature planes x (d, n),
    summed in feature order."""
    w = neurons.T[:, :, None]  # w[j] holds feature j of each neuron
    d2 = np.square(x[0] - w[0])
    for xj, wj in zip(x[1:], w[1:]):
        d2 += np.square(xj - wj)
    return d2


def train_som(samples: SampleSet, cfg: SomConfig) -> SomModel:
    """Competitive training on a 3-neuron chain; labels in ``samples`` are
    ignored. Neurons start at 3 distinct seeded training samples; updates
    are winner-take-all with a radius-1 neighborhood during the early
    fraction of iterations and a linearly decaying learning rate. Distances
    that overflow give no warning here: label_som raises on them."""
    x = samples.features
    n = x.shape[0]
    if n < SOM_NEURONS:
        raise ValidationError(f"need at least 3 samples, got {n}")

    rng = np.random.default_rng(cfg.seed)
    neurons = []
    for idx in rng.permutation(n):
        cand = x[idx]
        if all(not np.array_equal(cand, w) for w in neurons):
            neurons.append(cand.copy())
            if len(neurons) == SOM_NEURONS:
                break
    else:
        raise ValidationError("need at least 3 distinct samples")
    w = np.stack(neurons)

    neighbor_cutoff = int(SOM_NEIGHBOR_PHASE * cfg.max_iters)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.max_iters):
            xi = x[rng.integers(n)]
            eta = cfg.eta0 * (1.0 - t / cfg.max_iters)
            win = int(_first_best(_som_distances(w, xi[:, None]), largest=False)[0])
            w[win] += eta * (xi - w[win])
            if t < neighbor_cutoff:
                for j in (win - 1, win + 1):
                    if 0 <= j < SOM_NEURONS:
                        w[j] += eta * SOM_NEIGHBOR_WEIGHT * (xi - w[j])
    return SomModel(w, config=cfg)


def label_som(model: SomModel, samples: SampleSet) -> SomModel:
    """Label each neuron by majority vote over the samples it wins, the
    lower neuron winning a tie; ties of votes go to the lower class integer.
    Non-finite distances raise NumericalError."""
    if samples.feature_dim != model.feature_dim:
        raise ValidationError(
            f"samples have {samples.feature_dim} features, "
            f"model expects {model.feature_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = _som_distances(model.neurons, samples.features.T)
    winners = _decide(model, d2, np.arange(SOM_NEURONS))
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

# Each model class carries what classify needs of its kind: ``kind``, its
# name in a model file; ``classes``, the codes of the three rows that its
# float64 pass ``exact_pass(cols)`` ranks, ``block`` pixels at a time, the
# nearest first where ``nearest_wins``; ``screen``, the MLP's float32
# screen or None; and ``label_table``, the _LabelTable or None that its
# kind's builder makes. The MLP's screen and every label table are made on
# first use and kept in the instance, outside its fields.
Model = PolyModel | MlpModel | SomModel


def _feature_planes(model: Model, image: SpectralStack | Band) -> np.ndarray:
    """The image's feature planes (d, n), which a stack builds once."""
    x = image.planes
    if x.shape[0] != model.feature_dim:
        raise ValidationError(
            f"model expects {model.feature_dim} features, "
            f"input provides {x.shape[0]}"
        )
    return x


def _first_best(rows: np.ndarray, largest: bool) -> np.ndarray:
    """Index of the first of the three ``rows`` that holds the largest (or
    the smallest) value at each pixel: np.argmax (np.argmin) along axis 0,
    for rows without NaN, in a few passes over contiguous rows."""
    better, best = (np.greater, np.maximum) if largest else (np.less, np.minimum)
    a, b, c = rows
    second = better(b, a).view(np.uint8)
    third = better(c, best(a, b)).view(np.uint8)
    return np.maximum(second, third << 1)


def _decide(model: Model, s: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """``classes[k]`` for the best row ``s[k]`` at each pixel: the highest
    PO or MLP score, or the nearest SOM neuron when ``s`` holds distances."""
    if not np.isfinite(s).all():
        what = "distances" if model.nearest_wins else "scores"
        raise NumericalError(f"{model.kind} model gave non-finite {what}")
    return classes.take(_first_best(s, largest=not model.nearest_wins))


# float32 rows hold twice the pixels of float64 rows in the same bytes.
_SCREEN_BLOCK = 2 * _MLP_BLOCK

# The float32 MLP screen takes a model whose weights are each 0 or of
# magnitude in [2^-60, 2^60]. On features in [0, 1] no float32 product or
# sum of its forward pass can then overflow, and what underflow loses lies
# far below the bound of _screen_bound. The PO label table takes the same
# weights, and the KO table neurons up to 2^60.
_SCREEN_RANGE = (2.0**-60, 2.0**60)

# The largest error of float32 np.tanh, in units in the last place, that
# _screen_bound assumes. tests/test_classifiers.py measures the error of
# the numpy in use against it.
_TANH_ULP = 4


def _in_range(magnitudes: np.ndarray) -> bool:
    """Whether each of ``magnitudes`` is 0 or lies in _SCREEN_RANGE."""
    low, high = _SCREEN_RANGE
    return bool(magnitudes.max() <= high and np.all((magnitudes == 0.0) | (magnitudes >= low)))


def _screen_bound(model: MlpModel) -> float | None:
    """The lead ``tau`` above which the float32 screen (MlpModel.screen) of
    ``model`` on features in [0, 1] picks the class the float64 pass picks,
    or None where the screen is out of its range or ``tau`` exceeds 1.

    Forward error of the screen, u = 2^-24; halving a weight is exact:
    - hidden unit j: the 4-term dot product (wh_j / 2) . x in any order,
      with its rounded weights and features, is off by at most 3u * S_j,
      where S_j = sum_i |wh_ji| + |b_j|, the row sum of |wh|;
    - tanh has a slope of at most 1, and |t_j| < 1 has an ulp of at most
      u, so a tanh off by _TANH_ULP = 4 ulp leaves t_j off by at most
      3u * S_j + 4u; output k weighs it by |wo_kj| / 2, which gives
      u * |wo_kj| * (1.5 * S_j + 2);
    - output k: the 61-term dot product over t in [-1, 1] and the row of
      ones has weights of total magnitude sum_{j<60} |wo_kj| / 2 + |b'_k|,
      at most sum_j |wo_kj| with j over the bias too. It adds
      61u * sum_j |wo_kj|, and rounding wo_kj / 2 and b'_k to float32
      adds u * sum_j |wo_kj|.
    With the constants rounded up over the second-order terms, and the 4
    taken as _TANH_ULP,
        |dz_k| <= u * (sum_j |wo_kj| * (2 * S_j + 4) + 64 * sum_j |wo_kj|).
    The float64 pass is 2^29 times closer. The difference of two outputs
    is off by at most twice the largest |dz_k|; ``tau`` is 4 times that,
    which also covers rounding the lead and ``tau`` to float32.
    """
    wh, wo = np.abs(model.hidden_weights), np.abs(model.output_weights)
    if not (_in_range(wh) and _in_range(wo)):
        return None
    dz = 2.0**-24 * (wo[:, :-1] @ (2.0 * wh.sum(axis=1) + _TANH_ULP) + 64.0 * wo.sum(axis=1))
    tau = 8.0 * float(dz.max())
    return tau if tau <= 1.0 else None


def _clear_lead(z: np.ndarray, tau: float) -> np.ndarray:
    """Where the largest of the three rows ``z`` exceeds the other two by
    more than ``tau``, with every row finite."""
    a, b, c = z
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    lead = np.maximum(hi, c) - np.maximum(lo, np.minimum(hi, c))
    return (lead > tau) & np.isfinite(z).all(axis=0)


def _in_blocks(decide, x: np.ndarray, block: int) -> np.ndarray:
    """``decide`` applied to each block of ``block`` columns of ``x``, as
    uint8 labels."""
    labels = np.empty(x.shape[1], dtype=np.uint8)
    for start in range(0, x.shape[1], block):
        labels[start:start + block] = decide(x[:, start:start + block])
    return labels


def _exact_labels(model: Model, x: np.ndarray) -> np.ndarray:
    """The labels of feature planes ``x`` from the model's float64 pass."""
    classes, block = model.classes, model.block
    forward = model.exact_pass(min(x.shape[1], block))
    return _in_blocks(lambda xs: _decide(model, forward(xs), classes), x, block)


# Cells per band of the label table's grid over [0, 1], and coarse boxes
# per band of the grid it proves first. Powers of two, so 64 x and every
# box's centre and half-width are exact; 64^3 one-byte cells are 256 KiB
# per model.
_GRID = 64
_COARSE = 4
# Boxes per evaluation of the bound, each evaluation taking exactly this
# many (see _LabelTable.prove). A call that reaches a few new coarse boxes
# proves few boxes per level, and a chunk of 512 cost it half again as much.
_PROOF_CHUNK = 128
# The table's code for a cell no bound proves; 0 marks a cell whose coarse
# box is not yet proven.
_UNDECIDED = 255
# The row pairs (k, l) of the bound's rows, the two rows of each k
# together.
_PAIRS = np.array([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]).T
# The offsets (3, 8) of a box's 8 children in the next finer grid.
_CHILDREN = np.array(np.unravel_index(np.arange(8), (2, 2, 2)))


class _LabelTable:
    """Labels proven on whole cells of a _GRID^3 grid over the feature
    cube [0, 1]^3, for a PO, MLP or KO model. A cell holds the class the
    model's float64 pass picks at every point of it, or _UNDECIDED where no
    bound proves one; it holds 0 until a call's pixels reach its coarse box
    (``lookup``).

    Pixel x lies in cell floor(64 x_i) per band i, 64 taken as 63, which is
    a closed box of half-width 1/128 in each band.

    Each kind gives the table its ``bounds``, ``tau`` and ``classes``
    (_quadratic_table for PO and KO, _mlp_table). The model's float64 pass
    ranks three rows at each pixel: scores, the largest first, or neuron
    distances, the smallest first. ``bounds(centres, half)`` (6, m) holds a
    B_kl for each pair (k, l) of _PAIRS and each box of half-width ``half``
    with centres (3, m), such that where the computed B_kl exceeds ``tau``,
    row k ranks strictly before row l in the float64 pass at every point of
    the box. A box whose B_kl exceeds ``tau`` for both other rows l takes
    ``classes[k]``, and so do its 8 children. Proofs run coarse to fine,
    _COARSE^3 boxes first, and only a box left unproven is split, down to
    the cells. Every label the table gives is therefore the float64 pass's,
    with no tie to break.
    """

    def __init__(self, bounds, tau: float, classes: np.ndarray):
        self.bounds, self.tau, self.classes = bounds, tau, classes
        self.labels = np.zeros(_GRID**3, dtype=np.uint8)

    @staticmethod
    def cells(x: np.ndarray) -> np.ndarray:
        """The cell of each pixel of feature planes ``x`` (3, n) in [0, 1],
        numbered in C order."""
        cell = np.zeros(x.shape[1], dtype=np.int32)
        for row in x:  # one band at a time keeps the temporaries small
            c = row * _GRID
            np.minimum(c, _GRID - 1, out=c)
            cell *= _GRID
            cell += c.astype(np.int32)
        return cell

    def _proven(self, centres: np.ndarray, half: float) -> np.ndarray:
        """The class code each box proves, 0 where it proves none."""
        beats = (self.bounds(centres, half) > self.tau).reshape(N_CLASSES, 2, -1)
        return (self.classes[:, None] * beats.all(axis=1)).max(axis=0)

    def prove(self, boxes: np.ndarray) -> None:
        """Write every cell of the coarse boxes at integer coordinates
        ``boxes`` (3, n) of the _COARSE^3 grid."""
        grid = _COARSE
        while boxes.size:
            half = 0.5 / grid
            n = boxes.shape[1]
            # Every chunk has _PROOF_CHUNK boxes, the last one filled up
            # with the cube's centre: a product of other shapes can round a
            # box's bound otherwise, and its label would then depend on
            # the boxes proven with it.
            centres = np.full((3, -(-n // _PROOF_CHUNK) * _PROOF_CHUNK), 0.5)
            centres[:, :n] = (boxes + 0.5) / grid
            found = _in_blocks(lambda c: self._proven(c, half), centres, _PROOF_CHUNK)[:n]
            if grid == _GRID:
                found[found == 0] = _UNDECIDED
            side = _GRID // grid
            done = found != 0
            i, j, k = boxes[:, done]
            nested = self.labels.reshape(grid, side, grid, side, grid, side)
            nested[i, :, j, :, k, :] = found[done, None, None, None]
            left = boxes[:, ~done]
            boxes = (2 * left[:, :, None] + _CHILDREN[:, None, :]).reshape(3, -1)
            grid *= 2

    def lookup(self, cells: np.ndarray) -> np.ndarray:
        """The labels of ``cells``, once each coarse box that holds one of
        them is proven."""
        labels = self.labels.take(cells)
        if not labels.all():
            fine = np.unravel_index(cells[labels == 0], (_GRID,) * 3)
            reached = np.zeros((_COARSE,) * 3, dtype=bool)
            reached[tuple(f // (_GRID // _COARSE) for f in fine)] = True
            self.prove(np.array(np.nonzero(reached)))
            labels = self.labels.take(cells)
        return labels


def _quadratic_table(w: np.ndarray, classes: np.ndarray) -> _LabelTable:
    """The label table of a float64 pass that ranks three degree-2 scores,
    the largest first: s_k = w_k . m(x), with rows ``w`` (3, 10) over the
    monomials m of _quadratic_planes, row k taking ``classes[k]``.

    The bound. Over a box with centre c and half-width r, x_i lies in
    [lo_i, hi_i] = [c_i - r, c_i + r], and lo_i >= 0 on the cube. So each
    monomial of _quadratic_planes lies in [L_m, H_m], the monomials of lo
    and of hi: x_i^2 in [lo_i^2, hi_i^2] and x_i x_j in [lo_i lo_j,
    hi_i hi_j]. For classes k and l, with d = w_k - w_l over the 10
    monomials, d+ = max(d, 0) and d- = min(d, 0), every point of the box
    has
        s_k - s_l >= B_kl = sum_m d+_m L_m + d-_m H_m.

    Rounding. u = 2^-53 and W_k = sum_m |w_km|; tau = 128u * max_k W_k >=
    64u (W_k + W_l). The caller's float64 pass must give s_k - s_l within
    12u (W_k + W_l) of w_k . m - w_l . m on the cube (_poly_table,
    _som_table), and its range must keep tau above 2^-1000 unless every
    weight is 0, when every B_kl is 0.
    - In ``bounds``, lo and hi are multiples of 1/64 in [0, 1], so L and H
      are exact; d is rounded once, which keeps its signs, and the 20-term
      product adds at most 20.01u: B_kl is off by at most 22u (W_k + W_l).
    - What underflow loses in ``bounds`` or the pass is below 2^-1000.
    So where the computed B_kl exceeds tau, s_k - s_l exceeds 42u (W_k +
    W_l) - 2^-1000 at every point of the box, more than the float64 pass's
    error: its s_k is strictly larger than its s_l. The factor of 2 spare
    in tau covers rounding tau itself.
    """
    d = w[_PAIRS[0]] - w[_PAIRS[1]]
    gap = np.hstack([np.maximum(d, 0.0), np.minimum(d, 0.0)])

    def bounds(centres: np.ndarray, half: float) -> np.ndarray:
        low, high = _quadratic_planes(centres - half), _quadratic_planes(centres + half)
        return gap @ np.concatenate([low, high])

    return _LabelTable(bounds, 2.0**-46 * float(np.abs(w).sum(axis=1).max()), classes)


def _poly_table(model: PolyModel) -> _LabelTable | None:
    """The PO model's label table (_quadratic_table), or None where a
    weight is neither 0 nor of magnitude in _SCREEN_RANGE.

    The float64 pass rounds each monomial once, |m| <= 1 on the cube, and
    takes the 10-term product with w_k in any order, FMA allowed: s_k is
    off by at most u W_k + 10.01u W_k, so s_k - s_l by 12u (W_k + W_l). In
    the range tau >= 2^-106 unless every weight is 0, and no float64 score
    or bound over the cube is non-finite: |s_k| <= 10 * 2^60.
    """
    w = model.weights
    if not _in_range(np.abs(w)):
        return None
    return _quadratic_table(w, model.classes)


def _mlp_table(model: MlpModel) -> _LabelTable | None:
    """The MLP's label table, or None where it has no screen; its ``tau``
    is tau1, the screen's.

    The bound. Over a box with centre c and half-width r, hidden unit j's
    pre-activation a_j = wh_j . (x, 1) lies in [lo_j, hi_j] = a_j(c) -+
    r * R_j, R_j = sum_i |wh_ji| over the 3 features, and the sigmoid is
    increasing. So for classes k and l, with d = wo_k - wo_l over the 60
    units and the bias, d+ = max(d, 0) and d- = min(d, 0), every point of
    the box has
        z_k - z_l >= B_kl = sum_j d+_j sigmoid(lo_j) + d-_j sigmoid(hi_j) + d_b.

    Rounding. u = 2^-53; for class k, W_k = sum_j |wo_kj| over the units
    and the bias, and T_k = sum_j |wo_kj| * S_j over the units, S_j = R_j +
    |b_j| as in _screen_bound. _screen_bound gives tau1 >= 2^29 * 8u *
    (2 T_k + 64 W_k) for each k, so tau1 >= 2^29 * 8u * (T_k + T_l + 32
    (W_k + W_l)). In the float64 arithmetic of ``bounds``:
    - c and r are exact; a_j(c), r * R_j and lo_j, hi_j are off by at most
      6u * S_j, since |c_i| + r <= 1, and a sigmoid's slope is at most 1/4;
    - exp, 1 + exp and the reciprocal add at most 7u to a sigmoid, taking
      exp as off by 4u at most; each sigmoid is off by u * (1.5 S_j + 7);
    - d_j and d_b are rounded once, which keeps their signs, and the sum of
      121 terms of total magnitude at most W_k + W_l adds 122u (W_k + W_l).
    So the computed B_kl is off by at most u * (1.5 (T_k + T_l) + 130 (W_k
    + W_l)), below tau1 / 2^29. Where it exceeds tau1, z_k - z_l >
    tau1 * (1 - 2^-29) at every point of the box. The float64 pass is 2^29
    times closer than the screen, whose outputs are off by tau1 / 8 at most:
    its z_k - z_l is off by at most tau1 / 2^31, and is positive. In the
    screen's range no float64 output or bound is non-finite.
    """
    if model.screen is None:
        return None
    tau1 = model.screen[0]
    wh, wo = model.hidden_weights, model.output_weights
    d = wo[_PAIRS[0]] - wo[_PAIRS[1]]
    hidden, hidden_bias = wh[:, :-1], wh[:, -1:]
    reach = np.abs(hidden).sum(axis=1, keepdims=True)
    gap = np.hstack([np.maximum(d[:, :-1], 0.0), np.minimum(d[:, :-1], 0.0)])
    gap_bias = d[:, -1:]

    def bounds(centres: np.ndarray, half: float) -> np.ndarray:
        pre = hidden @ centres
        pre += hidden_bias
        spread = half * reach
        s = np.empty((2 * MLP_HIDDEN, centres.shape[1]))
        np.subtract(spread, pre, out=s[:MLP_HIDDEN])  # -lo
        np.subtract(-spread, pre, out=s[MLP_HIDDEN:])  # -hi
        b = gap @ _sigmoid_of_negated(s)
        b += gap_bias
        return b

    return _LabelTable(bounds, tau1, model.classes)


def _som_table(model: SomModel) -> _LabelTable | None:
    """The label table of a labeled KO model (_quadratic_table), or None
    where it has other than 3 features or a neuron coordinate's magnitude
    exceeds 2^60, the top of _SCREEN_RANGE.

    Neuron k is nearest where -|x - w_k|^2 = -|w_k|^2 + 2 w_k . x - |x|^2
    is largest, and -|x|^2 is the same for every neuron: its row is w'_k =
    [-|w_k|^2, 2 w_k, -1, -1, -1, 0, 0, 0], and it takes
    class_of_neuron[k]; two neurons may share a class. Then W'_k = D_k =
    sum_i (1 + |w_ki|)^2, which bounds the distance d_k on the cube.
    _som_distances rounds x_i - w_ki and its square once each and sums the
    3 squares in feature order, so d_k is off by at most 6u D_k, and
    rounding |w_k|^2 in w'_k adds 3u D_k: 9u (D_k + D_l) in all. W'_k >= 3
    keeps tau above any underflow loss with no floor on the coordinates,
    and with coordinates of at most 2^60 no distance or bound over the cube
    is non-finite.
    """
    w = model.neurons
    if w.shape[1] != 3 or not np.abs(w).max() <= _SCREEN_RANGE[1]:
        return None
    rows = np.zeros((SOM_NEURONS, 10))
    rows[:, 0] = -np.square(w).sum(axis=1)
    rows[:, 1:4] = 2.0 * w
    rows[:, 4:7] = -1.0
    return _quadratic_table(rows, model.classes)


def _cube_cells(stack: SpectralStack) -> np.ndarray:
    """The label table's cell (_LabelTable.cells) of each pixel of a stack
    of 3 bands, read-only. Built on first use and kept in the stack's
    instance, outside its fields, as ``planes`` is: every label table reads
    one build per stack."""
    state = stack.__dict__
    if "_cells" not in state:
        cells = _LabelTable.cells(stack.planes)
        cells.setflags(write=False)
        state["_cells"] = cells
    return state["_cells"]


def _table_for(model: Model, image: SpectralStack | Band):
    """The model's label table and the cells of ``image``'s pixels, or
    None: on the model's first classify call, so that a one-shot caller
    such as the CLI makes no table and builds no cells; and where the model
    makes no table (``label_table``)."""
    state = model.__dict__
    if not state.get("_classified"):
        state["_classified"] = True
        return None
    table = model.label_table
    return None if table is None else (table, _cube_cells(image))


def _table_labels(table: _LabelTable, cells: np.ndarray, x: np.ndarray, rest) -> np.ndarray:
    """The labels of feature planes ``x``: a proven cell's label, and
    ``rest`` of the pixels whose cell is undecided.

    ``rest`` takes the undecided pixels gathered in a multiple of
    _MLP_BLOCK pixels, the last block filled up with pixel 0. So each array
    has one of a few sizes: arrays of as many sizes as there are counts of
    undecided pixels would scatter over the heap."""
    labels = table.lookup(cells)
    todo = np.flatnonzero(labels == _UNDECIDED)
    if todo.size:
        stop = min(-(-todo.size // _MLP_BLOCK) * _MLP_BLOCK, labels.size)
        pixels = np.zeros(stop, dtype=np.intp)
        pixels[:todo.size] = todo
        labels[todo] = rest(x.take(pixels, axis=1))[:todo.size]
    return labels


def _screened_labels(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """The MLP's labels of feature planes ``x``: those of the float64 pass.

    The float32 screen (MlpModel.screen) labels each pixel whose winner
    leads by more than its ``tau`` in its outputs; every pixel it leaves, a
    near-tie or a non-finite score, goes to the float64 pass, which keeps
    the tie rule and the NumericalError.
    """
    tau, wh, wo = model.screen
    forward = _layers(wh, wo, min(x.shape[1], _SCREEN_BLOCK), lambda a: np.tanh(a, out=a))[0]

    def decided(xs: np.ndarray) -> np.ndarray:
        z = forward(xs)
        return np.where(_clear_lead(z, tau), model.classes.take(_first_best(z, largest=True)), 0)

    labels = _in_blocks(decided, x, _SCREEN_BLOCK)
    close = np.flatnonzero(labels == 0)
    if close.size:
        labels[close] = _exact_labels(model, x[:, close])
    return labels


def classify(model: Model, image: SpectralStack | Band) -> LabelMap:
    """Per-pixel class decision: argmax of class scores for the polynomial
    and MLP models, nearest-neuron label for the SOM. Ties break toward the
    lower class integer, or the lower neuron. The MLP's scores here are its
    output pre-activations: the sigmoid is monotone, but two outputs that
    both round to 1.0 still differ before it, and the larger one wins. A
    float32 pass screens the MLP's pixels and the float64 pass decides
    every close call, so the labels are the float64 pass's
    (_screened_labels).
    From a model's second call on, a pixel of a PO, MLP or KO model whose
    cell of the feature cube bounds on the weights prove to hold one class
    takes that class (_LabelTable); only the others take the model's pass.
    For the MLP that pass is its screen, which its table shares.

    Non-finite polynomial scores, MLP pre-activations or SOM distances
    raise NumericalError naming the model kind."""
    x = _feature_planes(model, image)
    # Overflow is expected where an MLP hidden unit saturates (its sigmoid
    # is then exactly 0); only non-finite scores or distances are errors.
    with np.errstate(over="ignore", invalid="ignore"):
        found = _table_for(model, image)
        rest = partial(_exact_labels if model.screen is None else _screened_labels, model)
        labels = rest(x) if found is None else _table_labels(*found, x, rest)
    return LabelMap(labels.reshape(image.height, image.width))


# ---------------------------------------------------------------------------
# Model serialization (JSON)

# A model file holds the kind, then every field of the model's dataclass in
# declaration order; a nested config is written as its own fields.
MODEL_KINDS = {cls.kind: cls for cls in (PolyModel, MlpModel, SomModel)}
_MODEL_KEYS = {"kind", "normalize", *(f.name for cls in MODEL_KINDS.values() for f in fields(cls))}


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return asdict(value) if is_dataclass(value) else value


def model_to_json(model: Model) -> dict:
    return {"kind": model.kind} | {f.name: _plain(getattr(model, f.name)) for f in fields(model)}


def model_from_json(doc: dict) -> Model:
    """Inverse of model_to_json: the kind, then its class's fields, of which
    those with a default may be omitted. ``normalize``, the scaling flag of
    model files written before scaling was fixed by input kind, is ignored;
    any other key raises ValidationError."""
    check_keys(doc, ("kind",), "model file", _MODEL_KEYS)
    kind = doc["kind"]
    if not (isinstance(kind, str) and kind in MODEL_KINDS):
        raise ValidationError(f"unknown model kind {kind!r}")
    rest = {k: v for k, v in doc.items() if k not in ("kind", "normalize")}
    return config_from_json(MODEL_KINDS[kind], rest, "model file")


def save_model(model: Model, path) -> None:
    Path(path).write_text(json.dumps(model_to_json(model), indent=2) + "\n")


def load_model(path) -> Model:
    """Read a model JSON file; a malformed document, or one with a missing
    or ill-typed key, raises ValidationError naming the file."""
    return read_json(path, model_from_json)
