"""Heteroscedastic feed-forward network, trained from scratch.

The model maps a normalized feature vector through ReLU hidden layers to
two linear output heads: a predicted mean ``mu`` and a predicted
log-variance ``s = log(sigma^2)``, both in normalized target units. The
log-variance parameterization keeps the variance positive without
constraints.

Per-sample loss (Gaussian negative log-likelihood up to a constant)::

    L = 0.5 * exp(-s) * (y - mu)**2 + 0.5 * s

Batch loss is the arithmetic mean. Gradients are exact analytic
backpropagation (ReLU derivative at exactly 0 is defined as 0), optimized
with Adam in place over one flat float64 parameter vector (per-layer
arrays are views of it). Everything is a pure function of its inputs and
seeds, so training is bit-for-bit reproducible; forward evaluation over
frozen parameters is read-only and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TrainingDivergedError, check_number
from .adapter import Dataset

#: Output head layout: column 0 is the mean, column 1 the log-variance.
MU_HEAD = 0
S_HEAD = 1
OUTPUT_UNITS = 2


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture: input width, ReLU hidden widths, init seed."""

    input_dim: int
    hidden_widths: tuple[int, ...] = (64, 64, 64)
    seed: int = 0

    def __post_init__(self):
        check_number("input_dim", self.input_dim, integer=True, low=1)
        for width in self.hidden_widths:
            check_number("hidden width", width, integer=True, low=1)
        check_number("seed", self.seed, integer=True, low=0)

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        widths = [self.input_dim, *self.hidden_widths, OUTPUT_UNITS]
        return list(zip(widths[:-1], widths[1:]))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    batch_size: int = 32
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    shuffle_seed: int = 0

    def __post_init__(self):
        check_number("epochs", self.epochs, integer=True, low=1)
        check_number("batch_size", self.batch_size, integer=True, low=1)
        check_number("learning_rate", self.learning_rate, above=0)
        check_number("adam_beta1", self.adam_beta1, low=0, below=1)
        check_number("adam_beta2", self.adam_beta2, low=0, below=1)
        check_number("adam_epsilon", self.adam_epsilon, above=0)
        check_number("shuffle_seed", self.shuffle_seed, integer=True, low=0)


class NetworkParams:
    """Per-layer weight matrices and bias vectors over one flat vector.

    Layer ``i`` maps activations ``a`` to ``a @ weights[i] + biases[i]``;
    the final layer has exactly two output units (mean head, then
    log-variance head). The same container is reused for gradient tensors.
    ``vector`` holds every weight matrix, then every bias, flattened in C
    order; ``weights`` and ``biases`` are reshaped views of it, so writing
    a view writes the vector. The constructor copies its arrays.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        arrays = [np.asarray(a, dtype=float) for a in (*weights, *biases)]
        vector = np.concatenate([a.ravel() for a in arrays] or [np.empty(0)])
        self._attach(vector, arrays, len(weights))

    def _attach(self, vector: np.ndarray, layout, n_weights: int) -> None:
        """Set ``weights``/``biases`` to views of ``vector`` shaped as ``layout``."""
        views, offset = [], 0
        for a in layout:
            views.append(vector[offset:offset + a.size].reshape(a.shape))
            offset += a.size
        self.vector, self.weights, self.biases = (
            vector, views[:n_weights], views[n_weights:])

    def _like(self, vector: np.ndarray) -> "NetworkParams":
        """Parameters with this layout, viewing ``vector`` (not copied)."""
        other = object.__new__(NetworkParams)
        other._attach(vector, (*self.weights, *self.biases), self.num_layers)
        return other

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def shapes(self) -> list[tuple[int, int]]:
        return [w.shape for w in self.weights]

    def validate(self) -> None:
        if len(self.weights) != len(self.biases):
            raise DataError("weights and biases must pair up layer by layer")
        previous = None
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise DataError(f"layer {i} has inconsistent shapes")
            if previous is not None and w.shape[0] != previous:
                raise DataError(
                    f"layer {i} expects {w.shape[0]} inputs but layer "
                    f"{i - 1} produces {previous}"
                )
            previous = w.shape[1]
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise DataError(f"layer {i} holds non-finite parameters")
        if previous != OUTPUT_UNITS:
            raise DataError(
                f"final layer must have {OUTPUT_UNITS} output units, got {previous}"
            )


@dataclass(eq=False)
class AdamState:
    """First/second-moment accumulators, flat like ``NetworkParams.vector``;
    compared by identity, since ``==`` over array fields is ambiguous."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, params: NetworkParams) -> "AdamState":
        return cls(m=np.zeros_like(params.vector),
                   v=np.zeros_like(params.vector), t=0)


@dataclass
class TrainReport:
    """Mean training loss per epoch."""

    epoch_losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]


def init_network(cfg: NetworkConfig) -> NetworkParams:
    """He-style initialization: weights ~ N(0, 2/fan_in), biases zero.

    The zero log-variance-head bias starts the model at unit variance in
    normalized units. Deterministic given ``cfg.seed``.
    """
    rng = np.random.default_rng(cfg.seed)
    weights = []
    biases = []
    for fan_in, fan_out in cfg.layer_dims:
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(weights, biases)


def _forward_cached(params: NetworkParams, X: np.ndarray):
    """Batch forward pass keeping pre-activations for backprop."""
    pre_activations = []
    activations = [X]
    a = X
    last = params.num_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        pre_activations.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return pre_activations, activations


def forward_batch(params: NetworkParams, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted (mu, s) arrays for a batch of normalized feature rows; an
    overflow is silent, for the caller to refuse."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise DataError(
            f"expected shape (n, {params.input_dim}), got {X.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        _, activations = _forward_cached(params, X)
    out = activations[-1]
    return out[:, MU_HEAD], out[:, S_HEAD]


def loss_gradients(
    params: NetworkParams, X: np.ndarray, y: np.ndarray
) -> tuple[float, NetworkParams]:
    """Mean batch loss and its exact gradient w.r.t. every parameter.

    Head-level derivatives per sample are
    ``dL/dmu = -exp(-s) * (y - mu)`` and
    ``dL/ds = 0.5 * (1 - exp(-s) * (y - mu)**2)``,
    scaled by 1/batch and backpropagated through the ReLU stack.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise DataError(
            f"expected shape (n, {params.input_dim}), got {X.shape}"
        )
    n = X.shape[0]
    if n == 0 or y.shape != (n,):
        raise DataError(f"batch of {n} rows needs y of shape ({n},), got {y.shape}")

    pre_activations, activations = _forward_cached(params, X)
    out = activations[-1]
    mu = out[:, MU_HEAD]
    s = out[:, S_HEAD]

    inv_var = np.exp(-s)
    residual = y - mu
    loss = float(np.mean(0.5 * inv_var * residual**2 + 0.5 * s))

    d_out = np.empty_like(out)
    d_out[:, MU_HEAD] = -inv_var * residual / n
    d_out[:, S_HEAD] = 0.5 * (1.0 - inv_var * residual**2) / n

    grads = params._like(np.empty_like(params.vector))
    delta = d_out
    for i in range(params.num_layers - 1, -1, -1):
        np.matmul(activations[i].T, delta, out=grads.weights[i])
        np.sum(delta, axis=0, out=grads.biases[i])
        if i > 0:
            delta = (delta @ params.weights[i].T) * (pre_activations[i - 1] > 0)

    return loss, grads


def adam_step(
    params: NetworkParams,
    grads: NetworkParams,
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[NetworkParams, AdamState]:
    """One Adam update with bias correction, in place; returns its inputs.

    Updates ``params.vector``, ``state.m``, ``state.v`` and ``state.t``
    with whole-vector operations. Per element, with ``g`` the gradient::

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g**2
        theta -= lr * m_hat / sqrt(v_hat + eps)

    where ``m_hat = m / (1 - b1**t)`` and ``v_hat = v / (1 - b2**t)``
    (epsilon added inside the square root). Each element sees the same
    floating-point operations as a per-tensor loop would, so the result
    is bit-identical to one.
    """
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    g, m, v = grads.vector, state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g**2
    step = m / (1.0 - b1**state.t)
    step *= cfg.learning_rate
    root = v / (1.0 - b2**state.t)
    root += cfg.adam_epsilon
    np.sqrt(root, out=root)
    step /= root
    params.vector -= step
    return params, state


# A diverging run overflows before its loss turns non-finite, which raises
# TrainingDivergedError; numpy need not warn first. One errstate per call.
@np.errstate(over="ignore", invalid="ignore")
def train(
    ds_train: Dataset,
    net_cfg: NetworkConfig,
    train_cfg: TrainConfig = TrainConfig(),
) -> tuple[NetworkParams, TrainReport]:
    """Mini-batch Adam training loop, deterministic given both seeds.

    Each epoch reshuffles the sample order with a generator seeded once
    from ``train_cfg.shuffle_seed``; batches are consumed sequentially.
    Raises :class:`TrainingDivergedError` if any batch loss is non-finite.
    """
    if ds_train.n == 0:
        raise DataError("training dataset is empty")
    if net_cfg.input_dim != ds_train.X.shape[1]:
        raise DataError(
            f"network expects {net_cfg.input_dim} inputs but the dataset "
            f"has {ds_train.X.shape[1]} features"
        )

    params = init_network(net_cfg)
    state = AdamState.zeros_like(params)
    rng = np.random.default_rng(train_cfg.shuffle_seed)
    report = TrainReport()

    n = ds_train.n
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for batch_index, start in enumerate(range(0, n, train_cfg.batch_size)):
            idx = order[start:start + train_cfg.batch_size]
            loss, grads = loss_gradients(params, ds_train.X[idx], ds_train.y[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, batch_index, loss)
            total += loss * len(idx)
            params, state = adam_step(params, grads, state, train_cfg)
        report.epoch_losses.append(total / n)

    return params, report
