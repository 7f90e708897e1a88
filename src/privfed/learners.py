"""The two local learners: logistic regression and a small feed-forward net.

Both are binary classifiers over 10 features trained with minibatch SGD on
binary cross-entropy plus an optional L2 penalty on the weight matrices.
When one batch covers the training set, as at every desk-scale site, each
epoch is one full-batch step on the rows in stored order, unshuffled, and the
features are read column-major.

Logistic regression: 10 coefficients + 1 intercept = 11 parameters.

Feed-forward net: 10 -> 5 hidden units (no hidden bias) -> ReLU -> layer
normalization with learnable gain and bias -> 1 output unit with bias.
Parameter count: 50 + 5 + 5 + 5 + 1 = 66.  The layer-norm bias plays the
role of the hidden bias, which is what makes the count come out to 66.

A model's parameters are one flat float64 vector θ, from ``init_params``
through ``train_local`` and ``predict_batch`` to the run report.  Each kind
has a static layout (``LAYOUTS``, with each tensor's slice of θ in
``SLICES`` and θ's length in ``N_PARAMS``): tensors in declaration order,
row-major within each, so ``hidden_w`` row h holds hidden unit h's weights.
Each kind has one kernel that writes the loss gradient into a reused vector;
``train_local`` allocates its work arrays once per call, sized by
min(n, batch_size) rows; a full-batch run adds one column-major copy of the
features, so both BLAS products read contiguous feature columns.  The NN
kernel keeps activations hidden-major, ``(5, rows)``, so both matmuls go to
BLAS and the layer-norm reductions over the 5 hidden units are row-wise adds.
Prediction (``predict_batch``) keeps ``einsum``, so a batch is bitwise equal
to its rows evaluated one at a time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import _sigmoid
from .errors import LayoutError

LN_EPS = 1e-5  # layer-norm variance epsilon, biased variance estimator
N_FEATURES = 10
N_HIDDEN = 5


class ModelKind(str, Enum):
    LOGISTIC_REGRESSION = "lr"
    FEEDFORWARD_NN = "nn"


LAYOUTS = {
    ModelKind.LOGISTIC_REGRESSION: (("coef", (10,)), ("intercept", (1,))),
    ModelKind.FEEDFORWARD_NN: (
        ("hidden_w", (5, 10)),
        ("ln_gain", (5,)),
        ("ln_bias", (5,)),
        ("out_w", (1, 5)),
        ("out_b", (1,)),
    ),
}


def _slices(layout) -> dict[str, slice]:
    out, offset = {}, 0
    for name, shape in layout:
        out[name] = slice(offset, offset + math.prod(shape))
        offset += math.prod(shape)
    return out


# name -> slice of θ, and θ's length, per kind
SLICES = {kind: _slices(layout) for kind, layout in LAYOUTS.items()}
N_PARAMS = {kind: sum(math.prod(shape) for _, shape in layout) for kind, layout in LAYOUTS.items()}


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    local_epochs: int
    l2_penalty: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be nonnegative")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be nonnegative")


@dataclass(frozen=True)
class TrainStats:
    steps: int
    wall_time: float


def init_params(kind: ModelKind, seed: int) -> np.ndarray:
    """Initial θ: LR all zeros; NN Xavier-uniform weights, unit layer-norm
    gain, zero biases.  Deterministic for a given seed."""
    kind = ModelKind(kind)
    theta = np.zeros(N_PARAMS[kind])
    if kind is ModelKind.LOGISTIC_REGRESSION:
        return theta
    s = SLICES[kind]
    rng = np.random.default_rng(seed)
    bound_h = math.sqrt(6.0 / (N_FEATURES + N_HIDDEN))
    bound_o = math.sqrt(6.0 / (N_HIDDEN + 1))
    theta[s["hidden_w"]] = rng.uniform(-bound_h, bound_h, N_HIDDEN * N_FEATURES)
    theta[s["ln_gain"]] = 1.0
    theta[s["out_w"]] = rng.uniform(-bound_o, bound_o, N_HIDDEN)
    return theta


def _theta(kind: ModelKind, theta) -> np.ndarray:
    """``theta`` as a float64 vector, which must have ``kind``'s length."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (N_PARAMS[kind],):
        raise LayoutError(f"θ of shape {theta.shape}; {kind.value} takes {N_PARAMS[kind]} values")
    return theta


def _logits(kind: ModelKind, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    # einsum keeps each output row an independent fixed-order sum, so the
    # batched path is bitwise identical to evaluating rows one at a time
    s = SLICES[kind]
    if kind is ModelKind.LOGISTIC_REGRESSION:
        return np.einsum("nd,d->n", x, theta[s["coef"]]) + theta[s["intercept"]][0]
    w = theta[s["hidden_w"]].reshape(N_HIDDEN, N_FEATURES)
    hidden = np.maximum(np.einsum("nd,hd->nh", x, w), 0.0)
    mean = hidden.mean(axis=1, keepdims=True)
    var = hidden.var(axis=1, keepdims=True)  # biased estimator
    normed = (hidden - mean) * (1.0 / np.sqrt(var + LN_EPS))
    z = normed * theta[s["ln_gain"]] + theta[s["ln_bias"]]
    return np.einsum("nh,h->n", z, theta[s["out_w"]]) + theta[s["out_b"]][0]


def predict_batch(kind: ModelKind, theta, features) -> np.ndarray:
    """Probabilities for a feature matrix, bitwise equal to those of its rows
    passed one at a time."""
    kind = ModelKind(kind)
    theta = _theta(kind, theta)
    x = np.asarray(features, dtype=np.float64)
    if x.size == 0:
        return np.zeros(0, dtype=np.float64)
    x = x.reshape(-1, N_FEATURES)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature value")
    return _sigmoid(_logits(kind, theta, x))


class Workspace:
    """Work arrays for one kind's kernel on batches of up to ``rows`` rows.

    ``grad`` receives the gradient in θ's layout.  A batch of m rows uses
    the leading part of each buffer, reshaped, so every view is contiguous.
    """

    def __init__(self, kind: ModelKind, rows: int):
        kind = ModelKind(kind)
        self.grad = np.empty(N_PARAMS[kind])
        self._vec = np.empty((6, rows))
        hidden = N_HIDDEN * rows if kind is ModelKind.FEEDFORWARD_NN else 0
        self._act = np.empty((2, hidden))
        self._live = np.empty(hidden, dtype=bool)

    def vectors(self, m: int) -> np.ndarray:
        """Six scratch rows of length m."""
        return self._vec[:, :m]

    def hidden(self, m: int):
        """Two float ``(5, m)`` arrays and one boolean ``(5, m)`` array."""
        size = N_HIDDEN * m
        shape = (N_HIDDEN, m)
        return (
            self._act[0, :size].reshape(shape),
            self._act[1, :size].reshape(shape),
            self._live[:size].reshape(shape),
        )


def _bce_head(z: np.ndarray, y: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """dloss/dz = (sigmoid(z) - y) / n of the mean BCE of logits ``z``, from
    e = exp(-|z|): sigmoid(z) = exp(min(z, 0)) / (1 + e), which is 1/(1+e)
    for z >= 0 and e/(1+e) otherwise.  Uses ``vec[0:3]``; e stays in
    ``vec[0]`` for ``_objective`` and the gradient is ``vec[2]``."""
    n = z.shape[0]
    e, t, d = vec[0], vec[1], vec[2]
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.minimum(z, 0.0, out=t)
    np.exp(t, out=t)
    np.add(e, 1.0, out=d)
    np.divide(t, d, out=d)  # sigmoid(z)
    d -= y
    d /= n
    return d


def _lr_kernel(theta, x, y, l2, work) -> None:
    s = SLICES[ModelKind.LOGISTIC_REGRESSION]
    coef = theta[s["coef"]]
    vec = work.vectors(x.shape[0])
    z = vec[3]
    np.matmul(x, coef, out=z)
    z += theta[s["intercept"]][0]
    d = _bce_head(z, y, vec)
    g = work.grad
    np.matmul(d, x, out=g[s["coef"]])
    g[s["coef"]] += l2 * coef
    g[s["intercept"]] = d.sum()


def _nn_kernel(theta, x, y, l2, work) -> None:
    s = SLICES[ModelKind.FEEDFORWARD_NN]
    w = theta[s["hidden_w"]].reshape(N_HIDDEN, N_FEATURES)
    gain = theta[s["ln_gain"]]
    bias = theta[s["ln_bias"]]
    out_w = theta[s["out_w"]]
    n = x.shape[0]
    act, tmp, live = work.hidden(n)
    vec = work.vectors(n)
    z, stat, u = vec[3], vec[4], vec[5]

    np.matmul(w, x.T, out=act)  # pre-activations
    np.maximum(act, 0.0, out=act)
    np.greater(act, 0.0, out=live)
    # layer norm over the hidden units (biased variance), as row-wise adds
    np.add(act[0], act[1], out=stat)
    for h in range(2, N_HIDDEN):
        stat += act[h]
    stat /= N_HIDDEN
    act -= stat  # centred
    np.multiply(act, act, out=tmp)
    np.add(tmp[0], tmp[1], out=stat)
    for h in range(2, N_HIDDEN):
        stat += tmp[h]
    stat /= N_HIDDEN
    stat += LN_EPS
    np.sqrt(stat, out=stat)
    np.divide(1.0, stat, out=stat)  # inv_std
    act *= stat  # normed
    # logit = sum_h out_w*(gain*normed + bias) + out_b = a @ normed + c0
    a = out_w * gain
    np.matmul(a, act, out=u)
    np.add(u, float(out_w @ bias) + theta[s["out_b"]][0], out=z)
    d = _bce_head(z, y, vec)

    g = work.grad
    sum_d = d.sum()
    normed_d = act @ d
    g[s["out_b"]] = sum_d
    np.multiply(out_w, normed_d, out=g[s["ln_gain"]])
    np.multiply(out_w, sum_d, out=g[s["ln_bias"]])
    g[s["out_w"]] = gain * normed_d + bias * sum_d + l2 * out_w
    # layer-norm backward with dnormed = d*a: per row,
    # dhidden = inv_std*d * ((a - mean(a)) - normed * (a @ normed)/5)
    u /= N_HIDDEN
    np.multiply(act, u, out=tmp)
    np.subtract((a - a.mean())[:, None], tmp, out=tmp)
    stat *= d
    tmp *= stat
    tmp *= live  # ReLU
    gw = g[s["hidden_w"]].reshape(N_HIDDEN, N_FEATURES)
    np.matmul(tmp, x, out=gw)
    gw += l2 * w


_KERNELS = {ModelKind.LOGISTIC_REGRESSION: _lr_kernel, ModelKind.FEEDFORWARD_NN: _nn_kernel}
# the weight matrices the L2 penalty covers; biases and gains are not penalized
_PENALIZED = {
    ModelKind.LOGISTIC_REGRESSION: ("coef",),
    ModelKind.FEEDFORWARD_NN: ("hidden_w", "out_w"),
}


def _objective(kind: ModelKind, theta, y, l2, work) -> float:
    """The objective of the batch a kernel just ran on, from the logits it
    left in ``vec[3]`` and e = exp(-|z|) in ``vec[0]``: mean BCE, with
    softplus(z) - y*z = max(z, 0) + log1p(e) - y*z, plus the L2 penalty."""
    vec = work.vectors(y.shape[0])
    e, t, z = vec[0], vec[1], vec[3]
    np.log1p(e, out=t)
    loss_sum = float(t.sum())
    np.maximum(z, 0.0, out=t)
    loss_sum += float(t.sum()) - float(y @ z)
    s = SLICES[kind]
    penalty = sum(float(theta[s[name]] @ theta[s[name]]) for name in _PENALIZED[kind])
    return loss_sum / y.shape[0] + 0.5 * l2 * penalty


def loss_and_grad(
    kind: ModelKind, theta, x: np.ndarray, y: np.ndarray, l2: float = 0.0, work: Workspace | None = None
):
    """Objective value and its gradient in θ's layout.

    Objective: mean BCE over the batch + (l2/2) * squared norm of the weight
    matrices (coef / hidden_w / out_w; biases and gains are not penalized).

    Without ``work``, a Workspace is allocated for the batch and the result
    is ``(objective, grad)``.  With ``work`` (as ``train_local`` passes), the
    gradient is ``work.grad``, overwritten by the next call, and the
    objective is not computed: it comes back as None.
    """
    kind = ModelKind(kind)
    x = np.asarray(x, dtype=np.float64).reshape(-1, N_FEATURES)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if work is not None:
        _KERNELS[kind](theta, x, y, l2, work)
        return None, work.grad
    theta = _theta(kind, theta)
    work = Workspace(kind, n)
    _KERNELS[kind](theta, x, y, l2, work)
    return _objective(kind, theta, y, l2, work), work.grad


def train_local(kind: ModelKind, theta, train, cfg: TrainConfig):
    """SGD for ``cfg.local_epochs`` epochs over ``train``.

    When one batch covers the training set (n <= batch_size), every epoch
    is one full-batch step on the rows in their stored order: a shuffle
    would only reorder the gradient sums.  Those steps read one column-major
    copy of the features, so both BLAS products in the kernels walk
    contiguous feature columns.  Otherwise the data is reshuffled each epoch
    with a generator seeded from cfg.seed and gathered into row-major
    minibatches.  Either way, identical (seed, data, config) reproduce
    bitwise-identical parameters.  Returns the trained θ, a new vector, and a
    TrainStats with the step count the DP filter needs for normalization.
    """
    kind = ModelKind(kind)
    x = np.asarray(train.features, dtype=np.float64)
    y = np.asarray(train.labels, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    theta = _theta(kind, theta).copy()

    t0 = time.monotonic()
    rows = min(n, cfg.batch_size)
    work = Workspace(kind, rows)
    steps = 0
    if n <= cfg.batch_size:
        x_cols = np.asfortranarray(x)
        for _ in range(cfg.local_epochs):
            _, grad = loss_and_grad(kind, theta, x_cols, y, cfg.l2_penalty, work)
            theta -= cfg.learning_rate * grad
            steps += 1
    else:
        rng = np.random.default_rng(cfg.seed)
        x_batch = np.empty((rows, N_FEATURES))
        y_batch = np.empty(rows)
        for _ in range(cfg.local_epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                # the indices come from a permutation, so "clip" never clips; it
                # lets take write straight into the buffer instead of a copy
                xb = np.take(x, idx, axis=0, out=x_batch[: idx.size], mode="clip")
                yb = np.take(y, idx, out=y_batch[: idx.size], mode="clip")
                _, grad = loss_and_grad(kind, theta, xb, yb, cfg.l2_penalty, work)
                theta -= cfg.learning_rate * grad
                steps += 1
    return theta, TrainStats(steps=steps, wall_time=time.monotonic() - t0)
