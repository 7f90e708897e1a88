"""The two local learners: logistic regression and a small feed-forward net.

Both are binary classifiers over 10 features trained with minibatch SGD on
binary cross-entropy plus an optional L2 penalty on the weight matrices.
When one batch covers the training set, as at every desk-scale site, each
epoch is one full-batch step on the rows in stored order, unshuffled, and the
features are read column-major.  Training data comes as a ``CohortDataset``,
whose compact rows are written as float64 into the learner's own buffers
(``CohortDataset.write_rows``), so every kernel sees the same float64 values
in the same layout as a float64 feature matrix would give.

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
Each kind has one forward pass, which writes a row block's logits into a
``Workspace``, and one kernel, which runs that forward and then writes the
block's share of the loss gradient into a reused vector; a step is the sum of
its batch's blocks of at most ``BLOCK_ROWS`` rows.  ``train_local`` allocates
its work arrays once per call, sized by min(n, batch_size, BLOCK_ROWS) rows;
a minibatch block is written from the store into them, and a full-batch run
adds one column-major float64 copy of the features, so both BLAS products
read contiguous feature columns.  The NN forward keeps activations
hidden-major, ``(5, rows)``, so both matmuls go to BLAS and each layer-norm
reduction over the 5 hidden units is one ``np.add.reduce`` over axis 0,
which adds the rows in order.  A step runs only ufuncs and matmuls into
prepared arrays: the ``Workspace`` binds the tensor views of θ and of the
gradient once per vector (``train_local`` updates θ in place, so one binding
serves all its steps) and each block size's rows and ``(5, m)`` arrays once
per size, so a warm step allocates nothing that grows with its rows.  Prediction
(``predict_batch``) runs the same forward over the same row blocks, written
from a dataset into one reused buffer or sliced from a feature matrix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import BLOCK_ROWS, CohortDataset, _sigmoid
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


class Workspace:
    """Work arrays for one kind's forward pass and kernel on row blocks of up
    to min(``rows``, BLOCK_ROWS) rows.

    ``grad`` receives the gradient in θ's layout.  When ``rows`` spans
    several blocks, ``part`` receives a later block's share of it.  With
    ``gather``, ``x`` and ``y`` hold a block gathered from a batch given by
    row indices.  Buffers a batch does not need are not made.

    Views are made once and reused: a vector's tensor views (``bind``) once
    per vector, held with it, and a block size's rows and ``(5, m)`` arrays
    (``block``) once per size, each the leading part of a buffer, so every
    view is contiguous and a step only runs ufuncs into them.
    """

    def __init__(self, kind: ModelKind, rows: int, gather: bool = False):
        kind = ModelKind(kind)
        self.kind = kind
        self.grad = np.empty(N_PARAMS[kind])
        self.part = np.empty(N_PARAMS[kind]) if rows > BLOCK_ROWS else None
        rows = min(rows, BLOCK_ROWS)
        self.x = np.empty((rows, N_FEATURES)) if gather else None
        self.y = np.empty(rows) if gather else None
        self._vec = np.empty((6, rows))
        nn = kind is ModelKind.FEEDFORWARD_NN
        hidden = N_HIDDEN * rows if nn else 0
        self._act = np.empty((2, hidden))
        self._live = np.empty(hidden, dtype=bool)
        # the NN's per-unit scratch: a = out_w * ln_gain, a - mean(a) and
        # the same as a column, normed @ d, a term of out_w's gradient, and
        # l2 * hidden_w
        if nn:
            a, centred, normed_d, term = np.empty((4, N_HIDDEN))
            self.units = (a, centred, centred[:, None], normed_d, term, np.empty((N_HIDDEN, N_FEATURES)))
        self._bound = {}  # id(vector) -> (vector, its tensor views)
        self._blocks = {}  # rows -> that block size's views

    def bind(self, vec: np.ndarray) -> tuple:
        """``vec``'s tensors in its kind's layout, as views of it (an NN's
        ``hidden_w`` as ``(5, 10)``), made on the first call for ``vec``."""
        entry = self._bound.get(id(vec))
        if entry is None:
            if len(self._bound) >= 4:  # θ, grad and part are the usual three
                self._bound.clear()
            views = [vec[s] for s in SLICES[self.kind].values()]
            if self.kind is ModelKind.FEEDFORWARD_NN:
                views[0] = views[0].reshape(N_HIDDEN, N_FEATURES)
            # the entry holds vec, so no other vector can take its id
            entry = self._bound[id(vec)] = (vec, tuple(views))
        return entry[1]

    def block(self, m: int) -> tuple:
        """A block of m rows' views: six scratch rows of length m, then (NN
        only) two float ``(5, m)`` arrays and one boolean ``(5, m)`` array."""
        views = self._blocks.get(m)
        if views is None:
            views = (tuple(self._vec[:, :m]),)
            if self.kind is ModelKind.FEEDFORWARD_NN:
                size, shape = N_HIDDEN * m, (N_HIDDEN, m)
                views += (
                    self._act[0, :size].reshape(shape),
                    self._act[1, :size].reshape(shape),
                    self._live[:size].reshape(shape),
                )
            self._blocks[m] = views
        return views


def _bce_head(z: np.ndarray, y: np.ndarray, n: int, vec) -> np.ndarray:
    """dloss/dz = (sigmoid(z) - y) / n of the mean BCE over an n-row batch,
    for a block's logits ``z``, from e = exp(-|z|): sigmoid(z) =
    exp(min(z, 0)) / (1 + e), which is 1/(1+e) for z >= 0 and e/(1+e)
    otherwise.  Uses ``vec[0:3]``; e stays in ``vec[0]`` for ``_loss_sum``
    and the gradient is ``vec[2]``."""
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


# A forward writes a row block's logits into ``vec[3]`` of its
# ``work.block`` and returns them.  A kernel runs its kind's forward on the
# block, then writes into g the gradient of the block's share of the mean BCE
# over an n-row batch, plus l2 times the penalized weights.


def _lr_forward(theta, x, work) -> np.ndarray:
    coef, intercept = work.bind(theta)
    z = work.block(x.shape[0])[0][3]
    np.matmul(x, coef, out=z)
    z += intercept[0]
    return z


def _lr_kernel(theta, x, y, n, l2, g, work) -> None:
    coef, _ = work.bind(theta)
    g_coef, g_intercept = work.bind(g)
    z = _lr_forward(theta, x, work)
    d = _bce_head(z, y, n, work.block(x.shape[0])[0])
    np.matmul(d, x, out=g_coef)
    g_coef += l2 * coef
    g_intercept[0] = d.sum()


def _nn_forward(theta, x, work) -> np.ndarray:
    """Also leaves, for the kernel's backward, the normalized activations
    and the ReLU mask in ``work.block(m)[1]`` and ``[3]``, the per-row
    inverse std in ``vec[4]``, u = a @ normed in ``vec[5]`` and
    a = out_w * ln_gain in ``work.units[0]``."""
    w, gain, bias, out_w, out_b = work.bind(theta)
    vec, act, tmp, live = work.block(x.shape[0])
    z, stat, u = vec[3], vec[4], vec[5]
    a = work.units[0]

    np.matmul(w, x.T, out=act)  # pre-activations
    np.maximum(act, 0.0, out=act)
    np.greater(act, 0.0, out=live)
    # layer norm over the hidden units (biased variance): reductions over
    # axis 0 add the rows in order, act[0] + act[1] + ... + act[4]
    np.add.reduce(act, axis=0, out=stat)
    stat /= N_HIDDEN
    act -= stat  # centred
    np.multiply(act, act, out=tmp)
    np.add.reduce(tmp, axis=0, out=stat)
    stat /= N_HIDDEN
    stat += LN_EPS
    np.sqrt(stat, out=stat)
    np.divide(1.0, stat, out=stat)  # inv_std
    act *= stat  # normed
    # logit = sum_h out_w*(gain*normed + bias) + out_b = a @ normed + c0
    np.multiply(out_w, gain, out=a)
    np.matmul(a, act, out=u)
    np.add(u, float(out_w @ bias) + out_b[0], out=z)
    return z


def _nn_kernel(theta, x, y, n, l2, g, work) -> None:
    w, gain, bias, out_w, _ = work.bind(theta)
    g_w, g_gain, g_bias, g_out_w, g_out_b = work.bind(g)
    z = _nn_forward(theta, x, work)
    vec, act, tmp, live = work.block(x.shape[0])
    stat, u = vec[4], vec[5]
    a, centred, centred_col, normed_d, term, l2_w = work.units
    d = _bce_head(z, y, n, vec)

    sum_d = d.sum()
    np.matmul(act, d, out=normed_d)
    g_out_b[0] = sum_d
    np.multiply(out_w, normed_d, out=g_gain)
    np.multiply(out_w, sum_d, out=g_bias)
    # out_w's gradient: gain * normed_d + bias * sum_d + l2 * out_w
    np.multiply(gain, normed_d, out=g_out_w)
    np.multiply(bias, sum_d, out=term)
    g_out_w += term
    np.multiply(l2, out_w, out=term)
    g_out_w += term
    # layer-norm backward with dnormed = d*a: per row,
    # dhidden = inv_std*d * ((a - mean(a)) - normed * (a @ normed)/5),
    # written over the normed activations, which nothing reads after it
    np.subtract(a, a.sum() / N_HIDDEN, out=centred)  # a.sum() / 5 is a.mean(), bit for bit
    u /= N_HIDDEN
    act *= u
    np.subtract(centred_col, act, out=act)
    stat *= d
    act *= stat
    # ReLU, by the mask as 0.0 and 1.0: a product of a float and a boolean
    # array would cast through a buffer numpy allocates on every call
    np.copyto(tmp, live)
    act *= tmp
    np.matmul(act, x, out=g_w)
    np.multiply(l2, w, out=l2_w)
    g_w += l2_w


_KERNELS = {ModelKind.LOGISTIC_REGRESSION: _lr_kernel, ModelKind.FEEDFORWARD_NN: _nn_kernel}
# the weight matrices the L2 penalty covers; biases and gains are not penalized
_PENALIZED = {
    ModelKind.LOGISTIC_REGRESSION: ("coef",),
    ModelKind.FEEDFORWARD_NN: ("hidden_w", "out_w"),
}


def _loss_sum(y, work) -> float:
    """The summed BCE of the block a kernel just ran on, from the logits it
    left in ``vec[3]`` and e = exp(-|z|) in ``vec[0]``, with
    softplus(z) - y*z = max(z, 0) + log1p(e) - y*z."""
    vec = work.block(y.shape[0])[0]
    e, t, z = vec[0], vec[1], vec[3]
    np.log1p(e, out=t)
    loss_sum = float(t.sum())
    np.maximum(z, 0.0, out=t)
    return loss_sum + (float(t.sum()) - float(y @ z))


def predict_batch(kind: ModelKind, theta, data) -> np.ndarray:
    """Probabilities for the rows of ``data``, a CohortDataset or a feature
    matrix, from the kernels' forward pass run on row blocks of at most
    BLOCK_ROWS rows.  A dataset's blocks are written into one reused buffer."""
    kind = ModelKind(kind)
    theta = _theta(kind, theta)
    if isinstance(data, CohortDataset):
        x = None
        n = len(data)
        buf = np.empty((min(n, BLOCK_ROWS), N_FEATURES))
    else:
        x = np.asarray(data, dtype=np.float64)
        if x.size == 0:
            return np.zeros(0, dtype=np.float64)
        x = x.reshape(-1, N_FEATURES)
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite feature value")
        n = x.shape[0]
    forward = _lr_forward if kind is ModelKind.LOGISTIC_REGRESSION else _nn_forward
    work = Workspace(kind, n)
    out = np.empty(n)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        xb = x[start:stop] if x is not None else data.write_rows(slice(start, stop), buf[: stop - start])
        out[start:stop] = _sigmoid(forward(theta, xb, work))
    return out


def loss_and_grad(
    kind: ModelKind,
    theta,
    x: np.ndarray,
    y: np.ndarray,
    l2: float = 0.0,
    work: Workspace | None = None,
    rows: np.ndarray | None = None,
):
    """Objective value and its gradient in θ's layout.

    Objective: mean BCE over the batch + (l2/2) * squared norm of the weight
    matrices (coef / hidden_w / out_w; biases and gains are not penalized).

    The batch is the feature matrix x and the labels y, or with ``rows``
    the rows of the CohortDataset x that they pick (each in range), with
    their labels; y is then unused.  It is taken in blocks of at most
    BLOCK_ROWS rows, so no BLAS call sees more rows than that: the first
    block's kernel writes the gradient, with the L2 term, and each later
    block's share is added to it.  Blocks of ``rows`` are written by
    ``x.write_rows`` into the buffers of ``work``, which must have been made
    with ``gather``.

    Without ``work``, a Workspace is allocated for the batch and the result
    is ``(objective, grad)``.  With ``work`` (as ``train_local`` passes), the
    gradient is ``work.grad``, overwritten by the next call, and the
    objective is not computed: it comes back as None.
    """
    kind = ModelKind(kind)
    if rows is None:
        x = np.asarray(x, dtype=np.float64).reshape(-1, N_FEATURES)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = x.shape[0] if rows is None else rows.size
    if n == 0:
        raise ValueError("empty batch")
    with_objective = work is None
    if with_objective:
        theta = _theta(kind, theta)
        work = Workspace(kind, n, gather=rows is not None)
    kernel = _KERNELS[kind]
    loss_sum = 0.0
    for start in range(0, n, BLOCK_ROWS):
        stop = start + BLOCK_ROWS  # slicing stops at the batch's end
        if rows is None:
            xb, yb = x[start:stop], y[start:stop]
        else:
            idx = rows[start:stop]
            yb = work.y[: idx.size]
            xb = x.write_rows(idx, work.x[: idx.size], yb)
        if start == 0:
            kernel(theta, xb, yb, n, l2, work.grad, work)
        else:
            kernel(theta, xb, yb, n, 0.0, work.part, work)
            work.grad += work.part
        if with_objective:
            loss_sum += _loss_sum(yb, work)
    if not with_objective:
        return None, work.grad
    s = SLICES[kind]
    penalty = sum(float(theta[s[name]] @ theta[s[name]]) for name in _PENALIZED[kind])
    return loss_sum / n + 0.5 * l2 * penalty, work.grad


def train_local(kind: ModelKind, theta, train, cfg: TrainConfig):
    """SGD for ``cfg.local_epochs`` epochs over ``train``.

    When one batch covers the training set (n <= batch_size), every epoch
    is one full-batch step on the rows in their stored order: a shuffle
    would only reorder the gradient sums.  Those steps read one column-major
    float64 copy of the rows, written once per call by ``train.write_rows``,
    so both BLAS products in the kernels walk contiguous feature columns,
    and its row blocks are slices of that copy.  Otherwise the data is
    reshuffled each epoch with a generator seeded from cfg.seed, and each
    minibatch block is written from the permutation into a row-major block
    buffer.  Either way, identical (seed, data, config) reproduce
    bitwise-identical parameters.  Returns the trained θ, a new vector, and
    a TrainStats with the step count the DP filter needs for normalization.
    """
    kind = ModelKind(kind)
    n = len(train)
    if n == 0:
        raise ValueError("empty training set")
    theta = _theta(kind, theta).copy()

    t0 = time.monotonic()
    work = Workspace(kind, min(n, cfg.batch_size), gather=n > cfg.batch_size)
    steps = 0
    if n <= cfg.batch_size:
        x_cols = train.write_rows(slice(None), np.empty((n, N_FEATURES), order="F"))
        y = train.labels.astype(np.float64)
        for _ in range(cfg.local_epochs):
            _, grad = loss_and_grad(kind, theta, x_cols, y, cfg.l2_penalty, work)
            theta -= cfg.learning_rate * grad
            steps += 1
    else:
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.local_epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                _, grad = loss_and_grad(kind, theta, train, None, cfg.l2_penalty, work, idx)
                theta -= cfg.learning_rate * grad
                steps += 1
    return theta, TrainStats(steps=steps, wall_time=time.monotonic() - t0)
