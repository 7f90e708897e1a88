"""Independent reference implementations shared by the unit and acceptance
suites.  These stay deliberately naive (scalar loops, O(n^2) counting,
straight-line pipelines) so they cannot share bugs with the vectorized
production paths they check."""

import math
import struct
import threading

import numpy as np

from privfed import transport as tr
from privfed.data import AGE_MEAN, AGE_RANGE, AGE_STD, FEATURE_NAMES, INDICATOR_PREVALENCE
from privfed.data import CohortDataset, scaled_counts
from privfed.federation import FederationClient, FederationServer, build_site_datasets
from privfed.learners import LN_EPS, ModelKind
from privfed.seeds import derive_seed


def _lr_tensors(theta):
    """The 11-value LR θ at literal offsets: coef, then the intercept."""
    theta = np.asarray(theta, dtype=np.float64)
    assert theta.shape == (11,)
    return theta[0:10], theta[10]


def _nn_tensors(theta):
    """The 66-value network θ at literal offsets: hidden_w (5 x 10,
    row-major), ln_gain, ln_bias, out_w, then out_b."""
    theta = np.asarray(theta, dtype=np.float64)
    assert theta.shape == (66,)
    return theta[0:50].reshape(5, 10), theta[50:55], theta[55:60], theta[60:65], theta[65]


def nn_forward_oracle(theta, x):
    """Scalar reimplementation of the 66-parameter network forward pass."""
    w, gain, bias, out_w, out_b = _nn_tensors(theta)
    hidden = [max(0.0, sum(w[h][d] * x[d] for d in range(10))) for h in range(5)]
    mean = sum(hidden) / 5.0
    var = sum((h - mean) ** 2 for h in hidden) / 5.0
    z = [(h - mean) / math.sqrt(var + LN_EPS) * g + b for h, g, b in zip(hidden, gain, bias)]
    logit = sum(u * zi for u, zi in zip(out_w, z)) + out_b
    return 1.0 / (1.0 + math.exp(-logit))


def _sigmoid_oracle(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def loss_and_grad_oracle(kind, theta, x, y, l2):
    """Straight-line (batch-major, one temporary per step) objective and
    gradient of both learners, the form the production kernels replaced;
    returns the loss and the gradient in θ's layout."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 10)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    if ModelKind(kind) is ModelKind.LOGISTIC_REGRESSION:
        coef, intercept = _lr_tensors(theta)
        logits = x @ coef + intercept
        dlogit = (_sigmoid_oracle(logits) - y) / n
        grad = np.concatenate([x.T @ dlogit + l2 * coef, [dlogit.sum()]])
        penalty = coef @ coef
    else:
        w, gain, bias, out_w, out_b = _nn_tensors(theta)
        pre = x @ w.T
        hidden = np.maximum(pre, 0.0)
        mean = hidden.mean(axis=1, keepdims=True)
        var = hidden.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LN_EPS)
        normed = (hidden - mean) * inv_std
        z = normed * gain + bias
        logits = z @ out_w + out_b
        dlogit = (_sigmoid_oracle(logits) - y) / n
        dz = np.outer(dlogit, out_w)
        dnormed = dz * gain
        dmean = dnormed.mean(axis=1, keepdims=True)
        dproj = (dnormed * normed).mean(axis=1, keepdims=True)
        dpre = inv_std * (dnormed - dmean - normed * dproj) * (pre > 0)
        grad = np.concatenate(
            [
                (dpre.T @ x + l2 * w).reshape(-1),
                (dz * normed).sum(axis=0),
                dz.sum(axis=0),
                z.T @ dlogit + l2 * out_w,
                [dlogit.sum()],
            ]
        )
        penalty = np.sum(w * w) + out_w @ out_w
    loss = np.mean((1.0 - y) * logits + np.logaddexp(0.0, -logits)) + 0.5 * l2 * penalty
    return float(loss), grad


def numeric_gradient(kind, theta, x, y, l2, h=1e-6):
    """Central finite differences through the full training objective."""
    from privfed.learners import loss_and_grad

    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        lu, _ = loss_and_grad(kind, up, x, y, l2)
        ld, _ = loss_and_grad(kind, down, x, y, l2)
        grad[i] = (lu - ld) / (2 * h)
    return grad


def svt_reference(delta, steps, cfg, rng):
    """Straight-line SVT pipeline consuming the generator in the documented
    order: one threshold draw, n query draws, then one value draw per
    accepted index.

    The inverse-CDF draw uses numpy's log1p: libm's scalar log1p differs
    from numpy's in the last ulp for some inputs, and the oracle checks the
    pipeline bit for bit, not the libm rounding."""
    n = len(delta)
    x = [min(max(d / steps, -cfg.gamma), cfg.gamma) for d in delta]
    lam = 2.0 * cfg.gamma / cfg.epsilon

    def lap(scale):
        u = rng.uniform(-0.5, 0.5)
        return float(-scale * np.sign(u) * np.log1p(-2.0 * abs(u)))

    threshold = cfg.tau + lap(lam)
    queries = [abs(xi) + lap(2.0 * lam) for xi in x]
    cap = math.ceil(cfg.fraction * n)
    accepted = []
    for i in range(n):
        if queries[i] >= threshold:
            accepted.append(i)
            if len(accepted) >= cap:
                break
    y = [0.0] * n
    b_v = math.sqrt(cfg.noise_var / 2.0)
    for i in accepted:
        y[i] = min(max(x[i] + lap(b_v), -cfg.gamma), cfg.gamma)
    return np.array([v * steps for v in y])


def generate_site_oracle(spec, site, rng):
    """Whole-batch rejection generator: each pass draws every row's features
    at once (a normal age column, then nine uniform indicator columns), then
    one uniform per row for its label.  Accepted rows fill the negatives'
    and positives' buckets in draw order until both are full; the shuffle
    permutation then interleaves the buckets."""
    want = scaled_counts(site, spec.scale_factor)
    total = sum(want)
    batch = max(4096, total)
    beta = np.asarray(spec.beta, dtype=np.float64)
    buckets = ([], [])
    held = [0, 0]
    while held != list(want):
        age = np.clip(rng.normal(AGE_MEAN, AGE_STD, batch), *AGE_RANGE)
        flags = [rng.uniform(0.0, 1.0, batch) < INDICATOR_PREVALENCE[name] for name in FEATURE_NAMES[1:]]
        u = rng.uniform(0.0, 1.0, batch)
        x = np.column_stack([age, *flags]).astype(np.float64)
        y = u < _sigmoid_oracle(x @ beta + spec.beta0)
        for cls in (0, 1):
            rows = x[y == cls][: want[cls] - held[cls]]
            buckets[cls].append(rows)
            held[cls] += len(rows)
    bucket_rows = np.concatenate(buckets[0] + buckets[1])
    order = np.random.default_rng(derive_seed(spec.seed, "shuffle", site.name)).permutation(total)
    return CohortDataset(bucket_rows[order], order >= want[0])


def auc_midrank_oracle(scores, labels):
    """Mann-Whitney AUC from a scalar midrank loop over the mergesort order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    u = float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auc_pairwise_oracle(scores, labels):
    """O(n^2) pairwise AUC count with half-credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def ternary_code_bytes(values) -> int:
    """The length of ``values``' DP ternary code after its count, worked out
    value by value: 8 bytes of c = max|yᵢ|, ⌈n/4⌉ of 2-bit codes, and 8 per
    value whose bits are not those of +0.0, +c or −c."""
    values = [float(v) for v in np.asarray(values, dtype=np.float64).reshape(-1)]
    c = max((abs(v) for v in values), default=0.0)
    short = {struct.pack("<d", x) for x in (0.0, c, -c)}
    literals = sum(struct.pack("<d", v) not in short for v in values)
    return 8 + math.ceil(len(values) / 4) + 8 * literals


def run_simulation_thread_per_client(cfg):
    """``run_simulation`` as a TCP deployment in one process: one thread per
    site runs ``FederationClient.run`` over a localhost socket, and the
    coordinator reads them as ``run_tcp_server`` does.  Only the transport
    and the schedule differ from the thread-free simulation, so the two
    reports agree outside timing fields.  Returns the report and, per site,
    the exception its session ended with (None if it ended with SHUTDOWN)."""
    datasets = build_site_datasets(cfg)
    listener = tr.TcpListener("127.0.0.1", 0)
    ended = {}

    def serve(name):
        channel = tr.open_tcp_channel("127.0.0.1", listener.port)
        try:
            FederationClient(cfg, name, *datasets[name]).run(channel)
            ended[name] = None
        except Exception as err:
            ended[name] = err
        finally:
            channel.close()

    threads = [threading.Thread(target=serve, args=(name,), daemon=True) for name in cfg.site_names()]
    for thread in threads:
        thread.start()
    channels = []
    try:
        for _ in threads:
            channels.append(listener.accept(timeout=cfg.timeout_seconds))
        server = FederationServer(cfg)
        server.accept_clients(channels, timeout=cfg.timeout_seconds)
        report = server.run()
    finally:
        for channel in channels:
            channel.close()
        listener.close()
    for thread in threads:
        thread.join(timeout=cfg.timeout_seconds)
        if thread.is_alive():
            raise RuntimeError("a client thread outlived the run")
    return report, ended
