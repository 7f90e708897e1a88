import math
import tracemalloc

import numpy as np
import pytest
from oracles import loss_and_grad_oracle, nn_forward_oracle, numeric_gradient
from test_golden import TINY, report_fingerprint

from privfed import learners
from privfed.data import CohortDataset
from privfed.learners import (
    SLICES,
    ModelKind,
    TrainConfig,
    Workspace,
    init_params,
    loss_and_grad,
    predict_batch,
    train_local,
)


def toy_dataset(n=100, seed=0, separation=2.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = rng.normal(size=(n, 10))
    x[:half, 0] -= separation
    x[half:, 0] += separation
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    return CohortDataset(x, y)


def predict_row(kind, params, row) -> float:
    """The predicted probability for one feature row, as a one-row batch."""
    return float(predict_batch(kind, params, np.asarray(row, dtype=np.float64)[None])[0])


NN_SLICES = SLICES[ModelKind.FEEDFORWARD_NN]


def hidden_w(theta):
    return theta[NN_SLICES["hidden_w"]].reshape(5, 10)


class TestInit:
    def test_lr_all_zeros(self):
        assert np.all(init_params(ModelKind.LOGISTIC_REGRESSION, seed=5) == 0.0)

    def test_nn_biases_exactly_zero(self):
        theta = init_params(ModelKind.FEEDFORWARD_NN, seed=5)
        assert np.all(theta[NN_SLICES["ln_bias"]] == 0.0)
        assert np.all(theta[NN_SLICES["out_b"]] == 0.0)

    def test_nn_gain_is_one(self):
        theta = init_params(ModelKind.FEEDFORWARD_NN, seed=5)
        assert np.all(theta[NN_SLICES["ln_gain"]] == 1.0)

    def test_nn_xavier_bounds(self):
        # fan_in 10, fan_out 5 -> bound sqrt(6/15)
        bound = math.sqrt(6.0 / 15.0)
        for seed in range(10):
            w = hidden_w(init_params(ModelKind.FEEDFORWARD_NN, seed))
            assert np.all(np.abs(w) <= bound)

    def test_deterministic(self):
        a = init_params(ModelKind.FEEDFORWARD_NN, seed=99)
        b = init_params(ModelKind.FEEDFORWARD_NN, seed=99)
        assert np.array_equal(a, b)

    def test_param_counts(self):
        assert init_params(ModelKind.FEEDFORWARD_NN, 0).shape == (66,)
        assert init_params(ModelKind.LOGISTIC_REGRESSION, 0).shape == (11,)


class TestForward:
    def test_lr_zero_params_give_half(self):
        ps = init_params(ModelKind.LOGISTIC_REGRESSION, 0)
        assert predict_row(ModelKind.LOGISTIC_REGRESSION, ps, np.ones(10)) == 0.5

    def test_lr_zero_dot_product(self):
        ps = np.zeros(11)
        ps[0] = 1.0  # coef[0]
        x = np.zeros(10)
        assert predict_row(ModelKind.LOGISTIC_REGRESSION, ps, x) == 0.5

    def test_nn_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            ps = init_params(ModelKind.FEEDFORWARD_NN, seed=trial)
            x = rng.normal(size=10)
            got = predict_row(ModelKind.FEEDFORWARD_NN, ps, x)
            want = nn_forward_oracle(ps, x)
            assert got == pytest.approx(want, abs=1e-12)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(1)
        ps = init_params(ModelKind.FEEDFORWARD_NN, 1)
        for _ in range(20):
            p = predict_row(ModelKind.FEEDFORWARD_NN, ps, rng.normal(size=10) * 10)
            assert 0.0 < p < 1.0

    def test_nonfinite_input_rejected(self):
        ps = init_params(ModelKind.LOGISTIC_REGRESSION, 0)
        with pytest.raises(ValueError):
            predict_row(ModelKind.LOGISTIC_REGRESSION, ps, [np.nan] + [0.0] * 9)


class TestPredictBatch:
    def test_empty(self):
        ps = init_params(ModelKind.LOGISTIC_REGRESSION, 0)
        assert predict_batch(ModelKind.LOGISTIC_REGRESSION, ps, np.zeros((0, 10))).size == 0

    def test_singleton(self):
        # a bare feature vector is one row
        ps = init_params(ModelKind.FEEDFORWARD_NN, 0)
        x = np.random.default_rng(0).normal(size=(1, 10))
        out = predict_batch(ModelKind.FEEDFORWARD_NN, ps, x[0])
        assert out.shape == (1,)
        assert out[0] == predict_batch(ModelKind.FEEDFORWARD_NN, ps, x)[0]


class TestBlockedPrediction:
    """Prediction runs the kernels' forward pass on row blocks of at most
    BLOCK_ROWS rows, here patched down to 64."""

    BLOCK = 64

    @pytest.fixture
    def forward_calls(self, monkeypatch):
        """(forward's name, rows) of each call of either forward pass."""
        monkeypatch.setattr(learners, "BLOCK_ROWS", self.BLOCK)
        calls = []
        for name in ("_lr_forward", "_nn_forward"):

            def spy(theta, x, work, name=name, forward=getattr(learners, name)):
                calls.append((name, x.shape[0]))
                return forward(theta, x, work)

            monkeypatch.setattr(learners, name, spy)
        return calls

    @staticmethod
    def closed_form(kind, theta, x):
        if kind is ModelKind.FEEDFORWARD_NN:
            return np.array([nn_forward_oracle(theta, row) for row in x])
        coef, intercept = theta[:10], theta[10]
        logits = [sum(c * v for c, v in zip(coef, row)) + intercept for row in x]
        return np.array([1.0 / (1.0 + math.exp(-z)) for z in logits])

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_blocks_match_closed_form(self, kind, forward_calls):
        # 331 rows: five 64-row blocks and an 11-row one
        rng = np.random.default_rng(7)
        params = random_params(kind, rng, 7)
        x = rng.normal(size=(331, 10))
        got = predict_batch(kind, params, x)
        assert np.max(np.abs(got - self.closed_form(kind, params, x))) <= 1e-12
        assert [rows for _, rows in forward_calls] == [64] * 5 + [11]

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_training_and_prediction_share_one_forward(self, kind, forward_calls):
        rng = np.random.default_rng(9)
        params = random_params(kind, rng, 9)
        x = rng.normal(size=(331, 10))
        loss_and_grad(kind, params, x, rng.integers(0, 2, 331), 1e-3)
        trained = list(forward_calls)
        forward_calls.clear()
        predict_batch(kind, params, x)
        name = "_lr_forward" if kind is ModelKind.LOGISTIC_REGRESSION else "_nn_forward"
        assert trained == forward_calls == [(name, rows) for rows in [64] * 5 + [11]]


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", 0.0, "learning_rate must be positive"),
            ("batch_size", 0, "batch_size must be positive"),
            ("local_epochs", -1, "local_epochs must be nonnegative"),
            ("l2_penalty", -1e-3, "l2_penalty must be nonnegative"),
        ],
        ids=["learning_rate", "batch_size", "local_epochs", "l2_penalty"],
    )
    def test_refuses_out_of_range(self, field, value, message):
        settings = {"learning_rate": 0.1, "batch_size": 10, "local_epochs": 1, field: value}
        with pytest.raises(ValueError, match=message):
            TrainConfig(**settings)


class TestTraining:
    def test_zero_epochs_is_noop(self):
        ds = toy_dataset()
        ps = init_params(ModelKind.LOGISTIC_REGRESSION, 0)
        cfg = TrainConfig(learning_rate=0.1, batch_size=10, local_epochs=0, seed=1)
        out, stats = train_local(ModelKind.LOGISTIC_REGRESSION, ps, ds, cfg)
        assert np.array_equal(out, ps) and out is not ps
        assert stats.steps == 0

    def test_step_count(self):
        ds = toy_dataset(n=100)
        cfg = TrainConfig(learning_rate=0.1, batch_size=30, local_epochs=2, seed=1)
        ps = init_params(ModelKind.LOGISTIC_REGRESSION, 0)
        _, stats = train_local(ModelKind.LOGISTIC_REGRESSION, ps, ds, cfg)
        assert stats.steps == 8  # 2 * ceil(100/30)

    def test_loss_decreases_on_separable_data(self):
        ds = toy_dataset(n=200, separation=3.0)
        ps = init_params(ModelKind.LOGISTIC_REGRESSION, 0)
        cfg = TrainConfig(learning_rate=0.5, batch_size=200, local_epochs=50, seed=3)
        losses = []
        current = ps
        for _ in range(50):
            loss, grad = loss_and_grad(
                ModelKind.LOGISTIC_REGRESSION, current, ds.features, ds.labels
            )
            losses.append(loss)
            current = current - cfg.learning_rate * grad
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_deterministic_training(self):
        ds = toy_dataset()
        cfg = TrainConfig(learning_rate=0.05, batch_size=32, local_epochs=3, seed=11)
        ps = init_params(ModelKind.FEEDFORWARD_NN, 2)
        a, _ = train_local(ModelKind.FEEDFORWARD_NN, ps, ds, cfg)
        b, _ = train_local(ModelKind.FEEDFORWARD_NN, ps, ds, cfg)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_partial_last_batch_matches_oracle_sgd(self, kind):
        # 103 rows in batches of 25: each epoch ends on a 3-row batch served
        # from the leading part of train_local's work arrays
        ds = toy_dataset(n=103)
        cfg = TrainConfig(learning_rate=0.1, batch_size=25, local_epochs=3, l2_penalty=1e-3, seed=4)
        ps = random_params(kind, np.random.default_rng(8), 8)
        out, stats = train_local(kind, ps, ds, cfg)
        theta = ps
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.local_epochs):
            order = rng.permutation(103)
            for start in range(0, 103, 25):
                idx = order[start : start + 25]
                _, g = loss_and_grad_oracle(kind, theta, ds.features[idx], ds.labels[idx], cfg.l2_penalty)
                theta = theta - cfg.learning_rate * g
        assert stats.steps == 15
        assert np.max(np.abs(out - theta)) <= 1e-12 * np.max(np.abs(theta))

    def test_empty_dataset_rejected(self):
        ds = CohortDataset(np.zeros((0, 10)), np.zeros(0, dtype=int))
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, local_epochs=1, seed=0)
        with pytest.raises(ValueError):
            train_local(ModelKind.LOGISTIC_REGRESSION, init_params(ModelKind.LOGISTIC_REGRESSION, 0), ds, cfg)


class TestFullBatch:
    """When one batch covers the training set, each epoch is one full-batch
    step on the rows in their stored order."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("epochs", [1, 2, 20])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_matches_in_order_gradient_descent_oracle(self, kind, epochs, order):
        ds = toy_dataset(n=103)
        ds = CohortDataset(np.asarray(ds.features, order=order), ds.labels)
        ps = random_params(kind, np.random.default_rng(8), 8)
        for batch_size in (103, 20000):  # exactly one batch, and room to spare
            cfg = TrainConfig(0.1, batch_size, epochs, l2_penalty=1e-3, seed=4)
            out, stats = train_local(kind, ps, ds, cfg)
            theta = ps
            for _ in range(epochs):
                _, g = loss_and_grad_oracle(kind, theta, ds.features, ds.labels, cfg.l2_penalty)
                theta = theta - cfg.learning_rate * g
            assert stats.steps == cfg.local_epochs
            assert np.max(np.abs(out - theta)) <= 1e-12 * np.max(np.abs(theta))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_every_step_reads_one_column_major_copy(self, kind, monkeypatch):
        # the copy is made once per call; the kernels see it as is, never a
        # per-step copy, and the shuffle seed plays no part
        seen = []
        kernel = learners._KERNELS[kind]

        def spy(theta, x, *rest):
            seen.append(x)
            kernel(theta, x, *rest)

        monkeypatch.setitem(learners._KERNELS, kind, spy)
        ds = toy_dataset(n=50)
        ps = random_params(kind, np.random.default_rng(3), 3)
        out, stats = train_local(kind, ps, ds, TrainConfig(0.1, 64, 5, seed=1))
        assert stats.steps == len(seen) == 5
        assert seen[0].flags.f_contiguous and not seen[0].flags.c_contiguous
        assert np.array_equal(seen[0], ds.features)
        assert all(x.base is seen[0].base and x.ctypes.data == seen[0].ctypes.data for x in seen)
        other, _ = train_local(kind, ps, ds, TrainConfig(0.1, 64, 5, seed=2))
        assert np.array_equal(other, out)


class TestRowBlocks:
    """Every step is a sum over row blocks of at most BLOCK_ROWS rows, here
    patched down to 64 so small batches span several blocks."""

    BLOCK = 64

    @pytest.fixture
    def block_calls(self, monkeypatch):
        """Per step, the row count of each kernel call; the first block of a
        step is the one that writes ``work.grad``."""
        monkeypatch.setattr(learners, "BLOCK_ROWS", self.BLOCK)
        steps = []
        for kind, kernel in list(learners._KERNELS.items()):

            def spy(theta, x, y, n, l2, g, work, kernel=kernel):
                if g is work.grad:
                    steps.append([])
                steps[-1].append((x.shape[0], n))
                kernel(theta, x, y, n, l2, g, work)

            monkeypatch.setitem(learners._KERNELS, kind, spy)
        return steps

    def check_blocks(self, steps, batch_sizes):
        assert [sum(rows for rows, _ in step) for step in steps] == batch_sizes
        assert all(n == sum(rows for rows, _ in step) for step in steps for _, n in step)
        assert max(rows for step in steps for rows, _ in step) <= self.BLOCK
        assert any(len(step) > 1 and step[-1][0] < self.BLOCK for step in steps)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_allocating_step_matches_oracle(self, kind, block_calls):
        rng = np.random.default_rng(12)
        params = random_params(kind, rng, 12)
        x = rng.normal(size=(300, 10))
        y = rng.integers(0, 2, 300)
        loss, grad = loss_and_grad(kind, params, x, y, 1e-3)
        want_loss, want_grad = loss_and_grad_oracle(kind, params, x, y, 1e-3)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
        self.check_blocks(block_calls, [300])

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_full_batch_steps_match_oracle(self, kind, block_calls):
        # 300 rows: four 64-row blocks and a 44-row one per step
        ds = toy_dataset(n=300)
        ps = random_params(kind, np.random.default_rng(8), 8)
        cfg = TrainConfig(0.1, 300, 3, l2_penalty=1e-3, seed=4)
        out, _ = train_local(kind, ps, ds, cfg)
        theta = ps
        for _ in range(cfg.local_epochs):
            _, g = loss_and_grad_oracle(kind, theta, ds.features, ds.labels, cfg.l2_penalty)
            theta = theta - cfg.learning_rate * g
        assert np.max(np.abs(out - theta)) <= 1e-12 * np.max(np.abs(theta))
        self.check_blocks(block_calls, [300] * 3)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_minibatch_steps_match_oracle(self, kind, block_calls):
        # 331 rows in batches of 150 (two 64-row blocks and a 22-row one)
        # and a last batch of 31 rows, one partial block
        ds = toy_dataset(n=331)
        ps = random_params(kind, np.random.default_rng(8), 8)
        cfg = TrainConfig(0.1, 150, 2, l2_penalty=1e-3, seed=4)
        out, stats = train_local(kind, ps, ds, cfg)
        theta = ps
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.local_epochs):
            order = rng.permutation(331)
            for start in range(0, 331, 150):
                idx = order[start : start + 150]
                _, g = loss_and_grad_oracle(kind, theta, ds.features[idx], ds.labels[idx], cfg.l2_penalty)
                theta = theta - cfg.learning_rate * g
        assert stats.steps == 6
        assert np.max(np.abs(out - theta)) <= 1e-12 * np.max(np.abs(theta))
        self.check_blocks(block_calls, [150, 150, 31] * 2)


def test_minibatch_run_fingerprint_is_pinned():
    # every site has more training rows than its 500-row batch (the smallest
    # has 1,096), so each site takes the shuffled minibatch path, the one a
    # full-scale run takes; its numerics equal those of the commit before the
    # full-batch path, bit for bit
    overrides = ["privacy.mode=plain", *TINY, "batch_size=500", "site_batch_sizes={}"]
    fingerprint = "bbea691398ced3e0961bfc2901be9e5a2afffa32e6552c336d1fbc4db51ecbaf"
    assert report_fingerprint(overrides) == fingerprint


def random_params(kind, rng, seed, out_b=0.0):
    """init_params perturbed so no tensor sits at its initial constant;
    ``out_b`` (or the LR intercept) shifts every logit."""
    theta = init_params(kind, seed)
    theta = theta + rng.normal(scale=0.5, size=theta.size)
    theta[-1] = out_b + rng.normal(scale=0.5)
    return theta


def dead_relu_rows(theta, count):
    """Rows whose five pre-activations are all -1, so every ReLU is off."""
    v = np.linalg.lstsq(hidden_w(theta), np.ones(5), rcond=None)[0]
    return np.tile(-v, (count, 1))


class TestKernelsMatchOracle:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_loss_and_gradient_match_straight_line_oracle(self, kind):
        rng = np.random.default_rng(31)
        extreme = 0
        for probe in range(24):
            n = (1, 7, 257, 1000)[probe % 4]
            out_b = (0.0, 45.0, -45.0)[probe % 3]
            params = random_params(kind, rng, probe, out_b)
            x = rng.normal(size=(n, 10)) * rng.choice([0.1, 1.0, 30.0], size=(n, 1))
            if kind is ModelKind.FEEDFORWARD_NN and n > 1:
                x[: n // 3] = dead_relu_rows(params, n // 3)
                assert np.all(x[: n // 3] @ hidden_w(params).T < 0)
            p = predict_batch(kind, params, x)
            extreme += int(np.sum((p < 4e-18) | (p == 1.0)))  # |logit| > 40
            y = rng.integers(0, 2, n)
            l2 = (0.0, 1e-4, 0.1)[probe % 3]
            loss, grad = loss_and_grad(kind, params, x, y, l2)
            want_loss, want_grad = loss_and_grad_oracle(kind, params, x, y, l2)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss), probe
            assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad)), probe
        assert extreme > 100

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_workspace_path_equals_allocating_path(self, kind):
        # a workspace sized for more rows than the batch serves it from the
        # leading part of each buffer, as train_local's partial last batch does
        rng = np.random.default_rng(5)
        params = random_params(kind, rng, 5)
        work = Workspace(kind, 300)
        for n in (300, 113, 1):
            x = rng.normal(size=(n, 10))
            y = rng.integers(0, 2, n)
            _, want_grad = loss_and_grad(kind, params, x, y, 1e-4)
            _, grad = loss_and_grad(kind, params, x, y, 1e-4, work)
            assert np.array_equal(grad, want_grad)


class TestWorkspaceBinding:
    """A Workspace binds each vector's tensor views and each block size's
    views once; reusing it must give what a fresh one gives, bit for bit."""

    @staticmethod
    def batch(rng, n):
        return np.asfortranarray(rng.normal(size=(n, 10))), rng.integers(0, 2, n).astype(np.float64)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_second_theta_vector(self, kind):
        rng = np.random.default_rng(21)
        x, y = self.batch(rng, 200)
        work = Workspace(kind, 200)
        for seed in (1, 2):
            theta = random_params(kind, rng, seed)
            _, grad = loss_and_grad(kind, theta, x, y, 1e-3, work)
            _, want = loss_and_grad(kind, theta, x, y, 1e-3, Workspace(kind, 200))
            assert grad.tobytes() == want.tobytes()
        # θ updated in place, as train_local updates it, is read afresh
        theta -= 0.1 * grad
        _, grad = loss_and_grad(kind, theta, x, y, 1e-3, work)
        _, want = loss_and_grad(kind, theta, x, y, 1e-3, Workspace(kind, 200))
        assert grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_grad_and_part_swapped(self, kind, monkeypatch):
        # 150 rows in 64-row blocks, so the later blocks write ``part``
        monkeypatch.setattr(learners, "BLOCK_ROWS", 64)
        rng = np.random.default_rng(22)
        x, y = self.batch(rng, 150)
        theta = random_params(kind, rng, 3)
        work = Workspace(kind, 150)
        loss_and_grad(kind, theta, x, y, 1e-3, work)
        work.grad, work.part = work.part, work.grad
        _, grad = loss_and_grad(kind, theta, x, y, 1e-3, work)
        _, want = loss_and_grad(kind, theta, x, y, 1e-3, Workspace(kind, 150))
        assert grad is work.grad
        assert grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_two_block_sizes(self, kind):
        rng = np.random.default_rng(23)
        theta = random_params(kind, rng, 4)
        work = Workspace(kind, 300)
        for n in (300, 77, 300, 77):
            x, y = self.batch(rng, n)
            _, grad = loss_and_grad(kind, theta, x, y, 1e-3, work)
            _, want = loss_and_grad(kind, theta, x, y, 1e-3, Workspace(kind, n))
            assert grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_warm_step_allocates_nothing_row_sized(self, kind):
        # The same bound holds at 64 and at 6,688 rows, where one float64
        # temporary of a block's length takes 53,504 B; it leaves room for
        # small objects and for the buffer numpy may give a short broadcast
        # operand (5 x 64 values at 64 rows, none at 6,688).
        bound = 16 * 1024
        rng = np.random.default_rng(24)
        theta = random_params(kind, rng, 5)
        for n in (64, 6688):
            x, y = self.batch(rng, n)
            work = Workspace(kind, n)
            loss_and_grad(kind, theta, x, y, 1e-3, work)  # binds θ, grad and the block size
            tracemalloc.start()
            try:
                loss_and_grad(kind, theta, x, y, 1e-3, work)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound, (n, peak)


class TestGradientCheck:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_gradient_matches_central_differences(self, kind):
        # n > 1 checks the batch mean and the layer-norm reductions over rows
        rng = np.random.default_rng(2024)
        for n in (1, 7, 257):
            for probe in range(20):
                ps = init_params(kind, seed=probe + 1)
                if kind is ModelKind.LOGISTIC_REGRESSION:
                    ps = np.concatenate([rng.normal(scale=0.5, size=10), rng.normal(size=1)])
                x = rng.normal(size=(n, 10))
                y = (np.arange(n) + probe) % 2
                _, analytic = loss_and_grad(kind, ps, x, y, l2=1e-4)
                numeric = numeric_gradient(kind, ps, x, y, l2=1e-4)
                denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
                assert np.linalg.norm(analytic - numeric) / denom < 1e-4, (n, probe)
