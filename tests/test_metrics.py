import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import auc_midrank_oracle, auc_pairwise_oracle

from privfed.errors import MetricError
from privfed.metrics import (
    MetricSet,
    auc,
    evaluate_scores,
    summarize,
    summarize_metric_sets,
)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([0.5] * 10, [1, 0] * 5) == 0.5

    def test_matches_bruteforce_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(5, 300))
            scores = rng.choice([0.1, 0.2, 0.5, 0.7, 0.9], size=n)  # force ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pytest.approx(auc_pairwise_oracle(scores, labels), abs=1e-12)

    def test_bitwise_equal_to_midrank_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            scores = rng.choice(rng.uniform(size=int(rng.integers(1, 20))), size=n)
            if rng.uniform() < 0.3:
                scores[rng.uniform(size=n) < 0.1] = np.nan
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            assert auc(scores, labels) == auc_midrank_oracle(scores, labels)

    @pytest.mark.parametrize("n", [1000, 33000])
    def test_tie_heavy_scores_bitwise_equal_to_midrank_loop(self, n):
        # a few distinct scores in shuffled order, at sizes the default sort
        # orders unstably, with and without NaNs
        rng = np.random.default_rng(n)
        for with_nan in (False, True):
            scores = rng.permutation(np.repeat(rng.uniform(size=4), n // 4 + 1)[:n])
            if with_nan:
                scores[rng.uniform(size=n) < 0.05] = np.nan
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            assert auc(scores, labels) == auc_midrank_oracle(scores, labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=100)
        labels = rng.integers(0, 2, 100)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) == pytest.approx(auc(2 * scores + 1, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc([0.1, 0.9], [1, 1])


def rates(scores, labels, threshold):
    """(sensitivity, specificity) as ``evaluate_scores`` reports them."""
    m = evaluate_scores(scores, labels, threshold)
    return m.sensitivity, m.specificity


class TestSensSpec:
    def test_threshold_zero_all_positive(self):
        sens, _ = rates([0.2, 0.9, 0.4], [1, 1, 0], threshold=0.0)
        assert sens == 1.0

    def test_threshold_above_max(self):
        sens, spec = rates([0.2, 0.9, 0.4], [1, 1, 0], threshold=0.95)
        assert sens == 0.0 and spec == 1.0

    def test_hand_computed_case(self):
        scores = [0.9, 0.8, 0.4, 0.3, 0.2, 0.1]
        labels = [1, 1, 1, 0, 0, 0]
        sens, spec = rates(scores, labels, threshold=0.5)
        assert sens == pytest.approx(2 / 3)
        assert spec == 1.0

    def test_opposite_monotonicity_in_threshold(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=200)
        labels = rng.integers(0, 2, 200)
        labels[:2] = [0, 1]
        thresholds = np.linspace(0, 1.01, 30)
        sens = []
        spec = []
        for t in thresholds:
            s, p = rates(scores, labels, t)
            sens.append(s)
            spec.append(p)
        assert all(b <= a for a, b in zip(sens, sens[1:]))
        assert all(b >= a for a, b in zip(spec, spec[1:]))


class TestSummarize:
    def test_single_value_std_zero(self):
        assert summarize([0.7]) == (0.7, 0.0)

    def test_two_values(self):
        mean, std = summarize([0.6, 0.7])
        assert mean == pytest.approx(0.65)
        assert std == pytest.approx(0.07071067811865475)

    def test_order_invariance(self):
        assert summarize([0.1, 0.5, 0.9]) == summarize([0.9, 0.1, 0.5])

    def test_metric_set_summary(self):
        sets = [
            MetricSet(0.6, 0.2, 0.9, 10, 90, 0.5),
            MetricSet(0.7, 0.3, 0.8, 10, 90, 0.5),
        ]
        out = summarize_metric_sets(sets)
        assert out["auc_mean"] == pytest.approx(0.65)
        assert out["sensitivity_mean"] == pytest.approx(0.25)
        assert out["specificity_std"] == pytest.approx(summarize([0.9, 0.8])[1])


@given(
    st.lists(st.floats(0, 1, allow_nan=False), min_size=4, max_size=60),
    st.randoms(use_true_random=False),
)
@settings(max_examples=50, deadline=None)
def test_auc_rank_vs_bruteforce_property(scores, rnd):
    labels = [rnd.randint(0, 1) for _ in scores]
    if all(l == labels[0] for l in labels):
        labels[0] = 1 - labels[0]
    assert auc(scores, labels) == pytest.approx(auc_pairwise_oracle(scores, labels), abs=1e-12)


def test_evaluate_scores_counts():
    m = evaluate_scores([0.9, 0.1, 0.6], [1, 0, 0], threshold=0.5)
    assert (m.n_pos, m.n_neg) == (1, 2)
    assert m.threshold == 0.5


@pytest.mark.parametrize("seed", range(5))
def test_evaluate_scores_equals_the_public_metrics(seed):
    # one label check, then the same AUC as the checked public call and the
    # rates counted row by row
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 40, 2000) / 40.0  # many ties
    labels = (rng.random(2000) < 0.2).astype(np.int64)
    for threshold in (0.0, 0.5, 0.975, 1.0):
        m = evaluate_scores(scores, labels, threshold)
        tp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 1)
        tn = sum(1 for s, y in zip(scores, labels) if s < threshold and y == 0)
        sens, spec = tp / int(labels.sum()), tn / int((labels == 0).sum())
        assert (m.auc, m.sensitivity, m.specificity) == (auc(scores, labels), sens, spec)
        assert (m.n_pos, m.n_neg) == (int(labels.sum()), int((labels == 0).sum()))
