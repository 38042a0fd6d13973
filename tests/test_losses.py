import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrank.core import Permutation, permutation_from_scores
from depthrank.errors import InvalidInputError
from depthrank.losses import (
    IDENTITY_WEIGHTS,
    WeightConfig,
    _listnet,
    _pairwise_batch,
    listmle_loss,
    listnet_loss,
    pairwise_loss,
    plackett_luce_log_prob,
    position_weights,
    suffix_logsumexp,
    top_one_probabilities,
    weighted_listmle_loss,
)
from depthrank.metrics import ndcg
from depthrank.rng import SplitMix64

import oracles

LN2 = 0.6931471805599453

score_lists = st.lists(
    st.floats(min_value=-30, max_value=30, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=30,
)


def random_instance(rng, max_n=30):
    n = 1 + rng.below(max_n)
    pred = 3.0 * rng.normals(n)
    gt = 3.0 * rng.normals(n)
    return permutation_from_scores(gt), gt, pred


class TestPairwiseLoss:
    def test_symmetric_point(self):
        res = pairwise_loss(0.0, 0.0, 1)
        assert res.value == pytest.approx(LN2, abs=1e-15)
        assert res.grad.tolist() == [-0.5, 0.5]

    def test_tie_branch_at_equality(self):
        res = pairwise_loss(1.5, 1.5, 0)
        assert res.value == 0.0
        assert res.grad.tolist() == [0.0, 0.0]

    def test_wrong_order_value(self):
        # log(1 + e^2), frozen from a 50-digit evaluation
        assert pairwise_loss(2.0, 0.0, -1).value == pytest.approx(
            2.1269280110429724964, rel=1e-15
        )

    def test_tie_branch_is_squared_difference(self):
        res = pairwise_loss(3.0, 1.0, 0)
        assert res.value == 4.0
        assert res.grad.tolist() == [4.0, -4.0]

    @pytest.mark.parametrize("diff", [700.0, -700.0])
    def test_no_overflow_at_large_differences(self, diff):
        for r in (1, -1):
            res = pairwise_loss(diff, 0.0, r)
            assert math.isfinite(res.value)
            assert np.isfinite(res.grad).all()

    def test_rejects_bad_label(self):
        with pytest.raises(InvalidInputError):
            pairwise_loss(0.0, 1.0, 2)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            pairwise_loss(float("nan"), 1.0, 1)

    @given(
        st.floats(min_value=-40, max_value=40, allow_nan=False),
        st.floats(min_value=-40, max_value=40, allow_nan=False),
        st.sampled_from([1, -1, 0]),
        st.floats(min_value=-20, max_value=20, allow_nan=False),
    )
    def test_shift_invariance(self, zi, zj, r, c):
        a = pairwise_loss(zi, zj, r)
        b = pairwise_loss(zi + c, zj + c, r)
        assert b.value == pytest.approx(a.value, rel=1e-9, abs=1e-9)

    @given(
        st.floats(min_value=-20, max_value=20, allow_nan=False),
        st.floats(min_value=-20, max_value=20, allow_nan=False),
        st.sampled_from([1, -1, 0]),
    )
    def test_gradient_against_finite_differences(self, zi, zj, r):
        res = pairwise_loss(zi, zj, r)
        fd = oracles.fd_gradient(lambda v: pairwise_loss(v[0], v[1], r).value, [zi, zj])
        assert np.allclose(res.grad, fd, rtol=1e-5, atol=1e-5)


# Scores with ties, equal values and the +-700 ends of the stable range.
kernel_scores = st.one_of(
    st.sampled_from([-700.0, -1.5, 0.0, 1.5, 700.0]),
    st.floats(min_value=-700, max_value=700, allow_nan=False),
)


class TestKernelsMatchOracles:
    @given(kernel_scores, kernel_scores, st.sampled_from([1, -1, 0]))
    def test_pairwise_loss_matches_scalar_formula(self, zi, zj, r):
        res = pairwise_loss(zi, zj, r)
        value, grad = oracles.pairwise_scalar(zi, zj, r)
        assert res.value == pytest.approx(value, rel=1e-14, abs=1e-300)
        assert res.grad.tolist() == pytest.approx(grad, rel=1e-14, abs=1e-300)

    @given(
        st.lists(kernel_scores, min_size=6, max_size=6),
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 5), st.sampled_from([1, -1, 0])),
            min_size=1, max_size=12,
        ),
    )
    def test_pairwise_batch_is_mean_of_scalar_formula(self, z, pairs):
        z = np.array(z)
        i = np.array([a for a, _, _ in pairs])
        j = (i + np.array([b for _, b, _ in pairs])) % z.size
        r = np.array([c for _, _, c in pairs])
        value, dz = _pairwise_batch(z, i, j, r)
        expected = np.zeros(z.size)
        values = []
        for a, b, c in zip(i.tolist(), j.tolist(), r.tolist()):
            v, (g_a, g_b) = oracles.pairwise_scalar(z[a], z[b], c)
            values.append(v)
            expected[a] += g_a
            expected[b] += g_b
        assert value == pytest.approx(sum(values) / len(pairs), rel=1e-12, abs=1e-300)
        np.testing.assert_allclose(dz, expected / len(pairs), rtol=1e-12, atol=1e-9)

    @given(st.lists(st.tuples(kernel_scores, kernel_scores), min_size=1, max_size=10))
    def test_listnet_matches_explicit_expression(self, yz):
        y = [a for a, _ in yz]
        z = [b for _, b in yz]
        value, grad = oracles.listnet_explicit(y, z)
        res = listnet_loss(y, z)
        assert res.value == pytest.approx(value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(res.grad, grad, rtol=0, atol=1e-12)
        kernel_value, kernel_grad = _listnet(np.array(y), np.array(z))
        assert kernel_value == res.value
        assert kernel_grad.tolist() == res.grad.tolist()


class TestTopOneProbabilities:
    def test_uniform_by_symmetry(self):
        assert top_one_probabilities([0.0, 0.0, 0.0]).tolist() == pytest.approx([1 / 3] * 3)

    def test_singleton(self):
        assert top_one_probabilities([7.0]).tolist() == [1.0]

    def test_hand_evaluated(self):
        p = top_one_probabilities([math.log(2), 0.0])
        assert p.tolist() == pytest.approx([2 / 3, 1 / 3], rel=1e-14)

    @given(score_lists)
    def test_normalized_and_positive(self, scores):
        p = top_one_probabilities(scores)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0.0) and np.all(p <= 1.0)

    def test_extreme_scores_do_not_overflow(self):
        p = top_one_probabilities([700.0, -700.0, 0.0])
        assert np.isfinite(p).all()
        assert abs(p.sum() - 1.0) <= 1e-12


class TestListNetLoss:
    def test_single_item_is_zero(self):
        assert listnet_loss([3.0], [9.0]).value == 0.0

    def test_two_uniform(self):
        assert listnet_loss([0.0, 0.0], [0.0, 0.0]).value == pytest.approx(LN2, abs=1e-15)

    def test_matching_distributions(self):
        # cross entropy of softmax([1,0]) with itself: ln(1+e) - e/(1+e),
        # frozen from a 50-digit evaluation
        assert listnet_loss([1.0, 0.0], [1.0, 0.0]).value == pytest.approx(
            0.5822031088882179548, rel=1e-14
        )

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            listnet_loss([1.0, 0.0], [1.0])

    @given(score_lists)
    def test_value_at_least_entropy(self, gt):
        p = top_one_probabilities(gt)
        entropy = -float(np.sum(p * np.log(p)))
        pred = np.zeros(len(gt))
        assert listnet_loss(gt, pred).value >= entropy - 1e-12

    def test_gradient_is_softmax_difference(self):
        rng = SplitMix64(100)
        for _ in range(20):
            _, gt, pred = random_instance(rng)
            res = listnet_loss(gt, pred)
            expected = top_one_probabilities(pred) - top_one_probabilities(gt)
            assert np.allclose(res.grad, expected, atol=1e-14)

    def test_gradient_against_finite_differences(self):
        rng = SplitMix64(101)
        for _ in range(20):
            _, gt, pred = random_instance(rng)
            res = listnet_loss(gt, pred)
            fd = oracles.fd_gradient(lambda z: listnet_loss(gt, z).value, pred)
            err = np.abs(res.grad - fd) / np.maximum(1.0, np.abs(res.grad))
            assert err.max() < 1e-5


class TestPlackettLuce:
    def test_singleton_certain(self):
        assert plackett_luce_log_prob(Permutation((0,)), [4.0]) == 0.0

    def test_equal_scores_uniform(self):
        perm = permutation_from_scores([0.0, 0.0, 0.0])
        assert plackett_luce_log_prob(perm, [0.0, 0.0, 0.0]) == pytest.approx(
            math.log(1 / 6), rel=1e-14
        )

    def test_normalizes_over_permutations(self):
        rng = SplitMix64(7)
        for n in (2, 3, 4, 5):
            scores = 3.0 * rng.normals(n)
            total = math.fsum(
                math.exp(plackett_luce_log_prob(Permutation(p), scores))
                for p in permutations(range(n))
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_naive_product(self):
        rng = SplitMix64(8)
        for _ in range(30):
            perm, _, scores = random_instance(rng, max_n=8)
            naive = oracles.plackett_luce_prob(list(perm.order), scores)
            assert math.exp(plackett_luce_log_prob(perm, scores)) == pytest.approx(
                naive, rel=1e-10
            )

    def test_normalizes_with_extreme_scores(self):
        scores = np.array([700.0, 0.0, -350.0, -700.0])
        total = math.fsum(
            math.exp(plackett_luce_log_prob(Permutation(p), scores))
            for p in permutations(range(4))
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(score_lists)
    def test_never_positive(self, scores):
        perm = permutation_from_scores(scores)
        assert plackett_luce_log_prob(perm, scores) <= 0.0


class TestSuffixLogSumExp:
    def test_singleton(self):
        assert suffix_logsumexp([0.0]).tolist() == [0.0]

    def test_pair(self):
        out = suffix_logsumexp([0.0, 0.0])
        assert out.tolist() == pytest.approx([LN2, 0.0], abs=1e-15)

    def test_extreme_range(self):
        # frozen from a 400-digit evaluation of log(sum(exp(v[i:])))
        out = suffix_logsumexp([700.0, 0.0, -700.0])
        expected = [700.0, 9.859676543759770856705373e-305, -700.0]
        assert np.isfinite(out).all()
        for got, want in zip(out, expected):
            assert got == pytest.approx(want, rel=1e-9)

    def test_staircase_range(self):
        # frozen from a 500-digit evaluation
        out = suffix_logsumexp([700.0, 350.0, 0.0, -350.0, -700.0])
        expected = [700.0, 350.0, 9.929590396264979296281111e-153, -350.0, -700.0]
        for got, want in zip(out, expected):
            assert got == pytest.approx(want, rel=1e-9)

    @given(
        st.lists(
            st.floats(min_value=-30, max_value=30, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_matches_naive(self, values):
        out = suffix_logsumexp(values)
        for i in range(len(values)):
            naive = math.log(math.fsum(math.exp(v) for v in values[i:]))
            assert out[i] == pytest.approx(naive, abs=1e-12, rel=1e-12)


GAIN_ONLY = WeightConfig(discount="identity-one")
DISCOUNT_ONLY = WeightConfig(gain="identity-one")


class TestGainDiscount:
    """Anchors of G(s) = 2^s - 1 and D(p) = 1 / log_b(p + 1), read off the
    position weights and NDCG that share them."""

    def test_gain_anchors(self):
        w = position_weights(GAIN_ONLY, np.array([0.0, 1.0, 2.0]))
        assert w.tolist() == [0.0, 1.0, 3.0]
        assert w.tolist() == [oracles.gain(s) for s in (0.0, 1.0, 2.0)]
        # G(1) / G(2) at equal discounts: only gains differ between the two orders
        assert ndcg([1.0, 2.0], [0.0, 1.0]) == 1.0
        assert ndcg([1.0, 2.0], [1.0, 0.0]) == pytest.approx(
            (1.0 + 3.0 * oracles.discount(2)) / (3.0 + oracles.discount(2)), rel=1e-15
        )

    def test_identity_gain(self):
        assert position_weights(IDENTITY_WEIGHTS, np.array([3.7])).tolist() == [1.0]

    def test_discount_anchors(self):
        w = position_weights(DISCOUNT_ONLY, np.zeros(3))
        assert w[0] == 1.0 and w[2] == 0.5
        assert w.tolist() == pytest.approx([oracles.discount(p) for p in (1, 2, 3)], rel=1e-15)
        # relevance 1 at rank 1 vs rank 3 gives D(3) / D(1)
        assert ndcg([0.0, 0.0, 1.0], [1.0, 0.0, -1.0]) == 0.5

    def test_discount_other_base(self):
        w = position_weights(WeightConfig(gain="identity-one", log_base=3.0), np.zeros(3))
        assert w[1] == 1.0
        assert w.tolist() == pytest.approx(
            [oracles.discount(p, log_base=3.0) for p in (1, 2, 3)], rel=1e-15
        )

    def test_gain_overflow_guard(self):
        assert position_weights(GAIN_ONLY, np.array([60.0]))[0] == 2.0**60 - 1.0
        with pytest.raises(InvalidInputError):
            position_weights(GAIN_ONLY, np.array([61.0]))
        with pytest.raises(InvalidInputError):
            ndcg([61.0, 0.0], [1.0, 0.0])

    def test_discount_rejects_bad_position(self):
        # ranks start at 1: no weight is ever made for position 0, where
        # the discount would divide by log 1 = 0
        for n in (0, 1, 2, 50):
            w = position_weights(DISCOUNT_ONLY, np.zeros(n))
            assert w.size == n and np.isfinite(w).all()
            assert w.tolist() == pytest.approx([oracles.discount(p) for p in range(1, n + 1)])


class TestListMLE:
    def test_single_item_is_zero(self):
        res = listmle_loss(Permutation((0,)), [2.0])
        assert res.value == 0.0
        assert res.grad.tolist() == [0.0]

    def test_two_equal_scores(self):
        perm = permutation_from_scores([1.0, 0.0])
        assert listmle_loss(perm, [0.5, 0.5]).value == pytest.approx(LN2, abs=1e-15)

    def test_hand_evaluated(self):
        # -1 + ln(e + 1), frozen from a 50-digit evaluation
        perm = permutation_from_scores([1.0, 0.0])
        assert listmle_loss(perm, [1.0, 0.0]).value == pytest.approx(
            0.31326168751822283405, rel=1e-14
        )

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            listmle_loss(Permutation((0, 1)), [1.0])

    def test_equals_negative_plackett_luce(self):
        rng = SplitMix64(9)
        for _ in range(200):
            perm, _, pred = random_instance(rng)
            assert abs(listmle_loss(perm, pred).value + plackett_luce_log_prob(perm, pred)) <= 1e-10

    def test_matches_explicit_summation(self):
        rng = SplitMix64(10)
        for _ in range(100):
            perm, _, pred = random_instance(rng, max_n=12)
            explicit = oracles.listmle_explicit(list(perm.order), pred)
            assert listmle_loss(perm, pred).value == pytest.approx(explicit, rel=1e-12, abs=1e-12)

    def test_gradient_against_finite_differences(self):
        rng = SplitMix64(11)
        for _ in range(50):
            perm, _, pred = random_instance(rng)
            res = listmle_loss(perm, pred)
            fd = oracles.fd_gradient(lambda z: listmle_loss(perm, z).value, pred)
            err = np.abs(res.grad - fd) / np.maximum(1.0, np.abs(res.grad))
            assert err.max() < 1e-5

    def test_descending_assignment_is_optimal(self):
        # over all n! assignments of a score multiset, the one sorted
        # descending along the ground-truth order minimizes the loss
        rng = SplitMix64(12)
        for _ in range(20):
            n = 2 + rng.below(3)
            gt = rng.normals(n)
            perm = permutation_from_scores(gt)
            multiset = rng.normals(n)
            best = sorted(multiset, reverse=True)
            optimal = np.empty(n)
            optimal[perm.order_array] = best
            opt_val = listmle_loss(perm, optimal).value
            for assign in permutations(multiset):
                assert opt_val <= listmle_loss(perm, np.array(assign)).value + 1e-12


class TestWeightedListMLE:
    def test_identity_weights_reduce_to_listmle_bitwise(self):
        rng = SplitMix64(13)
        for _ in range(100):
            perm, gt, pred = random_instance(rng)
            plain = listmle_loss(perm, pred)
            weighted = weighted_listmle_loss(perm, np.abs(gt), pred, IDENTITY_WEIGHTS)
            assert weighted.value == plain.value
            assert np.array_equal(weighted.grad, plain.grad)

    def test_two_items_hand_evaluated(self):
        # G(1) * D(1) * ln 2 with base-2 discount
        perm = permutation_from_scores([1.0, 0.0])
        res = weighted_listmle_loss(perm, [1.0, 0.0], [0.3, 0.3], WeightConfig())
        assert res.value == pytest.approx(LN2, abs=1e-15)

    def test_zero_gain_kills_loss_and_gradient(self):
        perm = permutation_from_scores([0.0, 0.0])
        res = weighted_listmle_loss(perm, [0.0, 0.0], [5.0, -3.0], WeightConfig())
        assert res.value == 0.0
        assert res.grad.tolist() == [0.0, 0.0]

    def test_matches_explicit_summation(self):
        rng = SplitMix64(14)
        for _ in range(100):
            perm, gt, pred = random_instance(rng, max_n=12)
            relevance = 4.0 * (gt - gt.min()) / max(gt.max() - gt.min(), 1e-9)
            explicit = oracles.weighted_listmle_explicit(list(perm.order), relevance, pred)
            got = weighted_listmle_loss(perm, relevance, pred, WeightConfig()).value
            assert got == pytest.approx(explicit, rel=1e-11, abs=1e-11)

    def test_gradient_against_finite_differences(self):
        rng = SplitMix64(15)
        cfg = WeightConfig()
        for _ in range(50):
            perm, gt, pred = random_instance(rng)
            relevance = np.abs(gt) % 4.0
            res = weighted_listmle_loss(perm, relevance, pred, cfg)
            fd = oracles.fd_gradient(
                lambda z: weighted_listmle_loss(perm, relevance, z, cfg).value, pred
            )
            err = np.abs(res.grad - fd) / np.maximum(1.0, np.abs(res.grad))
            assert err.max() < 1e-5

    def test_extreme_scores_stay_finite(self):
        # score span of 1400 exercises the log-space gradient accumulation
        perm = permutation_from_scores([2.0, 1.0, 0.0])
        res = weighted_listmle_loss(perm, [4.0, 2.0, 0.0], [700.0, 0.0, -700.0], WeightConfig())
        assert math.isfinite(res.value) and res.value >= 0.0
        assert np.isfinite(res.grad).all()
        fd = oracles.fd_gradient(
            lambda z: weighted_listmle_loss(perm, [4.0, 2.0, 0.0], z, WeightConfig()).value,
            np.array([700.0, 0.0, -700.0]),
        )
        err = np.abs(res.grad - fd) / np.maximum(1.0, np.abs(res.grad))
        assert err.max() < 1e-5

    def test_rejects_negative_relevance(self):
        perm = permutation_from_scores([1.0, 0.0])
        with pytest.raises(InvalidInputError):
            weighted_listmle_loss(perm, [-1.0, 0.0], [0.0, 0.0], WeightConfig())

    def test_rejects_oversized_relevance(self):
        perm = permutation_from_scores([1.0, 0.0])
        with pytest.raises(InvalidInputError):
            weighted_listmle_loss(perm, [61.0, 0.0], [0.0, 0.0], WeightConfig())


class TestSharedLossProperties:
    @given(score_lists, st.floats(min_value=-20, max_value=20, allow_nan=False))
    @settings(max_examples=60)
    def test_listwise_shift_invariance(self, scores, c):
        pred = np.asarray(scores)
        gt = np.sin(pred) * 2.0  # arbitrary but deterministic ground truth
        perm = permutation_from_scores(gt)
        relevance = np.abs(gt)
        for fn in (
            lambda z: listnet_loss(gt, z).value,
            lambda z: listmle_loss(perm, z).value,
            lambda z: weighted_listmle_loss(perm, relevance, z, WeightConfig()).value,
        ):
            assert fn(pred + c) == pytest.approx(fn(pred), rel=1e-9, abs=1e-9)

    @given(score_lists)
    @settings(max_examples=60)
    def test_listwise_losses_nonnegative(self, scores):
        pred = np.asarray(scores)
        gt = np.cos(pred) * 3.0
        perm = permutation_from_scores(gt)
        assert listnet_loss(gt, pred).value >= 0.0
        assert listmle_loss(perm, pred).value >= 0.0
        assert weighted_listmle_loss(perm, np.abs(gt), pred, WeightConfig()).value >= 0.0


class TestGradientInvariant:
    """Analytic score-gradients vs central differences, 100 instances per
    loss, n <= 50, scores ~ N(0, 3^2), h = 1e-5."""

    def _check(self, make_fn_and_grad, seed):
        rng = SplitMix64(seed)
        worst = 0.0
        for _ in range(100):
            n = 2 + rng.below(49)
            gt = 3.0 * rng.normals(n)
            pred = 3.0 * rng.normals(n)
            fn, grad = make_fn_and_grad(gt, pred)
            fd = oracles.fd_gradient(fn, pred)
            err = np.abs(grad - fd) / np.maximum(1.0, np.abs(grad))
            worst = max(worst, float(err.max()))
        assert worst < 1e-5

    def test_pairwise(self):
        rng = SplitMix64(200)
        worst = 0.0
        for _ in range(100):
            z = 3.0 * rng.normals(2)
            r = [1, -1, 0][rng.below(3)]
            res = pairwise_loss(z[0], z[1], r)
            fd = oracles.fd_gradient(lambda v: pairwise_loss(v[0], v[1], r).value, z)
            err = np.abs(res.grad - fd) / np.maximum(1.0, np.abs(res.grad))
            worst = max(worst, float(err.max()))
        assert worst < 1e-5

    def test_listnet(self):
        self._check(
            lambda gt, pred: (
                lambda z: listnet_loss(gt, z).value,
                listnet_loss(gt, pred).grad,
            ),
            201,
        )

    def test_listmle(self):
        def make(gt, pred):
            perm = permutation_from_scores(gt)
            return lambda z: listmle_loss(perm, z).value, listmle_loss(perm, pred).grad

        self._check(make, 202)

    def test_weighted_listmle(self):
        cfg = WeightConfig()

        def make(gt, pred):
            perm = permutation_from_scores(gt)
            rel = 4.0 * (gt - gt.min()) / (gt.max() - gt.min())
            res = weighted_listmle_loss(perm, rel, pred, cfg)
            return lambda z: weighted_listmle_loss(perm, rel, z, cfg).value, res.grad

        self._check(make, 203)


def test_position_weights_match_scalar_ops():
    cfg = WeightConfig()
    by_rank = np.array([4.0, 2.5, 1.0, 0.0])
    w = position_weights(cfg, by_rank)
    expected = [oracles.gain(s) * oracles.discount(i + 1) for i, s in enumerate(by_rank)]
    assert w.tolist() == pytest.approx(expected, rel=1e-15)


def test_weight_config_validation():
    with pytest.raises(InvalidInputError):
        WeightConfig(gain="nope")
    with pytest.raises(InvalidInputError):
        WeightConfig(discount="nope")
    with pytest.raises(InvalidInputError):
        WeightConfig(log_base=1.0)
