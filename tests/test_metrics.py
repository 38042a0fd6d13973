import math
from itertools import permutations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depthrank import metrics
from depthrank.core import (
    Permutation,
    RankedSample,
    pairs_from_permutation,
    permutation_from_scores,
)
from depthrank.data import normalize_relevance
from depthrank.errors import InvalidInputError
from depthrank.metrics import (
    _PAIR_ROWS,
    FLAG_ALL_ZERO_GAIN,
    FLAG_DEGENERATE_PRED_TIES,
    _rank_metrics,
    _rank_metrics_by_length,
    _sample_map,
    average_precision,
    evaluate,
    mean_average_precision,
    ndcg,
    whdr,
)
from depthrank.rng import SplitMix64

import oracles


def triple(*pairs):
    """(i, j, r) arrays of the given (i, j, r) tuples."""
    return tuple(np.array(col, dtype=np.intp) for col in zip(*pairs))


def sample_from_scores(gt_scores, dim=3, seed=0):
    rng = SplitMix64(seed)
    n = len(gt_scores)
    return RankedSample(
        id="t", items=rng.normals(n * dim).reshape(n, dim), gt_scores=gt_scores
    )


class TestWhdr:
    def test_perfect_predictions(self):
        scores = [3.0, 2.0, 1.0]
        perm = permutation_from_scores(scores)
        pairs = pairs_from_permutation(perm, scores)
        assert whdr(pairs, scores) == 0.0

    def test_fully_inverted(self):
        scores = [3.0, 2.0, 1.0]
        pairs = pairs_from_permutation(permutation_from_scores(scores), scores)
        assert whdr(pairs, [1.0, 2.0, 3.0]) == 1.0

    def test_half_wrong(self):
        pairs = triple((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1))
        # predictions get exactly two of the four pairs wrong
        assert whdr(pairs, [4.0, 1.0, 2.0, 3.0]) == 0.5

    def test_rejects_empty_pairs(self):
        empty = np.zeros(0, dtype=np.intp)
        for pairs in ([], (empty, empty, empty)):
            with pytest.raises(InvalidInputError):
                whdr(pairs, [1.0, 2.0])

    def test_tie_threshold(self):
        pairs = triple((0, 1, 0))
        assert whdr(pairs, [1.0, 1.05], pred_tie_threshold=0.1) == 0.0
        assert whdr(pairs, [1.0, 1.05], pred_tie_threshold=0.0) == 1.0

    def test_gt_scores_as_predictions_give_zero(self):
        rng = SplitMix64(55)
        for _ in range(20):
            n = 2 + rng.below(10)
            scores = np.arange(n, dtype=np.float64)
            rng_perm = rng.permutation(n)
            scores = scores[rng_perm]  # distinct values, random order
            perm = permutation_from_scores(scores)
            pairs = pairs_from_permutation(perm, scores)
            assert whdr(pairs, scores) == 0.0

    def test_out_of_range_index(self):
        with pytest.raises(InvalidInputError):
            whdr(triple((0, 5, 1)), [1.0, 2.0])

    @pytest.mark.parametrize("i,j,r", [(1, 1, 0), (-1, 0, 1), (0, 1, 2), (0, 1, -2)])
    def test_rejects_malformed_pair(self, i, j, r):
        # the bad pair follows a valid one
        with pytest.raises(InvalidInputError):
            whdr(triple((0, 2, 1), (i, j, r)), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "pairs",
        [
            pytest.param([(0, 1, 1), (1, 2, 1), (0, 2, 1)], id="list-of-tuples"),
            pytest.param([SimpleNamespace(i=0, j=1, r=1)] * 3, id="list-of-objects"),
            pytest.param(([0, 1], [1, 2], [1, 1]), id="lists"),
            pytest.param((np.array([0]), np.array([1])), id="two-arrays"),
            pytest.param(triple((0, 1, 1)) + (np.array([1]),), id="four-arrays"),
            pytest.param((np.array([0, 1]), np.array([1]), np.array([1])), id="unequal-lengths"),
            pytest.param((np.array([[0]]), np.array([[1]]), np.array([[1]])), id="2-d"),
            pytest.param((np.array([0.0]), np.array([1.0]), np.array([1.0])), id="float"),
            pytest.param((np.array([False]), np.array([True]), np.array([True])), id="bool"),
            pytest.param(None, id="none"),
        ],
    )
    def test_rejects_anything_but_three_integer_arrays(self, pairs):
        with pytest.raises(InvalidInputError):
            whdr(pairs, [1.0, 2.0, 3.0])

    def test_accepts_any_integer_dtype(self):
        i, j, r = triple((0, 1, 1), (2, 1, -1), (0, 2, 0))
        got = whdr((i.astype(np.uint8), j.astype(np.int32), r.astype(np.int8)), [3.0, 1.0, 2.0])
        assert got == whdr((i, j, r), [3.0, 1.0, 2.0]) == 2 / 3


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([1, 1, 0]) == 1.0

    def test_interleaved(self):
        # 1*(1/2) + (2/3)*(1/2) = 5/6
        assert average_precision([1, 0, 1]) == pytest.approx(5 / 6, abs=1e-12)

    def test_single_positive_at_rank_two(self):
        assert average_precision([0, 1]) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_no_positives(self):
        with pytest.raises(InvalidInputError):
            average_precision([0, 0, 0])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            average_precision([])

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=16).filter(lambda x: any(x)))
    def test_matches_table_oracle(self, labels):
        assert average_precision(labels) == pytest.approx(oracles.ap_table(labels), abs=1e-12)

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=16).filter(lambda x: any(x)))
    def test_one_iff_positives_first(self, labels):
        ap = average_precision(labels)
        sorted_desc = sorted(labels, reverse=True)
        if labels == sorted_desc:
            assert ap == pytest.approx(1.0, abs=1e-12)
        else:
            assert ap < 1.0


class TestMeanAveragePrecision:
    def test_perfect_prediction(self):
        gt = [5.0, 4.0, 3.0, 2.0]
        perm = permutation_from_scores(gt)
        assert mean_average_precision([(perm, gt)]) == pytest.approx(1.0, abs=1e-12)

    def test_two_items_inverted(self):
        perm = permutation_from_scores([1.0, 0.0])
        assert mean_average_precision([(perm, [0.0, 1.0])]) == pytest.approx(0.5, abs=1e-12)

    def test_three_items_reversed(self):
        # frozen from the brute-force cut-table oracle: 11/24
        perm = permutation_from_scores([2.0, 1.0, 0.0])
        got = mean_average_precision([(perm, [0.0, 1.0, 2.0])])
        assert got == pytest.approx(11 / 24, abs=1e-12)
        assert got == pytest.approx(oracles.map_cuts([0, 1, 2], [0.0, 1.0, 2.0]), abs=1e-12)

    def test_rejects_tiny_samples(self):
        with pytest.raises(InvalidInputError):
            mean_average_precision([(Permutation((0,)), [1.0])])

    def test_matches_bruteforce_random(self):
        rng = SplitMix64(77)
        for _ in range(100):
            n = 2 + rng.below(7)
            gt = rng.normals(n)
            pred = rng.normals(n)
            perm = permutation_from_scores(gt)
            got = mean_average_precision([(perm, pred)])
            want = oracles.map_cuts_float(list(perm.order), pred)
            assert got == pytest.approx(want, abs=1e-12)

    def test_averages_over_samples(self):
        perm = permutation_from_scores([1.0, 0.0])
        a = mean_average_precision([(perm, [1.0, 0.0])])
        b = mean_average_precision([(perm, [0.0, 1.0])])
        both = mean_average_precision([(perm, [1.0, 0.0]), (perm, [0.0, 1.0])])
        assert both == pytest.approx((a + b) / 2, abs=1e-15)

    def test_adjacent_fix_never_decreases_map(self):
        # moving one adjacent discordant pair into ground-truth order can
        # only improve (or preserve) MAP; exhaustive over n <= 5
        for n in (2, 3, 4, 5):
            gt = [float(n - i) for i in range(n)]  # gt order = 0,1,...,n-1
            perm = permutation_from_scores(gt)
            for pred_order in permutations(range(n)):
                scores = np.empty(n)
                for pos, item in enumerate(pred_order):
                    scores[item] = float(n - pos)
                base = mean_average_precision([(perm, scores)])
                for k in range(n - 1):
                    a, b = pred_order[k], pred_order[k + 1]
                    if a > b:  # discordant w.r.t. gt, swapping fixes it
                        fixed = list(pred_order)
                        fixed[k], fixed[k + 1] = b, a
                        s2 = np.empty(n)
                        for pos, item in enumerate(fixed):
                            s2[item] = float(n - pos)
                        assert mean_average_precision([(perm, s2)]) >= base - 1e-12


class TestNdcg:
    def test_perfect_order(self):
        assert ndcg([3.0, 2.0, 1.0], [30.0, 20.0, 10.0]) == pytest.approx(1.0, abs=1e-15)

    def test_singleton(self):
        assert ndcg([2.0], [5.0]) == 1.0

    def test_two_items_inverted(self):
        # frozen from a 50-digit evaluation of 1/log2(3)
        assert ndcg([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.6309297535714574371, rel=1e-14)

    def test_all_zero_gain_convention(self):
        assert ndcg([0.0, 0.0], [1.0, 2.0]) == 1.0

    def test_rejects_negative_relevance(self):
        with pytest.raises(InvalidInputError):
            ndcg([-1.0, 0.0], [1.0, 0.0])

    def test_in_unit_interval(self):
        rng = SplitMix64(78)
        for _ in range(100):
            n = 1 + rng.below(10)
            rel = 4.0 * rng.uniforms(n)
            pred = rng.normals(n)
            v = ndcg(rel, pred)
            assert 0.0 <= v <= 1.0


class TestOrderInvariance:
    @pytest.mark.parametrize(
        "transform", [lambda x: 2.0 * x + 7.0, lambda x: x**3 + x], ids=["affine", "cubic"]
    )
    def test_metrics_invariant_under_increasing_transform(self, transform):
        rng = SplitMix64(79)
        for _ in range(100):
            n = 2 + rng.below(8)
            gt = rng.normals(n)
            pred = rng.normals(n)
            perm = permutation_from_scores(gt)
            pairs = pairs_from_permutation(perm, gt)
            t_pred = transform(pred)
            assert whdr(pairs, pred) == whdr(pairs, t_pred)
            assert mean_average_precision([(perm, pred)]) == mean_average_precision(
                [(perm, t_pred)]
            )
            rel = np.abs(gt)
            assert ndcg(rel, pred) == ndcg(rel, t_pred)


class TestEvaluate:
    def test_perfect_scorer(self):
        samples = [sample_from_scores([3.0, 2.0, 1.0]), sample_from_scores([1.0, 5.0, 2.0])]
        report = evaluate(samples, [s.gt_scores for s in samples])
        assert report.whdr == 0.0
        assert report.map == pytest.approx(1.0, abs=1e-12)
        assert report.ndcg == pytest.approx(1.0, abs=1e-12)
        assert report.n_samples == 2
        assert report.n_pairs == 6
        assert report.flags == ()

    def test_degenerate_tied_predictions_flagged(self):
        samples = [sample_from_scores([3.0, 2.0, 1.0])]
        report = evaluate(samples, [np.zeros(3)])
        assert FLAG_DEGENERATE_PRED_TIES in report.flags

    def test_constant_ground_truth_flagged(self):
        samples = [sample_from_scores([2.0, 2.0, 2.0])]
        report = evaluate(samples, [np.array([1.0, 2.0, 3.0])])
        assert FLAG_ALL_ZERO_GAIN in report.flags
        assert report.ndcg == 1.0

    def test_pools_pairs_across_samples(self):
        a = sample_from_scores([2.0, 1.0])          # 1 pair
        b = sample_from_scores([3.0, 2.0, 1.0])     # 3 pairs
        # a predicted wrong, b predicted right: pooled whdr = 1/4
        report = evaluate([a, b], [np.array([1.0, 2.0]), b.gt_scores])
        assert report.whdr == 0.25
        assert report.n_pairs == 4

    def test_rejects_length_mismatch(self):
        samples = [sample_from_scores([1.0, 2.0])]
        with pytest.raises(InvalidInputError):
            evaluate(samples, [])

    def test_internal_pair_arrays_match_public_op(self):
        from depthrank.core import all_pairs

        s = sample_from_scores([3.0, 1.0, 1.0, -2.0])
        want = all_pairs(s.gt_scores)
        got = pairs_from_permutation(s.gt_perm, s.gt_scores)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


TIED_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])
SCORES = st.one_of(TIED_VALUES, st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def ragged_batches(draw, max_n=12):
    """1-5 samples of 2..max_n items; gt and pred values often tie."""
    batch = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(2, max_n))
        gt = draw(st.lists(SCORES, min_size=n, max_size=n))
        pred = draw(st.lists(SCORES, min_size=n, max_size=n))
        batch.append((np.array(gt), np.array(pred)))
    return batch


def kernel(batch):
    """(misordered pairs, pairs, per-sample MAPs) from the row kernel, one
    call per list length."""
    wrong = pairs = 0
    maps = np.empty(len(batch))
    for n in {g.size for g, _ in batch}:
        rows = [k for k, (g, _) in enumerate(batch) if g.size == n]
        w, p, maps[rows] = _rank_metrics(*(np.stack([batch[k][side] for k in rows])
                                           for side in (0, 1)))
        wrong += w
        pairs += p
    return wrong, pairs, maps


def gt_rank(gt):
    """1-based ranks: descending scores, ascending-index tie-break."""
    rank = np.empty(len(gt), dtype=np.int64)
    rank[sorted(range(len(gt)), key=lambda i: -gt[i])] = np.arange(1, len(gt) + 1)
    return rank


class TestRankKernel:
    def check(self, batch):
        wrong, pairs, maps = kernel(batch)
        counts = [oracles.dense_whdr_counts(g, p) for g, p in batch]
        assert wrong == sum(c[0] for c in counts)
        assert pairs == sum(c[1] for c in counts)
        assert maps.shape == (len(batch),)
        for (g, p), got in zip(batch, maps):
            assert 0.0 <= got <= 1.0
            assert got == pytest.approx(oracles.dense_sample_map(gt_rank(g), p), abs=1e-12)
            order = sorted(range(len(g)), key=lambda i: -g[i])
            assert got == pytest.approx(oracles.map_cuts(order, list(p)), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(ragged_batches())
    def test_matches_dense_oracles_on_ragged_batches(self, batch):
        self.check(batch)

    @settings(max_examples=100, deadline=None)
    @given(ragged_batches(max_n=3))
    def test_matches_dense_oracles_on_tiny_lists(self, batch):
        self.check(batch)

    def test_every_order_of_two_and_three_items(self):
        for n in (2, 3):
            values = [np.array(v) for v in product([0.0, 1.0, 2.0], repeat=n)]
            self.check([(g, p) for g in values for p in values])

    def test_all_equal_scores(self):
        batch = [(np.full(n, 3.0), np.full(n, -1.0)) for n in (2, 5, 17)]
        assert kernel(batch)[0] == 0
        self.check(batch)

    def test_signed_zeros_tie(self):
        batch = [(np.array([0.0, -0.0, 1.0]), np.array([-0.0, 0.0, 0.0]))]
        assert kernel(batch)[0] == oracles.dense_whdr_counts(*batch[0])[0] == 2
        self.check(batch)

    def test_evaluate_matches_pooled_oracle_counts(self):
        rng = SplitMix64(80)
        samples, preds = [], []
        # 150 items span several row blocks of the thresholded count
        for n in (2, 3, 9, 40, 150):
            gt = np.floor(3.0 * rng.uniforms(n))
            samples.append(sample_from_scores(gt))
            preds.append(np.floor(2.0 * rng.uniforms(n)) + 0.3 * rng.uniforms(n))
        assert samples[-1].n > 2 * _PAIR_ROWS
        for t in (0.0, 0.1, 0.5):
            counts = [oracles.dense_whdr_counts(s.gt_scores, p, t) for s, p in zip(samples, preds)]
            report = evaluate(samples, preds, pred_tie_threshold=t)
            assert report.n_pairs == sum(c[1] for c in counts)
            assert report.whdr == sum(c[0] for c in counts) / report.n_pairs

    def test_evaluate_spans_several_kernel_calls(self):
        rng = SplitMix64(83)
        samples, preds = [], []
        for n in (700, 2, 900, 1500, 3, 1200, 800):  # 5105 items
            samples.append(sample_from_scores(np.floor(40.0 * rng.uniforms(n)), dim=1))
            preds.append(np.floor(30.0 * rng.uniforms(n)))
        report = evaluate(samples, preds)
        counts = [oracles.dense_whdr_counts(s.gt_scores, p) for s, p in zip(samples, preds)]
        assert report.n_pairs == sum(c[1] for c in counts)
        assert report.whdr == sum(c[0] for c in counts) / report.n_pairs
        maps = [oracles.dense_sample_map(gt_rank(s.gt_scores), p) for s, p in zip(samples, preds)]
        assert report.map == pytest.approx(sum(maps) / len(maps), abs=1e-12)

    @pytest.mark.parametrize("n", [7, 4097])
    def test_perfect_ranking_map_stays_in_unit_interval(self, n):
        gt = np.arange(n, 0, -1, dtype=np.float64)
        got = _sample_map(permutation_from_scores(gt), gt)
        assert got <= 1.0
        assert got == pytest.approx(1.0, abs=1e-12)
        report = evaluate([sample_from_scores(gt)], [gt])
        assert report.map <= 1.0 and report.whdr == 0.0

    def test_long_list_runs_in_linear_memory(self):
        import tracemalloc

        n = 100_000
        gt = SplitMix64(81).normals(n)
        sample = RankedSample(id="long", items=np.zeros((n, 1)), gt_scores=gt)
        pred = gt + SplitMix64(82).normals(n)
        tracemalloc.start()
        try:
            report = evaluate([sample], [pred])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_pairs == n * (n - 1) // 2
        assert 0.0 < report.whdr < 0.5
        assert peak < 100 * 2**20


    def test_thresholded_whdr_on_a_long_list_runs_in_bounded_memory(self):
        import tracemalloc

        n = 10_000
        gt = np.floor(50.0 * SplitMix64(84).uniforms(n))
        sample = RankedSample(id="long", items=np.zeros((n, 1)), gt_scores=gt)
        pred = gt + 0.2 * SplitMix64(85).normals(n)
        tracemalloc.start()
        try:
            report = evaluate([sample], [pred], pred_tie_threshold=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_pairs == n * (n - 1) // 2
        assert 0.0 < report.whdr < 0.5
        assert peak < 50 * 2**20


@st.composite
def shared_length_batches(draw):
    """2-8 samples of at most three lengths, so lengths repeat; each list
    ties on neither side, or on one or both."""
    lengths = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
    batch = []
    for _ in range(draw(st.integers(2, 8))):
        n = draw(st.sampled_from(lengths))
        sides = []
        for _ in range(2):
            if draw(st.booleans()):
                sides.append(np.array(draw(st.permutations(range(n))), dtype=np.float64) / 3)
            else:
                sides.append(np.array(draw(st.lists(SCORES, min_size=n, max_size=n))))
        batch.append(tuple(sides))
    return batch


class TestSampleLocality:
    @settings(max_examples=200, deadline=None)
    @given(shared_length_batches(), st.randoms(use_true_random=False), st.integers(1, 40))
    def test_a_sample_scores_the_same_alone_and_in_any_batch(self, batch, rnd, cap):
        alone = [_rank_metrics(g[None], p[None]) for g, p in batch]
        order = list(range(len(batch)))
        rnd.shuffle(order)
        subset = order[:rnd.randint(1, len(order))]
        with pytest.MonkeyPatch.context() as mp:
            # rows per kernel call: max(1, cap // n)
            mp.setattr(metrics, "_KERNEL_ITEMS", cap)
            wrong, pairs, maps = _rank_metrics_by_length([batch[k][0] for k in subset],
                                                         [batch[k][1] for k in subset])
        assert wrong == sum(alone[k][0] for k in subset)
        assert pairs == sum(alone[k][1] for k in subset)
        assert maps.tobytes() == np.array([alone[k][2][0] for k in subset]).tobytes()
        n = batch[subset[0]][0].size
        rows = [k for k in subset if batch[k][0].size == n]
        one_call = _rank_metrics(*(np.stack([batch[k][side] for k in rows]) for side in (0, 1)))
        assert one_call[0] == sum(alone[k][0] for k in rows)
        assert one_call[2].tobytes() == np.array([alone[k][2][0] for k in rows]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(shared_length_batches())
    def test_mean_average_precision_is_the_mean_of_one_row_calls(self, batch):
        samples = [(permutation_from_scores(g), p) for g, p in batch]
        per_sample = [_sample_map(perm, p) for perm, p in samples]
        assert mean_average_precision(samples) == math.fsum(per_sample) / len(per_sample)

    @settings(max_examples=100, deadline=None)
    @given(ragged_batches())
    def test_evaluate_ndcg_and_flags_are_those_of_each_sample(self, batch):
        samples = [sample_from_scores(g) for g, _ in batch]
        preds = [p for _, p in batch]
        report = evaluate(samples, preds)
        rels = [normalize_relevance(s.gt_scores) for s in samples]
        per_sample = [oracles.sample_ndcg(rel, p) for rel, p in zip(rels, preds)]
        assert [ndcg(rel, p) for rel, p in zip(rels, preds)] == per_sample
        assert report.ndcg == math.fsum(per_sample) / len(per_sample)
        flags = {FLAG_ALL_ZERO_GAIN for g, _ in batch if g.min() == g.max()}
        flags |= {FLAG_DEGENERATE_PRED_TIES for _, p in batch if p.min() == p.max()}
        assert report.flags == tuple(sorted(flags))


@st.composite
def lists_with_threshold(draw):
    """gt and pred of one list of 2-12 items, and t = 0 or exactly one of the
    prediction gaps, where a pair's predicted label flips to a tie."""
    n = draw(st.integers(2, 12))
    gt = np.array(draw(st.lists(SCORES, min_size=n, max_size=n)))
    pred = np.array(draw(st.lists(SCORES, min_size=n, max_size=n)))
    gaps = np.abs(pred[:, None] - pred[None, :]).ravel().tolist()
    return gt, pred, draw(st.sampled_from([0.0, *gaps]))


class TestPublicWhdr:
    @settings(max_examples=200, deadline=None)
    @given(lists_with_threshold())
    @example((np.array([0.0, -0.0, 1.0, 1.0]), np.array([-0.0, 0.0, 0.5, 1.0]), 0.5))
    def test_matches_dense_oracle_and_evaluate(self, case):
        gt, pred, t = case
        got = whdr(pairs_from_permutation(permutation_from_scores(gt), gt), pred, t)
        wrong, total = oracles.dense_whdr_counts(gt, pred, t)
        assert got == wrong / total
        assert got == evaluate([sample_from_scores(gt)], [pred], t).whdr


class TestTieThreshold:
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejected_by_whdr_and_evaluate(self, bad):
        samples = [sample_from_scores([3.0, 2.0, 1.0])]
        pairs = pairs_from_permutation(samples[0].gt_perm, samples[0].gt_scores)
        with pytest.raises(InvalidInputError):
            whdr(pairs, [1.0, 2.0, 3.0], pred_tie_threshold=bad)
        with pytest.raises(InvalidInputError):
            evaluate(samples, [np.array([1.0, 2.0, 3.0])], pred_tie_threshold=bad)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_accepted(self, zero):
        samples = [sample_from_scores([3.0, 2.0, 1.0])]
        pred = [np.array([1.0, 1.0, 3.0])]
        pairs = pairs_from_permutation(samples[0].gt_perm, samples[0].gt_scores)
        assert whdr(pairs, pred[0], pred_tie_threshold=zero) == whdr(pairs, pred[0])
        assert evaluate(samples, pred, pred_tie_threshold=zero) == evaluate(samples, pred)
