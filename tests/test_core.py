import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrank.core import (
    Permutation,
    RankedSample,
    all_pairs,
    check_pairs,
    label_pairs,
    pairs_from_permutation,
    permutation_from_scores,
)
from depthrank.errors import InvalidInputError

import oracles
from oracles import stable_descending_sort

finite_scores = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=100,
)


class TestPermutationFromScores:
    def test_descending(self):
        assert permutation_from_scores([3.0, 1.0, 2.0]).order == (0, 2, 1)

    def test_singleton(self):
        assert permutation_from_scores([5.0]).order == (0,)

    def test_stable_ties(self):
        # oracle: enumerate every valid descending sort, keep the one whose
        # ties are in ascending index order
        scores = [1.0, 1.0, 0.0]
        assert list(permutation_from_scores(scores).order) == stable_descending_sort(scores)

    @given(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=6))
    def test_stable_ties_enumerated(self, scores):
        assert list(permutation_from_scores(scores).order) == stable_descending_sort(scores)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            permutation_from_scores([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(InvalidInputError):
            permutation_from_scores([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            permutation_from_scores([])

    @given(finite_scores)
    def test_roundtrip_inverse(self, scores):
        perm = permutation_from_scores(scores)
        inv = perm.inverse
        for pos, item in enumerate(perm.order):
            assert inv[item] == pos + 1

    # Integer-valued scores keep the tie structure exact under shifts and
    # positive scaling (a subnormal score plus 1.0 would collapse into a tie).
    @given(
        st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=80),
        st.integers(min_value=-10**6, max_value=10**6),
    )
    def test_shift_invariance(self, int_scores, c):
        scores = np.asarray(int_scores, dtype=np.float64)
        base = permutation_from_scores(scores)
        shifted = permutation_from_scores(scores + c)
        assert base.order == shifted.order

    @given(
        st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=80),
        st.floats(min_value=0.001, max_value=1000, allow_nan=False),
    )
    def test_positive_scale_invariance(self, int_scores, c):
        scores = np.asarray(int_scores, dtype=np.float64)
        base = permutation_from_scores(scores)
        scaled = permutation_from_scores(scores * c)
        assert base.order == scaled.order


class TestPermutation:
    def test_invert_examples(self):
        assert Permutation((0, 2, 1)).inverse == (1, 3, 2)
        assert Permutation((0,)).inverse == (1,)

    def test_invert_composes(self):
        perm = Permutation((2, 0, 1))
        assert perm.inverse == (2, 3, 1)
        # composing both directions is the identity
        for pos, item in enumerate(perm.order):
            assert perm.inverse[item] == pos + 1
        for item, rank in enumerate(perm.inverse):
            assert perm.order[rank - 1] == item

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInputError):
            Permutation((0, 0, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Permutation((0, 3, 1))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            Permutation(())

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidInputError):
            Permutation((0.5, 1.5))

    def test_accepts_numpy_integers(self):
        perm = Permutation(tuple(np.argsort([3, 1, 2])))
        assert perm.order == (1, 2, 0)

    def test_accepts_integer_arrays_and_lists(self):
        for order in (np.array([2, 0, 1]), np.array([2, 0, 1], dtype=np.uint8), [2, 0, 1]):
            assert Permutation(order).order == (2, 0, 1)

    def test_python_bools_count_as_integers(self):
        assert Permutation((True, False)).order == (1, 0)
        assert Permutation((False,)).inverse == (1,)

    @pytest.mark.parametrize(
        "order",
        [
            (0.0, 1.0),
            np.array([1.0, 0.0]),
            (0, np.float64(1.0)),
            np.array([True, False]),
            (np.True_, np.False_),
            (True, True, False),
            (),
            np.array([], dtype=np.intp),
            (0, 0, 1),
            (0, 3, 1),
            (-1, 0),
            (2**70, 0),
            np.array([0, 2**64 - 1], dtype=np.uint64),
            np.array([[0, 1]]),
            ((0, 1), 2),
            (None,),
            5,
            "01",
        ],
        ids=repr,
    )
    def test_rejected_inputs(self, order):
        with pytest.raises(InvalidInputError):
            Permutation(order)

    @settings(max_examples=200)
    @given(st.permutations(range(30)).flatmap(
        lambda p: st.integers(1, 30).map(lambda n: [x for x in p if x < n])
    ))
    def test_random_bijections(self, order):
        perm = Permutation(tuple(order))
        assert type(perm.order) is tuple and type(perm.inverse) is tuple
        assert perm.order == tuple(order)
        assert all(type(x) is int for x in perm.order + perm.inverse)
        for pos, item in enumerate(order):
            assert perm.inverse[item] == pos + 1
        for arr, want in ((perm.order_array, perm.order), (perm.inverse_array, perm.inverse)):
            assert arr.dtype == np.intp and not arr.flags.writeable
            assert arr.tolist() == list(want)
        assert perm == Permutation(np.array(order)) == Permutation(list(order))
        assert hash(perm) == hash(Permutation(np.array(order)))
        if len(order) > 1:
            assert perm != Permutation(tuple(order[1:] + order[:1]))

    def test_does_not_alias_the_caller_array(self):
        order = np.array([1, 0])
        perm = Permutation(order)
        order[0] = 0
        assert perm.order == (1, 0) and perm.order_array.tolist() == [1, 0]


class TestRankedSampleGtPerm:
    def test_built_on_first_access_from_the_scores(self):
        gt = [2.0, 5.0, 2.0, -1.0, 5.0]
        s = RankedSample(id="s", items=np.eye(5), gt_scores=gt)
        assert "gt_perm" not in vars(s)
        assert s.gt_perm == permutation_from_scores(gt)
        assert s.gt_perm.order == (1, 4, 0, 2, 3)
        assert s.gt_perm is s.gt_perm

    def test_equality_and_repr_ignore_it(self):
        a = RankedSample(id="s", items=np.eye(3), gt_scores=[1.0, 3.0, 2.0])
        b = RankedSample(id="s", items=np.eye(3), gt_scores=[1.0, 3.0, 2.0])
        before = repr(a)
        assert "gt_perm" not in before
        a.gt_perm
        assert repr(a) == before == repr(b)
        assert a == b and b == a


def as_tuples(pairs):
    return list(zip(*(a.tolist() for a in pairs)))


class TestPairsFromPermutation:
    def test_two_items(self):
        perm = permutation_from_scores([2.0, 1.0])
        assert as_tuples(pairs_from_permutation(perm, [2.0, 1.0])) == [(0, 1, 1)]

    def test_exact_tie(self):
        perm = permutation_from_scores([1.0, 1.0])
        assert as_tuples(pairs_from_permutation(perm, [1.0, 1.0])) == [(0, 1, 0)]

    def test_three_items_brute_force(self):
        scores = [3.0, 2.0, 1.0]
        perm = permutation_from_scores(scores)
        pairs = as_tuples(pairs_from_permutation(perm, scores))
        # brute-force enumeration of unordered pairs in (low, high) orientation
        expected = []
        for i in range(3):
            for j in range(i + 1, 3):
                expected.append((i, j, 1 if scores[i] > scores[j] else -1))
        assert pairs == expected
        assert all(r == 1 for _, _, r in pairs)

    def test_requires_two_items(self):
        perm = permutation_from_scores([1.0])
        with pytest.raises(InvalidInputError):
            pairs_from_permutation(perm, [1.0])

    def test_permutation_only_fixes_the_length(self):
        scores = np.array([1.0, 3.0, 3.0, -2.0])
        i, j, r = pairs_from_permutation(Permutation([3, 2, 1, 0]), scores)
        want = all_pairs(scores)
        for got, w in zip((i, j, r), want):
            assert got.dtype == w.dtype and got.tolist() == w.tolist()
        with pytest.raises(InvalidInputError):
            pairs_from_permutation(Permutation([0, 1, 2]), scores)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=12, unique=True))
    def test_labels_match_ranks_for_distinct_scores(self, int_scores):
        scores = [float(x) for x in int_scores]
        perm = permutation_from_scores(scores)
        rank = perm.inverse
        for i, j, r in as_tuples(pairs_from_permutation(perm, scores)):
            assert r == (1 if rank[i] < rank[j] else -1)


TIED_OR_ANY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestLabelPairs:
    @settings(max_examples=200)
    @given(
        st.lists(TIED_OR_ANY, min_size=1, max_size=12),
        st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        st.data(),
    )
    def test_matches_scalar_oracle(self, scores, threshold, data):
        s = np.array(scores)
        n = s.size
        idx = st.lists(st.integers(0, n - 1), min_size=1, max_size=6)
        i = np.array(data.draw(idx))
        j = np.array(data.draw(idx))
        # a column against a row broadcasts to every combination
        got = label_pairs(s, i[:, None], j[None, :], threshold)
        assert got.dtype == np.int64 and got.shape == (i.size, j.size)
        want = [[oracles.ordinal_label(scores[a], scores[b], threshold) for b in j] for a in i]
        assert got.tolist() == want
        flat = label_pairs(s, i[: min(i.size, j.size)], j[: min(i.size, j.size)], threshold)
        assert flat.tolist() == [want[k][k] for k in range(flat.size)]

    def test_signed_zeros_tie(self):
        assert label_pairs(np.array([0.0, -0.0]), np.array([0]), np.array([1])).tolist() == [0]

    def test_threshold_is_inclusive(self):
        s = np.array([1.0, 0.5, 0.0])
        assert label_pairs(s, 0, np.array([1, 2]), 0.5).tolist() == [0, 1]
        assert label_pairs(s, np.array([1, 2]), 0, 0.5).tolist() == [0, -1]


class TestAllPairs:
    @settings(max_examples=50)
    @given(st.lists(TIED_OR_ANY, min_size=1, max_size=10))
    def test_every_pair_in_row_major_order(self, scores):
        i, j, r = all_pairs(np.array(scores))
        n = len(scores)
        want = [(a, b) for a in range(n) for b in range(a + 1, n)]
        assert list(zip(i.tolist(), j.tolist())) == want
        assert i.dtype == j.dtype == np.intp and r.dtype == np.int64
        assert r.tolist() == [oracles.ordinal_label(scores[a], scores[b]) for a, b in want]


def test_pair_arrays_rejects_empty():
    # check_pairs took over pair_arrays' job of turning a pair set into arrays
    empty = np.zeros(0, dtype=np.intp)
    for pairs in ([], (empty, empty, empty)):
        with pytest.raises(InvalidInputError):
            check_pairs(pairs, 2)
