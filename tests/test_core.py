import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrank import core
from depthrank.core import (
    Permutation,
    RankedSample,
    _exact_row_sums,
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


HUGE = float.fromhex("0x1.fffffffffffffp+1023")
# Terms dropped into random places: signed zeros, subnormals, the edges of
# the float range, a term and its halfway-to-the-next-float partner, and
# the non-finite values.
SPECIAL_TERMS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                 HUGE, -HUGE, 1.0, 2.0**-53, -(2.0**-53), 2.0**-106, math.inf, -math.inf,
                 math.nan]


def stress_rows(seed: int, kind: str, b: int, m: int) -> np.ndarray:
    """(b, m) terms of one kind, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size=(b, m))
    if kind == "wide":  # magnitudes over 2^-60 .. 2^60
        return sign * rng.random((b, m)) * np.exp2(rng.integers(-60, 61, size=(b, m)))
    if kind == "positive":  # the loss kernels' terms: no cancellation
        return rng.random((b, m)) * 20.0
    if kind == "cancel":  # each term meets its negation, plus a few tiny terms
        half = sign[:, : (m + 1) // 2] * rng.random((b, (m + 1) // 2)) * 1e16
        a = np.concatenate([half, -half], axis=1)[:, :m]
        a[:, rng.random(m) < 0.1] *= 1e-20
        return rng.permuted(a, axis=1)
    if kind == "halfway":  # x + ulp(x) / 2 in one or two terms: a tie, rounded to even
        a = np.zeros((b, m))
        a[:, 0] = 1.0 + rng.integers(0, 2**52, size=b) * 2.0**-52
        if m == 2:
            a[:, 1] = 2.0**-53
        elif m > 2:
            a[:, 1:3] = 2.0**-54
        return rng.permuted(a, axis=1)
    if kind == "subnormal":
        return rng.integers(-2**20, 2**20, size=(b, m)) * 5e-324
    # "huge": sums that overflow part-way or in the result
    return sign * (1.0 + rng.random((b, m))) * 2.0**1022


@st.composite
def row_arrays(draw):
    m = draw(st.one_of(st.integers(1, 40), st.integers(41, 300), st.integers(300, 5000)))
    # up to about 2048 terms a call, at least one row; both paths are reached
    b = draw(st.integers(1, max(1, 2048 // m)))
    kind = draw(st.sampled_from(["wide", "positive", "cancel", "halfway", "subnormal", "huge"]))
    a = stress_rows(draw(st.integers(0, 2**32 - 1)), kind, b, m)
    for at, term in draw(st.lists(st.tuples(st.integers(0, b * m - 1),
                                            st.sampled_from(SPECIAL_TERMS)), max_size=4)):
        a.flat[at] = term
    return a


def same_bits(x: float, y: float) -> bool:
    """Equal floats, the sign of zero included; any nan matches any nan."""
    return (math.isnan(x) and math.isnan(y)) or x.hex() == y.hex()


class TestExactRowSums:
    """``_exact_row_sums`` has the bits of ``math.fsum`` on each row (see
    ``oracles.row_fsum`` for rows whose fsum overflows)."""

    def check(self, a) -> bool:
        """Compare with the oracle; False where a row's inf - inf raised."""
        try:
            expected = [oracles.row_fsum(row) for row in a.tolist()]
        except ValueError:
            with pytest.raises(ValueError):
                _exact_row_sums(a)
            return False
        got = _exact_row_sums(a)
        assert got.dtype == np.float64 and got.shape == (a.shape[0],)
        for row, (x, y) in enumerate(zip(got.tolist(), expected)):
            assert same_bits(x, y), (row, a[row].tolist(), x, y)
        return True

    @settings(max_examples=150, deadline=None)
    @given(row_arrays())
    def test_matches_fsum(self, a):
        self.check(a)

    @settings(max_examples=60, deadline=None)
    @given(row_arrays())
    def test_matches_fsum_with_float64_as_extended_type(self, a):
        # longdouble is float64 on some platforms: every row takes fsum
        fsum_rows = mock.Mock(wraps=core._fsum)
        with mock.patch.object(core, "_EXTENDED", np.float64), \
                mock.patch.object(core, "_fsum", fsum_rows):
            summed = self.check(a)
        assert fsum_rows.call_count == a.shape[0] or not summed

    def test_overflow_in_between_and_in_the_result(self):
        # math.fsum raises OverflowError on each of these rows
        a = np.array([[1e308, 1e308, -1e308, 0.0], [1e308, 1e308, 0.0, 0.0],
                      [-1e308, -1e308, 0.0, 0.0], [1e308, 1e308, -1e308, -1e308],
                      [1e308, 1e308, math.nan, 0.0]])
        got = _exact_row_sums(a).tolist()
        assert got[:4] == [1e308, math.inf, -math.inf, 0.0] and math.isnan(got[4])

    def test_halfway_sums_round_to_even(self):
        # 1 + 2^-53 lies halfway between 1 and its successor: fsum rounds it
        # to 1; one more term of 2^-106 tips it up.  Enough rows of them for
        # the extended path.
        rows = np.zeros((200, 3))
        rows[:, 0], rows[:, 1] = 1.0, 2.0**-53
        rows[1::2, 2] = 2.0**-106
        got = _exact_row_sums(rows)
        assert got[::2].tolist() == [1.0] * 100
        assert got[1::2].tolist() == [1.0 + 2.0**-52] * 100

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                        reason="longdouble is float64 here")
    def test_most_rows_are_certified(self):
        # the loss kernel's shape: 100 rows of 19 positive terms
        a = np.random.default_rng(5).random((100, 19)) * 20.0
        fsum_rows = mock.Mock(wraps=core._fsum)
        with mock.patch.object(core, "_fsum", fsum_rows):
            got = _exact_row_sums(a)
        assert got.tolist() == [math.fsum(row) for row in a.tolist()]
        assert fsum_rows.call_count <= 10
