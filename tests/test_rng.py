import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from depthrank.core import RankedSample
from depthrank.data import sample_points
from depthrank.errors import InvalidInputError
from depthrank.rng import SplitMix64, _box_muller

import oracles


def test_same_seed_same_stream():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_differ():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_block_matches_scalar_draws():
    a = SplitMix64(7)
    b = SplitMix64(7)
    block = a.u64_block(100)
    scalars = np.array([b.next_u64() for _ in range(100)], dtype=np.uint64)
    assert np.array_equal(block, scalars)
    # streams stay aligned afterwards
    assert a.next_u64() == b.next_u64()


def test_known_splitmix64_vector():
    # reference-algorithm outputs for seed 1234567; pins the exact stream
    rng = SplitMix64(1234567)
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert [rng.next_u64() for _ in range(3)] == expected


def test_uniform_range_and_determinism():
    rng = SplitMix64(3)
    xs = rng.uniforms(10_000)
    assert np.all(xs >= 0.0) and np.all(xs < 1.0)
    assert abs(xs.mean() - 0.5) < 0.02
    rng2 = SplitMix64(3)
    assert np.array_equal(xs, rng2.uniforms(10_000))


def test_normals_moments():
    rng = SplitMix64(11)
    xs = rng.normals(100_000)
    assert abs(xs.mean()) < 0.02
    assert abs(xs.std() - 1.0) < 0.02
    assert np.isfinite(xs).all()


def test_normals_odd_count():
    assert SplitMix64(5).normals(7).shape == (7,)
    assert SplitMix64(5).normals(0).shape == (0,)


@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 40), min_size=1, max_size=8))
def test_consecutive_normals_are_the_rows_of_one_block(seed, counts):
    rng, block = SplitMix64(seed), SplitMix64(seed)
    rows = [2 * ((c + 1) // 2) for c in counts]
    values = _box_muller(block.u64_block(sum(rows)))
    start = 0
    for count, row in zip(counts, rows):
        assert rng.normals(count).tobytes() == values[start : start + count].tobytes()
        start += row
    assert rng.next_u64() == block.next_u64()


def test_below_bounds():
    rng = SplitMix64(9)
    draws = [rng.below(7) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 6


def test_below_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        SplitMix64(0).below(0)


def test_permutation_is_bijection():
    rng = SplitMix64(13)
    for n in (0, 1, 2, 5, 50):
        p = rng.permutation(n)
        assert sorted(p.tolist()) == list(range(n))


def counted_draws(seed):
    """A ``next_u64`` of a fresh stream, and the list its calls are logged in."""
    rng, calls = SplitMix64(seed), []

    def draw():
        calls.append(1)
        return rng.next_u64()

    return rng, draw, calls


@given(st.integers(0, 2**64 - 1), st.integers(0, 40), st.data())
def test_shuffle_prefix_matches_naive_fisher_yates(seed, n, data):
    k = data.draw(st.integers(0, n))
    rng = SplitMix64(seed)
    ref, draw, calls = counted_draws(seed)
    assert rng.shuffle_prefix(n, k).tolist() == oracles.fisher_yates_prefix(n, k, draw)
    assert len(calls) == k
    assert rng.next_u64() == ref.next_u64()


@given(st.integers(0, 2**64 - 1), st.integers(1, 30), st.data())
def test_permutation_and_sample_points_match_naive_fisher_yates(seed, n, data):
    ref, draw, calls = counted_draws(seed)
    rng = SplitMix64(seed)
    assert rng.permutation(n).tolist() == oracles.fisher_yates_prefix(n, n - 1, draw)
    assert len(calls) == n - 1 and rng.next_u64() == ref.next_u64()
    k = data.draw(st.integers(1, n))
    sample = RankedSample(id="s", items=np.zeros((n, 1)), gt_scores=np.zeros(n))
    calls.clear()
    got = sample_points(sample, k, rng).tolist()
    if k == n:  # the whole sample, in order, with no draws
        assert got == list(range(n)) and not calls
    else:
        assert got == oracles.fisher_yates_prefix(n, k, draw)[:k] and len(calls) == k
    assert rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize("n, k", [(1, 0), (5, 2), (20, 19), (1000, 100), (5000, 4999)])
def test_shuffle_prefix_matches_naive_fisher_yates_at_fixed_sizes(n, k):
    ref, draw, calls = counted_draws(n + k)
    rng = SplitMix64(n + k)
    got = rng.shuffle_prefix(n, k)
    assert got.dtype == np.intp and got.tolist() == oracles.fisher_yates_prefix(n, k, draw)
    assert len(calls) == k and rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize("n, k", [(3, 4), (3, -1), (-1, 0)])
def test_shuffle_prefix_rejects_bad_sizes(n, k):
    with pytest.raises(InvalidInputError):
        SplitMix64(0).shuffle_prefix(n, k)


def test_permutation_deterministic():
    assert np.array_equal(SplitMix64(21).permutation(30), SplitMix64(21).permutation(30))


def test_seed_validation():
    with pytest.raises(InvalidInputError):
        SplitMix64(-1)
    with pytest.raises(InvalidInputError):
        SplitMix64(2**64)
    with pytest.raises(InvalidInputError):
        SplitMix64(1.5)
