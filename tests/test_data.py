import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from depthrank.core import RankedSample, pairs_from_permutation, permutation_from_scores
from depthrank.data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    hidden_raw_scores,
    normalize_relevance,
    read_dataset,
    sample_pair_arrays,
    sample_points,
    write_dataset,
)
from depthrank.errors import DatasetFormatError, DatasetVersionError, InvalidInputError
from depthrank.metrics import whdr
from depthrank.rng import SplitMix64


def small_spec(**overrides):
    base = dict(
        n_samples=4, items_per_sample=12, feature_dim=5, noise_sigma=0.0,
        scorer_family="linear", seed=42,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestGenerateSynthetic:
    def test_deterministic(self):
        assert generate_synthetic(small_spec()) == generate_synthetic(small_spec())

    def test_different_seed_differs(self):
        assert generate_synthetic(small_spec()) != generate_synthetic(small_spec(seed=43))

    def test_default_scale_item_count(self):
        ds = generate_synthetic(small_spec(n_samples=2, items_per_sample=500))
        assert all(s.n == 500 for s in ds.samples)

    def test_noiseless_linear_is_perfectly_rankable(self):
        ds = generate_synthetic(small_spec())
        hidden = ds.meta["hidden"]
        for s in ds.samples:
            scores = hidden_raw_scores(hidden, s.items)
            pairs = pairs_from_permutation(s.gt_perm, s.gt_scores)
            assert whdr(pairs, scores) == 0.0

    def test_noise_changes_scores(self):
        quiet = generate_synthetic(small_spec())
        noisy = generate_synthetic(small_spec(noise_sigma=0.5))
        assert not np.array_equal(quiet.samples[0].gt_scores, noisy.samples[0].gt_scores)
        # features are drawn before noise, so they stay identical
        assert np.array_equal(quiet.samples[0].items, noisy.samples[0].items)

    def test_mlp_family(self):
        ds = generate_synthetic(small_spec(scorer_family="mlp"))
        hidden = ds.meta["hidden"]
        assert hidden["family"] == "mlp"
        for s in ds.samples:
            assert np.array_equal(hidden_raw_scores(hidden, s.items), s.gt_scores)

    def test_unique_ids_and_meta_echo(self):
        ds = generate_synthetic(small_spec())
        assert len({s.id for s in ds.samples}) == len(ds)
        assert ds.meta["spec"]["items_per_sample"] == 12
        assert ds.meta["spec"]["seed"] == 42

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            small_spec(n_samples=0)
        with pytest.raises(InvalidInputError):
            small_spec(items_per_sample=0)
        with pytest.raises(InvalidInputError):
            small_spec(noise_sigma=-1.0)
        with pytest.raises(InvalidInputError):
            small_spec(scorer_family="resnet")


    @pytest.mark.parametrize("family, field", [
        ("linear", "w"), ("mlp", "w_hidden"), ("mlp", "b_hidden"), ("mlp", "w_out"),
    ])
    def test_corrupt_hidden_entry_is_format_error_at_line_1(self, family, field):
        hidden = generate_synthetic(small_spec(scorer_family=family)).meta["hidden"]
        features = np.zeros((2, 5))
        with pytest.raises(DatasetFormatError) as info:
            hidden_raw_scores({**hidden, field: ["zz"] + hidden[field][1:]}, features)
        assert info.value.line == 1


class TestNormalizeRelevance:
    def test_endpoints(self):
        assert normalize_relevance([10.0, 20.0]).tolist() == [0.0, 4.0]

    def test_constant_input(self):
        assert normalize_relevance([3.0, 3.0, 3.0]).tolist() == [0.0, 0.0, 0.0]

    def test_affine_map(self):
        assert normalize_relevance([0.0, 5.0, 10.0]).tolist() == [0.0, 2.0, 4.0]

    def test_range(self):
        rng = SplitMix64(1)
        for _ in range(50):
            rel = normalize_relevance(rng.normals(10))
            assert rel.min() == 0.0 and rel.max() == 4.0

    @given(
        st.lists(
            st.integers(min_value=-10**6, max_value=10**6), min_size=2, max_size=30, unique=True
        )
    )
    def test_preserves_ranking_for_distinct_values(self, int_scores):
        raw = np.asarray(int_scores, dtype=np.float64)
        assert (
            permutation_from_scores(raw).order
            == permutation_from_scores(normalize_relevance(raw)).order
        )


def make_sample(n=6, dim=3, seed=5):
    rng = SplitMix64(seed)
    return RankedSample(
        id="x", items=rng.normals(n * dim).reshape(n, dim), gt_scores=rng.normals(n)
    )


class TestSamplePoints:
    def test_full_draw_returns_all_indices(self):
        s = make_sample(n=8)
        assert sample_points(s, 8, SplitMix64(0)).tolist() == list(range(8))

    def test_single_draw(self):
        s = make_sample(n=8)
        idx = sample_points(s, 1, SplitMix64(0))
        assert idx.shape == (1,) and 0 <= idx[0] < 8

    def test_distinct_indices(self):
        s = make_sample(n=10)
        rng = SplitMix64(3)
        for _ in range(100):
            idx = sample_points(s, 6, rng)
            assert len(set(idx.tolist())) == 6

    def test_rejects_oversized_draw(self):
        s = make_sample(n=4)
        with pytest.raises(InvalidInputError):
            sample_points(s, 5, SplitMix64(0))
        with pytest.raises(InvalidInputError):
            sample_points(s, 0, SplitMix64(0))

    def test_uniform_frequency(self):
        # Monte-Carlo: with k=2 of n=4, each index appears w.p. 1/2
        s = make_sample(n=4)
        rng = SplitMix64(99)
        counts = np.zeros(4)
        trials = 100_000
        for _ in range(trials):
            for idx in sample_points(s, 2, rng):
                counts[idx] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.5) < 0.01)

    def test_deterministic(self):
        s = make_sample(n=10)
        a = sample_points(s, 4, SplitMix64(8)).tolist()
        b = sample_points(s, 4, SplitMix64(8)).tolist()
        assert a == b


class TestSamplePairs:
    def test_large_pair_draws(self):
        s = make_sample(n=10)
        i, j, r = sample_pair_arrays(s.gt_scores, 3000, SplitMix64(0))
        assert i.size == j.size == r.size == 3000
        assert i.dtype == j.dtype == np.intp and r.dtype == np.int64

    def test_two_items_only_valid_pairs(self):
        s = make_sample(n=2)
        i, j, _ = sample_pair_arrays(s.gt_scores, 50, SplitMix64(1))
        assert all({a, b} == {0, 1} for a, b in zip(i.tolist(), j.tolist()))

    def test_labels_match_pairs_from_permutation(self):
        s = make_sample(n=7)
        pairs = pairs_from_permutation(s.gt_perm, s.gt_scores)
        lookup = {(a, b): r for a, b, r in zip(*(x.tolist() for x in pairs))}
        i, j, r = sample_pair_arrays(s.gt_scores, 500, SplitMix64(2))
        for a, b, got in zip(i.tolist(), j.tolist(), r.tolist()):
            want = lookup[(a, b)] if (a, b) in lookup else -lookup[(b, a)]
            assert got == want

    def test_rejects_single_item_sample(self):
        s = make_sample(n=1)
        with pytest.raises(InvalidInputError):
            sample_pair_arrays(s.gt_scores, 10, SplitMix64(0))

    def test_indices_roughly_uniform(self):
        s = make_sample(n=5)
        i, j, _ = sample_pair_arrays(s.gt_scores, 100_000, SplitMix64(5))
        for arr in (i, j):
            freq = np.bincount(arr, minlength=5) / arr.size
            assert np.all(np.abs(freq - 0.2) < 0.01)


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        ds = generate_synthetic(small_spec())
        path = tmp_path / "d.txt"
        write_dataset(ds, path)
        assert read_dataset(path) == ds

    def test_roundtrip_is_bit_exact(self, tmp_path):
        ds = generate_synthetic(small_spec(noise_sigma=0.25))
        path = tmp_path / "d.txt"
        write_dataset(ds, path)
        back = read_dataset(path)
        for a, b in zip(ds.samples, back.samples):
            assert a.items.tobytes() == b.items.tobytes()
            assert a.gt_scores.tobytes() == b.gt_scores.tobytes()

    def test_write_is_deterministic(self, tmp_path):
        ds = generate_synthetic(small_spec())
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_dataset(ds, p1)
        write_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("line_no", [1, 3])
    def test_non_ascii_byte_names_its_line(self, tmp_path, line_no):
        path = tmp_path / "d.txt"
        write_dataset(generate_synthetic(small_spec()), path)
        lines = path.read_bytes().split(b"\n")
        lines[line_no - 1] += b"\xc3\xa9"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(path)
        assert info.value.line == line_no
        assert str(info.value) == f"line {line_no}: non-ASCII byte 0xc3"

    def test_truncated_file_is_an_error(self, tmp_path):
        ds = generate_synthetic(small_spec())
        path = tmp_path / "d.txt"
        write_dataset(ds, path)
        lines = path.read_text().splitlines()
        (tmp_path / "t.txt").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DatasetFormatError, match="truncated|expected"):
            read_dataset(tmp_path / "t.txt")

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("depthrank.dataset.v99 dim=2 samples=0 meta={}\n")
        with pytest.raises(DatasetVersionError):
            read_dataset(path)

    def test_mixed_feature_dims_name_the_sample(self, tmp_path):
        one = float(1.0).hex()
        lines = [
            "depthrank.dataset.v1 dim=2 samples=2 meta={}",
            f"good 1 2 {one} {one} {one}",
            f"bad 1 3 {one} {one} {one} {one}",
        ]
        path = tmp_path / "m.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="bad"):
            read_dataset(path)

    def test_malformed_float_reports_line(self, tmp_path):
        one = float(1.0).hex()
        lines = [
            "depthrank.dataset.v1 dim=2 samples=1 meta={}",
            f"s0 1 2 {one} zzz {one}",
        ]
        path = tmp_path / "f.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        one = float(1.0).hex()
        lines = [
            "depthrank.dataset.v1 dim=2 samples=3 meta={}",
            f"s0 1 2 {one} {one} {one}",
            "",
            f"s1 1 2 {one} {one} {one}",
            f"s2 1 2 {one} zzz {one}",
        ]
        path = tmp_path / "b.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="line 5") as info:
            read_dataset(path)
        assert info.value.line == 5

    def test_rejects_whitespace_ids(self, tmp_path):
        s = make_sample()
        ds = Dataset(samples=(RankedSample(id="a b", items=s.items, gt_scores=s.gt_scores),))
        with pytest.raises(InvalidInputError):
            write_dataset(ds, tmp_path / "w.txt")


class TestDatasetInvariants:
    def test_rejects_mixed_dims(self):
        a = make_sample(dim=3)
        b = RankedSample(id="y", items=np.zeros((2, 4)), gt_scores=[1.0, 0.0])
        with pytest.raises(InvalidInputError):
            Dataset(samples=(a, b))

    def test_rejects_duplicate_ids(self):
        a = make_sample()
        with pytest.raises(InvalidInputError):
            Dataset(samples=(a, a))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            Dataset(samples=())
