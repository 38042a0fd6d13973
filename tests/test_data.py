import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrank import data
from depthrank.core import RankedSample, pairs_from_permutation, permutation_from_scores
from depthrank.data import (
    Dataset,
    SyntheticSpec,
    _parse_count,
    _relevance_rows,
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

import oracles

HUGE = float.fromhex("0x1.fffffffffffffp+1023")
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


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
            pairs = pairs_from_permutation(permutation_from_scores(s.gt_scores), s.gt_scores)
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

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_chunked_draws_match_per_sample_draws(self, draw):
        n, d = draw.draw(st.one_of(
            st.tuples(st.integers(1, 4), st.integers(1, 4)),     # n = 1, d = 1
            st.tuples(st.integers(9, 41), st.integers(3, 12)),   # several samples a chunk
            st.tuples(st.integers(1, 60).map(lambda k: data._CHUNK_DRAWS // 10 + k),
                      st.just(10)),                              # a sample over the cap
        ))
        noise = draw.draw(st.sampled_from([0.0, 0.3]))
        per_chunk = max(1, data._CHUNK_DRAWS // draws_per_sample(n, d, noise))
        if per_chunk > 600:
            count = draw.draw(st.integers(1, 8))
        else:
            count = draw.draw(st.sampled_from([max(1, per_chunk - 1), per_chunk + 1,
                                               2 * per_chunk + 1])
                              | st.integers(1, 2 * per_chunk + 1))
        spec = small_spec(n_samples=count, items_per_sample=n, feature_dim=d,
                          noise_sigma=noise, scorer_family=draw.draw(st.sampled_from(
                              ["linear", "mlp"])),
                          seed=draw.draw(st.integers(0, 2**64 - 1)))
        got, drawn, scored = counted(generate_synthetic, spec)
        want, want_drawn, _ = counted(oracles.per_sample_synthetic, spec)
        assert got.meta == want.meta and len(got) == len(want) == count
        for a, b in zip(got.samples, want.samples):
            assert a.id == b.id and a.items.shape == b.items.shape
            assert a.items.tobytes() == b.items.tobytes()
            assert a.gt_scores.tobytes() == b.gt_scores.tobytes()
        assert drawn == want_drawn
        assert scored == count  # the hidden scorer runs once per sample
        # built without checks, yet what the validating constructors build
        rebuilt = Dataset(tuple(RankedSample(s.id, s.items, s.gt_scores) for s in got.samples),
                          got.meta)
        assert rebuilt == got
        for s in got.samples:
            for arr in (s.items, s.gt_scores):
                assert arr.dtype == np.float64 and arr.flags.c_contiguous
                assert not arr.flags.writeable

    def test_overflowing_noise_names_sigma_and_the_first_sample(self):
        spec = small_spec(n_samples=40, items_per_sample=3, feature_dim=2, noise_sigma=1e308)
        first = next(sid for sid, _, raw in oracles.per_sample_draws(spec)[1]
                     if not np.isfinite(raw).all())
        assert first != "s00000"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError) as info:
                generate_synthetic(spec)
        assert str(info.value) == (
            f"noise_sigma 1e+308 makes the scores of sample {first!r} overflow")


def draws_per_sample(n, d, noise_sigma):
    """The u64 draws of one sample: ``normals(n * d)`` and, with noise,
    ``normals(n)``, each rounded up to whole Box-Muller pairs."""
    return 2 * ((n * d + 1) // 2) + (2 * ((n + 1) // 2) if noise_sigma > 0 else 0)


def counted(make, spec):
    """``make(spec)``, the u64 values it drew and its hidden-scorer calls."""
    drawn, scored = [], []
    block, scorer = SplitMix64.u64_block, data._hidden_scorer

    def counting_block(self, count):
        drawn.append(count)
        return block(self, count)

    def counting_scorer(hidden, dim):
        score = scorer(hidden, dim)
        return lambda features: scored.append(1) or score(features)

    with mock.patch.object(SplitMix64, "u64_block", counting_block), \
            mock.patch.object(data, "_hidden_scorer", counting_scorer):
        return make(spec), sum(drawn), len(scored)


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

    def test_overflowing_span_maps_halves(self):
        assert normalize_relevance([-HUGE, HUGE]).tolist() == [0.0, 4.0]
        assert normalize_relevance([HUGE, 0.0, -HUGE, -0.0]).tolist() == [4.0, 2.0, 0.0, 2.0]
        assert normalize_relevance([-HUGE, HUGE / 2, HUGE]).tolist() == [0.0, 3.0, 4.0]

    @given(st.lists(st.one_of(ANY_FINITE, st.sampled_from([-HUGE, HUGE])), min_size=2,
                    max_size=20))
    def test_any_finite_scores_map_onto_the_range_in_order(self, values):
        raw = np.array(values)
        rel = normalize_relevance(raw)
        assert np.isfinite(rel).all() and rel.min() == 0.0
        assert rel.max() == (0.0 if raw.min() == raw.max() else 4.0)
        order = np.argsort(raw, kind="stable")
        assert (np.diff(rel[order]) >= 0.0).all()

    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=20))
    def test_spans_that_do_not_overflow_keep_their_bits(self, values):
        raw = np.array(values)
        span = raw.max() - raw.min()
        want = np.zeros(raw.size) if span == 0.0 else (raw - raw.min()) / span * 4.0
        assert normalize_relevance(raw).tobytes() == want.tobytes()

    def test_rows_are_normalized_on_their_own(self):
        raw = np.array([[-HUGE, 1.0, HUGE], [1.0, 2.0, 5.0], [3.0, 3.0, 3.0]])
        got = _relevance_rows(raw)
        for row, want in zip(got, raw):
            assert row.tobytes() == normalize_relevance(want).tobytes()


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
        pairs = pairs_from_permutation(permutation_from_scores(s.gt_scores), s.gt_scores)
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

    @pytest.mark.parametrize("header, records, message", [
        ("dim=2 samples=2", ["a 1 2 X X X", "b 0 2"],
         "line 3: sample 'b': items must be a non-empty (n, d) matrix, got shape (0, 2)"),
        ("dim=0 samples=1", ["a 2 0 X X"],
         "line 2: sample 'a': items must be a non-empty (n, d) matrix, got shape (2, 0)"),
        ("dim=2 samples=2", ["a 1 2 X X X", "b 1 2 X nan X"],
         "line 3: sample 'b': item features must be finite"),
        ("dim=2 samples=2", ["a 1 2 X X X", "b 1 2 X X -inf"],
         "line 3: sample 'b': scores must be finite (no NaN/Inf)"),
        ("dim=2 samples=2", ["a 1 2 X X X", "b 1 2 inf X -inf"],  # features first
         "line 3: sample 'b': item features must be finite"),
        ("dim=2 samples=2", ["a 1 2 X X X", "a 0 2"],  # a record's own fault first
         "line 3: sample 'a': items must be a non-empty (n, d) matrix, got shape (0, 2)"),
        ("dim=2 samples=0", [], "dataset must contain at least one sample"),
        ("dim=2 samples=3", ["a 1 2 X X X", "b 1 2 X X X", "a 1 2 X X X"],
         "line 4: duplicate sample id 'a'"),
    ])
    def test_record_faults_give_one_message_at_their_line(self, tmp_path, header, records,
                                                          message):
        one = float(1.0).hex()
        path = tmp_path / "r.txt"
        path.write_text("\n".join([f"depthrank.dataset.v1 {header} meta={{}}"]
                                  + [r.replace("X", one) for r in records]) + "\n")
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(path)
        assert str(info.value) == message

    def test_read_samples_are_read_only_float64(self, tmp_path):
        path = tmp_path / "d.txt"
        write_dataset(generate_synthetic(small_spec()), path)
        for s in read_dataset(path).samples:
            for arr in (s.items, s.gt_scores):
                assert arr.dtype == np.float64 and arr.flags.c_contiguous
                assert not arr.flags.writeable

    def test_non_finite_feature_names_the_sample_once(self, tmp_path):
        one = float(1.0).hex()
        path = tmp_path / "n.txt"
        path.write_text("\n".join([
            "depthrank.dataset.v1 dim=2 samples=1 meta={}",
            f"s0 1 2 {one} inf {one}",
        ]) + "\n")
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(path)
        assert str(info.value) == "line 2: sample 's0': item features must be finite"

    @pytest.mark.parametrize("header, record, message", [
        ("dim=+2 samples=1", "s0 1 2", "line 1: malformed header: dim must be ASCII digits, got '+2'"),
        ("dim=2 samples=0_1", "s0 1 2",
         "line 1: malformed header: samples must be ASCII digits, got '0_1'"),
        ("dim=2 samples=1", "s0 +1 2", "line 2: bad sample counts: n must be ASCII digits, got '+1'"),
        ("dim=2 samples=1", "s0 1 0_2", "line 2: bad sample counts: d must be ASCII digits, got '0_2'"),
    ])
    def test_counts_are_ascii_digits(self, tmp_path, header, record, message):
        one = float(1.0).hex()
        path = tmp_path / "c.txt"
        path.write_text(f"depthrank.dataset.v1 {header} meta={{}}\n{record} {one} {one} {one}\n")
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["", "+3", "-3", "0_3", " 3", "3.0", "\uff13", "\u00b2"])
    def test_parse_count_takes_only_ascii_digits(self, text):
        with pytest.raises(ValueError, match="n must be ASCII digits"):
            _parse_count("n", text)
        assert _parse_count("n", "03") == 3

    def test_rejects_whitespace_ids(self, tmp_path):
        s = make_sample()
        ds = Dataset(samples=(RankedSample(id="a b", items=s.items, gt_scores=s.gt_scores),))
        with pytest.raises(InvalidInputError):
            write_dataset(ds, tmp_path / "w.txt")

    def test_rejects_non_ascii_ids_before_opening_the_file(self, tmp_path):
        s = make_sample()
        ds = Dataset(samples=(s, RankedSample(id="é1", items=s.items, gt_scores=s.gt_scores)))
        path = tmp_path / "w.txt"
        with pytest.raises(InvalidInputError, match="ASCII"):
            write_dataset(ds, path)
        assert not path.exists()

    def test_error_while_writing_leaves_no_partial_file(self, tmp_path, monkeypatch):
        from depthrank import data

        calls = []

        def fail_on_second_record(values):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return format_floats(values)

        format_floats = data._format_floats
        monkeypatch.setattr(data, "_format_floats", fail_on_second_record)
        path = tmp_path / "w.txt"
        with pytest.raises(OSError, match="disk full"):
            write_dataset(generate_synthetic(small_spec()), path)
        assert len(calls) == 2 and not path.exists()


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
