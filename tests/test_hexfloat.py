"""The hex-float codec of ``depthrank.data`` against the per-float oracle
in ``tests/oracles.py``: bytes written, bits read, and every error."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrank.data import (
    SyntheticSpec,
    _canonical_floats,
    _format_floats,
    _parse_floats,
    generate_synthetic,
    read_dataset,
    write_dataset,
)
from depthrank.errors import DatasetFormatError
from depthrank.rng import SplitMix64
from depthrank.scorer import LinearScorer, MlpScorer, read_params, write_params

from oracles import dataset_text, fromhex_floats, hex_list, params_text

SPECIAL = [
    0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 10.0, 1e-300, -1e300,
    5e-324, -5e-324,                          # smallest subnormal
    2.225073858507201e-308,                   # largest subnormal
    2.2250738585072014e-308,                  # smallest normal
    1.7976931348623157e308, -1.7976931348623157e308,  # largest finite
]


def bits_to_floats(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


# finite doubles as bit patterns: sign, biased exponent below 2047, mantissa
finite_bits = st.builds(
    lambda sign, biased, mantissa: sign << 63 | biased << 52 | mantissa,
    st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2**52 - 1),
)
float_lists = st.lists(
    st.one_of(finite_bits, st.sampled_from(SPECIAL).map(
        lambda x: int(np.float64(x).view(np.uint64)))),
    min_size=1, max_size=40,
).map(bits_to_floats)


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestFormat:
    @settings(max_examples=300)
    @given(float_lists)
    def test_equals_float_hex(self, values):
        assert _format_floats(values) == " ".join(hex_list(values)).encode("ascii")

    def test_special_values(self):
        text = _format_floats(np.array(SPECIAL)).decode("ascii")
        assert text.split(" ") == hex_list(SPECIAL)
        assert text.startswith("0x0.0p+0 -0x0.0p+0 0x1.0000000000000p+0 ")
        assert "0x0.0000000000001p-1022" in text and "0x0.fffffffffffffp-1022" in text

    def test_random_bit_patterns(self):
        bits = np.frombuffer(SplitMix64(3).u64_block(20_000).tobytes(), np.uint64)
        values = bits.view(np.float64)[np.isfinite(bits.view(np.float64))]
        assert _format_floats(values) == " ".join(hex_list(values)).encode("ascii")

    def test_matrix_is_written_row_major(self):
        values = np.arange(6.0).reshape(2, 3)
        assert _format_floats(values) == " ".join(hex_list(values)).encode("ascii")


class TestParse:
    @settings(max_examples=300)
    @given(float_lists)
    def test_canonical_text_reads_back_every_bit(self, values):
        text = " ".join(hex_list(values))
        assert same_bits(_canonical_floats(text), values)
        assert same_bits(_parse_floats(text, 2), values)

    @pytest.mark.parametrize("token", [
        "0X1P0", "0x1.8p1", "+0x1p0", "0x1.0000000000000p+01", "0x1.0000000000000p+0\t",
        "1.5", "0x1p+0", "0x1.0000000000000P+0", "0x1.000000000000Ap+0", "0x0.8p-1022",
        "0x0.0000000000000p-1022", "0x0.0p-0", "-0x0p0", "\f0x1.0000000000000p+0",
        "0x1.0000000000000p-0", "0x2.0000000000000p+0", "0x1.00000000000000p+0",
        "0x1.0000000000000p-1023", "0x0.8000000000000p+0",
    ])
    def test_non_canonical_token_is_read_like_fromhex(self, token):
        assert _canonical_floats(token) is None
        for text in (token, f"0x1.0000000000000p+0 {token}", f"{token} -0x1.8000000000000p-3"):
            assert same_bits(_parse_floats(text, 2), fromhex_floats(text.split(" ")))

    @settings(max_examples=300)
    @given(st.sampled_from(SPECIAL + [1.5, -2.75e-300, 3.0e10]), st.integers(0, 30),
           st.characters(min_codepoint=9, max_codepoint=126), st.booleans())
    def test_a_changed_token_is_read_like_fromhex(self, value, at, char, insert):
        token = float(value).hex()
        at = min(at, len(token))
        text = token[:at] + char + token[at + (not insert):]
        try:
            want = fromhex_floats(text.split(" "))
        except (ValueError, OverflowError) as exc:
            with pytest.raises(DatasetFormatError) as info:
                _parse_floats(text, 2)
            assert str(info.value) == f"line 2: bad float token: {exc}"
            return
        if _canonical_floats(text) is not None:
            assert " ".join(hex_list(want)) == text
        assert same_bits(_parse_floats(text, 2), want)

    @pytest.mark.parametrize("text", ["zz", "", "0x1.0000000000000p+0  0x1p0", "1.5 inf",
                                      "0x1p+0 nan x", "é", "0x1p0,0x1p0"])
    def test_bad_token_is_the_oracles_error_at_the_line(self, text):
        try:
            fromhex_floats(text.split(" "))
        except ValueError as exc:
            with pytest.raises(DatasetFormatError) as info:
                _parse_floats(text, 7)
            assert info.value.line == 7
            assert str(info.value) == f"line 7: bad float token: {exc}"
        else:
            assert same_bits(_parse_floats(text, 7), fromhex_floats(text.split(" ")))

    def test_overflowing_token_is_a_format_error_at_its_line(self):
        with pytest.raises(OverflowError) as want:
            float.fromhex("0x1p5000")
        with pytest.raises(DatasetFormatError) as got:
            _parse_floats("0x1.0000000000000p+0 0x1p5000", 2)
        assert got.value.line == 2
        assert str(got.value) == f"line 2: bad float token: {want.value}"


def write_lines(path, lines, end="\n"):
    path.write_bytes("".join(line + end for line in lines).encode("ascii"))
    return path


class TestFiles:
    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_dataset_bytes_equal_the_oracle_writer(self, tmp_path, family):
        ds = generate_synthetic(SyntheticSpec(n_samples=5, items_per_sample=9, feature_dim=3,
                                              noise_sigma=0.5, scorer_family=family, seed=4))
        path = tmp_path / "d.txt"
        write_dataset(ds, path)
        header = path.read_text(encoding="ascii").split("\n", 1)[0]
        want = dataset_text(header, [(s.id, s.items, s.gt_scores) for s in ds.samples])
        assert path.read_bytes() == want.encode("ascii")
        assert read_dataset(path) == ds

    @pytest.mark.parametrize("family", ["linear", "mlp"])
    def test_hidden_scorer_is_written_like_float_hex(self, family):
        spec = SyntheticSpec(n_samples=1, items_per_sample=2, feature_dim=4,
                             scorer_family=family, seed=8)
        hidden = generate_synthetic(spec).meta["hidden"]
        rng = SplitMix64(spec.seed)
        if family == "linear":
            drawn = {"w": rng.normals(4)}
        else:
            drawn = {"w_hidden": rng.normals(32).reshape(8, 4) / math.sqrt(4),
                     "b_hidden": 0.5 * rng.normals(8), "w_out": rng.normals(8) / math.sqrt(8)}
        for key, values in drawn.items():
            assert hidden[key] == hex_list(values)

    def test_params_bytes_equal_the_oracle_writer(self, tmp_path):
        rng = SplitMix64(11)
        scorers = [
            (LinearScorer(w=rng.normals(5), b=-0.0),
             "depthrank.params.v1 family=linear dim=5", ["w", "b"]),
            (MlpScorer(w_hidden=rng.normals(12).reshape(3, 4), b_hidden=np.zeros(3),
                       w_out=rng.normals(3) * 1e-310, b_out=2.5),
             "depthrank.params.v1 family=mlp dim=4 hidden=3",
             ["w_hidden", "b_hidden", "w_out", "b_out"]),
        ]
        for params, header, names in scorers:
            path = tmp_path / f"{params.family}.txt"
            write_params(params, path)
            want = params_text(header, [(name, getattr(params, name)) for name in names])
            assert path.read_bytes() == want.encode("ascii")
            back = read_params(path)
            for name in names:
                assert same_bits(getattr(back, name), getattr(params, name))

    def test_non_canonical_tokens_and_crlf_read_like_fromhex(self, tmp_path):
        tokens = ["0X1P0", "0x1.8p1", "+0x1p0", "0x1.0000000000000p+01", "-0x0p0", "1.5"]
        path = write_lines(tmp_path / "d.txt", [
            "depthrank.dataset.v1 dim=2 samples=2 meta={}",
            f"a 2 2 {' '.join(tokens)}",
            "b 1 2 0x1.0000000000000p+0 -0x1.0000000000000p-1 0x0.0p+0",
        ], end="\r\n")
        ds = read_dataset(path)
        assert same_bits(ds.samples[0].items, fromhex_floats(tokens[:4]).reshape(2, 2))
        assert same_bits(ds.samples[0].gt_scores, fromhex_floats(tokens[4:]))
        assert same_bits(ds.samples[1].items, [[1.0, -0.5]])

    @pytest.mark.parametrize("bad", ["zzz", "", "0x1.0000000000000p+0\x0b", "0x1.0000000000000q+0",
                                     "0x1p5000"])
    def test_bad_token_after_blank_lines_names_its_line(self, tmp_path, bad):
        one = float(1.0).hex()
        path = write_lines(tmp_path / "d.txt", [
            "depthrank.dataset.v1 dim=2 samples=2 meta={}",
            f"s0 1 2 {one} {one} {one}", "", "  ",
            f"s1 1 2 {one} {bad} {one}",
        ])
        line_no = 5
        if bad.endswith("\x0b"):  # a line break for str.splitlines: the record splits
            with pytest.raises(DatasetFormatError, match="expected 2 sample records"):
                read_dataset(path)
            return
        with pytest.raises((ValueError, OverflowError)) as want:
            float.fromhex(bad)
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(path)
        assert info.value.line == line_no
        assert str(info.value) == f"line {line_no}: bad float token: {want.value}"

    def test_wrong_token_count_is_reported_before_a_bad_token(self, tmp_path):
        path = write_lines(tmp_path / "d.txt", [
            "depthrank.dataset.v1 dim=2 samples=1 meta={}", "s0 1 2 zz 0x1p0",
        ])
        with pytest.raises(DatasetFormatError) as info:
            read_dataset(path)
        assert str(info.value) == "line 2: sample 's0': expected 6 tokens, found 5"

    @pytest.mark.parametrize("record, message", [
        ("w 0x1.0000000000000p+0 inf", "'w' values must be finite"),
        ("w 0x1.0000000000000p+0 zz", "bad float token: invalid hexadecimal floating-point string"),
        ("w 0x1.0000000000000p+0", "expected 'w' with 2 values, got 'w' with 1"),
        ("w 0x1.0000000000000p+0 0x1p5000",
         "bad float token: hexadecimal value too large to represent as a float"),
    ])
    def test_params_errors_keep_their_messages(self, tmp_path, record, message):
        path = write_lines(tmp_path / "p.txt", [
            "depthrank.params.v1 family=linear dim=2", record, "b 0x0.0p+0",
        ])
        with pytest.raises(DatasetFormatError) as info:
            read_params(path)
        assert str(info.value) == f"line 2: {message}"
