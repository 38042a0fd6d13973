"""Synthetic ordinal-depth datasets, point and pair sampling, and the
hex-float text I/O shared by dataset and params files.

A synthetic dataset is a desk-scale stand-in for large ordinal-depth
corpora: each sample holds ``items_per_sample`` feature vectors drawn
i.i.d. standard normal, and a hidden scorer (linear or a small random
tanh network, drawn once per dataset) produces the raw ground-truth
scores, optionally perturbed by Gaussian label noise.  The hidden
parameters are stored in the dataset metadata so tests can verify that
noiseless data is perfectly rankable.

File format (``depthrank.dataset.v1``) — line-delimited text:

    depthrank.dataset.v1 dim=<d> samples=<m> meta=<compact JSON>
    <id> <n> <d> <n*d feature hex-floats> <n raw-score hex-floats>
    ...                                   (exactly m sample lines)

Floats are written as ``float.hex`` writes them, so round-trips are
bit-exact: ``[-]0x1.<13 hex digits>p<sign><exponent>`` for normal
numbers, ``[-]0x0.<13 hex digits>p-1022`` for subnormals and
``[-]0x0.0p+0`` for zero, lowercase, with a decimal exponent from -1022
to +1023 that has no leading zero and reads ``+0`` for zero.  One numpy
codec writes a record's floats in one pass and reads a record in which
every token has that canonical layout in one pass; a record holding any
other token (``0x1.8p1``, ``0X1P0``, ``+0x1p0``, ``1.5``, ``inf``, an
empty token ...) is read token by token with ``float.fromhex``, so the
reader accepts and rejects exactly what ``float.fromhex`` does.  Memory
stays proportional to one record.  The params files of
:mod:`depthrank.scorer` use the same codec and the same header reader.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

import numpy as np

from .core import RankedSample, as_score_vector, label_pairs
from .errors import DatasetFormatError, DatasetVersionError, InvalidInputError
from .rng import SplitMix64, _box_muller

DATASET_FORMAT = "depthrank.dataset.v1"
FAMILY_LINEAR = "linear"
FAMILY_MLP = "mlp"
RELEVANCE_MAX = 4.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset; same spec + seed => identical bytes."""

    n_samples: int
    items_per_sample: int = 500
    feature_dim: int = 10
    noise_sigma: float = 0.0
    scorer_family: str = FAMILY_LINEAR
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "items_per_sample", "feature_dim"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1: {getattr(self, name)}")
        if not (self.noise_sigma >= 0 and math.isfinite(self.noise_sigma)):
            raise InvalidInputError(f"noise_sigma must be finite and >= 0: {self.noise_sigma}")
        if self.scorer_family not in (FAMILY_LINEAR, FAMILY_MLP):
            raise InvalidInputError(
                f"scorer_family must be '{FAMILY_LINEAR}' or '{FAMILY_MLP}': "
                f"{self.scorer_family!r}"
            )
        if not (0 <= self.seed < 2**64):
            raise InvalidInputError(f"seed must be in [0, 2^64): {self.seed}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """A list of ranked samples plus generator/format metadata."""

    samples: tuple[RankedSample, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        samples = tuple(self.samples)
        if not samples:
            raise InvalidInputError("dataset must contain at least one sample")
        dim = samples[0].dim
        ids = set()
        for s in samples:
            if s.dim != dim:
                raise InvalidInputError(
                    f"sample {s.id!r} has feature_dim {s.dim}, expected {dim}"
                )
            if s.id in ids:
                raise InvalidInputError(f"duplicate sample id {s.id!r}")
            ids.add(s.id)
        object.__setattr__(self, "samples", samples)

    @property
    def feature_dim(self) -> int:
        return self.samples[0].dim

    def __len__(self) -> int:
        return len(self.samples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.meta == other.meta and self.samples == other.samples

    __hash__ = None


_U64 = np.uint64


def _word(pattern: bytes) -> np.uint64:
    """Up to eight bytes as one little-endian word: byte k is bits 8k to 8k + 7."""
    return _U64(int.from_bytes(pattern, "little"))


def _lanes(byte: int) -> np.uint64:
    return _word(bytes([byte]) * 8)


def _words(patterns) -> np.ndarray:
    """Each byte string of up to eight bytes as one little-endian word."""
    return np.frombuffer(b"".join(p.ljust(8, b"\0") for p in patterns), "<u8")


def _exponent_tables():
    """float.hex's exponent fields ("p", sign, decimal digits) as words, by
    key = (sign is "-") << 10 | min(digits' value, 1023) for reading, and by
    biased exponent for writing (0, for zero and subnormals, is written like
    1).  A key float.hex never writes gets a length no field has."""
    fields = [f"p{sign}{value}".encode() for sign in "+-" for value in range(1024)]
    text, mask = _words(fields), _words(b"\xff" * len(f) for f in fields)
    exp = np.maximum(np.arange(2047), 1) - 1023
    key_of_biased = (exp < 0) << 10 | np.abs(exp)
    length = np.full(len(fields), -1)
    length[key_of_biased] = [len(fields[k]) for k in key_of_biased]
    biased = np.zeros(len(fields), np.uint64)
    biased[key_of_biased[1:]] = np.arange(1, 2047)
    keep = mask & _lanes(0x01)
    return text[key_of_biased], keep[key_of_biased], text, mask, length, biased


_EXP_TEXT, _EXP_KEEP, _KEY_TEXT, _KEY_MASK, _KEY_LEN, _KEY_BIASED = _exponent_tables()
_ZERO_EXP = 1023  # the field "p+0"
_SUBNORMAL_KEY = 1 << 10 | 1022
# The two hex digits of every byte.
_HEX2 = np.frombuffer("".join(f"{v:02x}" for v in range(256)).encode("ascii"), np.uint16)
# Written token: " -0x<lead>." | 16 hex digits of mantissa << 12 | exponent field.
_HEAD_TEXT = _words([b"\0\0 -0x0.", b"\0\0 -0x1."])           # by lead digit
_HEAD_KEEP = _words([b"\0\0\x01\0\x01\x01\x01\x01", b"\0\0\x01\x01\x01\x01\x01\x01"])  # by sign
_DIGITS_KEEP = _words([b"\x01" * 8, b"\x01" * 5])                 # 13 of the 16 digits
_ZERO_DIGITS_KEEP = _words([b"\x01", b""])                        # "0x0.0p+0"
_MANTISSA = _U64((1 << 52) - 1)


def _format_floats(values) -> bytes:
    """``" ".join(float(v).hex() for v in values)`` as ASCII bytes, for
    finite values (every caller's are), built as one fixed-width row per
    value whose unused bytes are then dropped."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = x.view(np.uint64)
    biased = (bits >> _U64(52)).astype(np.intp) & 0x7FF
    mantissa = bits & _MANTISSA
    zero = (biased == 0) & (mantissa == 0)
    text = np.empty((x.size, 4), "<u8")
    keep = np.empty((x.size, 4), "<u8")
    text[:, 0] = _HEAD_TEXT.take(biased != 0)
    biased[zero] = _ZERO_EXP
    keep[:, 0] = _HEAD_KEEP.take(bits >> _U64(63))
    digit_pairs = (mantissa << _U64(12)).astype(">u8").view(np.uint8).reshape(-1, 8)
    text[:, 1:3] = _HEX2.take(digit_pairs).view("<u8")
    keep[:, 1:3] = _DIGITS_KEEP
    keep[zero, 1:3] = _ZERO_DIGITS_KEEP
    text[:, 3] = _EXP_TEXT.take(biased)
    keep[:, 3] = _EXP_KEEP.take(biased)
    # every row starts with its separating space; the first one goes
    return text.view(np.uint8)[keep.view(bool)][1:].tobytes()


# A token is read, after its sign, as three words of 8 bytes:
# "0x" lead "." 4 digits | 8 digits | last digit, exponent field, padding.
_TOKEN_BYTES = 24
_PAD = bytes(_TOKEN_BYTES)
_HEAD_FIXED, _HEAD_FIXED_MASK = _word(b"0x\0."), _word(b"\xff\xff\0\xff")
_HEAD_DIGITS = _word(b"\0\0\xff\0\xff\xff\xff\xff")  # lead and 4 mantissa digits
_ZERO_TOKEN = _word(b"0x0.0p+0")
_L01, _L0F = _lanes(0x01), _lanes(0x0F)


def _hex_digits(word: np.ndarray):
    """Each byte of ``word`` read as a hex digit value (mod 16), and the
    lowercase digit that writes that value: the two agree exactly on the
    bytes that are lowercase hex digits."""
    value = ((word & _L0F) + _U64(9) * ((word >> _U64(6)) & _L01)) & _L0F
    ten_up = ((value + _lanes(6)) >> _U64(4)) & _L01
    return value, value + _lanes(0x30) + _U64(0x27) * ten_up


def _pack_digits(value: np.ndarray) -> np.ndarray:
    """The eight digit values of each word, first byte most significant, as
    one 32-bit number."""
    value = ((value << _U64(4)) | (value >> _U64(8))) & _U64(0x00FF00FF00FF00FF)
    value = ((value << _U64(8)) | (value >> _U64(16))) & _U64(0x0000FFFF0000FFFF)
    return ((value << _U64(16)) | (value >> _U64(32))) & _U64(0xFFFFFFFF)


def _canonical_floats(text: str) -> np.ndarray | None:
    """The floats of the space-separated tokens of ``text`` if every token
    is laid out as ``float.hex`` writes it, else None.

    Each token is read by column arithmetic on little-endian words and
    accepted only where ``float.hex`` of its value gives the token back.
    """
    if not text.isascii():
        return None
    size = len(text)
    buf = np.frombuffer(text.encode("ascii") + _PAD, np.uint8)
    spaces = np.flatnonzero(buf[:size] == 32)
    starts = np.empty(spaces.size + 1, np.intp)
    starts[0] = 0
    starts[1:] = spaces + 1
    negative = buf[starts] == 45
    starts += negative
    digits = np.append(spaces, size) - starts - 19  # of the exponent, if canonical
    rows = np.ndarray((buf.size - _TOKEN_BYTES + 1, 3), "<u8", buf, strides=(1, 8))
    words = rows[starts]
    value, written = _hex_digits(words)
    wrong = words ^ written
    head, tail = words[:, 0], words[:, 2]
    ok = (head & _HEAD_FIXED_MASK) == _HEAD_FIXED
    ok &= (wrong[:, 0] & _HEAD_DIGITS) == 0
    ok &= wrong[:, 1] == 0
    ok &= (wrong[:, 2] & _U64(0xFF)) == 0
    packed = _pack_digits(value)
    lead = (packed[:, 0] >> _U64(20)) & _U64(0xF)
    ok &= lead <= 1
    # the exponent digits right-aligned in four bytes, then summed in pairs
    shift = _U64(8) * (4 - np.clip(digits, 0, 4)).astype(np.uint64)
    exp = (((tail >> _U64(24)) & _U64(0x0F0F0F0F)) << shift) & _U64(0xFFFFFFFF)
    exp = (exp * _U64(10) + (exp >> _U64(8))) & _U64(0x00FF00FF)
    exp = (exp * _U64(100) + (exp >> _U64(16))) & _U64(0xFFFF)
    minus = (tail >> _U64(18)) & _U64(1)  # the bit that tells "-" from "+"
    key = (np.minimum(exp, _U64(1023)) | minus << _U64(10)).astype(np.intp)
    ok &= ((tail >> _U64(8)) & _KEY_MASK[key]) == _KEY_TEXT[key]
    ok &= _KEY_LEN[key] == digits + 2
    mantissa = ((packed[:, 0] & _U64(0xFFFF)) << _U64(36)
                | packed[:, 1] << _U64(4) | packed[:, 2] >> _U64(28))
    # lead 0 is a subnormal: exponent -1022 and a nonzero mantissa
    ok &= (lead == 1) | ((key == _SUBNORMAL_KEY) & (mantissa != 0))
    zero = digits == len(b"0x0.0p+0") - 19
    if zero.any():
        ok[zero] = head[zero] == _ZERO_TOKEN
        lead[zero] = mantissa[zero] = 0
    if not ok.all():
        return None
    bits = mantissa | (lead * _KEY_BIASED[key]) << _U64(52) | negative.astype(np.uint64) << _U64(63)
    return bits.view(np.float64)


def _hex_list(values) -> list[str]:
    return _format_floats(values).decode("ascii").split(" ")


def _draw_hidden(rng: SplitMix64, spec: SyntheticSpec) -> dict:
    """Hidden ground-truth scorer parameters, drawn first from the stream."""
    d = spec.feature_dim
    if spec.scorer_family == FAMILY_LINEAR:
        w = rng.normals(d)
        return {"family": FAMILY_LINEAR, "w": _hex_list(w)}
    h = 2 * d
    w_hidden = rng.normals(h * d).reshape(h, d) / math.sqrt(d)
    b_hidden = 0.5 * rng.normals(h)
    w_out = rng.normals(h) / math.sqrt(h)
    return {
        "family": FAMILY_MLP,
        "hidden": h,
        "w_hidden": _hex_list(w_hidden),
        "b_hidden": _hex_list(b_hidden),
        "w_out": _hex_list(w_out),
    }


def _hidden_scorer(hidden: dict, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """The hidden generator as a function of an (n, dim) feature matrix,
    its weights decoded once."""
    def weights(key):
        # The hidden scorer lives in the dataset header's meta, on line 1.
        return _parse_floats(" ".join(hidden[key]), 1)

    if hidden["family"] == FAMILY_LINEAR:
        w = weights("w")
        return lambda features: features @ w
    w_hidden = weights("w_hidden").reshape(hidden["hidden"], dim)
    b_hidden = weights("b_hidden")
    w_out = weights("w_out")
    return lambda features: np.tanh(features @ w_hidden.T + b_hidden) @ w_out


def hidden_raw_scores(hidden: dict, features: np.ndarray) -> np.ndarray:
    """Noise-free raw scores of the hidden generator for given features."""
    return _hidden_scorer(hidden, features.shape[1])(features)


# About the most draws one stream block holds: a chunk of samples is as
# many whole samples as fit, and a larger sample takes a block alone.
# 2^12 draws ran as fast as 2^14 and, unlike it, left peak RSS unchanged.
_CHUNK_DRAWS = 1 << 12


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset from the spec; bit-identical for identical specs.

    Sample by sample, the stream gives ``normals(n * d)`` features and, with
    noise, ``normals(n)`` label noise; a chunk of samples draws them as the
    rows of one block (see :mod:`depthrank.rng`).  The hidden scorer runs
    once per sample, since a stacked matmul rounds some shapes differently.
    """
    rng = SplitMix64(spec.seed)
    hidden = _draw_hidden(rng, spec)
    n, d = spec.items_per_sample, spec.feature_dim
    hidden_scores = _hidden_scorer(hidden, d)
    noise_at = 2 * ((n * d + 1) // 2)
    row = noise_at + (2 * ((n + 1) // 2) if spec.noise_sigma > 0 else 0)
    per_chunk = max(1, _CHUNK_DRAWS // row)
    samples = []
    for start in range(0, spec.n_samples, per_chunk):
        rows = min(per_chunk, spec.n_samples - start)
        draws = _box_muller(rng.u64_block(rows * row)).reshape(rows, row)
        for idx, values in enumerate(draws, start):
            features = values[: n * d].reshape(n, d)
            raw = hidden_scores(features)
            if spec.noise_sigma > 0:
                raw = raw + spec.noise_sigma * values[noise_at : noise_at + n]
            samples.append(RankedSample(id=f"s{idx:05d}", items=features, gt_scores=raw))
    meta = {"format": DATASET_FORMAT, "spec": asdict(spec), "hidden": hidden}
    return Dataset(samples=tuple(samples), meta=meta)


def normalize_relevance(raw_scores) -> np.ndarray:
    """Affine min-max map of raw scores onto [0, RELEVANCE_MAX]; constant
    input maps to all zeros. Order-preserving."""
    return _relevance_rows(as_score_vector(raw_scores)[None])[0]


def _relevance_rows(raw: np.ndarray) -> np.ndarray:
    """:func:`normalize_relevance` of each row of a (g, n) array of finite scores."""
    lo = raw.min(axis=1, keepdims=True)
    hi = raw.max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        # Finite scores whose span overflows: map their halves, whose span cannot.
        halve = np.where(np.isinf(hi - lo), 0.5, 1.0)
    raw, lo, span = raw * halve, lo * halve, hi * halve - lo * halve
    span[span == 0.0] = 1.0  # constant rows map to zeros
    # Divide before scaling so the top item lands on RELEVANCE_MAX exactly.
    return (raw - lo) / span * RELEVANCE_MAX


def sample_points(sample: RankedSample, k: int, rng: SplitMix64) -> np.ndarray:
    """k distinct item indices, uniform without replacement.

    ``k == n`` returns every index (ascending) without consuming any
    draws; otherwise a partial Fisher-Yates pass consumes exactly k draws.
    """
    n = sample.n
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must satisfy 1 <= k <= {n}: {k}")
    if k == n:
        return np.arange(n, dtype=np.intp)
    return rng.shuffle_prefix(n, k)[:k]


def sample_pair_arrays(gt_scores: np.ndarray, k: int, rng: SplitMix64):
    """k labeled pairs as (i, j, r) arrays, labels from the ground-truth
    scores (equal scores tie).

    Pairs are drawn uniformly with replacement across pairs; indices within
    a pair are always distinct.  Consumes exactly 2k draws.
    """
    n = gt_scores.size
    if n < 2:
        raise InvalidInputError("need at least two items to sample pairs")
    if k < 1:
        raise InvalidInputError(f"k must be >= 1: {k}")
    # one block of 2k: the same stream as k first indices, then k offsets
    u, v = rng.u64_block(2 * k).reshape(2, k)
    u = u % np.uint64(n)
    v = v % np.uint64(n - 1)
    i = u.astype(np.intp)
    j = ((u + v + np.uint64(1)) % np.uint64(n)).astype(np.intp)
    return i, j, label_pairs(gt_scores, i, j)


def _meta_json(meta: dict) -> str:
    text = json.dumps(meta, separators=(",", ":"), sort_keys=True)
    if " " in text:
        raise InvalidInputError("dataset meta must serialize without spaces")
    return text


def write_dataset(ds: Dataset, path: str | os.PathLike) -> None:
    header = f"{DATASET_FORMAT} dim={ds.feature_dim} samples={len(ds)} meta={_meta_json(ds.meta)}"
    for s in ds.samples:
        if any(c.isspace() for c in s.id):
            raise InvalidInputError(f"sample id may not contain whitespace: {s.id!r}")
        if not s.id.isascii():
            raise InvalidInputError(f"sample id must be ASCII: {s.id!r}")
    _write_records(path, header, (
        b"%s %d %d %s" % (s.id.encode("ascii"), s.n, s.dim,
                          _format_floats(np.concatenate((s.items.ravel(), s.gt_scores))))
        for s in ds.samples
    ))


def _write_records(path: str | os.PathLike, header: str, records: Iterable[bytes]) -> None:
    """Write the header and then each ASCII record as one line, encoding one
    record at a time.  An error while writing removes the file (a regular
    file; a device is left alone), so no partial file is left behind."""
    with open(path, "wb") as fh:
        try:
            fh.write(header.encode("ascii"))
            fh.write(b"\n")
            for record in records:
                fh.write(record)
                fh.write(b"\n")
        except BaseException:
            fh.close()
            if os.path.isfile(path):
                os.remove(path)
            raise


def _parse_floats(text: str, line_no: int) -> np.ndarray:
    """The floats of ``text``, hex-float tokens separated by single spaces."""
    values = _canonical_floats(text)
    return _fromhex_floats(text, line_no) if values is None else values


def _fromhex_floats(text: str, line_no: int) -> np.ndarray:
    """The floats of ``text`` token by token with ``float.fromhex``, for
    records :func:`_canonical_floats` does not read; a token it rejects or
    cannot represent (``0x1p5000``) is a format error at ``line_no``."""
    try:
        return np.array([float.fromhex(t) for t in text.split(" ")], dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"bad float token: {exc}", line=line_no) from exc


def _ascii(raw: bytes) -> str:
    """``raw`` as ASCII text; a non-ASCII byte is a format error at its line."""
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start].decode("ascii") + ".").splitlines())
        raise DatasetFormatError(f"non-ASCII byte 0x{raw[exc.start]:02x}", line=line) from None


def _read_text(path: str | os.PathLike, fmt: str, parse_header: Callable[[dict], tuple],
               maxsplit: int = -1) -> tuple[list[str], tuple]:
    """The lines of a text file whose first line is ``<fmt> key=value ...``,
    and ``parse_header`` applied to its ``key=value`` fields.

    The header is split at spaces, at most ``maxsplit`` times.  A missing
    or unparsable field is a :class:`DatasetFormatError` at line 1.
    """
    with open(path, "rb") as fh:
        lines = _ascii(fh.read()).splitlines()
    if not lines:
        raise DatasetFormatError("empty file", line=1)
    header = lines[0].split(" ", maxsplit)
    if header[0] != fmt:
        raise DatasetVersionError(f"unsupported format {header[0]!r}, expected {fmt!r}", line=1)
    try:
        return lines, parse_header(dict(part.split("=", 1) for part in header[1:]))
    except (KeyError, ValueError) as exc:
        raise DatasetFormatError(f"malformed header: {exc}", line=1) from exc


def _parse_count(name: str, text: str) -> int:
    """A count as the writers write it, ASCII digits only: ``int`` alone
    also takes a sign, underscores and surrounding whitespace."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{name} must be ASCII digits, got {text!r}")
    return int(text)


def _dataset_header(fields: dict):
    return (_parse_count("dim", fields["dim"]), _parse_count("samples", fields["samples"]),
            json.loads(fields["meta"]))


def read_dataset(path: str | os.PathLike) -> Dataset:
    """Parse a dataset file, validating structure, finiteness, and counts."""
    lines, (dim, count, meta) = _read_text(path, DATASET_FORMAT, _dataset_header, maxsplit=3)
    body = [(no, ln) for no, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != count:
        raise DatasetFormatError(
            f"expected {count} sample records, found {len(body)} (truncated or padded file)",
            line=len(lines),
        )
    samples = []
    for line_no, line in body:
        prefix = line.split(" ", 3)
        if len(prefix) < 3:
            raise DatasetFormatError("sample record needs 'id n d' prefix", line=line_no)
        sid = prefix[0]
        try:
            n, d = _parse_count("n", prefix[1]), _parse_count("d", prefix[2])
        except ValueError as exc:
            raise DatasetFormatError(f"bad sample counts: {exc}", line=line_no) from exc
        if d != dim:
            raise DatasetFormatError(
                f"sample {sid!r} declares feature_dim {d}, header says {dim}", line=line_no
            )
        expected = 3 + n * d + n
        text = prefix[3] if len(prefix) > 3 else ""
        values = _canonical_floats(text)
        found = 3 + values.size if values is not None else line.count(" ") + 1
        if found != expected:
            raise DatasetFormatError(
                f"sample {sid!r}: expected {expected} tokens, found {found}",
                line=line_no,
            )
        if values is None:
            values = _fromhex_floats(text, line_no) if found > 3 else np.empty(0)
        feats = values[: n * d].reshape(n, d)
        scores = values[n * d :]
        try:
            samples.append(RankedSample(id=sid, items=feats, gt_scores=scores))
        except InvalidInputError as exc:
            raise DatasetFormatError(f"sample {sid!r}: {exc}", line=line_no) from exc
    try:
        return Dataset(samples=tuple(samples), meta=meta)
    except InvalidInputError as exc:
        raise DatasetFormatError(str(exc)) from exc
