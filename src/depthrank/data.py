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

Floats are encoded with ``float.hex`` so round-trips are bit-exact.  The
params files of :mod:`depthrank.scorer` use the same encoding and the
same header reader.
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
from .rng import SplitMix64

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


def _hex_list(arr: np.ndarray) -> list[str]:
    return [float(x).hex() for x in arr.ravel()]


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


def hidden_raw_scores(hidden: dict, features: np.ndarray) -> np.ndarray:
    """Noise-free raw scores of the hidden generator for given features."""
    # The hidden scorer lives in the dataset header's meta, on line 1.
    if hidden["family"] == FAMILY_LINEAR:
        return features @ _parse_floats(hidden["w"], 1)
    h = hidden["hidden"]
    d = features.shape[1]
    w_hidden = _parse_floats(hidden["w_hidden"], 1).reshape(h, d)
    b_hidden = _parse_floats(hidden["b_hidden"], 1)
    w_out = _parse_floats(hidden["w_out"], 1)
    return np.tanh(features @ w_hidden.T + b_hidden) @ w_out


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset from the spec; bit-identical for identical specs."""
    rng = SplitMix64(spec.seed)
    hidden = _draw_hidden(rng, spec)
    n, d = spec.items_per_sample, spec.feature_dim
    samples = []
    for idx in range(spec.n_samples):
        features = rng.normals(n * d).reshape(n, d)
        raw = hidden_raw_scores(hidden, features)
        if spec.noise_sigma > 0:
            raw = raw + spec.noise_sigma * rng.normals(n)
        samples.append(RankedSample(id=f"s{idx:05d}", items=features, gt_scores=raw))
    meta = {"format": DATASET_FORMAT, "spec": asdict(spec), "hidden": hidden}
    return Dataset(samples=tuple(samples), meta=meta)


def normalize_relevance(raw_scores, upper: float = RELEVANCE_MAX) -> np.ndarray:
    """Affine min-max map of raw scores onto [0, upper]; constant input maps
    to all zeros. Order-preserving."""
    raw = as_score_vector(raw_scores)
    lo = raw.min()
    span = raw.max() - lo
    if span == 0.0:
        return np.zeros_like(raw)
    # Divide before scaling so the top item lands on `upper` exactly.
    return (raw - lo) / span * upper


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
    u = rng.u64_block(k) % np.uint64(n)
    v = rng.u64_block(k) % np.uint64(n - 1)
    i = u.astype(np.intp)
    j = ((u + v + np.uint64(1)) % np.uint64(n)).astype(np.intp)
    return i, j, label_pairs(gt_scores, i, j)


def _meta_json(meta: dict) -> str:
    text = json.dumps(meta, separators=(",", ":"), sort_keys=True)
    if " " in text:
        raise InvalidInputError("dataset meta must serialize without spaces")
    return text


def write_dataset(ds: Dataset, path: str | os.PathLike) -> None:
    lines = [
        f"{DATASET_FORMAT} dim={ds.feature_dim} samples={len(ds)} meta={_meta_json(ds.meta)}"
    ]
    for s in ds.samples:
        if any(c.isspace() for c in s.id):
            raise InvalidInputError(f"sample id may not contain whitespace: {s.id!r}")
        tokens = [s.id, str(s.n), str(s.dim)]
        tokens += _hex_list(s.items)
        tokens += _hex_list(s.gt_scores)
        lines.append(" ".join(tokens))
    _write_lines(path, lines)


def _write_lines(path: str | os.PathLike, lines: list[str]) -> None:
    """Write ASCII text lines, each ending in a newline."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(tokens: Iterable[str], line_no: int) -> np.ndarray:
    try:
        return np.array([float.fromhex(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise DatasetFormatError(f"bad float token: {exc}", line=line_no) from exc


def _read_text(path: str | os.PathLike, fmt: str, parse_header: Callable[[dict], tuple],
               maxsplit: int = -1) -> tuple[list[str], tuple]:
    """The lines of a text file whose first line is ``<fmt> key=value ...``,
    and ``parse_header`` applied to its ``key=value`` fields.

    The header is split at spaces, at most ``maxsplit`` times.  A missing
    or unparsable field is a :class:`DatasetFormatError` at line 1.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError("empty file", line=1)
    header = lines[0].split(" ", maxsplit)
    if header[0] != fmt:
        raise DatasetVersionError(f"unsupported format {header[0]!r}, expected {fmt!r}", line=1)
    try:
        return lines, parse_header(dict(part.split("=", 1) for part in header[1:]))
    except (KeyError, ValueError) as exc:
        raise DatasetFormatError(f"malformed header: {exc}", line=1) from exc


def _dataset_header(fields: dict):
    return int(fields["dim"]), int(fields["samples"]), json.loads(fields["meta"])


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
        tokens = line.split(" ")
        if len(tokens) < 3:
            raise DatasetFormatError("sample record needs 'id n d' prefix", line=line_no)
        sid = tokens[0]
        try:
            n, d = int(tokens[1]), int(tokens[2])
        except ValueError as exc:
            raise DatasetFormatError(f"bad sample counts: {exc}", line=line_no) from exc
        if d != dim:
            raise DatasetFormatError(
                f"sample {sid!r} declares feature_dim {d}, header says {dim}", line=line_no
            )
        expected = 3 + n * d + n
        if len(tokens) != expected:
            raise DatasetFormatError(
                f"sample {sid!r}: expected {expected} tokens, found {len(tokens)}",
                line=line_no,
            )
        feats = _parse_floats(tokens[3 : 3 + n * d], line_no).reshape(n, d)
        scores = _parse_floats(tokens[3 + n * d :], line_no)
        try:
            samples.append(RankedSample(id=sid, items=feats, gt_scores=scores))
        except InvalidInputError as exc:
            raise DatasetFormatError(f"sample {sid!r}: {exc}", line=line_no) from exc
    try:
        return Dataset(samples=tuple(samples), meta=meta)
    except InvalidInputError as exc:
        raise DatasetFormatError(str(exc)) from exc
