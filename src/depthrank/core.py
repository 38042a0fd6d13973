"""Domain types, permutations and ordinal pair labels shared by every
other module.

A *sample* is one ranking query: a list of items (feature vectors) with
ground-truth relevance scores, where a higher score means the item should
be ranked closer to the top.  Predicted scores are plain float64 arrays
validated through :func:`as_score_vector`.  Ranks are 1-based in the
public contract; item indices are 0-based.  :func:`label_pairs` is the one
place a score difference becomes an ordinal label (+1, -1 or 0), for the
ground truth and for predictions alike; a set of labelled pairs is always
the three equal-length integer arrays ``(i, j, r)`` of :func:`all_pairs`.
:func:`_exact_row_sums` is the one exact (``math.fsum``) sum of each row
of an array, which the losses and metrics share.

Each input is validated once, by the code that first sees it: the public
constructors (``RankedSample(...)``, ``Permutation(...)``,
``data.Dataset(...)``), the file readers, the synthetic generator (one
check per block of samples) and :func:`~depthrank.metrics.evaluate` (one
check per group of same-length predictions).  Samples the package builds
itself go through ``RankedSample._checked`` and are not checked again.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError


# What a sample's checks reject, worded once for the constructors and the
# dataset reader.
_ITEMS_SHAPE_ERROR = "items must be a non-empty (n, d) matrix, got shape {}"
_ITEMS_FINITE_ERROR = "item features must be finite"
_SCORES_FINITE_ERROR = "scores must be finite (no NaN/Inf)"


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as C-contiguous float64; complex, text and unconvertible values raise."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind not in "biufO":  # numpy drops imaginary parts, parses text
            raise TypeError(f"got {arr.dtype}")
        return np.ascontiguousarray(arr, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must be real numbers: {exc}") from exc


def as_score_vector(values, n: int | None = None) -> np.ndarray:
    """Validate and return scores as a finite float64 1-D array.

    Raises :class:`InvalidInputError` on complex, text or other non-real
    input, empty input, wrong length, or any NaN/Inf entry.
    """
    arr = _real_array(values, "scores")
    if arr.ndim != 1:
        raise InvalidInputError(f"scores must be 1-D, got shape {arr.shape}")
    if arr.size < 1:
        raise InvalidInputError("scores must contain at least one entry")
    if n is not None and arr.size != n:
        raise InvalidInputError(f"expected {n} scores, got {arr.size}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(_SCORES_FINITE_ERROR)
    return arr


# The extended type a row is first summed in.  Where it is float64 itself
# (MSVC, macOS on arm64), every row takes the math.fsum path.
_EXTENDED = np.longdouble
# Calls of fewer terms than this go to math.fsum: below it the extended
# path's fixed cost of about 14 us outweighs fsum's ~35 ns a term.  In the
# (rows, terms per row) shapes measured, the two cost the same at 300 to
# 600 terms in all: near (32, 19), (8, 99) and (128, 5).  The row count
# alone does not decide it: (8, 99) gains while (32, 5) loses.
_CERTIFIED_MIN_TERMS = 512
# Rows of more than eps_f64 / eps_ext / _LONG_ROW_DIVISOR terms (256 with
# x86-64's 64-bit longdouble mantissa; none where longdouble is float64)
# go to math.fsum.  The error bound grows with the row, so longer rows
# fail their certificate more often and pay for fsum on top: on random
# positive terms about 3 rows in 100 failed at 19 terms, a third at 256
# and all at 1000.  A (100, 256) call took half of fsum's time, (32, 512)
# 0.85 of it and (24, 1000) 1.14 times it.
_LONG_ROW_DIVISOR = 8


def _fsum(row: list[float]) -> float:
    """``math.fsum(row)``; where its partial sums overflow, the exact sum
    rounded to nearest, and so ``±inf`` when that sum is out of range."""
    try:
        return math.fsum(row)
    except OverflowError:
        pass
    special = [x for x in row if not math.isfinite(x)]
    if special:
        # fsum's own rule for nan and inf terms
        return math.fsum(special)
    total = sum(map(Fraction, row))
    try:
        return float(total)  # integer true division rounds correctly
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _exact_row_sums(a: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each row of a (b, m) float64 array,
    bit for bit ``math.fsum`` of that row (see :func:`_fsum` for rows
    whose fsum overflows), as a float64 array.

    Each row is summed in :data:`_EXTENDED` and rounded to float64.  Any
    order of m - 1 additions at unit roundoff ``u = eps_ext / 2`` errs by
    at most ``(m - 1) u / (1 - (m - 1) u)`` times the sum of ``|a|``, so
    ``m * eps_ext`` times that sum taken in float64 bounds the error from
    above, with room for the float64 sum's own rounding.  A row is
    certified when that bound plus its distance to the rounded result is
    below half the gap from the result toward zero, the narrower of its
    two gaps: the exact sum then rounds to the same float64.  Rows that a
    zero, non-finite or uncertified result leaves open, calls of fewer
    than :data:`_CERTIFIED_MIN_TERMS` terms and rows too long to certify
    take :func:`_fsum`.  Comparing rounded operands cannot pass a
    certificate the exact values fail, as rounding is monotonic.
    """
    b, m = a.shape
    eps = np.finfo(_EXTENDED).eps
    if b * m < _CERTIFIED_MIN_TERMS or m * eps * _LONG_ROW_DIVISOR > np.finfo(np.float64).eps:
        return np.array([_fsum(row) for row in a.tolist()], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        s = a.astype(_EXTENDED).sum(axis=1)
        out = s.astype(np.float64)
        mag = np.abs(out)
        gap = mag - np.nextafter(mag, 0.0)
        err = np.abs(s - out) + np.abs(a).sum(axis=1) * (m * eps)
        settled = (err + err < gap) & (mag <= np.finfo(np.float64).max) & (out != 0.0)
    for k in np.flatnonzero(~settled).tolist():
        out[k] = _fsum(a[k].tolist())
    return out


def label_pairs(scores: np.ndarray, i, j, tie_threshold: float = 0.0) -> np.ndarray:
    """Ordinal labels of index pairs as int64: +1 where item ``i`` scores
    higher, -1 where item ``j`` does, 0 where the scores differ by at most
    ``tie_threshold``.  ``i`` and ``j`` may be any index arrays that
    broadcast against each other."""
    d = scores[i] - scores[j]
    return (d > tie_threshold).astype(np.int64) - (d < -tie_threshold)


def all_pairs(gt_scores: np.ndarray):
    """(i, j, r) for every index pair i < j of a sample in row-major order,
    labelled from its ground-truth scores (equal scores tie).

    O(n^2) in memory: n(n-1)/2 pairs at 24 bytes each.  With the labels
    :func:`~depthrank.metrics.whdr` adds, one list of n = 2000 peaks at
    93 MiB under tracemalloc; :func:`~depthrank.metrics.evaluate` scores
    the same WHDR in O(n) memory."""
    i, j = np.triu_indices(gt_scores.size, k=1)
    return i.astype(np.intp), j.astype(np.intp), label_pairs(gt_scores, i, j)


@dataclass(frozen=True)
class Permutation:
    """A total order over item indices; ``order[0]`` is the top-ranked item.

    ``inverse`` maps each item index to its 1-based rank, so
    ``inverse[order[p]] == p + 1`` for every position ``p``.  Both are
    tuples; ``order_array`` and ``inverse_array`` hold the same values as
    read-only intp arrays.
    """

    order: tuple[int, ...]
    inverse: tuple[int, ...] = field(init=False, repr=False, compare=False)
    order_array: np.ndarray = field(init=False, repr=False, compare=False)
    inverse_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            values = self.order if isinstance(self.order, np.ndarray) else tuple(self.order)
            arr = np.asarray(values)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"permutation entries must be integers: {exc}") from exc
        n = arr.size
        if arr.ndim == 1 and n < 1:
            raise InvalidInputError("permutation must cover at least one item")
        kind = arr.dtype.kind
        if kind == "b" and n <= 2:
            # Python bools are ints, numpy bools are not; bool entries can
            # only form a permutation of at most two items.
            kind = "i" if type(values[0]) is type(values[-1]) is bool else kind
        if arr.ndim != 1 or kind not in "iu":
            raise InvalidInputError(
                f"permutation entries must be integers, got {arr.dtype} of shape {arr.shape}"
            )
        order = np.array(arr, dtype=np.intp)
        if order.view(np.uintp).max() >= n:  # negative entries wrap to huge ones
            item = arr[(arr < 0) | (arr >= n)][0].item()
            raise InvalidInputError(f"permutation entries must be integers in [0, {n}): {item!r}")
        inverse = np.zeros(n, dtype=np.intp)
        inverse[order] = np.arange(1, n + 1)
        if np.count_nonzero(inverse) != n:
            raise InvalidInputError("permutation must be a bijection (duplicate index)")
        order.flags.writeable = False
        inverse.flags.writeable = False
        object.__setattr__(self, "order", tuple(order.tolist()))
        object.__setattr__(self, "inverse", tuple(inverse.tolist()))
        object.__setattr__(self, "order_array", order)
        object.__setattr__(self, "inverse_array", inverse)

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True, eq=False)
class RankedSample:
    """One query: item feature vectors plus ground-truth relevance scores.

    ``RankedSample(id, items, gt_scores)`` checks its input: a non-empty
    (n, d) feature matrix of finite values and n finite scores, stored as
    read-only C-contiguous float64 arrays.  The readers and the generator,
    which have checked the same values already, build samples through
    :meth:`_checked` instead.
    """

    id: str
    items: np.ndarray
    gt_scores: np.ndarray

    def __post_init__(self):
        items = _real_array(self.items, "item features")
        if items.ndim != 2 or items.shape[0] < 1 or items.shape[1] < 1:
            raise InvalidInputError(_ITEMS_SHAPE_ERROR.format(items.shape))
        if not np.isfinite(items).all():
            raise InvalidInputError(_ITEMS_FINITE_ERROR)
        scores = as_score_vector(self.gt_scores, n=items.shape[0])
        items.flags.writeable = False
        scores.flags.writeable = False
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "gt_scores", scores)

    @classmethod
    def _checked(cls, id: str, items: np.ndarray, gt_scores: np.ndarray) -> RankedSample:
        """A sample of values the caller has checked as the constructor does:
        a C-contiguous float64 (n, d) matrix, n >= 1 and d >= 1, and n
        scores in a C-contiguous float64 vector, all finite.  Marks both
        arrays read-only and checks nothing."""
        items.flags.writeable = False
        gt_scores.flags.writeable = False
        sample = object.__new__(cls)
        sample.__dict__.update(id=id, items=items, gt_scores=gt_scores)
        return sample

    @property
    def n(self) -> int:
        return self.items.shape[0]

    @property
    def dim(self) -> int:
        return self.items.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankedSample):
            return NotImplemented
        return (
            self.id == other.id
            and self.items.shape == other.items.shape
            and np.array_equal(self.items, other.items)
            and np.array_equal(self.gt_scores, other.gt_scores)
        )

    __hash__ = None


def permutation_from_scores(scores) -> Permutation:
    """Ranking induced by scores: non-increasing order, stable ascending-index
    tie-break."""
    arr = as_score_vector(scores)
    return Permutation(np.argsort(-arr, kind="stable"))


def pairs_from_permutation(perm: Permutation, gt_scores):
    """``all_pairs(gt_scores)``: (i, j, r) arrays of every index pair of the
    sample.  ``perm`` only fixes the length.  O(n^2) in memory, as
    :func:`all_pairs` is; :func:`~depthrank.metrics.evaluate` scores WHDR
    in O(n)."""
    scores = as_score_vector(gt_scores, n=len(perm))
    if scores.size < 2:
        raise InvalidInputError("need at least two items to form pairs")
    return all_pairs(scores)


def check_pairs(pairs, n: int):
    """``pairs`` as (i, j, r) arrays over ``n`` items, once checked: distinct
    in-range indices, labels in {-1, 0, 1}, at least one pair."""
    try:
        i, j, r = pairs
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"pairs must be (i, j, r) arrays: {exc}") from exc
    if not (all(isinstance(a, np.ndarray) and a.dtype.kind in "iu" for a in (i, j, r))
            and i.ndim == 1 and i.shape == j.shape == r.shape):
        raise InvalidInputError("pairs must be three equal-length 1-D integer arrays")
    if i.size == 0:
        raise InvalidInputError("pair set must not be empty")
    if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n:
        raise InvalidInputError(f"pair indices must lie in [0, {n})")
    if np.any(i == j):
        raise InvalidInputError("pair indices must differ")
    if r.min() < -1 or r.max() > 1:
        raise InvalidInputError("ordinal labels must be +1, -1 or 0")
    return i, j, r
