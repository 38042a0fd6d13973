"""Domain types, permutations and ordinal pair labels shared by every
other module.

A *sample* is one ranking query: a list of items (feature vectors) with
ground-truth relevance scores, where a higher score means the item should
be ranked closer to the top.  Predicted scores are plain float64 arrays
validated through :func:`as_score_vector`.  Ranks are 1-based in the
public contract; item indices are 0-based.  :func:`label_pairs` is the one
place a score difference becomes an ordinal label (+1, -1 or 0), for the
ground truth and for predictions alike.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError


def as_score_vector(values, n: int | None = None) -> np.ndarray:
    """Validate and return scores as a finite float64 1-D array.

    Raises :class:`InvalidInputError` on empty input, wrong length, or any
    NaN/Inf entry.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"scores must be 1-D, got shape {arr.shape}")
    if arr.size < 1:
        raise InvalidInputError("scores must contain at least one entry")
    if n is not None and arr.size != n:
        raise InvalidInputError(f"expected {n} scores, got {arr.size}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("scores must be finite (no NaN/Inf)")
    return arr


def label_pairs(scores: np.ndarray, i, j, tie_threshold: float = 0.0) -> np.ndarray:
    """Ordinal labels of index pairs as int64: +1 where item ``i`` scores
    higher, -1 where item ``j`` does, 0 where the scores differ by at most
    ``tie_threshold``.  ``i`` and ``j`` may be any index arrays that
    broadcast against each other."""
    d = scores[i] - scores[j]
    return (d > tie_threshold).astype(np.int64) - (d < -tie_threshold)


def all_pairs(gt_scores: np.ndarray):
    """(i, j, r) for every index pair i < j of a sample in row-major order,
    labelled from its ground-truth scores (equal scores tie)."""
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


@dataclass(frozen=True, slots=True)
class OrdinalPair:
    """One annotated item pair: ``r=+1`` means item i ranks higher (closer),
    ``r=-1`` means item j does, ``r=0`` means they tie."""

    i: int
    j: int
    r: int

    def __post_init__(self):
        if self.i == self.j:
            raise InvalidInputError(f"pair indices must differ: ({self.i}, {self.j})")
        if self.i < 0 or self.j < 0:
            raise InvalidInputError(f"pair indices must be >= 0: ({self.i}, {self.j})")
        if self.r not in (-1, 0, 1):
            raise InvalidInputError(f"ordinal label must be +1, -1 or 0: {self.r!r}")


@dataclass(frozen=True, eq=False)
class RankedSample:
    """One query: item feature vectors plus ground-truth relevance scores."""

    id: str
    items: np.ndarray
    gt_scores: np.ndarray

    def __post_init__(self):
        items = np.ascontiguousarray(self.items, dtype=np.float64)
        if items.ndim != 2 or items.shape[0] < 1 or items.shape[1] < 1:
            raise InvalidInputError(
                f"items must be a non-empty (n, d) matrix, got shape {items.shape}"
            )
        if not np.isfinite(items).all():
            raise InvalidInputError(f"sample {self.id!r}: item features must be finite")
        scores = as_score_vector(self.gt_scores, n=items.shape[0])
        items.flags.writeable = False
        scores.flags.writeable = False
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "gt_scores", scores)

    @functools.cached_property
    def gt_perm(self) -> Permutation:
        """The ground-truth ranking: ``gt_scores`` in non-increasing order,
        ties broken by ascending item index; built on first access."""
        return permutation_from_scores(self.gt_scores)

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


def pairs_from_permutation(perm: Permutation, gt_scores) -> list[OrdinalPair]:
    """All unordered index pairs of a sample as labeled :class:`OrdinalPair`.

    Pairs are emitted in (low index, high index) orientation, labelled by
    :func:`all_pairs` from the ground-truth scores.
    """
    scores = as_score_vector(gt_scores, n=len(perm))
    if scores.size < 2:
        raise InvalidInputError("need at least two items to form pairs")
    i, j, r = all_pairs(scores)
    return [OrdinalPair(*p) for p in zip(i.tolist(), j.tolist(), r.tolist())]


def pair_arrays(pairs: Sequence[OrdinalPair] | Iterable[OrdinalPair]):
    """Split pairs into (i, j, r) index/label arrays for vectorized use."""
    pairs = list(pairs)
    if not pairs:
        raise InvalidInputError("pair list must not be empty")
    i = np.fromiter((p.i for p in pairs), dtype=np.intp, count=len(pairs))
    j = np.fromiter((p.j for p in pairs), dtype=np.intp, count=len(pairs))
    r = np.fromiter((p.r for p in pairs), dtype=np.int64, count=len(pairs))
    return i, j, r
