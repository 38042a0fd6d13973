"""Evaluation metrics: WHDR, average precision, MAP, and NDCG.

WHDR is the fraction of annotated ordinal pairs whose predicted order
contradicts the label (lower is better); both sides are labelled by
:func:`~depthrank.core.label_pairs`.  MAP binarizes the ground-truth
ranking at every cut point 1..n-1, scores each cut with average
precision over the predicted order, and averages over cuts and then over
samples.  NDCG serves as a cross-check metric with the gain and discount
formulas the weighted loss uses (base 2).

All metrics depend on predictions only through the induced order (plus
tie structure), so they are invariant under strictly increasing
transforms of the scores.

Cost: :func:`evaluate` groups samples by list length and scores each group
as rows of one (g, n) array, ``max(1, _KERNEL_ITEMS // n)`` rows at most
per call.  One sort-based kernel, ``_rank_metrics``, returns WHDR's pair
counts (at ``pred_tie_threshold == 0``) and each row's MAP over all cuts
in O(n log n) time and O(n) memory per row, with no pair array or cut
matrix; it works row by row, so a sample's counts and MAP bits depend on
that sample alone.  NDCG is a row operation over the same groups.  WHDR
at ``pred_tie_threshold > 0`` labels every index pair of a sample, a
block of pair-triangle rows at a time: O(n^2) time and O(n) memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (Permutation, RankedSample, _exact_row_sums, as_score_vector, check_pairs,
                   label_pairs)
from .data import _relevance_rows
from .errors import InvalidInputError
from .losses import _discounts, _gains

FLAG_DEGENERATE_PRED_TIES = "degenerate-pred-ties"
FLAG_ALL_ZERO_GAIN = "all-zero-gain"

# Items per rank-kernel call: lists of n items go max(1, _KERNEL_ITEMS // n) at a time.
_KERNEL_ITEMS = 4096
# Rows of a sample's pair triangle labelled at once for WHDR at a nonzero
# prediction tie threshold.
_PAIR_ROWS = 32


@dataclass(frozen=True)
class MetricReport:
    """Aggregated evaluation result over one dataset."""

    whdr: float
    map: float
    ndcg: float
    n_samples: int
    n_pairs: int
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("whdr", "map", "ndcg"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidInputError(f"{name} must lie in [0, 1]: {v}")
        if self.n_samples < 0 or self.n_pairs < 0:
            raise InvalidInputError("counts must be >= 0")


def check_tie_threshold(value) -> float:
    """A prediction tie threshold as a float; rejects negative and non-finite
    values (``-0.0`` is accepted and returned as ``0.0``)."""
    t = float(value)
    if not (math.isfinite(t) and t >= 0.0):
        raise InvalidInputError(f"pred_tie_threshold must be finite and >= 0: {value}")
    return t + 0.0


def whdr_from_arrays(
    i: np.ndarray, j: np.ndarray, r: np.ndarray, pred_scores: np.ndarray,
    pred_tie_threshold: float = 0.0,
) -> tuple[int, int]:
    """(#misordered pairs, #pairs) for pre-split pair arrays."""
    pred = label_pairs(pred_scores, i, j, pred_tie_threshold)
    return int(np.count_nonzero(pred != r)), int(r.size)


def check_evaluable(samples: Sequence[RankedSample]) -> list[int]:
    """The list length of each sample; rejects samples :func:`evaluate`
    cannot score: WHDR and MAP need two items."""
    sizes = [s.n for s in samples]
    for sample, n in zip(samples, sizes):
        if n < 2:
            raise InvalidInputError(f"sample {sample.id!r} has fewer than two items")
    return sizes


def whdr(pairs, pred_scores, pred_tie_threshold: float = 0.0) -> float:
    """Fraction of the pairs whose predicted ordinal label disagrees with ``r``.

    ``pairs`` is ``(i, j, r)``: three equal-length integer arrays, as
    :func:`~depthrank.core.all_pairs` returns them.  A pair is predicted
    ``+1``/``-1`` when the score difference exceeds ``pred_tie_threshold``
    in magnitude, ``0`` otherwise.  A full pair set is O(n^2) in memory (a
    93 MiB tracemalloc peak at n = 2000 with :func:`~depthrank.core.all_pairs`);
    :func:`evaluate` scores every index pair in O(n).
    """
    pred_tie_threshold = check_tie_threshold(pred_tie_threshold)
    z = as_score_vector(pred_scores)
    wrong, total = whdr_from_arrays(*check_pairs(pairs, z.size), z, pred_tie_threshold)
    return wrong / total


def average_precision(binary_labels) -> float:
    """Average precision of a binary label list ordered by descending score.

    Evaluates ``sum_i Precision(i) * (Recall(i) - Recall(i-1))`` with
    ``Recall(0) = 0``; equals 1 exactly when every positive precedes every
    negative.
    """
    labels = np.asarray(binary_labels)
    if labels.ndim != 1 or labels.size < 1:
        raise InvalidInputError("labels must be a non-empty 1-D sequence")
    labels = (labels != 0).astype(np.float64)
    n_pos = labels.sum()
    if n_pos == 0:
        raise InvalidInputError("average precision needs at least one positive label")
    cum = np.cumsum(labels)
    prec = cum / np.arange(1, labels.size + 1)
    rec = cum / n_pos
    rec_prev = np.concatenate(([0.0], rec[:-1]))
    return float(_exact_row_sums((prec * (rec - rec_prev))[None])[0])


def _sample_map(gt_perm: Permutation, pred_scores: np.ndarray) -> float:
    """Mean AP over ground-truth cut points 1..n-1 for one sample.

    The one-row kernel call; the negated ranks are distinct scores that sort into ``gt_perm``.
    """
    return float(_rank_metrics(-gt_perm.inverse_array[None], pred_scores[None])[2][0])


def mean_average_precision(samples: Sequence[tuple[Permutation, object]]) -> float:
    """MAP over (ground-truth permutation, predicted scores) samples.

    For each sample the ground truth is binarized at every cut k in
    1..n-1 (top-k positive), labels are ordered by descending predicted
    score with ascending-index tie-break, and the per-cut APs are averaged
    over cuts and then over samples.
    """
    if not samples:
        raise InvalidInputError("need at least one sample")
    gt_scores, preds = [], []
    for gt_perm, pred in samples:
        preds.append(as_score_vector(pred, n=len(gt_perm)))
        if len(gt_perm) < 2:
            raise InvalidInputError("MAP needs samples with at least two items")
        gt_scores.append(-gt_perm.inverse_array)
    maps = _rank_metrics_by_length(gt_scores, preds)[2]
    return math.fsum(maps.tolist()) / len(maps)


def ndcg(gt_scores, pred_scores) -> float:
    """DCG of the predicted order over the ideal DCG, with gain 2^s - 1 and
    discount 1/log2(pos + 1), the weights of the weighted ListMLE loss.

    Ground-truth scores must be non-negative graded relevance.  When every
    gain is zero the ideal DCG vanishes and the metric is defined as 1.0
    (callers flag this degenerate case in their reports).
    """
    s = as_score_vector(gt_scores)
    z = as_score_vector(pred_scores, n=s.size)
    return float(_ndcg_rows(s[None], z[None])[0])


def _ndcg_rows(rel: np.ndarray, z: np.ndarray) -> np.ndarray:
    """:func:`ndcg` of each row of (g, n) relevance and prediction arrays."""
    gains = _gains(rel)
    disc = _discounts(rel.shape[1])
    dcg = _exact_row_sums(np.take_along_axis(gains, _descending(z)[0], axis=1) * disc)
    ideal = _exact_row_sums(np.sort(gains, axis=1)[:, ::-1] * disc)
    some = gains.max(axis=1) > 0.0
    out = np.ones(len(rel))  # a row with no gain is defined as 1
    out[some] = np.minimum(dcg[some] / ideal[some], 1.0)
    return out


def evaluate(
    samples: Sequence[RankedSample],
    predictions: Sequence[np.ndarray],
    pred_tie_threshold: float = 0.0,
) -> MetricReport:
    """Score predictions for a list of samples into one :class:`MetricReport`.

    WHDR pools all ground-truth pairs (every index pair of every sample,
    labeled from the raw ground-truth scores, equal scores tying); MAP and
    NDCG average per-sample values.  NDCG consumes per-sample min-max
    normalized relevance so raw ground-truth scores of any sign are
    accepted.  One pass over the groups of :func:`_groups` stacks each
    group once and feeds it to the rank kernel and to the relevance, flag
    and NDCG row operations.  Time is O(n log n) and memory O(n) per
    sample at ``pred_tie_threshold == 0``.

    The samples were checked when they were built.  The predictions are
    checked as :func:`~depthrank.core.as_score_vector` checks one, but
    once per group (see :func:`_group_predictions`): the first bad
    prediction in sample order raises the same error.
    """
    threshold = check_tie_threshold(pred_tie_threshold)
    if len(samples) == 0 or len(samples) != len(predictions):
        raise InvalidInputError("need equally many samples and prediction vectors")
    sizes = check_evaluable(samples)
    groups = _groups(sizes)
    wrong = pairs = 0
    maps, ndcgs = np.empty(len(samples)), np.empty(len(samples))
    flags = set()
    for rows, z in zip(groups, _group_predictions(sizes, predictions, groups)):
        gt = np.array([samples[r].gt_scores for r in rows])
        w, p, maps[rows] = _rank_metrics(gt, z)
        if threshold > 0.0:
            # "Within the threshold" is not transitive, so no sort can count it.
            w = sum(_misordered_within(*row, threshold) for row in zip(gt, z))
        wrong += w
        pairs += p
        rel = _relevance_rows(gt)
        if (rel.max(axis=1) == 0.0).any():
            flags.add(FLAG_ALL_ZERO_GAIN)
        if (z.max(axis=1) == z.min(axis=1)).any():
            flags.add(FLAG_DEGENERATE_PRED_TIES)
        ndcgs[rows] = _ndcg_rows(rel, z)
    return MetricReport(
        whdr=wrong / pairs,
        map=math.fsum(maps.tolist()) / len(maps),
        ndcg=math.fsum(ndcgs.tolist()) / len(ndcgs),
        n_samples=len(samples),
        n_pairs=pairs,
        flags=tuple(sorted(flags)),
    )


def _same_size(sizes: Sequence[int]) -> list[np.ndarray]:
    """The positions of each distinct size, ascending, smallest size first:
    how every caller that stacks lists groups them by length."""
    sizes = np.asarray(sizes)
    by_size = np.argsort(sizes, kind="stable")
    return np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1)


def _groups(sizes: Sequence[int]) -> list[np.ndarray]:
    """The indices of lists grouped by length, at most
    ``max(1, _KERNEL_ITEMS // n)`` lists of n items per group."""
    groups = []
    for same in _same_size(sizes):
        step = max(1, _KERNEL_ITEMS // sizes[same[0]])
        groups += [same[lo:lo + step] for lo in range(0, same.size, step)]
    return groups


def _group_predictions(sizes: Sequence[int], predictions: Sequence,
                       groups: list[np.ndarray]) -> list[np.ndarray]:
    """The predictions of each group as one (g, n) float64 array, n read
    from ``sizes``, checked as :func:`~depthrank.core.as_score_vector`
    checks each one: one conversion and one finiteness test per group.

    A group that fails, or whose stack is not of bool, integer or float
    dtype, sends every prediction through ``as_score_vector`` in sample
    order, so the first bad one raises the error it raises alone.
    """
    stacked = []
    for rows in groups:
        try:
            z = np.array([predictions[r] for r in rows])
        except (TypeError, ValueError):  # ragged shapes or dtypes that do not mix
            break
        if z.dtype.kind not in "biuf":
            break
        z = z.astype(np.float64, copy=False)
        if z.shape != (rows.size, sizes[rows[0]]) or not np.isfinite(z).all():
            break
        stacked.append(z)
    else:
        return stacked
    preds = [as_score_vector(pred, n=n) for n, pred in zip(sizes, predictions)]
    return [np.array([preds[r] for r in rows]) for rows in groups]


def _rank_metrics_by_length(gt_scores: list[np.ndarray], preds: list[np.ndarray]):
    """:func:`_rank_metrics` over the groups of :func:`_groups`: the summed
    misordered and pair counts, and the per-sample MAPs in sample order."""
    wrong = pairs = 0
    maps = np.empty(len(preds))
    for rows in _groups([g.size for g in gt_scores]):
        gt = np.stack([gt_scores[r] for r in rows])
        w, p, maps[rows] = _rank_metrics(gt, np.stack([preds[r] for r in rows]))
        wrong += w
        pairs += p
    return wrong, pairs, maps


def _misordered_within(gt: np.ndarray, z: np.ndarray, threshold: float) -> int:
    """Misordered index pairs of one sample when predictions tie within
    ``threshold``, labelled ``_PAIR_ROWS`` rows of the upper pair triangle
    at a time, so memory stays O(n * _PAIR_ROWS)."""
    n = gt.size
    wrong = 0
    for lo in range(0, n - 1, _PAIR_ROWS):
        i = np.arange(lo, min(lo + _PAIR_ROWS, n - 1))[:, None]
        j = np.arange(lo + 1, n)
        differ = label_pairs(gt, i, j) != label_pairs(z, i, j, threshold)
        wrong += int(np.count_nonzero(differ & (j > i)))
    return wrong


@functools.lru_cache(maxsize=256)
def _tails(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``T(m) = sum_{k=m}^{n-1} 1/k`` for ranks m = 1..n, zero-padded
    to the next power of two, and the perfect-ranking terms ``m T(m)``."""
    recip = np.zeros(n)
    recip[:-1] = 1.0 / np.arange(1, n)
    tail = np.zeros(1 << (n - 1).bit_length())
    tail[:n] = np.cumsum(recip[::-1])[::-1]
    perfect = tail[:n] * np.arange(1, n + 1)
    tail.flags.writeable = perfect.flags.writeable = False
    return tail, perfect


def _earlier(values: np.ndarray, weights: np.ndarray | None = None):
    """Dominance counts over rows that each hold a permutation of 0..n-1.

    Returns, per position, the number of earlier positions of its row with
    a smaller value and, given ``weights`` by value (zero-padded to a power
    of two, as rows are padded with larger values), the summed weights of
    the earlier positions with a larger value.  Each value bit, from the
    top down, is one stable partition within blocks of a row: elements that
    agree above bit ``b`` fill one block, and within it an element with
    bit ``b`` set exceeds every element without it.
    """
    m, n = values.shape
    bits = (n - 1).bit_length()
    size = 1 << bits
    key = np.empty((m, size), dtype=np.int64)
    key[:, :n] = values
    key[:, n:] = np.arange(n, size)
    # key, smaller[, larger]: carried along as elements move
    carried = [key, np.zeros((m, size), dtype=np.int64)]
    if weights is not None:
        carried.append(np.zeros((m, size)))
    col = np.arange(size)
    row = np.arange(0, m * size, size)[:, None]
    for b in range(bits - 1, -1, -1):
        half = 1 << b
        blocks = (m, size // (2 * half), 2 * half)
        key = carried[0]
        one = (key & half) != 0
        # Inclusive counts in the block: at an element with bit b set,
        # `zeros` counts the earlier ones without it.
        ones = np.cumsum(one.reshape(blocks), axis=2).reshape(m, size)
        start = col & -(2 * half)
        zeros = col - start + 1 - ones
        carried[1] += one * zeros
        if weights is not None:
            above = np.where(one, weights[key], 0.0)
            below = np.cumsum(above.reshape(blocks), axis=2).reshape(m, size)
            carried[2] += np.where(one, 0.0, below)
        dest = row + start + np.where(one, half + ones, zeros) - 1
        for arr in carried:
            flat = arr.reshape(-1)
            flat[dest.ravel()] = flat.copy()
    # Every row now holds its elements in value order.
    return [np.take_along_axis(arr, values, axis=1) for arr in carried[1:]]


def _descending(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's descending order, ties broken by ascending index, and where
    neighbours in that order tie."""
    # An unstable sort is cheaper and differs from a stable one only on ties.
    order = np.argsort(-x, axis=1)
    xs = np.take_along_axis(x, order, axis=1)
    tie = xs[:, 1:] == xs[:, :-1]
    tied = tie.any(axis=1)
    if tied.any():
        order[tied] = np.argsort(-x[tied], axis=1, kind="stable")
    return order, tie


def _inverse(order: np.ndarray) -> np.ndarray:
    """Each row's position in ``order``: the inverse permutations."""
    out = np.empty_like(order)
    np.put_along_axis(out, order, np.arange(order.shape[1]), axis=1)
    return out


def _classes(order: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """Per-item tie class, numbered from 0 along ``order``; ``tie`` marks
    sorted neighbours with equal scores."""
    ranked = np.zeros(order.shape, dtype=np.int64)
    np.cumsum(~tie, axis=1, out=ranked[:, 1:])
    out = np.empty_like(ranked)
    np.put_along_axis(out, order, ranked, axis=1)
    return out


def _tied_pairs(tie: np.ndarray) -> int:
    """Pairs inside the runs of rows whose sorted neighbours ``tie`` marks."""
    first = np.ones((tie.shape[0], tie.shape[1] + 1), dtype=bool)
    first[:, 1:] = ~tie
    runs = np.diff(np.append(np.flatnonzero(first), first.size))
    return int((runs * (runs - 1) // 2).sum())


def _rank_metrics(gt: np.ndarray, z: np.ndarray):
    """(misordered pairs at tie threshold 0, index pairs, per-row MAP over
    all cuts) for (g, n) rows of ground-truth and predicted scores.

    Ground-truth ranks break ties by ascending index, as ``permutation_from_scores`` does.
    With p the 1-based predicted position (descending, ascending-index
    tie-break) and g_p the ground-truth rank of the item there, the APs
    summed over all cuts are ``sum_p (1/p) [(A_p + 1) T(g_p) + S_p]``,
    where ``T(m) = sum_{k=m}^{n-1} 1/k``: ``A_p`` counts earlier positions
    with a smaller rank and ``S_p`` sums ``T(g_q)`` over earlier positions
    with a larger one.  On a row with no tie on either side, the pairs
    ``A_p`` counts are the concordant ones; a row that holds a tie has its
    discordant pairs counted by a second pass over (gt, pred) tie classes.
    """
    m, n = gt.shape
    gt_order, gt_tie = _descending(gt)
    order, pred_tie = _descending(z)
    seq = np.take_along_axis(_inverse(gt_order), order, axis=1)
    tail, perfect = _tails(n)
    a, s = _earlier(seq, tail)
    # A perfect ranking scores p T(p) at every position, and those sum to
    # n - 1; summing the shortfall per position makes it score 1 exactly.
    terms = ((a + 1) * tail[seq] + s - perfect) / np.arange(1, n + 1)
    shortfall = np.bincount(np.repeat(np.arange(m), n), weights=terms.ravel(), minlength=m)
    maps = np.clip(1.0 + shortfall / (n - 1), 0.0, 1.0)
    pairs = n * (n - 1) // 2
    tied = (gt_tie | pred_tie).any(axis=1)
    # With no tie on either side, a pair is misordered unless A_p counts it.
    wrong = int((~tied).sum()) * pairs - int(a[~tied].sum())
    if tied.any():
        gt_tie, pred_tie = gt_tie[tied], pred_tie[tied]
        pred_class = _classes(order[tied], pred_tie)
        joint = _classes(gt_order[tied], gt_tie) * n + pred_class
        # Sorted by (gt class, pred class), a discordant pair is exactly an
        # earlier item with a strictly larger pred class: an earlier item with
        # a larger value once pred-class ties rank in sequence order.
        by_joint = np.argsort(joint, axis=1, kind="stable")
        later = np.take_along_axis(pred_class, by_joint, axis=1)
        value = _inverse(np.argsort(later, axis=1, kind="stable"))
        discordant = int(tied.sum()) * pairs - int(_earlier(value)[0].sum())
        joint = np.take_along_axis(joint, by_joint, axis=1)
        wrong += (discordant + _tied_pairs(gt_tie) + _tied_pairs(pred_tie)
                  - 2 * _tied_pairs(joint[:, 1:] == joint[:, :-1]))
    return wrong, m * pairs, maps
