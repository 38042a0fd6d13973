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

Cost: :func:`evaluate` scores WHDR (at ``pred_tie_threshold == 0``) and
MAP over all cuts with one sort-based kernel, ``_rank_metrics``.  It takes
each sample's ground-truth scores and the concatenated predictions, a few
thousand items per call, ranks both sides itself and returns the
misordered and total pair counts with the per-sample MAPs, in O(N log N)
time and O(N) memory for N items in total; no pair array or cut matrix is
built.  WHDR at ``pred_tie_threshold > 0`` labels every index pair of a
sample, a block of rows of the pair triangle at a time: O(n^2) time and
O(n) memory per sample of n items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Permutation, RankedSample, as_score_vector, check_pairs, label_pairs
from .data import normalize_relevance
from .errors import InvalidInputError
from .losses import _discounts, _gains

FLAG_DEGENERATE_PRED_TIES = "degenerate-pred-ties"
FLAG_ALL_ZERO_GAIN = "all-zero-gain"

# Items per rank-kernel call, rounded up to whole samples.
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


def check_evaluable(samples: Sequence[RankedSample]) -> None:
    """Reject samples :func:`evaluate` cannot score: WHDR and MAP need two items."""
    for sample in samples:
        if sample.n < 2:
            raise InvalidInputError(f"sample {sample.id!r} has fewer than two items")


def whdr(pairs, pred_scores, pred_tie_threshold: float = 0.0) -> float:
    """Fraction of the pairs whose predicted ordinal label disagrees with ``r``.

    ``pairs`` is ``(i, j, r)``: three equal-length integer arrays, as
    :func:`~depthrank.core.all_pairs` returns them.  A pair is predicted
    ``+1``/``-1`` when the score difference exceeds ``pred_tie_threshold``
    in magnitude, ``0`` otherwise.
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
    return math.fsum((prec * (rec - rec_prev)).tolist())


def _sample_map(gt_perm: Permutation, pred_scores: np.ndarray) -> float:
    """Mean AP over ground-truth cut points 1..n-1 for one sample.

    The negated ranks are distinct scores that sort into ``gt_perm``.
    """
    return float(_rank_metrics([-gt_perm.inverse_array], pred_scores)[2][0])


def mean_average_precision(samples: Sequence[tuple[Permutation, object]]) -> float:
    """MAP over (ground-truth permutation, predicted scores) samples.

    For each sample the ground truth is binarized at every cut k in
    1..n-1 (top-k positive), labels are ordered by descending predicted
    score with ascending-index tie-break, and the per-cut APs are averaged
    over cuts and then over samples.
    """
    if not samples:
        raise InvalidInputError("need at least one sample")
    per_sample = []
    for gt_perm, pred in samples:
        z = as_score_vector(pred, n=len(gt_perm))
        if len(gt_perm) < 2:
            raise InvalidInputError("MAP needs samples with at least two items")
        per_sample.append(_sample_map(gt_perm, z))
    return math.fsum(per_sample) / len(per_sample)


def ndcg(gt_scores, pred_scores) -> float:
    """DCG of the predicted order over the ideal DCG, with gain 2^s - 1 and
    discount 1/log2(pos + 1), the weights of the weighted ListMLE loss.

    Ground-truth scores must be non-negative graded relevance.  When every
    gain is zero the ideal DCG vanishes and the metric is defined as 1.0
    (callers flag this degenerate case in their reports).
    """
    s = as_score_vector(gt_scores)
    z = as_score_vector(pred_scores, n=s.size)
    gains = _gains(s)
    if gains.max() == 0.0:
        return 1.0
    disc = _discounts(s.size)
    pred_order = np.argsort(-z, kind="stable")
    dcg = math.fsum((gains[pred_order] * disc).tolist())
    ideal = math.fsum((np.sort(gains)[::-1] * disc).tolist())
    return min(dcg / ideal, 1.0)


def evaluate(
    samples: Sequence[RankedSample],
    predictions: Sequence[np.ndarray],
    pred_tie_threshold: float = 0.0,
) -> MetricReport:
    """Score predictions for a list of samples into one :class:`MetricReport`.

    WHDR pools all ground-truth pairs (every index pair of every sample,
    labeled from the raw ground-truth scores, equal scores tying); MAP and
    NDCG average per-sample values in sample order.  NDCG consumes
    per-sample min-max normalized relevance so raw ground-truth scores of
    any sign are accepted.
    """
    threshold = check_tie_threshold(pred_tie_threshold)
    if len(samples) == 0 or len(samples) != len(predictions):
        raise InvalidInputError("need equally many samples and prediction vectors")
    preds = []
    ndcgs = []
    flags = set()
    check_evaluable(samples)
    for sample, pred in zip(samples, predictions):
        z = as_score_vector(pred, n=sample.n)
        rel = normalize_relevance(sample.gt_scores)
        if rel.max() == 0.0:
            flags.add(FLAG_ALL_ZERO_GAIN)
        if z.max() == z.min():
            flags.add(FLAG_DEGENERATE_PRED_TIES)
        ndcgs.append(ndcg(rel, z))
        preds.append(z)
    wrong, pairs, maps = _rank_metrics_in_runs([s.gt_scores for s in samples], preds)
    if threshold > 0.0:
        # "Within the threshold" is not transitive, so no sort can count it.
        wrong = sum(_misordered_within(s.gt_scores, z, threshold) for s, z in zip(samples, preds))
    return MetricReport(
        whdr=wrong / pairs,
        map=math.fsum(maps) / len(maps),
        ndcg=math.fsum(ndcgs) / len(ndcgs),
        n_samples=len(samples),
        n_pairs=pairs,
        flags=tuple(sorted(flags)),
    )


def _rank_metrics_in_runs(gt_scores: list[np.ndarray], preds: list[np.ndarray]):
    """:func:`_rank_metrics` over runs of consecutive samples of about
    :data:`_KERNEL_ITEMS` items, which bound its scratch memory: the summed
    misordered and pair counts, and the per-sample MAP list.  A sample's MAP
    bits depend on the run it is scored in, so every caller goes through here.
    """
    sizes = np.array([g.size for g in gt_scores])
    cuts = (np.flatnonzero(np.diff((np.cumsum(sizes) - sizes) // _KERNEL_ITEMS)) + 1).tolist()
    wrong = pairs = 0
    maps = []
    for lo, hi in zip([0, *cuts], [*cuts, len(gt_scores)]):
        w, p, m = _rank_metrics(gt_scores[lo:hi], np.concatenate(preds[lo:hi]))
        wrong += w
        pairs += p
        maps.extend(m.tolist())
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


def _run_starts(local: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Where runs of equal keys start in a sequence grouped by sample."""
    first = local == 0
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    return first


def _tied_pairs(first: np.ndarray) -> int:
    """Pairs inside the runs of a sequence; ``first`` marks where runs start."""
    runs = np.diff(np.append(np.flatnonzero(first), first.size))
    return int((runs * (runs - 1) // 2).sum())


def _earlier(key: np.ndarray, bits: int, weights: np.ndarray):
    """Dominance sums over a sequence of keys ``(sample << bits) | value``.

    Returns, per element, the number of earlier elements of its sample
    with a strictly smaller value, and the summed ``weights`` of the
    earlier ones with a strictly larger value.  Each value bit, from the
    top down, is one stable partition: elements that agree above bit ``b``
    form a group, and within it an element with bit ``b`` set exceeds
    every element without it.
    """
    n = key.size
    pos = np.arange(n, dtype=np.int64)
    # key, item, smaller, larger, weight: carried along as elements move
    carried = [key.copy(), pos.copy(), np.zeros(n, dtype=np.int64), np.zeros(n),
               np.array(weights, dtype=np.float64)]
    first = np.ones(n, dtype=bool)
    for b in range(bits - 1, -1, -1):
        k, _, smaller, larger, w = carried
        hi = k >> (b + 1)
        np.not_equal(hi[1:], hi[:-1], out=first[1:])
        heads = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        head = heads[group]
        one = (k >> b) & 1
        ones_incl = np.cumsum(one)
        ones_before = ones_incl - one
        ones_before -= ones_before[head]
        zeros_before = pos - head - ones_before
        smaller += zeros_before * one
        prefix = np.zeros(n)
        above = np.where(one == 1, w, 0.0)
        np.cumsum(above[:-1], out=prefix[1:])
        larger += np.where(one == 1, 0.0, prefix - prefix[head])
        tails = np.append(heads[1:], n) - 1
        zeros_in = tails + 1 - heads - (ones_incl[tails] - ones_incl[heads] + one[heads])
        dest = head + np.where(one == 1, zeros_in[group] + ones_before, zeros_before)
        for arr in carried:
            arr[dest] = arr.copy()
    item, smaller, larger = carried[1:4]
    out_smaller = np.empty(n, dtype=np.int64)
    out_larger = np.empty(n)
    out_smaller[item] = smaller
    out_larger[item] = larger
    return out_smaller, out_larger


def _rank_metrics(gt_scores: Sequence[np.ndarray], z: np.ndarray):
    """(misordered pairs at tie threshold 0, index pairs, per-sample MAP
    over all cuts) for a batch of samples.

    ``gt_scores`` holds each sample's ground-truth scores and ``z`` the
    predicted scores of all their items, concatenated in sample order.
    Ground-truth ranks break ties by ascending index, as ``gt_perm`` does.

    With p the 1-based predicted position (descending, ascending-index
    tie-break) and g_p the ground-truth rank of the item there, the APs
    summed over all cuts are ``sum_p (1/p) [(A_p + 1) T(g_p) + S_p]``,
    where ``T(m) = sum_{k=m}^{n-1} 1/k``: ``A_p`` counts earlier positions
    with a smaller rank and ``S_p`` sums ``T(g_q)`` over earlier positions
    with a larger one.
    """
    sizes = np.array([s.size for s in gt_scores], dtype=np.int64)
    scores = np.concatenate(gt_scores)
    seg = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    starts = np.cumsum(sizes) - sizes
    local = np.arange(seg.size, dtype=np.int64) - starts[seg]
    bits = int(sizes.max() - 1).bit_length()
    # Ground-truth ranks and tie classes, numbered batch-wide.
    gt_order = np.lexsort((-scores, seg))
    gt_first = _run_starts(local, scores[gt_order])
    rank = np.empty(scores.size, dtype=np.int64)
    rank[gt_order] = local + 1
    gt_class = np.empty(scores.size, dtype=np.int64)
    gt_class[gt_order] = np.cumsum(gt_first) - 1
    # T(local + 1): a suffix sum of 1/k within each sample, with T(n) = 0,
    # taken as the batch's suffix sum minus the next sample's.
    recip = np.where(local + 1 < sizes[seg], 1.0 / (local + 1), 0.0)
    suffix = np.cumsum(recip[::-1])[::-1]
    tail = suffix - np.append(suffix[starts[1:]], 0.0)[seg]
    rank_tail = tail[starts[seg] + rank - 1]
    order = np.lexsort((-z, seg))
    t = rank_tail[order]
    a, s = _earlier((seg << bits) | (rank[order] - 1), bits, t)
    # A perfect ranking scores p T(p) at every position, and those sum to
    # n - 1; summing the shortfall per position makes it score 1 exactly.
    perfect = tail * (local + 1)
    shortfall = np.bincount(seg, weights=((a + 1) * t + s - perfect) / (local + 1),
                            minlength=sizes.size)
    maps = np.clip(1.0 + shortfall / (sizes - 1), 0.0, 1.0)
    # Pred tie classes, numbered batch-wide in descending score order.
    first = _run_starts(local, z[order])
    seq_class = np.cumsum(first) - 1
    pred_ties = _tied_pairs(first)
    pred_class = np.empty_like(seq_class)
    pred_class[order] = seq_class
    # Sorted by (gt class, pred class), a discordant pair is exactly an
    # earlier item with a strictly larger pred class.
    joint = np.lexsort((pred_class, gt_class))
    c = pred_class[joint]
    joint_ties = _tied_pairs(_run_starts(local, c, gt_class[joint]))
    value = c - seq_class[local == 0][seg]
    discordant = int(_earlier((seg << bits) | value, bits, np.ones(c.size))[1].sum())
    wrong = discordant + _tied_pairs(gt_first) + pred_ties - 2 * joint_ties
    return wrong, int((sizes * (sizes - 1) // 2).sum()), maps
