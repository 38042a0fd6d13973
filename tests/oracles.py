"""Independent brute-force reference implementations.

Everything here is written as naively as possible (explicit tables,
exhaustive enumeration, exact rational arithmetic) and shares no code
with the package, so the fast implementations can be checked against it.
The one exception, ``per_sample_synthetic``, checks only how the dataset
generator lays out its draws, so it reuses the package's stream and
hidden scorer.
"""

from fractions import Fraction
from itertools import permutations

import math

import numpy as np


def ap_fraction(labels) -> Fraction:
    """Average precision from an explicit precision/recall table (exact)."""
    labels = [1 if x else 0 for x in labels]
    n_pos = sum(labels)
    assert n_pos > 0
    total = Fraction(0)
    rec_prev = Fraction(0)
    for i in range(1, len(labels) + 1):
        hits = sum(labels[:i])
        prec = Fraction(hits, i)
        rec = Fraction(hits, n_pos)
        total += prec * (rec - rec_prev)
        rec_prev = rec
    return total


def ap_table(labels) -> float:
    return float(ap_fraction(labels))


def map_cuts(gt_order, pred_scores) -> float:
    """MAP over ground-truth cut points, built from first principles.

    ``gt_order``: item indices top-first.  Predictions are ordered by
    descending score with ascending-index tie-break, implemented here via
    an explicit selection loop rather than a library sort.
    """
    n = len(gt_order)
    remaining = list(range(n))
    pred_order = []
    while remaining:
        best = remaining[0]
        for cand in remaining[1:]:
            if pred_scores[cand] > pred_scores[best]:
                best = cand
        pred_order.append(best)
        remaining.remove(best)
    total = Fraction(0)
    for k in range(1, n):
        positives = set(gt_order[:k])
        labels = [1 if item in positives else 0 for item in pred_order]
        total += ap_fraction(labels)
    return float(total / (n - 1))


def map_cuts_float(gt_order, pred_scores) -> float:
    """Same as :func:`map_cuts` but in plain floats (for 1e-12 comparisons)."""
    n = len(gt_order)
    remaining = list(range(n))
    pred_order = []
    while remaining:
        best = remaining[0]
        for cand in remaining[1:]:
            if pred_scores[cand] > pred_scores[best]:
                best = cand
        pred_order.append(best)
        remaining.remove(best)
    aps = []
    for k in range(1, n):
        positives = set(gt_order[:k])
        labels = [1 if item in positives else 0 for item in pred_order]
        n_pos = sum(labels)
        ap = 0.0
        rec_prev = 0.0
        for i in range(1, n + 1):
            hits = sum(labels[:i])
            prec = hits / i
            rec = hits / n_pos
            ap += prec * (rec - rec_prev)
            rec_prev = rec
        aps.append(ap)
    return sum(aps) / (n - 1)


def dense_sample_map(gt_rank, pred_scores) -> float:
    """MAP over all cuts from an explicit (n-1) x n cut-label matrix.

    ``gt_rank[item]`` is the item's 1-based ground-truth rank.  This is
    the package's former O(n^2) implementation.
    """
    gt_rank = np.asarray(gt_rank)
    pred = np.asarray(pred_scores, dtype=np.float64)
    n = gt_rank.size
    ranks = gt_rank[np.argsort(-pred, kind="stable")]
    ks = np.arange(1, n, dtype=np.float64)
    labels = (ranks[None, :] <= ks[:, None]).astype(np.float64)
    cum = np.cumsum(labels, axis=1)
    prec = cum / np.arange(1, n + 1, dtype=np.float64)
    rec = cum / ks[:, None]
    rec_prev = np.concatenate([np.zeros((n - 1, 1)), rec[:, :-1]], axis=1)
    ap = np.sum(prec * (rec - rec_prev), axis=1)
    return math.fsum(ap.tolist()) / (n - 1)


def sample_ndcg(relevance, pred_scores) -> float:
    """NDCG of one sample, one ``math.fsum`` per DCG: the package's former
    per-sample code, with gain ``exp2(s) - 1`` and discount
    ``log(2) / log(pos + 1)`` as numpy computes them."""
    gains = np.exp2(np.asarray(relevance, dtype=np.float64)) - 1.0
    if gains.max() == 0.0:
        return 1.0
    disc = math.log(2.0) / np.log(np.arange(2, gains.size + 2, dtype=np.float64))
    order = np.argsort(-np.asarray(pred_scores, dtype=np.float64), kind="stable")
    dcg = math.fsum((gains[order] * disc).tolist())
    ideal = math.fsum((np.sort(gains)[::-1] * disc).tolist())
    return min(dcg / ideal, 1.0)


def dense_whdr_counts(gt_scores, pred_scores, pred_tie_threshold=0.0):
    """(#misordered pairs, #pairs) over every index pair of one sample.

    Ground-truth labels tie only on equal scores; a prediction ties when
    the score difference is at most ``pred_tie_threshold``.  This is the
    package's former O(n^2) triu labelling.
    """
    gt = np.asarray(gt_scores, dtype=np.float64)
    pred = np.asarray(pred_scores, dtype=np.float64)
    i, j = np.triu_indices(gt.size, k=1)
    r = np.sign(gt[i] - gt[j]).astype(np.int64)
    d = pred[i] - pred[j]
    got = (d > pred_tie_threshold).astype(np.int64) - (d < -pred_tie_threshold)
    return int(np.count_nonzero(got != r)), int(r.size)


def ordinal_label(s_i, s_j, tie_threshold=0.0) -> int:
    """+1 if the first score ranks higher, -1 if the second does, 0 when
    they differ by at most ``tie_threshold``."""
    if abs(s_i - s_j) <= tie_threshold:
        return 0
    return 1 if s_i > s_j else -1


def gain(s) -> float:
    """Relevance gain 2^s - 1."""
    return 2.0 ** s - 1.0


def discount(pos, log_base=2.0) -> float:
    """Rank discount 1 / log_base(pos + 1) for a 1-based rank."""
    return 1.0 / (math.log(pos + 1) / math.log(log_base))


def plackett_luce_prob(perm_order, scores) -> float:
    """Naive Plackett-Luce probability: product of stepwise softmax terms."""
    remaining = list(range(len(scores)))
    prob = 1.0
    for item in perm_order:
        weights = [math.exp(scores[r] - max(scores[r2] for r2 in remaining)) for r in remaining]
        idx = remaining.index(item)
        prob *= weights[idx] / sum(weights)
        remaining.remove(item)
    return prob


def plackett_luce_streamed(perm_order, scores) -> float:
    """Plackett-Luce log probability by its own suffix log-sum-exp pass, the
    package's former separate computation."""
    v = np.asarray(scores, dtype=np.float64)[np.asarray(perm_order)]
    lse = np.logaddexp.accumulate(v[::-1])[::-1]
    return -math.fsum((lse - v).tolist())


def all_permutation_probs(scores) -> float:
    """Sum of naive Plackett-Luce probabilities over all permutations."""
    n = len(scores)
    return sum(plackett_luce_prob(p, scores) for p in permutations(range(n)))


def listmle_explicit(order, scores) -> float:
    """Direct transcription of the expanded ListMLE sum (no shared kernel)."""
    n = len(order)
    total = 0.0
    for i in range(n - 1):
        suffix = [scores[order[s]] for s in range(i, n)]
        m = max(suffix)
        total += -scores[order[i]] + (m + math.log(sum(math.exp(v - m) for v in suffix)))
    return total


def weighted_listmle_explicit(order, relevance, scores, log_base=2.0) -> float:
    """Direct transcription of the gain/discount weighted sum."""
    n = len(order)
    total = 0.0
    for i in range(n - 1):
        g = 2.0 ** relevance[order[i]] - 1.0
        d = 1.0 / (math.log(i + 2) / math.log(log_base))
        suffix = [scores[order[s]] for s in range(i, n)]
        m = max(suffix)
        total += g * d * (-scores[order[i]] + m + math.log(sum(math.exp(v - m) for v in suffix)))
    return total


def descending_sorts(values):
    """All index orders that sort ``values`` in non-increasing order."""
    n = len(values)
    return [
        p
        for p in permutations(range(n))
        if all(values[p[k]] >= values[p[k + 1]] for k in range(n - 1))
    ]


def stable_descending_sort(values):
    """The unique non-increasing order whose ties keep ascending indices."""
    candidates = [
        p
        for p in descending_sorts(values)
        if all(
            p[k] < p[k + 1]
            for k in range(len(p) - 1)
            if values[p[k]] == values[p[k + 1]]
        )
    ]
    assert len(candidates) == 1
    return list(candidates[0])


def fd_gradient(fn, x, h=1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out[k] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return out


def pairwise_scalar(z_i, z_j, r):
    """Per-pair loss and ``[d/dz_i, d/dz_j]``: the package's former scalar formula.

    Ordered pairs take softplus of the wrongly-signed difference
    ``d = r (z_j - z_i)``, with gradient ``(-r sigmoid(d), r sigmoid(d))``;
    ties take ``(z_i - z_j)^2``.
    """
    if r == 0:
        d = z_i - z_j
        return d * d, [2.0 * d, -2.0 * d]
    d = r * (z_j - z_i)
    t = math.exp(-abs(d))
    softplus = max(d, 0.0) + math.log1p(t)
    sigmoid = 1.0 / (1.0 + t) if d >= 0 else t / (1.0 + t)
    return softplus, [-r * sigmoid, r * sigmoid]


def listnet_explicit(gt_scores, pred_scores):
    """ListNet value and gradient in plain floats: the package's former
    expression, ``-sum P_gt log P_pred`` and ``P_pred - P_gt``."""
    top = max(gt_scores)
    e = [math.exp(y - top) for y in gt_scores]
    p_gt = [v / sum(e) for v in e]
    top = max(pred_scores)
    lse = top + math.log(sum(math.exp(z - top) for z in pred_scores))
    log_p_pred = [z - lse for z in pred_scores]
    value = -math.fsum(p * lp for p, lp in zip(p_gt, log_p_pred))
    return value, [math.exp(lp) - p for lp, p in zip(log_p_pred, p_gt)]


def fisher_yates_prefix(n, k, next_u64):
    """``range(n)`` after ``k`` steps of a textbook Fisher-Yates shuffle:
    step ``i`` swaps position ``i`` with ``i + next_u64() % (n - i)``."""
    out = list(range(n))
    for i in range(k):
        j = i + next_u64() % (n - i)
        out[i], out[j] = out[j], out[i]
    return out


# The loss kernels on one list, as the trainer ran them once per sample
# before they took (b, n) rows.  Each row of a batched kernel call must
# equal these bit for bit, so trained outputs stay what they were.


def one_list_pairwise(z, i, j, r):
    """Mean pairwise loss and score gradient: two ``np.add.at`` passes,
    every i term and then every j term, in pair order."""
    d = z[i] - z[j]
    ordered = r != 0
    sgn = r.astype(np.float64)
    x = -sgn * d
    with np.errstate(over="ignore"):
        softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        t = np.exp(-np.abs(x))
        sigmoid = np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
        vals = np.where(ordered, softplus, d * d)
        g_i = np.where(ordered, -sgn * sigmoid, 2.0 * d)
    dz = np.zeros_like(z)
    np.add.at(dz, i, g_i)
    np.add.at(dz, j, -g_i)
    return float(vals.sum() / d.size), dz / d.size


def one_list_listnet(y, z):
    """ListNet value and score gradient, normalizers rounded by ``math.log``."""
    e = np.exp(y - y.max())
    p_y = e / e.sum()
    m = z.max()
    log_p_z = z - (m + math.log(np.exp(z - m).sum()))
    return -math.fsum((p_y * log_p_z).tolist()), np.exp(log_p_z) - p_y


def one_list_weighted_nll(order, weights, z):
    """Weighted ListMLE value and score gradient of one list."""
    n = z.size
    if n == 1:
        return 0.0, np.zeros(1)
    v = z[order]
    lse = np.logaddexp.accumulate(v[::-1])[::-1]
    head_w = weights[: n - 1]
    value = math.fsum((head_w * (lse[: n - 1] - v[: n - 1])).tolist())
    with np.errstate(divide="ignore"):
        log_w = np.log(head_w)
    prefix = np.logaddexp.accumulate(log_w - lse[: n - 1])
    grad_sorted = np.exp(v + prefix[np.minimum(np.arange(n), n - 2)])
    grad_sorted[: n - 1] -= head_w
    grad = np.empty_like(z)
    grad[order] = grad_sorted
    return value, grad


# Halfway between the largest float and 2^1024: exact sums from here up
# round to infinity.
ROUNDS_TO_INF = Fraction(2**1024 - 2**970)


def row_fsum(row) -> float:
    """One row's exact sum as ``math.fsum`` returns it.  Where fsum raises
    ``OverflowError`` (its partial sums left the float range): with a nan
    or inf term, fsum of those terms alone; otherwise the exact rational
    sum, rounded to nearest below :data:`ROUNDS_TO_INF` and infinite, with
    its sign, from there up."""
    row = [float(x) for x in row]
    try:
        return math.fsum(row)
    except OverflowError:
        pass
    special = [x for x in row if x != x or x in (math.inf, -math.inf)]
    if special:
        return math.fsum(special)
    total = Fraction(0)
    for x in row:
        total += Fraction(x)
    if abs(total) >= ROUNDS_TO_INF:
        return math.inf if total > 0 else -math.inf
    return total.numerator / total.denominator


def hex_list(values) -> list[str]:
    """``float.hex`` of each value: the package's former per-float encoder."""
    return [float(x).hex() for x in np.ravel(values)]


def fromhex_floats(tokens) -> np.ndarray:
    """``float.fromhex`` of each token: the package's former per-float
    decoder, raising whatever ``float.fromhex`` raises."""
    return np.array([float.fromhex(t) for t in tokens], dtype=np.float64)


def dataset_text(header: str, samples) -> str:
    """A dataset file as the package's former writer built it: the header
    line, then one ``id n d features scores`` line per sample."""
    lines = [header]
    for sample_id, items, scores in samples:
        n, d = np.shape(items)
        lines.append(" ".join([sample_id, str(n), str(d), *hex_list(items), *hex_list(scores)]))
    return "\n".join(lines) + "\n"


def params_text(header: str, fields) -> str:
    """A params file as the package's former writer built it: the header
    line, then one ``name values`` line per ``(name, array)`` field."""
    lines = [header] + [" ".join([name, *hex_list(values)]) for name, values in fields]
    return "\n".join(lines) + "\n"


def per_sample_synthetic(spec):
    """``data.generate_synthetic`` as it drew before it took a chunk of
    samples per stream block: ``normals(n * d)`` for each sample's
    features, then ``normals(n)`` for its noise, one call after another."""
    from dataclasses import asdict

    from depthrank.core import RankedSample
    from depthrank.data import DATASET_FORMAT, Dataset, _draw_hidden, _hidden_scorer
    from depthrank.rng import SplitMix64

    rng = SplitMix64(spec.seed)
    hidden = _draw_hidden(rng, spec)
    n, d = spec.items_per_sample, spec.feature_dim
    hidden_scores = _hidden_scorer(hidden, d)
    samples = []
    for idx in range(spec.n_samples):
        features = rng.normals(n * d).reshape(n, d)
        raw = hidden_scores(features)
        if spec.noise_sigma > 0:
            raw = raw + spec.noise_sigma * rng.normals(n)
        samples.append(RankedSample(id=f"s{idx:05d}", items=features, gt_scores=raw))
    meta = {"format": DATASET_FORMAT, "spec": asdict(spec), "hidden": hidden}
    return Dataset(samples=tuple(samples), meta=meta)
