"""Ranking losses with hand-derived gradients with respect to predicted scores.

Four losses are implemented:

* ``pairwise_loss`` — per-pair logistic loss on the score difference for
  ordered pairs, squared difference for ties.
* ``listnet_loss`` — cross entropy between ground-truth and predicted
  top-one (softmax) distributions.
* ``listmle_loss`` — negative log likelihood of the ground-truth
  permutation under the Plackett-Luce model of the predicted scores.
* ``weighted_listmle_loss`` — ListMLE with each position's term scaled by
  a gain of the item's graded relevance and a discount of its rank, the
  same weighting NDCG uses.

Each loss is one private array kernel over ``b`` lists of equal length
``n``, one per row: it takes ``(b, n)`` score rows ``z`` and returns
``(values, gradients)``, a length-``b`` value array and the ``(b, n)``
score gradient.  The kernels are ``_pairwise_batch(z, i, j, r)`` (mean over
each row's pairs, ``(b, k)`` index and label rows), ``_listnet(y, z)``, and
``_weighted_nll(order, weights, z)`` for both ListMLE losses.  Each row's
result is bit-identical to a one-row call on that row alone.  The public
functions validate one list, then make that one-row call; the trainer
calls the kernels on a whole mini-batch.  The ListMLE kernel streams a
suffix log-sum-exp, so it stays finite for score magnitudes up to ~700,
and identity weights reduce it to plain ListMLE bit-for-bit.  Its two
log-add-exp scans (the suffix log-sum-exp and the gradient's prefix) run
along each row with ``np.logaddexp.accumulate`` below 32 rows, and step
column by column at 32 rows or more: one ``np.logaddexp`` call per column
over every row, which saves accumulate's per-row overhead once the rows
outnumber the fixed cost of a call per column.  Both forms apply the same scalar ``logaddexp`` to the same operands in
the same order, so a row's bits do not depend on which form ran or on
its neighbours.  (Rewriting the scan with vectorised ``np.exp`` and
``np.log1p`` would not keep those bits: numpy's SIMD ``exp`` and
``log1p`` round differently from the libm calls inside ``logaddexp``.)
A ListMLE or ListNet value is the exact sum of its row's terms, rounded
once: :func:`~depthrank.core._exact_row_sums` returns each row's
``math.fsum`` bits, from a ``longdouble`` sum wherever an error bound
proves that it rounds the same way, and from ``math.fsum`` elsewhere.  A
sum of finite terms that overflows is ``inf``, not an ``OverflowError``.
``plackett_luce_log_prob`` is the negated one-row ListMLE value, so the
Plackett-Luce log likelihood has no pass of its own.  Gradients are
analytic; the test suite checks every one against central finite
differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Permutation, _exact_row_sums, as_score_vector
from .errors import InvalidInputError

GAIN_IDENTITY_ONE = "identity-one"
GAIN_TWO_POW_MINUS_ONE = "two-pow-minus-one"
DISCOUNT_IDENTITY_ONE = "identity-one"
DISCOUNT_INVERSE_LOG = "inverse-log"

_GAIN_KINDS = (GAIN_IDENTITY_ONE, GAIN_TWO_POW_MINUS_ONE)
_DISCOUNT_KINDS = (DISCOUNT_IDENTITY_ONE, DISCOUNT_INVERSE_LOG)

# 2^s loses integer resolution well before this, and the weighted loss
# becomes meaningless; treat larger relevance as a caller bug.
MAX_GAIN_INPUT = 60.0


@dataclass(frozen=True)
class LossResult:
    """Loss value plus its gradient with respect to the predicted scores
    (length 2 for the pairwise loss: d/dz_i, d/dz_j)."""

    value: float
    grad: np.ndarray

    def __post_init__(self):
        grad = np.ascontiguousarray(self.grad, dtype=np.float64)
        grad.flags.writeable = False
        object.__setattr__(self, "grad", grad)


@dataclass(frozen=True)
class WeightConfig:
    """Gain/discount selection for the weighted ListMLE loss.

    ``identity-one`` for both reduces the loss to plain ListMLE.  The
    discount logarithm base defaults to 2, the usual NDCG convention.
    """

    gain: str = GAIN_TWO_POW_MINUS_ONE
    discount: str = DISCOUNT_INVERSE_LOG
    log_base: float = 2.0

    def __post_init__(self):
        if self.gain not in _GAIN_KINDS:
            raise InvalidInputError(f"unknown gain {self.gain!r}; expected one of {_GAIN_KINDS}")
        if self.discount not in _DISCOUNT_KINDS:
            raise InvalidInputError(
                f"unknown discount {self.discount!r}; expected one of {_DISCOUNT_KINDS}"
            )
        if not (self.log_base > 1.0 and math.isfinite(self.log_base)):
            raise InvalidInputError(f"log_base must be > 1: {self.log_base}")


IDENTITY_WEIGHTS = WeightConfig(gain=GAIN_IDENTITY_ONE, discount=DISCOUNT_IDENTITY_ONE)


def softplus(x):
    """log(1 + exp(x)) without overflow: max(x, 0) + log1p(exp(-|x|))."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    """Logistic function, evaluated through exp(-|x|) only."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def suffix_logsumexp(values) -> np.ndarray:
    """``out[i] = log sum_{s >= i} exp(values[s])`` in one reverse pass.

    Uses ``np.logaddexp.accumulate``, which rescales against the running
    maximum at every step, so inputs anywhere in [-700, 700] stay finite.
    """
    v = as_score_vector(values)
    return np.ascontiguousarray(np.logaddexp.accumulate(v[::-1])[::-1])


def _gains(s: np.ndarray) -> np.ndarray:
    """Relevance gains G(s) = 2^s - 1 for graded relevance in [0, MAX_GAIN_INPUT]."""
    if s.size and s.max() > MAX_GAIN_INPUT:
        raise InvalidInputError(
            f"gain input {s.max()} exceeds supported range (max {MAX_GAIN_INPUT})"
        )
    if s.size and s.min() < 0.0:
        # A negative relevance would make the weight negative and the
        # gradient undefined; relevance must be normalized to >= 0 first.
        raise InvalidInputError(f"gain input must be >= 0: {s.min()}")
    return np.exp2(s) - 1.0


@functools.lru_cache(maxsize=256)  # NDCG and the weighted loss ask for every sample
def _discounts(n: int, log_base: float = 2.0) -> np.ndarray:
    """Read-only rank discounts D(p) = 1 / log_base(p + 1) for ranks p = 1..n."""
    out = math.log(log_base) / np.log(np.arange(2, n + 2, dtype=np.float64))
    out.flags.writeable = False
    return out


def position_weights(cfg: WeightConfig, gt_scores_by_rank: np.ndarray) -> np.ndarray:
    """Per-position weights G(s_{y(i)}) * D(i) for ranks i = 1..n, of one
    list or of each (g, n) row.

    ``gt_scores_by_rank`` must already be ordered by the ground-truth
    ranking (rank 1 first).
    """
    s = np.asarray(gt_scores_by_rank, dtype=np.float64)
    gains = np.ones(s.shape) if cfg.gain == GAIN_IDENTITY_ONE else _gains(s)
    if cfg.discount == DISCOUNT_IDENTITY_ONE:
        return gains
    return gains * _discounts(s.shape[-1], cfg.log_base)


def _pairwise_batch(z: np.ndarray, i: np.ndarray, j: np.ndarray, r: np.ndarray):
    """Mean pairwise loss of each row's pairs ``(i[b, k], j[b, k], r[b, k])``
    and its score gradient.

    The squared tie branch can overflow to inf when training diverges;
    that is the divergence signal the train loop checks for, so overflow
    is deliberately silent here.
    """
    b, n = z.shape
    rows = np.arange(b)[:, None]
    d = z[rows, i] - z[rows, j]
    ordered = r != 0
    sgn = r.astype(np.float64)
    # -sgn * d is the wrongly-signed difference r (z_j - z_i); exact, as -(a - b) == b - a
    with np.errstate(over="ignore"):
        vals = np.where(ordered, softplus(-sgn * d), d * d)
        g_i = np.where(ordered, -sgn * sigmoid(-sgn * d), 2.0 * d)
    k = d.shape[1]
    # One bin per (row, item); each bin sums its i terms, then its j terms,
    # in pair order, as np.add.at over i and then over j would.
    dz = np.bincount(
        np.concatenate([(i + n * rows).ravel(), (j + n * rows).ravel()]),
        weights=np.concatenate([g_i.ravel(), (-g_i).ravel()]),
        minlength=b * n,
    )
    return vals.sum(axis=1) / k, dz.reshape(b, n) / k


def pairwise_loss(z_i: float, z_j: float, r: int) -> LossResult:
    """Per-pair loss: softplus of the wrongly-signed score difference for
    ordered pairs, squared difference for ties.

    ``r=+1`` asks for ``z_i > z_j``, ``r=-1`` for ``z_j > z_i``, ``r=0``
    for equality.  Stable for |z_i - z_j| up to ~700.
    """
    if not (math.isfinite(z_i) and math.isfinite(z_j)):
        raise InvalidInputError(f"scores must be finite: ({z_i!r}, {z_j!r})")
    if r not in (1, -1, 0):
        raise InvalidInputError(f"ordinal label must be +1, -1 or 0: {r!r}")
    z = np.array([[z_i, z_j]], dtype=np.float64)
    value, grad = _pairwise_batch(z, np.array([[0]]), np.array([[1]]), np.array([[r]]))
    return LossResult(float(value[0]), grad[0])


def _softmax(v: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def top_one_probabilities(scores) -> np.ndarray:
    """Softmax of the scores: the probability of each item ranking first."""
    return _softmax(as_score_vector(scores))


def _listnet(y: np.ndarray, z: np.ndarray):
    """Kernel of :func:`listnet_loss`: values and score gradients of ``(b, n)`` rows."""
    p_y = _softmax(y)
    m = z.max(axis=1, keepdims=True)
    # math.log, not np.log: their last bits differ on a few inputs, and
    # trained outputs are pinned to math.log's rounding
    log_sums = [[math.log(s)] for s in np.exp(z - m).sum(axis=1).tolist()]
    log_p_z = z - (m + np.array(log_sums))
    return -_exact_row_sums(p_y * log_p_z), np.exp(log_p_z) - p_y


def listnet_loss(gt_scores, pred_scores) -> LossResult:
    """Cross entropy between ground-truth and predicted top-one distributions.

    The gradient with respect to the predicted scores is the softmax
    difference ``P_pred - P_gt``.
    """
    y = as_score_vector(gt_scores)
    value, grad = _listnet(y[None], as_score_vector(pred_scores, n=y.size)[None])
    return LossResult(float(value[0]), grad[0])


def plackett_luce_log_prob(perm: Permutation, scores) -> float:
    """Log probability of ``perm`` under the Plackett-Luce model of ``scores``:
    ``sum_i (z_{y(i)} - logsumexp of the suffix from i)``, always <= 0.

    The negated :func:`listmle_loss`, the one kernel that computes it.
    """
    return -listmle_loss(perm, scores).value


# From this many rows up, a log-add-exp scan steps across the columns.  The
# two forms cost the same at about 32 rows: with 2 rows of 100 the stepped
# form is over 10 times slower, with 100 rows of 20 it is 1.7 times faster.
_STEPPED_SCAN_ROWS = 32


def _logaddexp_scan(a: np.ndarray, reverse: bool = False) -> np.ndarray:
    """``np.logaddexp.accumulate`` along each row of ``a`` (from the last
    column back when ``reverse``), stepped column by column on
    :data:`_STEPPED_SCAN_ROWS` rows or more."""
    b, m = a.shape
    if b < _STEPPED_SCAN_ROWS:
        if reverse:
            return np.logaddexp.accumulate(a[:, ::-1], axis=1)[:, ::-1]
        return np.logaddexp.accumulate(a, axis=1)
    out = np.empty((b, m))
    cols, out_cols = a.T, out.T
    steps = range(m - 1, -1, -1) if reverse else range(m)
    out_cols[steps[0]] = cols[steps[0]]
    for prev, c in zip(steps, steps[1:]):
        np.logaddexp(out_cols[prev], cols[c], out=out_cols[c])
    return out


def _weighted_nll(order: np.ndarray, weights: np.ndarray, z: np.ndarray):
    """Shared kernel: values and score-gradients of the weighted ListMLE sum
    of ``(b, n)`` rows.

    ``weights[:, i]`` scales the rank-(i+1) term; the final position's term
    is identically zero and its weight is ignored.  Each row's terms are
    summed exactly, by :func:`~depthrank.core._exact_row_sums`: the
    ``math.fsum`` bits, and ``inf`` where the exact sum overflows.
    """
    b, n = z.shape
    if n == 1:
        return np.zeros(b), np.zeros((b, 1))
    # flat indices: np.take and a flat store beat the *_along_axis wrappers
    flat = order + n * np.arange(b)[:, None]
    v = np.take(z, flat)
    lse = _logaddexp_scan(v, reverse=True)
    head_w = weights[:, : n - 1]
    # a term that overflows makes the value inf, as a sum that overflows does
    with np.errstate(over="ignore"):
        values = _exact_row_sums(head_w * (lse[:, : n - 1] - v[:, : n - 1]))
    # d/dz_k = sum_{i <= min(rank(k), n-1)} w_i * softmax_within_suffix_i(k)
    #          - w_{rank(k)} [rank(k) <= n-1].
    # The inner sum is exp(z_k + L_r) with L_r a prefix logsumexp of
    # log(w_i) - lse_i, which keeps every intermediate in a safe range.
    with np.errstate(divide="ignore"):
        log_w = np.log(head_w)
    prefix = _logaddexp_scan(log_w - lse[:, : n - 1])
    sel = np.minimum(np.arange(n), n - 2)
    grad_sorted = np.exp(v + prefix[:, sel])
    grad_sorted[:, : n - 1] -= head_w
    grad = np.empty(b * n)
    grad[flat] = grad_sorted
    return values, grad.reshape(b, n)


def listmle_loss(gt_perm: Permutation, pred_scores) -> LossResult:
    """Negative Plackett-Luce log likelihood of the ground-truth permutation."""
    z = as_score_vector(pred_scores, n=len(gt_perm))
    value, grad = _weighted_nll(gt_perm.order_array[None], np.ones((1, z.size)), z[None])
    return LossResult(float(value[0]), grad[0])


def weighted_listmle_loss(
    gt_perm: Permutation, gt_scores, pred_scores, cfg: WeightConfig = WeightConfig()
) -> LossResult:
    """ListMLE with per-position gain/discount weights from ``cfg``.

    ``gt_scores`` supplies the graded relevance fed to the gain; callers
    normally pre-normalize it to [0, 4] (see the data module) so the gain
    stays in [0, 15].
    """
    s = as_score_vector(gt_scores, n=len(gt_perm))
    z = as_score_vector(pred_scores, n=len(gt_perm))
    order = gt_perm.order_array
    weights = position_weights(cfg, s[order])
    value, grad = _weighted_nll(order[None], weights[None], z[None])
    return LossResult(float(value[0]), grad[0])
