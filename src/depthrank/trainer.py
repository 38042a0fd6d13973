"""Training targets, hand-derived backpropagation, the SGD loop and
gradient checks.

The scorers, their flat parameter vectors and their params files belong
to :mod:`depthrank.scorer`; this module trains them.  Backprop composes
the score-gradient of a loss kernel from :mod:`depthrank.losses` with the
scorer Jacobian, a whole mini-batch per call (:func:`backprop_batch`, of
which :func:`backprop` is the one-sample call).  No autodiff is involved,
so :func:`gradient_check` (central finite differences over the full
parameter vector) is the correctness oracle.  A list is one tuple ``(x,
*kernel args)``, the features it scores and the loss kernel's other
inputs, and :func:`draw_batch` builds them, a mini-batch or a whole run
pool at a time: a per-epoch draw from the stream, or the whole sample when
no stream is given.  It groups the lists by length and stacks each
column of a group once.  Each sample draws its pairs or points in sample
order, so every list and the stream state equal those of one
:func:`draw_target` (its one-sample call) per sample; ranks, relevance
and weights are one vectorised pass per group.

Training is plain mini-batch SGD with classic momentum, fully
deterministic given the config seed: sample order, per-epoch point/pair
subsampling, and MLP initialization all flow from one
:class:`~depthrank.rng.SplitMix64` stream.  A non-finite batch loss,
gradient or parameter vector raises :class:`TrainingDivergedError`; a
non-finite loss or gradient also names the first sample of the batch
whose own value or gradient is non-finite.
The trace keeps each epoch's mean loss and seconds.  Its metrics (WHDR
and MAP on the first :data:`EVAL_SAMPLES` training samples, by the
row-local rank kernel that ``evaluate`` uses, with its bits) are computed
once per run, on the params of the last completed epoch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import RankedSample, all_pairs
from .data import Dataset, _relevance_rows, sample_pair_arrays, sample_points
from .errors import InvalidInputError, TrainingDivergedError
from .losses import (IDENTITY_WEIGHTS, WeightConfig, _listnet, _pairwise_batch, _weighted_nll,
                     position_weights)
from .metrics import _rank_metrics_by_length, _same_size, check_evaluable
from .rng import SplitMix64
from .scorer import (SCORER_FAMILIES, SCORER_LINEAR, SCORER_MLP, ScorerParams,
                     _param_grad_from_scores, init_params, params_to_vector, random_params,
                     score, vector_to_params)
# Unused here: perfbench's tracer, runner and checks resolve these as trainer names.
from .scorer import LinearScorer, MlpScorer, read_params, write_params  # noqa: F401

LOSS_PAIRWISE = "pairwise"
LOSS_LISTNET = "listnet"
LOSS_LISTMLE = "listmle"
LOSS_WEIGHTED_LISTMLE = "weighted-listmle"
LOSS_KINDS = (LOSS_PAIRWISE, LOSS_LISTNET, LOSS_LISTMLE, LOSS_WEIGHTED_LISTMLE)

# Trace metrics are computed on the first this many training samples.
EVAL_SAMPLES = 100

# The MLP's deeper chain loses one digit to cancellation.
GRADCHECK_TOLERANCES = {SCORER_LINEAR: 1e-5, SCORER_MLP: 1e-4}


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs; all randomness flows from ``seed``."""

    loss: str
    learning_rate: float
    epochs: int
    seed: int
    momentum: float = 0.9
    batch: int = 32
    points_per_sample: int = 500
    pairs_per_sample: int = 3000
    weight_config: WeightConfig = field(default_factory=WeightConfig)
    scorer: str = SCORER_LINEAR
    hidden_size: int = 16

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise InvalidInputError(f"unknown loss {self.loss!r}; expected one of {LOSS_KINDS}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise InvalidInputError(f"learning_rate must be > 0: {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise InvalidInputError(f"momentum must lie in [0, 1): {self.momentum}")
        for name in ("epochs", "batch", "points_per_sample", "pairs_per_sample"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1: {getattr(self, name)}")
        if self.scorer not in SCORER_FAMILIES:
            raise InvalidInputError(
                f"unknown scorer {self.scorer!r}; expected one of {SCORER_FAMILIES}"
            )
        if self.hidden_size < 1:
            raise InvalidInputError(f"hidden_size must be >= 1: {self.hidden_size}")
        if not (0 <= self.seed < 2**64):
            raise InvalidInputError(f"seed must be in [0, 2^64): {self.seed}")


@dataclass
class TrainTrace:
    """Training record.  ``train_loss`` and ``epoch_seconds`` hold one entry
    per completed epoch; an epoch's seconds do not include trace eval.
    ``final_eval_whdr`` and ``final_eval_map`` score the params of the last
    completed epoch, and are ``None`` until an epoch completes."""

    train_loss: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    final_eval_whdr: float | None = None
    final_eval_map: float | None = None

    def __len__(self) -> int:
        return len(self.train_loss)


def draw_target(sample: RankedSample, cfg: TrainConfig, rng: SplitMix64 | None = None) -> tuple:
    """One sample's list: ``(x, *args)``, the ``(n, d)`` features it scores
    and the arrays the loss kernel takes besides the scores: ``(i, j, r)``
    pairs, ``(gt_scores,)`` for ListNet, or ``(order, weights)`` for both
    ListMLE losses, unit weights for plain ListMLE.  The one-sample call
    of :func:`draw_batch`.

    With ``rng``, a per-epoch draw: ``pairs_per_sample`` pairs, or
    ``points_per_sample`` items when the sample has more.  Without it, the
    whole sample, every pair for the pairwise loss.
    """
    ((_, cols),) = draw_batch([sample], cfg, rng)
    return tuple(col[0] for col in cols)


def _stack(arrays) -> np.ndarray:
    """Equal-shape arrays stacked along a new first axis."""
    return np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)


def draw_batch(samples: Sequence[RankedSample], cfg: TrainConfig,
               rng: SplitMix64 | None = None) -> list[tuple[np.ndarray, tuple]]:
    """The :func:`draw_target` lists of ``samples``, in groups of one list
    length: ``(members, (x, *args))`` per group, shortest lists first,
    ``members`` the ascending positions in ``samples`` of its lists and
    each column stacked over them with a leading axis.

    With ``rng``, each sample draws its pairs or points in order, so the
    stream and every list are those of one :func:`draw_target` call per
    sample.  Each listwise group then takes one gather per list and one
    vectorised pass for its ranks and weights: a stable argsort per row,
    :func:`_relevance_rows` and :func:`position_weights` on (g, n) rows,
    bit for bit what one list gets alone.
    """
    ns = [s.n for s in samples]
    if cfg.loss == LOSS_PAIRWISE:
        if rng is not None:
            pairs = [sample_pair_arrays(s.gt_scores, cfg.pairs_per_sample, rng) for s in samples]
        elif min(ns) < 2:
            raise InvalidInputError("pairwise loss needs samples with >= 2 items")
        else:
            pairs = [all_pairs(s.gt_scores) for s in samples]
        return [(members, (_stack([samples[p].items for p in members]),
                           *(_stack(col) for col in zip(*(pairs[p] for p in members)))))
                for members in _same_size(ns)]
    k = cfg.points_per_sample
    points = {}
    if rng is not None:
        points = {p: sample_points(s, k, rng) for p, s in enumerate(samples) if s.n > k}

    def pick(p, a):
        return a[points[p]] if p in points else a

    groups = []
    for members in _same_size([k if p in points else n for p, n in enumerate(ns)]):
        x = _stack([pick(p, samples[p].items) for p in members])
        gt = _stack([pick(p, samples[p].gt_scores) for p in members])
        if cfg.loss == LOSS_LISTNET:
            groups.append((members, (x, gt)))
            continue
        # permutation_from_scores' order: a stable sort ranks tied items by index.
        order = np.argsort(-gt, axis=1, kind="stable")
        weights = IDENTITY_WEIGHTS if cfg.loss == LOSS_LISTMLE else cfg.weight_config
        relevance = np.take_along_axis(_relevance_rows(gt), order, axis=1)
        groups.append((members, (x, order, position_weights(weights, relevance))))
    return groups


class _ListPool:
    """Lists in :func:`draw_batch`'s groups of one list length, every column
    of a group, features included, stacked once."""

    def __init__(self, groups: Sequence[tuple[np.ndarray, tuple]]):
        self.stacked = [cols for _, cols in groups]
        size = sum(len(members) for members, _ in groups)
        self.group_of = np.empty(size, dtype=np.intp)
        self.index_in_group = np.empty(size, dtype=np.intp)
        for g, (members, _) in enumerate(groups):
            self.group_of[members] = g
            self.index_in_group[members] = np.arange(len(members))

    def take(self, batch: np.ndarray):
        """``(rows, (x, *args))`` per group of the lists ``batch`` (pool
        positions): their positions in ``batch`` and their stacked list
        columns, (g, n, d) features first, each with a leading axis of g."""
        group_of = self.group_of[batch]
        for g in np.unique(group_of).tolist():
            rows = np.flatnonzero(group_of == g)
            idx = self.index_in_group[batch[rows]]
            cols = self.stacked[g]
            # A pool of just the batch's lists is taken whole and in order:
            # its stacked columns serve as they are, with no second copy.
            if idx.size < len(cols[0]) or (idx[1:] < idx[:-1]).any():
                cols = tuple(a[idx] for a in cols)
            yield rows, cols


def _backprop_rows(params: ScorerParams, cfg: TrainConfig, pool: _ListPool, batch: np.ndarray):
    """Loss value and flat parameter gradient of each list ``batch``
    (positions in ``pool``): a length-b value array and (b, P) gradient
    rows, in batch order.

    Each group of the batch makes one forward pass, one loss-kernel call
    and one Jacobian call.  Kernels are looked up by name at each call, so
    a wrapper installed on one sees every call.
    """
    values = np.empty(batch.size)
    grads = None
    for rows, (x, *args) in pool.take(batch):
        z = score(params, x)
        if cfg.loss == LOSS_PAIRWISE:
            values[rows], dz = _pairwise_batch(z, *args)
        elif cfg.loss == LOSS_LISTNET:
            values[rows], dz = _listnet(*args, z)
        else:
            values[rows], dz = _weighted_nll(*args, z)
        g = _param_grad_from_scores(params, x, dz)
        if grads is None:
            grads = np.empty((batch.size, g.shape[1]))
        grads[rows] = g
    return values, grads


def backprop_batch(params: ScorerParams, cfg: TrainConfig, pool: _ListPool, batch: np.ndarray):
    """Summed loss value and summed flat parameter gradient of the lists
    ``batch`` (positions in ``pool``), in batch order.

    The per-list gradients of :func:`_backprop_rows` are reduced in batch
    order and the loss is the in-order sum of the per-list values, so both
    are bit-identical to summing one :func:`backprop` per list.
    """
    values, grads = _backprop_rows(params, cfg, pool, batch)
    total = 0.0
    for value in values.tolist():
        total += value
    # Row by row from 0.0, as repeated += would: every scorer has >= 2
    # parameters, so the reduced axis is never the contiguous one.
    return total, np.add.reduce(grads, axis=0, initial=0.0)


def backprop(
    params: ScorerParams, sample: RankedSample, cfg: TrainConfig, target: tuple | None = None
):
    """Loss value and flat parameter gradient for one sample: the one-list
    call of :func:`backprop_batch`.

    ``target`` (a :func:`draw_target` list) fixes the subsample (points or
    pairs); ``None`` evaluates the deterministic whole-sample list.
    """
    if target is None:
        target = draw_target(sample, cfg)
    one = np.zeros(1, dtype=np.intp)
    return backprop_batch(params, cfg, _ListPool([(one, tuple(c[None] for c in target))]), one)


def sgd_step(
    vec: np.ndarray,
    grad: np.ndarray,
    learning_rate: float,
    momentum: float,
    velocity: np.ndarray,
):
    """Classic momentum update: v <- mu v - eta g; theta <- theta + v.

    A non-finite gradient or updated vector raises :class:`TrainingDivergedError`.
    """
    if vec.shape != grad.shape or vec.shape != velocity.shape:
        raise InvalidInputError("parameter, gradient, and velocity shapes must match")
    if not np.isfinite(grad).all():
        raise TrainingDivergedError("non-finite gradient in SGD step")
    # an overflowing update is reported below, not as a numpy warning
    with np.errstate(over="ignore"):
        new_velocity = momentum * velocity - learning_rate * grad
        new_vec = vec + new_velocity
    if not np.isfinite(new_vec).all():
        raise TrainingDivergedError("non-finite parameters after SGD step")
    return new_vec, new_velocity


@dataclass(frozen=True)
class _EvalContext:
    """The samples trace metrics are computed on."""

    samples: tuple[RankedSample, ...]
    # Always empty: perfbench's tracer reports the summed nbytes of these.
    pair_i: tuple[np.ndarray, ...] = ()
    pair_j: tuple[np.ndarray, ...] = ()
    pair_r: tuple[np.ndarray, ...] = ()


def _make_eval_context(samples: Sequence[RankedSample]) -> _EvalContext:
    return _EvalContext(tuple(samples))


def _trace_eval(params: ScorerParams, ctx: _EvalContext) -> tuple[float, float]:
    wrong, pairs, maps = _rank_metrics_by_length([s.gt_scores for s in ctx.samples],
                                                 [score(params, s.items) for s in ctx.samples])
    return wrong / pairs, math.fsum(maps.tolist()) / len(maps)


def train(dataset: Dataset, cfg: TrainConfig) -> tuple[ScorerParams, TrainTrace]:
    """Mini-batch SGD over the dataset; deterministic given ``cfg.seed``.

    Listwise losses redraw ``points_per_sample`` item subsets per sample
    per epoch (the whole sample when it is at least as large); the
    pairwise loss redraws ``pairs_per_sample`` pairs.  Batch losses are
    means over the samples of the batch; each batch is one batched step,
    as :func:`backprop_batch` computes it.  Trace eval runs once, on the
    params of the last completed epoch.  Raises :class:`InvalidInputError`
    before training when a sample has one item, which trace eval cannot
    score, and :class:`TrainingDivergedError` (carrying the partial trace, the
    last finite params and the 1-based epoch and batch) when a loss, gradient
    or parameter vector goes non-finite.
    """
    if len(dataset) < 1:
        raise InvalidInputError("dataset must not be empty")
    check_evaluable(dataset.samples)
    rng = SplitMix64(cfg.seed)
    params = init_params(cfg.scorer, dataset.feature_dim, cfg.hidden_size, rng)
    vec = params_to_vector(params)
    velocity = np.zeros_like(vec)
    m = len(dataset)
    # One pool for the run when every listwise target is the whole sample.
    pool = None
    if cfg.loss != LOSS_PAIRWISE and cfg.points_per_sample >= max(s.n for s in dataset.samples):
        pool = _ListPool(draw_batch(dataset.samples, cfg))
    eval_ctx = _make_eval_context(dataset.samples[:EVAL_SAMPLES])
    trace = TrainTrace()
    epoch_params = diverged = sample_id = None
    # divergence is caught by the finiteness checks, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for _epoch in range(cfg.epochs):
                t0 = time.perf_counter()
                order = rng.permutation(m)
                epoch_loss = 0.0
                for batch_no, start in enumerate(range(0, m, cfg.batch), start=1):
                    batch = order[start : start + cfg.batch]
                    step_pool, rows = pool, batch
                    if pool is None:
                        # every draw of the batch, in batch order, before any compute
                        step_pool = _ListPool(draw_batch(
                            [dataset.samples[k] for k in batch.tolist()], cfg, rng))
                        rows = np.arange(batch.size)
                    total_val, grad_sum = backprop_batch(params, cfg, step_pool, rows)
                    if not math.isfinite(total_val):
                        raise TrainingDivergedError("non-finite training loss")
                    vec, velocity = sgd_step(
                        vec, grad_sum / batch.size, cfg.learning_rate, cfg.momentum, velocity
                    )
                    params = vector_to_params(vec, params)
                    epoch_loss += total_val
                trace.train_loss.append(epoch_loss / m)
                trace.epoch_seconds.append(time.perf_counter() - t0)
                # a step builds new params and never mutates these
                epoch_params = params
        except TrainingDivergedError as exc:
            diverged = exc
            # Name the first list of the batch whose value or gradient is
            # non-finite.  A non-finite step has none: its sums were finite.
            values, grads = _backprop_rows(params, cfg, step_pool, rows)
            bad = np.flatnonzero(~(np.isfinite(values) & np.isfinite(grads).all(axis=1)))
            if bad.size:
                sample_id = dataset.samples[batch[bad[0]]].id
        if epoch_params is not None:
            trace.final_eval_whdr, trace.final_eval_map = _trace_eval(epoch_params, eval_ctx)
    if diverged is not None:
        # the epoch under way is the one after those the trace completed
        located = TrainingDivergedError(str(diverged), epoch=len(trace) + 1, batch=batch_no,
                                        sample=sample_id)
        # params are the last finite ones: sgd_step rejects a non-finite update
        located.trace = trace
        located.params = params
        raise located from diverged
    return params, trace


def gradient_check(
    fn: Callable[[np.ndarray], float],
    analytic_grad: np.ndarray,
    x0: np.ndarray,
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The relative error per coordinate uses ``max(1, |analytic|)`` as the
    denominator, so tiny coordinates are compared absolutely.
    """
    if h <= 0:
        raise InvalidInputError(f"h must be > 0: {h}")
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    worst = 0.0
    for idx in range(x0.size):
        step = np.zeros_like(x0)
        step[idx] = h
        numeric = (fn(x0 + step) - fn(x0 - step)) / (2.0 * h)
        rel = abs(numeric - analytic[idx]) / max(1.0, abs(analytic[idx]))
        worst = max(worst, rel)
    return worst


def loss_config(loss: str, scorer: str = SCORER_LINEAR, hidden_size: int = 8) -> TrainConfig:
    """Minimal config for one-off backprop/gradient-check calls."""
    return TrainConfig(
        loss=loss,
        learning_rate=1e-3,
        epochs=1,
        seed=0,
        scorer=scorer,
        hidden_size=hidden_size,
    )


def gradcheck_cases(
    seed: int = 0,
    instances: int = 10,
    max_items: int = 12,
    tolerances: dict[str, float] | None = None,
) -> list[tuple[str, float, float]]:
    """(case name, max relative error, tolerance) for every loss x scorer.

    Random instances are drawn from a fixed stream, so the default run is
    reproducible; ``tolerances`` overrides :data:`GRADCHECK_TOLERANCES` by
    scorer family.
    """
    tolerances = {**GRADCHECK_TOLERANCES, **(tolerances or {})}
    rng = SplitMix64(seed)
    rows = []
    for family in SCORER_FAMILIES:
        for loss in LOSS_KINDS:
            tol = tolerances[family]
            worst = 0.0
            for _ in range(instances):
                n = 2 + rng.below(max_items - 1)
                d = 2 + rng.below(5)
                feats = rng.normals(n * d).reshape(n, d)
                gt = 3.0 * rng.normals(n)
                sample = RankedSample(id="g", items=feats, gt_scores=gt)
                cfg = loss_config(loss, scorer=family)
                params = random_params(family, d, cfg.hidden_size, rng)
                x0 = params_to_vector(params)
                _, analytic = backprop(params, sample, cfg)

                def fn(v, sample=sample, cfg=cfg, params=params):
                    return backprop(vector_to_params(v, params), sample, cfg)[0]

                worst = max(worst, gradient_check(fn, analytic, x0))
            rows.append((f"{loss}/{family}", worst, tol))
    return rows
