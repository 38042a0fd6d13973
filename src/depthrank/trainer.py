"""Training targets, hand-derived backpropagation, the SGD loop and
gradient checks.

The scorers, their flat parameter vectors and their params files belong
to :mod:`depthrank.scorer`; this module trains them.  Backprop composes
the score-gradient of a loss kernel from :mod:`depthrank.losses` with the
scorer Jacobian; no autodiff is involved, so :func:`gradient_check`
(central finite differences over the full parameter vector) is the
correctness oracle.  A :class:`Target` holds one sample's kernel inputs,
and :func:`draw_target` builds every one of them: a per-epoch draw from
the stream, or the whole sample when no stream is given.

Training is plain mini-batch SGD with classic momentum, fully
deterministic given the config seed: sample order, per-epoch point/pair
subsampling, and MLP initialization all flow from one
:class:`~depthrank.rng.SplitMix64` stream.  A non-finite batch loss,
gradient or parameter vector raises :class:`TrainingDivergedError`.
Per-epoch trace metrics (WHDR and MAP on the first :data:`EVAL_SAMPLES`
training samples) come from the rank kernel of :mod:`depthrank.metrics`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import RankedSample, all_pairs
from .data import Dataset, normalize_relevance, sample_pair_arrays, sample_points
from .errors import InvalidInputError, TrainingDivergedError
from .losses import (IDENTITY_WEIGHTS, WeightConfig, _listnet, _pairwise_batch, _weighted_nll,
                     position_weights)
from .metrics import _rank_metrics, check_evaluable
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
    """Per-epoch training record; list lengths equal the epochs completed."""

    train_loss: list[float] = field(default_factory=list)
    eval_whdr: list[float] = field(default_factory=list)
    eval_map: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train_loss)


@dataclass(frozen=True)
class Target:
    """One sample's loss input: the items scored (``points``, ``None`` for the
    whole sample) and the arrays the loss kernel takes besides the scores
    (``args``): ``(i, j, r)`` pairs, ``(gt_scores,)`` for ListNet, or
    ``(order, weights)`` for both ListMLE losses, unit weights for plain ListMLE.
    """

    points: np.ndarray | None
    args: tuple


def draw_target(sample: RankedSample, cfg: TrainConfig, rng: SplitMix64 | None = None) -> Target:
    """One sample's loss input.

    With ``rng``, a per-epoch draw: ``pairs_per_sample`` pairs, or
    ``points_per_sample`` items when the sample has more.  Without it, the
    whole sample, every pair for the pairwise loss.
    """
    if cfg.loss == LOSS_PAIRWISE:
        if rng is not None:
            return Target(None, sample_pair_arrays(sample.gt_scores, cfg.pairs_per_sample, rng))
        if sample.n < 2:
            raise InvalidInputError("pairwise loss needs samples with >= 2 items")
        return Target(None, all_pairs(sample.gt_scores))
    points = None
    gt = sample.gt_scores
    if rng is not None and cfg.points_per_sample < sample.n:
        points = sample_points(sample, cfg.points_per_sample, rng)
        gt = gt[points]
    if cfg.loss == LOSS_LISTNET:
        return Target(points, (gt,))
    # permutation_from_scores' order: a stable sort ranks tied items by index.
    order = np.argsort(-gt, kind="stable")
    weights = IDENTITY_WEIGHTS if cfg.loss == LOSS_LISTMLE else cfg.weight_config
    return Target(points, (order, position_weights(weights, normalize_relevance(gt)[order])))


def backprop(
    params: ScorerParams, sample: RankedSample, cfg: TrainConfig, target: Target | None = None
):
    """Loss value and flat parameter gradient for one sample.

    ``target`` fixes the subsample (points or pairs); ``None`` evaluates
    the deterministic whole-sample target.  Kernels are looked up by name
    at each call, so a wrapper installed on one sees every call.
    """
    if target is None:
        target = draw_target(sample, cfg)
    x = sample.items if target.points is None else sample.items[target.points]
    z = score(params, x)
    if cfg.loss == LOSS_PAIRWISE:
        value, dz = _pairwise_batch(z, *target.args)
    elif cfg.loss == LOSS_LISTNET:
        value, dz = _listnet(*target.args, z)
    else:
        value, dz = _weighted_nll(*target.args, z)
    return value, _param_grad_from_scores(params, x, dz)


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
    z = np.concatenate([score(params, s.items) for s in ctx.samples])
    wrong, pairs, maps = _rank_metrics([s.gt_scores for s in ctx.samples], z)
    return wrong / pairs, math.fsum(maps.tolist()) / len(maps)


def train(dataset: Dataset, cfg: TrainConfig) -> tuple[ScorerParams, TrainTrace]:
    """Mini-batch SGD over the dataset; deterministic given ``cfg.seed``.

    Listwise losses redraw ``points_per_sample`` item subsets per sample
    per epoch (the whole sample when it is at least as large); the
    pairwise loss redraws ``pairs_per_sample`` pairs.  Batch losses are
    means over the samples of the batch.  Raises :class:`InvalidInputError`
    before training when a sample has one item, which trace eval cannot
    score, and :class:`TrainingDivergedError` (carrying the partial trace and
    last finite params) when a loss, gradient or parameter vector goes non-finite.
    """
    if len(dataset) < 1:
        raise InvalidInputError("dataset must not be empty")
    check_evaluable(dataset.samples)
    rng = SplitMix64(cfg.seed)
    params = init_params(cfg.scorer, dataset.feature_dim, cfg.hidden_size, rng)
    vec = params_to_vector(params)
    velocity = np.zeros_like(vec)
    m = len(dataset)
    # Static listwise targets when the subset is the whole sample anyway.
    static_targets = None
    if cfg.loss != LOSS_PAIRWISE and cfg.points_per_sample >= max(s.n for s in dataset.samples):
        static_targets = [draw_target(s, cfg) for s in dataset.samples]
    eval_ctx = _make_eval_context(dataset.samples[:EVAL_SAMPLES])
    trace = TrainTrace()
    try:
        # divergence is caught by the finiteness checks, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for _epoch in range(cfg.epochs):
                t0 = time.perf_counter()
                order = rng.permutation(m)
                epoch_loss = 0.0
                for start in range(0, m, cfg.batch):
                    batch = order[start : start + cfg.batch]
                    total_val = 0.0
                    grad_acc = np.zeros_like(vec)
                    for s_idx in batch:
                        s = dataset.samples[int(s_idx)]
                        if static_targets is not None:
                            target = static_targets[int(s_idx)]
                        else:
                            target = draw_target(s, cfg, rng)
                        value, grad = backprop(params, s, cfg, target)
                        total_val += value
                        grad_acc += grad
                    if not math.isfinite(total_val):
                        raise TrainingDivergedError("non-finite training loss")
                    vec, velocity = sgd_step(
                        vec, grad_acc / batch.size, cfg.learning_rate, cfg.momentum, velocity
                    )
                    params = vector_to_params(vec, params)
                    epoch_loss += total_val
                whdr_val, map_val = _trace_eval(params, eval_ctx)
                trace.train_loss.append(epoch_loss / m)
                trace.eval_whdr.append(whdr_val)
                trace.eval_map.append(map_val)
                trace.epoch_seconds.append(time.perf_counter() - t0)
    except TrainingDivergedError as exc:
        # params are the last finite ones: sgd_step rejects a non-finite update
        exc.trace = trace
        exc.params = params
        raise
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


def loss_config(loss: str, weight_config: WeightConfig | None = None, scorer: str = SCORER_LINEAR,
                hidden_size: int = 8) -> TrainConfig:
    """Minimal config for one-off backprop/gradient-check calls."""
    return TrainConfig(
        loss=loss,
        learning_rate=1e-3,
        epochs=1,
        seed=0,
        weight_config=weight_config or WeightConfig(),
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
