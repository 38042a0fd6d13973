"""Trainable scorers, hand-derived backpropagation, and the SGD loop.

Scorers map item feature vectors to ranking scores: either a linear model
``w . x + b`` or a one-hidden-layer tanh network.  Backprop composes the
score-gradient of a loss kernel from :mod:`depthrank.losses` with the
scorer Jacobian; no autodiff is involved, so :func:`gradient_check`
(central finite differences over the full parameter vector) is the
correctness oracle.  A :class:`Target` holds one sample's kernel inputs.

Training is plain mini-batch SGD with classic momentum, fully
deterministic given the config seed: sample order, per-epoch point/pair
subsampling, and MLP initialization all flow from one
:class:`~depthrank.rng.SplitMix64` stream.  A non-finite batch loss,
gradient or parameter vector raises :class:`TrainingDivergedError`.

Params file format (``depthrank.params.v1``) — line-delimited text with
the hex-float encoding and header reader of :mod:`depthrank.data`,
bit-exact on round-trip:

    depthrank.params.v1 family=linear dim=<d>
    w <d hex-floats>
    b <hex-float>
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import RankedSample, all_pairs, permutation_from_scores
from .data import (
    Dataset,
    _hex_list,
    _parse_floats,
    _read_text,
    _write_lines,
    normalize_relevance,
    sample_pair_arrays,
    sample_points,
)
from .errors import DatasetFormatError, InvalidInputError, TrainingDivergedError
from .losses import WeightConfig, _listnet, _pairwise_batch, _weighted_nll, position_weights
from .metrics import _GroundTruth, _ground_truth_of, _rank_metrics
from .rng import SplitMix64

PARAMS_FORMAT = "depthrank.params.v1"

LOSS_PAIRWISE = "pairwise"
LOSS_LISTNET = "listnet"
LOSS_LISTMLE = "listmle"
LOSS_WEIGHTED_LISTMLE = "weighted-listmle"
LOSS_KINDS = (LOSS_PAIRWISE, LOSS_LISTNET, LOSS_LISTMLE, LOSS_WEIGHTED_LISTMLE)

SCORER_LINEAR = "linear"
SCORER_MLP = "mlp"
SCORER_FAMILIES = (SCORER_LINEAR, SCORER_MLP)

# Trace metrics are computed on the first this many training samples.
EVAL_SAMPLES = 100


def _frozen(arr) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LinearScorer:
    """Scores are ``x . w + b`` per item."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        w = _frozen(self.w)
        if w.ndim != 1 or not np.isfinite(w).all() or not math.isfinite(self.b):
            raise InvalidInputError("linear scorer parameters must be finite 1-D w and scalar b")
        object.__setattr__(self, "w", w)

    family = SCORER_LINEAR

    @property
    def dim(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class MlpScorer:
    """One tanh hidden layer: ``tanh(x W_h^T + b_h) . w_o + b_o``."""

    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: float

    def __post_init__(self):
        w_hidden = _frozen(self.w_hidden)
        b_hidden = _frozen(self.b_hidden)
        w_out = _frozen(self.w_out)
        h = w_out.size
        if (
            w_hidden.ndim != 2
            or w_hidden.shape[0] != h
            or b_hidden.shape != (h,)
            or w_out.ndim != 1
            or h < 1
        ):
            raise InvalidInputError("mlp scorer parameter shapes are inconsistent")
        if not (
            np.isfinite(w_hidden).all()
            and np.isfinite(b_hidden).all()
            and np.isfinite(w_out).all()
            and math.isfinite(self.b_out)
        ):
            raise InvalidInputError("mlp scorer parameters must be finite")
        object.__setattr__(self, "w_hidden", w_hidden)
        object.__setattr__(self, "b_hidden", b_hidden)
        object.__setattr__(self, "w_out", w_out)

    family = SCORER_MLP

    @property
    def dim(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def hidden(self) -> int:
        return self.w_hidden.shape[0]


ScorerParams = LinearScorer | MlpScorer


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


def score(params: ScorerParams, features) -> np.ndarray:
    """Per-item ranking scores for an (n, d) feature matrix."""
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise InvalidInputError(
            f"features must be (n, {params.dim}), got shape {x.shape}"
        )
    if isinstance(params, LinearScorer):
        return x @ params.w + params.b
    hidden = np.tanh(x @ params.w_hidden.T + params.b_hidden)
    return hidden @ params.w_out + params.b_out


def init_params(family: str, dim: int, hidden_size: int, rng: SplitMix64) -> ScorerParams:
    """Zero-initialized linear scorer, or an MLP with symmetric uniform
    weights scaled by 1/sqrt(fan-in) and zero biases."""
    if family == SCORER_LINEAR:
        return LinearScorer(w=np.zeros(dim), b=0.0)
    h = hidden_size
    w_hidden = (2.0 * rng.uniforms(h * dim) - 1.0).reshape(h, dim) / math.sqrt(dim)
    w_out = (2.0 * rng.uniforms(h) - 1.0) / math.sqrt(h)
    return MlpScorer(w_hidden=w_hidden, b_hidden=np.zeros(h), w_out=w_out, b_out=0.0)


def params_to_vector(params: ScorerParams) -> np.ndarray:
    if isinstance(params, LinearScorer):
        return np.concatenate([params.w, [params.b]])
    return np.concatenate(
        [params.w_hidden.ravel(), params.b_hidden, params.w_out, [params.b_out]]
    )


def vector_to_params(vec: np.ndarray, template: ScorerParams) -> ScorerParams:
    vec = np.asarray(vec, dtype=np.float64)
    if isinstance(template, LinearScorer):
        d = template.dim
        if vec.size != d + 1:
            raise InvalidInputError(f"expected {d + 1} parameters, got {vec.size}")
        return LinearScorer(w=vec[:d].copy(), b=float(vec[d]))
    h, d = template.hidden, template.dim
    if vec.size != h * d + 2 * h + 1:
        raise InvalidInputError(f"expected {h * d + 2 * h + 1} parameters, got {vec.size}")
    k = h * d
    return MlpScorer(
        w_hidden=vec[:k].reshape(h, d).copy(),
        b_hidden=vec[k : k + h].copy(),
        w_out=vec[k + h : k + 2 * h].copy(),
        b_out=float(vec[k + 2 * h]),
    )


def _param_grad_from_scores(params: ScorerParams, x: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Chain rule: flat parameter gradient J^T dz for the scorer Jacobian J."""
    if isinstance(params, LinearScorer):
        return np.concatenate([x.T @ dz, [dz.sum()]])
    pre = x @ params.w_hidden.T + params.b_hidden
    hidden = np.tanh(pre)
    d_hidden = dz[:, None] * params.w_out[None, :]
    d_pre = d_hidden * (1.0 - hidden * hidden)
    return np.concatenate(
        [(d_pre.T @ x).ravel(), d_pre.sum(axis=0), hidden.T @ dz, [dz.sum()]]
    )


@dataclass(frozen=True)
class Target:
    """One sample's loss input: the items scored (``points``, ``None`` for the
    whole sample) and the arrays the loss kernel takes besides the scores
    (``args``): ``(i, j, r)`` pairs, ``(gt_scores,)`` for ListNet, or
    ``(order, weights)`` for both ListMLE losses, unit weights for plain ListMLE.
    """

    points: np.ndarray | None
    args: tuple


def make_listwise_target(
    sample: RankedSample, cfg: TrainConfig, points: np.ndarray | None
) -> Target:
    gt_sub = sample.gt_scores if points is None else sample.gt_scores[points]
    if cfg.loss == LOSS_LISTNET:
        return Target(points, (gt_sub,))
    order = (sample.gt_perm if points is None else permutation_from_scores(gt_sub)).order_array
    if cfg.loss == LOSS_LISTMLE:
        return Target(points, (order, np.ones(order.size)))
    relevance = normalize_relevance(gt_sub)
    return Target(points, (order, position_weights(cfg.weight_config, relevance[order])))


def make_full_target(sample: RankedSample, cfg: TrainConfig) -> Target:
    """Deterministic whole-sample target (used by gradient checks)."""
    if cfg.loss == LOSS_PAIRWISE:
        if sample.n < 2:
            raise InvalidInputError("pairwise loss needs samples with >= 2 items")
        return Target(None, all_pairs(sample.gt_scores))
    return make_listwise_target(sample, cfg, None)


def draw_target(sample: RankedSample, cfg: TrainConfig, rng: SplitMix64) -> Target:
    """Per-epoch stochastic target: point subset or pair sample."""
    if cfg.loss == LOSS_PAIRWISE:
        return Target(None, sample_pair_arrays(sample.gt_scores, cfg.pairs_per_sample, rng))
    k = min(cfg.points_per_sample, sample.n)
    return make_listwise_target(sample, cfg, sample_points(sample, k, rng))


def backprop(
    params: ScorerParams, sample: RankedSample, cfg: TrainConfig, target: Target | None = None
):
    """Loss value and flat parameter gradient for one sample.

    ``target`` fixes the subsample (points or pairs); ``None`` evaluates
    the deterministic whole-sample target.  Kernels are looked up by name
    at each call, so a wrapper installed on one sees every call.
    """
    if target is None:
        target = make_full_target(sample, cfg)
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
    new_velocity = momentum * velocity - learning_rate * grad
    new_vec = vec + new_velocity
    if not np.isfinite(new_vec).all():
        raise TrainingDivergedError("non-finite parameters after SGD step")
    return new_vec, new_velocity


@dataclass(frozen=True)
class _EvalContext:
    """Trace-metric samples with the ground-truth side of the metric kernel."""

    samples: tuple[RankedSample, ...]
    gt: _GroundTruth
    # Always empty: perfbench's tracer reports the summed nbytes of these.
    pair_i: tuple[np.ndarray, ...] = ()
    pair_j: tuple[np.ndarray, ...] = ()
    pair_r: tuple[np.ndarray, ...] = ()


def _make_eval_context(samples: Sequence[RankedSample]) -> _EvalContext:
    return _EvalContext(tuple(samples), _ground_truth_of([s.gt_scores for s in samples]))


def _trace_eval(params: ScorerParams, ctx: _EvalContext) -> tuple[float, float]:
    z = np.concatenate([score(params, s.items) for s in ctx.samples])
    wrong, maps = _rank_metrics(ctx.gt, z)
    return wrong / ctx.gt.pairs, math.fsum(maps.tolist()) / len(maps)


def train(dataset: Dataset, cfg: TrainConfig) -> tuple[ScorerParams, TrainTrace]:
    """Mini-batch SGD over the dataset; deterministic given ``cfg.seed``.

    Listwise losses redraw ``points_per_sample`` item subsets per sample
    per epoch (the whole sample when it is at least as large); the
    pairwise loss redraws ``pairs_per_sample`` pairs.  Batch losses are
    means over the samples of the batch.  Raises
    :class:`TrainingDivergedError` (carrying the partial trace and last
    finite params) when a loss, gradient or parameter vector goes non-finite.
    """
    if len(dataset) < 1:
        raise InvalidInputError("dataset must not be empty")
    if cfg.loss == LOSS_PAIRWISE and any(s.n < 2 for s in dataset.samples):
        raise InvalidInputError("pairwise training needs every sample to have >= 2 items")
    rng = SplitMix64(cfg.seed)
    params = init_params(cfg.scorer, dataset.feature_dim, cfg.hidden_size, rng)
    vec = params_to_vector(params)
    velocity = np.zeros_like(vec)
    m = len(dataset)
    # Static listwise targets when the subset is the whole sample anyway.
    static_targets = None
    if cfg.loss != LOSS_PAIRWISE and cfg.points_per_sample >= max(s.n for s in dataset.samples):
        static_targets = [make_listwise_target(s, cfg, None) for s in dataset.samples]
    eval_ctx = _make_eval_context(dataset.samples[:EVAL_SAMPLES])
    trace = TrainTrace()
    try:
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
    reproducible; linear cases default to 1e-5 tolerance and MLP cases to
    1e-4 (the deeper chain loses one digit to cancellation).
    """
    tolerances = tolerances or {}
    rng = SplitMix64(seed)
    rows = []
    for family in SCORER_FAMILIES:
        for loss in LOSS_KINDS:
            tol = tolerances.get(family, 1e-5 if family == SCORER_LINEAR else 1e-4)
            worst = 0.0
            for _ in range(instances):
                n = 2 + rng.below(max_items - 1)
                d = 2 + rng.below(5)
                feats = rng.normals(n * d).reshape(n, d)
                gt = 3.0 * rng.normals(n)
                sample = RankedSample(id="g", items=feats, gt_scores=gt)
                cfg = loss_config(loss, scorer=family)
                if family == SCORER_LINEAR:
                    params = LinearScorer(w=rng.normals(d), b=float(rng.normals(1)[0]))
                else:
                    h = cfg.hidden_size
                    params = MlpScorer(
                        w_hidden=rng.normals(h * d).reshape(h, d) / math.sqrt(d),
                        b_hidden=0.3 * rng.normals(h),
                        w_out=rng.normals(h) / math.sqrt(h),
                        b_out=float(rng.normals(1)[0]),
                    )
                x0 = params_to_vector(params)
                _, analytic = backprop(params, sample, cfg)

                def fn(v, sample=sample, cfg=cfg, params=params):
                    return backprop(vector_to_params(v, params), sample, cfg)[0]

                worst = max(worst, gradient_check(fn, analytic, x0))
            rows.append((f"{loss}/{family}", worst, tol))
    return rows


def write_params(params: ScorerParams, path) -> None:
    if isinstance(params, LinearScorer):
        header = f"{PARAMS_FORMAT} family={SCORER_LINEAR} dim={params.dim}"
        records = [("w", params.w), ("b", params.b)]
    else:
        header = f"{PARAMS_FORMAT} family={SCORER_MLP} dim={params.dim} hidden={params.hidden}"
        records = [("w_hidden", params.w_hidden), ("b_hidden", params.b_hidden),
                   ("w_out", params.w_out), ("b_out", params.b_out)]
    _write_lines(path, [header] + [
        " ".join([name, *_hex_list(np.atleast_1d(value))]) for name, value in records
    ])


def _read_vector(lines: list[str], idx: int, name: str, count: int) -> np.ndarray:
    if idx >= len(lines):
        raise DatasetFormatError(f"missing {name!r} record", line=idx + 1)
    tokens = lines[idx].split(" ")
    if tokens[0] != name or len(tokens) != count + 1:
        raise DatasetFormatError(
            f"expected {name!r} with {count} values, got {tokens[0]!r} with {len(tokens) - 1}",
            line=idx + 1,
        )
    return _parse_floats(tokens[1:], idx + 1)


def _params_header(fields: dict):
    family = fields["family"]
    dim = int(fields["dim"])
    return family, dim, int(fields["hidden"]) if family == SCORER_MLP else 0


def read_params(path) -> ScorerParams:
    lines, (family, dim, hidden) = _read_text(path, PARAMS_FORMAT, _params_header)
    if family == SCORER_LINEAR:
        w = _read_vector(lines, 1, "w", dim)
        b = _read_vector(lines, 2, "b", 1)
        return LinearScorer(w=w, b=float(b[0]))
    if family == SCORER_MLP:
        w_hidden = _read_vector(lines, 1, "w_hidden", hidden * dim).reshape(hidden, dim)
        b_hidden = _read_vector(lines, 2, "b_hidden", hidden)
        w_out = _read_vector(lines, 3, "w_out", hidden)
        b_out = _read_vector(lines, 4, "b_out", 1)
        return MlpScorer(w_hidden=w_hidden, b_hidden=b_hidden, w_out=w_out, b_out=float(b_out[0]))
    raise DatasetFormatError(f"unknown scorer family {family!r}", line=1)
