import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrank.core import RankedSample, all_pairs, permutation_from_scores
from depthrank.data import (Dataset, SyntheticSpec, generate_synthetic, normalize_relevance,
                            sample_points)
from depthrank.errors import InvalidInputError, TrainingDivergedError
from depthrank.losses import IDENTITY_WEIGHTS, listnet_loss, pairwise_loss, position_weights
from depthrank.metrics import _KERNEL_ITEMS, _same_size, evaluate
from depthrank.rng import SplitMix64
from depthrank.scorer import (
    SCORER_FAMILIES,
    LinearScorer,
    MlpScorer,
    init_params,
    params_to_vector,
    random_params,
    read_params,
    score,
    vector_to_params,
    write_params,
)
from depthrank.trainer import (
    EVAL_SAMPLES,
    GRADCHECK_TOLERANCES,
    LOSS_KINDS,
    TrainConfig,
    TrainTrace,
    _ListPool,
    backprop,
    backprop_batch,
    gradcheck_cases,
    gradient_check,
    loss_config,
    _make_eval_context,
    _trace_eval,
    draw_batch,
    draw_target,
    sgd_step,
    train,
)

import oracles


def make_sample(n=8, dim=4, seed=3):
    rng = SplitMix64(seed)
    return RankedSample(
        id="t", items=rng.normals(n * dim).reshape(n, dim), gt_scores=3.0 * rng.normals(n)
    )


def tiny_dataset(**overrides):
    base = dict(n_samples=6, items_per_sample=5, feature_dim=3, seed=11)
    base.update(overrides)
    return generate_synthetic(SyntheticSpec(**base))


class TestScore:
    def test_zero_linear_params(self):
        s = make_sample()
        params = LinearScorer(w=np.zeros(4), b=0.0)
        assert score(params, s.items).tolist() == [0.0] * s.n

    def test_coordinate_projection(self):
        params = LinearScorer(w=np.array([1.0, 0.0, 0.0]), b=0.0)
        feats = np.array([[3.0, 5.0, 7.0], [-2.0, 1.0, 4.0]])
        assert score(params, feats).tolist() == [3.0, -2.0]

    def test_dead_mlp_outputs_bias(self):
        params = MlpScorer(
            w_hidden=np.ones((4, 3)), b_hidden=np.zeros(4),
            w_out=np.zeros(4), b_out=2.5,
        )
        feats = SplitMix64(0).normals(9).reshape(3, 3)
        assert score(params, feats).tolist() == [2.5, 2.5, 2.5]

    def test_shape_mismatch(self):
        params = LinearScorer(w=np.zeros(4), b=0.0)
        with pytest.raises(InvalidInputError):
            score(params, np.zeros((3, 5)))

    def test_positive_weight_scaling_preserves_order(self):
        s = make_sample()
        params = LinearScorer(w=SplitMix64(1).normals(4), b=0.2)
        scaled = LinearScorer(w=3.5 * params.w, b=3.5 * params.b)
        a = permutation_from_scores(score(params, s.items))
        b = permutation_from_scores(score(scaled, s.items))
        assert a.order == b.order


class TestParamVectorRoundtrip:
    def test_linear(self):
        p = LinearScorer(w=np.array([1.0, -2.0]), b=0.5)
        q = vector_to_params(params_to_vector(p), p)
        assert np.array_equal(q.w, p.w) and q.b == p.b

    def test_mlp(self):
        rng = SplitMix64(2)
        p = MlpScorer(
            w_hidden=rng.normals(6).reshape(3, 2), b_hidden=rng.normals(3),
            w_out=rng.normals(3), b_out=-1.0,
        )
        q = vector_to_params(params_to_vector(p), p)
        assert np.array_equal(q.w_hidden, p.w_hidden)
        assert np.array_equal(q.b_hidden, p.b_hidden)
        assert np.array_equal(q.w_out, p.w_out)
        assert q.b_out == p.b_out


class TestBackprop:
    @pytest.mark.parametrize("loss", LOSS_KINDS)
    def test_linear_gradients_match_finite_differences(self, loss):
        rng = SplitMix64(40)
        sample = make_sample(n=10, dim=4, seed=41)
        cfg = loss_config(loss)
        params = LinearScorer(w=rng.normals(4), b=float(rng.normals(1)[0]))
        x0 = params_to_vector(params)
        _, analytic = backprop(params, sample, cfg)
        err = gradient_check(
            lambda v: backprop(vector_to_params(v, params), sample, cfg)[0], analytic, x0
        )
        assert err < 1e-5

    def test_mlp_weighted_gradient(self):
        rng = SplitMix64(42)
        sample = make_sample(n=8, dim=3, seed=43)
        cfg = loss_config("weighted-listmle", scorer="mlp", hidden_size=5)
        params = MlpScorer(
            w_hidden=rng.normals(15).reshape(5, 3), b_hidden=0.3 * rng.normals(5),
            w_out=rng.normals(5), b_out=0.1,
        )
        x0 = params_to_vector(params)
        _, analytic = backprop(params, sample, cfg)
        err = gradient_check(
            lambda v: backprop(vector_to_params(v, params), sample, cfg)[0], analytic, x0
        )
        assert err < 1e-4

    def test_zero_gain_gives_zero_parameter_gradient(self):
        # constant ground truth normalizes to all-zero relevance
        feats = SplitMix64(44).normals(12).reshape(4, 3)
        sample = RankedSample(id="z", items=feats, gt_scores=[2.0, 2.0, 2.0, 2.0])
        cfg = loss_config("weighted-listmle")
        params = LinearScorer(w=np.array([1.0, -1.0, 0.5]), b=0.0)
        value, grad = backprop(params, sample, cfg)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_linearity_across_losses(self):
        # gradient of (L1 + L2) at the same point is the sum of gradients
        sample = make_sample(n=7, dim=3, seed=45)
        params = LinearScorer(w=SplitMix64(46).normals(3), b=0.0)
        x0 = params_to_vector(params)
        cfg_a = loss_config("listnet")
        cfg_b = loss_config("listmle")
        _, ga = backprop(params, sample, cfg_a)
        _, gb = backprop(params, sample, cfg_b)

        def combined(v):
            p = vector_to_params(v, params)
            return backprop(p, sample, cfg_a)[0] + backprop(p, sample, cfg_b)[0]

        assert gradient_check(combined, ga + gb, x0) < 1e-5

    def test_pairwise_mean_matches_scalar_loss(self):
        sample = make_sample(n=5, dim=2, seed=47)
        cfg = loss_config("pairwise")
        params = LinearScorer(w=np.array([0.7, -0.3]), b=0.1)
        value, _ = backprop(params, sample, cfg)
        z = score(params, sample.items)
        _, *pairs = draw_target(sample, cfg)
        per_pair = [
            pairwise_loss(z[i], z[j], int(r)).value for i, j, r in zip(*pairs)
        ]
        assert value == pytest.approx(sum(per_pair) / len(per_pair), rel=1e-12)


# Ragged lists around the batch test's subsample size of 4 points: n = 2,
# n <= 4 (the whole sample) and n > 4 (a drawn subset).
RAGGED_SIZES = (2, 3, 4, 5, 7)


def ragged_batch(seed, size, loss, family, points=4, pairs=5):
    """A config, scorer params, ``size`` samples of mixed length with tied
    ground truth, and one drawn list per sample, in batch order."""
    rng = SplitMix64(seed)
    cfg = TrainConfig(loss=loss, learning_rate=0.1, epochs=1, seed=0, scorer=family,
                      hidden_size=3, points_per_sample=points, pairs_per_sample=pairs)
    samples = []
    for k in range(size):
        n = RAGGED_SIZES[rng.below(len(RAGGED_SIZES))]
        # integer ground truth in [-2, 2]: ties are common
        gt = (rng.u64_block(n) % np.uint64(5)).astype(np.float64) - 2.0
        samples.append(RankedSample(id=f"r{k}", items=rng.normals(n * 3).reshape(n, 3),
                                    gt_scores=gt))
    params = random_params(family, 3, cfg.hidden_size, rng)
    targets = [draw_target(s, cfg, rng) for s in samples]
    return cfg, params, samples, targets


def pool_of(lists):
    """A pool of these :func:`draw_target` lists, grouped by list length as
    :func:`draw_batch` groups them."""
    return _ListPool([(members, tuple(np.stack(col) for col in
                                      zip(*(lists[k] for k in members.tolist()))))
                      for members in _same_size([len(x) for x, *_ in lists])])


def backprop_lists(params, cfg, lists):
    """The batched step over a pool of exactly these lists, as train takes drawn lists."""
    return backprop_batch(params, cfg, pool_of(lists), np.arange(len(lists)))


class TestBackpropBatch:
    @pytest.mark.parametrize("family", SCORER_FAMILIES)
    @pytest.mark.parametrize("loss", LOSS_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), size=st.integers(1, 9))
    def test_equals_in_order_sum_of_one_sample_calls(self, loss, family, seed, size):
        cfg, params, samples, targets = ragged_batch(seed, size, loss, family)
        total, grad = backprop_lists(params, cfg, targets)
        seq_total, seq_grad = 0.0, np.zeros_like(params_to_vector(params))
        for sample, target in zip(samples, targets):
            value, g = backprop(params, sample, cfg, target)
            seq_total += value
            seq_grad += g
        assert total == seq_total
        assert np.array_equal(grad, seq_grad)
        assert grad.tobytes() == seq_grad.tobytes()  # signed zeros too

    @pytest.mark.parametrize("family", SCORER_FAMILIES)
    @pytest.mark.parametrize("loss", LOSS_KINDS)
    def test_batch_mean_gradient_check(self, loss, family):
        # lengths 5, 2, 4, 5, 3, 3: a drawn subset, n = 2 and whole samples
        cfg, params, samples, targets = ragged_batch(84, 6, loss, family)
        assert {s.n for s in samples} == {2, 3, 4, 5}
        b = len(samples)
        _, grad = backprop_lists(params, cfg, targets)

        def mean_loss(v):
            return backprop_lists(vector_to_params(v, params), cfg, targets)[0] / b

        err = gradient_check(mean_loss, grad / b, params_to_vector(params))
        assert err < GRADCHECK_TOLERANCES[family]

    @pytest.mark.parametrize("family", SCORER_FAMILIES)
    @pytest.mark.parametrize("loss", ["listnet", "listmle", "weighted-listmle"])
    def test_stacked_static_targets_give_the_batched_step(self, loss, family):
        # whole samples, which train pools once when points_per_sample >= every n
        cfg, params, samples, _ = ragged_batch(82, 12, loss, family, points=7)
        pool_gathers_like_per_batch_pools(cfg, params, [draw_target(s, cfg) for s in samples])

    @pytest.mark.parametrize("family", SCORER_FAMILIES)
    @pytest.mark.parametrize("loss", LOSS_KINDS)
    def test_pool_of_drawn_lists_gives_the_batched_step(self, loss, family):
        cfg, params, _, targets = ragged_batch(85, 12, loss, family)
        pool_gathers_like_per_batch_pools(cfg, params, targets)


def pool_gathers_like_per_batch_pools(cfg, params, lists):
    """One pool of all lists, gathered per batch, gives each batch's step
    bit for bit, as a pool of just that batch's lists does, and each
    gathered column, features included, holds those lists' own bits."""
    pool = pool_of(lists)
    for batch in np.array_split(SplitMix64(83).permutation(len(lists)), [8]):
        got = backprop_batch(params, cfg, pool, batch)
        expected = backprop_lists(params, cfg, [lists[k] for k in batch])
        assert got[0] == expected[0]
        assert got[1].tobytes() == expected[1].tobytes()
        for rows, cols in pool.take(batch):
            assert len(cols) == len(lists[0])
            for t, k in enumerate(batch[rows].tolist()):
                assert same_target(tuple(c[t] for c in cols), lists[k])


def same_target(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b)
    )


def same_bits(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b)
    )


def one_sample_list(sample, cfg, rng=None):
    """The list of one sample as draw_target built it before draws were
    batched, with its draws taken the naive way: two blocks of k draws per
    pair set, a textbook Fisher-Yates prefix per point set."""
    x, gt, n = sample.items, sample.gt_scores, sample.n
    if cfg.loss == "pairwise":
        if rng is None:
            return (x, *all_pairs(gt))
        k = cfg.pairs_per_sample
        u = rng.u64_block(k) % np.uint64(n)
        v = rng.u64_block(k) % np.uint64(n - 1)
        i = u.astype(np.intp)
        j = ((u + v + np.uint64(1)) % np.uint64(n)).astype(np.intp)
        d = gt[i] - gt[j]
        return x, i, j, (d > 0).astype(np.int64) - (d < 0)
    if rng is not None and cfg.points_per_sample < n:
        k = cfg.points_per_sample
        points = np.array(oracles.fisher_yates_prefix(n, k, rng.next_u64)[:k], dtype=np.intp)
        x, gt = x[points], gt[points]
    if cfg.loss == "listnet":
        return x, gt
    order = np.argsort(-gt, kind="stable")
    weights = IDENTITY_WEIGHTS if cfg.loss == "listmle" else cfg.weight_config
    return x, order, position_weights(weights, normalize_relevance(gt)[order])


class TestDrawBatch:
    @pytest.mark.parametrize("loss", LOSS_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), size=st.integers(1, 12), points=st.integers(1, 40),
           pairs=st.integers(1, 30), drawn=st.booleans())
    def test_equals_per_sample_draws(self, loss, seed, size, points, pairs, drawn):
        # ragged n in 2..40, so points falls below some lists and at or above others
        rng = SplitMix64(seed)
        samples = []
        for k in range(size):
            n = 2 + rng.below(39)
            gt = (rng.u64_block(n) % np.uint64(5)).astype(np.float64)  # ties are common
            samples.append(RankedSample(id=f"s{k}", items=rng.normals(n * 3).reshape(n, 3),
                                        gt_scores=gt))
        cfg = TrainConfig(loss=loss, learning_rate=0.1, epochs=1, seed=0,
                          points_per_sample=points, pairs_per_sample=pairs)
        batch_rng = SplitMix64(seed + 1) if drawn else None
        ref_rng = SplitMix64(seed + 1) if drawn else None
        groups = draw_batch(samples, cfg, batch_rng)
        expected = [one_sample_list(s, cfg, ref_rng) for s in samples]
        members = np.concatenate([m for m, _ in groups])
        assert sorted(members.tolist()) == list(range(size))
        for positions, cols in groups:
            assert (np.diff(positions) > 0).all()
            assert len({len(expected[p][0]) for p in positions.tolist()}) == 1
            for t, p in enumerate(positions.tolist()):
                assert same_bits(tuple(c[t] for c in cols), expected[p])
                assert same_bits(draw_target(samples[p], cfg), one_sample_list(samples[p], cfg))
        if drawn:
            assert batch_rng.next_u64() == ref_rng.next_u64()


class TestDrawTarget:
    @pytest.mark.parametrize("loss", ["listnet", "listmle", "weighted-listmle"])
    @pytest.mark.parametrize("points", [8, 9, 500])
    def test_whole_sample_draws_nothing(self, loss, points):
        # The pairwise loss always draws pairs_per_sample pairs.
        sample = make_sample(n=8)
        cfg = TrainConfig(loss=loss, learning_rate=0.1, epochs=1, seed=0,
                          points_per_sample=points)
        rng = SplitMix64(12)
        drawn = draw_target(sample, cfg, rng)
        assert same_target(drawn, draw_target(sample, cfg))
        assert rng.next_u64() == SplitMix64(12).next_u64()

    def test_subset_order_is_the_ground_truth_permutation_of_the_subset(self):
        sample = make_sample(n=9, seed=13)
        cfg = TrainConfig(loss="weighted-listmle", learning_rate=0.1, epochs=1, seed=0,
                          points_per_sample=5)
        x, order, _ = draw_target(sample, cfg, SplitMix64(14))
        points = sample_points(sample, 5, SplitMix64(14))
        assert points.size == 5
        assert np.array_equal(x, sample.items[points])
        sub = sample.gt_scores[points]
        assert order.tolist() == list(permutation_from_scores(sub).order)

    def test_plain_listmle_weights_are_ones(self):
        sample = make_sample(n=8, seed=15)
        cfg = loss_config("listmle")
        _, _, weights = draw_target(sample, cfg)
        assert weights.tolist() == [1.0] * sample.n

    def test_whole_sample_pairwise_needs_two_items(self):
        sample = RankedSample(id="one", items=np.ones((1, 2)), gt_scores=[1.0])
        with pytest.raises(InvalidInputError):
            draw_target(sample, loss_config("pairwise"))


def counted_trace_eval(monkeypatch):
    """Replace the trainer's trace eval with a wrapper that records the
    params of each call."""
    import depthrank.trainer

    seen = []

    def counting(params, ctx):
        seen.append(params)
        return _trace_eval(params, ctx)

    monkeypatch.setattr(depthrank.trainer, "_trace_eval", counting)
    return seen


def diverging_setup():
    """The CLI's default config on a 12-sample set at ``lr=1e308``: one batch
    per epoch, and ListNet and pairwise complete epoch 1 and diverge in epoch 2."""
    ds = generate_synthetic(SyntheticSpec(n_samples=12, items_per_sample=14, feature_dim=4,
                                          noise_sigma=0.3, seed=5))
    return ds, TrainConfig(loss="listnet", learning_rate=1e308, epochs=3, seed=1)


class TestTraceEval:
    def test_matches_evaluate_bit_for_bit(self):
        # more items than one rank-kernel call takes, so both make several calls
        ds = tiny_dataset(n_samples=12, items_per_sample=500, noise_sigma=0.5)
        assert sum(s.n for s in ds.samples) > _KERNEL_ITEMS
        params = LinearScorer(w=SplitMix64(16).normals(3), b=0.0)
        got = _trace_eval(params, _make_eval_context(ds.samples))
        report = evaluate(ds.samples, [score(params, s.items) for s in ds.samples])
        assert got == (report.whdr, report.map)

    def test_a_run_scores_its_first_eval_samples(self):
        ds = tiny_dataset(n_samples=EVAL_SAMPLES + 5)
        cfg = TrainConfig(loss="weighted-listmle", learning_rate=0.1, epochs=2, seed=7)
        params, trace = train(ds, cfg)
        first = ds.samples[:EVAL_SAMPLES]
        report = evaluate(first, [score(params, s.items) for s in first])
        assert (trace.final_eval_whdr, trace.final_eval_map) == (report.whdr, report.map)

    def test_once_for_a_finished_run_on_its_params(self, monkeypatch):
        seen = counted_trace_eval(monkeypatch)
        cfg = TrainConfig(loss="weighted-listmle", learning_rate=0.1, epochs=4, seed=7, batch=2)
        params, trace = train(tiny_dataset(), cfg)
        assert len(seen) == 1 and seen[0] is params
        assert len(trace) == 4 and len(trace.epoch_seconds) == 4

    @pytest.mark.parametrize("loss", ["listnet", "pairwise"])
    def test_once_for_a_run_that_diverges_after_an_epoch(self, monkeypatch, loss):
        seen = counted_trace_eval(monkeypatch)
        ds, cfg = diverging_setup()
        with pytest.raises(TrainingDivergedError) as info:
            train(ds, dataclasses.replace(cfg, loss=loss))
        assert (info.value.epoch, len(info.value.trace)) == (2, 1)
        # the failing epoch's first batch never updated the params
        assert len(seen) == 1 and seen[0] is info.value.params

    def test_never_for_a_run_that_diverges_in_epoch_1(self, monkeypatch):
        seen = counted_trace_eval(monkeypatch)
        rng = SplitMix64(5)
        samples = tuple(
            RankedSample(id=f"d{i}", items=rng.normals(12).reshape(6, 2),
                         gt_scores=[1.0, 1.0, 0.0, 0.0, 2.0, 2.0])
            for i in range(4)
        )
        cfg = TrainConfig(loss="pairwise", learning_rate=1e100, epochs=5, seed=5,
                          pairs_per_sample=30, batch=1)
        with pytest.raises(TrainingDivergedError) as info:
            train(Dataset(samples=samples), cfg)
        assert info.value.epoch == 1 and seen == []
        trace = info.value.trace
        assert trace.final_eval_whdr is None and trace.final_eval_map is None

    @pytest.mark.parametrize("loss", ["listnet", "pairwise"])
    def test_diverged_run_scores_like_the_run_of_its_completed_epochs(self, loss):
        ds, cfg = diverging_setup()
        cfg = dataclasses.replace(cfg, loss=loss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as info:
                train(ds, cfg)
            k = len(info.value.trace)
            params, trace = train(ds, dataclasses.replace(cfg, epochs=k))
        got = info.value.trace
        assert k == 1 and got.train_loss == trace.train_loss
        assert np.array_equal(params_to_vector(info.value.params), params_to_vector(params))
        for name in ("final_eval_whdr", "final_eval_map"):
            assert getattr(got, name).hex() == getattr(trace, name).hex()


class TestSgdStep:
    def test_zero_gradient_is_identity(self):
        vec = np.array([1.0, 2.0])
        out, vel = sgd_step(vec, np.zeros(2), 0.1, 0.9, np.zeros(2))
        assert out.tolist() == [1.0, 2.0]
        assert vel.tolist() == [0.0, 0.0]

    def test_no_momentum_is_plain_descent(self):
        vec = np.array([1.0])
        grad = np.array([2.0])
        out, _ = sgd_step(vec, grad, 0.5, 0.0, np.zeros(1))
        assert out.tolist() == [0.0]

    def test_two_steps_unrolled_recurrence(self):
        # v1 = -eta g; v2 = mu v1 - eta g; total displacement eta*g*(1 + (1+mu))
        eta, mu, g = 0.1, 0.9, np.array([1.0])
        vec = np.array([0.0])
        vel = np.zeros(1)
        vec, vel = sgd_step(vec, g, eta, mu, vel)
        vec, vel = sgd_step(vec, g, eta, mu, vel)
        assert vec[0] == pytest.approx(-eta * (1.0 + 1.0 + mu), rel=1e-15)

    def test_non_finite_gradient_raises(self):
        with pytest.raises(TrainingDivergedError):
            sgd_step(np.zeros(1), np.array([float("nan")]), 0.1, 0.0, np.zeros(1))

    def test_overflowing_update_raises(self):
        # finite gradient, but the step pushes the parameter past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError):
                sgd_step(np.array([1e308]), np.array([-1.0]), 1e308, 0.0, np.zeros(1))


class TestGradientCheck:
    def test_quadratic_is_exact(self):
        x0 = np.array([1.0, -2.0, 3.0])
        err = gradient_check(lambda x: float(x @ x), 2.0 * x0, x0)
        assert err < 1e-10

    def test_pairwise_wrapper(self):
        x0 = np.array([0.7, -0.4])
        res = pairwise_loss(x0[0], x0[1], 1)
        err = gradient_check(lambda v: pairwise_loss(v[0], v[1], 1).value, res.grad, x0)
        assert err < 1e-6

    def test_listnet_wrapper_n30(self):
        rng = SplitMix64(48)
        gt = 3.0 * rng.normals(30)
        pred = 3.0 * rng.normals(30)
        res = listnet_loss(gt, pred)
        err = gradient_check(lambda z: listnet_loss(gt, z).value, res.grad, pred)
        assert err < 1e-6

    def test_rejects_bad_h(self):
        with pytest.raises(InvalidInputError):
            gradient_check(lambda x: 0.0, np.zeros(1), np.zeros(1), h=0.0)


class TestGradcheckCases:
    def test_all_cases_pass_at_default_tolerances(self):
        rows = gradcheck_cases(seed=0, instances=3)
        assert len(rows) == 8
        for name, err, tol in rows:
            assert err < tol, name

    def test_zero_tolerance_fails(self):
        rows = gradcheck_cases(seed=0, instances=1, tolerances={"linear": 0.0, "mlp": 0.0})
        assert any(err >= tol for _, err, tol in rows)


class TestTrain:
    def test_single_epoch_trace(self):
        ds = tiny_dataset()
        cfg = TrainConfig(loss="listmle", learning_rate=0.1, epochs=1, seed=5, batch=2)
        params, trace = train(ds, cfg)
        assert len(trace) == 1 and len(trace.epoch_seconds) == 1
        assert 0.0 <= trace.final_eval_whdr <= 1.0 and 0.0 <= trace.final_eval_map <= 1.0
        assert isinstance(params, LinearScorer)

    @pytest.mark.parametrize("loss", ["pairwise", "listmle"])
    def test_one_item_sample_is_rejected_before_training(self, loss, monkeypatch):
        import depthrank.trainer

        ds = Dataset(samples=(
            make_sample(n=5),
            RankedSample(id="one", items=np.ones((1, 4)), gt_scores=[1.0]),
        ))
        monkeypatch.setattr(depthrank.trainer, "init_params", None)  # never reached
        cfg = TrainConfig(loss=loss, learning_rate=0.1, epochs=1, seed=5)
        with pytest.raises(InvalidInputError, match="'one' has fewer than two items"):
            train(ds, cfg)

    def test_same_seed_identical_runs(self):
        ds = tiny_dataset()
        cfg = TrainConfig(loss="weighted-listmle", learning_rate=0.1, epochs=3, seed=7, batch=3)
        params_a, trace_a = train(ds, cfg)
        params_b, trace_b = train(ds, cfg)
        assert np.array_equal(params_a.w, params_b.w) and params_a.b == params_b.b
        assert trace_a.train_loss == trace_b.train_loss
        assert trace_a.final_eval_whdr == trace_b.final_eval_whdr
        assert trace_a.final_eval_map == trace_b.final_eval_map

    def test_different_seed_differs(self):
        ds = tiny_dataset()
        cfg_a = TrainConfig(loss="listnet", learning_rate=0.1, epochs=2, seed=1,
                            points_per_sample=3)
        cfg_b = TrainConfig(loss="listnet", learning_rate=0.1, epochs=2, seed=2,
                            points_per_sample=3)
        params_a, _ = train(ds, cfg_a)
        params_b, _ = train(ds, cfg_b)
        assert not np.array_equal(params_a.w, params_b.w)

    @pytest.mark.parametrize("loss", LOSS_KINDS)
    def test_small_step_does_not_increase_batch_loss(self, loss):
        rng = SplitMix64(60)
        for trial in range(50):
            n = 4 + rng.below(5)
            d = 3
            feats = rng.normals(n * d).reshape(n, d)
            sample = RankedSample(id=f"s{trial}", items=feats, gt_scores=3.0 * rng.normals(n))
            cfg = loss_config(loss)
            params = LinearScorer(w=rng.normals(d), b=float(rng.normals(1)[0]))
            vec = params_to_vector(params)
            before, grad = backprop(params, sample, cfg)
            new_vec, _ = sgd_step(vec, grad, 1e-4, 0.0, np.zeros_like(vec))
            after, _ = backprop(vector_to_params(new_vec, params), sample, cfg)
            assert after <= before + 1e-12

    def test_mlp_training_runs(self):
        ds = tiny_dataset()
        cfg = TrainConfig(
            loss="listmle", learning_rate=0.05, epochs=2, seed=9, scorer="mlp", hidden_size=4
        )
        params, trace = train(ds, cfg)
        assert isinstance(params, MlpScorer)
        assert len(trace) == 2

    def test_pairwise_training_runs(self):
        ds = tiny_dataset()
        cfg = TrainConfig(
            loss="pairwise", learning_rate=0.05, epochs=2, seed=9, pairs_per_sample=20
        )
        _, trace = train(ds, cfg)
        assert len(trace) == 2

    def test_divergence_carries_partial_trace(self):
        # tied ground-truth scores produce r=0 pairs whose squared-loss
        # gradient grows with the scores, so a huge step size explodes
        rng = SplitMix64(5)
        samples = tuple(
            RankedSample(
                id=f"d{i}",
                items=rng.normals(12).reshape(6, 2),
                gt_scores=[1.0, 1.0, 0.0, 0.0, 2.0, 2.0],
            )
            for i in range(4)
        )
        ds = Dataset(samples=samples)
        cfg = TrainConfig(
            loss="pairwise", learning_rate=1e8, epochs=50, seed=5, pairs_per_sample=30
        )
        with pytest.raises(TrainingDivergedError) as info:
            train(ds, cfg)
        assert info.value.trace is not None
        assert len(info.value.trace) < 50
        assert info.value.params is not None
        # one batch per epoch: the failing epoch is the first one not traced
        assert (info.value.epoch, info.value.batch) == (len(info.value.trace) + 1, 1)
        assert info.value.sample == "d2"
        assert str(info.value) == (
            f"non-finite training loss at epoch {info.value.epoch}, batch 1, sample 'd2'"
        )

    def test_divergence_names_its_epoch_and_batch(self):
        rng = SplitMix64(5)
        samples = tuple(
            RankedSample(id=f"d{i}", items=rng.normals(12).reshape(6, 2),
                         gt_scores=[1.0, 1.0, 0.0, 0.0, 2.0, 2.0])
            for i in range(4)
        )
        cfg = TrainConfig(loss="pairwise", learning_rate=1e100, epochs=5, seed=5,
                          pairs_per_sample=30, batch=1)
        with pytest.raises(TrainingDivergedError) as info:
            train(Dataset(samples=samples), cfg)
        assert (info.value.epoch, info.value.batch) == (1, 3)
        # one sample per batch: the third of epoch 1's order (a linear init draws nothing)
        assert info.value.sample == samples[SplitMix64(5).permutation(4)[2]].id == "d3"
        assert str(info.value) == "non-finite training loss at epoch 1, batch 3, sample 'd3'"
        assert len(info.value.trace) == 0

    @pytest.mark.parametrize("loss", LOSS_KINDS)
    def test_overflowing_step_size_diverges_with_finite_params(self, loss):
        cfg = TrainConfig(loss=loss, learning_rate=1e308, epochs=3, seed=1)
        with pytest.raises(TrainingDivergedError) as info:
            train(tiny_dataset(), cfg)
        assert isinstance(info.value.trace, TrainTrace)
        assert np.isfinite(params_to_vector(info.value.params)).all()
        assert info.value.batch == 1 and info.value.epoch == len(info.value.trace) + 1

    def test_loss_decreases_on_learnable_data(self):
        ds = tiny_dataset(n_samples=20, items_per_sample=10, seed=21)
        cfg = TrainConfig(loss="weighted-listmle", learning_rate=0.05, epochs=30, seed=3,
                          batch=5)
        _, trace = train(ds, cfg)
        _, first = train(ds, dataclasses.replace(cfg, epochs=1))
        assert first.train_loss == trace.train_loss[:1]
        assert trace.train_loss[-1] < trace.train_loss[0]
        assert trace.final_eval_whdr < first.final_eval_whdr

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(loss="nope", learning_rate=0.1, epochs=1, seed=0)
        with pytest.raises(InvalidInputError):
            TrainConfig(loss="listmle", learning_rate=0.0, epochs=1, seed=0)
        with pytest.raises(InvalidInputError):
            TrainConfig(loss="listmle", learning_rate=0.1, epochs=0, seed=0)
        with pytest.raises(InvalidInputError):
            TrainConfig(loss="listmle", learning_rate=0.1, epochs=1, seed=0, momentum=1.0)


class TestParamsIO:
    def test_linear_roundtrip_bit_exact(self, tmp_path):
        params = LinearScorer(w=SplitMix64(70).normals(5), b=math.pi)
        path = tmp_path / "p.txt"
        write_params(params, path)
        back = read_params(path)
        assert back.w.tobytes() == params.w.tobytes()
        assert back.b == params.b

    def test_mlp_roundtrip_bit_exact(self, tmp_path):
        rng = SplitMix64(71)
        params = MlpScorer(
            w_hidden=rng.normals(12).reshape(4, 3), b_hidden=rng.normals(4),
            w_out=rng.normals(4), b_out=-0.25,
        )
        path = tmp_path / "p.txt"
        write_params(params, path)
        back = read_params(path)
        assert back.w_hidden.tobytes() == params.w_hidden.tobytes()
        assert back.b_hidden.tobytes() == params.b_hidden.tobytes()
        assert back.w_out.tobytes() == params.w_out.tobytes()
        assert back.b_out == params.b_out

    def test_init_params_deterministic(self):
        a = init_params("mlp", 4, 6, SplitMix64(1))
        b = init_params("mlp", 4, 6, SplitMix64(1))
        assert np.array_equal(a.w_hidden, b.w_hidden)
        assert np.array_equal(a.w_out, b.w_out)
        assert a.b_hidden.tolist() == [0.0] * 6

    def test_linear_init_is_zero(self):
        p = init_params("linear", 3, 6, SplitMix64(1))
        assert p.w.tolist() == [0.0, 0.0, 0.0] and p.b == 0.0
