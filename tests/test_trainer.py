import math
import warnings

import numpy as np
import pytest

from depthrank.core import RankedSample, permutation_from_scores
from depthrank.data import Dataset, SyntheticSpec, generate_synthetic
from depthrank.errors import InvalidInputError, TrainingDivergedError
from depthrank.losses import listnet_loss, pairwise_loss
from depthrank.metrics import _KERNEL_ITEMS, evaluate
from depthrank.rng import SplitMix64
from depthrank.scorer import (
    LinearScorer,
    MlpScorer,
    init_params,
    params_to_vector,
    read_params,
    score,
    vector_to_params,
    write_params,
)
from depthrank.trainer import (
    LOSS_KINDS,
    TrainConfig,
    TrainTrace,
    backprop,
    gradcheck_cases,
    gradient_check,
    loss_config,
    _make_eval_context,
    _trace_eval,
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
        target = draw_target(sample, cfg)
        per_pair = [
            pairwise_loss(z[i], z[j], int(r)).value for i, j, r in zip(*target.args)
        ]
        assert value == pytest.approx(sum(per_pair) / len(per_pair), rel=1e-12)


def same_target(a, b):
    if (a.points is None) != (b.points is None):
        return False
    if a.points is not None and not np.array_equal(a.points, b.points):
        return False
    return len(a.args) == len(b.args) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a.args, b.args)
    )


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
        target = draw_target(sample, cfg, SplitMix64(14))
        assert target.points.size == 5
        sub = sample.gt_scores[target.points]
        assert target.args[0].tolist() == list(permutation_from_scores(sub).order)

    def test_plain_listmle_weights_are_ones(self):
        sample = make_sample(n=8, seed=15)
        cfg = loss_config("listmle")
        _, weights = draw_target(sample, cfg).args
        assert weights.tolist() == [1.0] * sample.n

    def test_whole_sample_pairwise_needs_two_items(self):
        sample = RankedSample(id="one", items=np.ones((1, 2)), gt_scores=[1.0])
        with pytest.raises(InvalidInputError):
            draw_target(sample, loss_config("pairwise"))


class TestTraceEval:
    def test_matches_evaluate_bit_for_bit(self):
        ds = tiny_dataset(n_samples=7, items_per_sample=9, noise_sigma=0.5)
        assert sum(s.n for s in ds.samples) < _KERNEL_ITEMS
        params = LinearScorer(w=SplitMix64(16).normals(3), b=0.0)
        got = _trace_eval(params, _make_eval_context(ds.samples))
        report = evaluate(ds.samples, [score(params, s.items) for s in ds.samples])
        assert got == (report.whdr, report.map)


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
        assert len(trace) == 1
        assert len(trace.eval_whdr) == 1 and len(trace.eval_map) == 1
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
        assert trace_a.eval_whdr == trace_b.eval_whdr
        assert trace_a.eval_map == trace_b.eval_map

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

    @pytest.mark.parametrize("loss", LOSS_KINDS)
    def test_overflowing_step_size_diverges_with_finite_params(self, loss):
        cfg = TrainConfig(loss=loss, learning_rate=1e308, epochs=3, seed=1)
        with pytest.raises(TrainingDivergedError) as info:
            train(tiny_dataset(), cfg)
        assert isinstance(info.value.trace, TrainTrace)
        assert np.isfinite(params_to_vector(info.value.params)).all()

    def test_loss_decreases_on_learnable_data(self):
        ds = tiny_dataset(n_samples=20, items_per_sample=10, seed=21)
        cfg = TrainConfig(loss="weighted-listmle", learning_rate=0.05, epochs=30, seed=3,
                          batch=5)
        _, trace = train(ds, cfg)
        assert trace.train_loss[-1] < trace.train_loss[0]
        assert trace.eval_whdr[-1] < trace.eval_whdr[0]

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
