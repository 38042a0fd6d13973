"""The package names and shapes that perfbench's per-layer tracer relies on.

``perfbench/tracing.py`` wraps package functions by module path and reads
a few attributes of their results.  A name it cannot resolve is dropped
from the traced run's metrics with only a note on stderr, so a rename or
removal has to fail here instead.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

# cli is unused here, but the tracer wraps only modules already imported.
from depthrank import RankedSample, cli, data, metrics, trainer  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_name_resolves(tracing):
    for mod_name, path, label in tracing.TIMED:
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        assert callable(tracing._resolve(module, path)[2]), label


def test_eval_context_keeps_empty_pair_tuples(tracing):
    samples = [
        RankedSample(id=f"s{k}", items=np.eye(3), gt_scores=[3.0, 1.0, 2.0 + k])
        for k in range(2)
    ]
    ctx = trainer._make_eval_context(samples)
    for name in ("pair_i", "pair_j", "pair_r"):
        value = getattr(ctx, name)
        assert isinstance(value, tuple)
        assert all(isinstance(a, np.ndarray) for a in value)
    assert tracing._eval_context_mb((), {}, ctx) == 0.0


def test_counted_pairs_are_json_ints(tracing):
    samples = [RankedSample(id="s", items=np.eye(3), gt_scores=[3.0, 1.0, 2.0])]
    report = metrics.evaluate(samples, [np.array([1.0, 2.0, 3.0])])
    assert type(report.n_pairs) is int
    counter, _, amount = tracing.COUNTED["metrics.evaluate"]
    assert json.loads(json.dumps({counter: amount((), {}, report)})) == {counter: 3}


# The public names perfbench/run.py calls, by module.
RUN_NAMES = {
    "data": ["SyntheticSpec", "generate_synthetic"],
    "trainer": ["TrainConfig", "train", "score", "params_to_vector", "read_params"],
    "metrics": ["evaluate"],
    "cli": ["main"],
}


def test_names_the_benchmark_runner_calls_resolve():
    for mod_name, names in RUN_NAMES.items():
        module = importlib.import_module(f"depthrank.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod_name}.{name}"


def test_whdr_from_arrays_takes_four_positional_arguments():
    gt = np.array([3.0, 1.0, 2.0, 2.0])
    pred = np.array([1.0, 2.0, 3.0, 3.0])
    i, j = np.triu_indices(gt.size, k=1)
    r = np.sign(gt[i] - gt[j]).astype(np.int64)
    # item 0 is ranked last but belongs first: its three pairs are wrong;
    # (1, 2) and (1, 3) are right, and (2, 3) ties in both
    assert metrics.whdr_from_arrays(i, j, r, pred) == (3, 6)


# Per-layer metrics perfbench/run.py adds itself rather than the tracer.
RUNNER_METRICS = {"metrics.evaluate.peak_mb", "trace.overhead"}


def test_traced_train_and_evaluate_report_every_per_layer_metric(tracing):
    ds = data.generate_synthetic(data.SyntheticSpec(n_samples=3, items_per_sample=6,
                                                    feature_dim=2, seed=4))
    cfg = trainer.TrainConfig(loss="weighted-listmle", learning_rate=0.05, epochs=2, seed=1,
                              points_per_sample=4)
    with tracing.Tracer() as tracer:
        params, _ = trainer.train(ds, cfg)
        metrics.evaluate(ds.samples, [trainer.score(params, s.items) for s in ds.samples])
    got = tracer.metrics()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = {m["name"] for m in bench["per_layer"]} - RUNNER_METRICS - set(got)
    assert not missing
    assert got["trainer.train.calls"]["value"] == 1
    json.dumps(got, allow_nan=False)
