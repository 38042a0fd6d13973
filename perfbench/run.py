#!/usr/bin/env python3
"""depthrank benchmark: one workload per process, one thread, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload desk-listwise --seed 0 --seconds 55 --trace 0

Workloads:

* ``desk-listwise``  weighted ListMLE, linear scorer, 1000 noiseless samples
  x 20 items x 10 features (acceptance criterion 7's gated configuration,
  with fewer epochs).
* ``desk-pairwise``  pairwise loss, 190 pairs per sample per epoch, on 1000
  samples x 20 items x 10 features with label noise 0.5.  Not listed in
  ``BENCHMARK.json``: its time metrics spread too widely between runs on a
  2-vCPU host to be held to a bound, so it is run by hand (``compare.py``,
  ``--trace 1``) for changes to the pairwise path.
* ``longlist-cli``   ``gen-data -> train -> eval`` through ``cli.main`` in
  this process, on 24 samples x 1000 items x 10 features.

Each workload has one fixed dataset (seeds 2024, 2025 and 2026); ``--seed
s`` makes the training seed ``7 + s``, so seed 0 is criterion 7's run.
After one untimed job as a warm-up the run repeats whole rounds while
another round fits in ``--seconds``, and never fewer than two.  A round
sets the inputs up a few times (``setup_s`` is the median over all
rounds), runs the job once, calls ``metrics.evaluate`` a few more times
and checks every output against ``checks.py``, which does not use the
package.  The other time metrics are medians over rounds;
``eval_pairs_per_s`` counts every ``metrics.evaluate`` call of a round,
the job's own and the extra ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs three
rounds, the middle one under :class:`tracing.Tracer`, and prints the
per-layer metrics and the tracing overhead; spans go to
``perfbench/.work/spans-<workload>-<seed>.jsonl``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

clock = time.perf_counter


def import_package():
    """Import depthrank from the checkout's ``src`` directory."""
    src = ROOT / "src"
    if not (src / "depthrank" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no depthrank package under {src}")
    sys.path.insert(0, str(src))
    global cli, data, metrics, trainer
    from depthrank import cli, data, metrics, trainer


@contextlib.contextmanager
def call_timer(module, name: str, calls: list):
    """Append ``(wall seconds, result)`` of every call to ``module.name`` to ``calls``."""
    original = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = clock()
        result = original(*args, **kwargs)
        calls.append((clock() - t0, result))
        return result

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


@dataclass
class Round:
    """What one job produced and how long it took."""

    run_s: float
    train_s: float
    sample_steps: int
    map: float
    dataset: str         # fingerprint of the inputs, as set-up fingerprints them
    outputs: str         # fingerprint of dataset, params and report
    samples: tuple       # RankedSample tuple the scorer is evaluated on
    preds: list          # the program's scores for those samples
    eval_pairs: int = 0  # pairs scored by the round's metrics.evaluate calls
    eval_s: float = 0.0  # and their wall time
    setup_s: list = field(default_factory=list)       # the round's set-up times
    setup_inputs: set = field(default_factory=set)    # and the inputs they made


def dataset_fingerprint(ds) -> str:
    parts = [repr(sorted(ds.meta.items()))]
    for s in ds.samples:
        parts += [s.id, s.items, s.gt_scores]
    return checks.fingerprint(*parts)


class Desk:
    """generate -> train -> evaluate, called directly, on a desk-scale dataset."""

    setups = 4      # set-ups per round, for setup_s
    eval_calls = 3  # extra metrics.evaluate calls per round, for eval_pairs_per_s

    def __init__(self, seed: int, loss: str, noise: float, data_seed: int, epochs: int,
                 n_samples: int = 1000):
        self.spec = data.SyntheticSpec(
            n_samples=n_samples, items_per_sample=20, feature_dim=10,
            noise_sigma=noise, scorer_family="linear", seed=data_seed,
        )
        self.cfg = trainer.TrainConfig(
            loss=loss, learning_rate=0.05, momentum=0.9, epochs=epochs,
            seed=7 + seed, batch=100, pairs_per_sample=190,
        )

    def setup(self):
        t0 = clock()
        ds = data.generate_synthetic(self.spec)
        return clock() - t0, dataset_fingerprint(ds)

    def job(self) -> Round:
        t0 = clock()
        ds = data.generate_synthetic(self.spec)
        t1 = clock()
        params, _ = trainer.train(ds, self.cfg)
        t2 = clock()
        preds = [trainer.score(params, s.items) for s in ds.samples]
        rep = metrics.evaluate(ds.samples, preds)
        t3 = clock()
        self.last = (ds, params, rep)
        dataset = dataset_fingerprint(ds)
        return Round(
            run_s=t3 - t0, train_s=t2 - t1, sample_steps=len(ds) * self.cfg.epochs,
            map=rep.map, dataset=dataset,
            outputs=checks.fingerprint(dataset, trainer.params_to_vector(params), repr(rep)),
            samples=ds.samples, preds=preds,
        )

    def check(self, ops: checks.Ops):
        ds, params, rep = self.last
        gt = [s.gt_scores for s in ds.samples]
        feats = [s.items for s in ds.samples]

        def recount(params):
            return checks.dataset_metrics(gt, [checks.scores(params, x) for x in feats])

        got = ops.check("scores from the trained params",
                        recount, checks.linear_params(params.w, params.b))
        hidden = ops.check("scores from the hidden scorer", lambda: checks.dataset_metrics(
            gt, [checks.hidden_scores(ds.meta, x) for x in feats]))
        if not (got and hidden):
            return
        expect_pairs = sum(x.shape[0] * (x.shape[0] - 1) // 2 for x in feats)
        ops.check("n_pairs", lambda: rep.n_pairs == expect_pairs == got["pairs"])
        ops.check("whdr", lambda: rep.whdr == got["whdr"])
        ops.check("map", lambda: abs(rep.map - got["map"]) <= 1e-9)
        if self.spec.noise_sigma == 0:
            ops.check("hidden scorer ranks perfectly",
                      lambda: hidden["wrong"] == 0 and abs(hidden["map"] - 1.0) <= 1e-12)
            ops.check("criterion 7 quality", lambda: got["whdr"] < 0.02 and got["map"] > 0.97)
        else:
            ops.check("trained MAP near the hidden scorer's",
                      lambda: got["map"] >= hidden["map"] - 0.005)


class LongListCli:
    """gen-data -> train -> eval through ``cli.main`` in this process."""

    # the job itself sets up once and calls metrics.evaluate three times, so
    # fewer extra calls make shorter rounds and more of them in a run
    setups = 2
    eval_calls = 0

    def __init__(self, seed: int, work: Path, n_samples: int = 24, items: int = 1000,
                 epochs: int = 3):
        p = self.paths = {k: str(work / f"{k}.txt")
                          for k in ("data", "params", "train-report", "eval-report")}
        self.spec = data.SyntheticSpec(
            n_samples=n_samples, items_per_sample=items, feature_dim=10, noise_sigma=0.5,
            scorer_family="linear", seed=2026,
        )
        self.epochs = epochs
        self.gen = ["gen-data", "--n-samples", str(n_samples), "--items", str(items),
                    "--dim", "10", "--noise", "0.5", "--seed", "2026", "--out", p["data"]]
        self.train = ["train", "--data", p["data"], "--loss", "weighted-listmle",
                      "--scorer", "mlp", "--points", "100", "--epochs", str(self.epochs),
                      "--batch", "2", "--lr", "0.002", "--seed", str(7 + seed),
                      "--out-params", p["params"], "--out-report", p["train-report"]]
        self.eval = ["eval", "--params", p["params"], "--data", p["data"],
                     "--out-report", p["eval-report"]]

    @staticmethod
    def _main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"depthrank {argv[0]} exited {rc}")

    def _read(self, key) -> str:
        return Path(self.paths[key]).read_text(encoding="ascii")

    def setup(self):
        t0 = clock()
        self._main(self.gen)
        seconds = clock() - t0
        return seconds, checks.fingerprint(self._read("data"))

    def job(self) -> Round:
        trained: list = []
        t0 = clock()
        self._main(self.gen)
        with call_timer(trainer, "train", trained):
            self._main(self.train)
        self._main(self.eval)
        run_s = clock() - t0
        texts = {k: self._read(k) for k in self.paths}
        ds = data.generate_synthetic(self.spec)
        params = trainer.read_params(self.paths["params"])
        self.last = (ds, texts)
        return Round(
            run_s=run_s, train_s=sum(t for t, _ in trained),
            sample_steps=self.spec.n_samples * self.epochs,
            map=float(checks.report_fields(texts["eval-report"])["metrics.eval.map"]),
            dataset=checks.fingerprint(texts["data"]),
            outputs=checks.fingerprint(*(texts[k] for k in sorted(texts))),
            samples=ds.samples, preds=[trainer.score(params, s.items) for s in ds.samples],
        )

    def check(self, ops: checks.Ops):
        ds, texts = self.last

        def parsed_dataset():
            meta, parsed = checks.parse_dataset(texts["data"])
            same = meta == ds.meta and len(parsed) == len(ds.samples) and all(
                sid == s.id and checks.same_bits(x, s.items) and checks.same_bits(g, s.gt_scores)
                for (sid, x, g), s in zip(parsed, ds.samples))
            return parsed if same else None

        parsed = ops.check("dataset file equals generate_synthetic", parsed_dataset)
        if not parsed:
            return
        gt = [g for _, _, g in parsed]
        rep = checks.report_fields(texts["eval-report"])

        def recount():
            params = checks.parse_params(texts["params"])
            return checks.dataset_metrics(gt, [checks.scores(params, x) for _, x, _ in parsed])

        got = ops.check("scores from the params file", recount)
        if got:
            expect_pairs = sum(g.size * (g.size - 1) // 2 for g in gt)
            ops.check("n_pairs",
                      lambda: int(rep["metrics.eval.n_pairs"]) == expect_pairs == got["pairs"])
            ops.check("whdr", lambda: float(rep["metrics.eval.whdr"]) == got["whdr"])
            ops.check("map", lambda: abs(float(rep["metrics.eval.map"]) - got["map"]) <= 1e-9)


WORKLOADS = {
    "desk-listwise": lambda seed, work: Desk(seed, "weighted-listmle", 0.0, 2024, epochs=40),
    "desk-pairwise": lambda seed, work: Desk(seed, "pairwise", 0.5, 2025, epochs=15),
    "longlist-cli": lambda seed, work: LongListCli(seed, work),
}


def run_round(wl, ops: checks.Ops, tracer=None) -> Round | None:
    """Set the inputs up a few times, then run the job once and check it."""
    setups = []
    for _ in range(wl.setups):
        gc.collect()
        setups.append(ops.call("setup", wl.setup))
    gc.collect()
    evaluated: list = []
    with tracer or contextlib.nullcontext(), call_timer(metrics, "evaluate", evaluated):
        rnd = ops.call("job", wl.job)
    if rnd is None or None in setups:
        return None
    rnd.eval_pairs = sum(rep.n_pairs for _, rep in evaluated)
    rnd.eval_s = sum(t for t, _ in evaluated)
    rnd.setup_s = [t for t, _ in setups]
    rnd.setup_inputs = {fp for _, fp in setups}
    wl.check(ops)
    return rnd


def timed_evaluate(rnd: Round, calls: int) -> None:
    """Time ``calls`` calls of ``metrics.evaluate`` on the round's predictions."""
    t0 = clock()
    for _ in range(calls):
        rnd.eval_pairs += metrics.evaluate(rnd.samples, rnd.preds).n_pairs
    rnd.eval_s += clock() - t0


def measure(wl, ops: checks.Ops, seconds: float, spans_path: Path | None) -> dict:
    """Run and check whole rounds; the metrics by name, or {} if a round failed."""
    rounds = []
    if spans_path is not None:
        tracer = tracing.Tracer()
        rounds = [run_round(wl, ops), run_round(wl, ops, tracer), run_round(wl, ops)]
    else:
        # a round starts only if one as long as the longest so far still fits,
        # so the run takes --seconds and not up to one round more
        longest, start = 0.0, clock()
        while len(rounds) < 2 or clock() - start + longest <= seconds:
            t0 = clock()
            rnd = run_round(wl, ops)
            rounds.append(rnd)
            if rnd is None:
                break
            timed_evaluate(rnd, wl.eval_calls)
            rnd.samples = rnd.preds = None  # later rounds must not carry this round's data
            longest = max(longest, clock() - t0)
    ok = None not in rounds
    ops.check("reruns give identical inputs and outputs",
              lambda: ok and len({r.outputs for r in rounds}) == 1
              and set.union(*(r.setup_inputs for r in rounds)) == {rounds[0].dataset})
    if not ok:
        return {}

    if spans_path is not None:
        before, traced, after = rounds
        tracemalloc.start()
        metrics.evaluate(traced.samples, traced.preds)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        tracer.write(spans_path)
        for label in tracer.absent:
            print(f"perfbench: {label} not found; its metrics are absent", file=sys.stderr)
        out = tracer.metrics()
        out["metrics.evaluate.peak_mb"] = {"value": peak / 2**20, "unit": "MB"}
        # against the mean of the plain rounds on either side, to cancel drift
        out["trace.overhead"] = {"value": 2 * traced.run_s / (before.run_s + after.run_s) - 1,
                                 "unit": "fraction"}
        return out

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": statistics.median(t for r in rounds for t in r.setup_s),
                    "unit": "s"},
        "run_s": {"value": statistics.median(r.run_s for r in rounds), "unit": "s"},
        # medians over rounds of each round's rate, so a slow stretch of the host
        # moves them less than a total over the run would
        "train_samples_per_s": {
            "value": statistics.median(r.sample_steps / r.train_s for r in rounds),
            "unit": "1/s"},
        "eval_pairs_per_s": {
            "value": statistics.median(r.eval_pairs / r.eval_s for r in rounds),
            "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "final_map": {"value": rounds[0].map, "unit": "fraction"},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    import_package()
    os.chdir(ROOT)  # reports name the files by paths relative to the checkout
    work = WORK.relative_to(ROOT) / args.workload
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        ops = checks.Ops()
        ops.call("warm-up", wl.job)
        spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None
        result = measure(wl, ops, args.seconds, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in ops.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    for name, m in result.items():
        print(f"{name:<42} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": ops.correct and bool(result),
                      "attempted": ops.attempted, "failed": ops.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
