"""Tests for the benchmark's own checks.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py

The reference checkers must agree with ``tests/oracles.py`` (or with a
brute-force count where it has no oracle) on tiny inputs with ties, and a
corrupted prediction, params file, dataset line or report must come out
as a failed operation.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

run.import_package()
from depthrank import data, metrics, trainer  # noqa: E402


def tied_lists(rng, n):
    """Values from a small alphabet, so ties are common."""
    return [float(rng.randint(0, 3)) for _ in range(n)]


def sign(x):
    return (x > 0) - (x < 0)


def brute_whdr(gt, pred):
    wrong = total = 0
    for i, j in itertools.combinations(range(len(gt)), 2):
        wrong += sign(gt[i] - gt[j]) != sign(pred[i] - pred[j])
        total += 1
    return wrong, total


def test_descending_order_matches_oracle_with_ties():
    rng = random.Random(1)
    for n in range(1, 7):
        for _ in range(20):
            values = tied_lists(rng, n)
            assert checks.descending_order(values) == oracles.stable_descending_sort(values)


def test_inversions_match_brute_force():
    rng = random.Random(2)
    for n in range(0, 40):
        seq = [rng.randint(0, 5) for _ in range(n)]
        want = sum(seq[i] > seq[j] for i, j in itertools.combinations(range(n), 2))
        assert checks._inversions(seq) == want


def test_whdr_counts_match_brute_force_with_ties():
    rng = random.Random(3)
    for n in range(1, 12):
        for _ in range(30):
            gt, pred = tied_lists(rng, n), tied_lists(rng, n)
            assert checks.whdr_counts(gt, pred) == brute_whdr(gt, pred)


def test_whdr_counts_agree_with_package_on_continuous_scores():
    rng = np.random.default_rng(4)
    gt, pred = rng.normal(size=300), rng.normal(size=300)
    i, j = np.triu_indices(300, k=1)
    r = np.sign(gt[i] - gt[j]).astype(np.int64)
    assert checks.whdr_counts(gt, pred) == metrics.whdr_from_arrays(i, j, r, pred)


def test_sample_maps_match_oracle_with_ties():
    rng = random.Random(5)
    gts, preds = [], []
    for n in range(2, 7):
        for _ in range(15):
            gts.append(tied_lists(rng, n))
            preds.append(tied_lists(rng, n))
    got = checks.sample_maps(gts, preds)
    for gt, pred, value in zip(gts, preds, got):
        want = oracles.map_cuts(oracles.stable_descending_sort(gt), pred)
        assert value == pytest.approx(want, abs=1e-12)


def test_dataset_metrics_on_a_perfect_and_a_reversed_ranking():
    gt = [[3.0, 2.0, 1.0, 0.0]]
    assert checks.dataset_metrics(gt, gt) == {"wrong": 0, "pairs": 6, "whdr": 0.0, "map": 1.0}
    reversed_ = checks.dataset_metrics(gt, [[0.0, 1.0, 2.0, 3.0]])
    assert reversed_["wrong"] == 6
    assert reversed_["map"] == pytest.approx(oracles.map_cuts([0, 1, 2, 3], [0, 1, 2, 3]))


def test_parsers_read_package_files_bit_for_bit(tmp_path):
    spec = data.SyntheticSpec(n_samples=3, items_per_sample=7, feature_dim=4,
                              noise_sigma=0.3, scorer_family="mlp", seed=9)
    ds = data.generate_synthetic(spec)
    data.write_dataset(ds, tmp_path / "d.txt")
    meta, parsed = checks.parse_dataset((tmp_path / "d.txt").read_text())
    assert meta == ds.meta
    for (sid, x, g), s in zip(parsed, ds.samples):
        assert sid == s.id and checks.same_bits(x, s.items) and checks.same_bits(g, s.gt_scores)
        assert checks.same_bits(checks.hidden_scores(meta, x),
                                data.hidden_raw_scores(meta["hidden"], x))
    rng = np.random.default_rng(0)
    mlp = trainer.MlpScorer(w_hidden=rng.normal(size=(5, 4)), b_hidden=rng.normal(size=5),
                            w_out=rng.normal(size=5), b_out=0.25)
    for params in (mlp, trainer.LinearScorer(w=rng.normal(size=4), b=-1.5)):
        trainer.write_params(params, tmp_path / "p.txt")
        mine = checks.parse_params((tmp_path / "p.txt").read_text())
        for _, x, _ in parsed:
            assert checks.same_bits(checks.scores(mine, x), trainer.score(params, x))


def small_desk(loss="weighted-listmle", noise=0.0):
    wl = run.Desk(0, loss, noise, 2024, epochs=5, n_samples=200)
    wl.job()
    return wl


def test_desk_checks_pass_on_true_outputs():
    for loss, noise in (("weighted-listmle", 0.0), ("pairwise", 0.5)):
        ops = checks.Ops()
        small_desk(loss, noise).check(ops)
        assert ops.correct and ops.failed == 0, ops.errors
        assert ops.attempted == (7 if noise == 0 else 6)


def test_desk_checks_fail_on_a_corrupted_prediction():
    wl = small_desk()
    ds, params, _ = wl.last
    preds = [trainer.score(params, s.items) for s in ds.samples]
    preds[0] = -preds[0]  # one list ranked backwards
    wl.last = (ds, params, metrics.evaluate(ds.samples, preds))
    ops = checks.Ops()
    wl.check(ops)
    assert not ops.correct
    assert {e.split(" failed")[0] for e in ops.errors} >= {"check whdr", "check map"}


@pytest.fixture(scope="module")
def longlist(tmp_path_factory):
    wl = run.LongListCli(0, tmp_path_factory.mktemp("longlist"), n_samples=3, items=40,
                         epochs=1)
    wl.job()
    return wl


def corrupt_and_check(wl, key, edit):
    ds, texts = wl.last
    bad = dict(texts, **{key: edit(texts[key])})
    wl.last = (ds, bad)
    try:
        ops = checks.Ops()
        wl.check(ops)
    finally:
        wl.last = (ds, texts)
    return ops


def test_longlist_checks_pass_on_true_outputs(longlist):
    ops = checks.Ops()
    longlist.check(ops)
    assert ops.correct and ops.failed == 0 and ops.attempted == 5, ops.errors


def test_longlist_checks_fail_on_a_corrupted_dataset_line(longlist):
    def edit(text):
        lines = text.split("\n")
        tok = lines[2].split(" ")
        tok[5] = float.hex(float.fromhex(tok[5]) + 1.0)
        lines[2] = " ".join(tok)
        return "\n".join(lines)

    ops = corrupt_and_check(longlist, "data", edit)
    assert not ops.correct and ops.errors == ["check dataset file equals generate_synthetic failed"]

    ops = corrupt_and_check(longlist, "data", lambda t: t.replace(" 0x", " zz", 1))
    assert not ops.correct and ops.failed == 1
    assert ops.errors[0].startswith("check dataset file equals generate_synthetic failed: ")


def test_longlist_checks_fail_on_a_corrupted_params_file(longlist):
    def negate_w_out(text):
        lines = text.split("\n")
        idx = next(k for k, ln in enumerate(lines) if ln.startswith("w_out "))
        vals = [float.fromhex(t) for t in lines[idx].split(" ")[1:]]
        lines[idx] = "w_out " + " ".join(float.hex(-v) for v in vals)
        return "\n".join(lines)

    ops = corrupt_and_check(longlist, "params", negate_w_out)
    assert not ops.correct and "check whdr failed" in ops.errors

    ops = corrupt_and_check(longlist, "params", lambda t: t.replace("0x", "0y", 1))
    assert not ops.correct and ops.failed == 1
    assert ops.errors[0].startswith("check scores from the params file failed")


def test_longlist_checks_fail_on_a_corrupted_report(longlist):
    def edit(text):
        fields = checks.report_fields(text)
        return text.replace(f"metrics.eval.map={fields['metrics.eval.map']}",
                            "metrics.eval.map=0.5")

    ops = corrupt_and_check(longlist, "eval-report", edit)
    assert not ops.correct and ops.errors == ["check map failed"]


def test_a_raising_operation_counts_as_failed_but_not_incorrect():
    ops = checks.Ops()
    assert ops.call("boom", lambda: 1 / 0) is None
    assert ops.check("fine", lambda: True)
    assert (ops.attempted, ops.failed, ops.correct) == (2, 1, True)


def test_tracer_counts_calls_restores_functions_and_skips_absent_names(monkeypatch):
    original = trainer.score
    monkeypatch.setattr(tracing, "TIMED", tracing.TIMED + [("trainer", "gone", "trainer.gone")])
    wl = run.Desk(0, "pairwise", 0.5, 2025, epochs=2, n_samples=30)
    with tracing.Tracer() as tracer:
        wl.job()
    assert trainer.score is original
    assert tracer.absent == ["trainer.gone"]
    got = tracer.metrics()
    assert "trainer.gone.calls" not in got
    assert got["trainer.train.calls"]["value"] == 1
    assert got["data.sample_pair_arrays.calls"]["value"] == 60
    assert got["metrics.evaluate.pairs"]["value"] == 30 * 190
    # generation: hidden w, then features and noise per sample; each epoch: one
    # shuffle of 30 samples, then 2 x 190 draws per sample for the pairs
    draws = (10 + 30 * (200 + 20)) + 2 * (29 + 30 * 2 * 190)
    assert got["rng.u64_drawn"]["value"] == draws
    assert all(m["value"] >= -1e-9 for k, m in got.items() if k.endswith(".self_s"))
