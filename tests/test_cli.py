import subprocess
import sys

import numpy as np
import pytest

from depthrank.cli import EXIT_DIVERGED, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from depthrank.data import read_dataset
from depthrank.scorer import LinearScorer, read_params, write_params


def run(*argv):
    return main(list(argv))


def gen(tmp_path, name="d.txt", n_samples=6, items=8, dim=4, noise=0.0, seed=11):
    out = tmp_path / name
    code = run(
        "gen-data", "--n-samples", str(n_samples), "--items", str(items),
        "--dim", str(dim), "--noise", str(noise), "--seed", str(seed),
        "--out", str(out),
    )
    assert code == EXIT_OK
    return out


class TestGenData:
    def test_default_scale_items(self, tmp_path, capsys):
        out = gen(tmp_path, n_samples=2, items=500)
        assert "2 samples x 500 items" in capsys.readouterr().out
        ds = read_dataset(out)
        assert all(s.n == 500 for s in ds.samples)

    def test_same_flags_byte_identical(self, tmp_path):
        a = gen(tmp_path, name="a.txt")
        b = gen(tmp_path, name="b.txt")
        assert a.read_bytes() == b.read_bytes()

    def test_zero_items_is_usage_error(self, tmp_path):
        code = run(
            "gen-data", "--n-samples", "2", "--items", "0", "--seed", "1",
            "--out", str(tmp_path / "x.txt"),
        )
        assert code == EXIT_USAGE

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        code = run("gen-data", "--n-samples", "2", "--out", str(tmp_path / "x.txt"))
        assert code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_unwritable_path_is_io_error(self, tmp_path):
        code = run(
            "gen-data", "--n-samples", "1", "--items", "3", "--seed", "1",
            "--out", str(tmp_path / "missing-dir" / "x.txt"),
        )
        assert code == EXIT_FAILURE


class TestTrainCommand:
    def test_trains_and_writes_artifacts(self, tmp_path):
        data = gen(tmp_path)
        params_path = tmp_path / "p.txt"
        report_path = tmp_path / "r.txt"
        code = run(
            "train", "--data", str(data), "--loss", "weighted-listmle",
            "--lr", "0.05", "--epochs", "5", "--batch", "3", "--seed", "3",
            "--out-params", str(params_path), "--out-report", str(report_path),
        )
        assert code == EXIT_OK
        assert isinstance(read_params(params_path), LinearScorer)
        text = report_path.read_text()
        assert "kind=train" in text
        assert "metrics.eval.whdr=" in text
        assert "trace.epochs=5" in text

    def test_unknown_loss_lists_valid_ones(self, tmp_path, capsys):
        data = gen(tmp_path)
        code = run(
            "train", "--data", str(data), "--loss", "nonsense", "--seed", "1",
            "--out-params", str(tmp_path / "p.txt"),
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        for name in ("pairwise", "listnet", "listmle", "weighted-listmle"):
            assert name in err

    def test_pairwise_with_large_pair_budget(self, tmp_path):
        data = gen(tmp_path, n_samples=3, items=6)
        code = run(
            "train", "--data", str(data), "--loss", "pairwise", "--pairs", "3000",
            "--epochs", "1", "--seed", "2", "--out-params", str(tmp_path / "p.txt"),
            "--out-report", str(tmp_path / "r.txt"),
        )
        assert code == EXIT_OK

    def test_divergence_exits_3_with_partial_report(self, tmp_path):
        # tied ground truth + huge lr explodes the squared pairwise branch
        from depthrank.core import RankedSample
        from depthrank.data import Dataset, write_dataset
        from depthrank.rng import SplitMix64

        samples = tuple(
            RankedSample(
                id=f"d{i}",
                items=SplitMix64(i).normals(8).reshape(4, 2),
                gt_scores=[1.0, 1.0, 0.0, 0.0],
            )
            for i in range(4)
        )
        data = tmp_path / "tied.txt"
        write_dataset(Dataset(samples=samples), data)
        report_path = tmp_path / "r.txt"
        code = run(
            "train", "--data", str(data), "--loss", "pairwise", "--lr", "1e8",
            "--epochs", "50", "--pairs", "20", "--seed", "5",
            "--out-params", str(tmp_path / "p.txt"), "--out-report", str(report_path),
        )
        assert code == EXIT_DIVERGED
        assert "kind=train" in report_path.read_text()

    @pytest.mark.parametrize("loss", ["pairwise", "listnet", "listmle", "weighted-listmle"])
    def test_overflowing_step_size_exits_3_with_partial_report(self, tmp_path, loss):
        # a child process, so that stray numpy warnings would reach the stderr checked here
        data = gen(tmp_path)
        report_path = tmp_path / "r.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "depthrank.cli", "train", "--data", str(data),
             "--loss", loss, "--lr", "1e308", "--epochs", "3", "--seed", "1",
             "--out-params", str(tmp_path / "p.txt"), "--out-report", str(report_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_DIVERGED
        assert "kind=train" in report_path.read_text()
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: training diverged: "), proc.stderr

    def test_missing_dataset_file(self, tmp_path):
        code = run(
            "train", "--data", str(tmp_path / "nope.txt"), "--loss", "listmle",
            "--seed", "1", "--out-params", str(tmp_path / "p.txt"),
        )
        assert code == EXIT_FAILURE

    def test_eval_data_dim_mismatch_is_usage_error_before_training(self, tmp_path, capsys):
        data = gen(tmp_path, name="train.txt", dim=4)
        eval_data = gen(tmp_path, name="eval.txt", dim=3)
        params_path = tmp_path / "p.txt"
        code = run(
            "train", "--data", str(data), "--loss", "listmle", "--epochs", "2",
            "--seed", "3", "--eval-data", str(eval_data), "--out-params", str(params_path),
        )
        assert code == EXIT_USAGE
        assert "feature_dim 3" in capsys.readouterr().err
        assert not params_path.exists()

    @pytest.mark.parametrize("short_split", ["train", "eval"])
    def test_single_item_sample_is_usage_error_before_training(
        self, tmp_path, capsys, short_split
    ):
        from depthrank.core import RankedSample
        from depthrank.data import Dataset, write_dataset

        splits = {"train": gen(tmp_path), "eval": gen(tmp_path, name="e.txt")}
        write_dataset(Dataset(samples=(
            RankedSample(id="a", items=np.ones((3, 4)), gt_scores=[1.0, 2.0, 3.0]),
            RankedSample(id="b", items=np.ones((1, 4)), gt_scores=[1.0]),
        )), splits[short_split])
        params_path = tmp_path / "p.txt"
        code = run(
            "train", "--data", str(splits["train"]), "--eval-data", str(splits["eval"]),
            "--loss", "listmle", "--epochs", "2", "--seed", "3",
            "--out-params", str(params_path),
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: sample 'b' has fewer than two items\n"
        assert not params_path.exists()

    def test_separate_eval_dataset(self, tmp_path):
        data = gen(tmp_path, name="train.txt", seed=11)
        eval_data = gen(tmp_path, name="eval.txt", seed=12)
        report_path = tmp_path / "r.txt"
        code = run(
            "train", "--data", str(data), "--loss", "listmle", "--epochs", "3",
            "--seed", "3", "--eval-data", str(eval_data),
            "--out-params", str(tmp_path / "p.txt"), "--out-report", str(report_path),
        )
        assert code == EXIT_OK
        text = report_path.read_text()
        train_whdr = [ln for ln in text.splitlines() if ln.startswith("metrics.train.whdr=")]
        eval_whdr = [ln for ln in text.splitlines() if ln.startswith("metrics.eval.whdr=")]
        assert train_whdr and eval_whdr
        # different generator seeds: the same scorer cannot score both identically
        assert train_whdr[0].split("=")[1] != eval_whdr[0].split("=")[1]

    def test_training_set_evaluated_once(self, tmp_path, monkeypatch):
        # without --eval-data the eval split reuses the train split's report;
        # passing the training file as --eval-data gives the same bytes
        import depthrank.metrics

        data = gen(tmp_path)
        calls = []
        evaluate = depthrank.metrics.evaluate

        def counting(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(depthrank.metrics, "evaluate", counting)
        reports, counts = [], []
        for extra in ([], ["--eval-data", str(data)]):
            calls.clear()
            report_path = tmp_path / f"r{len(reports)}.txt"
            assert run(
                "train", "--data", str(data), "--loss", "listmle", "--epochs", "2",
                "--seed", "3", "--out-params", str(tmp_path / "p.txt"),
                "--out-report", str(report_path), *extra,
            ) == EXIT_OK
            reports.append(report_path.read_bytes())
            counts.append(len(calls))
        assert counts == [1, 2]
        assert reports[0] == reports[1]


class TestEvalCommand:
    def test_hidden_scorer_is_perfect(self, tmp_path, capsys):
        data = gen(tmp_path, n_samples=4, items=10)
        ds = read_dataset(data)
        w = np.array([float.fromhex(t) for t in ds.meta["hidden"]["w"]])
        params_path = tmp_path / "hidden.txt"
        write_params(LinearScorer(w=w, b=0.0), params_path)
        code = run("eval", "--params", str(params_path), "--data", str(data))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "metrics.eval.whdr=0.0" in out
        assert "metrics.eval.map=1.0" in out
        assert "metrics.eval.ndcg=1.0" in out

    def test_zero_params_flag_degenerate_ties(self, tmp_path, capsys):
        data = gen(tmp_path)
        params_path = tmp_path / "zero.txt"
        write_params(LinearScorer(w=np.zeros(4), b=0.0), params_path)
        code = run("eval", "--params", str(params_path), "--data", str(data))
        assert code == EXIT_OK
        assert "degenerate-pred-ties" in capsys.readouterr().out

    def test_pred_tie_threshold_flag(self, tmp_path, capsys):
        data = gen(tmp_path, n_samples=2, items=5)
        params_path = tmp_path / "p.txt"
        write_params(LinearScorer(w=np.full(4, 1e-9), b=0.0), params_path)
        capsys.readouterr()
        # scores differ by ~1e-9: a large threshold turns every prediction
        # into a tie, so every strictly ordered gt pair is counted wrong
        code = run(
            "eval", "--params", str(params_path), "--data", str(data),
            "--pred-tie-threshold", "1000",
        )
        assert code == EXIT_OK
        assert "metrics.eval.whdr=1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["-1", "nan", "inf"])
    def test_invalid_pred_tie_threshold_is_usage_error(self, tmp_path, capsys, bad):
        data = gen(tmp_path, n_samples=2, items=5)
        params_path = tmp_path / "p.txt"
        write_params(LinearScorer(w=np.ones(4), b=0.0), params_path)
        capsys.readouterr()
        code = run(
            "eval", "--params", str(params_path), "--data", str(data),
            "--pred-tie-threshold", bad,
        )
        assert code == EXIT_USAGE
        assert "pred_tie_threshold" in capsys.readouterr().err

    def test_negative_zero_pred_tie_threshold_is_zero(self, tmp_path):
        data = gen(tmp_path, n_samples=2, items=5)
        params_path = tmp_path / "p.txt"
        write_params(LinearScorer(w=np.ones(4), b=0.0), params_path)
        texts = []
        for value in ("0", "-0.0"):
            out = tmp_path / f"r{value}.txt"
            assert run(
                "eval", "--params", str(params_path), "--data", str(data),
                "--pred-tie-threshold", value, "--out-report", str(out),
            ) == EXIT_OK
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_dim_mismatch_is_usage_error(self, tmp_path, capsys):
        data = gen(tmp_path, dim=4)
        params_path = tmp_path / "p.txt"
        write_params(LinearScorer(w=np.zeros(3), b=0.0), params_path)
        code = run("eval", "--params", str(params_path), "--data", str(data))
        assert code == EXIT_USAGE
        assert "feature_dim" in capsys.readouterr().err

    def test_malformed_params_file_is_failure_at_its_line(self, tmp_path, capsys):
        data = gen(tmp_path, dim=4)
        params_path = tmp_path / "p.txt"
        write_params(LinearScorer(w=np.zeros(4), b=0.0), params_path)
        lines = params_path.read_text().splitlines()
        params_path.write_text("\n".join([lines[0], "w nan 0x0p+0 0x0p+0 0x0p+0", lines[2]]))
        code = run("eval", "--params", str(params_path), "--data", str(data))
        assert code == EXIT_FAILURE
        assert capsys.readouterr().err.startswith("error: line 2: ")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_ascii_dataset_is_failure_at_its_line(self, tmp_path, capsys, command):
        data = gen(tmp_path, dim=4)
        params_path = tmp_path / "p.txt"
        write_params(LinearScorer(w=np.zeros(4), b=0.0), params_path)
        lines = data.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"s00001", b"s0000\xb9")
        data.write_bytes(b"\n".join(lines))
        argv = {
            "train": ["--loss", "listmle", "--seed", "1", "--out-params", str(tmp_path / "q.txt")],
            "eval": ["--params", str(params_path)],
        }[command]
        code = run(command, "--data", str(data), *argv)
        assert code == EXIT_FAILURE
        assert capsys.readouterr().err == "error: line 3: non-ASCII byte 0xb9\n"
        assert not (tmp_path / "q.txt").exists()

    def test_compare_dim_mismatch_is_usage_error(self, tmp_path, capsys):
        data = gen(tmp_path, dim=4)
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        write_params(LinearScorer(w=np.zeros(4), b=0.0), good)
        write_params(LinearScorer(w=np.zeros(3), b=0.0), bad)
        code = run("eval", "--params", str(good), "--data", str(data), "--compare", str(bad))
        assert code == EXIT_USAGE
        assert "feature_dim 3" in capsys.readouterr().err

    def test_compare_golden_format(self, tmp_path):
        data = gen(tmp_path, n_samples=2, items=4, dim=2, seed=9)
        ds = read_dataset(data)
        w = np.array([float.fromhex(t) for t in ds.meta["hidden"]["w"]])
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_params(LinearScorer(w=w, b=0.0), a)
        write_params(LinearScorer(w=-w, b=0.0), b)
        out_path = tmp_path / "cmp.txt"
        code = run(
            "eval", "--params", str(a), "--data", str(data),
            "--compare", str(b), "--out-report", str(out_path),
        )
        assert code == EXIT_OK
        text = out_path.read_text()
        lines = text.splitlines()
        assert lines[0].split() == ["metric", str(a), str(b)]
        assert lines[1].startswith("whdr")
        assert lines[2].startswith("map")
        assert lines[3].startswith("ndcg")
        # perfect scorer on the left, fully inverted on the right
        assert "0.000000" in lines[1] and "1.000000" in lines[1]

    def test_human_format(self, tmp_path, capsys):
        data = gen(tmp_path)
        params_path = tmp_path / "p.txt"
        write_params(LinearScorer(w=np.zeros(4), b=0.0), params_path)
        capsys.readouterr()  # drop the gen-data summary line
        code = run(
            "eval", "--params", str(params_path), "--data", str(data),
            "--format", "human",
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "metrics.eval.whdr" in out and "=" not in out.splitlines()[0]


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        assert run("gradcheck", "--instances", "2") == EXIT_OK
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_zero_tolerance_fails(self, capsys):
        assert run("gradcheck", "--instances", "1", "--tol", "0") == EXIT_FAILURE
        assert "FAIL" in capsys.readouterr().out

    def test_case_filter(self, capsys):
        assert run("gradcheck", "--instances", "1", "--cases", "pairwise") == EXIT_OK
        out = capsys.readouterr().out
        assert "pairwise/linear" in out
        assert "listnet" not in out

    def test_unknown_filter_is_usage_error(self):
        assert run("gradcheck", "--cases", "zzz") == EXIT_USAGE


class TestPipelineReproducibility:
    def test_gen_train_eval_byte_identical(self, tmp_path, monkeypatch):
        # identical flags from identical working directories must reproduce
        # every artifact byte for byte (paths echoed in reports included)
        reports = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            monkeypatch.chdir(d)
            assert run(
                "gen-data", "--n-samples", "5", "--items", "6", "--dim", "3",
                "--seed", "21", "--out", "data.txt",
            ) == EXIT_OK
            assert run(
                "train", "--data", "data.txt", "--loss", "listmle", "--epochs", "4",
                "--lr", "0.05", "--batch", "2", "--seed", "8",
                "--out-params", "params.txt", "--out-report", "train.txt",
            ) == EXIT_OK
            assert run(
                "eval", "--params", "params.txt", "--data", "data.txt",
                "--out-report", "report.txt",
            ) == EXIT_OK
            reports.append(tuple(
                (d / name).read_bytes()
                for name in ("data.txt", "params.txt", "train.txt", "report.txt")
            ))
        assert reports[0] == reports[1]


def test_console_entrypoint_smoke(tmp_path):
    out = tmp_path / "d.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "depthrank.cli", "gen-data", "--n-samples", "1",
         "--items", "3", "--dim", "2", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
