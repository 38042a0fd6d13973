import pytest

from depthrank.metrics import MetricReport
from depthrank.report import (
    ExperimentReport,
    render,
    render_comparison,
)
from depthrank.trainer import TrainTrace


def fixed_report(trace=None):
    """A train report whose trace, unless given, is a 3-epoch record with
    seconds set, which no report line may show."""
    if trace is None:
        trace = TrainTrace(train_loss=[3.0, 2.25, 1.5], epoch_seconds=[0.5, 0.25, 0.125],
                           final_eval_whdr=0.125, final_eval_map=0.875)
    return ExperimentReport(
        kind="train",
        seed=42,
        config={"loss": "listmle", "learning_rate": 0.05},
        metrics={
            "eval": MetricReport(
                whdr=0.125, map=0.875, ndcg=0.9375, n_samples=4, n_pairs=24,
                flags=("degenerate-pred-ties",),
            )
        },
        trace=trace,
    )


GOLDEN_MACHINE = """format=depthrank.report.v1
build=0.1.0
kind=train
seed=42
config.learning_rate=0.05
config.loss=listmle
trace.epochs=3
trace.final_train_loss=1.5
trace.final_eval_whdr=0.125
trace.final_eval_map=0.875
metrics.eval.whdr=0.125
metrics.eval.map=0.875
metrics.eval.ndcg=0.9375
metrics.eval.n_samples=4
metrics.eval.n_pairs=24
metrics.eval.flags=degenerate-pred-ties
"""


def test_machine_format_golden():
    assert render(fixed_report()) == GOLDEN_MACHINE


GOLDEN_HUMAN = """format                  depthrank.report.v1
build                   0.1.0
kind                    train
seed                    42
config.learning_rate    0.05
config.loss             listmle
trace.epochs            3
trace.final_train_loss  1.5
trace.final_eval_whdr   0.125
trace.final_eval_map    0.875
metrics.eval.whdr       0.125
metrics.eval.map        0.875
metrics.eval.ndcg       0.9375
metrics.eval.n_samples  4
metrics.eval.n_pairs    24
metrics.eval.flags      degenerate-pred-ties
"""


def test_human_format_aligns_columns():
    text = render(fixed_report(), fmt="human")
    assert text == GOLDEN_HUMAN
    lines = text.splitlines()
    assert lines[0] == "format                  depthrank.report.v1"
    assert all("=" not in line.split("  ")[0] for line in lines)


def test_empty_trace_prints_no_trace_block():
    text = render(fixed_report(TrainTrace()))
    assert "trace." not in text
    expected = [line for line in GOLDEN_MACHINE.splitlines() if not line.startswith("trace.")]
    assert text.splitlines() == expected


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(fixed_report(), fmt="yaml")


GOLDEN_COMPARISON = """metric     params-a.txt params-b.txt
whdr           0.000000     0.500000
map            1.000000     0.625000
ndcg           1.000000     0.750000
n_samples             2            2
n_pairs               8            8
"""


def test_comparison_golden():
    a = MetricReport(whdr=0.0, map=1.0, ndcg=1.0, n_samples=2, n_pairs=8)
    b = MetricReport(whdr=0.5, map=0.625, ndcg=0.75, n_samples=2, n_pairs=8)
    assert render_comparison("params-a.txt", a, "params-b.txt", b) == GOLDEN_COMPARISON


def test_eval_report_without_trace_or_seed():
    rep = ExperimentReport(kind="eval", seed=None, metrics={}, config={"data": "d.txt"})
    text = render(rep)
    assert "seed=\n" in text
    assert "trace." not in text


def test_build_version_matches_package():
    import depthrank
    from depthrank.report import BUILD_VERSION

    assert BUILD_VERSION == depthrank.__version__
