"""Experiment reports: stable key-value serialization for golden-file tests.

The machine form is one ``key=value`` pair per line in a fixed key order
(floats via ``repr``, so identical runs serialize byte-identically); the
human form is the same content as an aligned two-column table.  A train
report prints the trainer's :class:`~depthrank.trainer.TrainTrace`, all
but its seconds: neither form contains timing, so repeated runs with the
same seed produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import __version__ as BUILD_VERSION
from .metrics import MetricReport
from .trainer import TrainTrace

REPORT_FORMAT = "depthrank.report.v1"

FORMAT_MACHINE = "machine"
FORMAT_HUMAN = "human"


@dataclass(frozen=True)
class ExperimentReport:
    kind: str  # "train" | "eval"
    seed: int | None
    config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)  # split name -> MetricReport
    trace: TrainTrace | None = None  # an empty trace prints no trace block


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def report_items(report: ExperimentReport) -> list[tuple[str, str]]:
    """Flatten a report into ordered (key, value) rows."""
    rows = [
        ("format", REPORT_FORMAT),
        ("build", BUILD_VERSION),
        ("kind", report.kind),
        ("seed", _fmt(report.seed)),
    ]
    for key in sorted(report.config):
        rows.append((f"config.{key}", _fmt(report.config[key])))
    if report.trace:
        rows.append(("trace.epochs", _fmt(len(report.trace))))
        rows.append(("trace.final_train_loss", _fmt(report.trace.train_loss[-1])))
        rows.append(("trace.final_eval_whdr", _fmt(report.trace.final_eval_whdr)))
        rows.append(("trace.final_eval_map", _fmt(report.trace.final_eval_map)))
    for split in sorted(report.metrics):
        m: MetricReport = report.metrics[split]
        rows.append((f"metrics.{split}.whdr", _fmt(m.whdr)))
        rows.append((f"metrics.{split}.map", _fmt(m.map)))
        rows.append((f"metrics.{split}.ndcg", _fmt(m.ndcg)))
        rows.append((f"metrics.{split}.n_samples", _fmt(m.n_samples)))
        rows.append((f"metrics.{split}.n_pairs", _fmt(m.n_pairs)))
        rows.append((f"metrics.{split}.flags", ",".join(m.flags)))
    return rows


def render(report: ExperimentReport, fmt: str = FORMAT_MACHINE) -> str:
    rows = report_items(report)
    if fmt == FORMAT_MACHINE:
        return "\n".join(f"{k}={v}" for k, v in rows) + "\n"
    if fmt == FORMAT_HUMAN:
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def render_comparison(
    label_a: str, a: MetricReport, label_b: str, b: MetricReport
) -> str:
    """Side-by-side metric table for two scorers on the same dataset."""
    col = max(len(label_a), len(label_b), 12)
    lines = [f"{'metric':<10} {label_a:>{col}} {label_b:>{col}}"]
    for name in ("whdr", "map", "ndcg"):
        va, vb = getattr(a, name), getattr(b, name)
        lines.append(f"{name:<10} {va:>{col}.6f} {vb:>{col}.6f}")
    lines.append(f"{'n_samples':<10} {a.n_samples:>{col}} {b.n_samples:>{col}}")
    lines.append(f"{'n_pairs':<10} {a.n_pairs:>{col}} {b.n_pairs:>{col}}")
    return "\n".join(lines) + "\n"
