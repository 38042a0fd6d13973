"""Command-line harness: gen-data | train | eval | gradcheck.

Exit codes: 0 success, 1 runtime or verification failure, 2 usage error,
3 training divergence.  Every random operation requires an explicit
--seed (gradcheck defaults to a fixed seed 0); nothing is ever seeded
from the clock, so rerunning a command reproduces its outputs byte for
byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import data, losses, metrics, report, scorer, trainer
from .errors import DepthRankError, InvalidInputError, TrainingDivergedError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _field_defaults(cls) -> dict:
    """The declared defaults of a dataclass's fields, by name."""
    return {f.name: f.default for f in dataclasses.fields(cls)}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="depthrank", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    spec = _field_defaults(data.SyntheticSpec)
    pg = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    pg.add_argument("--n-samples", type=int, required=True)
    pg.add_argument("--items", type=int, default=spec["items_per_sample"])
    pg.add_argument("--dim", type=int, default=spec["feature_dim"])
    pg.add_argument("--noise", type=float, default=spec["noise_sigma"])
    pg.add_argument("--family", choices=[data.FAMILY_LINEAR, data.FAMILY_MLP],
                    default=spec["scorer_family"])
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--out", required=True)

    cfg = _field_defaults(trainer.TrainConfig)
    pt = sub.add_parser("train", help="train a scorer on a dataset file")
    pt.add_argument("--data", required=True)
    pt.add_argument("--loss", required=True)
    pt.add_argument("--lr", type=float, default=0.05)
    pt.add_argument("--momentum", type=float, default=cfg["momentum"])
    pt.add_argument("--epochs", type=int, default=100)
    pt.add_argument("--batch", type=int, default=cfg["batch"])
    pt.add_argument("--seed", type=int, required=True)
    pt.add_argument("--points", type=int, default=cfg["points_per_sample"])
    pt.add_argument("--pairs", type=int, default=cfg["pairs_per_sample"])
    pt.add_argument("--scorer", choices=list(scorer.SCORER_FAMILIES), default=cfg["scorer"])
    pt.add_argument("--hidden", type=int, default=cfg["hidden_size"])
    weights = _field_defaults(losses.WeightConfig)
    pt.add_argument("--gain", choices=losses._GAIN_KINDS, default=weights["gain"])
    pt.add_argument("--discount", choices=losses._DISCOUNT_KINDS, default=weights["discount"])
    pt.add_argument("--log-base", type=float, default=weights["log_base"])
    pt.add_argument("--eval-data", default=None)
    pt.add_argument("--out-params", required=True)
    pt.add_argument("--out-report", default=None)
    pt.add_argument("--format", choices=[report.FORMAT_MACHINE, report.FORMAT_HUMAN],
                    default=report.FORMAT_MACHINE)

    pe = sub.add_parser("eval", help="evaluate a params file on a dataset file")
    pe.add_argument("--params", required=True)
    pe.add_argument("--data", required=True)
    pe.add_argument("--compare", default=None,
                    help="second params file for a side-by-side table")
    pe.add_argument("--pred-tie-threshold", type=float, default=0.0)
    pe.add_argument("--out-report", default=None)
    pe.add_argument("--format", choices=[report.FORMAT_MACHINE, report.FORMAT_HUMAN],
                    default=report.FORMAT_MACHINE)

    pc = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    pc.add_argument("--tol", type=float, default=None,
                    help="override per-case tolerance (default 1e-5 linear, 1e-4 mlp)")
    pc.add_argument("--cases", default=None, help="substring filter on case names")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--instances", type=int, default=10)
    return p


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _cmd_gen_data(args) -> int:
    spec = data.SyntheticSpec(
        n_samples=args.n_samples,
        items_per_sample=args.items,
        feature_dim=args.dim,
        noise_sigma=args.noise,
        scorer_family=args.family,
        seed=args.seed,
    )
    ds = data.generate_synthetic(spec)
    data.write_dataset(ds, args.out)
    print(
        f"wrote {args.out}: {len(ds)} samples x {spec.items_per_sample} items "
        f"x {spec.feature_dim} features (family={spec.scorer_family}, "
        f"noise={spec.noise_sigma}, seed={spec.seed})"
    )
    return EXIT_OK


def _scores_for(params, ds: data.Dataset) -> list[np.ndarray]:
    return [scorer.score(params, s.items) for s in ds.samples]


def _check_dim(owner: str, dim: int, ds: data.Dataset, path: str) -> None:
    if dim != ds.feature_dim:
        raise _UsageError(
            f"{owner} feature_dim {dim} but dataset {path} has feature_dim {ds.feature_dim}"
        )


def _train_config(args) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        loss=args.loss,
        learning_rate=args.lr,
        momentum=args.momentum,
        epochs=args.epochs,
        batch=args.batch,
        seed=args.seed,
        points_per_sample=args.points,
        pairs_per_sample=args.pairs,
        weight_config=losses.WeightConfig(
            gain=args.gain, discount=args.discount, log_base=args.log_base
        ),
        scorer=args.scorer,
        hidden_size=args.hidden,
    )


def _train_report(args, cfg, ds, eval_ds, params, trace) -> report.ExperimentReport:
    cfg_echo = dataclasses.asdict(cfg)
    del cfg_echo["seed"]
    cfg_echo.update(cfg_echo.pop("weight_config"), data=args.data)
    splits = {}
    if params is not None:
        splits["train"] = metrics.evaluate(ds.samples, _scores_for(params, ds))
        if eval_ds is None:
            splits["eval"] = splits["train"]
        else:
            splits["eval"] = metrics.evaluate(eval_ds.samples, _scores_for(params, eval_ds))
    return report.ExperimentReport(
        kind="train", seed=cfg.seed, config=cfg_echo, metrics=splits, trace=trace
    )


def _cmd_train(args) -> int:
    cfg = _train_config(args)
    ds = data.read_dataset(args.data)
    eval_ds = data.read_dataset(args.eval_data) if args.eval_data else None
    if eval_ds is not None:
        _check_dim(f"training data {args.data} has", ds.feature_dim, eval_ds, args.eval_data)
        metrics.check_evaluable(eval_ds.samples)
    try:
        params, trace = trainer.train(ds, cfg)
    except TrainingDivergedError as exc:
        try:
            with np.errstate(over="ignore"):
                rep = _train_report(args, cfg, ds, eval_ds, exc.params, exc.trace)
        except InvalidInputError:
            # the last finite params can still score an item +-inf
            rep = _train_report(args, cfg, ds, eval_ds, None, exc.trace)
        _write_or_print(report.render(rep, args.format), args.out_report)
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    scorer.write_params(params, args.out_params)
    rep = _train_report(args, cfg, ds, eval_ds, params, trace)
    _write_or_print(report.render(rep, args.format), args.out_report)
    if args.out_report is not None:
        final = rep.metrics["eval"]
        print(
            f"trained {cfg.loss} for {cfg.epochs} epochs: "
            f"eval whdr={final.whdr:.6f} map={final.map:.6f}; params -> {args.out_params}"
        )
    return EXIT_OK


def _cmd_eval(args) -> int:
    threshold = metrics.check_tie_threshold(args.pred_tie_threshold)
    paths = [args.params] if args.compare is None else [args.params, args.compare]
    params = [scorer.read_params(path) for path in paths]
    ds = data.read_dataset(args.data)
    for p in params:
        _check_dim("params expect", p.dim, ds, args.data)
    reps = [
        metrics.evaluate(ds.samples, _scores_for(p, ds), pred_tie_threshold=threshold)
        for p in params
    ]
    if args.compare is not None:
        _write_or_print(
            report.render_comparison(args.params, reps[0], args.compare, reps[1]),
            args.out_report,
        )
        return EXIT_OK
    rep = report.ExperimentReport(
        kind="eval",
        seed=None,
        config={
            "params": args.params,
            "data": args.data,
            "pred_tie_threshold": threshold,
        },
        metrics={"eval": reps[0]},
    )
    _write_or_print(report.render(rep, args.format), args.out_report)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    tolerances = None
    if args.tol is not None:
        if args.tol < 0:
            raise _UsageError(f"--tol must be >= 0: {args.tol}")
        tolerances = dict.fromkeys(scorer.SCORER_FAMILIES, args.tol)
    if args.instances < 1:
        raise _UsageError(f"--instances must be >= 1: {args.instances}")
    rows = trainer.gradcheck_cases(
        seed=args.seed, instances=args.instances, tolerances=tolerances
    )
    if args.cases:
        rows = [row for row in rows if args.cases in row[0]]
        if not rows:
            raise _UsageError(f"no gradcheck case matches {args.cases!r}")
    failures = []
    print(f"{'case':<28} {'max-rel-error':>14} {'tolerance':>10} result")
    for name, err, tol in rows:
        ok = err < tol
        print(f"{name:<28} {err:>14.3e} {tol:>10.0e} {'pass' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)
    if failures:
        print(f"error: gradient check failed for: {', '.join(failures)}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "gen-data":
            return _cmd_gen_data(args)
        if args.cmd == "train":
            return _cmd_train(args)
        if args.cmd == "eval":
            return _cmd_eval(args)
        if args.cmd == "gradcheck":
            return _cmd_gradcheck(args)
        raise _UsageError(f"unknown command {args.cmd!r}")
    except (_UsageError, InvalidInputError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DepthRankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
