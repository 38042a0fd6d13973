#!/usr/bin/env python3
"""Desk-scale benchmark: train every loss on synthetic ordinal data.

Generates a noiseless dataset and a label-noise dataset, trains a linear
scorer with each of the four losses on both, and prints a metric table
per dataset plus the pairwise vs weighted-listmle comparison under
noise.  Fully deterministic for a fixed --seed; runs in a couple of
minutes on one core at the default sizes.

Usage:
    python scripts/run_desk_benchmark.py --out-dir bench_out --seed 7
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from depthrank import SyntheticSpec, TrainConfig, generate_synthetic, train, write_dataset
from depthrank import metrics
from depthrank.report import render_comparison
from depthrank.scorer import score, write_params

LOSSES = ("pairwise", "listnet", "listmle", "weighted-listmle")


def run_dataset(tag, spec, epochs, args, out_dir):
    ds = generate_synthetic(spec)
    write_dataset(ds, out_dir / f"{tag}-data.txt")
    print(f"\n=== {tag}: {spec.n_samples} samples x {spec.items_per_sample} items "
          f"x {spec.feature_dim} features, noise={spec.noise_sigma} ===")
    print(f"{'loss':<18} {'whdr':>9} {'map':>9} {'ndcg':>9} {'seconds':>8}")
    reports = {}
    for loss in LOSSES:
        cfg = TrainConfig(
            loss=loss,
            learning_rate=args.lr,
            momentum=0.9,
            epochs=epochs,
            seed=args.seed,
            batch=args.batch,
            points_per_sample=spec.items_per_sample,
            pairs_per_sample=args.pairs,
        )
        t0 = time.perf_counter()
        params, _ = train(ds, cfg)
        elapsed = time.perf_counter() - t0
        write_params(params, out_dir / f"{tag}-{loss}.params.txt")
        rep = metrics.evaluate(ds.samples, [score(params, s.items) for s in ds.samples])
        reports[loss] = rep
        print(f"{loss:<18} {rep.whdr:>9.5f} {rep.map:>9.5f} {rep.ndcg:>9.5f} {elapsed:>8.1f}")
    return reports


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="bench_out")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n-samples", type=int, default=1000)
    ap.add_argument("--items", type=int, default=20)
    ap.add_argument("--dim", type=int, default=10)
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--lr", type=float, default=0.05)
    ap.add_argument("--batch", type=int, default=100)
    ap.add_argument("--pairs", type=int, default=190)
    ap.add_argument("--quick", action="store_true",
                    help="shrink sizes for a fast smoke run")
    args = ap.parse_args()
    if args.quick:
        args.n_samples, args.epochs = 100, 30

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    base = dict(
        n_samples=args.n_samples, items_per_sample=args.items,
        feature_dim=args.dim, scorer_family="linear",
    )
    run_dataset(
        "noiseless", SyntheticSpec(noise_sigma=0.0, seed=2024, **base),
        args.epochs, args, out_dir,
    )
    noisy = run_dataset(
        "noisy", SyntheticSpec(noise_sigma=0.5, seed=2025, **base),
        args.epochs, args, out_dir,
    )

    print("\n=== pairwise vs weighted-listmle under label noise ===")
    print(render_comparison(
        "pairwise", noisy["pairwise"], "weighted-listmle", noisy["weighted-listmle"]
    ), end="")
    delta = noisy["weighted-listmle"].map - noisy["pairwise"].map
    print(f"\nmap(weighted-listmle) - map(pairwise) = {delta:+.5f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
