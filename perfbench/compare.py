#!/usr/bin/env python3
"""Compare two checkouts on one workload with alternating pairs of runs.

    python3 perfbench/compare.py --base ../parent --change . --workload desk-listwise

Pair i runs both checkouts with seed i; the base runs first in even pairs
and second in odd ones.  For each end-to-end metric the script prints
both medians and quartiles, the share of pairs the change won (ties count
for neither side), and a verdict: ``gain`` when the change won at least
nine tenths of the pairs and the medians differ by more than the base's
own quartile spread, ``worse`` when it is worse than the base median by
more than the metric's bound, ``unresolved`` when the base's own spread is
wider than the bound, and ``same`` otherwise.  Directions and
bounds come from the change's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: run with seed {seed} was not correct:\n{out.stderr}")
    return {k: m["value"] for k, m in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs = {"base": [], "change": []}
    for i in range(PAIRS):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, i + 1, seconds))
        print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr)

    print("metric: base median [q1, q3] | change median [q1, q3] | pairs won | verdict")
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        bq, cq = statistics.quantiles(base, n=4), statistics.quantiles(change, n=4)
        bmed, cmed = statistics.median(base), statistics.median(change)
        gain = (cmed - bmed) if higher else (bmed - cmed)
        if wins >= 0.9 * PAIRS and gain > bq[2] - bq[0]:
            verdict = "gain"
        elif -gain > m["bound"] * bmed:
            verdict = "worse"
        elif bq[2] - bq[0] > m["bound"] * bmed:
            verdict = "unresolved"
        else:
            verdict = "same"
        print(f"{name}: {bmed:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] | "
              f"{cmed:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] | {wins}/{PAIRS} | {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
