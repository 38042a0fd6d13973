#!/usr/bin/env python3
"""Run a fixed list of depthrank CLI cases and record every byte they give.

Each case runs ``python -m depthrank.cli`` in a child process with ``OUT``
as its working directory, so every path it prints is relative.  For each
case, ``OUT/<case>/`` receives ``stdout.txt``, ``stderr.txt``,
``exit.txt`` and every file the case writes.  Trees made from two source
trees show any change in CLI output with ``diff -r``.

Cases: synthetic datasets (linear, MLP, an eval set, one of 6000 items,
one of more samples than the trainer's trace eval scores, two of more
samples than the generator draws in one stream block, MLP with noise and
linear without) and a hand-written ragged dataset with tied ground truth;
every loss x scorer on both training sets, on whole samples and on
``--points 9 --pairs 11`` draws; every loss on batches of 64 (a 105-sample
set, on whole samples and on ``--points 3 --pairs 11`` draws), pairwise on
one ragged batch, and weighted ListMLE and ListNet on the noiseless
600-sample set, whose batches are large enough for the extended-precision
row sums;
``--eval-data``; the human format; ``--lr 1e308`` divergence per
loss; eval at several tie thresholds, ``--compare`` and a dimension
mismatch; gradcheck.  Hand-written files test the readers: a dataset and
a params file whose floats are valid but not written the way
``float.hex`` writes them, a dataset with ``\r\n`` line endings, and
datasets and a params file that are malformed on a known line (a bad or
overflowing float token, a non-finite feature, a signed count).  Two more
hand-written datasets are valid: one whose ground-truth span overflows
(``eval`` and a weighted-ListMLE ``train``), and one whose ground truth and
predictions tie often (``eval``).

Usage:
    python scripts/cli_cases.py OUT [--src SRC]
    diff -r OUT_A OUT_B
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
from pathlib import Path

LOSSES = ("pairwise", "listnet", "listmle", "weighted-listmle")
SCORERS = ("linear", "mlp")
TRAIN = ("--lr", "0.05", "--epochs", "3", "--batch", "4", "--seed", "7")
# Mini-batches of at least 32 lists, where the ListMLE kernel's scans step
# across columns, and large pair sets (3000 pairs per sample by default).
WIDE = ("--lr", "0.05", "--epochs", "3", "--batch", "64", "--seed", "7")
HUGE = float.fromhex("0x1.fffffffffffffp+1023")


def ragged_dataset(path: Path) -> None:
    """Samples of 2 to 15 items whose integer ground truth ties often."""
    rng = random.Random(13)
    dim = 4
    lines = []
    for k in range(11):
        n = 2 + k if k < 9 else 15
        feats = [rng.gauss(0.0, 1.0) for _ in range(n * dim)]
        gt = [float(rng.randrange(-2, 3)) for _ in range(n)]
        lines.append(" ".join([f"r{k}", str(n), str(dim), *map(float.hex, feats + gt)]))
    header = f'depthrank.dataset.v1 dim={dim} samples={len(lines)} meta={{"source":"ragged"}}'
    path.write_text("\n".join([header, *lines]) + "\n", encoding="ascii")


def tied_dataset() -> str:
    """Samples of 2 to 13 items with features in {-1, 0, 1} and integer
    ground truth, so that ``ties/params.txt`` predicts many ties on both
    sides; one sample of each repeated length has distinct predictions and
    ground truth, so a list length holds tied and untied samples."""
    rng = random.Random(19)
    combos = [[a, b, c] for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
    lines = []
    for k, n in enumerate((2, 3, 5, 8, 8, 8, 13, 13)):
        if k in (3, 6):
            feats, gt = rng.sample(combos, n), rng.sample(range(-20, 20), n)
        else:
            feats = [rng.choice(combos) for _ in range(n)]
            gt = [rng.randrange(-2, 3) for _ in range(n)]
        floats = [float(x) for x in sum(feats, []) + gt]
        lines.append(" ".join([f"t{k}", str(n), "3", *map(float.hex, floats)]))
    header = f'depthrank.dataset.v1 dim=3 samples={len(lines)} meta={{"source":"ties"}}'
    return "\n".join([header, *lines]) + "\n"


def loose_hex(x: float, k: int) -> str:
    """``x`` in one of four spellings ``float.fromhex`` reads: upper case,
    trailing mantissa zeros dropped, a "+" before a positive number, and a
    positive exponent without its "+".  The upper-case one is never how
    ``float.hex`` writes, so a record of them takes the reader's fallback."""
    text = float.hex(x)
    mantissa, exponent = text.split("p")
    forms = (text.upper(), mantissa.rstrip("0").rstrip(".") + "p" + exponent,
             text if text.startswith("-") else "+" + text, f"{mantissa}p{int(exponent)}")
    return forms[k % len(forms)]


def hand_written_files(root: Path) -> None:
    """Datasets and params files for the readers' cases."""
    rng = random.Random(17)
    dim = 3
    samples = []
    for k in range(6):
        n = 4 + k
        floats = [rng.gauss(0.0, 1.0) for _ in range(n * dim + n)]
        samples.append((f"h{k}", n, floats))
    header = f'depthrank.dataset.v1 dim={dim} samples={len(samples)} meta={{"source":"hand"}}'

    def record(sid, n, floats, fmt):
        return " ".join([sid, str(n), str(dim), *(fmt(x, i) for i, x in enumerate(floats))])

    def exact(x, i):
        return float.hex(x)

    exact_records = [record(*s, exact) for s in samples]

    def with_token(k, at, token):
        """Exact record ``k`` with its token ``at`` replaced."""
        tokens = exact_records[k].split(" ")
        tokens[at] = token
        return " ".join(tokens)

    def malformed(k, text):
        """The exact dataset with record ``k`` (line ``k + 2``) replaced."""
        return "\n".join([header, *exact_records[:k], text, *exact_records[k + 1:]]) + "\n"

    # finite ground truth whose span overflows: record 0's first and last
    # scores are the largest float and its negative
    huge = exact_records[0].split(" ")
    huge[3 + samples[0][1] * dim], huge[-1] = (-HUGE).hex(), HUGE.hex()

    files = {
        "loose/data.txt": "\n".join([header] + [record(*s, loose_hex) for s in samples]) + "\n",
        "loose/params.txt": "depthrank.params.v1 family=linear dim=3\n"
                            "w 0X1.8P+0 -0x1p-1 +0x1.0000000000000p+01\nb 0x.8p0\n",
        "crlf/data.txt": "\r\n".join([header, *exact_records]) + "\r\n",
        # a blank line before the record with the bad token: it is line 5
        "bad-token/data.txt": "\n".join([header, *exact_records[:2], "",
                                         with_token(2, 5, "0x1.gp0"), *exact_records[3:]]) + "\n",
        "overflow/data.txt": malformed(3, with_token(3, 4, "0x1p5000")),
        "overflow/params.txt": "depthrank.params.v1 family=linear dim=3\n"
                               "w 0x1p0 0x1p5000 0x1p0\nb 0x0p0\n",
        "non-finite/data.txt": malformed(1, with_token(1, 6, "inf")),
        "plus-count/data.txt": malformed(2, with_token(2, 1, "+" + str(samples[2][1]))),
        "huge-span/data.txt": malformed(0, " ".join(huge)),
        "ties/data.txt": tied_dataset(),
        "ties/params.txt": "depthrank.params.v1 family=linear dim=3\n"
                           "w 0x1p0 0x1p-1 0x1p-2\nb 0x0p0\n",
    }
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="ascii")


def cases() -> list[tuple[str, list[str]]]:
    out = [
        ("gen-linear", ["gen-data", "--n-samples", "12", "--items", "14", "--dim", "4",
                        "--noise", "0.3", "--seed", "5", "--out", "gen-linear/data.txt"]),
        ("gen-mlp", ["gen-data", "--n-samples", "10", "--items", "12", "--dim", "3",
                     "--noise", "0.2", "--family", "mlp", "--seed", "6",
                     "--out", "gen-mlp/data.txt"]),
        ("gen-eval", ["gen-data", "--n-samples", "6", "--items", "14", "--dim", "4",
                      "--seed", "9", "--out", "gen-eval/data.txt"]),
        ("gen-long", ["gen-data", "--n-samples", "12", "--items", "500", "--dim", "4",
                      "--noise", "0.5", "--seed", "10", "--out", "gen-long/data.txt"]),
        # more samples than the trainer's trace eval scores (EVAL_SAMPLES)
        ("gen-many", ["gen-data", "--n-samples", "105", "--items", "5", "--dim", "4",
                      "--noise", "0.3", "--seed", "12", "--out", "gen-many/data.txt"]),
        # more samples than one stream block of the generator holds, with odd
        # n * d and odd n, so a chunk ends mid-dataset
        ("gen-chunked", ["gen-data", "--n-samples", "600", "--items", "7", "--dim", "3",
                         "--noise", "0.2", "--family", "mlp", "--seed", "14",
                         "--out", "gen-chunked/data.txt"]),
        # noiseless and linear, over several stream blocks of the generator
        ("gen-chunked-linear", ["gen-data", "--n-samples", "600", "--items", "9", "--dim", "3",
                                "--noise", "0", "--family", "linear", "--seed", "15",
                                "--out", "gen-chunked-linear/data.txt"]),
    ]
    for data in ("gen-linear", "ragged"):
        for loss in LOSSES:
            for family in SCORERS:
                for draw, flags in (("whole", []), ("drawn", ["--points", "9", "--pairs", "11"])):
                    name = f"train-{data}-{loss}-{family}-{draw}"
                    out.append((name, ["train", "--data", f"{data}/data.txt", "--loss", loss,
                                       "--scorer", family, "--hidden", "5", *TRAIN, *flags,
                                       "--out-params", f"{name}/params.txt"]))
    out += [
        ("train-mlp-data", ["train", "--data", "gen-mlp/data.txt", "--loss", "weighted-listmle",
                            "--scorer", "mlp", *TRAIN,
                            "--out-params", "train-mlp-data/params.txt"]),
        ("train-eval-data", ["train", "--data", "gen-linear/data.txt", "--loss", "listmle",
                             "--eval-data", "gen-eval/data.txt", *TRAIN,
                             "--out-params", "train-eval-data/params.txt",
                             "--out-report", "train-eval-data/report.txt"]),
        ("train-human", ["train", "--data", "ragged/data.txt", "--loss", "weighted-listmle",
                         "--gain", "identity-one", "--discount", "identity-one", *TRAIN,
                         "--format", "human", "--out-params", "train-human/params.txt"]),
        # more items than one rank-kernel call takes
        ("train-long", ["train", "--data", "gen-long/data.txt", "--loss", "listnet", *TRAIN,
                        "--out-params", "train-long/params.txt"]),
        # trace.final_eval_* score the first 100 samples, metrics.train.* all 105
        ("train-many", ["train", "--data", "gen-many/data.txt", "--loss", "weighted-listmle",
                        *TRAIN, "--out-params", "train-many/params.txt"]),
        # one batch of 11 ragged lists, grouped by length
        ("train-wide-ragged-pairwise", ["train", "--data", "ragged/data.txt",
                                        "--loss", "pairwise", *WIDE, "--pairs", "11",
                                        "--out-params", "train-wide-ragged-pairwise/params.txt"]),
    ]
    for loss in LOSSES:
        for draw, flags in (("whole", []), ("drawn", ["--points", "3", "--pairs", "11"])):
            name = f"train-wide-many-{loss}-{draw}"
            out.append((name, ["train", "--data", "gen-many/data.txt", "--loss", loss, *WIDE,
                               *flags, "--out-params", f"{name}/params.txt"]))
    # batches of 64 lists of 9 items: the loss kernels' rows are summed in
    # the extended type, and the last batch of 24 by math.fsum
    for loss in ("weighted-listmle", "listnet"):
        name = f"train-chunked-linear-{loss}"
        out.append((name, ["train", "--data", "gen-chunked-linear/data.txt", "--loss", loss,
                           *WIDE, "--out-params", f"{name}/params.txt"]))
    for loss in LOSSES:
        name = f"train-diverge-{loss}"
        out.append((name, ["train", "--data", "gen-linear/data.txt", "--loss", loss,
                           "--lr", "1e308", "--epochs", "3", "--seed", "1",
                           "--out-params", f"{name}/params.txt"]))
    params = "train-gen-linear-weighted-listmle-linear-whole/params.txt"
    other = "train-gen-linear-pairwise-mlp-drawn/params.txt"
    for tag, threshold in (("0", "0"), ("0.1", "0.1"), ("neg", "-1")):
        out.append((f"eval-threshold-{tag}", ["eval", "--params", params, "--data",
                                              "gen-eval/data.txt",
                                              "--pred-tie-threshold", threshold]))
    out += [
        ("eval-human", ["eval", "--params", other, "--data", "gen-linear/data.txt",
                        "--format", "human", "--out-report", "eval-human/report.txt"]),
        ("eval-compare", ["eval", "--params", params, "--compare", other,
                          "--data", "gen-eval/data.txt"]),
        ("eval-dim-mismatch", ["eval", "--params", params, "--data", "gen-mlp/data.txt"]),
        ("train-loose", ["train", "--data", "loose/data.txt", "--loss", "listmle", *TRAIN,
                         "--out-params", "train-loose/params.txt"]),
        ("eval-loose", ["eval", "--params", "loose/params.txt", "--data", "loose/data.txt"]),
        ("train-crlf", ["train", "--data", "crlf/data.txt", "--loss", "listmle", *TRAIN,
                        "--out-params", "train-crlf/params.txt"]),
        ("eval-bad-token", ["eval", "--params", "loose/params.txt",
                            "--data", "bad-token/data.txt"]),
        ("eval-overflow", ["eval", "--params", "loose/params.txt",
                           "--data", "overflow/data.txt"]),
        ("eval-overflow-params", ["eval", "--params", "overflow/params.txt",
                                  "--data", "loose/data.txt"]),
        ("eval-non-finite", ["eval", "--params", "loose/params.txt",
                             "--data", "non-finite/data.txt"]),
        ("eval-plus-count", ["eval", "--params", "loose/params.txt",
                             "--data", "plus-count/data.txt"]),
        ("eval-ties", ["eval", "--params", "ties/params.txt", "--data", "ties/data.txt"]),
        ("eval-huge-span", ["eval", "--params", "loose/params.txt",
                            "--data", "huge-span/data.txt"]),
        ("train-huge-span", ["train", "--data", "huge-span/data.txt",
                             "--loss", "weighted-listmle", *TRAIN,
                             "--out-params", "train-huge-span/params.txt"]),
        ("gradcheck", ["gradcheck"]),
        ("gradcheck-mlp", ["gradcheck", "--cases", "mlp", "--seed", "3", "--instances", "4"]),
        ("gradcheck-tight", ["gradcheck", "--tol", "1e-30", "--instances", "2"]),
    ]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="directory for the case tree; must not exist or be empty")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the depthrank package to run")
    args = ap.parse_args()
    root = Path(args.out)
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        ap.error(f"{root} is not empty")
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    (root / "ragged").mkdir()
    ragged_dataset(root / "ragged" / "data.txt")
    hand_written_files(root)
    for name, argv in cases():
        case = root / name
        case.mkdir()
        proc = subprocess.run([sys.executable, "-m", "depthrank.cli", *argv], cwd=root,
                              env=env, capture_output=True)
        (case / "stdout.txt").write_bytes(proc.stdout)
        (case / "stderr.txt").write_bytes(proc.stderr)
        (case / "exit.txt").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
