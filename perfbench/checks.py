"""Reference computations for the benchmark's correctness checks.

Nothing here imports ``depthrank``.  Files are parsed with
``float.fromhex``, scores come from plain numpy, WHDR is a merge-sort
count of discordant pairs (Knight's method) and MAP is evaluated cut by
cut, so a fault in the package's own pair arrays, MAP matrix, readers or
scorers shows up as a disagreement instead of being repeated here.

Tie conventions follow the package contract: an order is by descending
value with ascending index breaking ties, and a pair is tied when its two
values are equal (both tie thresholds are 0 in every workload).
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

DATASET_FORMAT = "depthrank.dataset.v1"
PARAMS_FORMAT = "depthrank.params.v1"


class Ops:
    """Counts the operations a run attempts and the ones that fail.

    A failed check also marks the run incorrect; a program call that
    raises only counts as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []

    def call(self, name, fn, *args):
        """Run one program operation; returns its result, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name, fn, *args):
        """Run one check; ``fn`` returns a true value when the outputs are right.

        Returns that value, or None when the check failed.
        """
        self.attempted += 1
        try:
            value = fn(*args)
            detail = ""
        except Exception as exc:  # a check that cannot be computed has failed
            value = None
            detail = f": {type(exc).__name__}: {exc}"
        if not value:
            self.failed += 1
            self.correct = False
            self.errors.append(f"check {name} failed{detail}")
            return None
        return value


# ---------------------------------------------------------------- files

def parse_dataset(text: str):
    """(meta, [(id, features (n, d), raw scores (n,))]) from dataset text."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    head = lines[0].split(" ", 3)
    if head[0] != DATASET_FORMAT:
        raise ValueError(f"not a dataset file: {head[0]!r}")
    fields = dict(part.split("=", 1) for part in head[1:])
    dim, count = int(fields["dim"]), int(fields["samples"])
    if len(lines) - 1 != count:
        raise ValueError(f"header says {count} samples, file has {len(lines) - 1}")
    samples = []
    for line in lines[1:]:
        tok = line.split(" ")
        n, d = int(tok[1]), int(tok[2])
        if d != dim or len(tok) != 3 + n * d + n:
            raise ValueError(f"sample {tok[0]!r}: bad shape or token count")
        values = [float.fromhex(t) for t in tok[3:]]
        feats = np.array(values[: n * d]).reshape(n, d)
        samples.append((tok[0], feats, np.array(values[n * d :])))
    return json.loads(fields["meta"]), samples


def parse_params(text: str) -> dict:
    """Scorer family and arrays from params text."""
    lines = text.rstrip("\n").split("\n")
    head = lines[0].split(" ")
    if head[0] != PARAMS_FORMAT:
        raise ValueError(f"not a params file: {head[0]!r}")
    fields = dict(part.split("=", 1) for part in head[1:])
    out = {"family": fields["family"]}
    for line in lines[1:]:
        name, *tok = line.split(" ")
        out[name] = np.array([float.fromhex(t) for t in tok])
    dim = int(fields["dim"])
    if out["family"] == "linear":
        if out["w"].size != dim or out["b"].size != 1:
            raise ValueError("linear params have the wrong shape")
    else:
        h = int(fields["hidden"])
        out["w_hidden"] = out["w_hidden"].reshape(h, dim)
        if out["b_hidden"].size != h or out["w_out"].size != h or out["b_out"].size != 1:
            raise ValueError("mlp params have the wrong shape")
    return out


def linear_params(w, b) -> dict:
    return {"family": "linear", "w": np.asarray(w, dtype=np.float64), "b": np.array([b])}


def scores(params: dict, features: np.ndarray) -> np.ndarray:
    """Per-item scores: ``x @ w + b`` or the one-hidden-layer tanh network."""
    if params["family"] == "linear":
        return features @ params["w"] + params["b"][0]
    hidden = np.tanh(features @ params["w_hidden"].T + params["b_hidden"])
    return hidden @ params["w_out"] + params["b_out"][0]


def hidden_scores(meta: dict, features: np.ndarray) -> np.ndarray:
    """Noise-free scores of the dataset's hidden generator, from its meta."""
    hidden = meta["hidden"]
    vec = {k: np.array([float.fromhex(t) for t in v]) for k, v in hidden.items()
           if isinstance(v, list)}
    if hidden["family"] == "linear":
        return features @ vec["w"]
    h, d = hidden["hidden"], features.shape[1]
    return np.tanh(features @ vec["w_hidden"].reshape(h, d).T + vec["b_hidden"]) @ vec["w_out"]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def fingerprint(*parts) -> str:
    """sha256 over byte strings, text and float arrays, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part, dtype=np.float64).tobytes()
        elif isinstance(part, str):
            part = part.encode()
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


# ---------------------------------------------------------------- metrics

def descending_order(values) -> list[int]:
    """Indices by descending value, ascending index among equal values."""
    vals = [float(v) for v in values]
    return sorted(range(len(vals)), key=lambda i: (-vals[i], i))


def _tied_pairs(sorted_keys) -> int:
    """Number of equal pairs in a sorted sequence (sum of c(c-1)/2 over runs)."""
    total = run = 0
    prev = object()
    for key in sorted_keys:
        run = run + 1 if key == prev else 1
        total += run - 1
        prev = key
    return total


def _inversions(seq: list) -> int:
    """Pairs i < j with seq[i] > seq[j], by bottom-up merge sort."""
    a = list(seq)
    n = len(a)
    buf = [None] * n
    inv = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid, hi = min(lo + width, n), min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if a[j] < a[i]:
                    buf[k] = a[j]
                    j += 1
                    inv += mid - i
                else:
                    buf[k] = a[i]
                    i += 1
                k += 1
            buf[k : k + mid - i] = a[i:mid]
            k += mid - i
            buf[k : k + hi - j] = a[j:hi]
        a, buf = buf, a
        width *= 2
    return inv


def whdr_counts(gt, pred) -> tuple[int, int]:
    """(misordered pairs, pairs) over every item pair of one list.

    A pair is misordered when its ground-truth label and its predicted
    label differ, each label being +1, -1 or 0 (tie).  That is the
    discordant pairs plus the pairs tied on exactly one side.
    """
    gt = [float(v) for v in gt]
    pred = [float(v) for v in pred]
    n = len(gt)
    by_gt = sorted(range(n), key=lambda i: (gt[i], pred[i]))
    ties_gt = _tied_pairs(gt[i] for i in by_gt)
    ties_both = _tied_pairs((gt[i], pred[i]) for i in by_gt)
    ties_pred = _tied_pairs(sorted(pred))
    discordant = _inversions([pred[i] for i in by_gt])
    wrong = discordant + (ties_gt - ties_both) + (ties_pred - ties_both)
    return wrong, n * (n - 1) // 2


def sample_maps(gt_lists, pred_lists) -> list[float]:
    """MAP over ground-truth cuts k = 1..n-1 for each list, cut by cut.

    At cut k the top-k ground-truth items are the positives; with p_1 <
    ... < p_k their 1-based predicted positions, AP is (1/k) sum_j j/p_j.
    Lists of equal length are done together, one cut at a time.
    """
    out = [0.0] * len(gt_lists)
    by_len: dict[int, list[int]] = {}
    for idx, gt in enumerate(gt_lists):
        by_len.setdefault(len(gt), []).append(idx)
    for n, members in by_len.items():
        if n < 2:
            raise ValueError("MAP needs lists of at least two items")
        pos = np.empty((len(members), n))
        for row, idx in enumerate(members):
            rank = np.empty(n)
            rank[descending_order(pred_lists[idx])] = np.arange(1, n + 1)
            pos[row] = rank[descending_order(gt_lists[idx])]
        total = np.zeros(len(members))
        for k in range(1, n):
            top = np.sort(pos[:, :k], axis=1)
            total += (np.arange(1, k + 1) / top).sum(axis=1) / k
        for row, idx in enumerate(members):
            out[idx] = float(total[row]) / (n - 1)
    return out


def dataset_metrics(gt_lists, pred_lists) -> dict:
    """Pooled WHDR, mean MAP and pair count over a list of samples."""
    wrong = total = 0
    for gt, pred in zip(gt_lists, pred_lists):
        w, t = whdr_counts(gt, pred)
        wrong += w
        total += t
    maps = sample_maps(gt_lists, pred_lists)
    return {
        "wrong": wrong,
        "pairs": total,
        "whdr": wrong / total,
        "map": math.fsum(maps) / len(maps),
    }


def report_fields(text: str) -> dict:
    """``key=value`` lines of a machine-form report."""
    return dict(line.split("=", 1) for line in text.rstrip("\n").split("\n"))
