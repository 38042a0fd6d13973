"""Per-layer tracing by wrapping package functions from outside.

:class:`Tracer` replaces each listed function with a timing wrapper for
the duration of a ``with`` block.  A function imported by name into other
modules (``trainer`` binds ``_sample_map``, ``sample_points`` and
``permutation_from_scores``) is replaced in every ``depthrank`` module
that binds it, so no call escapes.  Each call records one span ``[name,
start, end, parent]``; spans stay in memory until :meth:`Tracer.write`.

A listed name that no longer exists is reported in :attr:`Tracer.absent`
and its metrics are left out; the run goes on.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

PACKAGE = "depthrank"

# (module, attribute path, metric prefix): one span per call.
TIMED = [
    ("cli", "_cmd_gen_data", "cli.gen_data"),
    ("cli", "_cmd_train", "cli.train"),
    ("cli", "_cmd_eval", "cli.eval"),
    ("data", "generate_synthetic", "data.generate_synthetic"),
    ("data", "write_dataset", "data.write_dataset"),
    ("data", "read_dataset", "data.read_dataset"),
    ("data", "sample_points", "data.sample_points"),
    ("data", "sample_pair_arrays", "data.sample_pair_arrays"),
    ("rng", "SplitMix64.u64_block", "rng.SplitMix64.u64_block"),
    ("rng", "SplitMix64.permutation", "rng.SplitMix64.permutation"),
    ("core", "permutation_from_scores", "core.permutation_from_scores"),
    ("losses", "_weighted_nll", "losses.weighted_nll"),
    ("losses", "listnet_loss", "losses.listnet_loss"),
    ("losses", "position_weights", "losses.position_weights"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "backprop", "trainer.backprop"),
    ("trainer", "score", "trainer.score"),
    ("trainer", "_param_grad_from_scores", "trainer.param_grad_from_scores"),
    ("trainer", "_pairwise_batch", "trainer.pairwise_batch"),
    ("trainer", "draw_target", "trainer.draw_target"),
    ("trainer", "sgd_step", "trainer.sgd_step"),
    ("trainer", "vector_to_params", "trainer.vector_to_params"),
    ("trainer", "_trace_eval", "trainer.trace_eval"),
    ("trainer", "_make_eval_context", "trainer.make_eval_context"),
    ("trainer", "write_params", "trainer.write_params"),
    ("trainer", "read_params", "trainer.read_params"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("metrics", "_sample_map", "metrics.sample_map"),
    ("metrics", "whdr_from_arrays", "metrics.whdr_from_arrays"),
    ("metrics", "ndcg", "metrics.ndcg"),
    ("report", "render", "report.render"),
]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _eval_context_mb(args, kwargs, ctx):
    return sum(a.nbytes for a in ctx.pair_i + ctx.pair_j + ctx.pair_r) / 2**20


# Wrapped label -> (counter, unit, amount a call adds from its arguments and result).
COUNTED = {
    "data.write_dataset": ("data.write.bytes", "bytes",
                           lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    "data.read_dataset": ("data.read.bytes", "bytes",
                          lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    "rng.SplitMix64.u64_block": ("rng.u64_drawn", "count",
                                 lambda a, k, r: int(_arg(a, k, 1, "count"))),
    "trainer.make_eval_context": ("trainer.eval_context.mb", "MB", _eval_context_mb),
    "metrics.evaluate": ("metrics.evaluate.pairs", "count", lambda a, k, r: r.n_pairs),
}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Installs timing wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {counter: 0 for counter, _, _ in COUNTED.values()}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrap(self, label, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter, _, amount = COUNTED.get(label, (None, None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counts[counter] += amount(args, kwargs, result)
            return result

        return timed

    def __enter__(self):
        modules = self._modules()
        for mod_name, path, label in TIMED:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            try:
                owner, attr, original = _resolve(module, path)
            except AttributeError:
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, original)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def metrics(self) -> dict:
        """``<label>.calls``, ``<label>.self_s`` and the counters, by name."""
        calls = {label: 0 for _, _, label in TIMED if label not in self.absent}
        self_s = dict.fromkeys(calls, 0.0)
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        out = {}
        for label in calls:
            out[f"{label}.calls"] = {"value": calls[label], "unit": "count"}
            out[f"{label}.self_s"] = {"value": self_s[label], "unit": "s"}
        for label, (counter, unit, _) in COUNTED.items():
            if label not in self.absent:
                out[counter] = {"value": self.counts[counter], "unit": unit}
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end (perf_counter seconds), parent index."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
