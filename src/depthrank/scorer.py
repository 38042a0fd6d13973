"""Trainable scorers and their params files.

A scorer maps item feature vectors to ranking scores: a linear model
``x . w + b`` or a one-hidden-layer tanh network.  Each family is a
frozen dataclass whose fields are its parameter layout, declared once in
the order of the flat parameter vector and of the params file, each with
its shape in the named sizes ``dim`` (features) and ``hidden`` (MLP
width).  The constructor check, :func:`params_to_vector`,
:func:`vector_to_params`, :func:`write_params` and :func:`read_params`
are each one loop over that layout; only the forward pass (:func:`score`),
its Jacobian (:func:`_param_grad_from_scores`) and the initial draws are
written per family.  Training, backprop and gradient checks live in
:mod:`depthrank.trainer`.

Params file format (``depthrank.params.v1``) — line-delimited text with
the hex-float encoding and header reader of :mod:`depthrank.data`,
bit-exact on round-trip, one record per field in layout order:

    depthrank.params.v1 family=linear dim=<d>
    w <d hex-floats>
    b <hex-float>

    depthrank.params.v1 family=mlp dim=<d> hidden=<h>
    w_hidden <h*d hex-floats, row-major>
    b_hidden <h hex-floats>
    w_out <h hex-floats>
    b_out <hex-float>

A malformed file raises :class:`DatasetFormatError` naming its line.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import _format_floats, _parse_count, _parse_floats, _read_text, _write_records
from .errors import DatasetFormatError, InvalidInputError
from .rng import SplitMix64

PARAMS_FORMAT = "depthrank.params.v1"

SCORER_LINEAR = "linear"
SCORER_MLP = "mlp"

# The named sizes a layout's shapes are written in, in params-header order.
SIZES = ("dim", "hidden")


def _param(*axes: str):
    """A parameter field of shape ``axes`` (names from SIZES); ``()`` is a float."""
    return field(metadata={"axes": axes})


@functools.cache
def _layout(cls) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """(field name, axes) of a scorer family, in vector and file order."""
    return tuple((f.name, f.metadata["axes"]) for f in fields(cls))


class _Scorer:
    """The layout-driven check shared by the scorer families.

    Fields become read-only float64 copies (scalars stay floats); every
    field's shape must agree on each named size, which must be >= 1, and
    every value must be finite.  ``sizes`` maps each size the family uses
    to its value, in SIZES order.
    """

    family: str
    sizes: dict[str, int]

    def __post_init__(self):
        sizes = {}
        for name, axes in _layout(type(self)):
            value = np.array(getattr(self, name), dtype=np.float64)
            value.flags.writeable = False
            if value.ndim != len(axes) or any(
                sizes.setdefault(axis, n) != n for axis, n in zip(axes, value.shape)
            ):
                raise InvalidInputError(f"{self.family} scorer parameter shapes are inconsistent")
            if not np.isfinite(value).all():
                raise InvalidInputError(f"{self.family} scorer parameters must be finite")
            object.__setattr__(self, name, value if axes else float(value))
        if min(sizes.values()) < 1:
            raise InvalidInputError(f"{self.family} scorer sizes must be >= 1: {sizes}")
        object.__setattr__(self, "sizes", {axis: sizes[axis] for axis in SIZES if axis in sizes})

    @property
    def dim(self) -> int:
        return self.sizes["dim"]


@dataclass(frozen=True)
class LinearScorer(_Scorer):
    """Scores are ``x . w + b`` per item."""

    w: np.ndarray = _param("dim")
    b: float = _param()

    family = SCORER_LINEAR


@dataclass(frozen=True)
class MlpScorer(_Scorer):
    """One tanh hidden layer: ``tanh(x W_h^T + b_h) . w_o + b_o``."""

    w_hidden: np.ndarray = _param("hidden", "dim")
    b_hidden: np.ndarray = _param("hidden")
    w_out: np.ndarray = _param("hidden")
    b_out: float = _param()

    family = SCORER_MLP

    @property
    def hidden(self) -> int:
        return self.sizes["hidden"]


ScorerParams = LinearScorer | MlpScorer
_FAMILIES = {cls.family: cls for cls in (LinearScorer, MlpScorer)}
SCORER_FAMILIES = tuple(_FAMILIES)


def score(params: ScorerParams, features) -> np.ndarray:
    """Per-item ranking scores for an (n, d) feature matrix, or (b, n)
    scores for a stack of ``b`` such matrices."""
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != params.dim:
        raise InvalidInputError(
            f"features must be (n, {params.dim}) or (b, n, {params.dim}), got shape {x.shape}"
        )
    if isinstance(params, LinearScorer):
        return x @ params.w + params.b
    hidden = np.tanh(x @ params.w_hidden.T + params.b_hidden)
    return hidden @ params.w_out + params.b_out


def _param_grad_from_scores(params: ScorerParams, x: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Chain rule: flat parameter gradients J^T dz, one row per list, for
    (b, n, d) features ``x``, their (b, n) score gradients ``dz`` and the
    scorer Jacobian J.

    Every product is one matrix-vector or matrix-matrix product per list,
    so each row equals the gradient of that list computed alone.
    """
    dz_col = dz[..., None]
    dz_sum = dz.sum(axis=-1, keepdims=True)
    if isinstance(params, LinearScorer):
        return np.concatenate([(x.swapaxes(-1, -2) @ dz_col)[..., 0], dz_sum], axis=-1)
    pre = x @ params.w_hidden.T + params.b_hidden
    hidden = np.tanh(pre)
    d_hidden = dz_col * params.w_out
    d_pre = d_hidden * (1.0 - hidden * hidden)
    d_w_hidden = d_pre.swapaxes(-1, -2) @ x
    return np.concatenate([
        d_w_hidden.reshape(*d_w_hidden.shape[:-2], -1),
        d_pre.sum(axis=-2),
        (hidden.swapaxes(-1, -2) @ dz_col)[..., 0],
        dz_sum,
    ], axis=-1)


def init_params(family: str, dim: int, hidden_size: int, rng: SplitMix64) -> ScorerParams:
    """Zero-initialized linear scorer, or an MLP with symmetric uniform
    weights scaled by 1/sqrt(fan-in) and zero biases."""
    if family == SCORER_LINEAR:
        return LinearScorer(w=np.zeros(dim), b=0.0)
    h = hidden_size
    w_hidden = (2.0 * rng.uniforms(h * dim) - 1.0).reshape(h, dim) / math.sqrt(dim)
    w_out = (2.0 * rng.uniforms(h) - 1.0) / math.sqrt(h)
    return MlpScorer(w_hidden=w_hidden, b_hidden=np.zeros(h), w_out=w_out, b_out=0.0)


def random_params(family: str, dim: int, hidden_size: int, rng: SplitMix64) -> ScorerParams:
    """Gaussian parameters with nonzero biases, for gradient checks."""
    if family == SCORER_LINEAR:
        return LinearScorer(w=rng.normals(dim), b=float(rng.normals(1)[0]))
    h = hidden_size
    return MlpScorer(
        w_hidden=rng.normals(h * dim).reshape(h, dim) / math.sqrt(dim),
        b_hidden=0.3 * rng.normals(h),
        w_out=rng.normals(h) / math.sqrt(h),
        b_out=float(rng.normals(1)[0]),
    )


def params_to_vector(params: ScorerParams) -> np.ndarray:
    return np.concatenate([np.ravel(getattr(params, name)) for name, _ in _layout(type(params))])


@functools.lru_cache(maxsize=64)  # one entry per family and sizes in use
def _shapes(cls, sizes: tuple[tuple[str, int], ...]) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(field name, shape) of a scorer family at ``sizes``, its (axis, n) items."""
    sizes = dict(sizes)
    return tuple((name, tuple(sizes[axis] for axis in axes)) for name, axes in _layout(cls))


def vector_to_params(vec: np.ndarray, template: ScorerParams) -> ScorerParams:
    """A scorer of the template's family and sizes holding ``vec``.

    The flat vector is checked once, for its size and for finite values,
    and copied once into a read-only array; each field is a view of that
    copy (scalars are floats).  The template's layout and sizes passed the
    constructor check already, so no per-field check runs again: this is
    the call each SGD step makes.
    """
    cls = type(template)
    shapes = _shapes(cls, tuple(template.sizes.items()))
    count = sum(math.prod(shape) for _, shape in shapes)
    vec = np.array(np.ravel(vec), dtype=np.float64)  # owns its data: views stay read-only
    if vec.size != count:
        raise InvalidInputError(f"expected {count} parameters, got {vec.size}")
    if not np.isfinite(vec).all():
        raise InvalidInputError(f"{template.family} scorer parameters must be finite")
    vec.flags.writeable = False
    params = object.__new__(cls)
    start = 0
    for name, shape in shapes:
        stop = start + math.prod(shape)
        value = vec[start:stop].reshape(shape)
        object.__setattr__(params, name, value if shape else float(value))
        start = stop
    object.__setattr__(params, "sizes", dict(template.sizes))
    return params


def write_params(params: ScorerParams, path) -> None:
    header = [PARAMS_FORMAT, f"family={params.family}"]
    header += [f"{axis}={n}" for axis, n in params.sizes.items()]
    _write_records(path, " ".join(header), (
        b"%s %s" % (name.encode("ascii"), _format_floats(getattr(params, name)))
        for name, _ in _layout(type(params))
    ))


def _params_header(header: dict):
    family = header["family"]
    cls = _FAMILIES.get(family)
    if cls is None:
        raise DatasetFormatError(f"unknown scorer family {family!r}", line=1)
    used = {axis for _, axes in _layout(cls) for axis in axes}
    sizes = {axis: _parse_count(axis, header[axis]) for axis in SIZES if axis in used}
    for axis, n in sizes.items():
        if n < 1:
            raise ValueError(f"{axis} must be >= 1: {n}")
    return cls, sizes


def _read_record(lines: list[str], line_no: int, name: str, shape: tuple[int, ...]) -> np.ndarray:
    if line_no > len(lines):
        raise DatasetFormatError(f"missing {name!r} record", line=line_no)
    line = lines[line_no - 1]
    found, _, text = line.partition(" ")
    count, found_count = math.prod(shape), line.count(" ")
    if found != name or found_count != count:
        raise DatasetFormatError(
            f"expected {name!r} with {count} values, got {found!r} with {found_count}",
            line=line_no,
        )
    values = _parse_floats(text, line_no)
    if not np.isfinite(values).all():
        raise DatasetFormatError(f"{name!r} values must be finite", line=line_no)
    return values.reshape(shape)


def read_params(path) -> ScorerParams:
    """Parse a params file; a malformed one raises :class:`DatasetFormatError`
    at its line."""
    lines, (cls, sizes) = _read_text(path, PARAMS_FORMAT, _params_header)
    shapes = _shapes(cls, tuple(sizes.items()))
    values = {
        name: _read_record(lines, line_no, name, shape)
        for line_no, (name, shape) in enumerate(shapes, start=2)
    }
    for line_no in range(len(shapes) + 2, len(lines) + 1):
        if lines[line_no - 1].strip():
            raise DatasetFormatError("unexpected record after the last parameter", line=line_no)
    return cls(**values)
