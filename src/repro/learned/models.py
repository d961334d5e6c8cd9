"""Submodels for the recursive model index (RMI).

The reference RMI implementation supports a zoo of model types; we provide
the ones the paper's discussion relies on: linear regression, linear
spline (endpoint interpolation), cubic, log-linear and radix.  Stage-one
models must be *monotone non-decreasing* in the key -- RMI validity for
absent keys relies on monotone routing (see rmi.py) -- so fitted models
that come out non-monotone fall back to a monotone alternative, mirroring
the guard rails in the reference implementation.

All models map float64 key space to float64 position space.  ``predict``
is the scalar path used (instrumented) at lookup time; ``predict_batch``
is the vectorized path used during training and tuning.
"""

from __future__ import annotations

import abc
import hashlib
import time
from collections import OrderedDict
from typing import Sequence, Tuple

import numpy as np


# numpy moved RankWarning in 2.0.
_RANK_WARNING = getattr(
    getattr(np, "exceptions", np), "RankWarning", Warning
)


class Model(abc.ABC):
    """A CDF submodel: key -> estimated position."""

    #: Number of float64 parameters (for size accounting).
    param_count: int = 0
    #: Instruction cost of one scalar evaluation (for the cost model).
    eval_instr: int = 4

    @abc.abstractmethod
    def fit(self, keys: np.ndarray, positions: np.ndarray) -> "Model":
        """Train on float64 key/position arrays; returns self."""

    @abc.abstractmethod
    def predict(self, key: float) -> float:
        ...

    @abc.abstractmethod
    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        ...

    def is_monotone(self, lo: float, hi: float) -> bool:
        """Whether the model is non-decreasing over [lo, hi]."""
        return True

    @abc.abstractmethod
    def params(self) -> Sequence[float]:
        """Flat parameter vector (used to store leaf models in arrays)."""


class LinearModel(Model):
    """Least-squares line ``slope * key + intercept``."""

    param_count = 2
    eval_instr = 4  # fma + rounding/clamp

    def __init__(self, slope: float = 0.0, intercept: float = 0.0):
        self.slope = slope
        self.intercept = intercept

    def fit(self, keys: np.ndarray, positions: np.ndarray) -> "LinearModel":
        n = len(keys)
        if n == 0:
            self.slope, self.intercept = 0.0, 0.0
            return self
        if n == 1:
            self.slope, self.intercept = 0.0, float(positions[0])
            return self
        kx = keys.astype(np.float64)
        ky = positions.astype(np.float64)
        mean_x = kx.mean()
        mean_y = ky.mean()
        var_x = float(((kx - mean_x) ** 2).sum())
        if var_x <= 0.0:
            self.slope, self.intercept = 0.0, float(mean_y)
            return self
        cov = float(((kx - mean_x) * (ky - mean_y)).sum())
        self.slope = cov / var_x
        if self.slope < 0.0:
            # Degenerate fit on pathological bucket contents; fall back to
            # the (monotone) endpoint spline.
            spline = LinearSplineModel().fit(kx, ky)
            self.slope, self.intercept = spline.slope, spline.intercept
            return self
        self.intercept = mean_y - self.slope * mean_x
        return self

    def predict(self, key: float) -> float:
        return self.slope * key + self.intercept

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        return self.slope * keys.astype(np.float64) + self.intercept

    def params(self) -> Sequence[float]:
        return (self.slope, self.intercept)


class LinearSplineModel(LinearModel):
    """Line through the first and last training points (always monotone)."""

    def fit(self, keys: np.ndarray, positions: np.ndarray) -> "LinearSplineModel":
        n = len(keys)
        if n == 0:
            self.slope, self.intercept = 0.0, 0.0
            return self
        x0, x1 = float(keys[0]), float(keys[-1])
        y0, y1 = float(positions[0]), float(positions[-1])
        if x1 <= x0:
            self.slope, self.intercept = 0.0, y0
            return self
        self.slope = max((y1 - y0) / (x1 - x0), 0.0)
        self.intercept = y0 - self.slope * x0
        return self


def fit_linear_buckets(keys, starts, ends, kind="linear"):
    """Fit one ``kind`` model per bucket ``keys[starts[j]:ends[j]]``.

    ``kind`` is "linear" or "linear_spline"; positions are the key
    indexes.  Returns float64 arrays ``(slopes, intercepts, errors)``,
    bit-identical to a loop that fits ``make_model(kind)`` on each
    bucket and takes ``math.ceil(max |predict_batch - positions|) + 1.0``
    as its error.  An empty bucket predicts ``starts[j]`` (the position
    just past the previous non-empty bucket) with slope 0 and error 1.

    Buckets of equal length are fitted together as the rows of a
    C-contiguous 2-D array: numpy's row-wise sums use the same pairwise
    summation as the 1-D sums in :meth:`LinearModel.fit`, and each of its
    special cases is applied per row with the same predicate.
    """
    slopes = np.zeros(len(starts))
    intercepts = starts.astype(np.float64)
    errors = np.ones(len(starts))
    lengths = ends - starts
    order = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(np.diff(lengths[order])) + 1
    for rows in np.split(order, cuts):
        length = int(lengths[rows[0]])
        if length == 0:
            continue
        pos = starts[rows][:, None] + np.arange(length)
        x = keys[pos]
        y = pos.astype(np.float64)
        if kind == "linear_spline":
            slope, intercept = _spline_rows(x, y)
        else:
            slope, intercept = _linear_rows(x, y)
        err = np.abs(slope[:, None] * x + intercept[:, None] - y).max(axis=1)
        slopes[rows] = slope
        intercepts[rows] = intercept
        errors[rows] = np.ceil(err) + 1.0
    return slopes, intercepts, errors


def _linear_rows(x: np.ndarray, y: np.ndarray):
    """:meth:`LinearModel.fit` on each row of ``x``/``y``."""
    if x.shape[1] == 1:
        return np.zeros(len(x)), y[:, 0]
    mean_x = x.mean(axis=1)
    mean_y = y.mean(axis=1)
    dx = x - mean_x[:, None]
    var_x = (dx ** 2).sum(axis=1)
    cov = (dx * (y - mean_y[:, None])).sum(axis=1)
    flat = var_x <= 0.0
    slope = np.divide(cov, var_x, out=np.zeros(len(x)), where=~flat)
    intercept = np.where(flat, mean_y, mean_y - slope * mean_x)
    back = slope < 0.0
    if back.any():
        s_slope, s_intercept = _spline_rows(x, y)
        slope = np.where(back, s_slope, slope)
        intercept = np.where(back, s_intercept, intercept)
    return slope, intercept


def _spline_rows(x: np.ndarray, y: np.ndarray):
    """:meth:`LinearSplineModel.fit` on each row of ``x``/``y``."""
    x0, x1, y0, y1 = x[:, 0], x[:, -1], y[:, 0], y[:, -1]
    flat = x1 <= x0
    rise = np.divide(y1 - y0, x1 - x0, out=np.zeros(len(x)), where=~flat)
    slope = np.where(rise < 0.0, 0.0, rise)  # max(rise, 0.0), NaN kept
    return slope, np.where(flat, y0, y0 - slope * x0)


class CubicModel(Model):
    """Least-squares cubic; falls back to linear if non-monotone."""

    param_count = 4
    eval_instr = 9  # three fmas (Horner) + clamp

    def __init__(self):
        self.coeffs = np.zeros(4)  # highest power first
        self._fallback: LinearModel = None
        # Normalization keeps the Vandermonde system well-conditioned.
        self._shift = 0.0
        self._scale = 1.0

    def fit(self, keys: np.ndarray, positions: np.ndarray) -> "CubicModel":
        n = len(keys)
        if n < 8:
            self._fallback = LinearModel().fit(keys, positions)
            return self
        kx = keys.astype(np.float64)
        if kx[-1] == kx[0]:
            # Every key rounds to one double: the normalized keys are all
            # zero, and polyfit would divide by their zero column scale.
            self._fallback = LinearModel().fit(keys, positions)
            return self
        ky = positions.astype(np.float64)
        self._shift = float(kx[0])
        self._scale = max(float(kx[-1]) - self._shift, 1.0)
        t = (kx - self._shift) / self._scale
        import warnings

        try:
            with warnings.catch_warnings():
                # Near-degenerate buckets (e.g. few distinct normalized
                # keys) are expected; the monotonicity check below rejects
                # bad fits.
                warnings.simplefilter("ignore", _RANK_WARNING)
                self.coeffs = np.polyfit(t, ky, 3)
        except np.linalg.LinAlgError:
            self._fallback = LinearModel().fit(keys, positions)
            return self
        if not self._poly_monotone():
            self._fallback = LinearModel().fit(keys, positions)
        return self

    def _poly_monotone(self) -> bool:
        """Exact check that d/dt >= 0 on [0, 1].

        The derivative 3a t^2 + 2b t + c is quadratic: its minimum over
        the interval is at an endpoint or at the interior vertex.
        """
        a, b, c, _ = self.coeffs

        def deriv(t: float) -> float:
            return 3.0 * a * t * t + 2.0 * b * t + c

        candidates = [0.0, 1.0]
        if a != 0.0:
            vertex = -b / (3.0 * a)
            if 0.0 < vertex < 1.0:
                candidates.append(vertex)
        return all(deriv(t) >= -1e-9 for t in candidates)

    def predict(self, key: float) -> float:
        if self._fallback is not None:
            return self._fallback.predict(key)
        t = (key - self._shift) / self._scale
        # Monotonicity is only guaranteed on the fitted range; clamp so
        # extrapolation (keys outside the data) stays monotone too.
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        a, b, c, d = self.coeffs
        return ((a * t + b) * t + c) * t + d

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        if self._fallback is not None:
            return self._fallback.predict_batch(keys)
        t = (keys.astype(np.float64) - self._shift) / self._scale
        t = np.clip(t, 0.0, 1.0)
        a, b, c, d = self.coeffs
        return ((a * t + b) * t + c) * t + d

    def params(self) -> Sequence[float]:
        if self._fallback is not None:
            return tuple(self._fallback.params()) + (0.0, 0.0)
        return tuple(self.coeffs)


class LogLinearModel(Model):
    """Linear model in log2(key - min + 1) space; good for skewed keys."""

    param_count = 3
    eval_instr = 14  # log + fma + clamp

    def __init__(self):
        self.slope = 0.0
        self.intercept = 0.0
        self.shift = 0.0

    def fit(self, keys: np.ndarray, positions: np.ndarray) -> "LogLinearModel":
        if len(keys) == 0:
            return self
        kx = keys.astype(np.float64)
        self.shift = float(kx[0])
        logk = np.log2(kx - self.shift + 1.0)
        inner = LinearModel().fit(logk, positions.astype(np.float64))
        self.slope = max(inner.slope, 0.0)
        self.intercept = inner.intercept
        return self

    def predict(self, key: float) -> float:
        x = key - self.shift + 1.0
        if x < 1.0:
            x = 1.0
        # np.log2, not math.log2: the scalar path must be bit-identical to
        # predict_batch so RMI routing never disagrees between build time
        # and lookup time.
        return float(self.slope * np.log2(x) + self.intercept)

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        x = np.maximum(keys.astype(np.float64) - self.shift + 1.0, 1.0)
        return self.slope * np.log2(x) + self.intercept

    def params(self) -> Sequence[float]:
        return (self.slope, self.intercept, self.shift)


class RadixModel(Model):
    """Top-bits model: position proportional to (key - min) >> shift.

    Equivalent to the radix-table top layer of RBS/RS; perfectly monotone
    and needs only a subtract and a shift to evaluate.
    """

    param_count = 3
    eval_instr = 3

    def __init__(self):
        self.min_key = 0.0
        self.span = 1.0
        self.out_scale = 1.0
        self.out_base = 0.0

    def fit(self, keys: np.ndarray, positions: np.ndarray) -> "RadixModel":
        if len(keys) == 0:
            return self
        self.min_key = float(keys[0])
        self.span = max(float(keys[-1]) - self.min_key, 1.0)
        self.out_scale = float(positions[-1]) - float(positions[0])
        self.out_base = float(positions[0])
        return self

    def predict(self, key: float) -> float:
        t = (key - self.min_key) / self.span
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        return self.out_base + t * self.out_scale

    def predict_batch(self, keys: np.ndarray) -> np.ndarray:
        t = np.clip((keys.astype(np.float64) - self.min_key) / self.span, 0, 1)
        return self.out_base + t * self.out_scale

    def params(self) -> Sequence[float]:
        return (self.min_key, self.span, self.out_scale)


MODEL_TYPES = {
    "linear": LinearModel,
    "linear_spline": LinearSplineModel,
    "cubic": CubicModel,
    "loglinear": LogLinearModel,
    "radix": RadixModel,
}


def make_model(name: str) -> Model:
    try:
        return MODEL_TYPES[name]()
    except KeyError:
        known = ", ".join(sorted(MODEL_TYPES))
        raise KeyError(f"unknown model type {name!r}; known: {known}") from None


#: Fitted stage-one models, least recently used first, keyed on
#: ``(kind, n, 128-bit blake2b digest of the float64 key bytes)``.  A
#: sweep builds RMIs that differ only below the root on one key array;
#: ``--experiment all`` at default size fits roots on 10 arrays.
_ROOT_FITS: "OrderedDict[tuple, Tuple[Model, float]]" = OrderedDict()
ROOT_FIT_SLOTS = 16


def fit_root(kind: str, keys: np.ndarray) -> Tuple[Model, float]:
    """``make_model(kind)`` fitted on ``(keys, arange(n))``, once per key array.

    Returns the model and the seconds this call saved: 0.0 when it
    fitted, and the first fit's time when it returned that fit again.
    Callers charge the saved seconds to their build time, so a build
    still reports what it costs from scratch.  The returned model is
    shared between builds and must only be read.
    """
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    digest = hashlib.blake2b(keys, digest_size=16).digest()
    memo_key = (kind, len(keys), digest)
    hit = _ROOT_FITS.get(memo_key)
    if hit is not None:
        _ROOT_FITS.move_to_end(memo_key)
        return hit
    start = time.perf_counter()
    model = make_model(kind).fit(keys, np.arange(len(keys), dtype=np.float64))
    _ROOT_FITS[memo_key] = (model, time.perf_counter() - start)
    if len(_ROOT_FITS) > ROOT_FIT_SLOTS:
        _ROOT_FITS.popitem(last=False)
    return model, 0.0


def clear_root_fits() -> None:
    """Forget every memoized root fit."""
    _ROOT_FITS.clear()
