"""Statistics for the benchmark: OLS (Sec 4.3) and latency percentiles.

The paper regresses lookup time on cache misses, branch misses and
instruction count across all indexes and datasets, reporting R^2,
standardized coefficients and significance.  This module implements OLS
with t-statistics / p-values from first principles (numpy + scipy.stats),
so the same analysis runs on our measured counters.

It also provides the exact-interpolation percentile helpers the serving
simulator's tail-latency accounting uses (p50/p95/p99/p99.9): the
``inclusive`` linear-interpolation definition, identical to
``statistics.quantiles(..., method="inclusive")`` and numpy's default,
implemented here so percentiles of a latency trace are a deterministic
pure-Python function of the sorted values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

#: The tail percentiles the serving reports quote, in report order.
TAIL_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], q: float) -> float:
    """Exact linear-interpolation percentile (``q`` in [0, 100]).

    Matches ``statistics.quantiles(values, n=N, method="inclusive")`` at
    the cut points ``q = 100 * i / N`` and numpy's default
    ``np.percentile``: rank ``q/100 * (n-1)`` interpolated between the
    two bracketing order statistics.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    xs = _sorted_array(values)
    if xs.size == 0:
        raise ValueError("percentile of empty sequence")
    return _interpolate(xs, q)


def percentiles(
    values: Sequence[float], qs: Sequence[float] = TAIL_PERCENTILES
) -> Dict[float, float]:
    """Several percentiles of one sample, sorting it only once."""
    xs = _sorted_array(values)
    if xs.size == 0:
        raise ValueError("percentiles of empty sequence")
    out: Dict[float, float] = {}
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        out[q] = _interpolate(xs, q)
    return out


def _sorted_array(values: Sequence[float]) -> np.ndarray:
    """One numpy sort instead of a Python-object sort; same order (IEEE
    doubles, no NaNs expected in a latency trace), so the bracketing
    order statistics -- and therefore the result -- are unchanged."""
    return np.sort(np.asarray(values, dtype=np.float64))


def _interpolate(xs: np.ndarray, q: float) -> float:
    """The exact interpolation step, in scalar Python-float arithmetic
    (bit-identical to the historical pure-Python implementation, which
    ``tests/test_stats.py`` pins with a hypothesis parity suite)."""
    n = int(xs.size)
    if n == 1:
        return float(xs[0])
    rank = (q / 100.0) * (n - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    x_lo = float(xs[lo])
    x_hi = float(xs[hi])
    return x_lo + (x_hi - x_lo) * (rank - lo)


def p50(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def p95(values: Sequence[float]) -> float:
    return percentile(values, 95.0)


def p99(values: Sequence[float]) -> float:
    return percentile(values, 99.0)


def p999(values: Sequence[float]) -> float:
    return percentile(values, 99.9)


@dataclass
class Coefficient:
    name: str
    beta: float
    std_error: float
    t_stat: float
    p_value: float
    standardized: float

    def significant(self, alpha: float = 0.001) -> bool:
        return self.p_value < alpha


@dataclass
class RegressionResult:
    r_squared: float
    adjusted_r_squared: float
    coefficients: List[Coefficient]
    n: int

    def coefficient(self, name: str) -> Coefficient:
        for c in self.coefficients:
            if c.name == name:
                return c
        raise KeyError(name)


def _t_sf(t: np.ndarray, df: int) -> np.ndarray:
    """Two-sided p-value of a t statistic."""
    try:
        from scipy import stats

        return 2.0 * stats.t.sf(np.abs(t), df)
    except ImportError:  # pragma: no cover - scipy is an install extra
        # Normal approximation fallback.
        from math import erfc, sqrt

        return np.array([erfc(abs(x) / sqrt(2.0)) for x in np.atleast_1d(t)])


def correlations(
    features: Dict[str, Sequence[float]], y: Sequence[float]
) -> Dict[str, float]:
    """Pearson correlation of each feature with ``y`` (Figure 12 helper).

    The paper's Figure 12 eyeballs per-metric scatter plots; this is the
    numeric companion: how strongly each single metric tracks lookup time
    *on its own* (contrast with :func:`ols`, which conditions on the
    others).
    """
    y_arr = np.asarray(y, dtype=np.float64)
    out: Dict[str, float] = {}
    y_centered = y_arr - y_arr.mean()
    y_norm = float(np.sqrt((y_centered**2).sum()))
    for name, col in features.items():
        x = np.asarray(col, dtype=np.float64)
        if len(x) != len(y_arr):
            raise ValueError(f"feature {name!r} length mismatch")
        x_centered = x - x.mean()
        x_norm = float(np.sqrt((x_centered**2).sum()))
        if x_norm == 0.0 or y_norm == 0.0:
            out[name] = 0.0
        else:
            out[name] = float((x_centered @ y_centered) / (x_norm * y_norm))
    return out


def ols(features: Dict[str, Sequence[float]], y: Sequence[float]) -> RegressionResult:
    """Fit y ~ intercept + features; return fit statistics.

    ``features`` maps names to equal-length numeric columns.
    """
    names = list(features)
    y_arr = np.asarray(y, dtype=np.float64)
    n = len(y_arr)
    cols = [np.asarray(features[name], dtype=np.float64) for name in names]
    for name, col in zip(names, cols):
        if len(col) != n:
            raise ValueError(f"feature {name!r} has length {len(col)} != {n}")
    k = len(names)
    if n <= k + 1:
        raise ValueError("need more observations than parameters")

    x = np.column_stack([np.ones(n)] + cols)
    beta, _, rank, _ = np.linalg.lstsq(x, y_arr, rcond=None)
    fitted = x @ beta
    resid = y_arr - fitted
    ss_res = float(resid @ resid)
    ss_tot = float(((y_arr - y_arr.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    df = n - (k + 1)
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df if df > 0 else r2

    sigma2 = ss_res / df
    xtx_inv = np.linalg.pinv(x.T @ x)
    std_errors = np.sqrt(np.maximum(np.diag(xtx_inv) * sigma2, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(std_errors > 0, beta / std_errors, np.inf)
    p_values = _t_sf(t_stats, df)

    y_std = y_arr.std()
    coefficients = [
        Coefficient(
            name="intercept",
            beta=float(beta[0]),
            std_error=float(std_errors[0]),
            t_stat=float(t_stats[0]),
            p_value=float(p_values[0]),
            standardized=0.0,
        )
    ]
    for i, name in enumerate(names, start=1):
        x_std = cols[i - 1].std()
        standardized = float(beta[i]) * (x_std / y_std) if y_std > 0 else 0.0
        coefficients.append(
            Coefficient(
                name=name,
                beta=float(beta[i]),
                std_error=float(std_errors[i]),
                t_stat=float(t_stats[i]),
                p_value=float(p_values[i]),
                standardized=standardized,
            )
        )
    return RegressionResult(
        r_squared=r2, adjusted_r_squared=adj_r2, coefficients=coefficients, n=n
    )
