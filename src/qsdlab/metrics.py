"""Distances between measures, extinction-rate estimation, and rate fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import Stream
from .models import Interval, Torus

__all__ = [
    "EmpiricalMeasure",
    "from_particles",
    "measure_from_density",
    "w1_circle",
    "w1_line",
    "w1_auto",
    "w1_rows",
    "sliced_w1_torus",
    "estimate_theta",
    "ThetaEstimate",
    "fit_power_law",
    "fit_exponential_rate",
    "tv_finite",
    "tv_hist",
]


@dataclass
class EmpiricalMeasure:
    """Weighted atoms on a state space.

    ``support`` is ``(n,)`` or ``(n, d)`` states of ``space`` (``space.allows``);
    ``weights`` defaults to uniform and must sum to one.
    """

    support: np.ndarray
    weights: Optional[np.ndarray] = None
    space: object = Torus()

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=float)
        if self.support.size == 0:
            raise ValueError("support must be nonempty")
        if not self.space.allows(self.support):
            raise ValueError(f"atoms must be states of {self.space}")
        if self.weights is None:
            n = self.support.shape[0]
            self.weights = np.full(n, 1.0 / n)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (self.support.shape[0],):
                raise ValueError("weights must match the number of atoms")
            if not np.all(self.weights >= 0):
                raise ValueError("weights must be nonnegative")
            if abs(self.weights.sum() - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1 within 1e-12")


def from_particles(states: np.ndarray, space) -> EmpiricalMeasure:
    states = np.asarray(states, dtype=float)
    if states.ndim == 2 and states.shape[1] == 1:
        states = states[:, 0]
    return EmpiricalMeasure(states, space=space)


def measure_from_density(density, lo: float, hi: float, n: int,
                         space=Interval()) -> EmpiricalMeasure:
    """Midpoint-cell discretization of a probability density."""
    h = (hi - lo) / n
    x = lo + (np.arange(n) + 0.5) * h
    w = np.asarray(density(x), dtype=float) * h
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    return EmpiricalMeasure(x, w, space=space)


def _flat_1d(m: EmpiricalMeasure) -> np.ndarray:
    s = m.support
    if s.ndim == 2:
        if s.shape[1] != 1:
            raise ValueError("expected one-dimensional support")
        s = s[:, 0]
    return s


# w1_rows merges a block of rows at a time, each merged array holding at
# most this many entries (128 KB of floats), so its temporaries stay small
_BLOCK = 1 << 14


def _row_order(a: np.ndarray) -> np.ndarray:
    """Indices into ``a.ravel()`` that sort each row of the 2-D float ``a``
    stably, as ``argsort(kind="stable")`` does.

    The unstable argsort is several times faster and agrees wherever a row
    holds no two equal values; the rows that do are sorted stably.
    """
    offsets = np.arange(0, a.size, a.shape[1])[:, None]
    order = np.argsort(a, axis=1) + offsets
    vals = a.ravel()[order]
    tied = np.any(vals[:, 1:] == vals[:, :-1], axis=1)
    if tied.any():
        order[tied] = np.argsort(a[tied], axis=1, kind="stable") + offsets[tied]
    return order


def _merged_cdf_difference(rows: np.ndarray, weights: np.ndarray,
                           ref: EmpiricalMeasure):
    """Per row of the ``(S, n)`` positions ``rows`` with atom ``weights``:
    the merged positions of the row and of ``ref``, sorted, and the
    cumulative difference of the two distributions along them.  The sort is
    stable, so at equal positions the row's atoms come first."""
    s, m = rows.shape[0], ref.weights.size
    pos = np.concatenate([rows, np.broadcast_to(_flat_1d(ref), (s, m))], axis=1)
    delta = np.concatenate([np.broadcast_to(weights, rows.shape),
                            np.broadcast_to(-ref.weights, (s, m))], axis=1)
    order = _row_order(pos)
    return pos.ravel()[order], np.cumsum(delta.ravel()[order], axis=1)


def _w1_circle_rows(pos: np.ndarray, g: np.ndarray) -> list:
    """Circle W1 of each row of ``_merged_cdf_difference``.

    Minimizes the integral of the shifted cumulative difference over all
    rotations; the optimizer is a weighted median of the piecewise-constant
    difference, so the result is exact up to float rounding.
    """
    lengths = np.empty_like(pos)
    lengths[:, :-1] = np.diff(pos, axis=1)
    lengths[:, -1] = (pos[:, 0] + 1.0) - pos[:, -1]
    # the weighted median: the first index, in stable order of g, where
    # the cumulative length reaches half the total (searchsorted "left" on
    # the nondecreasing cumsum), and the index after it
    order = _row_order(g)
    cum = np.cumsum(lengths.ravel()[order], axis=1)
    k = np.count_nonzero(cum < 0.5 * cum[:, -1:], axis=1)
    rows = np.arange(g.shape[0])
    last = g.shape[1] - 1
    cands = [g.ravel()[order[rows, np.minimum(j, last)]] for j in (k, k + 1)]
    # fsum makes the value independent of summation order, so the terms
    # need no sorting and the distance is exactly symmetric in its
    # arguments; one list per row keeps a single row's Python floats alive
    t0, t1 = (lengths * np.abs(g - c[:, None]) for c in cands)
    out = []
    for r, c0, c1 in zip(rows.tolist(), *(c.tolist() for c in cands)):
        lo = math.fsum(t0[r].tolist())
        out.append(lo if c1 == c0 else min(lo, math.fsum(t1[r].tolist())))
    return out


def _w1_line_rows(pos: np.ndarray, g: np.ndarray) -> list:
    """Line W1 (integral of |F_a - F_b|) of each row of
    ``_merged_cdf_difference``."""
    return np.sum(np.abs(g[:, :-1]) * np.diff(pos, axis=1), axis=1).tolist()


def w1_rows(rows, ref: EmpiricalMeasure) -> list:
    """W1 on ``ref``'s space from the uniform empirical measure of each row
    of the ``(S, n)`` array ``rows`` to ``ref``; value s equals
    ``w1_auto(EmpiricalMeasure(rows[s], space=ref.space), ref)`` bit for bit.

    The rows are merged with ``ref``, sorted, accumulated and searched along
    axis 1, a block of rows at a time.  Rows outside ``ref.space`` raise
    ValueError.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.size == 0:
        raise ValueError("rows must be a nonempty (S, n) array")
    if ref.space.circle is None:
        raise ValueError(f"w1_rows needs a real space, got {ref.space}")
    if not ref.space.allows(rows):
        raise ValueError(f"atoms must be states of {ref.space}")
    n = rows.shape[1]
    weights = np.full(n, 1.0 / n)
    w1 = _w1_circle_rows if ref.space.circle else _w1_line_rows
    step = max(1, _BLOCK // (n + ref.weights.size))
    return [d for lo in range(0, rows.shape[0], step)
            for d in w1(*_merged_cdf_difference(rows[lo:lo + step], weights, ref))]


def w1_circle(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact Wasserstein-1 distance for the circle metric on [0, 1): the
    one-row case of ``w1_rows``, with ``a``'s weights."""
    if not (a.space.circle and b.space.circle):
        raise ValueError("w1_circle requires torus geometry on both sides")
    return _w1_circle_rows(*_merged_cdf_difference(_flat_1d(a)[None], a.weights, b))[0]


def w1_line(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Plain one-dimensional Wasserstein-1 (integral of |F_a - F_b|): the
    one-row case of ``w1_rows``, with ``a``'s weights.  Both measures lie
    on one real space (ValueError otherwise)."""
    if a.space != b.space or a.space.circle is None:
        raise ValueError(f"w1_line needs one real space, got {a.space} and {b.space}")
    return _w1_line_rows(*_merged_cdf_difference(_flat_1d(a)[None], a.weights, b))[0]


def w1_auto(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """W1 on the measures' one space: circle on the torus, line otherwise."""
    if a.space != b.space or a.space.circle is None:
        raise ValueError(f"w1_auto needs one real space, got {a.space} and {b.space}")
    return w1_circle(a, b) if a.space.circle else w1_line(a, b)


def sliced_w1_torus(a: EmpiricalMeasure, b: EmpiricalMeasure, n_proj: int,
                    rng: Stream):
    """Sliced Wasserstein-1 on the d-torus over rank-1 lattice directions.

    Averages ``w1_circle`` of the projections ``x -> (z . x) mod 1`` over
    ``n_proj`` random nonzero integer directions; returns (estimate,
    standard error).  In one dimension with a single projection the trivial
    direction is used and the result equals ``w1_circle`` exactly.
    """
    if n_proj < 1:
        raise ValueError("n_proj must be at least 1")
    if not (a.space.circle and b.space.circle):
        raise ValueError("sliced_w1_torus requires torus geometry")
    sa = np.atleast_2d(a.support.T).T
    sb = np.atleast_2d(b.support.T).T
    d = sa.shape[1]
    if sb.shape[1] != d:
        raise ValueError("dimension mismatch")
    vals = []
    for p in range(n_proj):
        if d == 1 and n_proj == 1:
            z = np.ones(1)
        else:
            z = np.zeros(d)
            while not z.any():
                z = np.array([float(rng.pick(7) - 3) for _ in range(d)])
        pa = EmpiricalMeasure(np.mod(sa @ z, 1.0), a.weights)
        pb = EmpiricalMeasure(np.mod(sb @ z, 1.0), b.weights)
        vals.append(w1_circle(pa, pb))
    vals = np.array(vals)
    stderr = float(vals.std(ddof=1) / math.sqrt(n_proj)) if n_proj > 1 else 0.0
    return float(vals.mean()), stderr


@dataclass
class ThetaEstimate:
    value: float
    stderr: float
    n_steps: int
    total_deaths: int


def estimate_theta(report, burn_in: int) -> ThetaEstimate:
    """Extinction-rate estimate from death intensity after burn-in.

    ``theta_hat = total deaths / (N * steps * gamma)``; the standard error
    comes from the per-step variance of the death counts.
    """
    deaths = np.asarray(report.deaths, dtype=float)
    if burn_in < 0 or burn_in >= deaths.size:
        raise ValueError("burn_in must leave at least one step")
    kept = deaths[burn_in:]
    n, gamma = report.config.n_particles, report.model.gamma
    rates = kept / (n * gamma)
    value = float(rates.mean())
    stderr = float(rates.std(ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else 0.0
    return ThetaEstimate(value=value, stderr=stderr, n_steps=int(kept.size),
                         total_deaths=int(kept.sum()))


@dataclass
class PowerLawFit:
    slope: float
    intercept: float
    r2: float


def _lsq_loglog(x: np.ndarray, y: np.ndarray):
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    sstot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / sstot if sstot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def fit_power_law(xs, ys) -> PowerLawFit:
    """Least-squares slope of log y against log x."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 3 or np.unique(x).size < 2:
        raise ValueError("need at least 3 points and 2 distinct x values")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    slope, intercept, r2 = _lsq_loglog(np.log(x), np.log(y))
    return PowerLawFit(slope=slope, intercept=intercept, r2=r2)


@dataclass
class ExpRateFit:
    rate: float
    intercept: float
    r2: float


def fit_exponential_rate(ts, ds) -> ExpRateFit:
    """Fit ``d(t) ~ exp(-rate * t)``; returns the positive decay rate."""
    t = np.asarray(ts, dtype=float)
    d = np.asarray(ds, dtype=float)
    if t.size < 3 or np.unique(t).size < 2:
        raise ValueError("need at least 3 points and 2 distinct times")
    if np.any(d <= 0):
        raise ValueError("exponential fit needs positive distances")
    slope, intercept, r2 = _lsq_loglog(t, np.log(d))
    return ExpRateFit(rate=-slope, intercept=intercept, r2=r2)


def tv_finite(p, q) -> float:
    """Exact total-variation distance between finite probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return 0.5 * float(np.abs(p - q).sum())


def tv_hist(samples_a, samples_b, bins: int = 50, lo: float = 0.0,
            hi: float = 1.0) -> float:
    """Total variation between binned histograms of two samples."""
    ha, _ = np.histogram(np.asarray(samples_a), bins=bins, range=(lo, hi))
    hb, _ = np.histogram(np.asarray(samples_b), bins=bins, range=(lo, hi))
    return tv_finite(ha / ha.sum(), hb / hb.sum())
