"""Distances between measures, extinction-rate estimation, and rate fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import Interval, Torus
from .streams import Stream

__all__ = [
    "EmpiricalMeasure",
    "from_particles",
    "measure_from_density",
    "w1_circle",
    "w1_line",
    "w1_auto",
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


def _merged_cdf_difference(a: EmpiricalMeasure, b: EmpiricalMeasure):
    pos = np.concatenate([_flat_1d(a), _flat_1d(b)])
    delta = np.concatenate([a.weights, -b.weights])
    order = np.argsort(pos, kind="mergesort")
    return pos[order], np.cumsum(delta[order])


def w1_circle(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact Wasserstein-1 distance for the circle metric on [0, 1).

    Minimizes the integral of the shifted cumulative difference over all
    rotations; the optimizer is a weighted median of the piecewise-constant
    difference, so the result is exact up to float rounding.
    """
    if not (a.space.circle and b.space.circle):
        raise ValueError("w1_circle requires torus geometry on both sides")
    pos, g = _merged_cdf_difference(a, b)
    lengths = np.empty_like(pos)
    lengths[:-1] = np.diff(pos)
    lengths[-1] = (pos[0] + 1.0) - pos[-1]
    order = np.argsort(g, kind="mergesort")
    gs, ls = g[order], lengths[order]
    cum = np.cumsum(ls)
    total = cum[-1]
    k = int(np.searchsorted(cum, 0.5 * total, side="left"))
    candidates = {float(gs[min(k, len(gs) - 1)]), float(gs[min(k + 1, len(gs) - 1)])}
    # fsum makes the value independent of summation order, so the distance
    # is exactly symmetric in its arguments
    return min(math.fsum((ls * np.abs(gs - s)).tolist()) for s in candidates)


def w1_line(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Plain one-dimensional Wasserstein-1 (integral of |F_a - F_b|)."""
    pos, g = _merged_cdf_difference(a, b)
    return float(np.sum(np.abs(g[:-1]) * np.diff(pos)))


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
    n, gamma = report.config["n_particles"], report.config["gamma"]
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
    if x.size < 3:
        raise ValueError("need at least 3 points")
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
    if t.size < 3:
        raise ValueError("need at least 3 points")
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
