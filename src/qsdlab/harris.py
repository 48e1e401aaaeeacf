"""Numerical verification of drift/minorization conditions on finite chains.

Four conditions are checked for a sub-Markov matrix ``M`` at horizon ``t0``
against a Lyapunov pair ``(V, psi)``, a small set ``K`` and a probability
``nu`` on ``K``:

* ``lyapunov_drift``:        M V <= alpha V + C 1_K psi  with alpha < beta
* ``mass_lower_bound``:      M psi >= beta psi            with beta > 0
* ``minorization``:          M(f psi)/(M psi) >= c nu(f) on K for positive f
* ``survival_comparability``: nu(M^n psi / psi) >= d sup_K M^n psi / psi

On a finite space the minorization over all positive f reduces to atom
domination, which is both sufficient and necessary.  The comparability
condition quantifies over every depth n; a finite check can certify a
failure (a ratio sequence decaying geometrically) or a pass up to the
tested depth, and the ratio trend is always reported.

The search takes ``M V`` once per ``V`` and one orbit ``M psi, M^2 psi, ...``
per ``psi``.  A candidate's ``nu``, ``beta``, ``c`` and comparability
sequence depend on its (K, psi) pair alone, and sublevel sets of different
``V`` repeat, so the search computes that part once per distinct pair and
adds ``alpha`` and ``C`` per ``V``; :func:`check_assumptions` runs the same
two functions on one candidate.  The conclusion checks need a primitive
``M``: on a reducible chain :func:`verify_conclusion` returns the oracle's
reducibility diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metrics import fit_exponential_rate
from .models import FiniteKilledChain
from .oracle import (
    EigenTriplet,
    KilledSemigroupMatrix,
    ReducibilityDiagnostic,
    _poisson_weights,
    _substep_kernel,
    _uniformization_sum,
    default_horizon,
    killed_semigroup,
    perron_triplet,
)

__all__ = [
    "LyapunovBaseError",
    "HarrisCertificate",
    "ConclusionReport",
    "check_assumptions",
    "check_irreducibility",
    "verify_conclusion",
    "search_lyapunov_pair",
]

A_DRIFT = "lyapunov_drift"
A_MASS = "mass_lower_bound"
A_MINOR = "minorization"
A_COMPARE = "survival_comparability"


class LyapunovBaseError(ValueError):
    """A base q of ``V`` or ``psi = q**n`` over- or underflows on the chain."""


@dataclass
class Verdict:
    passed: bool
    value: float
    witness: Optional[int] = None
    note: str = ""


@dataclass
class HarrisCertificate:
    """Constants, witnesses and verdicts for one (V, psi, K, nu) candidate."""

    t0: float
    V: np.ndarray
    psi: np.ndarray
    K: np.ndarray                  # sorted state indices
    nu: np.ndarray                 # probability on the full space, zero off K
    alpha: float
    beta: float
    C: float
    c: float
    d: float
    verdicts: dict
    ratio_sequence: np.ndarray     # comparability ratios for n = 1..n_max
    n_max: int

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    @property
    def margin(self) -> float:
        return self.beta - self.alpha

    def as_dict(self) -> dict:
        # plain values, so that two certificates' dicts compare with ==
        return {
            "t0": self.t0,
            "alpha": self.alpha,
            "beta": self.beta,
            "C": self.C,
            "c": self.c,
            "d": self.d,
            "margin": self.margin,
            "K": [int(i) for i in self.K],
            "nu": [float(v) for v in self.nu],
            "V": [float(v) for v in self.V],
            "psi": [float(v) for v in self.psi],
            "n_max": self.n_max,
            "ratio_sequence": [float(v) for v in self.ratio_sequence],
            "verdicts": {
                name: {"pass": bool(v.passed), "value": float(v.value),
                       "witness": None if v.witness is None else int(v.witness),
                       "note": v.note}
                for name, v in self.verdicts.items()
            },
            "all_pass": self.all_pass,
        }


def _index_set(K, n: int):
    """``K``, a boolean mask or state indices, as sorted indices and a mask."""
    K = np.asarray(K)
    k_idx = np.sort(np.nonzero(K)[0]) if K.dtype == bool else np.sort(K.astype(int))
    if k_idx.size == 0:
        raise ValueError("K must be nonempty")
    mask = np.zeros(n, dtype=bool)
    mask[k_idx] = True
    return k_idx, mask


def _orbit(mat: np.ndarray, psi: np.ndarray, n_max: int) -> list:
    """``[M psi, g_1, g_2, ...]`` with ``g_k = M^k psi / (psi max M^k psi)``.

    Stops after ``n_max`` depths or at the first iterate that vanishes.
    """
    w = mat @ psi
    orbit = [w]
    for depth in range(1, n_max + 1):
        scale = w.max()
        if scale <= 0:
            break
        w = w / scale
        orbit.append(w / psi)
        if depth < n_max:
            w = mat @ w
    return orbit


def check_assumptions(m: KilledSemigroupMatrix, V: np.ndarray, psi: np.ndarray,
                      K, nu: Optional[np.ndarray] = None,
                      n_max: int = 50) -> HarrisCertificate:
    """Evaluate all four conditions and report constants with witnesses.

    ``K`` is a boolean mask or an index array; ``nu`` defaults to the
    normalized lower envelope on K (the measure with the best minorization
    constant).  All constants are computed from the matrix directly:
    ``alpha`` is the largest drift ratio outside K, ``beta`` the smallest
    mass ratio anywhere, ``c`` the worst atom-domination ratio, and ``d``
    the smallest depth-n comparability ratio up to ``n_max``.
    """
    V = np.asarray(V, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if not all(np.all(np.isfinite(a) & (a > 0)) for a in (V, psi)):
        raise ValueError("V and psi must be finite and strictly positive")
    k_idx, mask = _index_set(K, m.n_states)
    if nu is not None:
        nu = np.asarray(nu, dtype=float)
        if not (np.all(nu >= 0) and abs(nu.sum() - 1.0) <= 1e-9):
            raise ValueError("nu must be a probability vector")
        if nu[~mask].sum() > 1e-12:
            raise ValueError("nu must be supported by K")
    part = _k_psi_part(m.M, psi, _orbit(m.M, psi, n_max), k_idx, mask, nu, n_max)
    return _certify(m, V, psi, m.M @ V, k_idx, mask, part)


def _k_psi_part(mat, psi, orbit, k_idx, mask, nu, n_max: int):
    """The V-free part of a certificate: ``(nu, ratio sequence, verdicts)``
    of one (K, psi) pair from ``orbit = _orbit(mat, psi, n_max)``, with the
    mass, minorization and comparability verdicts; ``nu`` None takes the
    envelope."""
    mpsi = orbit[0]
    if nu is None:
        # atom domination M[x, y] psi[y] / (M psi)(x) for x, y in K; for each
        # atom y the binding ratio is its column minimum, and normalizing that
        # lower envelope gives the measure with the largest dominated mass
        dom = (mat[np.ix_(k_idx, k_idx)] * psi[k_idx][None, :]
               / mpsi[k_idx][:, None])
        env = dom.min(axis=0)
        nu = np.zeros(mat.shape[0])
        nu[k_idx] = env / env.sum() if env.sum() > 0 else 1.0 / k_idx.size
        dom = dom[:, nu[k_idx] > 0]
    else:
        # a given nu may put up to 1e-12 of its mass outside K
        supp = np.nonzero(nu > 0)[0]
        dom = mat[np.ix_(k_idx, supp)] * psi[supp][None, :] / mpsi[k_idx][:, None]
    nu_supp = nu[nu > 0]

    mass_ratio = mpsi / psi
    beta = float(mass_ratio.min())
    w_beta = int(np.argmin(mass_ratio))

    # minorization by atom domination on K
    ratios = dom / nu_supp[None, :]
    c_val = float(ratios.min())
    w_c = int(k_idx[int(np.argmin(ratios)) // nu_supp.size])

    # comparability ratios along the renormalized orbit; zero past its end
    seq = np.zeros(n_max)
    for k, g in enumerate(orbit[1:]):
        sup_k = g[mask].max()
        seq[k] = float(nu @ g) / sup_k if sup_k > 0 else 0.0
    d_val = float(seq.min())
    w_d = int(np.argmin(seq)) + 1

    decay_note = ""
    comp_pass = d_val > 0
    if n_max >= 8 and np.all(seq > 0):
        tail = seq[n_max // 2:]
        if np.all(np.diff(tail) < 0) and tail[-1] < 0.5 * seq[0]:
            fit = fit_exponential_rate(np.arange(tail.size, dtype=float), tail)
            if fit.rate > 1e-3 and fit.r2 > 0.9:
                comp_pass = False
                decay_note = (f"asymptotic fail: ratios decay geometrically "
                              f"at rate {fit.rate:.4g} per step (r2={fit.r2:.3f})")
    if d_val <= 0:
        decay_note = "ratio hit zero"
    return nu, seq, {
        A_MASS: Verdict(passed=bool(beta > 0), value=beta, witness=w_beta),
        A_MINOR: Verdict(passed=bool(c_val > 0), value=c_val, witness=w_c),
        A_COMPARE: Verdict(passed=comp_pass, value=d_val, witness=w_d,
                           note=decay_note),
    }


def _certify(m: KilledSemigroupMatrix, V, psi, mv, k_idx, mask,
             part) -> HarrisCertificate:
    """The certificate of one candidate from ``mv = M V`` and the
    ``_k_psi_part`` of its (K, psi) pair: adds alpha and C."""
    nu, seq, shared = part
    drift_ratio = mv / V
    outside = ~mask
    if outside.any():
        alpha = float(drift_ratio[outside].max())
        w_alpha = int(np.nonzero(outside)[0][np.argmax(drift_ratio[outside])])
    else:
        alpha = 0.0
        w_alpha = None
    C = float(np.max((mv - alpha * V)[mask] / psi[mask]))
    C = max(C, 0.0)

    beta = shared[A_MASS].value
    verdicts = {
        A_DRIFT: Verdict(passed=bool(alpha < beta), value=alpha, witness=w_alpha,
                         note="alpha computed over states outside K"),
        **shared,
    }
    return HarrisCertificate(t0=m.t0, V=V, psi=psi, K=k_idx, nu=nu,
                             alpha=alpha, beta=beta, C=C,
                             c=min(shared[A_MINOR].value, 1.0),
                             d=shared[A_COMPARE].value, verdicts=verdicts,
                             ratio_sequence=seq, n_max=seq.size)


def check_irreducibility(chain: FiniteKilledChain, K, t0: float):
    """Uniform hitting bound ``inf_{x,y in K} P(hit y before t0 | start x)``.

    Computed exactly for the killed chain by making each target absorbing in
    the uniformized sub-step kernel and mixing the absorption probabilities
    over the Poisson number of sub-steps in [0, t0]: for target y the
    oracle's uniformization loop starts from ``e_y`` and steps by
    ``u = P u; u[y] = 1``.  The Poisson weights are taken at the whole mean
    ``lam * t0``, with no halving, so a horizon past ``lam * t0`` of about
    708 raises :class:`~qsdlab.oracle.HorizonError`.  A positive infimum is
    a sufficient irreducibility surrogate for the comparability condition.
    """
    n = chain.n_states
    k_idx, _ = _index_set(K, n)
    lam = chain.uniformization_rate()
    if lam == 0.0:
        eps = 1.0 if k_idx.size == 1 else 0.0
        return eps, eps > 0
    p_sub = _substep_kernel(chain, lam)
    weights = _poisson_weights(lam * t0)
    eps = math.inf
    for y in k_idx:
        def absorb(u, y=y):
            u = p_sub @ u
            u[y] = 1.0
            return u

        hit = _uniformization_sum(absorb, weights, np.eye(1, n, y)[0])
        others = k_idx[k_idx != y]
        if others.size:
            eps = min(eps, float(hit[others].min()))
        else:
            eps = min(eps, 1.0)
    return float(eps), eps > 0


@dataclass
class ConclusionReport:
    """Quantitative consequences of an all-pass certificate."""

    theta: float
    eig_lower_slack: float          # e^{-theta t0} - beta
    eig_upper_slack: float          # alpha + C - e^{-theta t0}
    gamma_of_V: float
    c2: float                       # max h / V
    c1_by_q: dict                   # q -> min h / ((psi/V)^q psi)
    omega_fit: float                # fitted decay rate of the normalized error
    omega_r2: float
    bounds_hold: bool


def verify_conclusion(m: KilledSemigroupMatrix, cert: HarrisCertificate
                      ) -> ConclusionReport | ReducibilityDiagnostic:
    """Check the eigenvalue bounds and eigenfunction sandwich for a pass.

    ``psi`` is first rescaled so that ``psi <= V`` everywhere (the stated
    bound ``e^{-theta t0} <= alpha + C`` presumes that normalization; the
    verdicts themselves are scale-invariant).  The error decay is measured
    from the uniform start.  Requires an all-pass certificate.  A matrix
    that is not primitive has no Perron triplet, and its diagnostic is
    returned in place of a report.
    """
    if not cert.all_pass:
        raise ValueError("certificate must pass all four conditions")
    trip = perron_triplet(m)
    if not isinstance(trip, EigenTriplet):
        return trip
    scale = float(np.min(cert.V / cert.psi))
    psi_n = cert.psi * scale
    mat = m.M
    mv = mat @ cert.V
    _, mask = _index_set(cert.K, m.n_states)
    c_norm = float(np.max((mv - cert.alpha * cert.V)[mask] / psi_n[mask]))
    c_norm = max(c_norm, 0.0)
    rho = math.exp(-trip.theta * m.t0)
    lower_slack = rho - cert.beta
    upper_slack = cert.alpha + c_norm - rho

    gamma_v = float(trip.gamma_left @ cert.V)
    c2 = float(np.max(trip.h / cert.V))
    c1 = {}
    for qexp in (0.1, 0.25, 0.5, 0.75, 0.9):
        denom = (psi_n / cert.V) ** qexp * psi_n
        c1[qexp] = float(np.min(trip.h / denom))

    cur = np.full(m.n_states, 1.0 / m.n_states)
    target = float(cur @ trip.h)
    err = []
    efac = 1.0
    for _ in range(200):
        cur = cur @ mat
        efac /= rho
        dist = np.max(np.abs(efac * cur - target * trip.gamma_left))
        if dist < 1e-12:
            break
        err.append(dist)
    omega, r2 = 0.0, 0.0
    if len(err) >= 3:
        ts = m.t0 * np.arange(1, len(err) + 1)
        fit = fit_exponential_rate(ts, np.array(err))
        omega, r2 = fit.rate, fit.r2
    return ConclusionReport(theta=trip.theta, eig_lower_slack=lower_slack,
                            eig_upper_slack=upper_slack, gamma_of_V=gamma_v,
                            c2=c2, c1_by_q=c1, omega_fit=omega, omega_r2=r2,
                            bounds_hold=bool(lower_slack >= -1e-12
                                             and upper_slack >= -1e-12))


def _sublevel_sets(V: np.ndarray, fractions) -> list:
    """``(indices, mask)`` of {V <= quantile} for a few coverage fractions."""
    order = np.argsort(V, kind="mergesort")
    n = V.size
    return [_index_set(order[:max(1, min(n, int(round(f * n))))], n)
            for f in fractions]


def search_lyapunov_pair(chain: FiniteKilledChain, t0: Optional[float] = None,
                         q1_grid=None, q2_grid=None,
                         k_fractions=(0.05, 0.1, 0.25, 0.5, 0.9),
                         n_max: int = 50):
    """Grid search for a passing certificate with V, psi of the form q**n.

    ``t0`` defaults to :func:`~qsdlab.oracle.default_horizon`.  Maximizes
    the margin ``beta - alpha`` over all-pass candidates and breaks ties by
    the smaller ``C``; when nothing passes, the candidate with the most
    passing verdicts (then the largest margin) is returned so the binding
    failure is visible.  Returns ``(certificate, matrix)``.  Raises
    :class:`LyapunovBaseError` before any matrix work when some base's
    ``q**n`` cannot be represented on the chain.
    """
    n = chain.n_states
    idx = np.arange(n, dtype=float)
    if q1_grid is None:
        q1_grid = (0.5, 0.625, 0.75, 0.9, 1.1, 1.3, 1.6, 2.0)
    if q2_grid is None:
        q2_grid = (0.5, 0.625, 0.75, 0.9, 1.0, 1.1, 1.3, 1.6)

    def build(q):
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.power(float(q), idx)
            v = v / v.max()  # rescale against under/overflow; verdicts are scale-free
        if not np.all(v > 0):
            raise LyapunovBaseError(f"base q={q!r}: q**n over- or underflows "
                                    f"on the {n} states of the chain; use "
                                    "fewer states or bases nearer 1")
        return v

    Vs = [build(q1) for q1 in q1_grid]
    psis = [build(q2) for q2 in q2_grid]
    if t0 is None:
        t0 = default_horizon(chain)
    m = killed_semigroup(chain, t0)
    orbits = [_orbit(m.M, psi, n_max) for psi in psis]
    # sublevel sets repeat across V (q < 1 and q > 1 give two orders), so
    # each (K, psi) part is computed once, at its first candidate
    parts = {}
    best = None
    best_key = None
    for V in Vs:
        mv = m.M @ V
        for k_idx, mask in _sublevel_sets(V, k_fractions):
            for j, (psi, orbit) in enumerate(zip(psis, orbits)):
                part = parts.get((k_idx.tobytes(), j))
                if part is None:
                    part = parts[k_idx.tobytes(), j] = _k_psi_part(
                        m.M, psi, orbit, k_idx, mask, None, n_max)
                cert = _certify(m, V, psi, mv, k_idx, mask, part)
                n_pass = sum(v.passed for v in cert.verdicts.values())
                key = (n_pass == 4, n_pass, cert.margin, -cert.C)
                if best_key is None or key > best_key:
                    best, best_key = cert, key
    return best, m
