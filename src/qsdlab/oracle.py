"""Exact reference computations on finite or grid-discretized state spaces.

The finite chain comes from the preset (``grid_generator`` asks it for
``preset.chain(n_grid)``); this module knows no preset, and it reads a
chain's rates only through the chain: ``generator()`` (sparse),
``uniformization_rate()`` and ``nnz``.

``spectrum(chain, t0)`` is the one place that picks how eigen-elements are
computed, and ``oracle`` and ``sweep`` both call it:

- A chain of one communicating class with more than 512 states and fewer
  than 5 % nonzero generator entries (a 1-D diffusion grid, say) takes the
  generator path: ``generator_triplet`` factors ``chain.generator()`` once
  and runs shift-invert Arnoldi for the right and left Perron vectors.  No
  semigroup matrix is built, and the survival curve from the QSD is
  ``rho**k`` exactly.  The nonzeros are counted from the chain's stored
  rates, so a dense chain is never copied into a sparse matrix.
- Every other chain (small chains, the dense rank-1 redraw grid, reducible
  chains of any size) builds ``M = exp(t*A)`` and runs power iteration on
  it, or for a reducible chain on each class block of it (``list_qsds``).

``M`` is computed by uniformization, which keeps entries nonnegative
exactly: ``_uniformization_sum(step, weights, x0)`` is the one loop that
forms ``sum_k w_k step^k(x0)`` with Poisson weights ``w_k``.  For ``M`` the
start is ``x0 = I`` and the step right-multiplies by the sub-step kernel
``P = I + A/lam`` in one of three forms, picked from ``P``'s structure: a
rank-1 update for redraw-type grids (diagonal plus one row repeated), a
sparse product for chains above 512 states with under 5 % nonzeros, and a
dense product otherwise.  Harris's hitting bound runs the same loop on a
vector with an absorbing step.  For stiff generators the horizon is halved
until the uniformization mean is at most 64 and the result is squared back
up (squaring a nonnegative substochastic matrix preserves both properties).
Harris certificates also run on ``M``.

Two horizons cannot be computed and raise :class:`HorizonError`: a
``lam * t0`` that is not finite (``killed_semigroup`` and
``generator_triplet``, through ``_uniformization_mean``), and a Poisson mean
above about 708, where ``exp(-mean)`` is not a normal float
(``_poisson_weights``; only the hitting bound, which does not halve, asks
for one).

The class and period analysis of the support graph runs once per matrix, in
``perron_triplet``; ``list_qsds`` takes the classes from its result, so an
oracle run computes one triplet of ``M``, plus one per class if reducible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.sparse.linalg import LinearOperator, eigs, splu

from .models import FiniteKilledChain, UnsupportedModelError

__all__ = [
    "KilledSemigroupMatrix",
    "EigenTriplet",
    "ReducibilityDiagnostic",
    "QsdComponent",
    "ExtinctionUnderflowError",
    "HorizonError",
    "UnsupportedModelError",
    "killed_semigroup",
    "default_horizon",
    "conditional_law_step",
    "iterate_conditional",
    "perron_triplet",
    "generator_triplet",
    "spectrum",
    "list_qsds",
    "grid_generator",
    "survival_curve",
    "spectral_gap",
]

_POISSON_TAIL = 1e-12
_PERRON_TOL = 1e-12  # power iteration stops below this TV change
_PERRON_MAX_ITER = 100_000
_RESIDUAL_TOL = 1e-8  # the largest eigen residual validate() accepts
_UNIF_MEAN_CAP = 64.0
_SHIFT = 1e-6  # generator-path shift, in units of the uniformization rate
_QSD_MARGIN = 1e-10  # relative rho gap that separates two classes' QSDs


class HorizonError(ValueError):
    """The horizon ``t0`` is too long for uniformization on this chain."""


class ExtinctionUnderflowError(ArithmeticError):
    """Surviving mass vanished exactly; the recursion cannot be renormalized."""


@dataclass
class KilledSemigroupMatrix:
    """Sub-Markov matrix ``M = exp(t0 * A)`` together with its horizon."""

    M: np.ndarray
    t0: float

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        n = self.M.shape[0]
        if self.M.shape != (n, n):
            raise ValueError("M must be square")
        if not 0.0 < self.t0 < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not np.all(self.M >= 0):
            raise ValueError("M must be nonnegative and not NaN")
        rows = self.M.sum(axis=1)
        if np.any(rows > 1.0 + 1e-12):
            raise ValueError("M must be sub-Markov (row sums <= 1 + 1e-12)")

    @property
    def n_states(self) -> int:
        return self.M.shape[0]


@dataclass
class EigenTriplet:
    """Extinction rate, right eigenfunction and left eigenmeasure of ``M``.

    ``gamma_left`` is normalized to a probability vector and ``h`` is scaled
    so that ``gamma_left @ h == 1``.  ``theta`` is reported per unit time
    using the matrix horizon.
    """

    theta: float
    h: np.ndarray
    gamma_left: np.ndarray
    rho: float
    t0: float
    residual_left: float
    residual_right: float
    iterations: int
    converged: bool

    def validate(self) -> None:
        if abs(float(self.gamma_left @ self.h) - 1.0) > 1e-10:
            raise AssertionError("normalization gamma_left(h) = 1 violated")
        residual = max(self.residual_left, self.residual_right)
        if self.converged and residual > _RESIDUAL_TOL:
            raise AssertionError("eigen residuals exceed tolerance")


@dataclass
class ReducibilityDiagnostic:
    """Why power iteration was not run: the chain is not primitive."""

    classes: list
    period: int
    n_states: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def __str__(self):
        classes = [[int(s) for s in c] for c in self.classes]
        return (f"not primitive: {self.n_classes} communicating class(es), "
                f"period {self.period}; classes {classes}")


@dataclass
class QsdComponent:
    """One quasi-stationary distribution of a (possibly reducible) chain."""

    theta: float
    qsd: np.ndarray
    class_states: np.ndarray
    h: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# semigroup construction
# ---------------------------------------------------------------------------

def _poisson_weights(mean: float) -> np.ndarray:
    """Poisson(mean) probabilities from 0 up to a tail below ``_POISSON_TAIL``.

    The recursion starts at ``exp(-mean)``, so a mean above about 708, where
    that is not a normal float, raises :class:`HorizonError`.
    """
    if mean <= 0:
        return np.array([1.0])
    w = [math.exp(-mean)]
    if not w[0] >= sys.float_info.min:
        raise HorizonError(f"uniformization mean lambda * t0 = {mean!r} is above "
                           "about 708, where exp(-mean) is not a normal float; "
                           "use a shorter t0")
    total = w[0]
    k = 0
    while total < 1.0 - _POISSON_TAIL or k < mean:
        k += 1
        w.append(w[-1] * mean / k)
        total += w[-1]
        if k > 10_000_000:  # pragma: no cover
            raise RuntimeError("poisson weight loop failed to terminate")
    return np.array(w)


def _substep_kernel(chain: FiniteKilledChain, lam: float) -> np.ndarray:
    """Uniformized sub-step kernel ``I + A/lam``, clipped to be nonnegative."""
    p_sub = np.eye(chain.n_states) + chain.generator().toarray() / lam
    np.clip(p_sub, 0.0, None, out=p_sub)
    return p_sub


def killed_semigroup(chain: FiniteKilledChain, t: float) -> KilledSemigroupMatrix:
    """``exp(t * (Q - diag(kill_rates)))`` by uniformization.

    For stiff generators the horizon is internally halved until the
    uniformization mean is at most about 64 and the partial result is then
    squared back; nonnegativity and sub-stochasticity are preserved exactly
    at every stage (row sums are re-projected onto <= 1 after each squaring
    to absorb float rounding).  A ``lam * t`` that is not finite raises
    :class:`HorizonError`.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    n = chain.n_states
    lam = chain.uniformization_rate()
    if lam == 0.0:
        return KilledSemigroupMatrix(np.eye(n), t)
    mean = _uniformization_mean(lam, t)
    n_sq = 0
    while mean > _UNIF_MEAN_CAP:
        mean *= 0.5
        n_sq += 1
    step, order = _step_form(_substep_kernel(chain, lam))
    s = np.ascontiguousarray(_uniformization_sum(
        step, _poisson_weights(mean), np.eye(n, order=order)))
    for _ in range(n_sq):
        s = s @ s
        np.clip(s, 0.0, None, out=s)
        rows = s.sum(axis=1)
        bad = rows > 1.0
        if np.any(bad):
            s[bad] /= rows[bad, None]
    return KilledSemigroupMatrix(s, t)


def _uniformization_mean(lam: float, t: float) -> float:
    """``lam * t``, which raises :class:`HorizonError` unless it is finite."""
    if not math.isfinite(lam * t):
        raise HorizonError(f"horizon t0 = {t!r} times the uniformization rate "
                           f"{lam!r} is not finite; use a shorter t0")
    return lam * t


def default_horizon(chain: FiniteKilledChain) -> float:
    """Ten mean jump times of the uniformized chain; 1 if it never jumps."""
    lam = chain.uniformization_rate()
    return 10.0 / lam if lam > 0 else 1.0


def _is_sparse(n: int, count_nonzero) -> bool:
    """More than 512 states and fewer than 5 % of the ``n*n`` entries
    nonzero, ``count_nonzero()`` being called only above 512 states: the
    test for the sparse uniformization sum and for the generator path of
    ``spectrum``."""
    return n > 512 and count_nonzero() < 0.05 * n * n


def _uniformization_sum(step, weights: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """``sum_k weights[k] * step^k(x0)``, with ``step`` one sub-step."""
    t = x0
    s = weights[0] * x0
    for w in weights[1:]:
        t = step(t)
        s += w * t
    return s


def _step_form(p_sub: np.ndarray):
    """``(step, order)``: ``step`` is ``t -> t @ p_sub`` in the cheapest form
    the structure of ``p_sub`` allows, and ``order`` the memory order it
    keeps its iterate in, so the sum accumulates without strided passes."""
    if p_sub.shape[0] > 64:
        # redraw-type rows make P = diag + 1 u^T (off-diagonal entries
        # constant within each column), which multiplies in O(n^2)
        off = p_sub.copy()
        np.fill_diagonal(off, np.nan)
        u = np.nanmin(off, axis=0)
        col_hi = np.nanmax(off, axis=0)
        if np.all(col_hi - u <= 1e-15 * max(col_hi.max(), 1.0)):
            d = np.diagonal(p_sub) - u
            return (lambda t: t * d + t.sum(axis=1)[:, None] * u), "C"
    if _is_sparse(p_sub.shape[0], lambda: np.count_nonzero(p_sub)):
        pt = sp.csr_matrix(p_sub.T)
        return (lambda t: (pt @ t.T).T), "F"
    return (lambda t: t @ p_sub), "C"


# ---------------------------------------------------------------------------
# conditional law and survival
# ---------------------------------------------------------------------------

def conditional_law_step(m: KilledSemigroupMatrix, eta: np.ndarray) -> np.ndarray:
    """Advance a conditional law one horizon: ``eta M / (eta M 1)``."""
    eta = np.asarray(eta, dtype=float)
    if not (np.all(eta >= 0) and abs(eta.sum() - 1.0) <= 1e-9):
        raise ValueError("eta must be a probability vector")
    out = eta @ m.M
    mass = out.sum()
    if mass <= 1e-300:
        raise ExtinctionUnderflowError("surviving mass is zero")
    return out / mass


def iterate_conditional(m: KilledSemigroupMatrix, eta0: np.ndarray,
                        max_iter: int = 10_000, tol: float = 0.0):
    """Iterate the conditional-law step; returns (law, tv_history)."""
    eta = np.asarray(eta0, dtype=float)
    history = []
    for _ in range(max_iter):
        nxt = conditional_law_step(m, eta)
        tv = 0.5 * np.abs(nxt - eta).sum()
        history.append(tv)
        eta = nxt
        if tol and tv < tol:
            break
    return eta, np.array(history)


def survival_curve(m: KilledSemigroupMatrix, eta0: np.ndarray, n: int) -> np.ndarray:
    """Survival probabilities ``(eta0 M^k) . 1`` for k = 1..n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    eta = np.asarray(eta0, dtype=float)
    out = np.empty(n)
    for k in range(n):
        eta = eta @ m.M
        out[k] = eta.sum()
    return out


# ---------------------------------------------------------------------------
# primitivity and eigen-elements
# ---------------------------------------------------------------------------

def _graph_period(adj: sp.csr_matrix) -> int:
    """Period of a strongly connected directed graph (gcd of cycle lengths).

    It is the gcd of ``level[u] + 1 - level[v]`` over all edges ``u -> v``,
    with ``level`` the BFS distance from state 0, and 0 for a graph with no
    edge (one state without a self-loop), which has no cycle.
    """
    level = shortest_path(adj, directed=True, unweighted=True,
                          indices=0).astype(np.int64)
    coo = adj.tocoo()
    diffs = level[coo.row] + 1 - level[coo.col]
    return int(np.gcd.reduce(np.abs(diffs))) if diffs.size else 0


def _communicating_classes(adj: sp.csr_matrix) -> list:
    n_comp, assignment = connected_components(adj, connection="strong")
    return [np.nonzero(assignment == c)[0] for c in range(n_comp)]


def perron_triplet(m: KilledSemigroupMatrix):
    """Dominant eigen-elements of a primitive sub-Markov matrix.

    Runs power iteration on ``M`` (right) and its transpose (left) until the
    total-variation change between successive normalized iterates falls
    below ``_PERRON_TOL``.  If the support graph of ``M`` is not primitive the
    communicating-class diagnostic is returned instead; near-critical chains
    that fail to converge within the iteration cap are returned with their
    achieved residual and ``converged=False``.
    """
    mat = m.M
    n = m.n_states
    adj = sp.csr_matrix((mat > 0.0).astype(np.int8))
    classes = _communicating_classes(adj)
    # the period is defined for a single class with a cycle; 0 marks several
    # classes, or one state without a self-loop
    period = _graph_period(adj) if len(classes) == 1 else 0
    if period != 1:
        return ReducibilityDiagnostic(classes=classes, period=period, n_states=n)

    gamma = np.full(n, 1.0 / n)
    h = np.ones(n)
    rho = 1.0
    iterations = 0
    converged = False
    for it in range(1, _PERRON_MAX_ITER + 1):
        iterations = it
        g_next = gamma @ mat
        rho = g_next.sum()
        g_next /= rho
        h_next = mat @ h
        h_next /= h_next.max()
        tv_g = 0.5 * np.abs(g_next - gamma).sum()
        tv_h = 0.5 * np.abs(h_next - h).sum() / max(h_next.sum(), 1e-300)
        gamma, h = g_next, h_next
        if max(tv_g, tv_h) < _PERRON_TOL:
            converged = True
            break
    res_left = np.abs(gamma @ mat - rho * gamma).sum() / rho
    res_right = np.abs(mat @ h - rho * h).sum() / (rho * np.abs(h).sum())
    h = h / float(gamma @ h)
    theta = -math.log(rho) / m.t0
    return EigenTriplet(theta=theta, h=h, gamma_left=gamma, rho=rho, t0=m.t0,
                        residual_left=float(res_left), residual_right=float(res_right),
                        iterations=iterations, converged=converged)


def generator_triplet(chain: FiniteKilledChain, t0: float) -> EigenTriplet:
    """Eigen-elements of ``exp(t0 A)`` from the sparse generator ``A``.

    ``A - sigma I`` is factored once (``splu``), with ``sigma`` a small
    positive shift (1e-6 of the uniformization rate) that keeps a kill-free
    generator invertible.  Shift-invert Arnoldi (``eigs``, one eigenvalue,
    a fixed start vector) then finds the eigenvalue nearest ``sigma``, which
    for an irreducible chain is the Perron eigenvalue ``-theta``: once with
    ``lu.solve`` for the right vector ``h``, once with the transposed solve
    for the left vector.  The chain must be one communicating class;
    ``spectrum`` checks that.  The residuals are those of the generator
    equation relative to the uniformization rate, which bounds the row sums
    of ``|A|`` as 1 bounds those of ``M`` on the semigroup path, and
    ``iterations`` counts the LU solves.  A ``lam * t0`` that is not finite
    raises :class:`HorizonError`, as in ``killed_semigroup``.
    """
    if t0 <= 0:
        raise ValueError("horizon must be positive")
    n = chain.n_states
    rate = chain.uniformization_rate()
    _uniformization_mean(rate, t0)
    sigma = _SHIFT * rate
    a = chain.generator()
    lu = splu((a - sigma * sp.identity(n)).tocsc())
    solves = 0

    def perron(mat, trans):
        def solve(x):
            nonlocal solves
            solves += 1
            return lu.solve(x, trans=trans)

        op = LinearOperator((n, n), matvec=solve, dtype=float)
        vals, vecs = eigs(mat, k=1, sigma=sigma, OPinv=op, v0=np.ones(n))
        v = vecs[:, 0].real
        return vals[0].real, np.clip(v if v.sum() > 0 else -v, 0.0, None)

    lam, h = perron(a, "N")
    _, gamma = perron(a.T, "T")
    gamma /= gamma.sum()
    h /= float(gamma @ h)
    res_left = np.abs(a.T @ gamma - lam * gamma).sum() / rate
    res_right = np.abs(a @ h - lam * h).sum() / (rate * np.abs(h).sum())
    theta = max(-lam, 0.0)
    return EigenTriplet(theta=theta, h=h, gamma_left=gamma,
                        rho=math.exp(-theta * t0), t0=t0,
                        residual_left=float(res_left), residual_right=float(res_right),
                        iterations=solves, converged=True)


def spectrum(chain: FiniteKilledChain, t0: float) -> tuple:
    """``(M, triplet)`` of ``chain`` at horizon ``t0``.

    A sparse chain (more than 512 states, fewer than 5 % nonzero generator
    entries, counted from the chain's stored rates) of one communicating
    class gets ``(None, generator_triplet)``.  Any other chain gets its
    semigroup ``M = killed_semigroup(chain, t0)`` and ``perron_triplet(M)``,
    which is a ``ReducibilityDiagnostic`` for a chain that is not primitive;
    a dense chain is never copied into a sparse matrix here.
    """
    if (_is_sparse(chain.n_states, lambda: chain.nnz)
            and len(_communicating_classes(chain.generator())) == 1):
        return None, generator_triplet(chain, t0)
    m = killed_semigroup(chain, t0)
    return m, perron_triplet(m)


def _extend(mat, adj, cls: np.ndarray, vec: np.ndarray, rho_c: float, rho):
    """``vec`` on the class ``cls`` extended to the states D it reaches in
    ``adj`` by ``x_D (rho_c I - mat_DD) = vec mat_CD``, a left eigenvector of
    ``mat``; None unless ``rho_c`` tops ``rho[D]`` by ``_QSD_MARGIN``."""
    reach = np.isfinite(shortest_path(adj, directed=True, unweighted=True,
                                      indices=cls[0]))
    reach[cls] = False
    if not np.all(rho[reach] < rho_c * (1.0 - _QSD_MARGIN)):
        return None
    out = np.zeros(mat.shape[0])
    out[cls] = vec
    a = rho_c * np.eye(reach.sum()) - mat[np.ix_(reach, reach)]
    out[reach] = np.clip(np.linalg.solve(a.T, vec @ mat[np.ix_(cls, reach)]), 0.0, None)
    return out


def list_qsds(m: KilledSemigroupMatrix, trip=None) -> list:
    """All quasi-stationary distributions of a finite chain.

    ``trip`` is ``perron_triplet(m)`` when the caller already has it; it is
    computed here otherwise.  For a primitive chain the answer is the single
    dominant triplet, and ``m`` is not read (``spectrum`` passes None for it
    on the generator path).  Otherwise class C carries a QSD, labelled
    ``class_states`` C, iff the ``rho_C`` of ``perron_triplet`` on the block
    ``M[C, C]`` tops that of every class C reaches by ``_QSD_MARGIN``; ties
    that do not reach each other each carry one, in no promised order.  The
    first QSD's ``h`` (``qsd @ h == 1``) needs the same of the classes that
    reach C, else it is None.  A periodic class raises ``ValueError`` naming
    its period.  Components are sorted by extinction rate (slowest first).
    """
    if trip is None:
        trip = perron_triplet(m)
    if isinstance(trip, EigenTriplet):
        return [QsdComponent(theta=trip.theta, qsd=trip.gamma_left,
                             class_states=np.arange(trip.h.size), h=trip.h)]
    mat = m.M
    adj = sp.csr_matrix((mat > 0.0).astype(np.int8))
    rho = np.zeros(m.n_states)  # each state's class rho; 0 (no QSD) off cycles
    blocks = []
    for cls in trip.classes:
        block = mat[np.ix_(cls, cls)]
        if block.any():
            local = perron_triplet(KilledSemigroupMatrix(block, m.t0))
            if isinstance(local, ReducibilityDiagnostic):
                raise ValueError(f"class {cls.tolist()} has period {local.period}")
            rho[cls] = local.rho
            blocks.append((cls, local))
    comps = []
    for cls, local in sorted(blocks, key=lambda b: b[1].theta):
        qsd = _extend(mat, adj, cls, local.gamma_left, local.rho, rho)
        if qsd is None:
            continue
        # gamma_left @ h == 1 on the block, so qsd @ h == 1 after the scaling
        h = None if comps else _extend(mat.T, adj.T, cls, qsd.sum() * local.h,
                                       local.rho, rho)
        comps.append(QsdComponent(local.theta, qsd / qsd.sum(), cls, h))
    return comps


def spectral_gap(m: KilledSemigroupMatrix) -> tuple:
    """(theta1, theta2) per-unit-time rates from the two leading eigenvalues.

    Dense eigensolve; intended for small chains used as test references.
    """
    evals = np.linalg.eigvals(m.M)
    mags = np.sort(np.abs(evals))[::-1]
    theta1 = -math.log(mags[0]) / m.t0
    theta2 = -math.log(max(mags[1], 1e-300)) / m.t0
    return theta1, theta2


# ---------------------------------------------------------------------------
# the preset's chain
# ---------------------------------------------------------------------------

def grid_generator(preset, n_grid: int = 2000) -> FiniteKilledChain:
    """``preset.chain(n_grid)``: the finite chain the oracle runs on, which
    raises :class:`UnsupportedModelError` for a preset that has none."""
    if n_grid < 16:
        raise ValueError("n_grid must be at least 16")
    return preset.chain(n_grid)
