"""Killed Markov models behind a uniform propose-then-kill interface.

Every model advances in discrete time with step size ``gamma``: propose a
move with the model's move object, then evaluate a kill probability at the
proposed point.  Soft killing uses ``p(x) = 1 - exp(-gamma * rate(x))``;
hard killing is the indicator of leaving an open domain.  Finite chains
advance their conservative jump part by exact uniformization (Poisson number
of sub-steps of ``I + Q/rate``), so their one-step law can be compared
against a matrix oracle with no time-discretization error in the jump part.

Each preset also answers the oracle: ``chain(n_grid)`` is the finite chain
its oracle runs on (a grid of ``n_grid`` cells for a continuous preset),
``horizon`` its default semigroup horizon and ``closed_forms()`` its
closed-form quasi-stationary distributions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, fields
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import _kernels as _k
from ._kernels import Stream

__all__ = [
    "Torus",
    "Interval",
    "HalfLine",
    "Finite",
    "KilledModel",
    "FiniteKilledChain",
    "ModelEvaluationError",
    "UnsupportedModelError",
    "ZeroDrift",
    "ConstDrift",
    "SineDrift",
    "NoKill",
    "ConstKill",
    "CosineKill",
    "IntervalKill",
    "PowerKill",
    "StateKill",
    "GaussMove",
    "RedrawMove",
    "ChainMove",
    "GrowthFragMove",
    "propose",
    "kill_prob",
    "ClosedFormQsd",
    "TwoPoint",
    "HouseOfCard",
    "BirthDeath",
    "PeriodicShift",
    "GrowthFrag",
    "TorusDiffusion",
    "IntervalBrownian",
    "discrete_model",
    "PRESETS",
    "build_preset",
]

_TWO_PI = 2.0 * math.pi


class ModelEvaluationError(ValueError):
    """A model produced a non-finite value during evaluation."""


class UnsupportedModelError(ValueError):
    """The preset has no finite-chain oracle."""


# ---------------------------------------------------------------------------
# state spaces
# ---------------------------------------------------------------------------
#
# One frozen object per state space.  ``name``, ``dim`` and the fields go to
# the model block of report.json.  ``allows`` is the one test of allowed
# states, for a Dirac init and for a measure.  ``circle`` picks the W1 of a
# marginal: the circle distance (True), the line distance (False) or none.

class _RealSpace:
    """``dim`` float coordinates, each finite and in ``[0, hi]``.  The
    uniform initial law is U(0, 1)^dim on every real space, the half-line
    included."""

    dim, hi, circle = 1, 1.0, False

    def wrap(self, y: np.ndarray) -> np.ndarray:
        return y

    def allows(self, arr: np.ndarray) -> bool:
        """Whether all entries of the float array ``arr`` are finite and in
        ``[0, hi]``.  One min and one max decide, which are NaN if any entry
        is; their initial 0.0 lets an empty array pass."""
        lo, top = float(arr.min(initial=0.0)), float(arr.max(initial=0.0))
        return 0.0 <= lo and top <= self.hi and math.isfinite(top)

    def states(self, values) -> np.ndarray:
        """``values`` as an ``(n, dim)`` array; ValueError unless all are allowed."""
        arr = np.array(values, dtype=float).reshape(-1, self.dim)
        if not self.allows(arr):
            raise ValueError(f"{self} holds finite states in [0, {self.hi}], got {values!r}")
        return arr

    def uniform(self, u01) -> np.ndarray:
        """Coordinate k is ``u01(k)``, the uniforms at counter k."""
        return np.stack([u01(k) for k in range(self.dim)], axis=1)

    def point(self, x) -> np.ndarray:
        """A state of the scalar reference: a length-``dim`` float array."""
        return np.atleast_1d(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Torus(_RealSpace):
    """The d-torus ``[0, 1)^d``: moves wrap, and W1 is the circle distance."""

    dim: int = 1
    name, circle = "torus", True

    def wrap(self, y: np.ndarray) -> np.ndarray:
        return y - np.floor(y)


@dataclass(frozen=True)
class Interval(_RealSpace):
    """The unit interval ``[0, 1]``; W1 is the line distance."""

    name = "interval"


@dataclass(frozen=True)
class HalfLine(_RealSpace):
    """The half-line ``[0, inf)``; W1 is the line distance."""

    name, hi = "halfline", math.inf


@dataclass(frozen=True)
class Finite:
    """The states ``0..n_states-1`` of a finite chain: integer labels with no
    W1 between them.  The uniform initial law is uniform on them."""

    n_states: int
    name, dim, circle = "finite", 1, None

    def allows(self, arr: np.ndarray) -> bool:
        """Whether all entries of the float array ``arr`` are state labels."""
        lo, top = float(arr.min(initial=0.0)), float(arr.max(initial=0.0))
        return 0.0 <= lo and top < self.n_states and bool(np.all(arr == np.floor(arr)))

    def states(self, values) -> np.ndarray:
        arr = np.array(values, dtype=float).reshape(-1)
        if not self.allows(arr):
            raise ValueError(f"{self} holds 0..{self.n_states - 1}, got {values!r}")
        return arr.astype(np.int64)

    def uniform(self, u01) -> np.ndarray:
        return np.minimum((u01(0) * self.n_states).astype(np.int64), self.n_states - 1)

    def point(self, x) -> int:
        return int(x)


# ---------------------------------------------------------------------------
# drift and kill families
# ---------------------------------------------------------------------------
#
# Each family is written once and evaluated on an ``(n, d)`` array of
# points; the particle engine passes whole ensembles, the scalar reference
# (``propose`` / ``kill_prob``) passes one row and the grid oracle passes
# its grid.  ``tag`` and ``params`` are the family's entries in the model
# block of ``report.json``; a drift's ``params`` take the space's ``dim``,
# and a kill's ``params`` are its fields, padded with zeros to the two
# slots ``kp0``, ``kp1``.

@dataclass(frozen=True)
class ZeroDrift:
    tag = 0

    def params(self, dim: int) -> tuple:
        return (0.0,) * dim

    def drift(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)


@dataclass(frozen=True)
class ConstDrift:
    """The same speed on every coordinate."""

    speed: float

    tag = 1

    def __post_init__(self):
        if not math.isfinite(self.speed):
            raise ValueError("constant drift speed must be finite")

    def params(self, dim: int) -> tuple:
        return (self.speed,) * dim

    def drift(self, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.speed, x.shape)


@dataclass(frozen=True)
class SineDrift:
    """``b(x) = amplitude * sin(2*pi*x)`` on the first coordinate."""

    amplitude: float

    tag = 2

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise ValueError("sine drift amplitude must be finite")

    def params(self, dim: int) -> tuple:
        return (self.amplitude,)

    def drift(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        out[:, 0] = self.amplitude * np.sin(_TWO_PI * x[:, 0])
        return out


class _Kill:
    """A kill family, whose ``params`` are its fields."""

    @property
    def params(self) -> tuple:
        return (astuple(self) + (0.0, 0.0))[:2]


class _SoftKill(_Kill):
    """Killing at ``rate(x)`` per unit time: probability ``1 - exp(-gamma*rate)``
    over one step."""

    def prob(self, x: np.ndarray, gamma: float) -> np.ndarray:
        return 1.0 - np.exp(-gamma * self.rate(x))


@dataclass(frozen=True)
class NoKill(_SoftKill):
    tag = 0

    def rate(self, x: np.ndarray) -> np.ndarray:
        return np.zeros(x.shape[0])


@dataclass(frozen=True)
class ConstKill(_SoftKill):
    level: float

    tag = 1

    def __post_init__(self):
        if not (0.0 <= self.level < math.inf):
            raise ValueError("constant kill rate must be finite and nonnegative")

    def rate(self, x: np.ndarray) -> np.ndarray:
        return np.full(x.shape[0], self.level)

    def prob(self, x: np.ndarray, gamma: float) -> np.ndarray:
        return np.full(x.shape[0], 1.0 - math.exp(-gamma * self.level))


@dataclass(frozen=True)
class CosineKill(_SoftKill):
    """Rate ``level + amplitude * cos(2*pi*x)`` on the first coordinate."""

    level: float
    amplitude: float

    tag = 2

    def __post_init__(self):
        if not (0.0 <= self.amplitude <= self.level < math.inf):
            raise ValueError("cosine kill rate needs 0 <= amplitude <= level, finite")

    def rate(self, x: np.ndarray) -> np.ndarray:
        return self.level + self.amplitude * np.cos(_TWO_PI * x[:, 0])


@dataclass(frozen=True)
class IntervalKill(_Kill):
    """Hard killing, which has no rate: probability 1 unless the first
    coordinate lies in (lo, hi)."""

    lo: float
    hi: float

    tag = 3

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval kill bounds must be finite")

    def prob(self, x: np.ndarray, gamma: float) -> np.ndarray:
        return np.where((x[:, 0] > self.lo) & (x[:, 0] < self.hi), 0.0, 1.0)


@dataclass(frozen=True)
class PowerKill(_SoftKill):
    """Rate ``c * x**q`` on the first coordinate."""

    c: float
    q: float

    tag = 4

    def __post_init__(self):
        if not (0.0 <= self.c < math.inf and 0.0 <= self.q < math.inf):
            raise ValueError("power kill rate needs finite nonnegative coefficient "
                             "and exponent")

    def rate(self, x: np.ndarray) -> np.ndarray:
        return self.c * x[:, 0] ** self.q

    def prob(self, x: np.ndarray, gamma: float) -> np.ndarray:
        # (-gamma * c) * x**q: this rounding order is part of the pinned runs
        return 1.0 - np.exp((-gamma * self.c) * x[:, 0] ** self.q)


@dataclass(frozen=True, eq=False)
class StateKill(_SoftKill):
    """Per-state rates of a finite chain, indexed by integer states.  Finite
    models report no kill family: their rates are part of the chain."""

    rates: np.ndarray

    tag = 0
    params = (0.0, 0.0)  # a finite chain reports no kill family

    def __post_init__(self):
        if not np.all((0.0 <= self.rates) & (self.rates < math.inf)):
            raise ValueError("state kill rates must be finite and nonnegative")

    def rate(self, x: np.ndarray) -> np.ndarray:
        return self.rates[x]


# ---------------------------------------------------------------------------
# finite chains
# ---------------------------------------------------------------------------

@dataclass
class FiniteKilledChain:
    """Continuous-time chain on a finite state set with per-state kill rates.

    ``jump_rates[i, j]`` is the rate of jumping i -> j (zero diagonal), given
    as a dense array or a sparse matrix and stored as a CSR matrix;
    ``kill_rates[i]`` is the rate of being sent to the cemetery from i.
    The killed generator is ``A = Q - diag(kill_rates)`` where Q is the
    conservative generator built from the jump rates.  ``space`` is where
    ``positions`` lie; it defaults to ``Finite(n_states)``.
    """

    jump_rates: sp.csr_matrix
    kill_rates: np.ndarray
    labels: Optional[tuple] = None
    positions: Optional[np.ndarray] = None
    space: object = None
    name: str = "chain"

    def __post_init__(self):
        rates = self.jump_rates
        if sp.issparse(rates):
            rates = sp.csr_matrix(rates, dtype=float, copy=True)
            rates.sum_duplicates()
            rates.eliminate_zeros()
        else:
            rates = np.ascontiguousarray(rates, dtype=float)
        self.kill_rates = np.asarray(self.kill_rates, dtype=float)
        n = rates.shape[0]
        if rates.shape != (n, n):
            raise ValueError("jump_rates must be square")
        if self.kill_rates.shape != (n,):
            raise ValueError("kill_rates must have one entry per state")
        if any(v is not None and len(v) != n for v in (self.labels, self.positions)):
            raise ValueError("labels and positions must have one entry per state")
        self.jump_rates = rates if sp.issparse(rates) else _dense_csr(rates)
        stored = self.jump_rates.data
        if not (np.all(np.isfinite(stored)) and np.all(np.isfinite(self.kill_rates))):
            raise ValueError("rates must be finite")
        if np.any(stored < 0) or np.any(self.kill_rates < 0):
            raise ValueError("rates must be nonnegative")
        if np.any(self.jump_rates.diagonal() != 0.0):
            raise ValueError("jump_rates must have zero diagonal")
        # Each state's jump outflow is summed here once, from the rates as
        # given: a dense row sums in numpy's pairwise order, and the pinned
        # outputs of dense chains (the redraw grid) depend on that order.
        self._outflow = np.asarray(rates.sum(axis=1), dtype=float).ravel()
        self.space = self.space or Finite(n)

    @property
    def n_states(self) -> int:
        return self.kill_rates.shape[0]

    @property
    def nnz(self) -> int:
        """The nonzero entries of ``generator()``, counted without building it."""
        return self.jump_rates.nnz + int(np.count_nonzero(self._outflow + self.kill_rates))

    def as_dict(self) -> dict:
        """JSON-ready form; dense matrices as row-major nested lists."""
        # plain floats and ints, so that json.dumps takes it as it is
        return {
            "name": self.name,
            "geometry": self.space.name,
            "n_states": self.n_states,
            "jump_rates": [[float(v) for v in row] for row in self.jump_rates.toarray()],
            "kill_rates": [float(v) for v in self.kill_rates],
            "labels": None if self.labels is None else [str(s) for s in self.labels],
            "positions": None if self.positions is None
            else [float(v) for v in self.positions],
        }

    def conservative_generator(self) -> sp.csr_matrix:
        """``Q``: the jump rates with minus each state's outflow on the diagonal."""
        return self.jump_rates - sp.diags(self._outflow)

    def generator(self) -> sp.csr_matrix:
        """``A = Q - diag(kill_rates)``, sparse."""
        return self.jump_rates - sp.diags(self._outflow + self.kill_rates)

    def uniformization_rate(self) -> float:
        """Bound on total outflow (jumps plus kill) over all states."""
        return float((self._outflow + self.kill_rates).max())

    def conservative_rate(self) -> float:
        return float(self._outflow.max())


def _dense_csr(dense: np.ndarray) -> sp.csr_matrix:
    """``sp.csr_matrix(dense)``, the same arrays, filled 128 rows at a time,
    so no COO copy of the whole matrix is made."""
    indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(dense, axis=1), out=indptr[1:])
    index = np.int32 if max(indptr[-1], *dense.shape) < 2 ** 31 else np.int64
    indices = np.empty(indptr[-1], dtype=index)
    data = np.empty(indptr[-1], dtype=dense.dtype)
    for r0 in range(0, dense.shape[0], 128):
        rows = dense[r0:r0 + 128]
        nz = np.nonzero(rows)
        span = slice(indptr[r0], indptr[r0 + rows.shape[0]])
        indices[span], data[span] = nz[1], rows[nz]
    return sp.csr_matrix((data, indices, indptr.astype(index)), shape=dense.shape)


def _nearest_neighbour(up: np.ndarray, down, periodic: bool = False) -> sp.csr_matrix:
    """Jump rates of a banded chain on ``len(up)`` states: i -> i + 1 at
    ``up[i]`` and i -> i - 1 at ``down[i]`` (``down`` may be one rate for
    all).  ``periodic`` makes a ring (on a ring of two states both jumps of a
    state go to the other one, and their rates add); otherwise no jump leaves
    past either end."""
    n = len(up)
    i = np.arange(n)
    src, dst = np.r_[i, i], np.r_[i + 1, i - 1]
    rates = np.r_[up, np.broadcast_to(down, (n,))]
    if periodic:
        dst %= n
    else:
        inside = (0 <= dst) & (dst < n)
        src, dst, rates = src[inside], dst[inside], rates[inside]
    return sp.csr_matrix((rates, (src, dst)), shape=(n, n))


# ---------------------------------------------------------------------------
# proposal moves
# ---------------------------------------------------------------------------
#
# Each proposal kind is one object.  ``kernel(model)`` binds the engine's
# ``_kernels.step_*`` to the model, called as ``kernel(states, source, keys,
# layout, max_iters)``; ``propose(model, x, rng)`` is its scalar reference, draw
# for draw.  ``tag``, ``drift`` and ``noise`` go to the model block of
# ``report.json``; a move without drift or noise reports zero and one.

class _Move:
    drift = ZeroDrift()
    noise = 1.0


@dataclass(frozen=True)
class GaussMove(_Move):
    """``x + gamma*drift(x) + sqrt(gamma)*noise*xi``, wrapped by the space."""

    drift: object = ZeroDrift()
    noise: float = 1.0

    tag = 0

    def kernel(self, model: KilledModel):
        return partial(_k.step_gauss, gamma=model.gamma, drift=self.drift,
                       kill=model.kill, wrap=model.space.wrap, noise=self.noise)

    def propose(self, model: KilledModel, x: np.ndarray, rng: Stream) -> np.ndarray:
        sqrtg = math.sqrt(model.gamma)
        b = self.drift.drift(x[None, :])[0]
        if not np.all(np.isfinite(b)):
            raise ModelEvaluationError(f"drift is not finite at {x!r}")
        z = np.array([rng.normal() for _ in range(x.size)])
        return model.space.wrap(x + model.gamma * b + sqrtg * self.noise * z)


@dataclass(frozen=True)
class RedrawMove(_Move):
    """Uniform(0, 1) with probability ``1 - exp(-gamma)``, else stay."""

    tag = 1

    def kernel(self, model: KilledModel):
        return partial(_k.step_redraw, gamma=model.gamma, kill=model.kill)

    def propose(self, model: KilledModel, x: np.ndarray, rng: Stream) -> np.ndarray:
        if rng.u01() < 1.0 - math.exp(-model.gamma):
            return np.array([rng.u01()])
        return x.copy()


@dataclass(frozen=True, eq=False)
class ChainMove(_Move):
    """The uniformized jump chain of ``chain``: Poisson(``gamma*rate``) jumps
    of ``I + Q/rate``, ``rate`` being the chain's largest jump outflow."""

    chain: FiniteKilledChain

    tag = 2

    @cached_property
    def cum_rows(self) -> np.ndarray:
        """Cumulative rows of ``I + Q/rate``, each ending at exactly 1."""
        rate = self.chain.conservative_rate()
        jumps = self.chain.jump_rates.toarray()  # zero diagonal
        p = jumps / rate if rate > 0 else np.zeros_like(jumps)
        p[np.diag_indices_from(p)] = 1.0 - p.sum(axis=1)
        cum = np.cumsum(p, axis=1)
        cum[:, -1] = 1.0
        return cum

    def kernel(self, model: KilledModel):
        return partial(_k.step_finite, gamma=model.gamma, cum_rows=self.cum_rows,
                       unif_mean=self.chain.conservative_rate() * model.gamma,
                       kill=model.kill)

    def propose(self, model: KilledModel, x: int, rng: Stream) -> int:
        njumps = rng.poisson(self.chain.conservative_rate() * model.gamma)
        for _ in range(njumps):
            x = min(int(np.searchsorted(self.cum_rows[x], rng.u01(), side="right")),
                    self.chain.n_states - 1)
        return x


@dataclass(frozen=True)
class GrowthFragMove(_Move):
    """``x*exp(gamma*growth)``, times ``frac`` with probability
    ``1 - exp(-gamma*jump_rate)``: a flow, then a jump at the end of the step."""

    growth: float
    frac: float
    jump_rate: float

    tag = 3

    def kernel(self, model: KilledModel):
        return partial(_k.step_growth_frag, gamma=model.gamma, growth=self.growth,
                       frac=self.frac, jump_rate=self.jump_rate, kill=model.kill)

    def propose(self, model: KilledModel, x: np.ndarray, rng: Stream) -> np.ndarray:
        y = x[0] * math.exp(model.gamma * self.growth)
        if rng.u01() < 1.0 - math.exp(-model.gamma * self.jump_rate):
            y = self.frac * y
        return np.array([y])


# ---------------------------------------------------------------------------
# killed models (discrete-time, propose/kill form)
# ---------------------------------------------------------------------------

@dataclass
class KilledModel:
    """A discrete-time killed model usable by the particle engine.

    One step proposes with ``move`` (a ``GaussMove``, ``RedrawMove``,
    ``ChainMove`` or ``GrowthFragMove``), then kills the proposal with
    probability ``kill.prob`` at the proposed point.  Its states lie in
    ``space``: integers for a ``ChainMove``'s ``Finite(n)``, else floats.
    """

    name: str
    space: object
    gamma: float
    move: object
    kill: object = NoKill()

    def __post_init__(self):
        # a bool gamma would be written to report.json as true
        if (isinstance(self.gamma, bool) or not (self.gamma > 0.0)
                or not math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be a positive real, got {self.gamma!r}")

    def describe(self) -> dict:
        kp0, kp1 = self.kill.params
        return {
            "name": self.name,
            "gamma": self.gamma,
            "kind": self.move.tag,
            "drift_id": self.move.drift.tag,
            # plain floats: the trajectory pins hash json.dumps of this block,
            # and an int drift speed is written as a float
            "drift_params": [float(v) for v in self.move.drift.params(self.space.dim)],
            "kill_id": self.kill.tag,
            "kp0": kp0,
            "kp1": kp1,
            "noise_scale": self.move.noise,
            "geometry": self.space.name,
            "dim": self.space.dim,
            **asdict(self.space),
        }


def propose(model: KilledModel, x, rng: Stream):
    """One proposal move from ``x``; does not evaluate the kill decision.

    ``x`` and the result take the form of the space's ``point``.  The draw
    accounting matches the particle engine exactly, so a particle step can
    be replayed with the same stream.
    """
    return model.move.propose(model, model.space.point(x), rng)


def kill_prob(model: KilledModel, x_proposed) -> float:
    """Kill probability evaluated at the proposed (post-move) point."""
    row = np.array([model.space.point(x_proposed)])
    return float(model.kill.prob(row, model.gamma)[0])


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

class _Preset:
    """What the oracle asks of a preset, with the answers of a preset that
    has no finite-chain oracle, no horizon of its own and no closed form."""

    horizon = None

    def chain(self, n_grid: int) -> FiniteKilledChain:
        raise UnsupportedModelError(f"{type(self).__name__} has no finite-chain oracle")

    def closed_forms(self) -> tuple:
        """Known closed-form QSDs with regime tags; when there are none the
        spectral oracle is the reference."""
        return ()


@dataclass(frozen=True)
class TwoPoint(_Preset):
    """Two-state chain: the transient state jumps to the dying state at rate
    ``a``; the dying state is killed at rate ``b`` and never jumps."""

    a: float
    b: float

    DYING = 0
    TRANSIENT = 1

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("two_point needs a > 0 and b > 0")

    def chain(self, n_grid=None) -> FiniteKilledChain:
        q = np.zeros((2, 2))
        q[self.TRANSIENT, self.DYING] = self.a
        return FiniteKilledChain(q, np.array([self.b, 0.0]),
                                 labels=("dying", "transient"), name="two_point")

    def closed_forms(self) -> tuple:
        a, b = self.a, self.b
        dirac = ClosedFormQsd(theta=b, regime="dirac_dying",
                              weights=np.array([1.0, 0.0]))
        if b > a:
            mix = ClosedFormQsd(theta=a, regime="mixture",
                                weights=np.array([a / b, (b - a) / b]))
            return (mix, dirac)
        return (dirac,)

    def model(self, gamma: float) -> KilledModel:
        return discrete_model(self.chain(), gamma, name="two_point")


@dataclass(frozen=True)
class HouseOfCard(_Preset):
    """State on [0,1], redrawn uniformly at rate 1, killed at rate c*x**q."""

    c: float
    q: float

    horizon = 1.0

    def __post_init__(self):
        if self.c < 0 or self.q < 0:
            raise ValueError("house_of_card needs c >= 0 and q >= 0")

    @property
    def kill(self) -> PowerKill:
        return PowerKill(self.c, self.q)

    def chain(self, n_grid: int, zero_atom: bool = False) -> FiniteKilledChain:
        """Exact uniform-redraw rows between ``n_grid`` cell midpoints.
        ``zero_atom`` additionally keeps the point {0} as its own state,
        which is where the degenerate quasi-stationary distributions put an
        atom."""
        x = (np.arange(n_grid) + 0.5) / n_grid
        kill = self.kill.rate(x[:, None])
        q = np.full((n_grid, n_grid), 1.0 / n_grid)
        name = "house_of_card_grid"
        if zero_atom:
            # redraws land in the cells with probability 1/n each and hit
            # the null set {0} with probability zero
            q = np.zeros((n_grid + 1, n_grid + 1))
            q[:, 1:] = 1.0 / n_grid
            x, kill = np.concatenate([[0.0], x]), np.concatenate([[0.0], kill])
            name += "_atom"
        np.fill_diagonal(q, 0.0)
        return FiniteKilledChain(q, kill, positions=x, space=Interval(), name=name)

    def closed_forms(self) -> tuple:
        c, q = self.c, self.q
        q_crit = 1.0 - 1.0 / c if c > 0 else -math.inf
        if q > q_crit + 1e-12:
            theta = _house_theta_root(c, q)
            dens = lambda x, _c=c, _q=q, _t=theta: 1.0 / (1.0 + _c * np.asarray(x) ** _q - _t)
            return (ClosedFormQsd(theta=theta, regime="unique_bounded", density=dens),)
        if abs(q - q_crit) <= 1e-12:
            dens = lambda x, _q=q: (1.0 - _q) * np.asarray(x) ** (-_q)
            return (
                ClosedFormQsd(theta=1.0, regime="critical_density", density=dens),
                ClosedFormQsd(theta=1.0, regime="dirac_zero", atom=0.0, atom_weight=1.0),
            )
        # degenerate regime: atom at zero plus density proportional to x**-q
        w0 = 1.0 - 1.0 / (c * (1.0 - q))
        dens = lambda x, _c=c, _q=q: np.asarray(x) ** (-_q) / _c
        return (ClosedFormQsd(theta=1.0, regime="degenerate_mixture", density=dens,
                              atom=0.0, atom_weight=w0),)

    def model(self, gamma: float) -> KilledModel:
        return KilledModel(name="house_of_card", space=Interval(), gamma=gamma,
                           move=RedrawMove(), kill=self.kill)


@dataclass(frozen=True)
class BirthDeath(_Preset):
    """Birth-death chain on {1..truncation} with reflecting cap.

    Interior states move up at rate ``b`` and down at rate ``d``; the lowest
    state moves up at rate ``b1`` and is killed at rate ``d1``.  The cap is
    reflecting: the top state simply has no up-jump.
    """

    b: float
    d: float
    b1: float
    d1: float
    truncation: int = 200

    def __post_init__(self):
        if min(self.b, self.d, self.b1, self.d1) <= 0:
            raise ValueError("birth_death rates must be positive")
        if self.truncation < 3:
            raise ValueError("truncation must be at least 3")

    def chain(self, n_grid=None) -> FiniteKilledChain:
        n = self.truncation
        up = np.full(n, float(self.b))
        up[0] = self.b1
        kill = np.zeros(n)
        kill[0] = self.d1
        return FiniteKilledChain(_nearest_neighbour(up, self.d), kill,
                                 positions=np.arange(1, n + 1, dtype=float),
                                 name="birth_death")

    def criterion_value(self) -> float:
        """Sign decides whether the renormalized law converges to a unique
        quasi-stationary distribution for the untruncated chain."""
        return ((math.sqrt(self.b) - math.sqrt(self.d)) ** 2
                + self.b1 * (math.sqrt(self.d / self.b) - 1.0) - self.d1)

    def model(self, gamma: float) -> KilledModel:
        return discrete_model(self.chain(), gamma, name="birth_death")


@dataclass(frozen=True)
class PeriodicShift(_Preset):
    """Deterministic rotation of the 1-torus at unit speed, never killed."""

    speed: float = 1.0

    def model(self, gamma: float) -> KilledModel:
        return KilledModel(name="periodic_shift", space=Torus(), gamma=gamma,
                           move=GaussMove(ConstDrift(float(self.speed)), noise=0.0))


@dataclass(frozen=True)
class GrowthFrag(_Preset):
    """Exponential growth with multiplicative down-jumps on the half-line.

    From a single starting point the reachable set after n steps has at most
    n + 1 values, which is the mechanism that defeats any fixed minorization
    measure with a density.
    """

    growth: float = 1.0
    frac: float = 0.5
    jump_rate: float = 1.0
    kill_rate: float = 0.0

    def __post_init__(self):
        if not (0 < self.frac < 1):
            raise ValueError("frac must lie in (0, 1)")
        if self.growth <= 0 or self.jump_rate < 0 or self.kill_rate < 0:
            raise ValueError("invalid growth_frag parameters")

    def model(self, gamma: float) -> KilledModel:
        return KilledModel(name="growth_frag", space=HalfLine(), gamma=gamma,
                           move=GrowthFragMove(self.growth, self.frac, self.jump_rate),
                           kill=ConstKill(self.kill_rate))


@dataclass(frozen=True)
class TorusDiffusion(_Preset):
    """Diffusion on the d-torus with a named drift/kill family.

    drift: ``None`` (zero), a float (constant speed on every coordinate),
    or ``("sine", a)`` for ``b(x) = a*sin(2*pi*x)`` in one dimension.
    kill: ``None``, a float (constant rate), or ``("cosine", l0, l1)`` for
    rate ``l0 + l1*cos(2*pi*x)`` in one dimension.
    """

    dim: int = 1
    drift: object = None
    kill: object = None

    horizon = 0.25

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError("torus_diffusion needs an integer dim >= 1")
        self.families()

    def families(self) -> tuple:
        """The ``(drift, kill)`` family objects named by ``drift`` and ``kill``."""
        family = self._family
        return (family(self.drift, "drift", ZeroDrift(), ConstDrift, "sine", SineDrift),
                family(self.kill, "kill", NoKill(), ConstKill, "cosine", CosineKill))

    def _family(self, spec, what, none, const, name, named):
        """``spec`` read by the one grammar of a family spec: ``None`` gives
        ``none``, a number (``_is_number``) gives ``const(number)`` and
        ``[name, number, ...]``, one number per field of ``named``, gives the
        one-dimensional ``named(*numbers)``.  Anything else is a ValueError."""
        if spec is None:
            return none
        if _is_number(spec):
            return const(float(spec))
        if (isinstance(spec, (tuple, list)) and len(spec) == len(fields(named)) + 1
                and spec[0] == name and all(map(_is_number, spec[1:]))):
            if self.dim != 1:
                raise ValueError(f"{name} {what} is one dimensional")
            return named(*map(float, spec[1:]))
        raise ValueError(f"unknown {what} family: {spec!r}")

    def chain(self, n_grid: int) -> FiniteKilledChain:
        """``n_grid`` cells of the circle: second-order central differences
        for the diffusion and first-order upwind for the drift, which keeps
        the off-diagonal rates nonnegative."""
        if self.dim != 1:
            raise UnsupportedModelError("the torus_diffusion grid is one "
                                        f"dimensional, got dim={self.dim}")
        h = 1.0 / n_grid
        x = np.arange(n_grid) * h
        rate = 0.5 / (h * h)
        drift, kill = self.families()
        b = drift.drift(x[:, None])[:, 0]
        q = _nearest_neighbour(rate + np.maximum(b, 0.0) / h,
                               rate + np.maximum(-b, 0.0) / h, periodic=True)
        return FiniteKilledChain(q, kill.rate(x[:, None]), positions=x,
                                 space=Torus(), name="torus_diffusion_grid")

    def model(self, gamma: float) -> KilledModel:
        drift, kill = self.families()
        return KilledModel(name="torus_diffusion", space=Torus(self.dim),
                           gamma=gamma, move=GaussMove(drift), kill=kill)


@dataclass(frozen=True)
class IntervalBrownian(_Preset):
    """Standard Brownian proposals on (0, 1), killed on leaving the interval."""

    horizon = 0.06

    def chain(self, n_grid: int) -> FiniteKilledChain:
        """``n_grid`` interior points with second-order central differences;
        the two boundary rows are killed at the rate of a jump out."""
        h = 1.0 / (n_grid + 1)
        x = (np.arange(n_grid) + 1) * h
        rate = 0.5 / (h * h)
        kill = np.zeros(n_grid)
        kill[[0, -1]] = rate
        return FiniteKilledChain(_nearest_neighbour(np.full(n_grid, rate), rate), kill,
                                 positions=x, space=Interval(),
                                 name="interval_brownian_grid")

    def closed_forms(self) -> tuple:
        dens = lambda x: (math.pi / 2.0) * np.sin(math.pi * np.asarray(x))
        return (ClosedFormQsd(theta=math.pi ** 2 / 2.0, regime="dirichlet_ground_state",
                              density=dens),)

    def model(self, gamma: float) -> KilledModel:
        return KilledModel(name="interval_brownian", space=Interval(), gamma=gamma,
                           move=GaussMove(), kill=IntervalKill(0.0, 1.0))


def discrete_model(chain: FiniteKilledChain, gamma: float, name: str = "finite") -> KilledModel:
    """Discrete-time killed model for a finite chain.

    The conservative jump part over one step of length ``gamma`` is sampled
    exactly by uniformization; killing is applied at the landed state with
    probability ``1 - exp(-gamma * kill_rate)``.  The matching one-step
    reference kernel is ``expm(gamma*Q) @ diag(exp(-gamma*kill))``.
    """
    return KilledModel(name=name, space=Finite(chain.n_states), gamma=gamma,
                       move=ChainMove(chain), kill=StateKill(chain.kill_rates))


PRESETS = {
    "two_point": TwoPoint,
    "house_of_card": HouseOfCard,
    "birth_death": BirthDeath,
    "periodic_shift": PeriodicShift,
    "growth_frag": GrowthFrag,
    "torus_diffusion": TorusDiffusion,
    "interval_brownian": IntervalBrownian,
}


def _is_number(v) -> bool:
    """A finite number; booleans and strings are not numbers."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


# the config values each number field of a preset takes; a drift or kill
# family field is checked by ``TorusDiffusion.families``
_PARAM_OK = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_number,
}


def build_preset(name: str, params: dict):
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    kinds = {f.name: f.type for f in fields(PRESETS[name])}
    for key, value in params.items():
        if kinds.get(key) in _PARAM_OK and not _PARAM_OK[kinds[key]](value):
            raise ValueError(f"bad parameter {key}={value!r} for preset {name!r}")
    try:
        return PRESETS[name](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for preset {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# closed-form quasi-stationary distributions
# ---------------------------------------------------------------------------

@dataclass
class ClosedFormQsd:
    """A quasi-stationary distribution in closed form.

    Either finite-state ``weights``, or a ``density`` on the unit interval,
    optionally with a point mass ``atom_weight`` at ``atom``.
    """

    theta: float
    regime: str
    weights: Optional[np.ndarray] = None
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    atom: Optional[float] = None
    atom_weight: float = 0.0

    def density_mass(self) -> float:
        if self.density is None:
            return 0.0
        from scipy.integrate import quad

        val, _ = quad(lambda x: float(self.density(np.array([x]))[0]),
                      0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
        return float(val)


def _house_theta_root(c: float, q: float) -> float:
    from scipy.integrate import quad
    from scipy.optimize import brentq

    def g(theta: float) -> float:
        # full_output suppresses the roundoff warning near the tolerance floor
        out = quad(lambda x: 1.0 / (1.0 + c * x ** q - theta), 0.0, 1.0,
                   epsabs=1e-10, epsrel=1e-10, limit=200, full_output=1)
        return out[0] - 1.0

    # g rises to +inf as theta -> 1, but quad can miss the spike near x = 0
    # just below 1; bracket with the largest theta where g is seen positive
    for k in range(12, 0, -1):
        hi = 1.0 - 10.0 ** -k
        if g(hi) > 0:
            return float(brentq(g, 0.0, hi, xtol=1e-14, rtol=8.9e-16))
    raise ValueError(f"no extinction rate found for house_of_card c={c}, q={q}")
