"""Numeric kernels of the particle engine: counter-based draws and one step.

One vectorized numpy loop (``_resample``) advances every particle by
propose / kill / resurrect; the particles of R independent replicas, of
possibly different sizes, share one flat array, replica-major, and each
replica resurrects from its own source.  ``replica_layout`` derives, once
per batch and from the replicas' particle counts alone, all that a step
reads of where the replicas sit: each replica's first row and size, each
particle's replica and key column, and the runs of equal-size replicas by
which the source is sorted.  The four step kernels supply the loop's
proposal for each dynamics kind: Gaussian moves (``step_gauss``), uniform
redraws (``step_redraw``), uniformized finite chains (``step_finite``) and
growth with multiplicative down-jumps (``step_growth_frag``).  Each kernel
is bound to a model by its move object in ``qsdlab.models`` (``GaussMove``,
``RedrawMove``, ``ChainMove``, ``GrowthFragMove``), whose ``propose`` is the
scalar reference of the same draws.  Drift and kill enter as family objects
with a vectorized ``drift(x)`` and ``prob(x, gamma)``; ``_resample`` alone
evaluates the kill.

Randomness is counter-based: every draw is a 64-bit hash of
``(seed, step, particle, counter)``, so a run is reproducible from
``(seed, model, config)`` alone, permuting particle labels together with
their stream ids commutes exactly with a step, and neither chunking a run
into sub-ranges of steps nor batching it with other replicas can change its
output.  Every draw is written here twice, side by side: a numpy form over
arrays of keys and counters, for the engine, and a Python-int form on one
stream, for the particle-by-particle reference.  ``Stream`` is the
reference's cursor, one key and its next counter, and its draws equal the
numpy forms' bit for bit (numpy's ``log`` and ``cos``, not ``math``'s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Stream",
    "substream",
    "derive_key",
    "raw_draw",
    "u01_from_raw",
    "step_gauss",
    "step_redraw",
    "step_finite",
    "step_growth_frag",
    "ResurrectionOverflowError",
]


class ResurrectionOverflowError(RuntimeError):
    """Raised when the resurrection loop exceeds its iteration budget."""

    def __init__(self, iterations: int, step: int = -1, particle: int = -1,
                 replica: int = -1):
        self.iterations = iterations
        self.step = step
        self.particle = particle
        self.replica = replica
        where = ""
        if step >= 0:
            where = f" at step {step}"
        if replica >= 0:
            where += f", replica {replica}"
        if particle >= 0:
            where += f", particle {particle}"
        super().__init__(
            f"resurrection loop exceeded {iterations} iterations{where}; "
            "the kill probability is close to 1 on the source's support"
        )


# ---------------------------------------------------------------------------
# counter-based stream: splitmix64-style hashing
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1
_GOLDEN_I = 0x9E3779B97F4A7C15
_MIX1_I = 0xBF58476D1CE4E5B9
_MIX2_I = 0x94D049BB133111EB
_KEY1_I = 0xC2B2AE3D27D4EB4F
_KEY2_I = 0x165667B19E3779F9

_U53 = 1.0 / 9007199254740992.0  # 2**-53
_TWO_PI = 2.0 * math.pi

# uint64 constants of the vectorized forms
_GOLDEN = np.uint64(_GOLDEN_I)
_MIX1 = np.uint64(_MIX1_I)
_MIX2 = np.uint64(_MIX2_I)
_KEY1 = np.uint64(_KEY1_I)
_KEY2 = np.uint64(_KEY2_I)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_ONE_U = np.uint64(1)
_TWO_U = np.uint64(2)


def _mix64_int(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * _MIX1_I) & _M64
    z = ((z ^ (z >> 27)) * _MIX2_I) & _M64
    return z ^ (z >> 31)


def derive_step_key(seed: int, stream_id: int) -> int:
    """Partial key shared by all particles of one step."""
    h = _mix64_int(seed)
    return _mix64_int(h ^ ((stream_id * _KEY1_I) & _M64))


def derive_key(seed: int, stream_id: int, particle: int) -> int:
    """64-bit stream key for (seed, step/phase id, particle id)."""
    base = derive_step_key(seed, stream_id)
    return _mix64_int(base ^ ((particle * _KEY2_I) & _M64))


def raw_draw(key: int, counter: int) -> int:
    """The ``counter``-th 64-bit output of the stream with the given key."""
    return _mix64_int((key + ((counter + 1) * _GOLDEN_I)) & _M64)


def u01_from_raw(raw: int) -> float:
    return (raw >> 11) * _U53


# vectorized uint64 forms (array arithmetic wraps silently)

def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _SH30)) * _MIX1
    z = (z ^ (z >> _SH27)) * _MIX2
    return z ^ (z >> _SH31)


def derive_keys_np(seed: int, stream_id: int, particles: np.ndarray) -> np.ndarray:
    base = np.uint64(derive_step_key(seed, stream_id))
    return _mix64_np(base ^ (particles.astype(np.uint64) * _KEY2))


def replica_bases(seeds: np.ndarray, sid0: int, n_steps: int) -> np.ndarray:
    """``derive_step_key(seed, sid)`` for ``sid`` in ``sid0 .. sid0+n_steps-1``
    (rows) and each uint64 seed of ``seeds`` (columns)."""
    sids = np.arange(sid0, sid0 + n_steps, dtype=np.uint64) * _KEY1
    return _mix64_np(_mix64_np(seeds)[None, :] ^ sids[:, None])


class ReplicaLayout(NamedTuple):
    """Where each replica of a batch sits in the flat particle array:
    ``counts[r]`` particles of replica r from row ``start[r]``, replica-major.
    Per particle: its ``replica`` (so ``start[replica]`` is its replica's
    first row) and its ``column``, ``i * KEY2`` for its index i within the
    replica, which ``batch_keys`` mixes into the step bases.  ``runs`` holds
    ``(row, reps, n)`` for each run of consecutive replicas of n particles."""

    counts: np.ndarray
    start: np.ndarray
    replica: np.ndarray
    column: np.ndarray
    runs: tuple


def replica_layout(counts) -> ReplicaLayout:
    """The layout of replicas of ``counts`` particles each, in order."""
    counts = np.asarray(counts, dtype=np.int64)
    replica = np.repeat(np.arange(counts.size), counts)
    start = np.cumsum(counts) - counts
    column = (np.arange(replica.size) - start[replica]).astype(np.uint64) * _KEY2
    heads = np.flatnonzero(np.diff(counts, prepend=-1))  # each run's first replica
    runs = zip(start[heads].tolist(), np.diff(heads, append=counts.size).tolist(),
               counts[heads].tolist())
    return ReplicaLayout(counts, start, replica, column, tuple(runs))


def batch_keys(bases: np.ndarray, layout: ReplicaLayout) -> np.ndarray:
    """Replica-major keys of one step: replica r's particle i has
    ``derive_key(seed_r, sid, i)``, from ``bases`` (one ``replica_bases``
    row) and the ``layout`` of the replicas."""
    return _mix64_np(np.repeat(bases, layout.counts) ^ layout.column)


def _raw_np(keys: np.ndarray, ctrs: np.ndarray) -> np.ndarray:
    return _mix64_np(keys + (ctrs + _ONE_U) * _GOLDEN)


def _u01_np(keys: np.ndarray, ctrs: np.ndarray) -> np.ndarray:
    return (_raw_np(keys, ctrs) >> _SH11) * _U53


def _normal_np(keys: np.ndarray, ctrs: np.ndarray) -> np.ndarray:
    """One standard normal per stream, consuming counters ctr and ctr+1."""
    u1 = ((_raw_np(keys, ctrs) >> _SH11) + _ONE_U) * _U53
    u2 = (_raw_np(keys, ctrs + _ONE_U) >> _SH11) * _U53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)


# the Python-int forms, on one stream at a time

@dataclass
class Stream:
    """The reference's cursor: the draws of ``key`` from ``counter`` on,
    each advancing ``counter`` past the positions it reads and equal, bit
    for bit, to its numpy form at the same key and counter."""

    key: int
    counter: int = 0

    def _raw(self) -> int:
        raw = raw_draw(self.key, self.counter)
        self.counter += 1
        return raw

    def u01(self) -> float:
        """Uniform draw on [0, 1), as ``_u01_np``."""
        return u01_from_raw(self._raw())

    def u01_open(self) -> float:
        """Uniform draw on (0, 1], the ``u1`` of ``_normal_np``."""
        return ((self._raw() >> 11) + 1) * _U53

    def normal(self) -> float:
        """Standard normal draw (consumes two counter positions), as ``_normal_np``."""
        u1 = self.u01_open()
        u2 = self.u01()
        return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2))

    def pick(self, n: int) -> int:
        """Uniform index in ``range(n)``."""
        return min(int(self.u01() * n), n - 1)

    def poisson(self, mean: float) -> int:
        """Poisson draw by Knuth's product method, as ``step_finite``'s: sums
        the logs of open uniforms until the sum is at most ``-mean``, so
        even ``poisson(0)`` takes one draw."""
        acc = 0.0
        k = 0
        while True:
            acc += np.log(self.u01_open())
            if acc <= -mean:
                return k
            k += 1


def substream(seed: int, stream_id: int, particle: int = 0) -> Stream:
    """Stream addressed by (seed, stream id, particle id)."""
    return Stream(derive_key(seed, stream_id, particle))


# ---------------------------------------------------------------------------
# one-step kernels
# ---------------------------------------------------------------------------

def _resample(states, source, keys, layout, max_iters, propose, kill, gamma):
    """Advance every particle one step in place; returns
    ``(deaths, replica_deaths, err)``.

    ``states`` holds the replicas of ``layout`` (a ``ReplicaLayout``),
    replica-major, and ``keys`` their streams.  ``propose(y, keys, ctrs)``
    moves the rows ``y`` with the streams ``(keys, ctrs)`` and advances
    ``ctrs`` past the draws it used; the next draw kills the proposal with
    probability ``kill.prob(x, gamma)``.  A killed particle restarts from a
    uniform draw among the ``n_r`` rows of its replica in ``source()``, the
    pre-step states sorted replica by replica (called once, on the first
    death), until it survives.  ``deaths`` is the total kill count and
    ``replica_deaths`` the array of each replica's count.  ``err`` is the
    first particle still dead when the budget of ``max_iters`` rounds ran
    out (``states`` is then left as it was and ``replica_deaths`` is None),
    else -1.
    """
    ctrs = np.zeros(keys.size, dtype=np.uint64)
    out = propose(states, keys, ctrs)
    u = _u01_np(keys, ctrs)
    ctrs += _ONE_U
    dead = np.nonzero(~(u >= kill.prob(out, gamma)))[0]
    killed = [dead]
    src = source() if dead.size else None
    rounds = 1
    while dead.size:
        if rounds > max_iters:
            return sum(d.size for d in killed), None, int(dead[0])
        ks = keys[dead]
        usel = _u01_np(ks, ctrs[dead])
        cs = ctrs[dead] + _ONE_U
        # row min(int(u * n_r), n_r - 1) of the particle's replica
        rep = layout.replica[dead]
        size = layout.counts[rep]
        j = np.minimum((usel * size).astype(np.int64), size - 1) + layout.start[rep]
        x = propose(src[j], ks, cs)
        u = _u01_np(ks, cs)
        ctrs[dead] = cs + _ONE_U
        ok = u >= kill.prob(x, gamma)
        out[dead[ok]] = x[ok]
        dead = dead[~ok]
        killed.append(dead)
        rounds += 1
    states[:] = out
    killed = np.concatenate(killed)
    return killed.size, np.bincount(layout.replica[killed],
                                    minlength=layout.counts.size), -1


# Every kernel takes (states, source, keys, layout, max_iters), as
# ``_resample`` does, and the parameters of its kind, kill included, by keyword.

def step_gauss(states, source, keys, layout, max_iters, *, gamma, drift, kill,
               wrap, noise):
    """``x' = wrap(x + gamma*b(x) + sqrt(gamma)*noise*xi)``, the space's wrap."""
    sqrtg = math.sqrt(gamma) * noise

    def propose(y, keys, ctrs):
        z = np.empty(y.shape)
        for k in range(y.shape[1]):
            z[:, k] = _normal_np(keys, ctrs)
            ctrs += _TWO_U
        return wrap(y + gamma * drift.drift(y) + sqrtg * z)

    return _resample(states, source, keys, layout, max_iters, propose, kill, gamma)


def step_redraw(states, source, keys, layout, max_iters, *, gamma, kill):
    """Redraw from Uniform(0, 1) with probability ``1 - exp(-gamma)``, else stay."""
    p_move = 1.0 - math.exp(-gamma)

    def propose(y, keys, ctrs):
        moved = _u01_np(keys, ctrs) < p_move
        ctrs += _ONE_U
        x = y.copy()
        x[moved, 0] = _u01_np(keys[moved], ctrs[moved])
        ctrs[moved] += _ONE_U
        return x

    return _resample(states, source, keys, layout, max_iters, propose, kill, gamma)


def step_finite(states, source, keys, layout, max_iters, *, gamma, cum_rows,
                unif_mean, kill):
    """Uniformized jump chain: a Poisson(``unif_mean``) number of jumps along
    the cumulative rows ``cum_rows``, then death with probability
    ``kill.prob(state, gamma)``."""
    n_states = cum_rows.shape[0]
    log_l = -unif_mean

    def propose(y, keys, ctrs):
        # Knuth's product method: count uniforms until their product <= e^-mean
        acc = np.zeros(y.shape[0])
        njumps = np.zeros(y.shape[0], dtype=np.int64)
        active = np.arange(y.shape[0])
        while active.size:
            raw = _raw_np(keys[active], ctrs[active])
            ctrs[active] += _ONE_U
            acc[active] += np.log(((raw >> _SH11) + _ONE_U) * _U53)
            done = acc[active] <= log_l
            njumps[active[~done]] += 1
            active = active[~done]
        x = y.copy()
        while np.any(njumps > 0):
            need = np.nonzero(njumps > 0)[0]
            uj = _u01_np(keys[need], ctrs[need])
            ctrs[need] += _ONE_U
            # entries <= u of a nondecreasing row: searchsorted(side="right")
            v = np.count_nonzero(cum_rows[x[need]] <= uj[:, None], axis=1)
            x[need] = np.minimum(v, n_states - 1)
            njumps[need] -= 1
        return x

    return _resample(states, source, keys, layout, max_iters, propose, kill, gamma)


def step_growth_frag(states, source, keys, layout, max_iters, *, gamma, growth,
                     frac, jump_rate, kill):
    """``x' = x*exp(gamma*growth)``, times ``frac`` with probability
    ``1 - exp(-gamma*jump_rate)``: a flow, then a jump at the end of the step."""
    g = math.exp(gamma * growth)
    p_jump = 1.0 - math.exp(-gamma * jump_rate)

    def propose(y, keys, ctrs):
        x = y * g
        jumped = _u01_np(keys, ctrs) < p_jump
        ctrs += _ONE_U
        x[jumped] *= frac
        return x

    return _resample(states, source, keys, layout, max_iters, propose, kill, gamma)
