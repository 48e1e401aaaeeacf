"""Discretized Fleming-Viot particle system.

One step advances every particle by the resampling kernel: propose a move,
accept it on survival, and on death restart from a draw of the pre-step
empirical measure (frozen for the whole step), retrying until survival.
The product form over particles makes updates independent within a step;
per-particle counter-based streams keyed by (run seed, step, particle) make
the result reproducible regardless of scheduling and exactly exchangeable
under joint permutation of labels and streams.  ``run_fv_batch`` advances
runs that differ only in seed and particle count as one particle array,
each run resurrecting from its own particles, so each equals its single run
bit for bit.  A batch builds its replica layout and binds its step kernel
once, and ``_advance``, the one step loop of the engine, yields each step's
deaths per replica to ``run_fv_batch``.  A report holds the model and the
config it ran; ``write_report`` builds the blocks of ``report.json`` from
them.  The particle-by-particle reference (``q_mu_step``,
``fv_step_reference``) draws from ``_kernels.Stream``, the scalar form of the
engine's draws.

Every data file of the package is written by ``write_json`` or
``write_csv``, so each format is spelled out once: ``write_json`` turns a
numpy array or scalar into its ``tolist()`` and ``_cells`` writes a CSV
value.  ``write_report`` writes a run's files with them.
"""

from __future__ import annotations

import json
import numbers
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from ._kernels import ResurrectionOverflowError, Stream, substream
from .models import KilledModel, ModelEvaluationError, kill_prob, propose

__all__ = [
    "FVConfig",
    "FVReport",
    "q_mu_step",
    "fv_step_reference",
    "run_fv",
    "run_fv_batch",
    "check_batch_size",
    "init_states",
    "write_report",
    "write_json",
    "write_csv",
]

_INIT_STREAM = 0  # stream id reserved for drawing the initial ensemble
_BASES_BLOCK = 1 << 14  # step bases derived at a time, over all replicas
# the most bytes of deaths and snapshots a batch may plan; a larger run is
# refused before anything is allocated
MAX_BATCH_BYTES = 1 << 30


@dataclass
class FVConfig:
    """Run parameters for the particle system; the step size is the model's."""

    n_particles: int
    n_steps: int
    seed: int
    snapshot_stride: int = 100
    max_resurrection_iters: int = 1_000_000

    def __post_init__(self):
        for name, lo in (("n_particles", 1), ("n_steps", 0), ("seed", 0),
                         ("snapshot_stride", 1), ("max_resurrection_iters", 1)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < lo):
                raise ValueError(f"{name} must be an integer of at least {lo}, "
                                 f"got {value!r}")
            setattr(self, name, int(value))  # report.json takes plain ints
        if self.seed >= 2 ** 64:  # the stream keys take the seed modulo 2**64
            raise ValueError("seed must be an integer in [0, 2**64)")


@dataclass
class FVReport:
    """A run: the model and the config it ran, the deaths per step, the
    snapshots ``(step, states)`` and the final states."""

    model: KilledModel
    config: FVConfig
    deaths: np.ndarray
    snapshots: list
    final_states: np.ndarray
    elapsed: float = 0.0


# ---------------------------------------------------------------------------
# initial ensembles
# ---------------------------------------------------------------------------

def init_states(model: KilledModel, n: int, seed: int, init="uniform") -> np.ndarray:
    """Draw the initial particle array from a sampleable description.

    ``init`` is ``"uniform"`` (the space's ``uniform`` law) or a pair
    ``("dirac", value)``.  A Dirac state must be one state of the model's
    space where a particle survives with positive probability (ValueError).
    """
    if isinstance(init, (tuple, list)) and len(init) == 2 and init[0] == "dirac":
        arr = model.space.states(init[1])
        if arr.shape[0] != 1:
            raise ValueError(f"a Dirac init takes one state, got {init[1]!r}")
        if np.any(model.kill.prob(arr, model.gamma) >= 1.0):
            raise ValueError(f"the Dirac state of {model.name} must lie where a "
                             f"particle can survive, got {init[1]!r}")
        return np.repeat(arr, n, axis=0)
    if not (isinstance(init, str) and init == "uniform"):
        raise ValueError(f"unknown init spec: {init!r}")
    # particle i reads counters 0, 1, ... of the stream (seed, _INIT_STREAM, i)
    keys = _k.derive_keys_np(seed, _INIT_STREAM, np.arange(n, dtype=np.uint64))
    return model.space.uniform(
        lambda k: _k._u01_np(keys, np.full(n, k, dtype=np.uint64)))


# ---------------------------------------------------------------------------
# the resampling kernel, one particle
# ---------------------------------------------------------------------------

def q_mu_step(model: KilledModel, x, source, rng: Stream,
              max_iters: int = 1_000_000):
    """Propose from ``x``; on death, resurrect from a uniform pick among the
    atoms of the array ``source`` until survival.

    Returns ``(state, deaths)`` where ``deaths`` counts every kill event
    including the initial one.  Raises :class:`ResurrectionOverflowError`
    when the loop exceeds ``max_iters``, which signals a kill probability
    close to 1 on the source's support.
    """
    prop = propose(model, x, rng)
    u = rng.u01()
    deaths = 0
    while u < kill_prob(model, prop):
        deaths += 1
        if deaths > max_iters:
            raise ResurrectionOverflowError(max_iters)
        prop = propose(model, source[rng.pick(source.shape[0])], rng)
        u = rng.u01()
    return prop, deaths


def _sorted_source(states: np.ndarray, layout: _k.ReplicaLayout) -> np.ndarray:
    """Canonically ordered copy of the pre-step states: the rows of each
    replica of ``layout`` in lexicographic order, replica by replica.

    Resurrection draws index this sorted copy, so the draw depends only on
    the multiset of its replica's states; that is what makes label
    permutation commute with a step exactly.
    """
    if states.ndim == 1 or states.shape[1] == 1:
        # each run of consecutive replicas of one size is sorted as a block
        tail = states.shape[1:]
        blocks = [np.sort(states[row:row + reps * n].reshape(reps, n, *tail), axis=1)
                  .reshape(reps * n, *tail) for row, reps, n in layout.runs]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    # lexsort's last key is the primary one: replica, then x0, x1, ...
    order = np.lexsort((*(states[:, k] for k in range(states.shape[1] - 1, -1, -1)),
                        layout.replica))
    return states[order]


def fv_step_reference(model: KilledModel, states: np.ndarray, seed: int,
                      step_index: int, stream_ids=None,
                      max_iters: int = 1_000_000):
    """Pure-python one-step update, particle by particle.

    Matches the compiled kernel draw for draw; ``stream_ids`` overrides the
    per-particle stream identity (defaults to the particle's position).
    Returns ``(new_states, deaths)``.
    """
    n = states.shape[0]
    if stream_ids is None:
        stream_ids = np.arange(n)
    src = _sorted_source(states, _k.replica_layout([n]))
    out = np.empty_like(states)
    deaths = 0
    sid = step_index + 1
    for i in range(n):
        rng = substream(seed, sid, int(stream_ids[i]))
        out[i], dd = q_mu_step(model, states[i], src, rng, max_iters=max_iters)
        deaths += dd
    return out, deaths


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def _advance(model: KilledModel, states: np.ndarray, seeds,
             layout: _k.ReplicaLayout, sid0: int, n_steps: int, max_iters: int):
    """Advance the replicas of ``layout``, replica r with ``seeds[r]``, by
    ``n_steps`` steps in place, the first with stream id ``sid0``; yields
    each step's death counts per replica, an array of R entries.

    The step kernel is bound once, the step bases are derived a block of
    steps at a time, and the source of a step is sorted only when some
    particle dies in it.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    step = model.move.kernel(model)

    def source():
        return _sorted_source(states, layout)

    block = max(1, _BASES_BLOCK // seeds.size)
    for s0 in range(sid0, sid0 + n_steps, block):
        bases = _k.replica_bases(seeds, s0, min(block, sid0 + n_steps - s0))
        for sid, base in enumerate(bases, s0):
            _, per_replica, err = step(states, source, _k.batch_keys(base, layout),
                                       layout, max_iters)
            if err >= 0:
                raise ResurrectionOverflowError(
                    max_iters, step=sid - 1,
                    particle=int(err - layout.start[layout.replica[err]]),
                    replica=int(layout.replica[err]) if seeds.size > 1 else -1)
            yield per_replica


def check_batch_size(model: KilledModel, configs) -> None:
    """Refuse (ValueError) a batch of ``configs``, which share ``n_steps``
    and ``snapshot_stride``, whose deaths and snapshots plan more than
    ``MAX_BATCH_BYTES``: ``n_steps x R`` int64 deaths and
    ``(n_steps // snapshot_stride + 2) x sum(N_r) x dim`` float64 states."""
    cfg = configs[0]
    deaths = cfg.n_steps * len(configs)
    states = ((cfg.n_steps // cfg.snapshot_stride + 2)
              * sum(c.n_particles for c in configs) * model.space.dim)
    planned = 8 * (deaths + states)
    if planned > MAX_BATCH_BYTES:
        raise ValueError(f"a run of {cfg.n_steps} steps plans {planned / 2 ** 30:.3g} "
                         f"GiB of deaths and snapshots, past the budget of "
                         f"{MAX_BATCH_BYTES / 2 ** 30:g} GiB (fv.MAX_BATCH_BYTES)")


def run_fv_batch(model: KilledModel, configs, init="uniform") -> list:
    """Run R replicas of the particle system as one batch; returns their
    ``FVReport``s in the order of ``configs``.

    The configs may differ only in ``seed`` and ``n_particles`` (ValueError
    otherwise).  All replicas advance together in one flat array of
    ``sum(N_r)`` particles, in one step loop that takes each snapshot, and
    replica r's report equals ``run_fv(model, configs[r], init)`` bit for
    bit, except ``elapsed``, which is the batch's wall time; it holds
    ``model`` and ``configs[r]`` themselves.  An overflow raises the step and
    particle that the single run of the first overflowing replica reports,
    and names that replica.  A snapshot whose states are not all in the
    model's space (a non-finite move, say) raises ModelEvaluationError
    naming its step.  A batch past ``check_batch_size`` raises ValueError
    before it allocates anything.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("a batch needs at least one config")
    # a config's fields are its instance dict, all plain ints
    shared = dict(vars(configs[0]), seed=0, n_particles=0)
    if any(dict(vars(c), seed=0, n_particles=0) != shared for c in configs):
        raise ValueError("the configs of a batch may differ only in seed and "
                         "n_particles")
    check_batch_size(model, configs)
    t0 = time.perf_counter()
    cfg = configs[0]
    layout = _k.replica_layout([c.n_particles for c in configs])
    states = np.concatenate([init_states(model, c.n_particles, c.seed, init)
                             for c in configs])
    deaths = np.zeros((cfg.n_steps, len(configs)), dtype=np.int64)
    snapshots = []

    def snapshot(step):
        if not model.space.allows(states):
            raise ModelEvaluationError(f"{model.name} has states outside "
                                       f"{model.space} at step {step}")
        snapshots.append((step, states.copy()))

    snapshot(0)
    steps = _advance(model, states, [c.seed for c in configs], layout, 1,
                     cfg.n_steps, cfg.max_resurrection_iters)
    for done, dead in enumerate(steps, 1):
        deaths[done - 1] = dead
        if done % cfg.snapshot_stride == 0 or done == cfg.n_steps:
            snapshot(done)
    elapsed = time.perf_counter() - t0
    # each replica's snapshots are views of the batch's
    return [FVReport(model=model, config=c, deaths=deaths[:, r].copy(),
                     snapshots=[(s, arr[a:a + n]) for s, arr in snapshots],
                     final_states=states[a:a + n].copy(),
                     elapsed=elapsed)
            for r, (c, a, n) in enumerate(zip(configs, layout.start, layout.counts))]


def run_fv(model: KilledModel, config: FVConfig, init="uniform") -> FVReport:
    """Run the particle system and collect snapshots and death counts.

    Deterministic given (seed, model, config): the same inputs reproduce the
    report bit for bit, and the snapshot stride has no effect on the
    trajectory itself.  It is the one-replica batch of ``run_fv_batch``.
    """
    return run_fv_batch(model, [config], init)[0]


# ---------------------------------------------------------------------------
# serialization: the one JSON writer and the one CSV writer of every data file
# ---------------------------------------------------------------------------

def _plain(value):
    """``value`` with every numpy array or scalar in it, inside dicts, lists
    and tuples, replaced by its ``tolist()``; anything else json does not
    take still raises TypeError in ``json.dumps``."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def write_json(path: pathlib.Path, payload) -> None:
    """Write ``payload`` as JSON with sorted keys and a one-space indent;
    numpy values are written as their ``tolist()``."""
    payload = _plain(payload)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _cells(column) -> list:
    """One CSV column as text: a float as ``repr(float(v))`` (numpy 2 would
    write ``np.float64(v)``), ``None`` as an empty cell, anything else by
    ``str``.  Arrays are read through ``tolist()``."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return [repr(float(v)) if isinstance(v, float) else "" if v is None else str(v)
            for v in column]


def write_csv(path: pathlib.Path, header, columns, comment=None) -> None:
    """Write a CSV table column by column, under an optional ``# comment``
    line: ``header`` names the columns and ``columns`` holds one sequence
    of values per name, all of one length (ValueError otherwise)."""
    cells = list(map(_cells, columns))
    if len(cells) != len(header):
        raise ValueError(f"CSV header names {len(header)} columns, got {len(cells)}")
    if len(set(map(len, cells))) > 1:
        raise ValueError(f"CSV columns of unequal lengths {[*map(len, cells)]}")
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*cells)))
    path.write_text("\n".join(lines) + "\n")


def write_report(report: FVReport, outdir) -> dict:
    """Write report.json, run_meta.json and snapshots/step_*.csv; returns
    the snapshot paths by step.

    ``report.json`` and the snapshot CSVs (columns ``particle,state`` on a
    finite chain, else ``particle,x0,x1,...``) are byte-deterministic
    functions of the run; wall-clock timing goes to ``run_meta.json``.
    The model block of ``report.json`` is the model's ``describe()`` and
    its config block the config's fields with the model's ``gamma``.
    """
    out = pathlib.Path(outdir)
    (out / "snapshots").mkdir(parents=True, exist_ok=True)
    model, config = report.model, report.config
    write_json(out / "report.json", {
        "model": model.describe(),
        "config": dict(vars(config), gamma=model.gamma),
        "seed": config.seed,
        "backend": "numpy",
        "n_particles": config.n_particles,
        "gamma": model.gamma,
        "geometry": model.space.name,
        "deaths_per_step": report.deaths,
        "snapshot_steps": [s for s, _ in report.snapshots],
    })
    write_json(out / "run_meta.json", {"elapsed_seconds": report.elapsed})
    files = {}
    for step, arr in report.snapshots:
        path = out / "snapshots" / f"step_{step:08d}.csv"
        names, cols = (["state"], [arr]) if arr.ndim == 1 else \
            ([f"x{k}" for k in range(arr.shape[1])], arr.T)
        write_csv(path, ["particle", *names], [range(len(arr)), *cols])
        files[step] = path
    return files
