"""Property tests of one particle-system step on random models.

Models are drawn from every proposal kind: Gaussian moves on the 1-D and
2-D torus, without noise (periodic_shift) and on the hard-killed interval, uniform redraws
(house_of_card), finite chains (two_point, a small birth_death) and the
growth/fragmentation flow.  One engine step must equal the particle-by-
particle reference ``fv_step_reference`` bit for bit, for every kind, and
the reference must commute with a joint permutation of particle labels and
stream ids.  A batch of replicas, of mixed particle counts, must equal the
single runs it batches, bit for bit, overflows included.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qsdlab as q
from qsdlab import _kernels as k
from qsdlab import fv
from qsdlab._kernels import replica_layout
from qsdlab.fv import FVConfig, _advance, fv_step_reference, init_states, run_fv, \
    run_fv_batch

SETTINGS = settings(max_examples=300, deadline=None, database=None)
MAX_ITERS = 1_000_000


def _unit(lo=0.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def presets(draw):
    family = draw(st.sampled_from(("torus1", "torus2", "shift", "interval", "house",
                                   "two_point", "birth_death", "growth_frag")))
    if family == "torus1":
        drift = draw(st.one_of(st.none(), _unit(-2, 2),
                               st.tuples(st.just("sine"), _unit(-2, 2))))
        level = draw(_unit(0, 3))
        kill = draw(st.one_of(st.none(), st.just(level),
                              st.tuples(st.just("cosine"), st.just(level),
                                        _unit().map(lambda f: f * level))))
        return q.TorusDiffusion(dim=1, drift=drift, kill=kill)
    if family == "torus2":
        return q.TorusDiffusion(dim=2, drift=draw(st.one_of(st.none(), _unit(-2, 2))),
                                kill=draw(st.one_of(st.none(), _unit(0, 3))))
    if family == "shift":
        return q.PeriodicShift(draw(_unit(-2, 2)))
    if family == "interval":
        return q.IntervalBrownian()
    if family == "house":
        return q.HouseOfCard(draw(_unit(0, 3)), draw(_unit(0, 2)))
    if family == "two_point":
        return q.TwoPoint(draw(_unit(0.1, 3)), draw(_unit(0.1, 3)))
    if family == "birth_death":
        return q.BirthDeath(draw(_unit(0.1, 3)), draw(_unit(0.1, 3)),
                            draw(_unit(0.1, 3)), draw(_unit(0.1, 3)),
                            truncation=draw(st.integers(3, 8)))
    return q.GrowthFrag(growth=draw(_unit(0.1, 2)), frac=draw(_unit(0.1, 0.9)),
                        jump_rate=draw(_unit(0, 3)), kill_rate=draw(_unit(0, 2)))


@st.composite
def steps(draw):
    """``(model, states, seed, step_index)`` for one step of at most 32
    particles drawn from the model's uniform initial law."""
    model = draw(presets()).model(draw(_unit(0.005, 0.5)))
    n = draw(st.integers(1, 32))
    seed = draw(st.integers(0, 2 ** 32))
    return model, init_states(model, n, seed), seed, draw(st.integers(0, 1000))


def _case(model, n, seed, step_index=0):
    return model, init_states(model, n, seed), seed, step_index


def _two_state(rate, gamma):
    """Two states jumping to each other at ``rate``, never killed."""
    return q.discrete_model(q.FiniteKilledChain([[0.0, rate], [rate, 0.0]], [0.0, 0.0]),
                            gamma)


# the first open uniform, in (0, 1], of particle 61's stream at seed 3, step 0
_U61 = ((k.raw_draw(k.derive_key(3, 1, 61), 0) >> 11) + 1) * 2.0 ** -53


# a pure-diffusion step on which a reference drawing its normals with
# math.log / math.cos missed the engine's state of particle 14; a chain with
# no jumps, whose Poisson draw still takes one uniform; and a chain whose
# Poisson mean is -log(u) for particle 61's first uniform u, where math.log(u)
# rounds above np.log(u)
@SETTINGS
@given(steps())
@example(_case(q.TorusDiffusion(dim=1).model(0.5), 32, 14))
@example((q.discrete_model(q.FiniteKilledChain(np.zeros((3, 3)), [0.5, 1, 2]), 0.3),
          np.array([0, 1, 2, 0, 1, 2, 2, 1]), 7, 0))
@example((_two_state(float(-np.log(_U61)), 1.0), np.zeros(64, dtype=np.int64), 3, 0))
def test_engine_step_equals_reference(case):
    model, states, seed, step_index = case
    out = states.copy()
    deaths = next(_advance(model, out, [seed], replica_layout([len(out)]),
                           step_index + 1, 1, MAX_ITERS))
    ref, ref_deaths = fv_step_reference(model, states, seed, step_index,
                                        max_iters=MAX_ITERS)
    assert deaths == ref_deaths
    assert np.array_equal(out, ref)


@SETTINGS
@given(steps(), st.data())
def test_reference_commutes_with_joint_permutation(case, data):
    model, states, seed, step_index = case
    ids = np.arange(states.shape[0])
    perm = np.array(data.draw(st.permutations(range(states.shape[0]))))
    out_a, d_a = fv_step_reference(model, states, seed, step_index,
                                   stream_ids=ids, max_iters=MAX_ITERS)
    out_b, d_b = fv_step_reference(model, states[perm], seed, step_index,
                                   stream_ids=ids[perm], max_iters=MAX_ITERS)
    assert np.array_equal(out_b, out_a[perm])
    assert d_a == d_b


# ---------------------------------------------------------------------------
# batched replicas
# ---------------------------------------------------------------------------

@st.composite
def batches(draw):
    """``(model, configs, init)``: up to 4 replicas, seeds possibly repeated,
    each of its own count of at most 12 particles, over at most 30 steps,
    from the uniform law or a Dirac state drawn from it."""
    model = draw(presets()).model(draw(_unit(0.005, 0.5)))
    n_steps, stride = draw(st.integers(0, 30)), draw(st.integers(1, 10))
    seeds = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4))
    if draw(st.booleans()):
        seeds.append(draw(st.sampled_from(seeds)))  # a repeated seed
    counts = draw(st.lists(st.integers(1, 12), min_size=len(seeds),
                           max_size=len(seeds)))
    configs = [FVConfig(n_particles=n, n_steps=n_steps, seed=s,
                        snapshot_stride=stride) for s, n in zip(seeds, counts)]
    init = "uniform"
    if draw(st.booleans()):
        x = init_states(model, 1, draw(st.integers(0, 2 ** 32)))[0]
        init = ("dirac", x.tolist() if np.ndim(x) else int(x))
        # a Dirac state must lie where a particle can survive
        assume(np.all(model.kill.prob(model.space.states(init[1]), model.gamma) < 1.0))
    return model, configs, init


def _same_report(a, b):
    assert np.array_equal(a.deaths, b.deaths)
    assert [s for s, _ in a.snapshots] == [s for s, _ in b.snapshots]
    for (_, x), (_, y) in zip(a.snapshots, b.snapshots):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert np.array_equal(a.final_states, b.final_states)
    assert a.model == b.model and a.config == b.config


@SETTINGS
@given(batches())
@example((q.TorusDiffusion(dim=2, kill=0.8).model(0.05),
          [FVConfig(n_particles=9, n_steps=12, seed=s, snapshot_stride=5)
           for s in (3, 3, 2 ** 64 - 1)], "uniform"))
@example((q.TorusDiffusion(dim=1, kill=3.0).model(0.05),
          [FVConfig(n_particles=n, n_steps=12, seed=s, snapshot_stride=5)
           for s, n in ((3, 2), (3, 7), (4, 7), (5, 1), (6, 2))], "uniform"))
def test_batch_equals_its_single_runs(case):
    model, configs, init = case
    batch = run_fv_batch(model, configs, init)
    assert len(batch) == len(configs)
    for cfg, rep in zip(configs, batch):
        _same_report(rep, run_fv(model, cfg, init))


def test_step_bases_in_blocks_do_not_change_a_batch(monkeypatch):
    model = q.TorusDiffusion(dim=1, kill=3.0).model(0.05)
    configs = [FVConfig(n_particles=n, n_steps=13, seed=s, snapshot_stride=5)
               for s, n in ((3, 2), (4, 7))]
    whole = run_fv_batch(model, configs)
    # blocks of 2 steps for 2 replicas, the last block of 1
    monkeypatch.setattr(fv, "_BASES_BLOCK", 5)
    for a, b in zip(whole, run_fv_batch(model, configs)):
        _same_report(a, b)


def _overflow_or_none(model, cfg):
    try:
        run_fv(model, cfg, init=("dirac", 0.5))
    except q.ResurrectionOverflowError as err:
        return err.step, err.particle
    return None


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 32), st.integers(1, 6)),
                min_size=1, max_size=6),
       st.integers(1, 5))
def test_batch_overflow_names_the_single_runs_step_and_particle(replicas, budget):
    # about half the proposals land outside (0.3, 0.7), so a budget of a few
    # rounds runs out at a different step in each replica, or never; the
    # replicas' counts differ, so the particle named is an index within its
    # replica
    model = q.KilledModel(name="narrow", space=q.Interval(), gamma=0.1,
                          move=q.GaussMove(), kill=q.IntervalKill(0.3, 0.7))
    seeds = [s for s, _ in replicas]
    configs = [FVConfig(n_particles=n, n_steps=6, seed=s, snapshot_stride=2,
                        max_resurrection_iters=budget) for s, n in replicas]
    singles = [_overflow_or_none(model, c) for c in configs]
    failed = [(s[0], r, s[1]) for r, s in enumerate(singles) if s is not None]
    if not failed:
        run_fv_batch(model, configs, init=("dirac", 0.5))
        return
    step, replica, particle = min(failed)
    with pytest.raises(q.ResurrectionOverflowError) as err:
        run_fv_batch(model, configs, init=("dirac", 0.5))
    assert (err.value.step, err.value.particle) == (step, particle)
    assert err.value.iterations == budget
    assert err.value.replica == (replica if len(seeds) > 1 else -1)


def test_batch_configs_may_differ_only_in_seed_and_count():
    model = q.TwoPoint(1.0, 2.0).model(0.1)
    base = FVConfig(n_particles=4, n_steps=3, seed=1)
    mixed = FVConfig(**{**vars(base), "seed": 2, "n_particles": 5})
    assert [len(r.final_states) for r in run_fv_batch(model, [base, mixed])] == [4, 5]
    for other in (dict(n_steps=4), dict(snapshot_stride=2),
                  dict(max_resurrection_iters=9)):
        with pytest.raises(ValueError, match="only in seed and n_particles"):
            run_fv_batch(model, [base, FVConfig(**{**vars(mixed), **other})])
    with pytest.raises(ValueError, match="at least one"):
        run_fv_batch(model, [])
