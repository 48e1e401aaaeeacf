"""Property tests of one particle-system step on random models.

Models are drawn from every proposal kind: Gaussian moves on the 1-D and
2-D torus, without noise (periodic_shift) and on the hard-killed interval, uniform redraws
(house_of_card), finite chains (two_point, a small birth_death) and the
growth/fragmentation flow.  One engine step must equal the particle-by-
particle reference ``fv_step_reference`` bit for bit, for every kind, and
the reference must commute with a joint permutation of particle labels and
stream ids.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsdlab as q
from qsdlab.fv import _run_chunk, fv_step_reference, init_states

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


# a pure-diffusion step on which a reference drawing its normals with
# math.log / math.cos missed the engine's state of particle 14
@SETTINGS
@given(steps())
@example(_case(q.TorusDiffusion(dim=1).model(0.5), 32, 14))
def test_engine_step_equals_reference(case):
    model, states, seed, step_index = case
    out = states.copy()
    deaths = _run_chunk(model, out, seed, step_index + 1, 1, MAX_ITERS)
    ref, ref_deaths = fv_step_reference(model, states, seed, step_index,
                                        max_iters=MAX_ITERS)
    assert deaths[0] == ref_deaths
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
