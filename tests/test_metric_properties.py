"""Property tests of the Wasserstein-1 metrics on random weighted atoms.

``w1_line`` and ``w1_circle`` must vanish on identical measures, be
symmetric and satisfy the triangle inequality; the circle distance never
exceeds the line distance on [0, 1) and does not change when both
measures are rotated by the same angle.  Atoms sit on the dyadic grid
k/64, so a rotation moves them without rounding.  ``w1_rows`` must give,
bit for bit, the single-measure distance of each of its rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdlab.metrics import EmpiricalMeasure, w1_auto, w1_circle, w1_line, w1_rows
from qsdlab.models import Interval, Torus

SETTINGS = settings(max_examples=200, deadline=None, database=None)
GRID = 64
TOL = 1e-12


@st.composite
def atoms(draw, max_n=8):
    """Grid indices in 0..GRID-1 with positive integer masses."""
    n = draw(st.integers(1, max_n))
    cells = draw(st.lists(st.integers(0, GRID - 1), min_size=n, max_size=n))
    mass = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    return np.array(cells), np.array(mass, dtype=float)


def _measure(cells, mass, shift=0):
    return EmpiricalMeasure(((cells + shift) % GRID) / GRID, mass / mass.sum())


METRICS = (w1_line, w1_circle)


@SETTINGS
@given(atoms())
def test_w1_vanishes_on_identical_measures(a):
    for w1 in METRICS:
        assert abs(w1(_measure(*a), _measure(*a))) <= TOL, w1.__name__


@SETTINGS
@given(atoms(), atoms())
def test_w1_is_symmetric(a, b):
    ma, mb = _measure(*a), _measure(*b)
    for w1 in METRICS:
        assert abs(w1(ma, mb) - w1(mb, ma)) <= TOL, w1.__name__


@SETTINGS
@given(atoms(), atoms(), atoms())
def test_w1_triangle_inequality(a, b, c):
    ma, mb, mc = _measure(*a), _measure(*b), _measure(*c)
    for w1 in METRICS:
        assert w1(ma, mc) <= w1(ma, mb) + w1(mb, mc) + TOL, w1.__name__


@SETTINGS
@given(atoms(), atoms())
def test_w1_circle_at_most_w1_line(a, b):
    ma, mb = _measure(*a), _measure(*b)
    assert w1_circle(ma, mb) <= w1_line(ma, mb) + TOL


@SETTINGS
@given(atoms(), atoms(), st.integers(1, GRID - 1))
def test_w1_circle_is_rotation_invariant(a, b, shift):
    before = w1_circle(_measure(*a), _measure(*b))
    after = w1_circle(_measure(*a, shift), _measure(*b, shift))
    assert abs(after - before) <= TOL


# ---------------------------------------------------------------------------
# many rows against one reference
# ---------------------------------------------------------------------------

def _w1_reference(row, ref):
    """The single-measure W1 spelled out on one merged array: a stable sort
    of the row's atoms, then ``ref``'s, the cumulative difference, and on
    the circle the fsum of both weighted-median candidates."""
    pos = np.concatenate([row, ref.support])
    delta = np.concatenate([np.full(row.size, 1.0 / row.size), -ref.weights])
    order = np.argsort(pos, kind="stable")
    pos, g = pos[order], np.cumsum(delta[order])
    if not ref.space.circle:
        return float(np.sum(np.abs(g[:-1]) * np.diff(pos)))
    lengths = np.append(np.diff(pos), (pos[0] + 1.0) - pos[-1])
    order = np.argsort(g, kind="stable")
    gs, ls = g[order], lengths[order]
    cum = np.cumsum(ls)
    k = int(np.searchsorted(cum, 0.5 * cum[-1], side="left"))
    cands = {float(gs[min(k, gs.size - 1)]), float(gs[min(k + 1, gs.size - 1)])}
    return min(math.fsum((ls * np.abs(gs - c)).tolist()) for c in cands)


@st.composite
def row_batches(draw):
    """``(rows, ref)``: S rows of n particles and a reference measure, on the
    torus or the interval.  Positions are drawn from a coarse grid, the
    reference's atoms or arbitrary floats, so particles repeat and land on
    reference atoms; some reference weights are zero."""
    space = draw(st.sampled_from((Torus(), Interval())))
    m = draw(st.integers(1, 12))
    grid = draw(st.sampled_from((4, 64)))
    support = np.array(draw(st.lists(st.integers(0, grid - 1), min_size=m,
                                     max_size=m))) / grid
    mass = np.array(draw(st.lists(st.sampled_from((0, 0, 1, 2, 7)), min_size=m,
                                  max_size=m)), dtype=float)
    mass[draw(st.integers(0, m - 1))] += 1.0
    ref = EmpiricalMeasure(support, mass / mass.sum(), space=space)
    s, n = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    atom = st.one_of(st.integers(0, grid - 1).map(lambda k: k / grid),
                     st.sampled_from(support.tolist()), st.floats(0.0, 1.0))
    rows = np.array(draw(st.lists(st.lists(atom, min_size=n, max_size=n),
                                  min_size=s, max_size=s)))
    return rows, ref


@SETTINGS
@given(row_batches())
def test_w1_rows_equals_the_single_measure_distance(case):
    rows, ref = case
    got = np.array(w1_rows(rows, ref))
    one = np.array([w1_auto(EmpiricalMeasure(row, space=ref.space), ref)
                    for row in rows])
    plain = np.array([_w1_reference(row, ref) for row in rows])
    assert np.array_equal(got.view(np.int64), one.view(np.int64))
    assert np.array_equal(got.view(np.int64), plain.view(np.int64))


def test_w1_rows_spans_several_blocks():
    # 60 rows of 300 particles against 200 atoms take two blocks of 32 rows
    rng = np.random.default_rng(3)
    for space in (Torus(), Interval()):
        ref = EmpiricalMeasure(rng.random(200), rng.dirichlet(np.ones(200)), space=space)
        rows = rng.random((60, 300))
        got = np.array(w1_rows(rows, ref))
        one = np.array([w1_auto(EmpiricalMeasure(row, space=space), ref) for row in rows])
        assert np.array_equal(got.view(np.int64), one.view(np.int64))


def test_w1_rows_refuses_rows_outside_the_space():
    ref = EmpiricalMeasure(np.array([0.25, 0.75]), space=Torus())
    for rows in ([[0.5, 1.5]], [[-0.1, 0.5]], [[0.5, np.nan]], [[0.5, np.inf]]):
        with pytest.raises(ValueError, match="states of"):
            w1_rows(np.array(rows), ref)
    with pytest.raises(ValueError, match="states of"):
        w1_rows(np.array([[0.5, 2.0]]), EmpiricalMeasure(np.array([0.5]),
                                                          space=Interval()))
