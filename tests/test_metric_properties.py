"""Property tests of the Wasserstein-1 metrics on random weighted atoms.

``w1_line`` and ``w1_circle`` must vanish on identical measures, be
symmetric and satisfy the triangle inequality; the circle distance never
exceeds the line distance on [0, 1) and does not change when both
measures are rotated by the same angle.  Atoms sit on the dyadic grid
k/64, so a rotation moves them without rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdlab.metrics import EmpiricalMeasure, w1_circle, w1_line

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
