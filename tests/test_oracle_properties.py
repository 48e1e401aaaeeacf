"""Property tests of the oracle's graph analysis and killed semigroup.

The communicating classes and the period of a support graph are compared
with a brute-force reference built from boolean matrix powers; the killed
semigroup of a random finite chain is checked to be sub-Markov and to
satisfy the semigroup law ``M(s + t) = M(s) M(t)``, and each QSD that
``list_qsds`` lists for it to be a left eigenvector supported by its class
and the states that class reaches.
"""

import math

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdlab as q
from qsdlab.oracle import (
    _communicating_classes,
    _graph_period,
    killed_semigroup,
    list_qsds,
)

SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def digraphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.array(bits, dtype=bool).reshape(n, n)


@st.composite
def strongly_connected_digraphs(draw, max_n=7):
    """A random digraph plus a Hamiltonian cycle in a random state order."""
    adj = draw(digraphs(max_n))
    order = draw(st.permutations(range(adj.shape[0])))
    adj[order, np.roll(order, -1)] = True
    return adj


def _reach(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure: the support of ``(I + A)^n``."""
    n = adj.shape[0]
    return np.linalg.matrix_power(np.eye(n, dtype=np.int64) + adj, n) > 0


def _brute_period(adj: np.ndarray) -> int:
    # every closed walk splits into simple cycles, all of length <= n
    n = adj.shape[0]
    power = np.eye(n, dtype=int)
    g = 0
    for k in range(1, n + 1):
        power = ((power @ adj.astype(int)) > 0).astype(int)
        if np.trace(power) > 0:
            g = math.gcd(g, k)
    return g if g > 0 else 1


@SETTINGS
@given(digraphs())
def test_classes_match_mutual_reachability(adj):
    r = _reach(adj)
    mutual = r & r.T
    expect = {frozenset(np.nonzero(row)[0].tolist()) for row in mutual}
    classes = _communicating_classes(sp.csr_matrix(adj.astype(np.int8)))
    assert {frozenset(c.tolist()) for c in classes} == expect
    assert sum(len(c) for c in classes) == adj.shape[0]


@SETTINGS
@given(strongly_connected_digraphs())
def test_period_matches_cycle_length_gcd(adj):
    assert _graph_period(sp.csr_matrix(adj.astype(np.int8))) == _brute_period(adj)


@st.composite
def chains(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    rate = st.one_of(st.just(0.0), st.floats(0.01, 50.0))
    rates = np.array(draw(st.lists(rate, min_size=n * n, max_size=n * n)))
    rates = rates.reshape(n, n)
    np.fill_diagonal(rates, 0.0)
    kill = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)))
    return q.FiniteKilledChain(rates, kill)


@SETTINGS
@given(chains(), st.floats(0.01, 2.0), st.floats(0.01, 2.0))
def test_killed_semigroup_is_sub_markov_semigroup(chain, s, t):
    m_s = killed_semigroup(chain, s).M
    m_t = killed_semigroup(chain, t).M
    m_st = killed_semigroup(chain, s + t).M
    for mat in (m_s, m_t, m_st):
        assert np.all(mat >= 0)
        assert np.all(mat.sum(axis=1) <= 1.0 + 1e-12)
    np.testing.assert_allclose(m_st, m_s @ m_t, rtol=0, atol=1e-9)


@SETTINGS
@given(chains(), st.floats(0.01, 2.0))
def test_listed_qsds_are_eigenvectors_on_their_classes(chain, t):
    m = killed_semigroup(chain, t)
    mat = m.M
    reach = _reach(mat > 0)
    comps = list_qsds(m)
    for c in comps:
        assert np.all(c.qsd >= 0) and abs(c.qsd.sum() - 1.0) < 1e-12
        rho = math.exp(-c.theta * t)
        assert np.abs(c.qsd @ mat - rho * c.qsd).max() <= 1e-9
        assert np.all(c.qsd[c.class_states] > 0)
        # zero off the class and the states it reaches
        assert np.all(c.qsd[~reach[c.class_states[0]]] == 0)
    if comps and comps[0].h is not None:
        h = comps[0].h
        rho = math.exp(-comps[0].theta * t)
        assert np.abs(mat @ h - rho * h).max() <= 1e-9
        assert abs(float(comps[0].qsd @ h) - 1.0) <= 1e-9
