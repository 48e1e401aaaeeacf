import math

import numpy as np
import pytest
import scipy.linalg

import qsdlab as q
from qsdlab.harris import (
    check_assumptions,
    check_irreducibility,
    search_lyapunov_pair,
    verify_conclusion,
)
from qsdlab.metrics import fit_exponential_rate
from qsdlab.oracle import KilledSemigroupMatrix, killed_semigroup, perron_triplet

A_DRIFT = "lyapunov_drift"
A_MASS = "mass_lower_bound"
A_MINOR = "minorization"
A_COMPARE = "survival_comparability"


def _doeblin_matrix(n=6, eps=0.3, seed=0):
    rng = np.random.default_rng(seed)
    nu = rng.dirichlet(np.ones(n))
    m = (1 - eps) * np.eye(n) + eps * np.outer(np.ones(n), nu)
    return KilledSemigroupMatrix(m, 1.0), nu


def test_doeblin_kernel_minorization_constant():
    m, nu = _doeblin_matrix(eps=0.3)
    cert = check_assumptions(m, np.ones(6), np.ones(6), np.arange(6), nu=nu)
    assert cert.all_pass
    assert cert.c >= 0.3 - 1e-12
    assert abs(cert.beta - 1.0) < 1e-12


def test_birth_death_passes_with_geometric_pair():
    chain = q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=100).chain()
    cert, m = search_lyapunov_pair(chain)
    assert cert.all_pass
    assert 0.0 < cert.alpha < cert.beta
    assert 0.0 < cert.c <= 1.0
    assert 0.0 < cert.d <= 1.0
    # V and psi really are geometric in the state index
    for vec in (cert.V, cert.psi):
        ratios = vec[1:] / vec[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


def test_birth_death_conclusion_bounds_with_slack():
    chain = q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=100).chain()
    cert, m = search_lyapunov_pair(chain)
    rep = verify_conclusion(m, cert)
    assert rep.bounds_hold
    assert rep.eig_lower_slack > 0
    assert rep.eig_upper_slack > 0
    assert math.isfinite(rep.gamma_of_V)
    assert math.isfinite(rep.c2) and rep.c2 > 0
    assert rep.c1_by_q[0.5] > 0


def test_two_point_fails_comparability_with_unit_rate():
    tp = q.TwoPoint(1.0, 2.0)
    m = killed_semigroup(tp.chain(), 1.0)
    nu = np.array([1.0, 0.0])  # the only measure the dying state can dominate
    cert = check_assumptions(m, np.ones(2), np.ones(2), np.arange(2), nu=nu,
                             n_max=30)
    assert not cert.verdicts[A_COMPARE].passed
    assert "asymptotic fail" in cert.verdicts[A_COMPARE].note
    seq = cert.ratio_sequence
    fit = fit_exponential_rate(np.arange(1.0, 31.0), seq)
    assert abs(fit.rate - 1.0) < 0.05
    assert fit.r2 > 0.999


def test_two_point_dirac_at_transient_fails_minorization():
    tp = q.TwoPoint(1.0, 2.0)
    m = killed_semigroup(tp.chain(), 1.0)
    nu = np.array([0.0, 1.0])
    cert = check_assumptions(m, np.ones(2), np.ones(2), np.arange(2), nu=nu)
    assert not cert.verdicts[A_MINOR].passed
    assert cert.c == 0.0  # the dying state never reaches the transient state


def test_comparability_fail_is_monotone_in_depth():
    tp = q.TwoPoint(1.0, 2.0)
    m = killed_semigroup(tp.chain(), 1.0)
    nu = np.array([1.0, 0.0])
    shallow = check_assumptions(m, np.ones(2), np.ones(2), np.arange(2),
                                nu=nu, n_max=10)
    deep = check_assumptions(m, np.ones(2), np.ones(2), np.arange(2),
                             nu=nu, n_max=60)
    assert np.all(np.diff(shallow.ratio_sequence) < 0)
    assert deep.d <= shallow.d
    assert not deep.verdicts[A_COMPARE].passed


def test_scaling_changes_constants_predictably():
    chain = q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=60).chain()
    cert, m = search_lyapunov_pair(chain)
    scaled = check_assumptions(m, cert.V, 5.0 * cert.psi, cert.K, nu=cert.nu,
                               n_max=cert.n_max)
    assert scaled.alpha == cert.alpha
    assert abs(scaled.beta - cert.beta) < 1e-12
    assert abs(scaled.C - cert.C / 5.0) < 1e-12 * max(cert.C, 1.0)
    assert abs(scaled.c - cert.c) < 1e-12
    assert abs(scaled.d - cert.d) < 1e-12
    for name in (A_DRIFT, A_MASS, A_MINOR, A_COMPARE):
        assert scaled.verdicts[name].passed == cert.verdicts[name].passed
    scaled_v = check_assumptions(m, 3.0 * cert.V, cert.psi, cert.K,
                                 nu=cert.nu, n_max=cert.n_max)
    assert abs(scaled_v.alpha - cert.alpha) < 1e-12
    assert abs(scaled_v.C - 3.0 * cert.C) < 1e-9 * max(cert.C, 1.0)
    assert scaled_v.all_pass == cert.all_pass


def test_feeding_back_the_eigenfunction_passes():
    chain = q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=100).chain()
    cert, m = search_lyapunov_pair(chain)
    trip = perron_triplet(m)
    again = check_assumptions(m, cert.V, trip.h, cert.K, n_max=cert.n_max)
    assert again.all_pass
    rho = math.exp(-trip.theta * m.t0)
    assert abs(again.beta - rho) < 1e-8


def test_witnesses_reproduce_reported_values():
    chain = q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=60).chain()
    cert, m = search_lyapunov_pair(chain)
    mv = m.M @ cert.V
    mpsi = m.M @ cert.psi
    w = cert.verdicts[A_DRIFT].witness
    assert abs(mv[w] / cert.V[w] - cert.alpha) < 1e-12
    w = cert.verdicts[A_MASS].witness
    assert abs(mpsi[w] / cert.psi[w] - cert.beta) < 1e-12


def test_rejects_bad_inputs():
    m, _ = _doeblin_matrix()
    with pytest.raises(ValueError):
        check_assumptions(m, np.zeros(6), np.ones(6), np.arange(6))
    with pytest.raises(ValueError):
        check_assumptions(m, np.ones(6), np.ones(6), np.array([], dtype=int))
    bad_nu = np.zeros(6)
    bad_nu[0] = 1.0
    with pytest.raises(ValueError):
        check_assumptions(m, np.ones(6), np.ones(6), np.array([1, 2]),
                          nu=bad_nu)
    # NaN inputs gave NaN constants or an unrelated error
    nan_v = np.ones(6)
    nan_v[2] = np.nan
    with pytest.raises(ValueError, match="V and psi"):
        check_assumptions(m, nan_v, np.ones(6), np.arange(6))
    with pytest.raises(ValueError, match="probability vector"):
        check_assumptions(m, np.ones(6), np.ones(6), np.arange(6),
                          nu=np.full(6, np.nan))
    cert = check_assumptions(m, np.ones(6), np.ones(6), np.arange(6))
    cert.verdicts[A_DRIFT].passed = False
    with pytest.raises(ValueError):
        verify_conclusion(m, cert)


def test_search_reports_binding_failure_for_two_point():
    chain = q.TwoPoint(1.0, 2.0).chain()
    cert, m = search_lyapunov_pair(chain, t0=1.0)
    assert not cert.all_pass
    assert not cert.verdicts[A_COMPARE].passed or not cert.verdicts[A_MINOR].passed


def test_search_inconclusive_for_negative_criterion():
    bad = q.BirthDeath(1.2, 1.0, 1.0, 2.0, truncation=60)
    assert bad.criterion_value() < 0
    cert, m = search_lyapunov_pair(bad.chain())
    assert not cert.all_pass


def _conservative_drift_chain():
    # no killing, strong pull toward low states: the classical drift picture
    chain = q.BirthDeath(1.0, 4.0, 1.0, 1e-9, truncation=60).chain()
    return q.FiniteKilledChain(chain.jump_rates, np.zeros(60))


def test_search_passes_conservative_drift_chain():
    cert, m = search_lyapunov_pair(_conservative_drift_chain())
    assert cert.all_pass
    assert abs(cert.beta - 1.0) < 1e-9  # conservative: psi = 1 is invariant


SEARCH_CHAINS = {
    "12": lambda: q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=12).chain(),
    "40": lambda: q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=40).chain(),
    "60": lambda: q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=60).chain(),
    "two_point": lambda: q.TwoPoint(1.0, 2.0).chain(),
    "conservative_drift": _conservative_drift_chain,
}


@pytest.mark.parametrize("case", list(SEARCH_CHAINS))
def test_search_returns_the_best_single_check(case):
    # the search shares each (K, psi) part between the V that give the same
    # K; it must still pick, bit for bit, what one check per candidate picks
    chain = SEARCH_CHAINS[case]()
    # the search's default grid
    q1s = (0.5, 0.625, 0.75, 0.9, 1.1, 1.3, 1.6, 2.0)
    q2s = (0.5, 0.625, 0.75, 0.9, 1.0, 1.1, 1.3, 1.6)
    fracs = (0.05, 0.1, 0.25, 0.5, 0.9)
    cert, m = search_lyapunov_pair(chain)
    idx = np.arange(chain.n_states, dtype=float)
    best, best_key = None, None
    for q1 in q1s:
        V = q1 ** idx / (q1 ** idx).max()
        order = np.argsort(V, kind="mergesort")
        for f in fracs:
            k_idx = order[:max(1, min(idx.size, int(round(f * idx.size))))]
            for q2 in q2s:
                psi = q2 ** idx / (q2 ** idx).max()
                one = check_assumptions(m, V, psi, k_idx)
                n_pass = sum(v.passed for v in one.verdicts.values())
                key = (n_pass == 4, n_pass, one.margin, -one.C)
                if best_key is None or key > best_key:
                    best, best_key = one, key
    assert cert.as_dict() == best.as_dict()
    if case == "two_point":
        assert not cert.all_pass


@pytest.mark.parametrize("outside", [0.0, 1e-13])
def test_explicit_nu_on_part_of_k_sets_the_minorization(outside):
    chain = q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=12).chain()
    m = killed_semigroup(chain, 1.0)
    psi = 0.9 ** np.arange(12.0)
    k_idx = np.arange(6)
    nu = np.zeros(12)
    nu[[1, 3]] = (0.25, 0.75 - outside)
    nu[9] = outside  # a given nu may put up to 1e-12 of its mass off K
    cert = check_assumptions(m, np.ones(12), psi, k_idx, nu=nu)
    assert np.array_equal(cert.nu, nu)
    mpsi = m.M @ psi
    supp = np.nonzero(nu > 0)[0]
    ratio, witness = min((m.M[x, y] * psi[y] / mpsi[x] / nu[y], x)
                         for x in k_idx for y in supp)
    assert cert.verdicts[A_MINOR].value == ratio
    assert cert.verdicts[A_MINOR].witness == witness
    assert cert.c == min(ratio, 1.0)
    g = np.linalg.matrix_power(m.M, 2) @ psi / psi
    assert abs(cert.ratio_sequence[1] - (nu @ g) / g[k_idx].max()) <= 1e-12


def test_envelope_measure_is_probability_on_k():
    m, _ = _doeblin_matrix(eps=0.2, seed=3)
    k_idx = np.array([1, 2, 4])
    nu = check_assumptions(m, np.ones(6), np.ones(6), k_idx).nu
    assert abs(nu.sum() - 1.0) < 1e-12
    assert nu[[0, 3, 5]].sum() == 0.0


# ---------------------------------------------------------------------------
# irreducibility surrogate
# ---------------------------------------------------------------------------

def test_single_state_k_trivially_passes():
    chain = q.TwoPoint(1.0, 2.0).chain()
    eps, ok = check_irreducibility(chain, np.array([1]), 1.0)
    assert ok and eps == 1.0


def test_two_point_k_fails():
    chain = q.TwoPoint(1.0, 2.0).chain()
    eps, ok = check_irreducibility(chain, np.array([0, 1]), 1.0)
    assert eps == 0.0 and not ok


def test_birth_death_compact_passes():
    chain = q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=200).chain()
    eps, ok = check_irreducibility(chain, np.arange(20), 5.0)
    assert ok and eps > 0.0


def test_hitting_probability_value_against_closed_form():
    # two states jumping to each other at rate r: hit the other before t0
    # given no killing is 1 - exp(-r t0)
    r, t0 = 1.3, 0.7
    rates = np.array([[0.0, r], [r, 0.0]])
    chain = q.FiniteKilledChain(rates, np.zeros(2))
    eps, ok = check_irreducibility(chain, np.array([0, 1]), t0)
    assert ok
    assert abs(eps - (1.0 - math.exp(-r * t0))) < 1e-10


@pytest.mark.parametrize("t0", [2.0, 100.0])  # lambda * t0 = 10 and 500
def test_hitting_bound_matches_expm_of_the_absorbed_generator(t0):
    chain = q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=40).chain()
    k_idx = np.arange(12)
    eps, ok = check_irreducibility(chain, k_idx, t0)
    ref = math.inf
    for y in k_idx:
        a_y = chain.generator().toarray()
        a_y[y, :] = 0.0  # y absorbing: the law at y is P(hit y before t0)
        hit = scipy.linalg.expm(t0 * a_y)[:, y]
        ref = min(ref, hit[k_idx[k_idx != y]].min())
    assert ok
    assert abs(eps - ref) <= 1e-9 * ref
