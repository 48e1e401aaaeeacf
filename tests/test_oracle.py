import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import qsdlab as q
from qsdlab import substream
from qsdlab.metrics import EmpiricalMeasure, measure_from_density, tv_finite, w1_line
from qsdlab.oracle import (
    EigenTriplet,
    ExtinctionUnderflowError,
    HorizonError,
    KilledSemigroupMatrix,
    ReducibilityDiagnostic,
    UnsupportedModelError,
    conditional_law_step,
    generator_triplet,
    grid_generator,
    iterate_conditional,
    killed_semigroup,
    list_qsds,
    perron_triplet,
    spectral_gap,
    spectrum,
    survival_curve,
)
from qsdlab.oracle import (
    _poisson_weights,
    _step_form,
    _substep_kernel,
    _uniformization_sum,
)
from tests.conftest import random_chain


# ---------------------------------------------------------------------------
# killed semigroup
# ---------------------------------------------------------------------------

def test_conservative_chain_is_stochastic():
    rng = np.random.default_rng(0)
    chain = random_chain(rng, 6, kill_scale=0.0)
    m = killed_semigroup(chain, 0.7)
    np.testing.assert_allclose(m.M.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(m.M >= 0)


def test_two_point_closed_form_matrix():
    chain = q.TwoPoint(1.0, 2.0).chain()
    m = killed_semigroup(chain, 1.0)
    np.testing.assert_allclose(m.M[0], [math.exp(-2.0), 0.0], atol=1e-13)
    assert abs(m.M[1, 0] - (math.exp(-1.0) - math.exp(-2.0))) < 1e-13
    assert abs(m.M[1, 0] - 0.23254) < 1e-5
    assert abs(m.M[1, 1] - math.exp(-1.0)) < 1e-13


def test_semigroup_property():
    rng = np.random.default_rng(1)
    for trial in range(5):
        chain = random_chain(rng, 5)
        s, t = rng.uniform(0.2, 1.5, size=2)
        m_st = killed_semigroup(chain, s + t)
        prod = killed_semigroup(chain, s).M @ killed_semigroup(chain, t).M
        np.testing.assert_allclose(m_st.M, prod, atol=1e-10)


def test_semigroup_matches_scipy_expm():
    rng = np.random.default_rng(2)
    chain = random_chain(rng, 7)
    m = killed_semigroup(chain, 0.9)
    ref = scipy.linalg.expm(0.9 * chain.generator().toarray())
    np.testing.assert_allclose(m.M, ref, atol=1e-11)


def test_semigroup_squaring_path_matches_expm():
    # stiff rates force the halve-and-square route
    rates = np.array([[0.0, 3000.0], [2000.0, 0.0]])
    chain = q.FiniteKilledChain(rates, np.array([100.0, 0.0]))
    m = killed_semigroup(chain, 0.5)
    ref = scipy.linalg.expm(0.5 * chain.generator().toarray())
    np.testing.assert_allclose(m.M, ref, rtol=1e-8, atol=1e-12)
    assert np.all(m.M.sum(axis=1) <= 1.0 + 1e-12)


def test_monotone_in_kill_rates():
    rng = np.random.default_rng(3)
    for trial in range(5):
        chain = random_chain(rng, 5)
        m = killed_semigroup(chain, 0.8).M
        kill2 = chain.kill_rates.copy()
        kill2[int(rng.integers(5))] += 0.5
        chain2 = q.FiniteKilledChain(chain.jump_rates, kill2)
        m2 = killed_semigroup(chain2, 0.8).M
        assert np.all(m2 <= m + 1e-14)
        assert m2.sum() < m.sum()


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        q.FiniteKilledChain(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        q.FiniteKilledChain(np.array([[0.5, 1.0], [1.0, 0.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        q.FiniteKilledChain(np.zeros((2, 2)), np.array([np.inf, 0.0]))
    # rates given as a sparse matrix are checked the same way
    for bad in ([[0.0, np.nan], [1.0, 0.0]], [[0.0, -1.0], [1.0, 0.0]],
                [[0.5, 1.0], [1.0, 0.0]]):
        with pytest.raises(ValueError):
            q.FiniteKilledChain(sp.csr_matrix(np.array(bad)), np.zeros(2))
    chain = q.TwoPoint(1, 2).chain()
    with pytest.raises(ValueError):
        killed_semigroup(chain, 0.0)
    # non-finite matrices, horizons and laws
    with pytest.raises(ValueError):
        KilledSemigroupMatrix(np.array([[0.5, np.nan], [0.0, 0.5]]), 1.0)
    for t0 in (np.nan, np.inf):
        with pytest.raises(ValueError):
            KilledSemigroupMatrix(np.eye(2), t0)
    with pytest.raises(ValueError):
        conditional_law_step(killed_semigroup(chain, 1.0), np.array([np.nan, 1.0]))


def test_dense_and_sparse_rates_give_the_same_chain():
    banded = q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=50).chain()
    rates = banded.jump_rates.toarray()
    dense = q.FiniteKilledChain(rates, banded.kill_rates)
    sparse = q.FiniteKilledChain(sp.csr_matrix(rates), banded.kill_rates)
    assert dense.generator().toarray().tobytes() == sparse.generator().toarray().tobytes()
    assert dense.kill_rates.tobytes() == sparse.kill_rates.tobytes()
    assert dense.uniformization_rate() == sparse.uniformization_rate()


def test_horizons_that_cannot_be_uniformized_raise():
    chain = q.TwoPoint(1, 2).chain()
    with pytest.raises(HorizonError, match="t0"):
        killed_semigroup(chain, 1e308)
    # the generator path refuses the same horizon
    with pytest.raises(HorizonError, match="t0"):
        generator_triplet(grid_generator(q.IntervalBrownian(), 600), 1e308)
    # exp(-720) is subnormal, so the Poisson recursion would lose its head
    with pytest.raises(HorizonError, match="t0"):
        _poisson_weights(720.0)
    assert abs(_poisson_weights(700.0).sum() - 1.0) < 1e-9


@pytest.mark.parametrize("preset, n_grid, form", [
    (q.HouseOfCard(1.0, 1.0), 128, ("d", "u")),    # rank-1 update
    (q.IntervalBrownian(), 600, ("pt",)),          # sparse product
])
def test_step_forms_agree_with_the_dense_product(preset, n_grid, form):
    chain = grid_generator(preset, n_grid)
    lam = chain.uniformization_rate()
    p_sub = _substep_kernel(chain, lam)
    step, order = _step_form(p_sub)
    # the picker chose the structured form: its closure holds the
    # rank-1 factors or the sparse transpose, not the dense kernel
    assert step.__code__.co_freevars == form
    weights = _poisson_weights(10.0)  # lam * t = 10
    fast = _uniformization_sum(step, weights, np.eye(n_grid, order=order))
    dense = _uniformization_sum(lambda t: t @ p_sub, weights, np.eye(n_grid))
    assert np.abs(fast - dense).max() <= 1e-12


# ---------------------------------------------------------------------------
# conditional law
# ---------------------------------------------------------------------------

def test_conditional_step_conservative_is_plain_update():
    rng = np.random.default_rng(4)
    chain = random_chain(rng, 5, kill_scale=0.0)
    m = killed_semigroup(chain, 0.5)
    eta = rng.dirichlet(np.ones(5))
    np.testing.assert_allclose(conditional_law_step(m, eta), eta @ m.M,
                               atol=1e-13)


def test_two_point_recursion_converges_to_mixture():
    m = killed_semigroup(q.TwoPoint(1.0, 2.0).chain(), 1.0)
    eta, hist = iterate_conditional(m, np.array([0.0, 1.0]), max_iter=40,
                                    tol=1e-10)
    assert tv_finite(eta, [0.5, 0.5]) < 1e-8
    assert len(hist) <= 40


def test_conditional_step_matches_monte_carlo():
    # one horizon of the killed chain, conditioned on survival, against
    # direct path sampling through the uniformized chain
    rng = np.random.default_rng(5)
    chain = random_chain(rng, 5)
    t = 0.6
    m = killed_semigroup(chain, t)
    eta0 = np.full(5, 0.2)
    expect = conditional_law_step(m, eta0)

    lam = chain.uniformization_rate()
    p_sub = np.eye(5) + chain.generator().toarray() / lam
    np.clip(p_sub, 0.0, None, out=p_sub)
    cum = np.cumsum(p_sub, axis=1)  # last column < 1 encodes killing
    n_paths = 200_000
    counts = np.zeros(5)
    for i in range(n_paths):
        s = substream(77, 0, i)
        x = s.pick(5)
        alive = True
        for _ in range(s.poisson(lam * t)):
            u = s.u01()
            nxt = int(np.searchsorted(cum[x], u, side="right"))
            if nxt >= 5:
                alive = False
                break
            x = nxt
        if alive:
            counts[x] += 1
    freq = counts / counts.sum()
    se = np.sqrt(expect * (1 - expect) / counts.sum())
    assert np.all(np.abs(freq - expect) <= 3 * se + 1e-12)


def test_extinction_underflow_error():
    chain = q.FiniteKilledChain(np.zeros((2, 2)), np.array([50.0, 50.0]))
    m = killed_semigroup(chain, 20.0)
    m.M[:] = 0.0
    with pytest.raises(ExtinctionUnderflowError):
        conditional_law_step(m, np.array([0.5, 0.5]))


def test_conditional_iterates_reach_qsd_from_any_start():
    rng = np.random.default_rng(6)
    chain = random_chain(rng, 6)
    m = killed_semigroup(chain, 0.8)
    trip = perron_triplet(m)
    assert isinstance(trip, EigenTriplet)
    for _ in range(3):
        eta0 = rng.dirichlet(np.ones(6))
        eta, _ = iterate_conditional(m, eta0, max_iter=5000, tol=1e-14)
        assert tv_finite(eta, trip.gamma_left) < 1e-8


# ---------------------------------------------------------------------------
# eigen-elements
# ---------------------------------------------------------------------------

def test_conservative_triplet_is_trivial():
    rng = np.random.default_rng(7)
    chain = random_chain(rng, 5, kill_scale=0.0)
    m = killed_semigroup(chain, 0.6)
    trip = perron_triplet(m)
    assert abs(trip.theta) < 1e-10
    assert np.ptp(trip.h) < 1e-8 * trip.h.max()
    np.testing.assert_allclose(trip.gamma_left @ m.M, trip.gamma_left,
                               atol=1e-10)


def test_triplet_residuals_and_normalization():
    rng = np.random.default_rng(8)
    chain = random_chain(rng, 6)
    m = killed_semigroup(chain, 0.5)
    trip = perron_triplet(m)
    trip.validate()
    assert abs(float(trip.gamma_left @ trip.h) - 1.0) < 1e-10
    rho = math.exp(-trip.theta * m.t0)
    assert np.abs(trip.gamma_left @ m.M - rho * trip.gamma_left).max() < 1e-10
    assert np.abs(m.M @ trip.h - rho * trip.h).max() < 1e-8 * trip.h.max()


@pytest.mark.parametrize("a, b, h", [
    (1.0, 2.0, [0.0, 2.0]),  # the mixture and the Dirac QSD
    (2.0, 1.0, [1.0, 2.0]),  # the dying state is slower: Dirac only
    (1.0, 1.0, None),        # equal rates: Dirac only, and no h
], ids=["mixture_and_dirac", "dirac_only", "equal_rates"])
def test_two_point_is_reducible_with_two_qsds(a, b, h):
    preset = q.TwoPoint(a, b)
    m = killed_semigroup(preset.chain(), 1.0)
    diag = perron_triplet(m)
    assert isinstance(diag, ReducibilityDiagnostic)
    assert diag.n_classes == 2
    assert str(diag).endswith("classes [[0], [1]]"), str(diag)
    comps = list_qsds(m)
    closed = preset.closed_forms()
    assert len(comps) == len(closed)
    for comp, form in zip(comps, closed):
        np.testing.assert_allclose(comp.qsd, form.weights, atol=1e-9)
        assert abs(comp.theta - form.theta) < 1e-9
        # the mixture lives on the transient state, the Dirac on the dying one
        expect = [q.TwoPoint.TRANSIENT] if form.regime == "mixture" else [q.TwoPoint.DYING]
        assert comp.class_states.tolist() == expect
    if h is None:
        assert comps[0].h is None
    else:
        np.testing.assert_allclose(comps[0].h, h, atol=1e-8)


@pytest.mark.parametrize("rates, kill, expect", [
    # two disjoint 2-state rings: each carries its own uniform QSD
    (scipy.linalg.block_diag([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]),
     [0.5] * 4, {(0, 1): ([0.5, 0.5, 0.0, 0.0], 0.5),
                 (2, 3): ([0.0, 0.0, 0.5, 0.5], 0.5)}),
    # three states that never jump: one Dirac QSD each
    (np.zeros((3, 3)), [0.0, 0.0, 1.0],
     {(0,): ([1.0, 0.0, 0.0], 0.0), (1,): ([0.0, 1.0, 0.0], 0.0),
      (2,): ([0.0, 0.0, 1.0], 1.0)}),
], ids=["two_rings", "three_diracs"])
def test_classes_of_equal_theta_each_carry_their_own_qsd(rates, kill, expect):
    # the order of QSDs with equal theta is not promised, so match by class
    comps = list_qsds(killed_semigroup(q.FiniteKilledChain(np.array(rates), kill), 1.0))
    got = {tuple(c.class_states.tolist()): c for c in comps}
    assert sorted(got) == sorted(expect)
    for cls, (qsd, theta) in expect.items():
        np.testing.assert_allclose(got[cls].qsd, qsd, atol=1e-12)
        assert abs(got[cls].theta - theta) < 1e-9


def test_periodic_support_detected():
    # deterministic 3-cycle kernel is irreducible but not primitive
    p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    diag = perron_triplet(KilledSemigroupMatrix(p, 1.0))
    assert isinstance(diag, ReducibilityDiagnostic)
    assert diag.period == 3
    # list_qsds takes aperiodic classes only, alone or next to another class
    for mat in (p, scipy.linalg.block_diag(p, [[0.5]])):
        with pytest.raises(ValueError, match="period 3"):
            list_qsds(KilledSemigroupMatrix(mat, 1.0))


def test_state_without_a_cycle_has_no_triplet():
    # one state without a self-loop: a diagnostic at once, no power iteration
    # dividing by rho = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = perron_triplet(KilledSemigroupMatrix(np.zeros((1, 1)), 1.0))
    assert isinstance(diag, ReducibilityDiagnostic)
    assert diag.period == 0
    assert [c.tolist() for c in diag.classes] == [[0]]


def test_house_grid_matches_root_find(house_oracle):
    chain, m, trip = house_oracle
    expect = (math.e - 2.0) / (math.e - 1.0)
    assert abs(trip.theta - expect) < 1e-3
    (qsd,) = q.HouseOfCard(1.0, 1.0).closed_forms()
    dens = qsd.density(chain.positions)
    np.testing.assert_allclose(trip.gamma_left, dens / dens.sum(), rtol=1e-3)


def test_birth_death_theta_stable_under_truncation():
    thetas = {}
    for trunc in (200, 400):
        chain = q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=trunc).chain()
        m = killed_semigroup(chain, 2.0)
        trip = perron_triplet(m)
        assert trip.converged
        thetas[trunc] = trip.theta
    assert abs(thetas[200] - thetas[400]) < 1e-6
    assert q.BirthDeath(4.0, 1.0, 1.0, 0.1).criterion_value() > 0


def test_house_regime_q2_has_bounded_density():
    chain = grid_generator(q.HouseOfCard(1.0, 2.0), 500)
    trip = perron_triplet(killed_semigroup(chain, 1.0))
    assert isinstance(trip, EigenTriplet)
    dens = trip.gamma_left * chain.n_states  # atoms to density scale
    assert dens.max() / dens.min() < 50.0
    assert 1.0 - 1.0 / 1.0 < 2.0  # regime check: q=2 > 1 - 1/c = 0


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_interval_grid_dirichlet_ground_state(interval_oracle):
    chain, m, trip = interval_oracle
    target = math.pi ** 2 / 2.0
    assert abs(trip.theta - target) / target < 0.005
    ref = measure_from_density(lambda x: (math.pi / 2) * np.sin(math.pi * x),
                               0.0, 1.0, 20000, space=q.Interval())
    got = EmpiricalMeasure(chain.positions, trip.gamma_left, space=q.Interval())
    assert w1_line(got, ref) < 1e-3


def test_torus_grid_constant_kill_commutes():
    lam0 = 0.7
    chain = grid_generator(q.TorusDiffusion(dim=1, kill=lam0), 256)
    m = killed_semigroup(chain, 0.25)
    trip = perron_triplet(m)
    assert abs(trip.theta - lam0) < 1e-8
    assert tv_finite(trip.gamma_left, np.full(256, 1 / 256)) < 1e-8


def test_torus_grid_with_drift_smoke():
    preset = q.TorusDiffusion(dim=1, drift=("sine", 0.75),
                              kill=("cosine", 1.0, 1.0))
    chain = grid_generator(preset, 512)
    trip = perron_triplet(killed_semigroup(chain, 0.25))
    assert isinstance(trip, EigenTriplet)
    assert trip.converged and trip.theta > 0
    # kill is lowest at 0.5, so the quasi-stationary mass concentrates there
    assert abs(chain.positions[np.argmax(trip.gamma_left)] - 0.5) < 0.2


def test_grid_generator_rejects_unsupported():
    with pytest.raises(UnsupportedModelError):
        grid_generator(q.PeriodicShift(), 100)
    with pytest.raises(UnsupportedModelError):
        grid_generator(q.TorusDiffusion(dim=2), 100)
    with pytest.raises(ValueError):
        grid_generator(q.IntervalBrownian(), 8)


# ---------------------------------------------------------------------------
# generator path
# ---------------------------------------------------------------------------

SINE_COSINE_TORUS = q.TorusDiffusion(dim=1, drift=("sine", 0.75),
                                     kill=("cosine", 1.0, 1.0))


@pytest.mark.parametrize("preset, t0", [(q.IntervalBrownian(), 0.06),
                                        (SINE_COSINE_TORUS, 0.25)],
                         ids=["interval", "sine_cosine_torus"])
def test_generator_triplet_matches_power_iteration(preset, t0):
    chain = grid_generator(preset, 600)
    gen = generator_triplet(chain, t0)
    dense = perron_triplet(killed_semigroup(chain, t0))
    assert gen.converged and dense.converged
    assert abs(gen.theta - dense.theta) / dense.theta < 1e-7
    assert gen.rho == math.exp(-gen.theta * t0)
    assert tv_finite(gen.gamma_left, dense.gamma_left) < 1e-10
    assert np.max(np.abs(gen.h - dense.h)) < 1e-9
    assert gen.gamma_left.sum() == pytest.approx(1.0, abs=1e-14)
    gen.validate()


def test_generator_triplet_of_kill_free_torus_is_uniform():
    chain = grid_generator(q.TorusDiffusion(dim=1), 600)
    m, trip = spectrum(chain, 0.25)
    assert m is None
    assert 0.0 <= trip.theta <= 1e-10 and trip.rho == 1.0
    assert tv_finite(trip.gamma_left, np.full(600, 1 / 600)) < 1e-10


def test_spectrum_keeps_the_semigroup_for_reducible_and_small_chains():
    # two disjoint rings of 300 states: a sparse chain above 512 states
    # that is not one class keeps M, and its QSD list comes from each ring
    n = 300
    rates = np.zeros((2 * n, 2 * n))
    for base in (0, n):
        i = base + np.arange(n)
        j = base + (np.arange(n) + 1) % n
        rates[i, j] = rates[j, i] = 1.0
    chain = q.FiniteKilledChain(rates, np.repeat([0.5, 1.0], n))
    m, diag = spectrum(chain, 1.0)
    assert isinstance(m, KilledSemigroupMatrix)
    assert isinstance(diag, ReducibilityDiagnostic)
    assert [len(c) for c in diag.classes] == [n, n]
    comps = list_qsds(m, diag)
    assert len(comps) == 2
    for comp, ring, theta in zip(comps, (0, n), (0.5, 1.0)):
        assert comp.class_states.tolist() == list(range(ring, ring + n))
        expect = np.zeros(2 * n)
        expect[ring:ring + n] = 1.0 / n
        assert np.abs(comp.qsd - expect).max() < 1e-12
        assert abs(comp.theta - theta) < 1e-9
    # 512 states is not above the size limit
    m, trip = spectrum(grid_generator(q.IntervalBrownian(), 512), 0.06)
    assert isinstance(m, KilledSemigroupMatrix) and isinstance(trip, EigenTriplet)
    assert spectrum(grid_generator(q.IntervalBrownian(), 513), 0.06)[0] is None


def test_large_banded_grid_is_stored_sparse():
    # 20,000 states, which as a dense rate array would take 3.2 GB
    chain = grid_generator(q.IntervalBrownian(), 20_000)
    assert chain.jump_rates.nnz == 39_998
    m, trip = spectrum(chain, 0.06)
    assert m is None
    assert abs(trip.theta / (math.pi ** 2 / 2) - 1.0) < 1e-6


def test_generator_triplet_is_bitwise_repeatable():
    chain = grid_generator(SINE_COSINE_TORUS, 600)
    a, b = generator_triplet(chain, 0.25), generator_triplet(chain, 0.25)
    assert a.theta == b.theta and a.iterations == b.iterations
    assert a.h.tobytes() == b.h.tobytes()
    assert a.gamma_left.tobytes() == b.gamma_left.tobytes()


# ---------------------------------------------------------------------------
# survival curves
# ---------------------------------------------------------------------------

def test_survival_all_ones_without_killing():
    rng = np.random.default_rng(9)
    chain = random_chain(rng, 4, kill_scale=0.0)
    m = killed_semigroup(chain, 0.5)
    s = survival_curve(m, np.full(4, 0.25), 10)
    np.testing.assert_allclose(s, 1.0, atol=1e-12)


def test_survival_from_dying_state_decays_exactly():
    m = killed_semigroup(q.TwoPoint(1.0, 2.0).chain(), 1.0)
    s = survival_curve(m, np.array([1.0, 0.0]), 12)
    np.testing.assert_allclose(s, np.exp(-2.0 * np.arange(1, 13)), rtol=1e-12)


def test_survival_from_qsd_is_log_linear():
    rng = np.random.default_rng(10)
    chain = random_chain(rng, 6)
    m = killed_semigroup(chain, 0.5)
    trip = perron_triplet(m)
    s = survival_curve(m, trip.gamma_left, 50)
    ks = np.arange(1, 51)
    coef = np.polyfit(ks, np.log(s), 1)
    resid = np.log(s) - np.polyval(coef, ks)
    assert np.abs(resid).max() < 1e-8


# ---------------------------------------------------------------------------
# normalized-semigroup convergence rate
# ---------------------------------------------------------------------------

def test_normalized_error_decays_at_spectral_gap():
    chain = q.BirthDeath(1.0, 2.0, 1.0, 0.5, truncation=30).chain()
    m = killed_semigroup(chain, 0.5)
    trip = perron_triplet(m)
    theta1, theta2 = spectral_gap(m)
    gap = theta2 - theta1
    rho = math.exp(-trip.theta * m.t0)
    mu = np.full(chain.n_states, 1.0 / chain.n_states)
    target = float(mu @ trip.h)
    errs = []
    cur = mu.copy()
    fac = 1.0
    for _ in range(400):
        cur = cur @ m.M
        fac /= rho
        d = np.max(np.abs(fac * cur - target * trip.gamma_left))
        if d < 1e-11:
            break
        errs.append(d)
    ks = np.arange(1, len(errs) + 1)
    slope = np.polyfit(ks * m.t0, np.log(errs), 1)[0]
    rate = -slope
    assert rate >= 0.5 * gap
    assert abs(rate - gap) / gap < 0.1
