import math

import numpy as np
import pytest
import scipy.optimize

import qsdlab as q
from qsdlab import substream
from qsdlab.metrics import (
    EmpiricalMeasure,
    estimate_theta,
    fit_exponential_rate,
    fit_power_law,
    from_particles,
    measure_from_density,
    sliced_w1_torus,
    tv_finite,
    tv_hist,
    w1_auto,
    w1_circle,
    w1_line,
)
from qsdlab.oracle import killed_semigroup, perron_triplet, spectral_gap


def _circle_cost(x, y):
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def _w1_circle_lp(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Brute-force optimal transport over all couplings, circle costs."""
    na, nb = a.support.size, b.support.size
    cost = np.array([[_circle_cost(x, y) for y in b.support] for x in a.support])
    a_eq = []
    b_eq = []
    for i in range(na):
        row = np.zeros(na * nb)
        row[i * nb:(i + 1) * nb] = 1.0
        a_eq.append(row)
        b_eq.append(a.weights[i])
    for j in range(nb):
        row = np.zeros(na * nb)
        row[j::nb] = 1.0
        a_eq.append(row)
        b_eq.append(b.weights[j])
    res = scipy.optimize.linprog(cost.ravel(), A_eq=np.array(a_eq),
                                 b_eq=np.array(b_eq), bounds=(0, None),
                                 method="highs")
    assert res.success
    return float(res.fun)


# ---------------------------------------------------------------------------
# circle distance
# ---------------------------------------------------------------------------

def test_identical_measures_distance_zero():
    m = EmpiricalMeasure(np.array([0.1, 0.4, 0.9]))
    assert w1_circle(m, m) == 0.0


def test_dirac_pair_geodesic():
    d1 = EmpiricalMeasure(np.array([0.0]))
    assert abs(w1_circle(d1, EmpiricalMeasure(np.array([0.5]))) - 0.5) < 1e-15
    assert abs(w1_circle(d1, EmpiricalMeasure(np.array([0.9]))) - 0.1) < 1e-15


def test_matches_linear_program_on_random_atoms():
    rng = np.random.default_rng(11)
    for _ in range(12):
        a = EmpiricalMeasure(rng.uniform(0, 1, 4), rng.dirichlet(np.ones(4)))
        b = EmpiricalMeasure(rng.uniform(0, 1, 4), rng.dirichlet(np.ones(4)))
        assert abs(w1_circle(a, b) - _w1_circle_lp(a, b)) < 1e-9


def test_symmetry_is_exact():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = EmpiricalMeasure(rng.uniform(0, 1, 9))
        b = EmpiricalMeasure(rng.uniform(0, 1, 6), rng.dirichlet(np.ones(6)))
        assert w1_circle(a, b) == w1_circle(b, a)


def test_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(200):
        ms = [EmpiricalMeasure(rng.uniform(0, 1, rng.integers(2, 7)))
              for _ in range(3)]
        dab = w1_circle(ms[0], ms[1])
        dbc = w1_circle(ms[1], ms[2])
        dac = w1_circle(ms[0], ms[2])
        assert dac <= dab + dbc + 1e-9


def test_rotation_invariance():
    rng = np.random.default_rng(20)
    for _ in range(20):
        a = EmpiricalMeasure(rng.uniform(0, 1, 8))
        b = EmpiricalMeasure(rng.uniform(0, 1, 5), rng.dirichlet(np.ones(5)))
        base = w1_circle(a, b)
        s = rng.uniform(0, 1)
        ar = EmpiricalMeasure(np.mod(a.support + s, 1.0), a.weights)
        br = EmpiricalMeasure(np.mod(b.support + s, 1.0), b.weights)
        assert abs(w1_circle(ar, br) - base) < 1e-12


def test_geometry_mismatch_rejected():
    a = EmpiricalMeasure(np.array([0.1]), space=q.Torus())
    b = EmpiricalMeasure(np.array([0.2]), space=q.Interval())
    with pytest.raises(ValueError):
        w1_circle(a, b)
    # a finite chain's states are labels: no W1 applies to them
    c = EmpiricalMeasure(np.array([1.0]), space=q.Finite(2))
    for x, y in ((a, b), (b, a), (c, c)):
        with pytest.raises(ValueError):
            w1_auto(x, y)


def test_w1_line_refuses_a_finite_space_and_two_spaces():
    torus = EmpiricalMeasure(np.array([0.1]), space=q.Torus())
    interval = EmpiricalMeasure(np.array([0.2]), space=q.Interval())
    finite = EmpiricalMeasure(np.array([0.0, 2.0]), space=q.Finite(3))
    for x, y in ((torus, interval), (interval, torus), (finite, finite)):
        with pytest.raises(ValueError, match="one real space"):
            w1_line(x, y)
    assert w1_line(torus, torus) == 0.0


def test_empirical_sampling_rate_matches_dimension_one():
    # distance between two same-law samples decays like N^{-1/2}
    rng = np.random.default_rng(14)
    ns = [2 ** k for k in range(6, 15)]
    means = []
    for n in ns:
        vals = [w1_circle(EmpiricalMeasure(rng.uniform(0, 1, n)),
                          EmpiricalMeasure(rng.uniform(0, 1, n)))
                for _ in range(4)]
        means.append(np.mean(vals))
    fit = fit_power_law(ns, means)
    assert -0.65 < fit.slope < -0.35


def test_w1_line_against_explicit_cdf_integral():
    a = EmpiricalMeasure(np.array([0.2, 0.8]), space=q.Interval())
    b = EmpiricalMeasure(np.array([0.5]), space=q.Interval())
    assert abs(w1_line(a, b) - 0.3) < 1e-15


# ---------------------------------------------------------------------------
# sliced distance
# ---------------------------------------------------------------------------

def test_sliced_trivial_direction_equals_circle():
    rng = np.random.default_rng(15)
    a = EmpiricalMeasure(rng.uniform(0, 1, 50))
    b = EmpiricalMeasure(rng.uniform(0, 1, 50))
    est, se = sliced_w1_torus(a, b, 1, substream(0, 0, 0))
    assert est == w1_circle(a, b)
    assert se == 0.0


def test_sliced_identical_measures_vanish():
    rng = np.random.default_rng(16)
    pts = rng.uniform(0, 1, (64, 2))
    a = EmpiricalMeasure(pts)
    est, _ = sliced_w1_torus(a, a, 8, substream(1, 0, 0))
    assert est < 1e-14


def test_sliced_self_consistent_across_projection_sets():
    # a correlated cloud against its own marginals recombined independently
    rng = np.random.default_rng(17)
    x = rng.uniform(0, 1, 256)
    a_pts = np.stack([x, np.mod(x + rng.normal(0, 0.05, 256), 1.0)], axis=1)
    b_pts = np.stack([np.sort(a_pts[:, 0]),
                      rng.permuted(np.sort(a_pts[:, 1]))], axis=1)
    a = EmpiricalMeasure(a_pts)
    b = EmpiricalMeasure(b_pts)
    runs = [sliced_w1_torus(a, b, 64, substream(s, 0, 0)) for s in range(10)]
    ests = np.array([r[0] for r in runs])
    ses = np.array([r[1] for r in runs])
    spread = np.abs(ests - ests.mean()).max()
    assert spread <= 2.0 * (ses.max() + ests.std(ddof=1))
    assert ests.mean() > 0.01  # breaking the coupling is visible to slices


def test_sliced_rejects_bad_projection_count():
    a = EmpiricalMeasure(np.array([0.1]))
    with pytest.raises(ValueError):
        sliced_w1_torus(a, a, 0, substream(0, 0, 0))


# ---------------------------------------------------------------------------
# extinction-rate estimator
# ---------------------------------------------------------------------------

def test_theta_hat_constant_rate():
    lam0 = 0.7
    model = q.TorusDiffusion(dim=1, kill=lam0).model(0.01)
    rep = q.run_fv(model, q.FVConfig(n_particles=1024, n_steps=10_000, seed=3,
                                     snapshot_stride=10_000))
    est = estimate_theta(rep, burn_in=0)
    assert abs(est.value - lam0) <= 3 * est.stderr + 0.35 * lam0 * 0.01


def test_theta_hat_invariant_to_stride_and_labels():
    model = q.TorusDiffusion(dim=1, kill=0.5).model(0.02)
    reps = [q.run_fv(model, q.FVConfig(n_particles=64, n_steps=400, seed=9,
                                       snapshot_stride=s)) for s in (10, 173)]
    a, b = (estimate_theta(r, burn_in=100) for r in reps)
    assert a.value == b.value and a.stderr == b.stderr


def test_theta_hat_validates_burn_in():
    model = q.TorusDiffusion(dim=1, kill=0.5).model(0.02)
    rep = q.run_fv(model, q.FVConfig(n_particles=16, n_steps=10, seed=1))
    with pytest.raises(ValueError):
        estimate_theta(rep, burn_in=10)


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

def test_power_law_exact():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_power_law(xs, xs ** -0.5)
    assert abs(fit.slope + 0.5) < 1e-12 and abs(fit.r2 - 1.0) < 1e-12


def test_power_law_with_noise():
    rng = np.random.default_rng(18)
    xs = np.logspace(0, 3, 20)
    ys = 3.0 * xs ** 0.5 * (1.0 + 0.01 * rng.standard_normal(20))
    fit = fit_power_law(xs, ys)
    assert abs(fit.slope - 0.5) < 0.02


def test_fluctuation_table_self_test_dimension_two():
    # the d=2 rate N^{-1/2} log(1+N) does not fit a clean power law, which
    # is why its acceptance uses a slope band rather than a point value
    ns = np.array([2.0 ** k for k in range(6, 17)])
    ys = ns ** -0.5 * np.log1p(ns)
    fit = fit_power_law(ns, ys)
    assert -0.5 < fit.slope < -0.35


def test_power_law_input_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
    # a slope needs two distinct x values
    with pytest.raises(ValueError, match="distinct"):
        fit_power_law([0.05, 0.05, 0.05], [0.1, 0.2, 0.3])


def test_exponential_rate_exact():
    ts = np.linspace(0, 5, 20)
    fit = fit_exponential_rate(ts, np.exp(-2.0 * ts))
    assert abs(fit.rate - 2.0) < 1e-12 and abs(fit.r2 - 1.0) < 1e-12


def test_exponential_rate_matches_conditional_gap():
    chain = q.BirthDeath(1.0, 2.0, 1.0, 0.5, truncation=8).chain()
    m = killed_semigroup(chain, 0.8)
    trip = perron_triplet(m)
    theta1, theta2 = spectral_gap(m)
    eta = np.full(chain.n_states, 1.0 / chain.n_states)
    ts, ds = [], []
    for kstep in range(1, 300):
        eta = eta @ m.M
        eta = eta / eta.sum()
        d = tv_finite(eta, trip.gamma_left)
        if d < 1e-11:
            break
        ts.append(kstep * m.t0)
        ds.append(d)
    fit = fit_exponential_rate(ts[5:], ds[5:])
    gap = theta2 - theta1
    assert abs(fit.rate - gap) / gap < 0.1
    assert fit.r2 > 0.99


def test_exponential_rate_validation():
    with pytest.raises(ValueError):
        fit_exponential_rate([1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="distinct"):
        fit_exponential_rate([0.5, 0.5, 0.5], [0.1, 0.2, 0.3])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_tv_helpers():
    assert tv_finite([0.5, 0.5], [0.0, 1.0]) == 0.5
    rng = np.random.default_rng(19)
    xs = rng.uniform(0, 1, 5000)
    assert tv_hist(xs, xs) == 0.0
    assert tv_hist(xs, rng.uniform(0, 1, 5000)) < 0.1


def test_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([0.1, 0.2]), np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([0.1, 0.2]), np.array([1.1, -0.1]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([0.1, 0.2]), np.array([np.nan, 1.0]))


def test_measure_refuses_atoms_outside_its_space():
    # a NaN atom made w1_auto return nan, and an atom at 7.0 on the interval
    # made it return 6.5
    ref = EmpiricalMeasure(np.array([0.5]), space=q.Interval())
    for bad in ([math.nan, 0.5], [7.0], [-0.1], [math.inf]):
        with pytest.raises(ValueError):
            w1_auto(EmpiricalMeasure(np.array(bad), space=q.Interval()), ref)
    for space in (q.Torus(), q.HalfLine(), q.Finite(3)):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([0.5, math.nan]), space=space)
    # a finite measure holds the state labels 0..n-1
    for bad in (2.5, -1.0, 3.0):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([0.0, bad]), space=q.Finite(3))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([1.5]), space=q.Torus())
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.array([-1e-9]), space=q.HalfLine())
    # the closed ends and a far half-line atom are allowed
    assert w1_auto(EmpiricalMeasure(np.array([0.0, 1.0]), space=q.Interval()),
                   ref) == 0.5
    EmpiricalMeasure(np.array([7.0]), space=q.HalfLine())
    EmpiricalMeasure(np.array([1.0]), space=q.Torus())
    EmpiricalMeasure(np.array([0.0, 2.0]), space=q.Finite(3))


def test_measure_from_density_normalizes():
    m = measure_from_density(lambda x: np.sin(math.pi * x), 0, 1, 500)
    assert abs(m.weights.sum() - 1.0) < 1e-12


def test_from_particles_flattens_columns():
    m = from_particles(np.array([[0.1], [0.2]]), q.Torus())
    assert m.support.shape == (2,)
