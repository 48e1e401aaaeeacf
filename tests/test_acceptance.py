"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line with its runtime (run pytest with -s to
see them on success).  Tolerances are fixed here, not tuned at runtime.
"""

import json
import math

import numpy as np
import scipy.linalg

import qsdlab as q
from qsdlab import substream
from qsdlab.cli import main as cli_main
from qsdlab.fv import FVConfig, init_states, run_fv, run_fv_batch
from qsdlab.harris import (
    check_assumptions,
    check_irreducibility,
    search_lyapunov_pair,
    verify_conclusion,
)
from qsdlab.metrics import (
    EmpiricalMeasure,
    estimate_theta,
    fit_exponential_rate,
    fit_power_law,
    measure_from_density,
    tv_finite,
    w1_circle,
    w1_line,
    w1_rows,
)
from qsdlab.models import propose
from qsdlab.oracle import (
    iterate_conditional,
    killed_semigroup,
    list_qsds,
    perron_triplet,
    spectral_gap,
    survival_curve,
)
from tests.conftest import CriterionTimer, random_chain

HOUSE_THETA = (math.e - 2.0) / (math.e - 1.0)
DIRICHLET_THETA = math.pi ** 2 / 2.0


def test_c01_two_point_oracle_exactness():
    with CriterionTimer("C1 two-point oracle exactness", 1.0):
        tp = q.TwoPoint(1.0, 2.0)
        m = killed_semigroup(tp.chain(), 1.0)
        eta, _ = iterate_conditional(m, np.array([0.0, 1.0]), max_iter=60,
                                     tol=1e-12)
        assert tv_finite(eta, [0.5, 0.5]) < 1e-8
        comps = list_qsds(m)
        assert len(comps) == 2
        np.testing.assert_allclose(comps[0].qsd, [0.5, 0.5], atol=1e-8)
        np.testing.assert_allclose(comps[1].qsd, [1.0, 0.0], atol=1e-8)
        assert abs(comps[0].theta - 1.0) < 1e-8
        assert abs(comps[1].theta - 2.0) < 1e-8


def test_c02_house_of_card(house_oracle):
    with CriterionTimer("C2 house-of-card grid oracle and particles", 120.0):
        chain, m, trip = house_oracle
        (closed,) = q.HouseOfCard(1.0, 1.0).closed_forms()
        assert abs(closed.theta - HOUSE_THETA) < 1e-10
        assert abs(trip.theta - HOUSE_THETA) < 1e-3

        model = q.HouseOfCard(1.0, 1.0).model(0.01)
        rep = run_fv(model, FVConfig(n_particles=4096, n_steps=20_000,
                                     seed=2026, snapshot_stride=50))
        pooled = np.concatenate(
            [s[:, 0] for st, s in rep.snapshots if st > 10_000])
        target = measure_from_density(closed.density, 0.0, 1.0, 4000,
                                      space=q.Interval())
        w = w1_line(EmpiricalMeasure(pooled, space=q.Interval()), target)
        assert w <= 0.02
        est = estimate_theta(rep, burn_in=10_000)
        assert abs(est.value - HOUSE_THETA) <= 0.01


def test_c03_interval_brownian(interval_oracle, interval_oracle_measure):
    with CriterionTimer("C3 hard-killed interval", 120.0):
        chain, m, trip = interval_oracle
        assert abs(trip.theta - DIRICHLET_THETA) / DIRICHLET_THETA < 0.005
        ref = measure_from_density(
            lambda x: (math.pi / 2.0) * np.sin(math.pi * x), 0.0, 1.0, 20_000,
            space=q.Interval())
        assert w1_line(interval_oracle_measure, ref) < 1e-3

        gamma = 2e-4
        model = q.IntervalBrownian().model(gamma)
        burn = 3000
        rep = run_fv(model, FVConfig(n_particles=4096, n_steps=burn + 10_000,
                                     seed=11, snapshot_stride=13_000))
        est = estimate_theta(rep, burn_in=burn)
        assert abs(est.value - DIRICHLET_THETA) / DIRICHLET_THETA < 0.05


def test_c04_particle_marginal_matches_conditional_law():
    with CriterionTimer("C4 particle-one marginal vs conditional law", 60.0):
        tp = q.TwoPoint(1.0, 2.0)
        gamma, n_steps, n_runs = 0.1, 20, 200
        model = tp.model(gamma)
        chain = tp.chain()
        step_kernel = scipy.linalg.expm(gamma * chain.conservative_generator().toarray()) \
            @ np.diag(np.exp(-gamma * chain.kill_rates))
        eta = np.array([0.0, 1.0])
        for _ in range(n_steps):
            eta = eta @ step_kernel
            eta /= eta.sum()
        counts = np.zeros(2)
        reps = run_fv_batch(model, [FVConfig(n_particles=1000, n_steps=n_steps,
                                             seed=seed, snapshot_stride=n_steps)
                                    for seed in range(n_runs)],
                            init=("dirac", q.TwoPoint.TRANSIENT))
        for rep in reps:
            counts += np.bincount(rep.final_states, minlength=2)
        # by exchangeability the averaged occupation estimates the marginal
        assert tv_finite(counts / counts.sum(), eta) <= 0.05


def test_c05_fluctuation_rate_in_particle_count(interval_oracle_measure):
    with CriterionTimer("C5 fluctuation rate vs N", 600.0):
        gamma = 4e-5
        model = q.IntervalBrownian().model(gamma)
        burn_steps = 25_000
        total = 62_500
        stride = 2500
        ns = (64, 256, 1024, 4096)
        seeds = range(1000, 1008)
        # the 32 runs as three batches of 10,752, 16,384 and 16,384 particles
        batches = ([(n, seed) for n in ns[:3] for seed in seeds],
                   [(4096, seed) for seed in seeds[:4]],
                   [(4096, seed) for seed in seeds[4:]])
        vals = {}
        for batch in batches:
            reps = run_fv_batch(model, [FVConfig(n_particles=n, n_steps=total,
                                                 seed=seed, snapshot_stride=stride)
                                        for n, seed in batch])
            for run, rep in zip(batch, reps):
                rows = [s[:, 0] for st, s in rep.snapshots if st > burn_steps]
                vals[run] = np.mean(w1_rows(rows, interval_oracle_measure))
        means = [float(np.mean([vals[n, seed] for seed in seeds])) for n in ns]
        fit = fit_power_law(ns, means)
        print(f"\n  C5 detail: means={np.round(means, 5).tolist()} "
              f"slope={fit.slope:.3f} r2={fit.r2:.4f}")
        assert -0.65 < fit.slope < -0.35


def test_c06_step_size_bias_rate(interval_oracle_measure):
    with CriterionTimer("C6 step-size bias vs gamma", 900.0):
        t_burn, t_avg = 2.0, 20.0
        gammas = (0.08, 0.04, 0.02, 0.01)
        vals = []
        for gamma in gammas:
            model = q.IntervalBrownian().model(gamma)
            nb, na = int(t_burn / gamma), int(t_avg / gamma)
            stride = max(1, na // 100)
            pooled_runs = []
            for seed in (5, 6):
                rep = run_fv(model, FVConfig(n_particles=8192,
                                             n_steps=nb + na, seed=seed,
                                             snapshot_stride=stride))
                pooled_runs.append(np.concatenate(
                    [s[:, 0] for st, s in rep.snapshots if st > nb]))
            pooled = np.concatenate(pooled_runs)
            vals.append(w1_line(EmpiricalMeasure(pooled, space=q.Interval()),
                                interval_oracle_measure))
        fit = fit_power_law(gammas, vals)
        print(f"\n  C6 detail: biases={np.round(vals, 5).tolist()} "
              f"slope={fit.slope:.3f} r2={fit.r2:.4f}")
        assert 0.25 < fit.slope < 0.75


def test_c07_contraction_and_gap():
    with CriterionTimer("C7 contraction from extremal starts", 300.0):
        # particle side: exponential approach of two runs started at
        # opposite point masses
        model = q.TorusDiffusion(dim=1, drift=("sine", 0.75),
                                 kill=("cosine", 1.0, 1.0)).model(0.01)
        n, n_steps, stride = 4096, 150, 1
        reps = [run_fv(model, FVConfig(n_particles=n, n_steps=n_steps,
                                       seed=31 + i, snapshot_stride=stride),
                       init=("dirac", x0))
                for i, x0 in enumerate((0.05, 0.55))]
        ts, ds = [], []
        for (sa, arra), (sb, arrb) in zip(reps[0].snapshots, reps[1].snapshots):
            if sa == 0:
                continue
            d = w1_circle(EmpiricalMeasure(arra[:, 0]),
                          EmpiricalMeasure(arrb[:, 0]))
            if d < 0.02:  # stop at the sampling-noise floor
                break
            ts.append(sa * model.gamma)
            ds.append(d)
        fit = fit_exponential_rate(ts, ds)
        print(f"\n  C7 detail: kappa={fit.rate:.3f} r2={fit.r2:.3f} "
              f"points={len(ds)}")
        assert fit.rate > 0
        assert fit.r2 > 0.8

        # finite-chain side: conditional-law decay matches the spectral gap
        chain = q.BirthDeath(1.0, 2.0, 1.0, 0.5, truncation=8).chain()
        m = killed_semigroup(chain, 0.8)
        trip = perron_triplet(m)
        theta1, theta2 = spectral_gap(m)
        eta = np.full(chain.n_states, 1.0 / chain.n_states)
        ts2, ds2 = [], []
        for kstep in range(1, 300):
            eta = eta @ m.M
            eta /= eta.sum()
            d = tv_finite(eta, trip.gamma_left)
            if d < 1e-11:
                break
            ts2.append(kstep * m.t0)
            ds2.append(d)
        fit2 = fit_exponential_rate(ts2[5:], ds2[5:])
        gap = theta2 - theta1
        assert abs(fit2.rate - gap) / gap < 0.10


def test_c08_harris_certifier():
    with CriterionTimer("C8 drift/minorization certificates", 30.0):
        chain = q.BirthDeath(4.0, 1.0, 1.0, 0.1, truncation=100).chain()
        cert, m = search_lyapunov_pair(chain)
        assert cert.all_pass
        rep = verify_conclusion(m, cert)
        assert rep.eig_lower_slack > 0 and rep.eig_upper_slack > 0

        tp = q.TwoPoint(1.0, 2.0)
        m2 = killed_semigroup(tp.chain(), 1.0)
        cert2 = check_assumptions(m2, np.ones(2), np.ones(2), np.arange(2),
                                  nu=np.array([1.0, 0.0]), n_max=30)
        assert not cert2.verdicts["survival_comparability"].passed
        fit = fit_exponential_rate(np.arange(1.0, 31.0), cert2.ratio_sequence)
        assert abs(fit.rate - 1.0) < 0.05  # ratios decay like e^{-n}

        eps_bd, ok_bd = check_irreducibility(chain, np.arange(20), 5.0)
        assert ok_bd and eps_bd > 0
        eps_tp, ok_tp = check_irreducibility(tp.chain(), np.arange(2), 1.0)
        assert not ok_tp and eps_tp == 0.0


def test_c09_exponential_extinction_from_qsd():
    with CriterionTimer("C9 exponential extinction from the QSD", 1.0):
        chains = [
            q.TwoPoint(1.0, 2.0).chain(),
            q.BirthDeath(1.0, 2.0, 1.0, 0.5, truncation=40).chain(),
            random_chain(np.random.default_rng(123), 5),
        ]
        horizons = (1.0, 0.5, 0.6)
        for chain, t0 in zip(chains, horizons):
            m = killed_semigroup(chain, t0)
            trip = perron_triplet(m)
            if hasattr(trip, "gamma_left"):
                qsd = trip.gamma_left
            else:
                qsd = list_qsds(m)[0].qsd
            s = survival_curve(m, qsd, 50)
            ks = np.arange(1, 51)
            coef = np.polyfit(ks, np.log(s), 1)
            resid = np.log(s) - np.polyval(coef, ks)
            assert np.abs(resid).max() <= 1e-8


def test_c10_counterexample_demos(noncommutation_demo):
    with CriterionTimer("C10 counterexample demos", 60.0):
        # a point mass pushed through the rotation stays a point mass, exactly
        model = q.PeriodicShift().model(0.05)
        states = init_states(model, 64, 0, init=("dirac", 0.25))
        single = np.array([0.25])
        for step in range(1, 101):
            for i in range(64):
                states[i] = propose(model, states[i], substream(0, step, i))
            single = propose(model, single, substream(0, step, 0))
            assert np.unique(states[:, 0]).size == 1
            assert states[0, 0] == single[0]

        # the demo runs here unless another test ran it earlier in the session
        code, out = noncommutation_demo()
        assert code == 0
        lines = (out / "noncommutation.csv").read_text().splitlines()
        assert lines[0] == "n_particles,steps,time,mean_transient_mass"
        table = {}
        for ln in lines[1:]:
            parts = ln.split(",")
            table[(int(parts[0]), int(parts[1]))] = float(parts[3])
        assert len(table) == 9
        assert table[(2, 2000)] < 0.1 < table[(256, 2000)]


def test_c11_sweep_determinism(tmp_path):
    with CriterionTimer("C11 byte-identical sweep re-runs", 120.0):
        doc = {
            "mode": "sweep",
            "model": {"name": "torus_diffusion",
                      "params": {"dim": 1, "drift": ["sine", 0.75],
                                 "kill": ["cosine", 1.0, 1.0]}},
            "seed": 77,
            "output_dir": str(tmp_path / "out"),
            "sweep": {"gammas": [0.02], "n_particles": [32, 64],
                      "horizons": [2.0], "n_seeds": 2, "n_grid": 128},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        blobs = []
        for jobs in ("1", "4", "1"):
            assert cli_main(["sweep", "--config", str(cfg),
                             "--jobs", jobs]) == 0
            blobs.append(((tmp_path / "out" / "sweep.csv").read_bytes(),
                          (tmp_path / "out" / "summary.json").read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2]
