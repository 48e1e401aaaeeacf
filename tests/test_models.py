import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import qsdlab as q
from qsdlab import substream
from qsdlab.cli import EXIT_BAD_CONFIG, EXIT_OK, main
from qsdlab.metrics import tv_finite
from qsdlab.models import PRESETS, ClosedFormQsd, ModelEvaluationError, kill_prob, propose
from qsdlab.oracle import (
    UnsupportedModelError,
    conditional_law_step,
    grid_generator,
    killed_semigroup,
)


def _torus_model(gamma, drift=None, kill=None, dim=1):
    return q.TorusDiffusion(dim=dim, drift=drift, kill=kill).model(gamma)


def _draw_proposals(model, x, n, seed=0):
    out = np.empty((n, model.space.dim))
    for i in range(n):
        out[i] = propose(model, x, substream(seed, 1, i))
    return out


# ---------------------------------------------------------------------------
# proposal law
# ---------------------------------------------------------------------------

def test_zero_drift_mean():
    model = _torus_model(0.01)
    xs = _draw_proposals(model, np.array([0.5]), 100_000)[:, 0]
    assert abs(xs.mean() - 0.5) <= 3e-3
    assert np.all((0.0 <= xs) & (xs < 1.0))


def test_constant_drift_mean_and_variance():
    gamma = 0.04
    model = _torus_model(gamma, drift=1.0)
    xs = _draw_proposals(model, np.array([0.0]), 100_000)[:, 0]
    # unwrap around the drifted center so the lift to the reals is unambiguous
    disp = gamma + np.mod(xs - gamma + 0.5, 1.0) - 0.5
    se_mean = math.sqrt(gamma / xs.size)
    assert abs(disp.mean() - gamma) <= 3 * se_mean
    assert abs(disp.var() - gamma) <= 0.05 * gamma


def test_torus_states_always_wrapped():
    model = _torus_model(0.25, drift=3.0)
    xs = _draw_proposals(model, np.array([0.9]), 2000)
    assert np.all((0.0 <= xs) & (xs < 1.0))


def test_translation_equivariance_with_shared_noise():
    model = _torus_model(0.02, drift=0.7)
    shift = 0.37
    for i in range(200):
        x = substream(9, 0, i).u01()
        out1 = propose(model, np.array([(x + shift) % 1.0]), substream(9, 1, i))
        out2 = propose(model, np.array([x]), substream(9, 1, i))
        d = abs((out1[0] - (out2[0] + shift)) % 1.0)
        assert min(d, 1.0 - d) < 1e-12


def test_uniformized_step_matches_matrix_exponential():
    # joint (landing, survive) frequencies against expm(gamma Q) diag(e^{-gamma kill})
    tp = q.TwoPoint(1.0, 2.0)
    chain = tp.chain()
    gamma = 0.5
    model = tp.model(gamma)
    ref = scipy.linalg.expm(gamma * chain.conservative_generator().toarray()) \
        @ np.diag(np.exp(-gamma * chain.kill_rates))
    n = 100_000
    for start in (0, 1):
        counts = np.zeros(3)  # land dying, land transient, killed
        for i in range(n):
            rng = substream(17 + start, 1, i)
            prop = propose(model, start, rng)
            if rng.u01() >= kill_prob(model, prop):
                counts[prop] += 1
            else:
                counts[2] += 1
        freq = counts / n
        expect = np.array([ref[start, 0], ref[start, 1],
                           1.0 - ref[start].sum()])
        se = np.sqrt(expect * (1 - expect) / n)
        assert np.all(np.abs(freq - expect) <= 3 * se + 1e-12)


def test_chain_refuses_labels_or_positions_of_another_length():
    rates = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="positions"):
        q.FiniteKilledChain(rates, np.zeros(2), positions=np.array([0.5]))
    with pytest.raises(ValueError, match="labels"):
        q.FiniteKilledChain(rates, np.zeros(2), labels=("only",))
    chain = q.FiniteKilledChain(rates, np.zeros(2), labels=("a", "b"),
                                positions=np.array([0.25, 0.75]))
    assert chain.as_dict()["labels"] == ["a", "b"]


def test_dense_chain_stores_the_csr_arrays_of_its_rates():
    rng = np.random.default_rng(5)
    dense = rng.random((300, 300))
    dense[dense < 0.7] = 0.0
    dense[:, 0] = 0.0
    np.fill_diagonal(dense, 0.0)
    grid = q.HouseOfCard(1.0, 0.5).chain(200, zero_atom=True)
    for chain, rates in ((q.FiniteKilledChain(dense, np.zeros(300)), dense),
                         (grid, grid.jump_rates.toarray())):
        ref = sp.csr_matrix(rates)
        for name in ("indices", "indptr", "data"):
            got, want = getattr(chain.jump_rates, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want)


def test_finite_propose_without_jumps():
    chain = q.FiniteKilledChain(np.zeros((3, 3)), np.array([0.5, 0.0, 1.0]))
    model = q.discrete_model(chain, 0.3)
    for x in range(3):
        assert propose(model, x, substream(0, 1, x)) == x


def test_propose_rejects_nonfinite_drift():
    # every drift family refuses a NaN parameter, so the move is given a
    # drift object that evaluates to NaN
    class NanDrift(q.ZeroDrift):
        def drift(self, x):
            return np.full_like(x, math.nan)

    model = q.KilledModel(name="nan_drift", space=q.Torus(), gamma=0.01,
                          move=q.GaussMove(NanDrift()))
    with pytest.raises(ModelEvaluationError):
        propose(model, np.array([0.2]), substream(0, 1, 0))


# each drift and kill family with the finite fields it is built from
_FAMILIES = {
    "const_drift": (q.ConstDrift, (0.5,)),
    "sine_drift": (q.SineDrift, (0.5,)),
    "const_kill": (q.ConstKill, (1.0,)),
    "cosine_kill": (q.CosineKill, (1.0, 0.5)),
    "interval_kill": (q.IntervalKill, (0.0, 1.0)),
    "power_kill": (q.PowerKill, (1.0, 1.0)),
    "state_kill": (lambda *rates: q.StateKill(np.array(rates)), (0.5, 1.0)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_families_refuse_nonfinite_fields(name, bad):
    family, fields = _FAMILIES[name]
    family(*fields)
    for k in range(len(fields)):
        with pytest.raises(ValueError):
            family(*fields[:k], bad, *fields[k + 1:])


# ---------------------------------------------------------------------------
# kill probabilities
# ---------------------------------------------------------------------------

def test_kill_prob_zero_rate():
    model = _torus_model(0.5)
    for x in np.linspace(0, 0.99, 7):
        assert kill_prob(model, np.array([x])) == 0.0


def test_kill_prob_constant_rate_formula():
    model = _torus_model(0.5, kill=2.0)
    p = kill_prob(model, np.array([0.3]))
    assert abs(p - (1.0 - math.exp(-1.0))) < 1e-15
    assert abs(p - 0.6321) < 1e-4


def test_kill_prob_hard_interval_indicator():
    model = q.IntervalBrownian().model(0.01)
    assert kill_prob(model, np.array([1.2])) == 1.0
    assert kill_prob(model, np.array([0.3])) == 0.0
    assert kill_prob(model, np.array([0.0])) == 1.0


def test_soft_kill_monotone_in_rate_and_step():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam1, lam2 = sorted(rng.uniform(0.0, 4.0, size=2))
        g1, g2 = sorted(rng.uniform(0.01, 1.0, size=2))
        p11 = kill_prob(_torus_model(g1, kill=lam1), np.array([0.1]))
        p21 = kill_prob(_torus_model(g1, kill=lam2), np.array([0.1]))
        p12 = kill_prob(_torus_model(g2, kill=lam1), np.array([0.1]))
        assert p11 <= p21 <= 1.0 - 1e-15 or lam1 == lam2
        assert p11 <= p12 or g1 == g2
        assert p21 < 1.0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_two_point_closed_forms():
    mix, dirac = q.TwoPoint(1.0, 2.0).closed_forms()
    assert mix.regime == "mixture" and mix.theta == 1.0
    np.testing.assert_allclose(mix.weights, [0.5, 0.5], atol=1e-15)
    assert dirac.regime == "dirac_dying" and dirac.theta == 2.0
    np.testing.assert_allclose(dirac.weights, [1.0, 0.0], atol=0)
    (only,) = q.TwoPoint(2.0, 1.0).closed_forms()
    assert only.regime == "dirac_dying" and only.theta == 1.0
    (critical,) = q.TwoPoint(1.0, 1.0).closed_forms()
    assert critical.theta == 1.0


def test_house_of_card_theta_closed_form():
    cases = [
        (1.0, 1.0, (math.e - 2.0) / (math.e - 1.0), 1e-10),
        # the density spikes near x = 0 as theta -> 1, and a single quad at
        # theta = 1 - 1e-12 misses the spike; values from the n_grid 2000
        # oracle
        (2.0, 1.5, 0.5210177, 1e-7),
        (1.0, 2.0, 0.2598261, 1e-7),
    ]
    for c, qexp, expect, tol in cases:
        (qsd,) = q.HouseOfCard(c, qexp).closed_forms()
        assert qsd.regime == "unique_bounded"
        assert abs(qsd.theta - expect) < tol
        assert abs(qsd.density_mass() - 1.0) < 1e-8
    assert abs(q.HouseOfCard(1.0, 1.0).closed_forms()[0].theta - 0.41802) < 1e-3


def test_house_of_card_regimes():
    # q = 0 with c > 0 is constant killing: theta = c, uniform density
    (flat,) = q.HouseOfCard(0.5, 0.0).closed_forms()
    assert abs(flat.theta - 0.5) < 1e-10
    xs = np.linspace(0.01, 0.99, 11)
    np.testing.assert_allclose(flat.density(xs), np.ones_like(xs), rtol=1e-12)
    # critical line c = 1/(1-q)
    crit = q.HouseOfCard(2.0, 0.5).closed_forms()
    assert {c.regime for c in crit} == {"critical_density", "dirac_zero"}
    dens = [c for c in crit if c.regime == "critical_density"][0]
    assert abs(dens.density_mass() - 1.0) < 1e-8
    # degenerate: atom weight + density mass add to one
    (deg,) = q.HouseOfCard(4.0, 0.5).closed_forms()
    assert deg.regime == "degenerate_mixture"
    assert deg.atom == 0.0 and 0 < deg.atom_weight < 1
    assert abs(deg.atom_weight + deg.density_mass() - 1.0) < 1e-8
    assert deg.theta == 1.0


def test_interval_brownian_closed_form():
    (qsd,) = q.IntervalBrownian().closed_forms()
    assert abs(qsd.theta - math.pi ** 2 / 2.0) < 1e-14
    assert abs(qsd.density_mass() - 1.0) < 1e-8


def test_no_closed_form_presets_return_empty():
    assert q.PeriodicShift().closed_forms() == ()
    assert q.TorusDiffusion(dim=1).closed_forms() == ()


def test_closed_form_weights_are_probabilities():
    for preset in (q.TwoPoint(1.0, 2.0), q.TwoPoint(3.0, 1.0)):
        for c in preset.closed_forms():
            assert abs(c.weights.sum() - 1.0) < 1e-12


def test_closed_forms_fixed_under_conditional_step():
    # each closed-form QSD is a left fixed point of the grid conditional step
    cases = [
        (q.HouseOfCard(1.0, 1.0), 1.0),
        (q.IntervalBrownian(), 0.06),
    ]
    for preset, t0 in cases:
        chain = grid_generator(preset, 2000)
        m = killed_semigroup(chain, t0)
        (qsd,) = preset.closed_forms()
        w = qsd.density(chain.positions)
        w = w / w.sum()
        w_next = conditional_law_step(m, w)
        assert tv_finite(w, w_next) < 1e-3
    # finite chain: both two-point QSDs
    tp = q.TwoPoint(1.0, 2.0)
    m2 = killed_semigroup(tp.chain(), 1.0)
    for c in tp.closed_forms():
        assert tv_finite(c.weights, conditional_law_step(m2, c.weights)) < 1e-12


def test_degenerate_closed_forms_fixed_on_atom_grid():
    # the redraw model's singular and atom-carrying QSDs need the point {0}
    # kept as a state; the density-only vague-limit form at criticality is
    # checked through its density component
    for c, qexp in ((4.0, 0.5), (2.0, 0.5)):
        chain = q.HouseOfCard(c, qexp).chain(4000, zero_atom=True)
        x = chain.positions[1:]
        m = killed_semigroup(chain, 1.0)
        for f in q.HouseOfCard(c, qexp).closed_forms():
            if f.regime == "dirac_zero":
                continue
            cells = f.density(x) / x.size
            atom = f.atom_weight if f.atom is not None else 0.0
            vec = np.concatenate([[atom], cells])
            vec = vec / vec.sum()
            assert tv_finite(vec, conditional_law_step(m, vec)) < 1e-3


def test_preset_registry_and_validation():
    assert isinstance(q.build_preset("two_point", {"a": 1, "b": 2}), q.TwoPoint)
    with pytest.raises(KeyError):
        q.build_preset("no_such_model", {})
    with pytest.raises(ValueError):
        q.build_preset("two_point", {"a": 1})
    with pytest.raises(ValueError):
        q.TwoPoint(-1.0, 2.0)
    with pytest.raises(ValueError):
        q.BirthDeath(1.0, -2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        q.GrowthFrag(frac=1.5)
    with pytest.raises(ValueError):
        q.TorusDiffusion(dim=1, kill=("cosine", 1.0, 2.0)).model(0.1)
    # a family spec holds finite numbers, never booleans or strings
    for spec in ({"drift": math.nan}, {"drift": ("sine", "0.75")}, {"drift": True},
                 {"kill": True}, {"kill": ("cosine", "2", "1")}):
        with pytest.raises(ValueError):
            q.TorusDiffusion(dim=1, **spec)


# one small instance of every preset; the last three have no finite-chain
# oracle
_SMALL_PRESETS = (
    ("two_point", {"a": 1.0, "b": 2.0}),
    ("house_of_card", {"c": 1.0, "q": 1.0}),
    ("birth_death", {"b": 4.0, "d": 1.0, "b1": 1.0, "d1": 0.1, "truncation": 20}),
    ("torus_diffusion", {"drift": ["sine", 0.75], "kill": ["cosine", 1.0, 1.0]}),
    ("interval_brownian", {}),
    ("periodic_shift", {}),
    ("growth_frag", {}),
    ("torus_diffusion", {"dim": 2}),
)


def test_every_preset_answers_the_oracle(tmp_path):
    assert {name for name, _ in _SMALL_PRESETS} == set(PRESETS)
    for i, (name, params) in enumerate(_SMALL_PRESETS):
        preset = q.build_preset(name, params)
        unsupported = i >= 5
        if unsupported:
            with pytest.raises(UnsupportedModelError):
                grid_generator(preset, 32)
        else:
            assert isinstance(grid_generator(preset, 32), q.FiniteKilledChain)
        assert preset.horizon is None or (isinstance(preset.horizon, float)
                                          and preset.horizon > 0)
        closed = preset.closed_forms()
        assert isinstance(closed, tuple)
        assert all(isinstance(c, ClosedFormQsd) for c in closed)
        cfg = tmp_path / f"{i}.json"
        cfg.write_text(json.dumps({
            "mode": "oracle", "model": {"name": name, "params": params},
            "output_dir": str(tmp_path / f"out{i}"), "oracle": {"n_grid": 32}}))
        expect = EXIT_BAD_CONFIG if unsupported else EXIT_OK
        assert main(["oracle", "--config", str(cfg)]) == expect, name


def test_birth_death_criterion_arithmetic():
    bd = q.BirthDeath(4.0, 1.0, 1.0, 0.1)
    assert abs(bd.criterion_value() - 0.4) < 1e-12
    assert q.BirthDeath(1.2, 1.0, 1.0, 2.0).criterion_value() < 0


def test_gamma_validation():
    with pytest.raises(ValueError):
        q.IntervalBrownian().model(0.0)
    with pytest.raises(ValueError):
        q.IntervalBrownian().model(-0.1)
    # report.json would write a bool gamma as true
    with pytest.raises(ValueError, match="positive real"):
        q.IntervalBrownian().model(True)
