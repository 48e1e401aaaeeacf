import hashlib
import json
import math

import numpy as np
import pytest
import scipy.linalg

import qsdlab as q
import qsdlab.fv
from qsdlab import substream
from qsdlab._kernels import replica_layout
from qsdlab.fv import (
    FVConfig,
    _advance,
    check_batch_size,
    fv_step_reference,
    init_states,
    q_mu_step,
    run_fv,
    run_fv_batch,
    write_csv,
    write_json,
    write_report,
)
from qsdlab.metrics import (
    EmpiricalMeasure,
    sliced_w1_torus,
    tv_finite,
    tv_hist,
    w1_circle,
)
from qsdlab.models import ModelEvaluationError, kill_prob, propose


def _one_step(model, states, seed, step_index):
    """Advance the one replica ``states`` by step ``step_index`` in place;
    returns its deaths."""
    return next(_advance(model, states, [seed], replica_layout([len(states)]),
                         step_index + 1, 1, 1_000_000))


class _StubStream:
    """Scripted stream for forcing specific kill decisions."""

    def __init__(self, uniforms, normals):
        self._u = list(uniforms)
        self._z = list(normals)

    def u01(self):
        return self._u.pop(0)

    def normal(self):
        return self._z.pop(0)

    def pick(self, n):
        return min(int(self.u01() * n), n - 1)

    def poisson(self, mean):
        return 0


def _torus(gamma, drift=None, kill=None):
    return q.TorusDiffusion(dim=1, drift=drift, kill=kill).model(gamma)


# ---------------------------------------------------------------------------
# single-particle resampling kernel
# ---------------------------------------------------------------------------

def test_no_killing_returns_plain_proposal():
    model = _torus(0.01, drift=0.5)
    source = np.full((1, 1), np.nan)  # any draw from it would poison the state
    out, deaths = q_mu_step(model, np.array([0.3]), source, substream(1, 1, 0))
    expect = propose(model, np.array([0.3]), substream(1, 1, 0))
    assert deaths == 0
    assert np.array_equal(out, expect)


def test_forced_top_uniform_always_survives():
    model = _torus(0.5, kill=5.0)
    p = kill_prob(model, np.array([0.5]))
    assert p < 1.0
    rng = _StubStream(uniforms=[1.0], normals=[0.7])
    out, deaths = q_mu_step(model, np.array([0.2]), np.zeros((1, 1)), rng)
    assert deaths == 0
    expect = 0.2 + 0.5 * 0.0 + math.sqrt(0.5) * 0.7
    assert abs(out[0] - expect % 1.0) < 1e-15


def test_death_then_resurrection_consumes_source():
    model = q.IntervalBrownian().model(0.0001)
    source = np.array([[0.5]])
    rng = _StubStream(uniforms=[0.0, 0.9, 0.5], normals=[0.0, 0.1])
    out, deaths = q_mu_step(model, np.array([1.5]), source, rng)
    assert deaths == 1
    assert abs(out[0] - (0.5 + math.sqrt(0.0001) * 0.1)) < 1e-15


def test_resurrection_overflow_raises():
    model = q.IntervalBrownian().model(1e-6)
    source = np.array([[2.0]])  # source support outside the living domain
    with pytest.raises(q.ResurrectionOverflowError) as err:
        q_mu_step(model, np.array([5.0]), source, substream(0, 1, 0),
                  max_iters=8)
    assert err.value.iterations == 8


def test_two_point_output_law_matches_enumeration():
    # closed-form analysis of the propose/kill/resurrect tree from the
    # transient state with a point source at the transient state
    tp = q.TwoPoint(1.0, 2.0)
    gamma = 0.5
    chain = tp.chain()
    model = tp.model(gamma)
    t_cons = scipy.linalg.expm(gamma * chain.conservative_generator().toarray())
    survive = np.exp(-gamma * chain.kill_rates)
    land = t_cons[1] * survive          # P(land j and survive) from transient
    q_die = 1.0 - land.sum()
    expect = land / (1.0 - q_die)       # geometric resurrection from transient

    n = 1_000_000
    states = np.full(n, 1, dtype=np.int64)
    _one_step(model, states, 2024, 0)
    freq = np.bincount(states, minlength=2) / n
    assert tv_finite(freq, expect) < 1e-3
    # depth-12 truncation of the tree bounds the enumeration error itself
    assert q_die ** 12 < 1e-3


def test_two_point_pair_law_matches_enumeration():
    tp = q.TwoPoint(1.0, 2.0)
    gamma = 0.5
    chain = tp.chain()
    model = tp.model(gamma)
    t_cons = scipy.linalg.expm(gamma * chain.conservative_generator().toarray())
    survive = np.exp(-gamma * chain.kill_rates)
    land = t_cons[1] * survive
    single = land / land.sum()
    expect = np.outer(single, single).ravel()  # independent given the source

    # one batch of 100,000 two-particle replicas, replica r with seed r
    runs = 100_000
    states = np.ones(2 * runs, dtype=np.int64)
    next(_advance(model, states, np.arange(runs), replica_layout([2] * runs),
                  sid0=1, n_steps=1, max_iters=10 ** 6))
    pairs = states.reshape(runs, 2)
    freq = np.bincount(2 * pairs[:, 0] + pairs[:, 1], minlength=4) / runs
    se = np.sqrt(expect * (1 - expect) / runs)
    assert np.all(np.abs(freq - expect) <= 3 * se + 1e-4)


# ---------------------------------------------------------------------------
# one synchronous step
# ---------------------------------------------------------------------------

def test_single_particle_resurrects_from_itself():
    model = q.IntervalBrownian().model(0.01)
    states = np.array([[0.5]])
    _one_step(model, states, 5, 0)
    assert states.shape[0] == 1
    assert 0.0 < states[0, 0] < 1.0
    ref, deaths = fv_step_reference(model, np.array([[0.5]]), 5, 0)
    assert np.array_equal(states, ref)


def test_population_size_conserved():
    model = _torus(0.05, kill=3.0)
    states = init_states(model, 300, 7)
    for step_index in range(5):
        _one_step(model, states, 7, step_index)
        assert states.shape[0] == 300
        assert np.all(np.isfinite(states))


def test_kernel_matches_reference_step():
    cases = [
        (_torus(0.05, drift=("sine", 0.75), kill=("cosine", 1.0, 1.0)), "gauss"),
        (q.IntervalBrownian().model(0.02), "hard"),
        (q.HouseOfCard(1.0, 1.0).model(0.3), "redraw"),
        (q.TwoPoint(1.0, 2.0).model(0.4), "finite"),
        (q.BirthDeath(1.0, 2.0, 1.0, 0.5, truncation=20).model(0.8), "finite_20"),
        (q.TorusDiffusion(dim=2, kill=0.8).model(0.05), "gauss_d2"),
        (q.GrowthFrag(growth=1.0, frac=0.5, jump_rate=2.0,
                      kill_rate=1.5).model(0.1), "growth_frag"),
    ]
    for model, tag in cases:
        states = init_states(model, 200, 11)
        out = states.copy()
        out_deaths = _one_step(model, out, 11, 3)
        ref, deaths = fv_step_reference(model, states, 11, 3)
        assert np.array_equal(out, ref), tag
        assert out_deaths == deaths, tag
        if tag == "growth_frag":
            assert deaths > 0  # the resurrection path is compared too


def test_permuting_labels_and_streams_commutes():
    model = _torus(0.05, drift=("sine", 0.75), kill=("cosine", 2.0, 2.0))
    rng = np.random.default_rng(21)
    states = init_states(model, 64, 13)
    ids = np.arange(64)
    perm = rng.permutation(64)
    out_a, d_a = fv_step_reference(model, states, 13, 0, stream_ids=ids)
    out_b, d_b = fv_step_reference(model, states[perm], 13, 0,
                                   stream_ids=ids[perm])
    assert np.array_equal(out_b, out_a[perm])
    assert d_a == d_b


def test_permutation_commutes_for_finite_chain():
    model = q.TwoPoint(1.0, 2.0).model(0.3)
    rng = np.random.default_rng(22)
    states = init_states(model, 50, 14)
    perm = rng.permutation(50)
    out_a, _ = fv_step_reference(model, states, 14, 2)
    out_b, _ = fv_step_reference(model, states[perm], 14, 2,
                                 stream_ids=np.arange(50)[perm])
    assert np.array_equal(out_b, out_a[perm])


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

def test_replay_is_bitwise_identical():
    model = _torus(0.02, drift=("sine", 0.5), kill=("cosine", 1.0, 0.5))
    cfg = FVConfig(n_particles=128, n_steps=60, seed=77, snapshot_stride=13)
    a = run_fv(model, cfg)
    b = run_fv(model, cfg)
    assert np.array_equal(a.deaths, b.deaths)
    assert np.array_equal(a.final_states, b.final_states)
    for (sa, arra), (sb, arrb) in zip(a.snapshots, b.snapshots):
        assert sa == sb and np.array_equal(arra, arrb)


def test_snapshot_stride_does_not_change_trajectory():
    model = q.HouseOfCard(1.0, 1.0).model(0.05)
    a = run_fv(model, FVConfig(n_particles=64, n_steps=90, seed=5,
                               snapshot_stride=7))
    b = run_fv(model, FVConfig(n_particles=64, n_steps=90, seed=5,
                               snapshot_stride=90))
    assert np.array_equal(a.final_states, b.final_states)
    assert np.array_equal(a.deaths, b.deaths)
    # a stride that does not divide the run still snapshots its last step
    assert [s for s, _ in a.snapshots] == [*range(0, 90, 7), 90]
    assert [s for s, _ in b.snapshots] == [0, 90]
    c = run_fv(model, FVConfig(n_particles=64, n_steps=0, seed=5,
                               snapshot_stride=7))
    assert [s for s, _ in c.snapshots] == [0]


def test_distinct_seeds_distinct_paths_same_law():
    model = _torus(0.01)
    w1s = []
    uniform = EmpiricalMeasure((np.arange(4096) + 0.5) / 4096)
    finals = []
    for seed in (1, 2):
        rep = run_fv(model, FVConfig(n_particles=2048, n_steps=3000,
                                     seed=seed, snapshot_stride=300))
        pooled = np.concatenate([s[:, 0] for st, s in rep.snapshots if st >= 900])
        w1s.append(w1_circle(EmpiricalMeasure(pooled), uniform))
        finals.append(rep.final_states)
    assert not np.array_equal(finals[0], finals[1])
    assert abs(w1s[0] - w1s[1]) < 2 * max(w1s)


def test_pure_diffusion_time_average_is_uniform():
    model = _torus(0.01)
    rep = run_fv(model, FVConfig(n_particles=4096, n_steps=10_000, seed=3,
                                 snapshot_stride=100))
    pooled = np.concatenate([s[:, 0] for st, s in rep.snapshots if st > 1000])
    a = EmpiricalMeasure(pooled)
    b = EmpiricalMeasure((np.arange(8192) + 0.5) / 8192)
    est, _ = sliced_w1_torus(a, b, 1, substream(0, 0, 0))
    assert est <= 0.01


def test_unkilled_particle_marginal_matches_single_chain():
    # with no killing the system is independent copies of the proposal chain
    model = _torus(0.04, drift=("sine", 0.75))
    n_rep, n_steps = 10_000, 10

    # run r of 8 particles has seed r, all of them in one batch
    reps = run_fv_batch(model, [FVConfig(n_particles=8, n_steps=n_steps, seed=r,
                                         max_resurrection_iters=100)
                                for r in range(n_rep)])
    marg = np.array([rep.final_states[0, 0] for rep in reps])
    single = np.empty(n_rep)
    for r in range(n_rep):
        x = init_states(model, 8, r)[0]
        rngs = [substream(r, s + 1, 0) for s in range(n_steps)]
        for rng in rngs:
            x = propose(model, x, rng)
        single[r] = x[0]
    tv = tv_hist(marg, single, bins=50)
    # bootstrap scale for the TV between two 50-bin histograms of equal laws
    boot = np.random.default_rng(0)
    pooled = np.concatenate([marg, single])
    ref = [tv_hist(boot.choice(pooled, n_rep), boot.choice(pooled, n_rep),
                   bins=50) for _ in range(60)]
    assert tv <= np.mean(ref) + 3 * np.std(ref)


def test_two_torus_constant_kill_keeps_uniform_law():
    # constant killing commutes with conditioning, so the stationary
    # empirical measure stays uniform on the 2-torus
    model = q.TorusDiffusion(dim=2, kill=1.0).model(0.02)
    rep = run_fv(model, FVConfig(n_particles=2048, n_steps=2000, seed=6,
                                 snapshot_stride=100))
    pooled = np.concatenate([s for st, s in rep.snapshots if st > 500], axis=0)
    grid = (np.stack(np.meshgrid(np.arange(64), np.arange(64)), axis=-1)
            .reshape(-1, 2) + 0.5) / 64
    est, se = sliced_w1_torus(EmpiricalMeasure(pooled),
                              EmpiricalMeasure(grid), 32, substream(0, 0, 0))
    assert est < 0.01
    from qsdlab.metrics import estimate_theta

    assert abs(estimate_theta(rep, burn_in=100).value - 1.0) < 0.05


def test_kernel_path_overflow_is_annotated():
    # proposals of standard deviation 10 almost never land in (0.4, 0.6)
    model = q.KilledModel(name="narrow", space=q.Interval(),
                          gamma=100.0, move=q.GaussMove(),
                          kill=q.IntervalKill(0.4, 0.6))
    cfg = FVConfig(n_particles=8, n_steps=3, seed=1, snapshot_stride=1,
                   max_resurrection_iters=5)
    with pytest.raises(q.ResurrectionOverflowError) as err:
        run_fv(model, cfg, init=("dirac", 0.5))
    assert err.value.step == 0
    assert 0 <= err.value.particle < 8
    assert err.value.iterations == 5


def test_config_validation():
    with pytest.raises(ValueError):
        FVConfig(n_particles=0, n_steps=1, seed=0)
    with pytest.raises(ValueError):
        FVConfig(n_particles=1, n_steps=-1, seed=0)
    with pytest.raises(ValueError):
        FVConfig(n_particles=1, n_steps=1, seed=0, snapshot_stride=0)
    # the stream keys take the seed modulo 2**64
    with pytest.raises(ValueError):
        FVConfig(n_particles=1, n_steps=1, seed=2 ** 64)
    assert FVConfig(n_particles=1, n_steps=1, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    # every count is an integer, and a boolean is not one
    for field in ("n_particles", "n_steps", "seed", "snapshot_stride",
                  "max_resurrection_iters"):
        for bad in (1.5, 2.0, True, "3", None):
            with pytest.raises(ValueError, match=field):
                FVConfig(**{"n_particles": 1, "n_steps": 1, "seed": 0, field: bad})
    # numpy integers stay valid and are kept as plain ints
    cfg = FVConfig(n_particles=np.int32(4), n_steps=np.uint8(2),
                   seed=np.uint64(2 ** 64 - 1))
    assert (cfg.n_particles, cfg.n_steps, cfg.seed) == (4, 2, 2 ** 64 - 1)
    assert all(type(v) is int for v in (cfg.n_particles, cfg.n_steps, cfg.seed))


def test_dirac_and_array_inits():
    model = _torus(0.01)
    arr = init_states(model, 5, 0, init=("dirac", 0.25))
    assert np.all(arr == 0.25)
    with pytest.raises(ValueError):
        init_states(model, 3, 0, init="bogus")
    # a Dirac state must lie where a particle of the model can live
    with pytest.raises(ValueError):
        init_states(q.IntervalBrownian().model(0.01), 3, 0, init=("dirac", 1.0))
    with pytest.raises(ValueError):
        init_states(q.TwoPoint(1.0, 2.0).model(0.1), 3, 0, init=("dirac", 2))


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

# sha256 of report.json and of each snapshot CSV: a 1-D float run, a 2-D
# float run and a finite-chain run, whose snapshots hold integer states
_REPORT_PINS = {
    "house_of_card": (
        lambda: q.HouseOfCard(1.0, 1.0).model(0.05), 32, 40, 20, {
            "report.json": "d61d66dc489b5426acf7eb82db63670865bc751ed824cb077e1b5bfce5f6a592",
            "step_00000000.csv": "49defc4af496a55916bd07b806cf3e1122c46171851ea8564cc2edba4ae86b94",
            "step_00000020.csv": "95eb3fcdf6b35233b3b9fa95c5e19ed31ad6c4c5cb7f5305ed0c1a92bcdab518",
            "step_00000040.csv": "ad21973b13d975073799b1bfcb39a5a494a7fcaec7be80c59789c4f47e41600c"}),
    "torus_2d": (
        lambda: q.TorusDiffusion(dim=2, drift=0.5, kill=0.8).model(0.05), 16, 30, 10, {
            "report.json": "7209958b4f8e130117b4aa692ee785539eb557ea72f9a729e24f783c86de6b05",
            "step_00000000.csv": "d54a54fa253d9f32f2aca4e51764d4649e813369558755ac1ca8820458e015b1",
            "step_00000010.csv": "0692666de0354f77bf6cb382eb8230555d81df5657481d92f17fdbf1fea46f25",
            "step_00000020.csv": "3f899705e390d24a19882f1a49d875359507fb51c52b318df65cb161fed52f28",
            "step_00000030.csv": "c85fa215df5f6349905d1c5a5949046ba661f5caa482c30b10b7a064f9fc831e"}),
    "birth_death": (
        lambda: q.BirthDeath(1.0, 2.0, 1.0, 0.5, truncation=20).model(0.1), 32, 40, 20, {
            "report.json": "345a22bcf883a683d223e7e8eb2f51a03c5ec1c812ed7d935e2766daa3c45da7",
            "step_00000000.csv": "0456e4c9974b640994549510af354b8631fffa15faf8a6bce899663e265f79ec",
            "step_00000020.csv": "9591a9d6e512522a28c2197755598d27138c68230869dd8eecf40b2b97c8eb44",
            "step_00000040.csv": "941745ec22b4e37d5cc0a28288303279e27f074d79cc56eda7050e68f489d5f3"}),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_batch_reports_hold_its_model_and_their_own_configs(monkeypatch):
    model = _torus(0.05, kill=1.0)
    calls = []
    describe = q.KilledModel.describe

    def counted(self):
        calls.append(self)
        return describe(self)

    monkeypatch.setattr(q.KilledModel, "describe", counted)
    configs = [FVConfig(n_particles=n, n_steps=3, seed=s)
               for s, n in enumerate((4, 4, 6))]
    reps = run_fv_batch(model, configs)
    assert calls == []  # report.json's model block is built by write_report
    assert all(rep.model is model for rep in reps)
    assert all(rep.config is c for rep, c in zip(reps, configs))


@pytest.mark.parametrize("model, first", [
    # x + 10 * 1e308 is inf, and wrapping inf onto the torus gives nan
    (q.TorusDiffusion(drift=1e308).model(10.0), 1),
    # x * exp(700) per step passes the largest float in the second step
    (q.GrowthFrag(growth=700.0).model(1.0), 2),
], ids=["torus_nan", "halfline_inf"])
def test_run_refuses_states_outside_the_space(model, first):
    # the overflowing moves warn; any other warning would fail the test
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ModelEvaluationError, match=f"outside .* at step {first}$"):
            run_fv(model, FVConfig(n_particles=8, n_steps=5, seed=1, snapshot_stride=1))
        # the snapshot after the step where the states leave the space refuses
        # them
        with pytest.raises(ModelEvaluationError, match="at step 5$"):
            run_fv(model, FVConfig(n_particles=8, n_steps=5, seed=1,
                                   snapshot_stride=10))


def test_batch_size_is_deaths_plus_snapshots(monkeypatch):
    # 2 replicas of 3 + 5 particles in 2 dimensions, 10 steps at stride 4:
    # 10 x 2 deaths and (10 // 4 + 2) x 8 x 2 coordinates, 8 bytes each
    model = q.TorusDiffusion(dim=2).model(0.1)
    configs = [FVConfig(n_particles=n, n_steps=10, seed=s, snapshot_stride=4)
               for s, n in enumerate((3, 5))]
    planned = 8 * (10 * 2 + 4 * 8 * 2)
    monkeypatch.setattr(qsdlab.fv, "MAX_BATCH_BYTES", planned)
    check_batch_size(model, configs)
    monkeypatch.setattr(qsdlab.fv, "MAX_BATCH_BYTES", planned - 1)
    with pytest.raises(ValueError, match="MAX_BATCH_BYTES"):
        check_batch_size(model, configs)
    with pytest.raises(ValueError, match="MAX_BATCH_BYTES"):
        run_fv_batch(model, configs)


def test_run_refuses_a_run_too_large_to_hold():
    # 10**13 steps plan 80 TB of deaths; the run fails before allocating them
    model = q.TorusDiffusion().model(0.1)
    with pytest.raises(ValueError, match="GiB of deaths and snapshots"):
        run_fv(model, FVConfig(n_particles=8, n_steps=10 ** 13, seed=1))


def test_write_csv_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="unequal"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2, 3], [4]])
    assert not (tmp_path / "bad.csv").exists()
    write_csv(tmp_path / "ok.csv", ["a", "b"], [[1, 2], [3.5, None]])
    assert (tmp_path / "ok.csv").read_text() == "a,b\n1,3.5\n2,\n"


def test_write_csv_refuses_a_header_of_another_length(tmp_path):
    for header in (["a"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="header"):
            write_csv(tmp_path / "bad.csv", header, [[1, 2], [3, 4]])
    assert not (tmp_path / "bad.csv").exists()


def test_write_json_writes_numpy_values_as_their_lists(tmp_path):
    write_json(tmp_path / "np.json", {
        "array": np.array([[0.1, 2.0], [3.0, -0.0]]), "int": np.int64(7),
        "float": np.float64(0.1), "bool": np.bool_(True), "f32": np.float32(0.5)})
    write_json(tmp_path / "plain.json", {
        "array": [[0.1, 2.0], [3.0, -0.0]], "int": 7, "float": 0.1, "bool": True,
        "f32": 0.5})
    assert (tmp_path / "np.json").read_text() == (tmp_path / "plain.json").read_text()
    with pytest.raises(TypeError, match="set"):
        write_json(tmp_path / "bad.json", {"set": {1, 2}})


def test_write_report_round_trip(tmp_path):
    model = q.HouseOfCard(1.0, 1.0).model(0.05)
    rep = run_fv(model, FVConfig(n_particles=32, n_steps=40, seed=9,
                                 snapshot_stride=20))
    files = write_report(rep, tmp_path)
    meta = json.loads((tmp_path / "report.json").read_text())
    assert meta["n_particles"] == 32
    assert meta["deaths_per_step"] == [int(v) for v in rep.deaths]
    assert meta["snapshot_steps"] == [0, 20, 40]
    csv = files[40].read_text().splitlines()
    assert csv[0] == "particle,x0"
    assert len(csv) == 33
    # byte determinism of the data files
    rep2 = run_fv(model, FVConfig(n_particles=32, n_steps=40, seed=9,
                                  snapshot_stride=20))
    out2 = tmp_path / "again"
    write_report(rep2, out2)
    assert (tmp_path / "report.json").read_text() == \
        (out2 / "report.json").read_text()
    assert files[40].read_text() == (out2 / "snapshots" / "step_00000040.csv").read_text()
    # every byte of the data files is pinned
    for name, (build, n, steps, stride, pins) in _REPORT_PINS.items():
        out = tmp_path / "pinned" / name
        files = write_report(run_fv(build(), FVConfig(
            n_particles=n, n_steps=steps, seed=9, snapshot_stride=stride)), out)
        assert sorted(files) == list(range(0, steps + 1, stride)), name
        got = {p.name: _sha256(p) for p in [out / "report.json", *files.values()]}
        assert got == pins, name
