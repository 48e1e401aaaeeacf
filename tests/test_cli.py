import hashlib
import json
import math
import os
import signal
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

import qsdlab.cli
from qsdlab.cli import EXIT_BAD_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main
from qsdlab.config import ConfigError, parse_config
from qsdlab.metrics import fit_exponential_rate


# a child process imports the qsdlab of this process, installed or not
_SRC = os.path.dirname(os.path.dirname(qsdlab.__file__))
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_oracle_two_point_lists_both_qsds(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "mode": "oracle",
        "model": {"name": "two_point", "params": {"a": 1.0, "b": 2.0}},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
        "oracle": {"t0": 1.0, "survival_steps": 6},
    })
    assert main(["oracle", "--config", cfg]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "oracle.json").read_text())
    assert doc["primitive"] is False
    thetas = sorted(round(c["theta"], 6) for c in doc["qsds"])
    assert thetas == [1.0, 2.0]
    mix = [c for c in doc["qsds"] if abs(c["theta"] - 1.0) < 1e-6][0]
    np.testing.assert_allclose(mix["weights"], [0.5, 0.5], atol=1e-8)
    dirac = [c for c in doc["qsds"] if abs(c["theta"] - 2.0) < 1e-6][0]
    np.testing.assert_allclose(dirac["weights"], [1.0, 0.0], atol=1e-8)
    surv = doc["survival_from_qsd"]
    np.testing.assert_allclose(surv, np.exp(-np.arange(1, 7)), rtol=1e-9)
    assert (tmp_path / "out" / "qsd.csv").exists()


def test_empty_sweep_list_is_bad_config(tmp_path):
    out = tmp_path / "never"
    cfg = _write(tmp_path, "c.json", {
        "mode": "sweep",
        "model": {"name": "torus_diffusion", "params": {"dim": 1}},
        "output_dir": str(out),
        "sweep": {"gammas": [0.01], "n_particles": [], "horizons": [1.0]},
    })
    assert main(["sweep", "--config", cfg]) == EXIT_BAD_CONFIG
    assert not out.exists()


def test_unknown_key_and_preset_and_params(tmp_path):
    cfg = _write(tmp_path, "a.json", {"mode": "oracle", "mdoel": {}})
    assert main(["oracle", "--config", cfg]) == EXIT_BAD_CONFIG
    cfg = _write(tmp_path, "b.json", {
        "mode": "oracle", "model": {"name": "nope", "params": {}}})
    assert main(["oracle", "--config", cfg]) == EXIT_BAD_CONFIG
    cfg = _write(tmp_path, "c.json", {
        "mode": "oracle", "model": {"name": "two_point",
                                    "params": {"a": -1.0, "b": 2.0}}})
    assert main(["oracle", "--config", cfg]) == EXIT_BAD_CONFIG
    cfg = _write(tmp_path, "d.json", {
        "mode": "oracle", "model": {"name": "two_point",
                                    "params": {"a": 1.0, "b": 2.0}}})
    assert main(["simulate", "--config", cfg]) == EXIT_BAD_CONFIG  # mode mismatch
    # wrongly typed numbers fail as config errors, never as runtime errors
    simulate = {"mode": "simulate",
                "model": {"name": "interval_brownian", "params": {}},
                "output_dir": str(tmp_path / "never")}
    fv = {"n_particles": 8, "gamma": 0.01, "n_steps": 2}
    for i, (key, value) in enumerate((("gamma", "0.01"), ("gamma", math.nan),
                                      ("gamma", True), ("n_particles", 8.5),
                                      ("n_steps", "2"))):
        cfg = _write(tmp_path, f"fv{i}.json", {**simulate, "fv": {**fv, key: value}})
        assert main(["simulate", "--config", cfg]) == EXIT_BAD_CONFIG, (key, value)
    for i, seed in enumerate((True, 2 ** 64)):
        cfg = _write(tmp_path, f"seed{i}.json", {**simulate, "fv": fv, "seed": seed})
        assert main(["simulate", "--config", cfg]) == EXIT_BAD_CONFIG, seed
    cfg = _write(tmp_path, "sweep.json", {
        "mode": "sweep",
        "model": {"name": "torus_diffusion", "params": {"dim": 1}},
        "output_dir": str(tmp_path / "never"),
        "sweep": {"gammas": ["0.01"], "n_particles": [8], "horizons": [0.1]}})
    assert main(["sweep", "--config", cfg]) == EXIT_BAD_CONFIG
    # growth_frag runs on the particle engine like every other preset
    cfg = _write(tmp_path, "growth_frag.json", {
        **simulate, "model": {"name": "growth_frag", "params": {}}, "fv": fv,
        "output_dir": str(tmp_path / "growth_frag")})
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    # initial states outside the live space fail before the first step
    # instead of failing or spinning in it
    for i, (name, params, init) in enumerate((
            ("two_point", {"a": 1.0, "b": 2.0}, ["dirac", 5]),
            ("two_point", {"a": 1.0, "b": 2.0}, ["dirac", 0.5]),
            ("two_point", {"a": 1.0, "b": 2.0}, ["dirac", True]),
            ("interval_brownian", {}, ["dirac", 2.0]),
            ("interval_brownian", {}, ["dirac", 0.0]),
            ("interval_brownian", {}, "bogus"),
            # json reads Infinity; the half-line holds finite states only
            ("growth_frag", {"kill_rate": 0.5}, ["dirac", math.inf]))):
        cfg = _write(tmp_path, f"init{i}.json", {
            **simulate, "model": {"name": name, "params": params},
            "fv": {**fv, "init": init, "max_resurrection_iters": 10}})
        assert main(["simulate", "--config", cfg]) == EXIT_BAD_CONFIG, (name, init)
    # model parameters are checked against their preset's field types
    for i, (name, params) in enumerate((
            ("birth_death", {"b": 4.0, "d": 1.0, "b1": 1.0, "d1": 0.1,
                             "truncation": 8.5}),
            ("torus_diffusion", {"drift": math.nan}),
            ("torus_diffusion", {"kill": math.nan}),
            ("torus_diffusion", {"drift": ["sine", "0.75"]}),
            ("torus_diffusion", {"drift": True}))):
        mode = "oracle" if name == "birth_death" else "simulate"
        cfg = _write(tmp_path, f"params{i}.json", {
            **simulate, "mode": mode, "model": {"name": name, "params": params},
            "fv": {**fv, "max_resurrection_iters": 10}})
        assert main([mode, "--config", cfg]) == EXIT_BAD_CONFIG, (name, params)
    cfg = _write(tmp_path, "knob.json", {
        "mode": "oracle", "model": {"name": "two_point",
                                    "params": {"a": 1.0, "b": 2.0}},
        "output_dir": str(tmp_path / "never"),
        "oracle": {"conditional_iters": 5}})
    assert main(["oracle", "--config", cfg]) == EXIT_BAD_CONFIG
    # section values a library call would refuse, and the removed knobs
    # harris.family and sweep.oracle_t0, are config errors
    harris = {"mode": "harris",
              "model": {"name": "birth_death",
                        "params": {"b": 4.0, "d": 1.0, "b1": 1.0, "d1": 0.1,
                                   "truncation": 20}},
              "output_dir": str(tmp_path / "never")}
    sweep = {"mode": "sweep",
             "model": {"name": "torus_diffusion", "params": {"dim": 1}},
             "output_dir": str(tmp_path / "never"),
             "sweep": {"gammas": [0.05], "n_particles": [8],
                       "horizons": [0.1], "n_grid": 32}}
    for i, (mode, doc) in enumerate((
            ("harris", {**harris, "harris": {"q1_grid": []}}),
            ("harris", {**harris, "harris": {"k_fractions": []}}),
            ("harris", {**harris, "harris": {"q2_grid": [-0.5]}}),
            ("harris", {**harris, "harris": {"q1_grid": [0]}}),
            ("harris", {**harris, "harris": {"family": "bogus"}}),
            ("harris", {**harris, "harris": {"family": "geometric"}}),
            ("oracle", {**harris, "mode": "oracle",
                        "oracle": {"survival_steps": 0}}),
            ("sweep", {**sweep, "metrics": ["w1_instnt"]}),
            ("sweep", {**sweep, "sweep": {**sweep["sweep"], "oracle_t0": 1.0}}),
            # a repeated value would make the sweep's fits run on equal x
            ("sweep", {**sweep, "sweep": {**sweep["sweep"], "gammas": [0.05, 0.05]}}),
            ("sweep", {**sweep, "sweep": {**sweep["sweep"], "n_particles": [8, 8]}}),
            ("sweep", {**sweep, "sweep": {**sweep["sweep"], "horizons": [0.1, 0.1]}}),
            ("sweep", {**sweep, "model": {"name": "torus_diffusion",
                                          "params": {"dim": 1, "kill": ["cosine", 1, 1]}},
                       "sweep": {"gammas": [0.05] * 3, "n_particles": [8] * 3,
                                 "horizons": [0.5] * 3}}))):
        cfg = _write(tmp_path, f"section{i}.json", doc)
        assert main([mode, "--config", cfg]) == EXIT_BAD_CONFIG, doc
    # a preset an oracle-backed mode cannot use, and a Harris base whose
    # q**n over- or underflows on the chain, are config errors too; they are
    # found after the output directory is made, and the empty directory is
    # removed again
    bd400 = {**harris["model"],
             "params": {**harris["model"]["params"], "truncation": 400}}
    torus2 = {"name": "torus_diffusion", "params": {"dim": 2}}
    for i, (mode, doc) in enumerate((
            ("harris", {**harris, "model": bd400, "harris": {"q1_grid": [0.01]}}),
            ("harris", {**harris, "model": bd400, "harris": {"q1_grid": [10]}}),
            ("harris", {**harris, "model": bd400, "harris": {"q2_grid": [0.01]}}),
            ("oracle", {**harris, "mode": "oracle", "model": torus2}),
            ("harris", {**harris, "model": torus2}),
            ("sweep", {**sweep, "model": torus2}),
            ("sweep", {**sweep, "model": harris["model"]}),
            # round(0.1 / 0.5) = 0 steps
            ("sweep", {**sweep, "sweep": {**sweep["sweep"], "gammas": [0.5]}}),
            # 1.0 / 1e-320 steps is inf
            ("sweep", {**sweep, "sweep": {**sweep["sweep"], "gammas": [1e-320],
                                          "horizons": [1.0]}}),
            ("sweep", {**sweep, "model": {"name": "two_point",
                                          "params": {"a": 1.0, "b": 2.0}}}))):
        cfg = _write(tmp_path, f"refused{i}.json",
                     {**doc, "output_dir": str(tmp_path / "refused")})
        assert main([mode, "--config", cfg]) == EXIT_BAD_CONFIG, doc
        assert not (tmp_path / "refused").exists(), doc
    # --jobs is at least 1, and only sweep runs more than one job
    cfg = _write(tmp_path, "jobs_sweep.json", sweep)
    assert main(["sweep", "--config", cfg, "--jobs", "0"]) == EXIT_BAD_CONFIG
    for mode, doc in (("simulate", {**simulate, "fv": fv}),
                      ("oracle", {**harris, "mode": "oracle"}),
                      ("harris", harris)):
        cfg = _write(tmp_path, f"jobs_{mode}.json", doc)
        for jobs in ("0", "4"):
            assert main([mode, "--config", cfg, "--jobs", jobs]) == \
                EXIT_BAD_CONFIG, (mode, jobs)
    # --seed follows the config's seed rule, an integer in [0, 2**64), in
    # every mode: the stream keys take the seed modulo 2**64, so 2**64 would
    # rerun seed 0 under another name
    for mode, doc in (("simulate", {**simulate, "fv": fv}),
                      ("oracle", {**harris, "mode": "oracle"}),
                      ("harris", harris), ("sweep", sweep)):
        cfg = _write(tmp_path, f"seed_{mode}.json", doc)
        for seed in ("-1", str(2 ** 64)):
            assert main([mode, "--config", cfg, "--seed", seed]) == \
                EXIT_BAD_CONFIG, (mode, seed)
    for name in ("noncommutation", "a3_failure"):
        for seed in ("-1", str(2 ** 64)):
            assert main(["demo", "--name", name, "--seed", seed, "--output-dir",
                         str(tmp_path / "never")]) == EXIT_BAD_CONFIG, (name, seed)
    assert not (tmp_path / "never").exists()
    top = 2 ** 64 - 1
    for i, (seed, argv) in enumerate(((top, []), (0, ["--seed", str(top)]))):
        out = tmp_path / f"top{i}"
        cfg = _write(tmp_path, f"top{i}.json", {**simulate, "fv": fv, "seed": seed,
                                                "output_dir": str(out)})
        assert main(["simulate", "--config", cfg, *argv]) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["config"]["seed"] == top


def test_oracle_mode_needs_a_finite_chain_preset(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "mode": "oracle",
        "model": {"name": "periodic_shift", "params": {}},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["oracle", "--config", cfg]) == EXIT_BAD_CONFIG


_BD40 = {"name": "birth_death",
         "params": {"b": 4.0, "d": 1.0, "b1": 1.0, "d1": 0.1, "truncation": 40}}


def test_sweep_refuses_a_finite_preset_before_the_eigensolve(tmp_path, monkeypatch,
                                                             capsys):
    def refuse(chain, t0):
        raise AssertionError("the sweep solved the chain of a preset it refuses")

    monkeypatch.setattr(qsdlab.cli, "spectrum", refuse)
    cfg = _write(tmp_path, "c.json", {
        "mode": "sweep", "model": _BD40, "output_dir": str(tmp_path / "never"),
        "sweep": {"gammas": [0.1], "n_particles": [8], "horizons": [1.0]},
    })
    assert main(["sweep", "--config", cfg]) == EXIT_BAD_CONFIG
    assert "continuous preset" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", [1e-300, 1e-9])
def test_sweep_refuses_a_run_too_large_before_the_eigensolve(gamma, tmp_path,
                                                             monkeypatch, capsys):
    # 1e-300 asks for 1e300 steps, 1e-9 for an 8 GB deaths array
    def refuse(chain, t0):
        raise AssertionError("the sweep solved the chain of a run it refuses")

    monkeypatch.setattr(qsdlab.cli, "spectrum", refuse)
    cfg = _write(tmp_path, "c.json", {
        "mode": "sweep", "model": {"name": "torus_diffusion", "params": {"dim": 1}},
        "output_dir": str(tmp_path / "never"),
        "sweep": {"gammas": [0.1, gamma], "n_particles": [8], "horizons": [1.0],
                  "n_grid": 32},
    })
    assert main(["sweep", "--config", cfg]) == EXIT_BAD_CONFIG
    assert "GiB of deaths and snapshots" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_simulate_refuses_a_run_too_large_before_making_its_directory(tmp_path,
                                                                      capsys):
    cfg = _write(tmp_path, "c.json", {
        "mode": "simulate", "model": {"name": "torus_diffusion", "params": {}},
        "output_dir": str(tmp_path / "never"),
        "fv": {"n_particles": 8, "gamma": 0.1, "n_steps": 10 ** 13},
    })
    assert main(["simulate", "--config", cfg]) == EXIT_BAD_CONFIG
    assert "GiB of deaths and snapshots" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_sections_the_mode_never_reads_are_bad_config(tmp_path, capsys):
    two_point = {"name": "two_point", "params": {"a": 1.0, "b": 2.0}}
    fv = {"n_particles": 8, "gamma": 0.1, "n_steps": 2}
    sweep = {"gammas": [0.05], "n_particles": [8], "horizons": [0.1], "n_grid": 32}
    for i, (mode, doc) in enumerate((
            ("oracle", {"model": two_point, "harris": {"n_max": 3}, "fv": fv,
                        "sweep": sweep, "metrics": ["theta_hat"]}),
            ("simulate", {"model": two_point, "fv": fv, "oracle": {"n_grid": 32},
                          "metrics": ["theta_hat"]}),
            # the sweep's grid is sweep.n_grid; this one would be ignored
            ("sweep", {"model": {"name": "torus_diffusion", "params": {"dim": 1}},
                       "sweep": sweep, "oracle": {"n_grid": 32}}))):
        out = tmp_path / f"out{i}"
        cfg = _write(tmp_path, f"c{i}.json", {"mode": mode, "output_dir": str(out),
                                              **doc})
        assert main([mode, "--config", cfg]) == EXIT_BAD_CONFIG, doc
        assert "never reads" in capsys.readouterr().err
        assert not out.exists()
    # harris reads oracle.n_grid and no other oracle key; an empty section
    # sets nothing
    harris = {"mode": "harris", "model": two_point}
    for oracle in ({}, {"n_grid": 32}):
        parse_config({**harris, "oracle": oracle})
    with pytest.raises(ConfigError, match=r"never reads \['oracle.t0'\]"):
        parse_config({**harris, "oracle": {"n_grid": 32, "t0": 1.0}})


@pytest.mark.parametrize("mode, t0, model", [
    pytest.param("oracle", 1e308, _BD40, id="oracle-1e+308"),
    pytest.param("harris", 1e308, _BD40, id="harris-1e+308"),
    pytest.param("harris", 200.0, _BD40, id="harris-200.0"),
    # the default 2000-cell grid takes the generator path
    pytest.param("oracle", 1e308, {"name": "interval_brownian", "params": {}},
                 id="oracle-interval-1e+308"),
])
def test_horizon_too_long_to_uniformize_is_bad_config(mode, t0, model, tmp_path):
    # lambda * t0 = inf in the semigroup and in the generator eigensolve,
    # and 1000 in the hitting bound's Poisson weights, whose first term
    # exp(-1000) is not a normal float
    cfg = _write(tmp_path, "c.json", {
        "mode": mode,
        "model": model,
        "output_dir": str(tmp_path / "out"),
        mode: {"t0": t0},
    })
    proc = subprocess.run([sys.executable, "-m", "qsdlab.cli", mode,
                           "--config", cfg],
                          capture_output=True, text=True, timeout=5, env=_CHILD_ENV)
    assert proc.returncode == EXIT_BAD_CONFIG
    assert "t0" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_not_json_is_bad_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["oracle", "--config", str(path)]) == EXIT_BAD_CONFIG


def test_unwritable_output_dir_is_io_error(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    cfg = _write(tmp_path, "c.json", {
        "mode": "oracle",
        "model": {"name": "two_point", "params": {"a": 1.0, "b": 2.0}},
        "output_dir": str(blocked / "out"),
    })
    try:
        code = main(["oracle", "--config", cfg])
    finally:
        blocked.chmod(stat.S_IRWXU)
    if os.geteuid() == 0:
        pytest.skip("running as root: permission bits are not enforced")
    assert code == EXIT_IO


def test_output_dir_under_a_regular_file_is_io_error(tmp_path, capsys):
    # unlike permission bits, a file in the path blocks root as well
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = _write(tmp_path, "c.json", {
        "mode": "oracle",
        "model": {"name": "two_point", "params": {"a": 1.0, "b": 2.0}},
        "output_dir": str(blocker / "out"),
    })
    assert main(["oracle", "--config", cfg]) == EXIT_IO
    assert "Not a directory" in capsys.readouterr().err
    assert blocker.is_file()


def test_simulate_writes_report_and_snapshots(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "mode": "simulate",
        "model": {"name": "house_of_card", "params": {"c": 1.0, "q": 1.0}},
        "seed": 12,
        "output_dir": str(tmp_path / "sim"),
        "fv": {"n_particles": 64, "gamma": 0.02, "n_steps": 50,
               "snapshot_stride": 25},
    })
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    rep = json.loads((tmp_path / "sim" / "report.json").read_text())
    assert rep["snapshot_steps"] == [0, 25, 50]
    assert len(rep["deaths_per_step"]) == 50
    snaps = sorted((tmp_path / "sim" / "snapshots").iterdir())
    assert [p.name for p in snaps] == [
        "step_00000000.csv", "step_00000025.csv", "step_00000050.csv"]


def test_simulate_accepts_dirac_init(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "mode": "simulate",
        "model": {"name": "two_point", "params": {"a": 1.0, "b": 2.0}},
        "seed": 3,
        "output_dir": str(tmp_path / "sim"),
        "fv": {"n_particles": 16, "gamma": 0.1, "n_steps": 4,
               "snapshot_stride": 4, "init": ["dirac", 1]},
    })
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    first = (tmp_path / "sim" / "snapshots" / "step_00000000.csv").read_text()
    assert all(ln.endswith(",1") for ln in first.splitlines()[1:])


@pytest.mark.parametrize("name, params, gamma", [
    ("torus_diffusion", {"drift": 1e308}, 10),  # nan states
    ("growth_frag", {"growth": 700}, 1),  # inf states
])
def test_simulate_refuses_states_outside_the_space(name, params, gamma, tmp_path,
                                                   capsys):
    cfg = _write(tmp_path, "c.json", {
        "mode": "simulate",
        "model": {"name": name, "params": params},
        "output_dir": str(tmp_path / "sim"),
        "fv": {"n_particles": 8, "gamma": gamma, "n_steps": 4},
    })
    # the overflowing moves warn; any other warning would fail the test
    with pytest.warns(RuntimeWarning):
        assert main(["simulate", "--config", cfg]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "ModelEvaluationError" in err and "at step 4" in err
    assert not (tmp_path / "sim" / "report.json").exists()


def test_sweep_rows_carry_point_identity(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "mode": "sweep",
        "model": {"name": "torus_diffusion",
                  "params": {"dim": 1, "kill": 1.0}},
        "seed": 4,
        "output_dir": str(tmp_path / "sw"),
        "sweep": {"gammas": [0.05], "n_particles": [32, 64], "horizons": [2.0],
                  "n_seeds": 2, "n_grid": 64},
        "metrics": ["w1_timeavg", "theta_hat"],
    })
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# qsdlab-sweep-csv")
    header = lines[1].split(",")
    assert header == ["metric", "value", "stderr", "n", "gamma",
                      "n_particles", "horizon", "seed", "model_hash"]
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    assert len({r["model_hash"] for r in rows}) == 1
    assert {r["n_particles"] for r in rows} == {"32", "64"}
    assert len({r["seed"] for r in rows}) == 4  # 2 N values x 2 seeds


def test_oracle_json_includes_small_chain_payload(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "mode": "oracle",
        "model": {"name": "two_point", "params": {"a": 1.0, "b": 2.0}},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["oracle", "--config", cfg]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "oracle.json").read_text())
    chain = doc["chain"]
    assert chain["jump_rates"] == [[0.0, 0.0], [1.0, 0.0]]
    assert chain["kill_rates"] == [2.0, 0.0]
    assert chain["labels"] == ["dying", "transient"]


def test_oracle_on_a_large_sparse_grid_takes_the_generator_path(tmp_path):
    # 600 cells take the generator eigensolve and 64 the semigroup; both
    # write the same keys, except the chain itself, written up to 256 states
    docs = {}
    for n_grid, run in ((64, "a"), (600, "a"), (600, "b")):
        out = tmp_path / f"{n_grid}{run}"
        cfg = _write(tmp_path, f"c{n_grid}{run}.json", {
            "mode": "oracle",
            "model": {"name": "interval_brownian", "params": {}},
            "output_dir": str(out),
            "oracle": {"n_grid": n_grid},
        })
        assert main(["oracle", "--config", cfg]) == EXIT_OK
        docs[n_grid, run] = json.loads((out / "oracle.json").read_text())
    doc = docs[600, "a"]
    assert set(doc) == set(docs[64, "a"]) - {"chain"}
    assert set(doc["triplet"]) == set(docs[64, "a"]["triplet"])
    assert doc["n_states"] == 600 and doc["primitive"] is True
    trip = doc["triplet"]
    assert abs(trip["theta"] - math.pi ** 2 / 2) < 5e-3
    assert trip["converged"] is True
    n_surv = len(doc["survival_from_qsd"])
    np.testing.assert_array_equal(doc["survival_from_qsd"],
                                  trip["rho"] ** np.arange(1, n_surv + 1))
    for name in ("oracle.json", "qsd.csv"):
        assert (tmp_path / "600a" / name).read_bytes() == \
            (tmp_path / "600b" / name).read_bytes()


def test_sweep_summary_slope_in_band(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "mode": "sweep",
        "model": {"name": "torus_diffusion",
                  "params": {"dim": 1, "drift": ["sine", 0.75],
                             "kill": ["cosine", 1.0, 1.0]}},
        "seed": 99,
        "output_dir": str(tmp_path / "sw"),
        "sweep": {"gammas": [0.002], "n_particles": [64, 256, 1024],
                  "horizons": [4.0, 8.0], "n_seeds": 2, "n_grid": 1000},
        "metrics": ["w1_timeavg"],
    })
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    summary = json.loads((tmp_path / "sw" / "summary.json").read_text())
    assert -0.65 < summary["w1_vs_n"]["slope"] < -0.35
    assert summary["w1_vs_n"]["r2"] > 0.9


def test_sweep_reruns_are_byte_identical_across_jobs(tmp_path):
    # the second config writes all three summary fits; both outputs are
    # pinned byte for byte
    torus = {"name": "torus_diffusion", "params": {"dim": 1}}
    cases = (
        ({"model": {**torus, "params": {"dim": 1, "kill": ["cosine", 1.0, 1.0]}},
          "sweep": {"gammas": [0.05], "n_particles": [16, 32], "horizons": [1.0],
                    "n_seeds": 2, "n_grid": 64}},
         "13682bb436c47cf8492e0fcca3f30ad1f12568266dde59198eced1219456d4f5",
         "71a2558a861bfb9d1dc5f9902af538d587740423831be8fcd5f1333cd921adeb"),
        ({"model": {**torus, "params": {"dim": 1, "drift": ["sine", 0.75],
                                        "kill": ["cosine", 1.0, 1.0]}},
          "sweep": {"gammas": [0.02, 0.04, 0.08], "n_particles": [8, 16, 32],
                    "horizons": [0.4, 0.8, 1.2], "n_grid": 64}},
         "0a66fd84f01a65e8d47b27602e08d9c97e63370a6bd9d5b520566791573d3d53",
         "80dda5a83abb11382a1672c710fece7017672833939b51e3ad5a1178e12cc6d8"),
    )
    for i, (doc, csv_sha, summary_sha) in enumerate(cases):
        out = tmp_path / f"sw{i}"
        cfg = _write(tmp_path, f"c{i}.json", {"mode": "sweep", "seed": 8,
                                              "output_dir": str(out), **doc})
        for jobs in ("1", "3"):
            assert main(["sweep", "--config", cfg, "--jobs", jobs]) == EXIT_OK
            assert _sha256(out / "sweep.csv") == csv_sha, (i, jobs)
            assert _sha256(out / "summary.json") == summary_sha, (i, jobs)
    summary = json.loads((tmp_path / "sw1" / "summary.json").read_text())
    assert {"w1_vs_n", "w1_vs_gamma", "w1_vs_horizon"} <= set(summary)


def test_sweep_w1_vs_horizon_pairs_values_with_their_horizons(tmp_path):
    # at stride 50 the first horizon's window (steps 3..5) holds no
    # snapshot, so it has no row, and the fit must use the horizons of the
    # rows it has
    cfg = _write(tmp_path, "c.json", {
        "mode": "sweep",
        "model": {"name": "torus_diffusion",
                  "params": {"dim": 1, "drift": ["sine", 0.75],
                             "kill": ["cosine", 1.0, 1.0]}},
        "seed": 5,
        "output_dir": str(tmp_path / "sw"),
        "sweep": {"gammas": [0.01], "n_particles": [16],
                  "horizons": [0.05, 1.0, 2.0, 3.0], "snapshot_stride": 50,
                  "n_grid": 64},
        "metrics": ["w1_instant"],
    })
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    ts = [float(r["horizon"]) for r in rows]
    assert ts == [1.0, 2.0, 3.0]
    fit = fit_exponential_rate(ts, [float(r["value"]) for r in rows])
    summary = json.loads((tmp_path / "sw" / "summary.json").read_text())
    assert summary["w1_vs_horizon"]["rate"] == pytest.approx(fit.rate, rel=1e-12)
    assert summary["w1_vs_horizon"]["r2"] == pytest.approx(fit.r2, rel=1e-12)


def _sweep_rows(tmp_path, name, metrics):
    """The rows of sweep.csv, without the seed-independent columns, of a
    small torus sweep that computes only ``metrics``."""
    cfg = _write(tmp_path, f"{name}.json", {
        "mode": "sweep",
        "model": {"name": "torus_diffusion",
                  "params": {"dim": 1, "drift": ["sine", 0.75],
                             "kill": ["cosine", 1.0, 1.0]}},
        "seed": 6,
        "output_dir": str(tmp_path / name),
        "sweep": {"gammas": [0.02, 0.05], "n_particles": [8, 16],
                  "horizons": [0.5, 1.0], "n_seeds": 2, "n_grid": 64},
        "metrics": metrics,
    })
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    return (tmp_path / name / "sweep.csv").read_text().splitlines()[2:]


def test_theta_only_sweep_computes_no_distance(tmp_path, monkeypatch):
    def refuse(rows, ref):
        raise AssertionError("a theta_hat sweep computed a W1 distance")

    monkeypatch.setattr(qsdlab.cli, "w1_rows", refuse)
    rows = _sweep_rows(tmp_path, "theta", ["theta_hat"])
    assert rows and all(r.startswith("theta_hat,") for r in rows)


def test_instant_only_sweep_reads_each_windows_last_snapshot(tmp_path, monkeypatch):
    full = _sweep_rows(tmp_path, "full", ["w1_timeavg", "w1_instant", "w1_pooled",
                                          "theta_hat"])
    shapes, w1_rows = [], qsdlab.cli.w1_rows

    def counted(rows, ref):
        shapes.append(np.shape(rows))
        return w1_rows(rows, ref)

    monkeypatch.setattr(qsdlab.cli, "w1_rows", counted)
    instant = _sweep_rows(tmp_path, "instant", ["w1_instant"])
    assert instant == [r for r in full if r.startswith("w1_instant,")]
    # one call per point, one row per horizon
    assert shapes == [(2, n) for n in (8, 8, 16, 16) * 2]


def test_ctrl_c_stops_a_one_job_sweep(tmp_path):
    # at --jobs 1 the batch runs in the main thread, which takes the
    # interrupt at once; the run alone takes about 40 s on a 2-CPU Xeon VM
    out = tmp_path / "sw"
    cfg = _write(tmp_path, "c.json", {
        "mode": "sweep", "model": {"name": "torus_diffusion", "params": {"dim": 1}},
        "output_dir": str(out),
        "sweep": {"gammas": [0.001], "n_particles": [4096], "horizons": [150.0],
                  "n_grid": 64},
        "metrics": ["theta_hat"],
    })
    proc = subprocess.Popen([sys.executable, "-m", "qsdlab.cli", "sweep",
                             "--config", cfg], env=_CHILD_ENV,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not out.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(1.0)
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=10)
    finally:
        proc.kill()
        proc.wait()


def test_harris_mode_emits_certificate(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "mode": "harris",
        "model": {"name": "birth_death",
                  "params": {"b": 4.0, "d": 1.0, "b1": 1.0, "d1": 0.1,
                             "truncation": 60}},
        "output_dir": str(tmp_path / "h"),
    })
    assert main(["harris", "--config", cfg]) == EXIT_OK
    doc = json.loads((tmp_path / "h" / "certificate.json").read_text())
    cert = doc["certificate"]
    assert cert["all_pass"] is True
    assert cert["beta"] > cert["alpha"] > 0
    assert doc["conclusion"]["bounds_hold"] is True
    assert doc["irreducibility"]["pass"] is True


def test_harris_on_a_reducible_chain_writes_its_reducibility(tmp_path):
    # on two_point (2, 1) the certificate passes with K = both states, but M
    # is not primitive: there is no Perron triplet to conclude from
    model = {"name": "two_point", "params": {"a": 2.0, "b": 1.0}}
    cfg = _write(tmp_path, "c.json", {"mode": "harris", "model": model,
                                      "output_dir": str(tmp_path / "h")})
    assert main(["harris", "--config", cfg]) == EXIT_OK
    doc = json.loads((tmp_path / "h" / "certificate.json").read_text())
    assert doc["certificate"]["all_pass"] is True
    assert doc["irreducibility"]["epsilon"] == 0.0
    assert "conclusion" not in doc
    cfg = _write(tmp_path, "o.json", {"mode": "oracle", "model": model,
                                      "output_dir": str(tmp_path / "o")})
    assert main(["oracle", "--config", cfg]) == EXIT_OK
    oracle = json.loads((tmp_path / "o" / "oracle.json").read_text())
    assert doc["reducibility"] == oracle["reducibility"]
    assert doc["reducibility"].startswith("not primitive")


def test_demo_noncommutation_emits_ordering_table(noncommutation_demo):
    code, out = noncommutation_demo()
    assert code == EXIT_OK
    lines = (out / "noncommutation.csv").read_text().splitlines()
    assert lines[0] == "n_particles,steps,time,mean_transient_mass"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 9
    table = {(int(r[0]), int(r[1])): float(r[3]) for r in rows}
    # the two iterated limits disagree: long time at small N dies out,
    # large N at any time keeps mass near the mixture weight
    assert table[(2, 2000)] < 0.1
    assert table[(256, 2000)] > 0.3
    # both data files are pinned byte for byte at the default seed
    assert _sha256(out / "noncommutation.csv") == \
        "41cd38d22917727deed0fb1e170ed0b6455fa644a34e2d20fa4e0109f88cc4f1"
    assert _sha256(out / "noncommutation.json") == \
        "e45e11873946c7a69b5955d59110fd7583b096270f587383457c90aadcc63ac9"


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("QSDLAB_OUTPUT_DIR", str(tmp_path / "envout"))
    cfg = _write(tmp_path, "c.json", {
        "mode": "oracle",
        "model": {"name": "two_point", "params": {"a": 1.0, "b": 2.0}},
    })
    assert main(["oracle", "--config", cfg]) == EXIT_OK
    assert (tmp_path / "envout" / "oracle.json").exists()


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "qsdlab.cli", "--help"],
                          capture_output=True, text=True, env=_CHILD_ENV)
    assert proc.returncode == 0
    assert "exit codes" in proc.stdout
    for mode in ("simulate", "oracle", "harris", "sweep", "demo"):
        assert mode in proc.stdout


def test_help_lists_exactly_the_accepted_keys(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    layout = text.split("config file layout")[1].split("\n\n")[0]
    listed = [ln.split()[0] for ln in layout.splitlines() if ln.startswith("  ")]
    assert listed == [
        "mode", "model.name", "model.params", "seed", "output_dir",
        "fv.n_particles", "fv.gamma", "fv.n_steps", "fv.snapshot_stride",
        "fv.max_resurrection_iters", "fv.init",
        "oracle.n_grid", "oracle.t0", "oracle.survival_steps",
        "harris.t0", "harris.q1_grid", "harris.q2_grid", "harris.k_fractions",
        "harris.n_max",
        "sweep.gammas", "sweep.n_particles", "sweep.horizons", "sweep.n_seeds",
        "sweep.burn_fraction", "sweep.snapshot_stride", "sweep.n_grid",
        "metrics"]
    # every listed key is accepted, and a key next to them is not
    for dotted in listed + ["fv.bogus", "bogus"]:
        *outer, key = dotted.split(".")
        doc = {"mode": "oracle", "model": {"name": "two_point"}}
        section = doc
        for part in outer:
            section = section.setdefault(part, {})
        section.setdefault(key, None)
        try:
            parse_config(doc)
        except ConfigError as exc:
            assert ("unknown key" in str(exc)) == ("bogus" in dotted), exc
        else:
            assert "bogus" not in dotted
