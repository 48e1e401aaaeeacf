"""The benchmark's workloads: the qsdlab CLI calls each one makes, and the
checks that every call's output is correct.

Each workload is fixed by its model, regime and particle count.  The
``--seed`` of the benchmark feeds ``--seed`` of ``simulate`` and ``sweep``;
``oracle`` and ``harris`` are deterministic and take no seed.  ``tiny``
shrinks every call so the harness can test itself in seconds; the benchmark
itself always runs the full size.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 11
# a seed kept out of tuning, so a claim made on DEFAULT_SEED can be re-checked
HELD_OUT_SEED = 1009

DIRICHLET_THETA = math.pi ** 2 / 2.0  # extinction rate of Brownian motion on (0, 1)
THETA_REL_TOL = 5e-3                  # the bounds of acceptance criterion C3
W1_TOL = 1e-3


@dataclass(frozen=True)
class Call:
    """One ``qsdlab <mode>`` call: a label, the mode and its config document."""

    label: str
    mode: str
    config: dict
    seeded: bool = False

    def argv(self, config_path, out_dir, seed: int) -> list:
        argv = [self.mode, "--config", str(config_path), "--jobs", "1",
                "--output-dir", str(out_dir)]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv


@dataclass
class CallCheck:
    """Outcome of checking one call's output directory."""

    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)   # file -> sha256, compared exactly
    counts: dict = field(default_factory=dict)    # exact counts read from outputs
    values: dict = field(default_factory=dict)    # checked values (theta error, W1)

    @property
    def ok(self) -> bool:
        return not self.problems


def sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------

def _simulate(label, name, params, n, gamma, steps, stride) -> Call:
    return Call(label, "simulate", {
        "mode": "simulate",
        "model": {"name": name, "params": params},
        "fv": {"n_particles": n, "gamma": gamma, "n_steps": steps,
               "snapshot_stride": stride},
    }, seeded=True)


def _simulate_calls(tiny: bool) -> list:
    n = 64 if tiny else 4096
    scale = 20 if tiny else 1  # tiny runs 1/20 of the steps
    return [
        # hard killing at a small step: deaths on about 98 % of steps
        _simulate("interval_brownian", "interval_brownian", {}, n, 2e-4,
                  3000 // scale, 300 // scale),
        _simulate("house_of_card", "house_of_card", {"c": 1.0, "q": 1.0}, n,
                  0.01, 2000 // scale, 200 // scale),
        _simulate("birth_death", "birth_death",
                  {"b": 1.0, "d": 2.0, "b1": 1.0, "d1": 0.5, "truncation": 40},
                  n, 0.1, 250 // scale, 25 // scale),
    ]


def _sweep_calls(tiny: bool) -> list:
    sweep = ({"gammas": [0.01], "n_particles": [8, 16], "horizons": [0.2, 0.4],
              "n_seeds": 2, "n_grid": 64} if tiny else
             {"gammas": [0.01], "n_particles": [16, 64, 256],
              "horizons": [2.0, 4.0], "n_seeds": 8, "n_grid": 256})
    return [Call("torus_diffusion", "sweep", {
        "mode": "sweep",
        "model": {"name": "torus_diffusion",
                  "params": {"dim": 1, "drift": ["sine", 0.75],
                             "kill": ["cosine", 1.0, 1.0]}},
        "sweep": sweep,
        "metrics": ["w1_timeavg", "w1_instant", "w1_pooled", "theta_hat"],
    }, seeded=True)]


def _oracle_calls(tiny: bool) -> list:
    return [Call("interval_brownian", "oracle", {
        "mode": "oracle",
        "model": {"name": "interval_brownian", "params": {}},
        "oracle": {"n_grid": 600 if tiny else 2000},
    })]


def _harris_calls(tiny: bool) -> list:
    return [Call("birth_death", "harris", {
        "mode": "harris",
        "model": {"name": "birth_death",
                  "params": {"b": 4.0, "d": 1.0, "b1": 1.0, "d1": 0.1,
                             "truncation": 60 if tiny else 400}},
    })]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_simulate(call: Call, out: pathlib.Path) -> CallCheck:
    fv = call.config["fv"]
    n, steps = fv["n_particles"], fv["n_steps"]
    chk = CallCheck()
    report = json.loads((out / "report.json").read_text())
    final = out / "snapshots" / f"step_{steps:08d}.csv"
    if report.get("n_particles") != n:
        chk.problems.append(f"report.json n_particles {report.get('n_particles')} != {n}")
    deaths = report.get("deaths_per_step", [])
    if len(deaths) != steps:
        chk.problems.append(f"report.json has {len(deaths)} death counts, want {steps}")
    if not final.is_file():
        chk.problems.append(f"missing final snapshot {final.name}")
    elif len(final.read_text().splitlines()) != n + 1:
        chk.problems.append(f"{final.name} does not hold {n} particles")
    else:
        chk.digests["final_snapshot"] = sha256(final)
    chk.digests["report.json"] = sha256(out / "report.json")
    chk.counts = {"particle_steps": n * steps, "deaths": int(sum(deaths))}
    return chk


def _check_sweep(call: Call, out: pathlib.Path) -> CallCheck:
    sw = call.config["sweep"]
    n_points = len(sw["gammas"]) * len(sw["n_particles"]) * sw["n_seeds"]
    chk = CallCheck()
    rows = (out / "sweep.csv").read_text().splitlines()
    want = 2 + n_points * len(sw["horizons"]) * len(call.config["metrics"])
    if len(rows) != want:
        chk.problems.append(f"sweep.csv has {len(rows)} lines, want {want}")
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("n_points") != n_points:
        chk.problems.append(f"summary.json n_points {summary.get('n_points')} != {n_points}")
    chk.digests = {"sweep.csv": sha256(out / "sweep.csv"),
                   "summary.json": sha256(out / "summary.json")}
    # every point runs round(max horizon / gamma) steps
    steps = sum(round(max(sw["horizons"]) / g) for g in sw["gammas"])
    chk.counts = {"particle_steps": steps * sum(sw["n_particles"]) * sw["n_seeds"]}
    return chk


def _w1_to_sine_density(positions, weights) -> float:
    """W1 on (0, 1) between atoms and the density (pi/2) sin(pi x).

    Integrates |F_atoms - F| on a fine uniform grid; the CDF of the density
    is (1 - cos(pi x)) / 2.
    """
    import numpy as np

    order = np.argsort(positions)
    pos = np.asarray(positions, dtype=float)[order]
    cdf_atoms = np.cumsum(np.asarray(weights, dtype=float)[order])
    cdf_atoms /= cdf_atoms[-1]
    x = np.linspace(0.0, 1.0, 400_001)
    idx = np.searchsorted(pos, x, side="right")
    f_atoms = np.where(idx > 0, cdf_atoms[np.maximum(idx - 1, 0)], 0.0)
    diff = np.abs(f_atoms - 0.5 * (1.0 - np.cos(np.pi * x)))
    return float(np.sum(0.5 * (diff[1:] + diff[:-1])) * (x[1] - x[0]))


def _check_oracle(call: Call, out: pathlib.Path) -> CallCheck:
    chk = CallCheck()
    doc = json.loads((out / "oracle.json").read_text())
    theta = doc["triplet"]["theta"]
    err = abs(theta - DIRICHLET_THETA) / DIRICHLET_THETA
    lines = (out / "qsd.csv").read_text().splitlines()[1:]
    rows = [ln.split(",") for ln in lines]
    w1 = _w1_to_sine_density([float(r[1]) for r in rows],
                             [float(r[3]) for r in rows])
    if not err < THETA_REL_TOL:
        chk.problems.append(f"theta_rel_err {err:.3g} >= {THETA_REL_TOL}")
    if not w1 < W1_TOL:
        chk.problems.append(f"W1(qsd, sine density) {w1:.3g} >= {W1_TOL}")
    chk.values = {"theta_rel_err": err, "w1_qsd": w1}
    chk.counts = {"n_states": doc["n_states"],
                  "perron_iterations": doc["triplet"]["iterations"]}
    return chk


def _check_harris(call: Call, out: pathlib.Path) -> CallCheck:
    chk = CallCheck()
    doc = json.loads((out / "certificate.json").read_text())
    flags = {"certificate.all_pass": doc["certificate"]["all_pass"],
             "conclusion.bounds_hold": doc.get("conclusion", {}).get("bounds_hold"),
             "irreducibility.pass": doc["irreducibility"]["pass"]}
    chk.problems = [f"{k} is {v}" for k, v in flags.items() if v is not True]
    chk.counts = {"certificate_states": len(doc["certificate"]["V"])}
    return chk


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: Callable[[bool], list]           # tiny -> the calls of one repetition
    check_outputs: Callable[[Call, pathlib.Path], CallCheck]

    def check(self, call: Call, out: pathlib.Path, golden: dict) -> CallCheck:
        """Check one call's outputs, and its digests against ``golden``."""
        try:
            chk = self.check_outputs(call, out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return CallCheck(problems=[f"unreadable output: {exc!r}"])
        for key, want in golden.items():
            got = chk.digests.get(key)
            if got != want:
                chk.problems.append(f"{key} sha256 {got} != golden {want}")
        return chk


WORKLOADS = {w.name: w for w in (
    Workload("simulate_large_n",
             "three simulate calls at N=4096, one per engine kernel: large "
             "arrays make per-element kernel and RNG cost set the time",
             _simulate_calls, _check_simulate),
    Workload("sweep_small_n",
             "24 short torus runs at N<=256 plus W1 against the oracle: "
             "dispatch-bound, about half the steps have no death",
             _sweep_calls, _check_sweep),
    Workload("oracle_grid",
             "exact interval reference on a 2000-point grid: the dense "
             "semigroup sets time and memory, no particles",
             _oracle_calls, _check_oracle),
    Workload("harris_birth_death",
             "Harris certificate search on a 400-state birth-death chain: "
             "small dense semigroup at a long horizon, 320 checks",
             _harris_calls, _check_harris),
)}
