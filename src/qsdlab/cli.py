"""Experiment runner: wires models to the engine, oracles and metrics.

Usage:  qsdlab <mode> --config <file> [--jobs k] [--seed s]

Modes
-----
simulate   run the particle system, write report.json + snapshot CSVs
oracle     exact QSDs, eigen-elements and survival curves, CSV + JSON
harris     drift/minorization certificate search, JSON
sweep      grid over (gamma, N, horizon, seed), CSV rows + fitted-rate summary
demo       built-in named experiments (noncommutation, a3_failure)

Each mode is one runner in ``_RUNNERS``.  Every data file goes through
``fv.write_json`` or ``fv.write_csv``.  ``sweep`` plans its run before the
oracle eigensolve (``_sweep_plan``: each gamma's model and the configs of
its points, every refusal of the sweep section raised there), then runs
the points of each gamma, of every ``n_particles``, as one batch of
replicas, in the calling thread at ``--jobs 1`` and on a pool of ``--jobs``
threads otherwise, and writes the rows in point order, so its files are the
same for every ``--jobs``.

Exit codes: 0 success, 2 bad config (includes unknown presets and invalid
parameters), 3 runtime failure, 4 unwritable output.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import itertools
import json
import math
import os
import pathlib
import sys
from dataclasses import fields, replace

import numpy as np

from . import _kernels as _k
from .config import (METRICS, MODES, SCHEMA, ConfigError, ExperimentConfig, layout,
                     load_config)
from .fv import (MAX_BATCH_BYTES, FVConfig, check_batch_size, run_fv, run_fv_batch,
                 write_csv, write_json, write_report)
from .harris import (
    ConclusionReport,
    LyapunovBaseError,
    check_irreducibility,
    search_lyapunov_pair,
    verify_conclusion,
)
from .metrics import (
    EmpiricalMeasure,
    estimate_theta,
    fit_exponential_rate,
    fit_power_law,
    w1_rows,
)
from .models import PRESETS, GrowthFrag, PeriodicShift, TwoPoint
from .oracle import (
    EigenTriplet,
    HorizonError,
    UnsupportedModelError,
    default_horizon,
    grid_generator,
    list_qsds,
    spectrum,
    survival_curve,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

CSV_SCHEMA = "qsdlab-sweep-csv v1"

_PRESET_FIELDS = "\n".join(f"  {name}({', '.join(f.name for f in fields(cls))})"
                           for name, cls in PRESETS.items())

_EPILOG = f"""\
exit codes:
  0  success
  2  bad config: parse error, unknown key or preset, invalid parameters,
     a section key the mode never reads (simulate reads fv, oracle reads
     oracle, harris reads harris and oracle.n_grid, sweep reads sweep and
     metrics), empty sweep lists or a value repeated in one, a sweep gamma
     that takes no step up to the last horizon, a run whose deaths and
     snapshots plan more than fv.MAX_BATCH_BYTES ({MAX_BATCH_BYTES / 2 ** 30:g} GiB),
     --jobs other than 1 outside sweep, --seed outside [0, 2**64)
  3  runtime failure during simulation or analysis
  4  output directory cannot be created or written

The default output root is $QSDLAB_OUTPUT_DIR, else ./qsdlab_out.

config file layout (a JSON object; a dotted key is a key of a nested object,
such as "fv": {{"gamma": 0.01}}; unknown keys are rejected; an absent key
takes its library default):
{layout()}

presets and their fields:
{_PRESET_FIELDS}
"""


def _model_hash(desc: dict) -> str:
    blob = json.dumps(desc, sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()[:12]


def _out_dir(cli_out, cfg_out=None) -> pathlib.Path:
    """``--output-dir``, else the config's ``output_dir``, else
    ``$QSDLAB_OUTPUT_DIR``, else ``./qsdlab_out``."""
    root = cli_out or cfg_out or os.environ.get("QSDLAB_OUTPUT_DIR") \
        or "qsdlab_out"
    return pathlib.Path(root)


def _prepare_dir(path: pathlib.Path) -> bool:
    """Make ``path`` writable; returns whether this call created it."""
    created = not path.exists()
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise _IOFailure(f"output directory {path} is not writable: {exc}") from exc
    return created


class _IOFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# oracle helpers
# ---------------------------------------------------------------------------

def _chain_for(preset, section: dict):
    """The finite chain of ``preset``; a grid takes ``n_grid`` cells from the
    config section, if it sets them."""
    n_grid = {"n_grid": section["n_grid"]} if "n_grid" in section else {}
    return grid_generator(preset, **n_grid)


def _spectrum(preset, chain, section: dict):
    """``(t0, M, triplet)``: the section's ``t0`` (else the preset's
    horizon, else the chain's default) and ``oracle.spectrum(chain, t0)``,
    whose ``M`` is None on the generator path."""
    t0 = float(section.get("t0", preset.horizon or default_horizon(chain)))
    return (t0, *spectrum(chain, t0))


def _run_oracle(cfg: ExperimentConfig, out: pathlib.Path, jobs: int) -> None:
    preset = cfg.preset()
    chain = _chain_for(preset, cfg.oracle)
    t0, m, trip = _spectrum(preset, chain, cfg.oracle)
    comps = list_qsds(m, trip)
    payload = {
        "model": {"name": cfg.model_name, "params": cfg.model_params},
        "t0": t0,
        "n_states": chain.n_states,
        "primitive": isinstance(trip, EigenTriplet),
        "qsds": [{"theta": c.theta, "class_states": c.class_states, "weights": c.qsd}
                 for c in comps],
    }
    if isinstance(trip, EigenTriplet):
        # the triplet's fields; its t0 is the payload's
        payload["triplet"] = {k: v for k, v in vars(trip).items() if k != "t0"}
    else:
        payload["reducibility"] = str(trip)
    closed = preset.closed_forms()
    if closed:
        payload["closed_forms"] = [
            {"theta": c.theta, "regime": c.regime,
             "atom": c.atom, "atom_weight": c.atom_weight}
            for c in closed
        ]
    n_surv = cfg.oracle.get("survival_steps", 50)
    if comps:
        # started from the QSD, survival over k horizons is exactly rho**k
        surv = (trip.rho ** np.arange(1, n_surv + 1) if m is None
                else survival_curve(m, comps[0].qsd, n_surv))
        payload["survival_from_qsd"] = surv
    if chain.n_states <= 256:  # grids would dump megabytes of matrix
        payload["chain"] = chain.as_dict()
    write_json(out / "oracle.json", payload)
    none = [None] * chain.n_states
    write_csv(out / "qsd.csv",
              ["state", "position", "label"] + [f"qsd{i}" for i in range(len(comps))],
              [range(chain.n_states),
               none if chain.positions is None else chain.positions,
               none if chain.labels is None else chain.labels,
               *(c.qsd for c in comps)])


# ---------------------------------------------------------------------------
# harris mode
# ---------------------------------------------------------------------------

def _run_harris(cfg: ExperimentConfig, out: pathlib.Path, jobs: int) -> None:
    preset = cfg.preset()
    chain = _chain_for(preset, cfg.oracle)
    cert, m = search_lyapunov_pair(chain, **cfg.harris)
    payload = {"model": {"name": cfg.model_name, "params": cfg.model_params},
               "certificate": cert.as_dict()}
    eps, ok = check_irreducibility(chain, cert.K, cert.t0)
    payload["irreducibility"] = {"epsilon": eps, "pass": bool(ok),
                                 "t0": cert.t0}
    if cert.all_pass:
        rep = verify_conclusion(m, cert)
        if isinstance(rep, ConclusionReport):
            # the report's fields, its float keys q written as text
            payload["conclusion"] = dict(
                vars(rep), c1_by_q={str(k): v for k, v in rep.c1_by_q.items()})
        else:  # M is not primitive, so it has no Perron triplet
            payload["reducibility"] = str(rep)
    write_json(out / "certificate.json", payload)


# ---------------------------------------------------------------------------
# simulate mode
# ---------------------------------------------------------------------------

def _run_simulate(cfg: ExperimentConfig, out: pathlib.Path, jobs: int) -> None:
    model, config, init = cfg.simulation()
    write_report(run_fv(model, config, **init), out)


# ---------------------------------------------------------------------------
# sweep mode
# ---------------------------------------------------------------------------

def _oracle_measure(cfg: ExperimentConfig):
    preset = cfg.preset()
    chain = _chain_for(preset, cfg.sweep)
    if chain.space.circle is None:
        # particle positions are compared with the grid cells' positions;
        # refused before the eigensolve
        raise ConfigError(f"sweep needs a continuous preset with a grid "
                          f"oracle, and {cfg.model_name} has none")
    _, _, trip = _spectrum(preset, chain, cfg.sweep)
    if not isinstance(trip, EigenTriplet):
        raise RuntimeError(f"sweep oracle needs a primitive chain: {trip}")
    return EmpiricalMeasure(chain.positions, trip.gamma_left, space=chain.space)


def _sweep_plan(cfg: ExperimentConfig, horizons) -> list:
    """``(model, configs)`` of each gamma: its model and the ``FVConfig``s of
    its points, every ``n_particles`` times ``n_seeds``, point i (counted
    over the gammas) seeded ``derive_key(cfg.seed, i, 0) % 2**62``.  Every
    refusal that the sweep section alone can trigger is raised here; the
    preset's follow in ``_oracle_measure``, also before the eigensolve."""
    sw, preset = cfg.sweep, cfg.preset()
    seeds = (_k.derive_key(cfg.seed, i, 0) % (2 ** 62) for i in itertools.count())
    plan = []
    for gamma in map(float, sw["gammas"]):
        steps = max(horizons) / gamma
        if not (math.isfinite(steps) and round(steps) >= 1):
            raise ConfigError(f"sweep gamma {gamma!r} takes {steps!r} steps up to the "
                              f"last horizon, not a finite count of at least one")
        n_steps = round(steps)
        stride = sw.get("snapshot_stride", max(1, n_steps // 200))
        configs = [FVConfig(n_particles=n, n_steps=n_steps, seed=next(seeds),
                            snapshot_stride=stride)
                   for n in sw["n_particles"] for _ in range(sw.get("n_seeds", 1))]
        model = preset.model(gamma)
        try:
            check_batch_size(model, configs)
        except ValueError as exc:
            raise ConfigError(f"sweep gamma {gamma!r}: {exc}") from exc
        plan.append((model, configs))
    return plan


def _point_rows(report, windows, needed, oracle_m, wanted):
    """The metric rows ``(horizon, metric, value, stderr, count)`` of one
    sweep point's run, over its batch's windows.

    The W1 of every ``needed`` snapshot comes from one ``w1_rows`` call; the
    pooled distance of a window is one more call."""
    snaps = [arr[:, 0] for _, arr in report.snapshots]
    w1 = {}  # snapshot index -> its W1
    if needed:
        w1 = dict(zip(needed, w1_rows(np.stack([snaps[i] for i in needed]), oracle_m)))
    rows = []
    for t, burn, upto, idx in windows:
        if "w1_instant" in wanted:
            rows.append((t, "w1_instant", w1[idx[-1]], 0.0, snaps[idx[-1]].size))
        if "w1_timeavg" in wanted:
            ws = np.asarray([w1[i] for i in idx])
            se = float(ws.std(ddof=1) / math.sqrt(len(ws))) if len(ws) > 1 else 0.0
            rows.append((t, "w1_timeavg", float(ws.mean()), se, len(ws)))
        if "w1_pooled" in wanted:
            pooled = np.concatenate([snaps[i] for i in idx])
            rows.append((t, "w1_pooled", w1_rows(pooled[None], oracle_m)[0], 0.0,
                         pooled.size))
        if "theta_hat" in wanted:
            est = estimate_theta(replace(report, deaths=report.deaths[:upto]), burn)
            rows.append((t, "theta_hat", est.value, est.stderr, est.n_steps))
    return rows


def _run_sweep(cfg: ExperimentConfig, out: pathlib.Path, jobs: int) -> None:
    horizons = [float(t) for t in cfg.sweep["horizons"]]
    plan = _sweep_plan(cfg, horizons)
    oracle_m = _oracle_measure(cfg)
    burn_frac = float(cfg.sweep.get("burn_fraction", 0.5))
    wanted = cfg.metrics or METRICS

    def work(batch):
        # the replicas of a batch share their snapshot steps, so the windows
        # and the snapshots that the W1 metrics read are found once
        model, configs = batch
        reports = run_fv_batch(model, configs)
        steps = [s for s, _ in reports[0].snapshots]
        windows = []  # (horizon, burn, upto, snapshot indices of its window)
        for t in horizons:
            upto = int(round(t / model.gamma))
            burn = int(burn_frac * upto)
            idx = [i for i, s in enumerate(steps) if burn < s <= upto]
            if idx:  # a window without snapshots has no rows
                windows.append((t, burn, upto, idx))
        needed = set()
        for *_, idx in windows:
            if "w1_timeavg" in wanted:
                needed.update(idx)
            elif "w1_instant" in wanted:
                needed.add(idx[-1])
        needed = sorted(needed)
        return [_point_rows(rep, windows, needed, oracle_m, wanted) for rep in reports]

    # at --jobs 1 the batches run in this thread, so Ctrl-C stops them at
    # once; else on a pool, in any order.  The results come back in plan
    # order, which is point order, so the files are the same for every --jobs
    if jobs == 1:
        results = list(map(work, plan))
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(work, plan))
    mhash = _model_hash({"name": cfg.model_name, "params": cfg.model_params})
    rows, table = [], {}  # table: (metric, gamma, n, horizon) -> values by seed
    for (model, configs), batch_rows in zip(plan, results):
        for c, point_rows in zip(configs, batch_rows):
            point = (model.gamma, c.n_particles)
            for t, name, value, stderr, count in point_rows:
                rows.append((name, value, stderr, count, *point, t, c.seed, mhash))
                table.setdefault((name, *point, t), []).append(value)
    write_csv(out / "sweep.csv",
              ["metric", "value", "stderr", "n", "gamma", "n_particles",
               "horizon", "seed", "model_hash"], zip(*rows), comment=CSV_SCHEMA)

    def means(name, keys):  # name's mean over seeds at each key that has rows
        return {k: float(np.mean(table[(name, *k)])) for k in keys
                if (name, *k) in table}

    gammas, ns = [model.gamma for model, _ in plan], cfg.sweep["n_particles"]
    g0, n_big, t_last = gammas[0], max(ns), max(horizons)
    summary = {"model_hash": mhash, "n_points": sum(len(c) for _, c in plan)}
    # fluctuation rate: time-averaged distance against N at the last horizon
    vals = list(means("w1_timeavg", [(g0, n, t_last) for n in ns]).values())
    if len(ns) >= 3 and len(vals) == len(ns):
        fit = fit_power_law(ns, vals)
        summary["w1_vs_n"] = {"slope": fit.slope, "r2": fit.r2, "gamma": g0,
                              "values": vals, "n_particles": ns}
    # step-size bias: pooled distance against gamma at the largest N
    vals = list(means("w1_pooled", [(g, n_big, t_last) for g in gammas]).values())
    if len(gammas) >= 3 and len(vals) == len(gammas):
        fit = fit_power_law(gammas, vals)
        summary["w1_vs_gamma"] = {"slope": fit.slope, "r2": fit.r2,
                                  "n_particles": n_big, "values": vals,
                                  "gammas": gammas}
    # relaxation: instantaneous distance against horizon at the largest point;
    # a horizon whose window holds no snapshot has no row
    found = means("w1_instant", [(g0, n_big, t) for t in horizons])
    ts, vals = [t for *_, t in found], list(found.values())
    if len(vals) >= 3 and all(v > 0 for v in vals):
        fit = fit_exponential_rate(ts, vals)
        summary["w1_vs_horizon"] = {"rate": fit.rate, "r2": fit.r2}
    write_json(out / "summary.json", summary)


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

def _demo_noncommutation(out: pathlib.Path, seed: int) -> None:
    """Particle mass on the transient state for several (N, steps) orders.

    For the two-state chain with the kill rate exceeding the jump rate, the
    large-N limit at fixed time keeps mass on the transient state while the
    long-time limit at fixed N is absorbed at the dying state, so the two
    limits do not commute.  Output is descriptive.
    """
    tp = TwoPoint(1.0, 2.0)
    gamma = 0.1
    model = tp.model(gamma)
    replicates = 48
    sizes, step_counts = (2, 16, 256), (20, 200, 2000)
    mass = {}  # (n, steps) -> summed transient mass of its replicates
    for steps in step_counts:
        # the replicates of every n at one step count run as one batch
        reports = iter(run_fv_batch(
            model, [FVConfig(n_particles=n, n_steps=steps,
                             seed=_k.derive_key(seed, n * 100003 + steps, r)
                             % (2 ** 62), snapshot_stride=steps)
                    for n in sizes for r in range(replicates)],
            init=("dirac", TwoPoint.TRANSIENT)))
        for n in sizes:
            total = 0.0
            for _, rep in zip(range(replicates), reports):
                total += float(np.mean(rep.final_states == TwoPoint.TRANSIENT))
            mass[n, steps] = total
    rows = [{"n_particles": n, "steps": steps, "time": steps * gamma,
             "mean_transient_mass": mass[n, steps] / replicates}
            for n in sizes for steps in step_counts]
    header = ["n_particles", "steps", "time", "mean_transient_mass"]
    write_csv(out / "noncommutation.csv", header,
              [[r[key] for r in rows] for key in header])
    write_json(out / "noncommutation.json",
               {"replicates": replicates, "gamma": gamma,
                "limit_mass_large_n": 0.5, "rows": rows})


def _demo_a3_failure(out: pathlib.Path, seed: int) -> None:
    """Dirac initial laws stay supported on finitely many points.

    The rotation model moves a point mass deterministically, and the
    growth/fragmentation model reaches at most n+1 values after n steps, so
    neither can satisfy a minorization by a fixed measure with a density.
    """
    n_steps, n_particles = 60, 512
    shift = PeriodicShift().model(0.05)
    gf = GrowthFrag(growth=1.0, frac=0.5, jump_rate=1.0).model(0.05)
    results = {}
    for name, model, x0 in (("periodic_shift", shift, 0.25),
                            ("growth_frag", gf, 1.0)):
        rep = run_fv(model, FVConfig(n_particles=n_particles, n_steps=n_steps,
                                     seed=seed, snapshot_stride=1),
                     init=("dirac", x0))
        counts = [int(np.unique(np.round(arr[:, 0], 12)).size)
                  for _, arr in rep.snapshots[1:]]
        results[name] = {"distinct_support_per_step": counts,
                         "bound": [s + 1 for s in range(1, n_steps + 1)]}
    write_json(out / "a3_failure.json", results)


_DEMOS = {"noncommutation": _demo_noncommutation, "a3_failure": _demo_a3_failure}

# mode -> runner(cfg, out, jobs), one per entry of config.MODES; every mode
# takes --jobs, and only sweep runs more than one job
_RUNNERS = {"simulate": _run_simulate, "oracle": _run_oracle,
            "harris": _run_harris, "sweep": _run_sweep}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qsdlab",
        description=__doc__.split("\n\n")[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output-dir", default=None)
    pd = sub.add_parser("demo")
    pd.add_argument("--name", required=True, choices=sorted(_DEMOS))
    pd.add_argument("--seed", type=int, default=2024)
    pd.add_argument("--output-dir", default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    made = None  # the output directory, if this call created it
    try:
        (seed_ok, seed_rule), _ = SCHEMA["seed"]  # the config's seed rule
        if args.seed is not None and not seed_ok(args.seed):
            raise ConfigError(f"--seed must be {seed_rule}, got {args.seed}")
        if args.mode == "demo":
            out = _out_dir(args.output_dir)
            _prepare_dir(out)
            _DEMOS[args.name](out, args.seed)
            print(f"demo {args.name}: wrote {out}")
            return EXIT_OK
        if args.jobs != 1 and (args.jobs < 1 or args.mode != "sweep"):
            raise ConfigError(f"--jobs must be 1 for {args.mode} and at least "
                              f"1 for sweep, got {args.jobs}")
        cfg = load_config(args.config)
        if cfg.mode != args.mode:
            raise ConfigError(f"config mode {cfg.mode!r} does not match "
                              f"command {args.mode!r}")
        if args.seed is not None:
            cfg.seed = args.seed
        out = _out_dir(args.output_dir, cfg.output_dir)
        made = out if _prepare_dir(out) else None
        _RUNNERS[args.mode](cfg, out, args.jobs)
        print(f"{args.mode}: wrote {out}")
        return EXIT_OK
    except (ConfigError, UnsupportedModelError, LyapunovBaseError,
            HorizonError) as exc:
        # also a preset the oracle has no grid for, a Harris base whose q**n
        # the chain cannot represent, or a t0 too long to uniformize
        print(f"qsdlab: bad config: {exc}", file=sys.stderr)
        if made is not None:
            with contextlib.suppress(OSError):
                made.rmdir()  # fails unless the directory is still empty
        return EXIT_BAD_CONFIG
    except _IOFailure as exc:
        print(f"qsdlab: io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # runtime failures get a distinct code
        print(f"qsdlab: runtime error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
