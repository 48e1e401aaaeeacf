"""End-to-end benchmark of the qsdlab CLI, with a per-layer traced run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Each repetition of a workload runs its ``qsdlab`` calls (see
``workloads.py``), each in a fresh Python process as users run them, with
``--jobs 1`` and the default OpenBLAS threading, and checks every output.
Repetitions fill ``--seconds``, at least two of them.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median over
repetitions of the summed ``cli.main`` time of the calls), ``setup_s``
(median over every call and a few import-only probes of process start to
the first ``cli.main`` call) and ``peak_rss_mb`` (largest peak RSS of any
process).  ``--trace 1`` spends half the time on untraced repetitions and
half on traced ones, whose children wrap qsdlab functions with timers
(``tracing.py``), and reports the per-layer metrics plus
``trace.overhead_frac``.

Human-readable lines come first, then one ``report:`` line with run facts,
exact counts, checksums and quartiles, and last the one-line JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from workloads import DEFAULT_SEED, WORKLOADS, Call, CallCheck

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"

MIN_REPS = 2
N_PROBES = 4          # extra set-up samples per run, besides one per call
HARD_LIMIT_S = 160.0  # stop starting calls here; a run must end within 180 s

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


# ---------------------------------------------------------------------------
# per-layer metrics, computed from the merged trace of one repetition
# ---------------------------------------------------------------------------

class Layers:
    """Read access to a merged trace: spans, counters and missing targets."""

    def __init__(self, trace: dict):
        self.spans = trace["spans"]
        self.counts = trace["counts"]
        self.missing = set(trace["missing"].values())
        self.output_bytes = trace["output_bytes"]

    def s(self, name):
        return self.spans.get(name, {}).get("s", 0.0)

    def self_s(self, name):
        return self.spans.get(name, {}).get("self_s", 0.0)

    def calls(self, name):
        return self.spans.get(name, {}).get("calls", 0)

    def count(self, key):
        return self.counts.get(key, 0)

    def kernel_total(self, what):
        return sum(self.count(f"kernels.step_{k}.{what}")
                   for k in ("gauss", "redraw", "finite"))


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


KERNELS = ("kernels.step_gauss", "kernels.step_redraw", "kernels.step_finite")
RNG = "kernels.rng"

# (name, unit, spans it needs, value from Layers)
PER_LAYER = [
    *[(f"{k}.ns_per_particle_step", "ns", (k,),
       lambda t, k=k: _ratio(t.s(k), t.count(k + ".particle_steps"), 1e9))
      for k in KERNELS],
    ("kernels.rng.ns_per_draw", "ns", (RNG,),
     lambda t: _ratio(t.s(RNG), t.count(RNG + ".draws"), 1e9)),
    ("kernels.rng.draws_per_particle_step", "ratio", (RNG,) + KERNELS,
     lambda t: _ratio(t.count(RNG + ".draws"), t.kernel_total("particle_steps"))),
    ("kernels.step_gauss.calls", "count", (KERNELS[0],),
     lambda t: t.calls(KERNELS[0])),
    ("kernels.step_gauss.us_per_call", "us", (KERNELS[0],),
     lambda t: _ratio(t.s(KERNELS[0]), t.calls(KERNELS[0]), 1e6)),
    ("fv.sorted_source.calls", "count", ("fv.sorted_source",),
     lambda t: t.calls("fv.sorted_source")),
    ("fv.sorted_source.s", "s", ("fv.sorted_source",),
     lambda t: t.s("fv.sorted_source")),
    ("fv.steps_with_death_frac", "ratio", KERNELS,
     lambda t: _ratio(t.kernel_total("steps_with_death"),
                      sum(t.calls(k) for k in KERNELS))),
    ("fv.deaths_per_particle_step", "ratio", KERNELS,
     lambda t: _ratio(t.kernel_total("deaths"), t.kernel_total("particle_steps"))),
    ("fv.init_states.s", "s", ("fv.init_states",), lambda t: t.s("fv.init_states")),
    ("fv.run_fv.self_s", "s", ("fv.run_fv",), lambda t: t.self_s("fv.run_fv")),
    ("fv.write_report.s", "s", ("fv.write_report",), lambda t: t.s("fv.write_report")),
    ("fv.write_report.bytes", "B", ("fv.write_report",),
     lambda t: t.count("fv.write_report.bytes")),
    ("metrics.w1_circle.calls", "count", ("metrics.w1_circle",),
     lambda t: t.calls("metrics.w1_circle")),
    ("metrics.w1_circle.s", "s", ("metrics.w1_circle",),
     lambda t: t.s("metrics.w1_circle")),
    ("metrics.estimate_theta.s", "s", ("metrics.estimate_theta",),
     lambda t: t.s("metrics.estimate_theta")),
    ("oracle.grid_generator.s", "s", ("oracle.grid_generator",),
     lambda t: t.s("oracle.grid_generator")),
    ("oracle.killed_semigroup.calls", "count", ("oracle.killed_semigroup",),
     lambda t: t.calls("oracle.killed_semigroup")),
    ("oracle.killed_semigroup.s", "s", ("oracle.killed_semigroup",),
     lambda t: t.s("oracle.killed_semigroup")),
    ("oracle.perron_triplet.calls", "count", ("oracle.perron_triplet",),
     lambda t: t.calls("oracle.perron_triplet")),
    ("oracle.perron_triplet.s", "s", ("oracle.perron_triplet",),
     lambda t: t.s("oracle.perron_triplet")),
    ("oracle.perron_triplet.iterations", "count", ("oracle.perron_triplet",),
     lambda t: t.count("oracle.perron_triplet.iterations")),
    ("oracle.list_qsds.self_s", "s", ("oracle.list_qsds",),
     lambda t: t.self_s("oracle.list_qsds")),
    ("oracle.survival_curve.s", "s", ("oracle.survival_curve",),
     lambda t: t.s("oracle.survival_curve")),
    # n_states**2 * 8 bytes per semigroup built: computed, not measured
    ("oracle.dense_matrix_bytes", "B", ("oracle.killed_semigroup",),
     lambda t: t.count("oracle.killed_semigroup.dense_matrix_bytes")),
    ("harris.search_lyapunov_pair.self_s", "s", ("harris.search_lyapunov_pair",),
     lambda t: t.self_s("harris.search_lyapunov_pair")),
    ("harris.check_assumptions.calls", "count", ("harris.check_assumptions",),
     lambda t: t.calls("harris.check_assumptions")),
    ("harris.check_assumptions.s", "s", ("harris.check_assumptions",),
     lambda t: t.s("harris.check_assumptions")),
    ("harris.check_assumptions.all_pass_frac", "ratio", ("harris.check_assumptions",),
     lambda t: _ratio(t.count("harris.check_assumptions.all_pass"),
                      t.calls("harris.check_assumptions"))),
    ("harris.check_irreducibility.s", "s", ("harris.check_irreducibility",),
     lambda t: t.s("harris.check_irreducibility")),
    ("harris.verify_conclusion.s", "s", ("harris.verify_conclusion",),
     lambda t: t.s("harris.verify_conclusion")),
    ("config.load_config.s", "s", ("config.load_config",),
     lambda t: t.s("config.load_config")),
    ("cli.self_s", "s", (), lambda t: t.self_s("cli.main")),
    ("cli.output_bytes", "B", (), lambda t: t.output_bytes),
]
OVERHEAD = ("trace.overhead_frac", "ratio")


def layer_metrics(trace: dict) -> tuple:
    """Per-layer values of one merged trace, and the names that are missing."""
    t = Layers(trace)
    values, missing = {}, []
    for name, _, needs, fn in PER_LAYER:
        if t.missing.intersection(needs):
            missing.append(name)
            values[name] = 0.0
        else:
            values[name] = fn(t)
    return values, missing


def merge_traces(traces: list, output_bytes: int) -> dict:
    spans, counts, missing = {}, {}, {}
    for tr in traces:
        for name, agg in tr["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += agg[key]
        for key, v in tr["counts"].items():
            counts[key] = counts.get(key, 0) + v
        missing.update(tr["missing"])
    return {"spans": spans, "counts": counts, "missing": missing,
            "output_bytes": output_bytes}


# ---------------------------------------------------------------------------
# running calls
# ---------------------------------------------------------------------------

@dataclass
class CallResult:
    label: str
    ok: bool
    setup_s: float = 0.0
    main_s: float = 0.0
    maxrss_kb: int = 0
    problems: list = field(default_factory=list)
    check: CallCheck | None = None
    output_bytes: dict = field(default_factory=dict)
    trace: dict | None = None
    backend: str | None = None


def _output_bytes(out: pathlib.Path) -> dict:
    """Bytes per output file; snapshot CSVs are summed under one key."""
    sizes = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            rel = path.relative_to(out).as_posix()
            key = "snapshots/step_*.csv" if rel.startswith("snapshots/") else rel
            sizes[key] = sizes.get(key, 0) + path.stat().st_size
    return sizes


class Runner:
    """Runs one workload's calls in child processes inside a work directory."""

    def __init__(self, workload, seed: int, src: pathlib.Path, tiny: bool,
                 golden: dict, work: pathlib.Path, deadline: float):
        """``golden`` maps call labels to the digests their outputs must have."""
        self.workload = workload
        self.seed = seed
        self.src = src
        self.golden = golden
        self.work = work
        self.deadline = deadline
        self.calls = workload.calls(tiny)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env.pop("QSDLAB_OUTPUT_DIR", None)
        self.first_digests = {}
        self.n_spawned = 0
        for call in self.calls:
            (work / f"{call.label}.json").write_text(json.dumps(call.config))

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, kind: str, argv: list) -> dict:
        """Run the child; returns its record plus ``setup_s`` and ``error``."""
        self.n_spawned += 1
        res = self.work / f"child_{self.n_spawned}.json"
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(res), kind, *argv],
                cwd=self.work, env=self.env, capture_output=True, text=True,
                timeout=max(self.time_left(), 1.0))
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        if proc.returncode != 0 or not res.is_file():
            return {"error": f"child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-400:]}"}
        rec = json.loads(res.read_text())
        rec["setup_s"] = rec["ready"] - t_spawn
        if not pathlib.Path(rec["qsdlab_file"]).resolve().is_relative_to(self.src):
            rec["error"] = f"imported qsdlab from {rec['qsdlab_file']}"
        elif rec.get("exit_code", 0) != 0:
            rec["error"] = f"qsdlab exited {rec['exit_code']}: {proc.stderr.strip()[-400:]}"
        return rec

    def probe(self) -> float | None:
        rec = self.spawn("probe", [])
        return None if "error" in rec else rec["setup_s"]

    def run_call(self, call: Call, traced: bool) -> CallResult:
        out = self.work / "out" / call.label
        shutil.rmtree(out, ignore_errors=True)
        argv = call.argv(self.work / f"{call.label}.json", out, self.seed)
        rec = self.spawn("trace" if traced else "call", argv)
        res = CallResult(call.label, ok=False)
        if "error" in rec:
            res.problems.append(rec["error"])
            return res
        res.setup_s, res.main_s = rec["setup_s"], rec["main_s"]
        res.maxrss_kb, res.trace, res.backend = rec["maxrss_kb"], rec.get("trace"), rec["backend"]
        if res.backend not in (None, "numpy"):
            res.problems.append(f"qsdlab.BACKEND is {res.backend!r}, not 'numpy'")
        res.check = self.workload.check(call, out, self.golden.get(call.label, {}))
        res.problems += res.check.problems
        first = self.first_digests.setdefault(call.label, res.check.digests)
        if res.check.digests != first:
            res.problems.append("output differs from the first repetition")
        res.output_bytes = _output_bytes(out)
        res.ok = not res.problems
        return res

    def run_rep(self, traced: bool) -> list:
        return [self.run_call(c, traced) for c in self.calls]

    def run_reps(self, traced: bool, until: float, min_reps: int) -> list:
        """Repeat while a repetition as long as the last would be half done by
        ``until``, at least ``min_reps`` times; a run overshoots by half a
        repetition on average."""
        reps, last = [], 0.0
        while self.time_left() > 0:
            if len(reps) >= min_reps and time.monotonic() + last / 2 >= until:
                break
            t0 = time.monotonic()
            reps.append(self.run_rep(traced))
            last = time.monotonic() - t0
        return reps


# ---------------------------------------------------------------------------
# run facts
# ---------------------------------------------------------------------------

def _git_commit(root: pathlib.Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_facts() -> dict:
    """OpenBLAS version and thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy

    facts = {"numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]
             ["blas"].get("version")}
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                facts["blas_threads"] = fn()
                break
    return facts


def _cpu_facts() -> dict:
    facts = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                       if ln.startswith("model name")), None)
        base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"L{level}"] = (idx / "size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return facts


def run_facts(root: pathlib.Path) -> dict:
    facts = _cpu_facts()
    facts["python"] = platform.python_version()
    for pkg in ("numpy", "scipy"):
        facts[pkg] = importlib.metadata.version(pkg)
    facts.update(_blas_facts())
    facts["git_commit"] = _git_commit(root)
    return facts


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def _quartiles(values: list) -> dict:
    values = values or [0.0]
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _rep_main_s(rep: list) -> float:
    return sum(c.main_s for c in rep)


def _valid(reps: list) -> list:
    """Repetitions whose every call passed; all of them if none did."""
    ok = [r for r in reps if all(c.ok for c in r)]
    return ok or reps


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 src: pathlib.Path = ROOT / "src", tiny: bool = False,
                 min_reps: int = MIN_REPS) -> dict:
    """Run one workload and return the result and the full report."""
    workload = WORKLOADS[name]
    golden = json.loads(GOLDEN.read_text())
    golden = golden.get("tiny" if tiny else "full", {}).get(name, {}).get(str(seed), {})
    start = time.monotonic()
    work = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench_", dir=ROOT))
    try:
        runner = Runner(workload, seed, src.resolve(), tiny, golden, work,
                        deadline=start + HARD_LIMIT_S)
        load_before = os.getloadavg()[0]
        runner.probe()  # warm-up: byte-compile and page in, untimed
        untraced_until = start + (seconds / 2 if trace else seconds)
        reps = runner.run_reps(False, untraced_until, 1 if trace else min_reps)
        probes = [p for p in (runner.probe() for _ in range(N_PROBES)) if p is not None]
        traced = runner.run_reps(True, start + seconds, 1) if trace else []
        load_after = os.getloadavg()[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _summarize(workload, seed, trace, reps, traced, probes,
                      {"load1_before": load_before, "load1_after": load_after,
                       "wall_s": time.monotonic() - start})


def _summarize(workload, seed, trace, reps, traced, probes, timing) -> dict:
    calls = [c for r in reps + traced for c in r]
    failed = [c for c in calls if not c.ok]
    good = _valid(reps)
    run_s = _quartiles([_rep_main_s(r) for r in good])
    setup = _quartiles([c.setup_s for r in good for c in r if c.ok] + probes)
    untraced = [c for r in reps for c in r]
    peak_rss_mb = max((c.maxrss_kb for c in untraced), default=0) / 1024.0
    first = good[0] if good else []
    report = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "repetitions": len(reps),
        "valid_repetitions": sum(all(c.ok for c in r) for r in reps),
        "run_s": run_s, "setup_s": setup, "peak_rss_mb": peak_rss_mb,
        "ops_failed_frac": len(failed) / len(calls) if calls else 1.0,
        "problems": sorted({f"{c.label}: {p}" for c in failed for p in c.problems}),
        "backend": sorted({str(c.backend) for c in calls}),
        "counts": {c.label: c.check.counts for c in first if c.check},
        "values": {c.label: c.check.values for c in first if c.check and c.check.values},
        "digests": {c.label: c.check.digests for c in first if c.check and c.check.digests},
        "output_bytes": {c.label: c.output_bytes for c in first},
        **timing,
    }
    steps = sum(v.get("particle_steps", 0) for v in report["counts"].values())
    if steps:
        report["particle_steps_per_s"] = steps / run_s["median"]
    theta = [v["theta_rel_err"] for v in report["values"].values() if "theta_rel_err" in v]
    if theta:
        report["theta_rel_err"] = theta[0]

    if trace:
        per_rep = []
        for rep in _valid(traced):
            merged = merge_traces([c.trace for c in rep if c.trace],
                                  sum(sum(c.output_bytes.values()) for c in rep))
            values, missing = layer_metrics(merged)
            values[OVERHEAD[0]] = _rep_main_s(rep) / run_s["median"] - 1.0
            per_rep.append((values, missing, merged))
        metrics, missing = {}, sorted({m for _, ms, _ in per_rep for m in ms})
        for name, unit in [(n, u) for n, u, _, _ in PER_LAYER] + [OVERHEAD]:
            vals = [v[name] for v, _, _ in per_rep] or [0.0]
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
        report["missing"] = missing
        report["traced_repetitions"] = len(traced)
        if per_rep:
            merged = per_rep[0][2]
            report["traced_main_s"] = merged["spans"]["cli.main"]["s"]
            report["self_s"] = {k: v["self_s"] for k, v in sorted(merged["spans"].items())}
            report["trace_counts"] = merged["counts"]
            report["missing_targets"] = merged["missing"]
    else:
        values = (run_s["median"], setup["median"], peak_rss_mb)
        metrics = {n: {"value": v, "unit": u} for (n, u), v in zip(END_TO_END, values)}
    result = {"correct": not failed and bool(calls), "attempted": max(len(calls), 1),
              "failed": len(failed) if calls else 1, "metrics": metrics}
    return {"result": result, "report": report}


def _print_human(out: dict) -> None:
    rep, res = out["report"], out["result"]
    print(f"workload {rep['workload']} seed {rep['seed']} trace {rep['trace']}: "
          f"{rep['repetitions']} repetitions, {res['attempted']} calls, "
          f"{res['failed']} failed")
    for p in rep["problems"]:
        print(f"  FAILED {p}")
    if rep["valid_repetitions"] == 0:
        print("  timings below come from failed calls and are not valid")
    elif rep["valid_repetitions"] < rep["repetitions"]:
        print("  timings below leave out repetitions with a failed call")
    q = rep["run_s"]
    print(f"  run_s                {q['median']:.4f} s   (q1 {q['q1']:.4f}, "
          f"q3 {q['q3']:.4f}, n={q['n']})")
    q = rep["setup_s"]
    print(f"  setup_s              {q['median']:.4f} s   (q1 {q['q1']:.4f}, "
          f"q3 {q['q3']:.4f}, n={q['n']})")
    print(f"  peak_rss_mb          {rep['peak_rss_mb']:.1f} MB")
    print(f"  ops_failed_frac      {rep['ops_failed_frac']:.4f} ratio")
    if "particle_steps_per_s" in rep:
        print(f"  particle_steps_per_s {rep['particle_steps_per_s']:.0f} 1/s")
    if "theta_rel_err" in rep:
        print(f"  theta_rel_err        {rep['theta_rel_err']:.3e} ratio")
    if rep["trace"]:
        for name, m in res["metrics"].items():
            shown = "missing" if name in rep["missing"] else f"{m['value']:.6g}"
            print(f"  {name:44s} {shown} {m['unit']}")
    print(f"  load average {rep['load1_before']:.2f} -> {rep['load1_after']:.2f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "qsdlab" / "cli.py").is_file():
        print(f"error: no qsdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out["report"]["facts"] = run_facts(ROOT)
    _print_human(out)
    print("report: " + json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
