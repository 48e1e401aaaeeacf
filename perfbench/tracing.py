"""Per-layer tracing of one qsdlab CLI call, from outside the library.

``install`` replaces qsdlab functions with timing wrappers in every loaded
qsdlab namespace that bound them (``from .oracle import perron_triplet``
binds a second name for the same function).  Each wrapped call records a
span ``[name, start, end, parent]``; spans stay in memory and ``summary``
folds them into per-name call counts, inclusive times and self times at the
end.  The root span is the ``cli.main`` call, so the self times of all
spans add up to the traced run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

RNG = "kernels.rng"


def _count_step(counts, name, args, out):
    deaths = int(out[0])
    counts[name + ".particle_steps"] += args[0].shape[0]
    counts[name + ".deaths"] += deaths
    counts[name + ".steps_with_death"] += deaths > 0


def _draws(per_element):
    def count(counts, name, args, out):
        counts[name + ".draws"] += per_element * args[0].size
    return count


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _count_report(counts, name, args, out):
    counts[name + ".bytes"] += _dir_bytes(args[1])


def _count_matrix(counts, name, args, out):
    counts[name + ".dense_matrix_bytes"] += out.M.nbytes


def _count_iterations(counts, name, args, out):
    counts[name + ".iterations"] += getattr(out, "iterations", 0)


def _count_all_pass(counts, name, args, out):
    counts[name + ".all_pass"] += bool(out.all_pass)


# (module, attribute, span name, counter).  Private helpers may be renamed
# by a later refactor; a missing attribute is reported, never fatal.
TARGETS = (
    ("qsdlab.config", "load_config", "config.load_config", None),
    ("qsdlab.fv", "run_fv", "fv.run_fv", None),
    ("qsdlab.fv", "init_states", "fv.init_states", None),
    ("qsdlab.fv", "_sorted_source", "fv.sorted_source", None),
    ("qsdlab.fv", "write_report", "fv.write_report", _count_report),
    ("qsdlab._kernels", "step_gauss", "kernels.step_gauss", _count_step),
    ("qsdlab._kernels", "step_redraw", "kernels.step_redraw", _count_step),
    ("qsdlab._kernels", "step_finite", "kernels.step_finite", _count_step),
    # _normal_np calls _raw_np: draws are timed and counted at the outermost
    # RNG call only
    ("qsdlab._kernels", "_raw_np", RNG, _draws(1)),
    ("qsdlab._kernels", "_u01_np", RNG, _draws(1)),
    ("qsdlab._kernels", "_normal_np", RNG, _draws(2)),
    ("qsdlab.metrics", "w1_circle", "metrics.w1_circle", None),
    ("qsdlab.metrics", "estimate_theta", "metrics.estimate_theta", None),
    ("qsdlab.oracle", "grid_generator", "oracle.grid_generator", None),
    ("qsdlab.oracle", "killed_semigroup", "oracle.killed_semigroup", _count_matrix),
    ("qsdlab.oracle", "perron_triplet", "oracle.perron_triplet", _count_iterations),
    ("qsdlab.oracle", "list_qsds", "oracle.list_qsds", None),
    ("qsdlab.oracle", "survival_curve", "oracle.survival_curve", None),
    ("qsdlab.harris", "search_lyapunov_pair", "harris.search_lyapunov_pair", None),
    ("qsdlab.harris", "check_assumptions", "harris.check_assumptions", _count_all_pass),
    ("qsdlab.harris", "check_irreducibility", "harris.check_irreducibility", None),
    ("qsdlab.harris", "verify_conclusion", "harris.verify_conclusion", None),
)


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(int)
        self.missing = {}     # "module.attribute" -> span name, for targets not found

    def wrap(self, name, fn, counter=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # nested call within the same layer
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, name, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), kids in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - kids
        return {"spans": out, "counts": dict(self.counts),
                "missing": dict(self.missing)}


def install(tracer: Tracer) -> None:
    """Wrap each target in every loaded ``qsdlab`` namespace that binds it."""
    namespaces = [m for k, m in list(sys.modules.items())
                  if k == "qsdlab" or k.startswith("qsdlab.")]
    for module, attr, name, counter in TARGETS:
        orig = getattr(sys.modules.get(module), attr, None)
        if orig is None:
            tracer.missing[f"{module}.{attr}"] = name
            continue
        wrapper = tracer.wrap(name, orig, counter)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, key, wrapper)


def traced_call(fn, *args):
    """Run ``fn(*args)`` as the root span ``cli.main`` with all targets wrapped."""
    tracer = Tracer()
    install(tracer)
    result = tracer.wrap("cli.main", fn)(*args)
    return result, tracer.summary()
