"""Run one qsdlab CLI call in a fresh process, as a user runs it, and time it.

    python3 child.py RESULT_JSON {call,trace,probe} [qsdlab argv ...]

``call`` runs ``qsdlab.cli.main(argv)``; ``trace`` runs it with the
per-layer wrappers of ``tracing`` installed; ``probe`` only imports
qsdlab, for a set-up time sample.  The result file records
``time.monotonic()`` when ``cli.main`` is about to be called, so the caller
can compute set-up time from its own clock reading before the spawn (both
read the system-wide monotonic clock), plus the main-call duration, exit
code and peak RSS.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import qsdlab
    import qsdlab.cli

    ready = time.monotonic()
    rec = {"ready": ready, "qsdlab_file": qsdlab.__file__,
           "backend": getattr(qsdlab, "BACKEND", None)}
    if kind == "call":
        t0 = time.perf_counter()
        rec["exit_code"] = qsdlab.cli.main(argv)
        rec["main_s"] = time.perf_counter() - t0
    elif kind == "trace":
        import tracing

        rec["exit_code"], rec["trace"] = tracing.traced_call(qsdlab.cli.main, argv)
        rec["main_s"] = rec["trace"]["spans"]["cli.main"]["s"]
    rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(rec, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
