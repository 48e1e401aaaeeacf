"""Record the golden output digests that the benchmark checks against.

    python3 perfbench/golden.py

Runs each seeded workload once per seed and writes the sha256 digests of
its outputs to ``golden.json``: the full size for seeds 0-31, the default
seed and the held-out seed, and the tiny size (used by the self-tests) for
the default seed.  A run on any other seed is checked for structure and
for identical output across its repetitions instead.  Re-record only when
an output is meant to change, and say why.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import tempfile
import time

from run import GOLDEN, HARD_LIMIT_S, ROOT, Runner
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

SEEDED = ("simulate_large_n", "sweep_small_n")
FULL_SEEDS = sorted(set(range(32)) | {DEFAULT_SEED, HELD_OUT_SEED})


def record(name: str, seed: int, tiny: bool) -> dict:
    work = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench_", dir=ROOT))
    try:
        runner = Runner(WORKLOADS[name], seed, ROOT / "src", tiny, {}, work,
                        deadline=time.monotonic() + HARD_LIMIT_S)
        rep = runner.run_rep(traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = [f"{c.label}: {p}" for c in rep for p in c.problems]
    if bad:
        raise SystemExit(f"{name} seed {seed} failed: {bad}")
    return {c.label: c.check.digests for c in rep}


def main() -> int:
    golden = {"full": {}, "tiny": {}}
    for name in SEEDED:
        for seed in FULL_SEEDS:
            golden["full"].setdefault(name, {})[str(seed)] = record(name, seed, False)
            print(f"full {name} seed {seed}", flush=True)
        golden["tiny"][name] = {str(DEFAULT_SEED): record(name, DEFAULT_SEED, True)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
