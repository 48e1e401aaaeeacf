"""Self-tests of the benchmark harness, on tiny workloads.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import DEFAULT_SEED, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name, trace, **kw):
    return run.run_workload(name, DEFAULT_SEED, 0, trace, tiny=True,
                            min_reps=1, **kw)


def _src_copy(tmp_path, edit):
    """A copy of the package sources with ``edit(fv_source)`` applied to fv.py."""
    src = tmp_path / "src"
    shutil.copytree(run.ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    fv = src / "qsdlab" / "fv.py"
    fv.write_text(edit(fv.read_text()))
    return src


def _check_schema(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(n, u) for n, u, _, _ in run.PER_LAYER] + [run.OVERHEAD]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_run(name):
    out = _tiny(name, trace=False)
    _check_schema(out["result"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in out["result"]["metrics"].values())
    assert out["report"]["ops_failed_frac"] == 0.0

    out = _tiny(name, trace=True)
    _check_schema(out["result"], SPEC["per_layer"])
    rep = out["report"]
    assert rep["missing"] == []
    # the root span is cli.main, so the self times split up the traced run
    assert sum(rep["self_s"].values()) == pytest.approx(rep["traced_main_s"], rel=1e-9)


def test_oracle_trace_counts_both_perron_calls():
    metrics = _tiny("oracle_grid", trace=True)["result"]["metrics"]
    assert metrics["oracle.perron_triplet.calls"]["value"] == 2
    assert metrics["oracle.killed_semigroup.calls"]["value"] == 1
    assert metrics["oracle.dense_matrix_bytes"]["value"] == 600 * 600 * 8


def test_corrupted_output_counts_as_failed(tmp_path):
    src = _src_copy(tmp_path, lambda s: s.replace(
        "json.dumps(payload, sort_keys=True, indent=1)",
        "json.dumps(payload, sort_keys=True, indent=2)"))
    out = _tiny("simulate_large_n", trace=False, src=src)
    res = out["result"]
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] == 3
    assert out["report"]["ops_failed_frac"] == 1.0
    assert all("report.json sha256" in p for p in out["report"]["problems"])


def test_missing_private_helper_is_reported_not_fatal(tmp_path):
    src = _src_copy(tmp_path, lambda s: s.replace("_sorted_source", "_canonical_source"))
    out = _tiny("simulate_large_n", trace=True, src=src)
    assert out["result"]["correct"] is True
    assert out["report"]["missing"] == ["fv.sorted_source.calls", "fv.sorted_source.s"]
    assert out["report"]["missing_targets"] == {"qsdlab.fv._sorted_source": "fv.sorted_source"}
    metrics = out["result"]["metrics"]
    assert metrics["kernels.step_gauss.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "harris_birth_death", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
