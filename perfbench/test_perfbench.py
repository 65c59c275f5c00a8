"""The benchmark's own tests: tiny-size runs emit every named metric with its unit.

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("suite_tri", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]


def test_trace_checks_catch_bad_nesting():
    good = [[0, None, "cell", 0.0, 1.0, {}], [1, 0, "a", 0.1, 0.4, {}], [2, 0, "b", 0.5, 0.9, {}],
            [3, 2, "c", 0.6, 0.7, {}]]
    assert spans.nesting_problems(good) == []
    assert spans.subtree_self(good, 0) == pytest.approx(0.7)
    overlap = good[:2] + [[2, 0, "b", 0.3, 0.9, {}]]
    assert any("overlaps" in p for p in spans.nesting_problems(overlap))
    outside = good[:1] + [[1, 0, "a", 0.2, 1.5, {}]]
    problems = spans.nesting_problems(outside)
    assert any("outside its parent" in p for p in problems)
    assert any("negative self time" in p for p in problems)
