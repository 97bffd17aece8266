"""Smoke test of the benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs ``run.py --smoke --trace 1`` once (every workload, 20 files, 100
requests, one repetition) and checks that every metric BENCHMARK.json
names is emitted with its unit, that ``compare.py`` finds nothing
between a result and itself, and that the correctness oracle fires.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
BENCHMARK = json.loads((PERF.parents[1] / "BENCHMARK.json").read_text())


def _module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perf_{name}", PERF / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--trace", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return out, proc.stdout


def test_every_metric_is_emitted_with_its_unit(smoke):
    out, stdout = smoke
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == \
        [w["name"] for w in BENCHMARK["workloads"]]
    for run in runs:
        assert run["correct"] and run["failed"] == 0
        for section, key in (("end_to_end", "metrics"),
                             ("per_layer", "per_layer")):
            for metric in BENCHMARK[section]:
                emitted = run[key][metric["name"]]
                assert emitted["unit"] == metric["unit"]
                assert isinstance(emitted["value"], (int, float))
        for metric in BENCHMARK["end_to_end"]:
            assert run["metrics"][metric["name"]]["value"] > 0
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0


def test_traced_runs_cover_their_wall_time(smoke):
    out, _ = smoke
    for run in json.loads(out.read_text())["runs"]:
        assert run["per_layer"]["trace.coverage"]["value"] >= 0.95
        trace = json.loads((PERF.parents[1] / run["trace_file"]).read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_compare_of_a_result_with_itself_is_all_ok(smoke):
    out, _ = smoke
    proc = subprocess.run(
        [sys.executable, str(PERF / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout
    rows = proc.stdout.strip().splitlines()[1:]
    assert len(rows) == len(BENCHMARK["workloads"]) * len(
        BENCHMARK["end_to_end"])
    assert all(row.endswith(" ok") for row in rows)


def test_a_tampered_reference_counts_as_failed(monkeypatch, tmp_path):
    run = _module("run")
    real_child = run.Run.child

    def child(self, task, params):
        result = real_child(self, task, params)
        if task == "reference":
            specs = self.work / params["specs_out"]
            specs.write_text(specs.read_text() + " ")
        return result

    monkeypatch.setattr(run.Run, "child", child)
    out = tmp_path / "tampered.json"
    code = run.main(["--workload", "learn_cold", "--smoke",
                     "--out", str(out)])
    assert code == 1
    (record,) = json.loads(out.read_text())["runs"]
    assert not record["correct"]
    assert record["recorded"]["error_ratio"]["value"] > 0
