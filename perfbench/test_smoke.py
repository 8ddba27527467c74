"""Smoke test of the benchmark: a tiny run of each workload, untraced and
traced, must emit every metric that BENCHMARK.json names and pass its output
checks.  Takes about a minute and a half:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402


def run(*args):
    p = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                       capture_output=True, text=True, timeout=180)
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def expect(doc, metrics):
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    assert set(doc["metrics"]) == {m["name"] for m in metrics}
    units = {m["name"]: m["unit"] for m in metrics}
    for name, value in doc["metrics"].items():
        assert value["unit"] == units[name]
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_checks_the_golden_digest(workload):
    # the default seed makes the run complete and check the golden ops
    doc = run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(doc, SPEC["end_to_end"])
    assert all(doc["metrics"][m]["value"] > 0 for m in doc["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    doc = run("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1",
              "--ops", "3")
    expect(doc, SPEC["per_layer"])
    if workload == "atlas":
        assert doc["metrics"]["factorizer.factor.calls"]["value"] == 0


def test_missing_library_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    # g spans [0, 10] with children f [1, 4] and f [5, 6]; the first f holds
    # a nested f [2, 3]; one more f [11, 12] is outermost.  Spans close
    # children first, as the tracer records them.
    tr.spans += [(0, 5, 2, "f", 2.0, 3.0), (0, 2, 1, "f", 1.0, 4.0),
                 (0, 3, 1, "f", 5.0, 6.0), (0, 1, 0, "g", 0.0, 10.0),
                 (0, 4, 0, "f", 11.0, 12.0)]
    rows = tr.layers()
    assert rows["g"] == {"calls": 1, "self_s": 6.0, "outer_s": 10.0}
    assert rows["f"] == {"calls": 4, "self_s": 5.0, "outer_s": 5.0}
