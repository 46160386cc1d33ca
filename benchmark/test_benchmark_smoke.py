"""Smoke test of the benchmark command at tiny sizes.

Every metric BENCHMARK.json names is emitted with a unit, the traced run
writes its spans, and a deliberately corrupted model (one flipped bit) is
counted as a failed job.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "1", "--seconds", "0.5",
         "--tiny", *args],
        capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, names: list[str]) -> None:
    assert set(result["metrics"]) == set(names)
    for m in result["metrics"].values():
        assert m["unit"] and isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    text, res = run_bench("--workload", workload, "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert_metrics(res, [m["name"] for m in SPEC["end_to_end"]])
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert "error_rate 0 " in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_spans(workload):
    text, res = run_bench("--workload", workload, "--trace", "1")
    assert res["correct"] and res["failed"] == 0
    assert_metrics(res, [m["name"] for m in SPEC["per_layer"]])
    spans_path = next(line.split(" ", 1)[1] for line in text.splitlines()
                      if line.startswith("spans "))
    spans = json.loads(Path(spans_path).read_text())["spans"]
    assert spans and set(spans[0]) == {"name", "start", "end", "parent", "job"}
    assert all(s["end"] >= s["start"] for s in spans)


def test_corrupted_model_raises_error_rate():
    text, res = run_bench("--workload", "classical-search", "--trace", "0", "--corrupt")
    assert res["failed"] >= 1 and not res["correct"]
    rate = next(float(line.split()[1]) for line in text.splitlines()
                if line.startswith("error_rate "))
    assert rate > 0
