import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hybridts
from hybridts.cli import _emit, main
from hybridts.formula import serialize_dimacs
from hybridts.generators import random_kcnf


@pytest.fixture()
def instance(tmp_path):
    rng = random.Random(99)
    f = random_kcnf(rng, 6, 15)
    path = tmp_path / "inst.cnf"
    path.write_text(serialize_dimacs(f))
    return path


@pytest.fixture()
def small_instance(tmp_path):
    rng = random.Random(7)
    f = random_kcnf(rng, 4, 5)
    path = tmp_path / "small.cnf"
    path.write_text(serialize_dimacs(f))
    return path


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


def strip_timing(report):
    report = dict(report)
    report.pop("timing", None)
    for record in report.get("records", []):
        record.pop("wallTime", None)
    return report


def test_solve_record_schema(instance, tmp_path):
    code, report = run(["solve", "--input", str(instance), "--seed", "1"], tmp_path)
    assert code == 0
    rec = report["records"][0]
    for key in ("instanceId", "engine", "seed", "T", "height", "br", "K",
                "Tprime", "verdict", "wallTime"):
        assert key in rec
    assert report["schemaVersion"] == 1


def test_solve_dncppsz_not_found_label(tmp_path):
    f = random_kcnf(random.Random(5), 6, 40)   # very likely unsat
    path = tmp_path / "dense.cnf"
    path.write_text(serialize_dimacs(f))
    code, report = run(["solve", "--input", str(path), "--engine", "dncppsz",
                        "--budget", "0", "--seed", "1"], tmp_path)
    assert report["records"][0]["verdict"] in ("not-found", "sat")


def test_tree_stats_and_decompose(instance, tmp_path):
    _, stats = run(["tree-stats", "--input", str(instance), "--seed", "1"],
                   tmp_path)
    assert stats["records"][0]["T"] >= stats["records"][0]["K"]
    _, decomp = run(["decompose", "--input", str(instance), "--budget", "2",
                     "--seed", "1"], tmp_path)
    rec = decomp["records"][0]
    assert rec["T0"] + sum(rec["subtreeSizes"]) == rec["T"]


def test_fit_exponent(tmp_path):
    code, report = run(["fit-exponent", "--lambda", "0.8", "--kappa", "0.5",
                        "--seed", "1"], tmp_path)
    agg = report["aggregate"]
    assert abs(agg["fittedExponent"] - agg["expectedExponent"]) <= 0.05


def test_fit_exponent_csv(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    main(["fit-exponent", "--lambda", "1.0", "--kappa", "0.25", "--seed", "1",
          "--format", "csv", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,kappaPrime,n,log2TH"
    assert len(lines) == 14
    assert json.loads(capsys.readouterr().out)["command"] == "fit-exponent"


@pytest.mark.parametrize("args", [
    ["fit-exponent", "--lambda", "1.0", "--kappa", "0.25", "--format", "csv"],
    ["pebble-schedule", "--k", "1", "--format", "csv"],
])
def test_format_csv_fails_where_not_honoured(args, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_qwalk_detect(small_instance, tmp_path):
    code, report = run(["qwalk-detect", "--input", str(small_instance),
                        "--seed", "3"], tmp_path)
    rec = report["records"][0]
    assert rec["verdict"] == rec["groundTruth"]


def test_grover(small_instance, tmp_path):
    code, report = run(["grover", "--input", str(small_instance), "--seed", "1"],
                       tmp_path)
    rec = report["records"][0]
    assert abs(rec["successProbability"] - rec["closedForm"]) < 1e-6


def test_qpe_compare(tmp_path):
    code, report = run(["qpe-compare", "--seed", "5", "--trials", "8"], tmp_path)
    assert report["aggregate"]["maxAbsDiff"] <= 1e-9
    assert code == 0


def test_qpe_compare_requires_seed(tmp_path):
    with pytest.raises(SystemExit):
        main(["qpe-compare", "--trials", "2"])


def test_sia_run(small_instance, tmp_path):
    code, report = run(["sia-run", "--input", str(small_instance), "--seed",
                        "2", "--w", "4"], tmp_path)
    rec = report["records"][0]
    assert rec["match"] and rec["intermediatesRestored"]
    assert code == 0


def test_pebble_schedule(tmp_path, capsys):
    out = tmp_path / "sched.txt"
    main(["pebble-schedule", "--k", "3", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 27
    assert lines[0] == "M[0] ^= SIAB_1(M[-1])"
    assert json.loads(capsys.readouterr().out)["command"] == "pebble-schedule"


def test_pebble_schedule_without_out_splits_streams(capsys):
    main(["pebble-schedule", "--k", "2"])
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 9
    assert json.loads(captured.err)["records"][0]["entries"] == 9


def test_lattice_reduce(small_instance, tmp_path):
    code, report = run(["lattice-reduce", "--input", str(small_instance),
                        "--seed", "1"], tmp_path)
    rec = report["records"][0]
    assert rec["equisat"]["agree"]
    assert rec["reducedIndexWidth"] <= rec["widthBound"]


def test_seth_hybrid_small_range(tmp_path):
    code, report = run(["seth-hybrid", "--seed", "4", "--nmin", "12",
                        "--nmax", "16"], tmp_path)
    agg = report["aggregate"]
    assert abs(agg["measuredExponent"] - 0.75) <= 0.08


def test_reports_are_deterministic(instance, tmp_path):
    _, a = run(["solve", "--input", str(instance), "--seed", "9"], tmp_path, "a.json")
    _, b = run(["solve", "--input", str(instance), "--seed", "9"], tmp_path, "b.json")
    assert json.dumps(strip_timing(a), sort_keys=True) == \
        json.dumps(strip_timing(b), sort_keys=True)


def test_reports_agree_across_processes():
    env = dict(os.environ,
               PYTHONPATH=str(Path(hybridts.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-m", "hybridts.cli", "qpe-compare", "--seed", "1",
           "--trials", "1"]
    a, b = (json.loads(subprocess.run(cmd, env=env, capture_output=True,
                                      check=True, text=True).stdout)
            for _ in range(2))
    assert "func" not in a["spec"] and "out" not in a["spec"]
    assert strip_timing(a) == strip_timing(b)


@pytest.mark.parametrize("report", [
    {"records": [{"log2TH": [1.0, float("nan")]}], "aggregate": {}},
    {"records": [], "aggregate": {"fittedExponent": float("inf")}},
])
def test_emit_rejects_non_finite_numbers_anywhere(report, tmp_path, capsys):
    out = tmp_path / "report.json"
    with pytest.raises(ValueError):
        _emit(report, argparse.Namespace(out=str(out)))
    assert not out.exists()
    assert capsys.readouterr() == ("", "")
