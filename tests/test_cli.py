import argparse
import json
import os
import random
import re
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


@pytest.mark.parametrize("cap, message", [
    ("2", "tree size \\d+ exceeds the dimension cap 2"),
    ("4k", "HYBRIDTS_DIM_CAP must be an integer, got '4k'"),
])
def test_command_value_error_is_one_line_exit_2(cap, message, instance, tmp_path,
                                               capsys, monkeypatch):
    monkeypatch.setenv("HYBRIDTS_DIM_CAP", cap)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["qwalk-detect", "--input", str(instance), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"hybridts qwalk-detect: error: {message}\n", err)
    assert not out.exists()


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
def test_decompose_non_finite_budget_exit_2(budget, instance, tmp_path, capsys):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--input", str(instance), f"--budget={budget}",
              "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"hybridts decompose: error: budget must be finite, got {budget}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--trials", "0"], "trials must be at least 1, got 0"),
    (["--delta", "0"], "delta must lie in \\(0, 1\\), got 0.0"),
    (["--delta", "1"], "delta must lie in \\(0, 1\\), got 1.0"),
])
def test_qwalk_detect_bad_trials_or_delta_exit_2(flags, message, instance, tmp_path,
                                                capsys):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["qwalk-detect", "--input", str(instance), "--out", str(out)] + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"hybridts qwalk-detect: error: {message}\n", err)
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--engine", "dncppsz", "--s", "0"]),
    ("tree-stats", ["--engine", "dncppsz", "--s", "-2"]),
    ("sia-run", ["--s", "0", "--advice", "1"]),
])
def test_s_below_one_exit_2(command, flags, instance, tmp_path, capsys):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(instance), "--out", str(out)] + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    s = flags[flags.index("--s") + 1]
    assert err == f"hybridts {command}: error: s must be >= 1, got {s}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "tree-stats"])
@pytest.mark.parametrize("flags, flag", [
    (["--budget", "3"], "--budget"),
    (["--s", "5"], "--s"),
    (["--s", "1", "--budget", "3"], "--s"),
])
def test_dncppsz_flags_with_dpll_exit_2(command, flags, flag, instance, tmp_path, capsys):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(instance), "--engine", "dpll",
              "--out", str(out)] + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"hybridts {command}: error: {flag} applies only to --engine dncppsz\n"
    assert not out.exists()


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ,
               PYTHONPATH=str(Path(hybridts.__file__).resolve().parents[1]))
    code = ("import pkgutil, sys, hybridts.cli; "
            "print([m.name for m in pkgutil.walk_packages(hybridts.__path__, 'hybridts.')"
            " if m.name not in sys.modules], 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, check=True, text=True)
    assert proc.stdout.strip() == "[] False"


def test_grover(small_instance, tmp_path):
    code, report = run(["grover", "--input", str(small_instance), "--seed", "1"],
                       tmp_path)
    rec = report["records"][0]
    assert abs(rec["successProbability"] - rec["closedForm"]) < 1e-6


def test_qpe_compare(tmp_path):
    code, report = run(["qpe-compare", "--seed", "5", "--trials", "8"], tmp_path)
    assert report["aggregate"]["maxAbsDiff"] <= 1e-9
    assert code == 0


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_qpe_compare_trials_below_one_exit_2(trials, tmp_path, capsys):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["qpe-compare", "--seed", "5", "--trials", trials, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == f"hybridts qpe-compare: error: trials must be at least 1, got {trials}\n"
    assert not out.exists()


def test_qpe_compare_requires_seed(tmp_path):
    with pytest.raises(SystemExit):
        main(["qpe-compare", "--trials", "2"])


def test_sia_run(small_instance, tmp_path):
    code, report = run(["sia-run", "--input", str(small_instance), "--seed",
                        "2", "--w", "4"], tmp_path)
    rec = report["records"][0]
    assert rec["match"] and rec["intermediatesRestored"]
    assert code == 0


def test_sia_run_bad_advice_exit_2(small_instance, tmp_path, capsys):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["sia-run", "--input", str(small_instance), "--advice", "012",
              "--w", "4", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "hybridts sia-run: error: advice symbol '2' is not 0 or 1\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("p cnf x 3\n1 0\n", "malformed DIMACS header: 'p cnf x 3'"),
    ("p cnf -3 1\n1 0\n", "malformed DIMACS header: 'p cnf -3 1'"),
    ("p cnf 3 -1\n", "malformed DIMACS header: 'p cnf 3 -1'"),
    ("p cnf 3 1\n1 2 0\np cnf 2 2\n-1 0\n", "duplicate DIMACS header"),
])
def test_dimacs_header_error_exit_2(text, message, tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text(text)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(path), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"hybridts solve: error: {message}\n"
    assert not out.exists()


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
