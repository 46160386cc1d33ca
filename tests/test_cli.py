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
from hybridts import qwalk
from hybridts.cli import _emit, build_parser, main
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
    code, report = run(["solve", "--input", str(instance)], tmp_path)
    assert code == 0
    rec = report["records"][0]
    for key in ("instanceId", "engine", "T", "height", "br", "K",
                "Tprime", "verdict", "wallTime"):
        assert key in rec
    assert report["schemaVersion"] == 1


def test_solve_dncppsz_not_found_label(tmp_path):
    f = random_kcnf(random.Random(5), 6, 40)   # very likely unsat
    path = tmp_path / "dense.cnf"
    path.write_text(serialize_dimacs(f))
    code, report = run(["solve", "--input", str(path), "--engine", "dncppsz",
                        "--budget", "0"], tmp_path)
    assert report["records"][0]["verdict"] in ("not-found", "sat")


def test_tree_stats_and_decompose(instance, tmp_path):
    _, stats = run(["tree-stats", "--input", str(instance)], tmp_path)
    assert stats["records"][0]["T"] >= stats["records"][0]["K"]
    _, decomp = run(["decompose", "--input", str(instance), "--budget", "2"],
                    tmp_path)
    rec = decomp["records"][0]
    assert rec["T0"] + sum(rec["subtreeSizes"]) == rec["T"]


def test_fit_exponent(tmp_path):
    code, report = run(["fit-exponent", "--lambda", "0.8", "--kappa", "0.5"],
                       tmp_path)
    agg = report["aggregate"]
    assert abs(agg["fittedExponent"] - agg["expectedExponent"]) <= 0.05


def test_fit_exponent_csv(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    main(["fit-exponent", "--lambda", "1.0", "--kappa", "0.25",
          "--format", "csv", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,kappaPrime,n,log2TH"
    assert len(lines) == 14
    assert json.loads(capsys.readouterr().out)["command"] == "fit-exponent"


# Each subcommand declares exactly the flags its handler reads.
FLAGS = {
    "solve": "--input --out --engine --s --budget",
    "tree-stats": "--input --out --engine --s --budget",
    "decompose": "--input --out --budget --measure",
    "fit-exponent": "--out --format --lambda --kappa --nmin --nmax",
    "qwalk-detect": "--input --seed --out --delta --trials",
    "grover": "--input --out --iterations --oracle",
    "qpe-compare": "--seed --out --trials",
    "sia-run": "--input --seed --out --w --s --advice",
    "pebble-schedule": "--out --k",
    "lattice-reduce": "--input --out",
    "seth-hybrid": "--seed --out --kappa --nmin --nmax --clause-ratio",
}


def declared_flags() -> dict[str, set[str]]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_command_declares_exactly_its_flags(command):
    flags = declared_flags()
    assert flags.keys() == FLAGS.keys()
    assert flags[command] == set(FLAGS[command].split())


@pytest.mark.parametrize("args, flag", [
    (["decompose", "--input", "x.cnf", "--budget", "2", "--seed", "5"], "--seed"),
    (["seth-hybrid", "--seed", "1", "--input", "x.cnf"], "--input"),
    (["grover", "--input", "x.cnf", "--format", "json"], "--format"),
])
def test_undeclared_flag_exit_2(args, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"hybridts: error: unrecognized arguments: {flag}")


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


@pytest.mark.parametrize("seed, truth", [(0, "markedExists"), (1, "noMarked")])
def test_qwalk_detect_above_the_walk_dimension_cap(seed, truth, tmp_path):
    # Random 3-CNF at n = 50, m = 213: DPLL trees of 7654 and 9389 vertices,
    # above the 4096 that capped the walk's old dense operator.
    path = tmp_path / "big.cnf"
    path.write_text(serialize_dimacs(random_kcnf(random.Random(seed), 50, 213)))
    code, report = run(["qwalk-detect", "--input", str(path), "--seed", "3"], tmp_path)
    rec = report["records"][0]
    assert code == 0 and rec["T"] > 4096
    assert rec["verdict"] == rec["groundTruth"] == truth


def test_qwalk_detect_refused_window_exit_2(monkeypatch, instance, tmp_path, capsys):
    # At beta = 10 the detection window of this 25-vertex tree holds a
    # nonzero phase, which the range pass cannot weigh.
    monkeypatch.setattr(qwalk, "DETECTION_BETA", 10.0)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["qwalk-detect", "--input", str(instance), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "hybridts qwalk-detect: error: the walk on T = 25 vertices with n = 6 has a "
        "nonzero phase inside the window of precision 0.816496580927726\n")
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
    # The CLI loads every library module but the circuit walk, which no
    # command runs; importing that one too still leaves scipy out.
    code = ("import importlib, pkgutil, sys, hybridts.cli; "
            "rest = [m.name for m in pkgutil.walk_packages(hybridts.__path__, 'hybridts.')"
            " if m.name not in sys.modules]; "
            "[importlib.import_module(name) for name in rest]; "
            "print(rest, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, check=True, text=True)
    assert proc.stdout.strip() == "['hybridts.qcircuit.walk'] False"


def test_grover(small_instance, tmp_path):
    code, report = run(["grover", "--input", str(small_instance)], tmp_path)
    rec = report["records"][0]
    assert abs(rec["successProbability"] - rec["closedForm"]) < 1e-6


def test_grover_past_the_statevector_cap_exit_2(tmp_path, capsys):
    # Refused before the solution count, which would allocate 2^40 entries.
    path = tmp_path / "wide.cnf"
    path.write_text(serialize_dimacs(random_kcnf(random.Random(3), 40, 170)))
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["grover", "--input", str(path), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == ("hybridts grover: error: the counter oracle needs 49 wires, past "
                   "the statevector cap of 24 wires\n")
    assert not out.exists()


def test_qpe_compare(tmp_path):
    code, report = run(["qpe-compare", "--seed", "5", "--trials", "8"], tmp_path)
    assert report["aggregate"]["maxAbsDiff"] <= 1e-9
    for rec in report["records"]:
        assert rec["absDiff"] == max(abs(rec["p0"] - rec["closedForm"]),
                                     abs(rec["p0Prime"] - rec["closedForm"]))
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


@pytest.mark.parametrize("w", ["0", "-1"])
def test_sia_run_block_width_below_one_exit_2(w, small_instance, tmp_path, capsys):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["sia-run", "--input", str(small_instance), "--advice", "01",
              "--w", w, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "hybridts sia-run: error: block width w must be at least 1\n"
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


@pytest.mark.parametrize("where", ["--input", "--out"])
def test_missing_input_or_out_directory_exit_2(where, instance, tmp_path, capsys):
    missing = tmp_path / "missing" / "x"
    paths = {"--input": instance, "--out": tmp_path / "out.json", where: missing}
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(paths["--input"]), "--out", str(paths["--out"])])
    assert exc.value.code == 2
    assert capsys.readouterr().err == \
        f"hybridts solve: error: [Errno 2] No such file or directory: '{missing}'\n"
    assert list(tmp_path.iterdir()) == [instance]


FIT = ["fit-exponent", "--lambda", "1", "--kappa", "0.5"]
SETH = ["seth-hybrid", "--seed", "1"]


@pytest.mark.parametrize("argv, message", [
    (FIT + ["--nmin", "10", "--nmax", "9"], "a fit needs at least 2 sizes n, got []"),
    (FIT + ["--nmin", "10", "--nmax", "10"], "a fit needs at least 2 sizes n, got [10]"),
    (SETH + ["--nmin", "12", "--nmax", "11"],
     "a fit needs at least 2 sizes n, got nmin 12 and nmax 11"),
    (SETH + ["--nmin", "12", "--nmax", "12"],
     "a fit needs at least 2 sizes n, got nmin 12 and nmax 12"),
    (SETH + ["--kappa", "2"], "kappa' must lie in [0, 1]"),
    (SETH + ["--kappa", "-1"], "kappa' must lie in [0, 1]"),
    (SETH + ["--clause-ratio", "0"], "--clause-ratio 0.0 gives no clause at n = 16"),
    (SETH + ["--clause-ratio", "-1"], "--clause-ratio -1.0 gives no clause at n = 16"),
    (SETH + ["--clause-ratio", "0.1", "--nmin", "4", "--nmax", "8"],
     "--clause-ratio 0.1 gives no clause at n = 4"),
    (FIT + ["--nmin", "0", "--nmax", "10"], "sizes n must be at least 1, got 0"),
    (FIT + ["--nmin", "-3", "--nmax", "10"], "sizes n must be at least 1, got -3"),
])
def test_fit_range_or_kappa_out_of_range_exit_2(argv, message, tmp_path, capsys):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"hybridts {argv[0]}: error: {message}\n"
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
    code, report = run(["lattice-reduce", "--input", str(small_instance)], tmp_path)
    rec = report["records"][0]
    assert rec["equisat"]["agree"]
    assert rec["reducedIndexWidth"] <= rec["widthBound"]


def test_seth_hybrid_small_range(tmp_path):
    code, report = run(["seth-hybrid", "--seed", "4", "--nmin", "12",
                        "--nmax", "16"], tmp_path)
    agg = report["aggregate"]
    assert abs(agg["measuredExponent"] - 0.75) <= 0.08


def test_reports_are_deterministic(instance, tmp_path):
    _, a = run(["solve", "--input", str(instance)], tmp_path, "a.json")
    _, b = run(["solve", "--input", str(instance)], tmp_path, "b.json")
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
