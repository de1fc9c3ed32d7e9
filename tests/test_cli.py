"""Command line interface: outputs, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sphereqv.moments
from sphereqv import cli
from sphereqv.cli import main
from sphereqv.moments import exact_mean_vnl


def _parse_table(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, val = line.split()
        pairs[key] = float(val)
    return pairs


def _child_env():
    """Environment for a child interpreter that imports the same package as this test."""
    src = os.path.dirname(os.path.dirname(sphereqv.moments.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _write_spec(tmp_path, **over):
    raw = {"target": {"kind": "single_ell", "ell": 3, "c_ell": 1.0},
           "n": 32, "seed": 9, "replications": 5}
    raw.update(over)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


# ======================================================================
# moments
# ======================================================================

def test_moments_table_values(capsys):
    assert main(["moments", "--ell", "1", "--n", "2", "--cl", "1"]) == 0
    table = _parse_table(capsys.readouterr().out)
    assert table["mean"] == pytest.approx(3 / math.pi * (1 - math.sqrt(2) / 2),
                                          rel=1e-15)
    assert set(table) == {"mean", "variance", "normalized_k3", "normalized_k4",
                          "fourth_moment_bound"}


def test_moments_single_increment_pins(capsys):
    assert main(["moments", "--ell", "1", "--n", "1", "--cl", "1"]) == 0
    table = _parse_table(capsys.readouterr().out)
    assert table["variance"] == pytest.approx(9 / (2 * math.pi ** 2), rel=1e-15)
    assert table["normalized_k3"] == pytest.approx(2 * math.sqrt(2), rel=1e-13)
    assert table["fourth_moment_bound"] == pytest.approx(math.sqrt(2), rel=1e-13)


def test_moments_regime_block(capsys):
    assert main(["moments", "--ell", "8", "--n", "256", "--cl", "1",
                 "--regime", "fixed_ell"]) == 0
    table = _parse_table(capsys.readouterr().out)
    assert abs(table["mean_ratio"] - 1) < 0.01
    assert table["asymptotic_mean"] > 0
    assert "var_ratio" in table


def test_moments_grid_of_a_million(capsys):
    # out of reach of the dense N×N Gram; the (l+1)-row factor handles it
    assert main(["moments", "--ell", "8", "--n", "1000000", "--cl", "0.5"]) == 0
    table = _parse_table(capsys.readouterr().out)
    assert all(math.isfinite(v) for v in table.values())
    assert table["variance"] > 0 and table["normalized_k4"] > 0


def test_moments_unallocatable_grid_is_one_line_error(capsys):
    # a 10¹⁵-increment grid is refused by the memory estimate up front
    assert main(["moments", "--ell", "8", "--n", "1000000000000000",
                 "--cl", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_moments_beyond_physical_memory_exits_2_before_allocating(monkeypatch, capsys):
    # N = 10¹² needs a 67 TiB factor table (7.3 TiB for its first O(N) array)
    monkeypatch.setattr(cli, "increment_gram_fl",
                        lambda *a: pytest.fail("allocated past the estimate"))
    assert main(["moments", "--ell", "8", "--n", "1000000000000", "--cl", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: l=8, N=1000000000000 needs ")
    assert "increment factor" in err and "physical memory" in err


def test_moments_memory_estimate_follows_the_chosen_path(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2 ** 20)
    # l+1 > N/8: the dense 512×512 Gram is 2 MiB
    assert main(["moments", "--ell", "200", "--n", "512", "--cl", "1"]) == 2
    assert "dense Gram" in capsys.readouterr().err
    # l+1 ≤ N/8: the 9×4097 factor table is 288 KiB and fits
    assert main(["moments", "--ell", "8", "--n", "4096", "--cl", "1"]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(cli, "_physical_memory", lambda: None)  # unknown: no check
    assert main(["moments", "--ell", "200", "--n", "512", "--cl", "1"]) == 0


def test_moments_comparable_needs_ratio():
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--ell", "8", "--n", "8", "--cl", "1",
              "--regime", "ell_comparable"])
    assert exc.value.code == 2


def test_moments_rejects_degree_zero():
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--ell", "0", "--n", "4", "--cl", "1"])
    assert exc.value.code == 2


def test_moments_csv_output(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["moments", "--ell", "2", "--n", "4", "--cl", "1.5",
                 "--csv", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "quantity,value"
    rows = dict(line.split(",") for line in lines[1:])
    assert float(rows["mean"]) == pytest.approx(exact_mean_vnl(2, 1.5, 4),
                                                rel=1e-15)


# ======================================================================
# simulate
# ======================================================================

def test_simulate_deterministic_output(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--spec-file", spec, "--out", str(out1)]) == 0
    assert main(["simulate", "--spec-file", spec, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rep,v,stream"
    assert len(lines) == 6
    rep, v, stream = lines[1].split(",")
    assert (rep, stream) == ("0", "9:0:3")
    assert float(v) > 0


def test_simulate_flag_overrides(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    base, other = tmp_path / "base.csv", tmp_path / "other.csv"
    main(["simulate", "--spec-file", spec, "--out", str(base)])
    main(["simulate", "--spec-file", spec, "--out", str(other),
          "--seed", "10", "--reps", "3"])
    capsys.readouterr()
    assert len(other.read_text(encoding="utf-8").splitlines()) == 4
    v_base = base.read_text(encoding="utf-8").splitlines()[1].split(",")[1]
    v_other = other.read_text(encoding="utf-8").splitlines()[1].split(",")[1]
    assert v_base != v_other


def test_simulate_fbm_pair_columns(tmp_path, capsys):
    spec = _write_spec(
        tmp_path,
        target={"kind": "fbm", "hurst": 0.6, "times": [2.0, 1.0],
                "spectrum": {"kind": "explicit", "values": [1.0]}},
        n=8, replications=2)
    out = tmp_path / "fbm.csv"
    assert main(["simulate", "--spec-file", spec, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rep,v_t,v_s,stream"
    assert lines[1].split(",")[3] == "9:0"


def test_simulate_error_exit_codes(tmp_path, capsys):
    assert main(["simulate", "--spec-file", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")]) == 1
    bad = _write_spec(tmp_path, extra_key=1)
    assert main(["simulate", "--spec-file", bad,
                 "--out", str(tmp_path / "y.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("target", [
    {"kind": "single_ell"},
    {"kind": "single_ell", "ell": 0},
    {"kind": "single_ell", "ell": 2.5},
    {"kind": "single_ell", "ell": "3"},
    {"kind": "single_ell", "ell": 3, "c_ell": "x"},
    {"kind": "single_ell", "ell": 3, "c_ell": -1.0},
    {"kind": "single_ell", "ell": 3, "c_ell": float("nan")},
    {"kind": "single_ell", "ell": 3, "extra": 1},
])
def test_simulate_bad_target_is_a_config_error(tmp_path, capsys, target):
    spec = _write_spec(tmp_path, target=target)
    assert main(["simulate", "--spec-file", spec,
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("over", [
    {"n": None}, {"n": "abc"}, {"n": 0}, {"n": 2.5}, {"n": 2 ** 63},
    {"seed": "x"}, {"seed": True}, {"seed": -1}, {"seed": 2 ** 64},
    {"replications": None}, {"replications": 0}, {"replications": "5"},
], ids=repr)
def test_simulate_bad_number_is_a_config_error(tmp_path, capsys, over):
    spec = _write_spec(tmp_path, **over)
    assert main(["simulate", "--spec-file", spec,
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_simulate_integral_float_numbers_run(tmp_path, capsys):
    # JSON 32.0 and 9.0 are the integers they spell, as in an experiment config
    spec = _write_spec(tmp_path, n=32.0, seed=9.0, replications=5.0)
    out, ref = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--spec-file", spec, "--out", str(out)]) == 0
    assert main(["simulate", "--spec-file", _write_spec(tmp_path), "--out", str(ref)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == ref.read_bytes()


# ======================================================================
# estimate
# ======================================================================

def test_estimate_hurst(capsys):
    assert main(["estimate", "--mode", "hurst", "--vt", str(2.0 ** 1.4),
                 "--vs", "1.0", "--t", "2", "--s", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.7, abs=1e-12)


def test_estimate_cl_exact(capsys):
    v = exact_mean_vnl(5, 0.8, 64)
    assert main(["estimate", "--mode", "cl", "--v", str(v),
                 "--ell", "5", "--n", "64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.8, rel=1e-12)
    assert payload["variant"] == "exact"
    assert payload["bias_exact"] == 0.0


def test_estimate_cl3_bias_field(capsys):
    assert main(["estimate", "--mode", "cl3", "--v", "0.05",
                 "--ell", "8", "--n", "512"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["variant"] == "v3"
    assert abs(payload["bias_exact"]) < 1e-3
    assert payload["value"] == pytest.approx(0.05 / payload["normalizer"],
                                             rel=1e-15)


def test_estimate_cl2_needs_ratio(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--mode", "cl2", "--v", "1.0",
              "--ell", "16", "--n", "16"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_estimate_classical(capsys):
    coeffs = ",".join(["2.0"] * 7)
    assert main(["estimate", "--mode", "classical", "--coeffs", coeffs,
                 "--ell", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(4.0, rel=1e-15)
    assert payload["normalizer"] == 7.0


def test_estimate_numeric_error_exit(capsys):
    assert main(["estimate", "--mode", "cl", "--v", "-1.0",
                 "--ell", "3", "--n", "8"]) == 1
    assert "numeric error" in capsys.readouterr().err
    # at N = 10⁹ the exact normalizer rounds to 0: an error, not a traceback
    assert main(["estimate", "--mode", "cl", "--v", "1.0",
                 "--ell", "1", "--n", "1000000000"]) == 1
    assert "normalizer degenerate" in capsys.readouterr().err


# ======================================================================
# experiment
# ======================================================================

def _write_config(tmp_path, **over):
    raw = {"seed": 41, "replications": 400,
           "statistics": ["mean", "var"],
           "target": {"kind": "single_ell", "c_ell": 1.0},
           "cells": [[2, 16]], "batch_size": 128}
    raw.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_experiment_writes_report_pair(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    base = tmp_path / "run1"
    assert main(["experiment", "--config", cfg, "--out", str(base),
                 "--threads", "2"]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "run1.json").read_text(encoding="utf-8"))
    assert payload["seed"] == 41
    csv_lines = (tmp_path / "run1.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0].startswith("ell,n,regime,stat,")
    assert len(csv_lines) == 3  # header + mean + var


def test_experiment_worker_invariance(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["experiment", "--config", cfg, "--out", str(a), "--threads", "1"])
    main(["experiment", "--config", cfg, "--out", str(b), "--threads", "4"])
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_experiment_bundled_config_runs(tmp_path, capsys):
    base = tmp_path / "bundled"
    assert main(["experiment", "--config", "regime_sweep", "--reps", "300",
                 "--out", str(base), "--threads", "2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "bundled.csv").exists()


def test_experiment_strict_flags_corrupted_oracle(tmp_path, capsys, monkeypatch):
    # poison the exact-mean oracle; strict mode must notice and exit 3
    monkeypatch.setattr(sphereqv.moments, "exact_mean_vnl",
                        lambda ell, c_ell, n: 999.0)
    cfg = _write_config(tmp_path)
    code = main(["experiment", "--config", cfg, "--out",
                 str(tmp_path / "bad"), "--strict", "--threads", "2"])
    assert code == 3
    assert "oracle disagreement" in capsys.readouterr().err


def test_experiment_error_exit_codes(tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 1
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["experiment", "--config", str(bad_json),
                 "--out", str(tmp_path / "y")]) == 1
    bad_key = _write_config(tmp_path, typo=True)
    assert main(["experiment", "--config", bad_key,
                 "--out", str(tmp_path / "z")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("c_ell", [-1.0, float("nan"), float("inf"), "x", True])
def test_experiment_bad_c_ell_is_a_config_error(tmp_path, capsys, c_ell):
    cfg = _write_config(tmp_path, target={"kind": "single_ell", "c_ell": c_ell})
    assert main(["experiment", "--config", cfg,
                 "--out", str(tmp_path / "r")]) == 2
    assert "config error: c_ell must be" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("over", [
    {"target": {"kind": "full_field",
                "spectrum": {"kind": "explicit", "values": [1, 1, 1, 1], "l_min": -2}}},
    {"cells": [5]},
    {"cells": [[None, 16]]},
    {"cells": [[5]]},
    {"cells": "ab"},
    {"replications": None},
    {"regime": {"kind": "ell_comparable", "c": "x"}},
    {"regime": {"kind": "ell_comparable", "c": float("nan")}},
    {"regime": {"kind": "ell_comparable", "c": float("inf")}},
    {"regime": {"kind": "ell_comparable", "c": 1e308}},
    {"cells": [[2, 10 ** 400]], "regime": {"kind": "ell_comparable", "c": 0.125}},
    {"seed": "abc"},
    {"seed": True},
    {"batch_size": "x"},
    {"statistics": 5},
    {"replications": 10, "statistics": ["mean", "var"]},
    {"replications": 10, "statistics": ["estimator_error"]},
    {"replications": 50, "statistics": ["ks_normal"]},
    {"target": {"kind": "fbm", "hurst": None, "times": [2.0, 1.0],
                "spectrum": {"kind": "explicit", "values": [1.0]}}},
    {"target": {"kind": "fbm", "hurst": 10 ** 400, "times": [2.0, 1.0],
                "spectrum": {"kind": "explicit", "values": [1.0]}}},
    {"target": {"kind": "full_field",
                "spectrum": {"kind": "explicit", "values": [1.0], "l_min": None}}},
    {"target": {"kind": "full_field",
                "spectrum": {"kind": "power_law", "c0": 1.0, "epsilon": 0.5, "l_max": None}}},
    {"target": {"kind": "single_ell", "c_ell": 10 ** 400}},
    {"target": {"kind": "full_field",
                "spectrum": {"kind": "power_law", "c0": 1.0, "epsilon": float("nan"), "l_max": 8}}},
    {"target": {"kind": "full_field",
                "spectrum": {"kind": "explicit", "values": [1.0, float("nan")]}}},
    {"target": {"kind": "fbm", "hurst": 0.5, "times": [float("nan"), 1.0],
                "spectrum": {"kind": "explicit", "values": [1.0]}}},
    {"target": {"kind": "fbm", "hurst": "0.5", "times": [2.0, 1.0],
                "spectrum": {"kind": "explicit", "values": [1.0]}}},
    {"target": {"kind": "full_field",
                "spectrum": {"kind": "power_law", "c0": "1", "epsilon": 0.5, "l_max": 8}}},
    {"target": {"kind": "full_field",
                "spectrum": {"kind": "power_law", "c0": 1.0, "epsilon": 0.5, "l_max": 12.7}}},
    {"target": {"kind": "full_field", "spectrum": {"kind": "explicit", "values": "7"}}},
    {"target": {"kind": "full_field",
                "spectrum": {"kind": "explicit", "values": [1.0], "l_min": True}}},
], ids=["negative_l_min", "cell_not_a_pair", "cell_null_degree", "cell_of_one",
        "cells_string", "replications_null", "regime_c_string", "regime_c_nan",
        "regime_c_inf", "regime_c_overflows", "cell_n_overflows", "seed_string",
        "seed_bool", "batch_string", "statistics_number", "too_few_for_var",
        "too_few_for_estimator", "too_few_for_ks", "hurst_null", "hurst_overflows",
        "l_min_null", "l_max_null", "c_ell_overflows", "epsilon_nan", "value_nan",
        "time_nan", "hurst_string", "c0_string", "l_max_fractional", "values_string",
        "l_min_bool"])
def test_experiment_bad_config_exits_2_before_sampling(tmp_path, capsys, over):
    cfg = _write_config(tmp_path, **over)
    assert main(["experiment", "--config", cfg,
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_experiment_reps_override_is_checked_against_statistics(tmp_path, capsys):
    cfg = _write_config(tmp_path, statistics=["ks_normal"])
    assert main(["experiment", "--config", cfg, "--reps", "99",
                 "--out", str(tmp_path / "r")]) == 2
    assert "need at least 100 replications, got 99" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


# ======================================================================
# specfun-check and help
# ======================================================================

def test_specfun_check_passes(capsys):
    assert main(["specfun-check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "bessel" not in out
    assert "FAIL" not in out
    assert "PASS  harmonic stack vs per-degree tables, l_max=512, N=1024: max error 0.000e+00" in out


def test_help_documents_units(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--help"])
    assert exc.value.code == 0
    assert "radians" in capsys.readouterr().out


def test_console_entry_point_runs(tmp_path):
    # the installed script must behave like main(): golden row + exit codes
    env = _child_env()
    spec = _write_spec(tmp_path)
    out = tmp_path / "cli.csv"
    run = subprocess.run(
        [sys.executable, "-m", "sphereqv.cli", "simulate",
         "--spec-file", spec, "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert run.returncode == 0
    assert out.read_text(encoding="utf-8").splitlines()[1].split(",")[2] == "9:0:3"
    bad = subprocess.run(
        [sys.executable, "-m", "sphereqv.cli", "moments", "--ell", "0",
         "--n", "4", "--cl", "1"],
        capture_output=True, text=True, env=env)
    assert bad.returncode == 2


def test_import_loads_no_scipy_until_a_call_needs_it():
    # in a fresh interpreter, importing the package loads neither scipy.linalg
    # nor scipy.special, and a whole moments call loads no scipy submodule
    code = ("import sys\n"
            "import sphereqv.cli as cli\n"
            "assert not {'scipy.linalg', 'scipy.special'} & set(sys.modules)\n"
            "assert cli.main(['moments', '--ell', '8', '--n', '64', '--cl', '1']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.')))\n")
    run = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=_child_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
