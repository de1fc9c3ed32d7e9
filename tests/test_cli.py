"""Command line interface: outputs, exit codes, determinism."""

import ast
import contextlib
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphereqv.covariance
import sphereqv.moments
import sphereqv.simulate
from sphereqv import cli, harness
from sphereqv.cli import main
from sphereqv.moments import exact_mean_vnl


def _parse_table(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, val = line.split()
        pairs[key] = float(val)
    return pairs


def _exit_code(argv):
    """main's exit status, returned or raised by argparse at a flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
    # out of reach of the dense N×N Gram; the (l+1)×(l+1) core handles it
    assert main(["moments", "--ell", "8", "--n", "1000000", "--cl", "0.5"]) == 0
    table = _parse_table(capsys.readouterr().out)
    assert all(math.isfinite(v) for v in table.values())
    assert table["variance"] > 0 and table["normalized_k4"] > 0


def test_moments_core_path_builds_no_row(monkeypatch, capsys):
    # every printed value of a core-path cell comes from the 9×9 core and the
    # scalar mean: the O(lN) Gram row (40 MB at N = 10⁶) is never formed
    argv = ["moments", "--ell", "8", "--n", "1000000", "--cl", "0.5"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    want = capsys.readouterr().out
    monkeypatch.setattr(sphereqv.covariance, "increment_row_fl",
                        lambda *a: pytest.fail("formed the Gram row"))
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_moments_unallocatable_grid_is_one_line_error(capsys):
    # a 10¹⁵-increment grid is refused by the memory estimate up front
    assert main(["moments", "--ell", "8", "--n", "1000000000000000",
                 "--cl", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_moments_beyond_physical_memory_exits_2_before_allocating(monkeypatch, capsys):
    # N = 10¹² needs 36 TiB for the Gram row's Legendre sweep
    monkeypatch.setattr(cli, "increment_gram_fl",
                        lambda *a: pytest.fail("allocated past the estimate"))
    assert main(["moments", "--ell", "8", "--n", "1000000000000", "--cl", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: l=8, N=1000000000000 needs ")
    assert "Gram row and core" in err and "physical memory" in err


def test_moments_memory_estimate_follows_the_chosen_path(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2 ** 20)
    # l+1 > N: the dense 512×512 Gram is 2 MiB
    assert main(["moments", "--ell", "600", "--n", "512", "--cl", "1"]) == 2
    assert "dense Gram" in capsys.readouterr().err
    # l+1 ≤ N: the Gram row's sweep and the 9×9 core fit
    assert main(["moments", "--ell", "8", "--n", "4096", "--cl", "1"]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(cli, "_physical_memory", lambda: None)  # unknown: no check
    assert main(["moments", "--ell", "600", "--n", "512", "--cl", "1"]) == 0


@pytest.mark.parametrize("ell, n, old_need", [
    (8, 10 ** 6, 8 * (10 ** 6 + 1)),  # core path: the Gram row alone
    (600, 512, 8 * 512 * 512),        # dense path: one N×N Gram
])
def test_moments_estimate_counts_the_peak_not_one_array(monkeypatch, capsys, ell, n, old_need):
    # the run peaks near twice its largest array: memory between one and
    # two of it passed a one-array estimate and then ran out
    monkeypatch.setattr(cli, "_physical_memory", lambda: 3 * old_need // 2)
    monkeypatch.setattr(cli, "increment_gram_fl",
                        lambda *a: pytest.fail("allocated past the estimate"))
    assert main(["moments", "--ell", str(ell), "--n", str(n), "--cl", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: l={ell}, N={n} needs ")


@pytest.mark.parametrize("ell, n", [
    (1, 2 ** 20), (8, 4096), (8, 10 ** 6), (255, 512), (600, 512)])
def test_moments_estimate_covers_the_measured_peak(capsys, ell, n):
    # both paths: the Gram row's sweep, the (l+1)×(l+1) core, the dense N×N
    need, _ = cli._moments_need(ell, n)
    tracemalloc.start()
    try:
        assert main(["moments", "--ell", str(ell), "--n", str(n), "--cl", "1"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= need


@pytest.mark.parametrize("ell", [100, 200])
def test_moments_fixed_ell_estimate_covers_the_quadrature_peak(capsys, ell):
    # K_l's Gauss–Legendre rule of 10·l nodes once outweighed the core path
    # here; with the closed form the regime's run fits the core path's estimate
    argv = ["moments", "--ell", str(ell), "--n", "512", "--cl", "1"]
    need, what = cli._moments_need(ell, 512)
    tracemalloc.start()
    try:
        assert main([*argv, "--regime", "fixed_ell"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= need
    assert "quadrature" not in what


def test_moments_fixed_ell_quadrature_beyond_physical_memory_exits_2(monkeypatch, capsys):
    # (1023, 4096) needed 840 MB with the regime's old 10230-node rule; twice
    # the core path's 42 MB now runs it, and less than that is still refused
    core_need, _ = cli._moments_need(1023, 4096)
    argv = ["moments", "--ell", "1023", "--n", "4096", "--cl", "1", "--regime", "fixed_ell"]
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2 * core_need)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_physical_memory", lambda: core_need // 2)
    monkeypatch.setattr(cli, "increment_gram_fl",
                        lambda *a: pytest.fail("allocated past the estimate"))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: l=1023, N=4096 needs ")
    assert "quadrature" not in err


def test_moments_fixed_ell_regime_adds_no_quadrature(capsys):
    # K_l is a sum of l+1 squares: the regime block stays within the core
    # path's estimate at (1023, 4096), and a degree far past the grid runs
    argv = ["moments", "--ell", "1023", "--n", "4096", "--cl", "1", "--regime", "fixed_ell"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cli._moments_need(1023, 4096)[0]
    assert main(["moments", "--ell", "100000", "--n", "10", "--cl", "1",
                 "--regime", "fixed_ell"]) == 0
    table = _parse_table(capsys.readouterr().out)
    assert table["asymptotic_var"] > 0 and math.isfinite(table["var_ratio"])


@pytest.mark.parametrize("regime", [
    ["ell_faster"], ["ell_slower"], ["ell_comparable", "--regime-c", "1"]], ids=" ".join)
def test_moments_log_regime_on_one_increment_exits_2(capsys, regime):
    # ln N = 0 at N = 1 leaves these regimes no asymptotic variance to divide
    # by; asymptotic_var refuses it, before the Gram is built
    assert main(["moments", "--ell", "3", "--n", "1", "--cl", "1", "--regime", *regime]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: regime {regime[0]} requires N ≥ 2, got N=1: "
                                 "its asymptotic variance carries ln N\n")


@pytest.mark.parametrize("flags", [
    ["--cl", "nan"], ["--cl", "inf"], ["--cl", "-1"], ["--cl", "0"], ["--cl", "x"],
    ["--cl", "1", "--regime", "ell_comparable", "--regime-c", "nan"],
    ["--cl", "1", "--regime", "ell_comparable", "--regime-c=-inf"],
    ["--cl", "1", "--regime", "ell_comparable", "--regime-c", "0"],
], ids=" ".join)
def test_moments_non_finite_or_non_positive_numbers_exit_2(capsys, flags):
    assert _exit_code(["moments", "--ell", "3", "--n", "16", *flags]) == 2
    out, err = capsys.readouterr()
    # a non-finite number is refused at the flag, a finite c ≤ 0 by RegimeTag
    if flags[-2:] == ["--regime-c", "0"]:
        assert out == "" and err == "error: ell_comparable requires a finite c > 0, got 0.0\n"
    else:
        assert out == "" and "must be a finite number" in err


@pytest.mark.parametrize("c, stand_in", [("1e-170", "0.0"), ("1e-160", "6.17e-321")])
def test_moments_matched_growth_stand_in_below_normal_exits_1(capsys, c, stand_in):
    # below c ≈ 1.9e-154 1 − J₀(πc/2) is subnormal (at 1e-160) or rounds to 0
    # (at 1e-170); mean_ratio would read inf or divide by zero
    assert main(["moments", "--ell", "3", "--n", "4", "--cl", "1",
                 "--regime", "ell_comparable", "--regime-c", c]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numeric error: ell_comparable stand-in 1 − J₀(πc/2) "
                   f"degenerate ({stand_in}) at c={c}\n")


# scales whose cumulant sums overflow (1e300, 1e40 at κ8) or run in
# subnormals (1e-40 at κ8, 1e-300), refused by the experiment's scale checks
@pytest.mark.parametrize("flags", [
    ["--cl", "1e300"], ["--cl", "1e40", "--p-max", "8"],
    ["--cl", "1e-40", "--p-max", "8"], ["--cl", "1e-300"],
], ids=" ".join)
def test_moments_scale_its_sums_cannot_hold_exits_2(monkeypatch, capsys, flags):
    monkeypatch.setattr(cli, "increment_gram_fl",
                        lambda *a: pytest.fail("built the Gram past the scale checks"))
    assert main(["moments", "--ell", "8", "--n", "64", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_moments_scale_beyond_the_basis_bound_prints_the_overflow_line(capsys):
    # moments builds no sampler basis, so the cell rule, not SingleEll's bound
    # on 2·c_ell, refuses a C_l this large
    assert main(["moments", "--ell", "3", "--n", "16", "--cl", "1e308"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: 4N times the pointwise variance is inf at N=16: V could")


def test_moments_small_scale_within_the_floor_keeps_its_shape(capsys):
    # normalized cumulants are scale free: at 1e-36 κ8/κ2⁴ reads as at C_l = 1
    argv = ["moments", "--ell", "8", "--n", "64", "--p-max", "8", "--cl"]
    assert main([*argv, "1e-36"]) == 0
    small = _parse_table(capsys.readouterr().out)
    assert main([*argv, "1"]) == 0
    unit = _parse_table(capsys.readouterr().out)
    assert small["normalized_k8"] == pytest.approx(unit["normalized_k8"], rel=1e-12)


@pytest.mark.parametrize("size", ["full", "smoke"])
def test_moments_benchmark_call_passes_the_scale_checks(tmp_path, monkeypatch, capsys, size):
    # the CI's two moments cells run in test_moments_grid_of_a_million and
    # test_moments_fixed_ell_regime_adds_no_quadrature
    workloads = _perfbench_workloads(monkeypatch)
    (call,) = workloads.build("moments_large_n", workloads.DEFAULT_SEED,
                              str(tmp_path), size).calls
    assert main(call.argv) == 0
    assert capsys.readouterr().err == ""


def test_moments_comparable_needs_ratio(capsys):
    assert main(["moments", "--ell", "8", "--n", "8", "--cl", "1",
                 "--regime", "ell_comparable"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: ell_comparable requires a finite c > 0, got None\n"


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


def test_simulate_draws_an_experiments_default_batches(tmp_path, capsys, monkeypatch):
    # one partition of replications into batches for both commands, so a CSV's
    # values are those an experiment at the default batch_size samples
    from sphereqv import harness

    batch, seen = harness.batch_quadratic_variation, []

    def record(spec, start, count):
        seen.append((start, count))
        return batch(spec, start, count)

    monkeypatch.setattr(harness, "batch_quadratic_variation", record)
    spec = _write_spec(tmp_path, replications=2500)
    assert main(["simulate", "--spec-file", spec, "--out", str(tmp_path / "v.csv")]) == 0
    capsys.readouterr()
    size = harness.ExperimentConfig.from_dict({
        "seed": 0, "replications": 2, "statistics": ["mean"],
        "target": {"kind": "single_ell"}, "cells": [[3, 16]]}).batch_size
    assert seen == [(0, size), (size, size), (2 * size, 2500 - 2 * size)]


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


# (file name, bytes, the decoder's message) of spec and config files that are not UTF-8 JSON
_NOT_UTF8_JSON = [
    ("bad.json", b"{not json",
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("latin1.json", b'{"n": 32, "seed": "\xff"}',
     "'utf-8' codec can't decode byte 0xff in position 19: invalid start byte"),
]


def test_simulate_error_exit_codes(tmp_path, capsys):
    assert main(["simulate", "--spec-file", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")]) == 1
    bad = _write_spec(tmp_path, extra_key=1)
    assert main(["simulate", "--spec-file", bad,
                 "--out", str(tmp_path / "y.csv")]) == 2
    capsys.readouterr()
    for name, data, why in _NOT_UTF8_JSON:
        bad = tmp_path / name
        bad.write_bytes(data)
        assert main(["simulate", "--spec-file", str(bad), "--out", str(tmp_path / "y.csv")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: {why}\n"
    assert not (tmp_path / "y.csv").exists()


@pytest.mark.parametrize("target", [
    {"kind": "single_ell"},
    {"kind": "single_ell", "ell": 0},
    {"kind": "single_ell", "ell": 2.5},
    {"kind": "single_ell", "ell": "3"},
    {"kind": "single_ell", "ell": 3, "c_ell": "x"},
    {"kind": "single_ell", "ell": 3, "c_ell": -1.0},
    {"kind": "single_ell", "ell": 3, "c_ell": float("nan")},
    {"kind": "single_ell", "ell": 3, "extra": 1},
    {"kind": "fbm", "hurst": 0.7, "times": [1.7e308, 1.0],
     "spectrum": {"kind": "explicit", "values": [1.0]}},
    {"kind": "fbm", "hurst": 0.7, "times": [1], "spectrum": {"kind": "explicit", "values": [1.0]}},
    {"kind": "fbm", "hurst": 0.7, "times": [1, 2, 3],
     "spectrum": {"kind": "explicit", "values": [1.0]}},
    # finite spectrum scales whose sampler basis √(2·c_l), √(4π·A_l) overflows
    {"kind": "single_ell", "ell": 3, "c_ell": 1.7e308},
    {"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0],
     "spectrum": {"kind": "power_law", "c0": 1.7e308, "epsilon": 0.2, "l_max": 8}},
    {"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0],
     "spectrum": {"kind": "explicit", "values": [1.0, 1.5e307], "l_min": 2}},
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


def test_simulate_beyond_physical_memory_exits_2_before_sampling(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sphereqv.simulate, "batch_quadratic_variation",
                        lambda *a: pytest.fail("sampled"))
    out = tmp_path / "x.csv"
    # N = 10¹² asks for a 7.3 TiB path even for one replication
    spec = _write_spec(tmp_path, n=10 ** 12, replications=1)
    assert main(["simulate", "--spec-file", spec, "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert err.startswith("error: sample spec (N=1000000000000, replications=1) needs ")
    # 1024 replications of a 1024-increment path are an 8 MiB batch
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2 ** 20)
    spec = _write_spec(tmp_path, n=1024, replications=4096)
    assert main(["simulate", "--spec-file", spec, "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert err.startswith("error: sample spec (N=1024, replications=4096) needs ")
    assert "for its batch paths, more than" in err
    assert not out.exists()


# Sample specs with every size capped: n ≤ 64, replications ≤ 4, degrees
# and l_max ≤ 8. Each value is a valid one three draws in four and else any
# JSON value (a size only at or below its cap), so about one spec in five
# samples, in milliseconds, and the rest probe one check or a few
def _mostly(valid, junk):
    return st.integers(0, 3).flatmap(lambda k: junk if k == 0 else valid)


def _size(cap):
    return _mostly(st.integers(1, cap), st.integers(max_value=cap) | st.floats(max_value=cap)
                   | st.sampled_from([None, True, "3", 2.5, float("nan"), float("inf")]))


_ANY = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
        | st.sampled_from([2 ** 63, 2 ** 64, 1.7e308, 1e-300, -0.0]))
_POSITIVE = _mostly(st.floats(0.1, 10.0), _ANY)
_SPECTRUM = _mostly(
    st.fixed_dictionaries({"kind": st.just("power_law"), "c0": _POSITIVE,
                           "epsilon": _POSITIVE, "l_max": _size(8)})
    | st.fixed_dictionaries({"kind": st.just("explicit"),
                             "values": st.lists(_POSITIVE, min_size=1, max_size=3)},
                            optional={"l_min": _mostly(st.integers(1, 6), _size(6))}),
    _ANY)
_TARGET = _mostly(
    st.fixed_dictionaries({"kind": st.just("single_ell"), "ell": _size(8),
                           "c_ell": _POSITIVE})
    | st.fixed_dictionaries({"kind": st.just("full_field"), "spectrum": _SPECTRUM})
    | st.fixed_dictionaries({"kind": st.just("fbm"),
                             "hurst": _mostly(st.floats(0.05, 0.95), _ANY),
                             "spectrum": _SPECTRUM,
                             "times": _mostly(st.lists(_POSITIVE, min_size=2, max_size=2),
                                              st.lists(_ANY, max_size=3))}),
    _ANY)
_SAMPLE_SPEC = _mostly(
    st.fixed_dictionaries({"target": _TARGET, "n": _size(64)},
                          optional={"seed": _mostly(st.integers(0, 2 ** 64 - 1), _ANY),
                                    "replications": _size(4)}),
    _ANY | st.fixed_dictionaries({}, optional={"target": _TARGET, "n": _size(64),
                                               "extra": _ANY}))


@settings(max_examples=300, deadline=None)
@given(_SAMPLE_SPEC)
def test_any_sample_spec_samples_or_exits_2(raw):
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "x.csv")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(["simulate", "--spec-file", spec, "--out", out])
        if rc == 0:
            assert os.path.exists(out)
        else:
            assert rc == 2, stderr.getvalue()
            assert stderr.getvalue().count("\n") == 1 and stdout.getvalue() == ""
            assert not os.path.exists(out)


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


@pytest.mark.parametrize("argv", [
    ["--mode", "cl", "--v", "nan", "--ell", "3", "--n", "8"],
    ["--mode", "cl", "--v", "inf", "--ell", "3", "--n", "8"],
    ["--mode", "cl2", "--v", "1", "--ell", "3", "--n", "8", "--c", "nan"],
    ["--mode", "classical", "--coeffs", "1,nan,2", "--ell", "1"],
    ["--mode", "classical", "--coeffs", "1,a,2", "--ell", "1"],
    ["--mode", "hurst", "--vt", "inf", "--vs", "1", "--t", "2", "--s", "1"],
    ["--mode", "hurst", "--vt", "1", "--vs=-inf", "--t", "2", "--s", "1"],
    ["--mode", "hurst", "--vt", "2", "--vs", "1", "--t", "nan", "--s", "1"],
    ["--mode", "hurst", "--vt", "2", "--vs", "1", "--t", "2", "--s", "1e999"],
], ids=" ".join)
def test_estimate_non_finite_numbers_exit_2(capsys, argv):
    # rejected at the flag; finite flags whose estimate overflows stop at the
    # JSON (test_estimate_overflowing_value_prints_nothing)
    with pytest.raises(SystemExit) as exc:
        main(["estimate", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be a finite number" in err


@pytest.mark.parametrize("argv", [
    *(["--mode", mode, "--v", "-1.0", "--ell", "3", "--n", "8"]
      for mode in ("cl", "cl1", "cl3")),
    ["--mode", "cl2", "--v", "-1.0", "--ell", "3", "--n", "8", "--c", "0.5"],
    ["--mode", "hurst", "--vt", "2", "--vs", "1", "--t", "1", "--s", "1"],
    ["--mode", "hurst", "--vt", "0", "--vs", "1", "--t", "2", "--s", "1"],
    ["--mode", "hurst", "--vt", "2", "--vs", "1", "--t", "-2", "--s", "1"],
    ["--mode", "cl2", "--v", "1", "--ell", "3", "--n", "8", "--c", "0"],
    ["--mode", "classical", "--coeffs", "1,2,3", "--ell", "3"],
], ids=" ".join)
def test_estimate_domain_errors_exit_2(capsys, argv):
    # each estimator refuses its own inputs; the command maps the ValueError
    # to one error line and exit 2
    assert main(["estimate", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--mode", "cl", "--v", "1e308", "--ell", "8", "--n", "4096"],
], ids=" ".join)
def test_estimate_overflowing_value_prints_nothing(capsys, argv):
    # finite flags, an infinite estimate: a numeric error, never Infinity as JSON
    assert main(["estimate", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric error: ")


@pytest.mark.parametrize("vt, vs, sign", [("1e308", "1e-308", 1), ("1e-308", "1e308", -1)],
                         ids=["v_overflow", "v_underflow"])
def test_estimate_hurst_ratio_beyond_the_float_range_is_finite(capsys, vt, vs, sign):
    # v_t/v_s leaves the float range, Ĥ = (ln v_t − ln v_s)/(2 ln 2) does not:
    # strict JSON and exit 0, with the (0, 1) warning
    with pytest.warns(UserWarning, match="outside"):
        assert main(["estimate", "--mode", "hurst", "--vt", vt, "--vs", vs,
                     "--t", "2", "--s", "1"]) == 0
    out, err = capsys.readouterr()
    value = json.loads(out, parse_constant=pytest.fail)["value"]
    assert value == pytest.approx(sign * 1023.1538532253, rel=1e-12) and err == ""


@pytest.mark.parametrize("argv", [
    ["moments", "--ell", "3", "--n", "16", "--cl", "1", "--regime", "fixed_ell",
     "--regime-c", "3"],
    ["moments", "--ell", "3", "--n", "16", "--cl", "1", "--regime-c", "3"],
    ["estimate", "--mode", "cl1", "--v", "1", "--ell", "3", "--n", "4", "--c", "-5"],
    ["estimate", "--mode", "hurst", "--vt", "2", "--vs", "1", "--t", "2", "--s", "1",
     "--c", "1"],
], ids=" ".join)
def test_ratio_flag_a_command_ignores_exits_2(capsys, argv):
    # the ratio was dropped in silence and the command exited 0; under a
    # regime RegimeTag refuses it, with none the parser does
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    if argv[0] == "estimate":
        line = {"cl1": "mode cl1 reads only --v --ell --n, not --c",
                "hurst": "mode hurst reads only --vt --vs --t --s, not --c"}[argv[2]]
    elif "--regime" in argv:
        line = "regime fixed_ell carries no ratio c, got 3.0"
    else:
        line = "--regime-c is read by --regime ell_comparable only"
    assert out == "" and err.endswith(f"error: {line}\n")


@pytest.mark.parametrize("argv", [
    ["--mode", "cl", "--v", "1", "--ell", "3", "--n", "8", "--coeffs", "1,2,3"],
    ["--mode", "cl1", "--v", "1", "--ell", "3", "--n", "8", "--t", "2"],
    ["--mode", "cl2", "--v", "1", "--ell", "3", "--n", "8", "--c", "1", "--vs", "1"],
    ["--mode", "cl3", "--v", "1", "--ell", "3", "--n", "8", "--vt", "1"],
    ["--mode", "classical", "--coeffs", "1,2,3", "--ell", "1", "--n", "8"],
    ["--mode", "hurst", "--vt", "2", "--vs", "1", "--t", "2", "--s", "1", "--v", "5",
     "--ell", "3"],
], ids=" ".join)
def test_estimate_flag_its_mode_does_not_read_exits_2(capsys, argv):
    # hurst printed {"value": 0.5} and exited 0 with --v and --ell dropped
    with pytest.raises(SystemExit) as exc:
        main(["estimate", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: mode {argv[1]} reads only --" in err


def test_estimate_numeric_error_exit(capsys):
    # a negative V is malformed input, refused at the boundary
    assert main(["estimate", "--mode", "cl", "--v", "-1.0",
                 "--ell", "3", "--n", "8"]) == 2
    assert "quadratic variation must be non-negative, got -1.0" in capsys.readouterr().err
    # at N = 10⁹ the exact normalizer rounds to 0: an error, not a traceback
    assert main(["estimate", "--mode", "cl", "--v", "1.0",
                 "--ell", "1", "--n", "1000000000"]) == 1
    assert "normalizer degenerate" in capsys.readouterr().err


def test_estimate_degenerate_variant_normalizer_exits_1(capsys):
    # 1 − J₀(πc/2) rounds to 0 at c = 1e-163, where (πc/4)² underflows: one
    # stderr line, nothing on stdout
    assert main(["estimate", "--mode", "cl2", "--v", "1", "--ell", "3", "--n", "4",
                 "--c", "1e-163"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "variant 2 normalizer degenerate" in err


def test_estimate_variant_two_at_a_small_ratio_succeeds(capsys):
    # 1 − J₀(πc/2) read 0 at c = 1e-8 and the command exited 1
    assert main(["estimate", "--mode", "cl2", "--v", "1", "--ell", "3", "--n", "4",
                 "--c", "1e-8"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["normalizer"] > 0 and math.isfinite(res["value"])


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


def test_fbm_experiment_reports_are_worker_invariant(tmp_path, capsys, monkeypatch):
    # four fractional-pair batches of several degree chunks each, every one
    # drawn beside the draw helper thread; the flag changes no byte
    from sphereqv import simulate
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 200)
    target = {"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0],
              "spectrum": {"kind": "power_law", "c0": 1.0, "epsilon": 0.2, "l_max": 40}}
    cfg = _write_config(tmp_path, replications=200, batch_size=50, target=target,
                        statistics=["mean", "var", "ks_normal", "hurst"], cells=[[1, 32]])
    for threads in ("1", "2"):
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / threads),
                     "--threads", threads]) == 0
    capsys.readouterr()
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()


def test_experiment_worker_count_comes_from_flags_alone(tmp_path, capsys, monkeypatch):
    # the retired SPHEREQV_THREADS variable is ignored, malformed or not
    monkeypatch.setenv("SPHEREQV_THREADS", "abc")
    cfg = _write_config(tmp_path)
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert capsys.readouterr().err == ""


def test_experiment_threads_above_the_bound_exit_2_at_the_flag(tmp_path, capsys, monkeypatch):
    # refused while parsing flags: no config is read (it does not exist) and
    # no worker starts
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    assert cli._positive_int(str(cli._MAX_THREADS), cli._MAX_THREADS) == cli._MAX_THREADS
    for threads in ("0", str(cli._MAX_THREADS + 1), "100000", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(tmp_path / "missing.json"),
                  "--threads", threads])
        assert exc.value.code == 2
        assert "--threads: must be" in capsys.readouterr().err


@pytest.mark.parametrize("command, value, message", [
    (["experiment", "--config", "regime_sweep"], "abc", "must be an integer, got 'abc'"),
    (["experiment", "--config", "regime_sweep"], "1.5", "must be an integer, got '1.5'"),
    (["simulate", "--spec-file", "missing.json"], "abc", "must be an integer, got 'abc'"),
    (["experiment", "--config", "regime_sweep"], "-1",
     "seed must be an unsigned 64-bit integer"),
    (["simulate", "--spec-file", "missing.json"], str(2 ** 64),
     "seed must be an unsigned 64-bit integer"),
], ids=["experiment-abc", "experiment-1.5", "simulate-abc", "experiment-minus-1",
        "simulate-2^64"])
def test_bad_seed_exits_2_at_the_flag(capsys, monkeypatch, command, value, message):
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        main([*command, f"--seed={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--seed: {message}" in err and "_u64" not in err


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


def test_experiment_strict_fails_a_degenerate_pair(tmp_path, capsys, monkeypatch):
    # the comonotone pair fault: a cross term r = t^H s^H leaves l11 = 0, so
    # every Ĥ equals H to rounding and the hurst_median jackknife SE reads 0;
    # strict mode counts that row as failed, not as unchecked
    monkeypatch.setattr(sphereqv.simulate, "rh_cross", lambda h, t, s: (t * s) ** h)
    spectrum = {"kind": "power_law", "c0": 1.0, "epsilon": 0.2, "l_max": 16}
    cfg = _write_config(tmp_path, replications=1000, batch_size=500,
                        statistics=["mean", "var", "hurst"], cells=[[1, 32]],
                        target={"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0],
                                "spectrum": spectrum})
    code = main(["experiment", "--config", cfg, "--out",
                 str(tmp_path / "bad"), "--strict", "--threads", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "oracle disagreement: hurst_median at (l=1, N=32) off by inf SE" in err
    assert "strict mode: 2/3 statistics within 4 SE" in err


def test_experiment_strict_passes_with_its_count(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = main(["experiment", "--config", cfg, "--out",
                 str(tmp_path / "good"), "--strict", "--threads", "1"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "strict mode: 2/2 statistics within 4 SE"


def test_experiment_strict_fails_when_no_row_is_checked(tmp_path, capsys):
    # ks_normal's exact column is a paired diagnostic, not an oracle: a run
    # of it alone checks nothing, which must not pass as 0/0; it still
    # writes its report pair
    cfg = _write_config(tmp_path, replications=200, statistics=["ks_normal"],
                        cells=[[3, 16]])
    base = tmp_path / "ks"
    code = main(["experiment", "--config", cfg, "--out", str(base), "--strict"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == "strict mode: 0/0 statistics within 4 SE (threshold 95%)\n"
    assert (tmp_path / "ks.json").exists() and (tmp_path / "ks.csv").exists()


def test_experiment_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    assert main(["experiment", "--config", str(cfg), "--seed", "3",
                 "--out", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: config must be a JSON object\n"
    assert not (tmp_path / "r.json").exists()


def _without(raw, key):
    return {k: v for k, v in raw.items() if k != key}


def _field(spectrum):
    return {"kind": "full_field", "spectrum": spectrum}


# (command, the fault applied to its valid config or sample spec, the refusal):
# each object the rule guards, not an object, with an unknown key and, where
# it has one, without a required key
_MALFORMED_OBJECTS = [
    ("experiment", lambda raw: [raw], "config must be a JSON object"),
    ("experiment", lambda raw: {**raw, "typo": 1}, "unknown config keys ['typo']"),
    ("experiment", lambda raw: _without(raw, "cells"), "missing config key 'cells'"),
    ("experiment", lambda raw: {**raw, "target": _field([1.0])},
     "spectrum must be a JSON object"),
    ("experiment", lambda raw: {**raw, "target": _field(
        {"kind": "explicit", "values": [1.0], "l_max": 1})}, "unknown spectrum keys ['l_max']"),
    ("experiment", lambda raw: {**raw, "target": "single_ell"}, "target must be a JSON object"),
    ("experiment", lambda raw: {**raw, "target": {"kind": "single_ell", "ell": 2}},
     "unknown target keys ['ell']"),
    ("experiment", lambda raw: {**raw, "target": {"c_ell": 1.0}}, "missing target key 'kind'"),
    ("experiment", lambda raw: {**raw, "regime": "fixed_ell"}, "regime must be a JSON object"),
    ("experiment", lambda raw: {**raw, "regime": {"kind": "fixed_ell", "ratio": 1}},
     "unknown regime keys ['ratio']"),
    ("simulate", lambda raw: [raw], "sample spec must be a JSON object"),
    ("simulate", lambda raw: {**raw, "typo": 1}, "unknown sample spec keys ['typo']"),
    ("simulate", lambda raw: _without(raw, "target"), "missing sample spec key 'target'"),
    ("simulate", lambda raw: _without(raw, "n"), "missing sample spec key 'n'"),
    ("simulate", lambda raw: {**raw, "target": 3}, "target must be a JSON object"),
    ("simulate", lambda raw: {**raw, "target": {"ell": 3}}, "missing target key 'kind'"),
]


@pytest.mark.parametrize("command, fault, message", _MALFORMED_OBJECTS,
                         ids=[f"{c}-{m}" for c, _, m in _MALFORMED_OBJECTS])
def test_one_rule_refuses_every_malformed_object(tmp_path, capsys, command, fault, message):
    path = pathlib.Path(_write_config(tmp_path) if command == "experiment"
                        else _write_spec(tmp_path))
    path.write_text(json.dumps(fault(json.loads(path.read_text()))), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    flag, out = ("--config", "r") if command == "experiment" else ("--spec-file", "s.csv")
    assert main([command, flag, str(path), "--out", str(out_dir / out)]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not any(out_dir.iterdir())


@pytest.mark.parametrize("command", ["experiment", "simulate"])
def test_input_nested_too_deeply_to_decode_exits_2(tmp_path, capsys, command):
    # the decoder takes one frame per level, so 10,000 levels pass the
    # interpreter's recursion limit inside json.loads
    deep = "[" * 10_000 + "]" * 10_000
    path = tmp_path / "deep.json"
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if command == "experiment":
        path.write_text(deep, encoding="utf-8")
        argv, what = ["--config", str(path), "--out", str(out_dir / "r")], "config"
    else:
        path.write_text('{"target": %s, "n": 16}' % deep, encoding="utf-8")
        argv, what = ["--spec-file", str(path), "--out", str(out_dir / "s.csv")], "sample spec"
    assert main([command, *argv]) == 2
    assert capsys.readouterr() == ("", f"config error: {what} is nested too deeply to decode\n")
    assert not any(out_dir.iterdir())


@pytest.mark.parametrize("fault", [AttributeError, ValueError, OSError])
def test_physical_memory_unknown_when_sysconf_fails(monkeypatch, capsys, fault):
    def sysconf(name):
        raise fault(name)

    monkeypatch.setattr(os, "sysconf", sysconf)
    assert cli._physical_memory() is None
    # unknown memory skips the check: the cell still prints
    assert main(["moments", "--ell", "3", "--n", "16", "--cl", "1"]) == 0
    assert _parse_table(capsys.readouterr().out)["mean"] > 0


def test_out_of_memory_exits_1(monkeypatch, capsys):
    def gram(*args):
        raise MemoryError("Unable to allocate 8.0 GiB")

    monkeypatch.setattr(cli, "increment_gram_fl", gram)
    assert main(["moments", "--ell", "3", "--n", "16", "--cl", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory: Unable to allocate 8.0 GiB\n"


def _command_outputs(tmp_path, out):
    """Each command's argv writing to paths under ``out``, with those paths."""
    spec = _write_spec(tmp_path, n=16)
    cfg = _write_config(tmp_path, replications=40)
    return [(["experiment", "--config", cfg, "--threads", "1", "--out", str(out / "r")],
             [out / "r.json", out / "r.csv"]),
            (["simulate", "--spec-file", spec, "--out", str(out / "s.csv")], [out / "s.csv"]),
            (["moments", "--ell", "3", "--n", "16", "--cl", "1", "--csv", str(out / "m.csv")],
             [out / "m.csv"])]


def test_every_output_file_over_a_longer_one_holds_exactly_its_new_bytes(tmp_path, capsys):
    # no tail of the longer file it replaces survives
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    fresh.mkdir()
    stale.mkdir()
    for (argv, paths), (stale_argv, stale_paths) in zip(
            _command_outputs(tmp_path, fresh), _command_outputs(tmp_path, stale)):
        assert main(argv) == 0
        for path in stale_paths:
            path.write_bytes(b"old,bytes\n" * 5000)
            path.chmod(0o640)
        assert main(stale_argv) == 0
        for path, stale_path in zip(paths, stale_paths):
            assert stale_path.read_bytes() == path.read_bytes()
            assert stale_path.stat().st_mode & 0o777 == 0o640
    capsys.readouterr()


def test_output_to_a_device_that_cannot_be_cut_exits_0(tmp_path, capsys):
    # /dev/null refuses ftruncate: a writer that cuts its file would exit 1
    for argv, _ in _command_outputs(tmp_path, tmp_path)[1:]:
        argv[-1] = os.devnull
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("where", ["under_a_file", "missing", "directories", "denied"])
def test_an_unwritable_output_exits_1_before_any_draw_or_gram(
        tmp_path, capsys, monkeypatch, where):
    # the outputs are checked first: simulate sampled an fbm-size spec for
    # seconds, and moments printed its whole table, before exiting 1; the
    # check creates nothing (experiment makes a missing directory, so a
    # missing one is writable there)
    monkeypatch.setattr(harness, "_sample_cell", lambda *a, **k: pytest.fail("sampled"))
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("ran"))
    monkeypatch.setattr(cli, "increment_gram_fl", lambda *a, **k: pytest.fail("Gram built"))
    out = tmp_path / where
    if where == "under_a_file":
        out.write_bytes(b"a file\n")
    if where in ("directories", "denied"):
        out.mkdir()
    commands = _command_outputs(tmp_path, out)
    if where == "directories":
        for _, paths in commands:
            for path in paths:
                path.mkdir()
    if where == "denied":
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode, **kw: (
            not str(path).startswith(str(out)) and access(path, mode, **kw)))
    before = sorted(tmp_path.rglob("*"))
    for argv, paths in commands[where == "missing":]:
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith("error: ") and f"'{paths[0]}'" in err
    assert sorted(tmp_path.rglob("*")) == before
    if where == "under_a_file":
        assert out.read_bytes() == b"a file\n"


def test_experiment_makes_its_reports_missing_directories(tmp_path, capsys):
    argv, paths = _command_outputs(tmp_path, tmp_path / "new" / "deeper")[0]
    assert main(argv) == 0
    assert all(path.is_file() for path in paths)
    capsys.readouterr()


def test_experiment_error_exit_codes(tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 1
    bad_key = _write_config(tmp_path, typo=True)
    assert main(["experiment", "--config", bad_key,
                 "--out", str(tmp_path / "z")]) == 2
    capsys.readouterr()
    # bytes that are not UTF-8 JSON are a config error, not a numeric or I/O one
    for name, data, why in _NOT_UTF8_JSON:
        bad = tmp_path / name
        bad.write_bytes(data)
        assert main(["experiment", "--config", str(bad), "--out", str(tmp_path / "y")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: {why}\n"
    assert not (tmp_path / "y.json").exists()


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
    {"target": {"kind": "single_ell", "c_ell": 1.7e308}},
    {"target": {"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0],
                "spectrum": {"kind": "power_law", "c0": 1.7e308, "epsilon": 0.2,
                             "l_max": 8}}},
    {"target": {"kind": "full_field", "spectrum": {"kind": "tabulated", "values": [1.0]}}},
    {"target": {"kind": "full_field",
                "spectrum": {"kind": "explicit", "values": [1.0], "l_max": 1}}},
    {"output": 5},
    {"replications": 1, "statistics": ["mean"]},
    {"replications": 1, "statistics": ["hurst"], "cells": [[1, 16]],
     "target": {"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0],
                "spectrum": {"kind": "explicit", "values": [1.0, 0.5]}}},
    {"statistics": ["mean", "mean", "var"]},
], ids=["negative_l_min", "cell_not_a_pair", "cell_null_degree", "cell_of_one",
        "cells_string", "replications_null", "regime_c_string", "regime_c_nan",
        "regime_c_inf", "regime_c_overflows", "cell_n_overflows", "seed_string",
        "seed_bool", "batch_string", "statistics_number", "too_few_for_var",
        "too_few_for_estimator", "too_few_for_ks", "hurst_null", "hurst_overflows",
        "l_min_null", "l_max_null", "c_ell_overflows", "epsilon_nan", "value_nan",
        "time_nan", "hurst_string", "c0_string", "l_max_fractional", "values_string",
        "l_min_bool", "c_ell_basis_overflows", "fbm_basis_overflows",
        "spectrum_kind_unknown", "spectrum_key_unknown", "output_number",
        "too_few_for_mean", "too_few_for_hurst", "statistic_repeated"])
def test_experiment_bad_config_exits_2_before_sampling(tmp_path, capsys, over):
    cfg = _write_config(tmp_path, **over)
    assert main(["experiment", "--config", cfg,
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


_POWER_LAW = {"kind": "power_law", "c0": 1.0, "epsilon": 0.5, "l_max": 200}


@pytest.mark.parametrize("over, what", [
    ({"cells": [[2, 4096]]}, "batch paths"),
    ({"target": {"kind": "full_field", "spectrum": _POWER_LAW}, "cells": [[1, 2048]],
      "regime": {"kind": "ell_slower"}}, "sampler basis and coefficients"),
    ({"target": {"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0],
                 "spectrum": {"kind": "explicit", "values": [1.0]}},
      "cells": [[0, 1024]], "statistics": ["mean", "ks_normal"]}, "dense Gram"),
    ({"target": {"kind": "full_field", "spectrum": {"kind": "explicit", "values": [1.0]}},
      "cells": [[1, 1024]], "statistics": ["mean", "k4"]}, "dense Gram"),
    ({"replications": 10 ** 6}, "sampled values"),
], ids=["batch_paths", "basis_chunk", "dense_gram", "dense_gram_k4", "values"])
def test_experiment_cell_beyond_physical_memory_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, over, what):
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2 ** 20)
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sampled"))
    cfg = _write_config(tmp_path, **over)
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: cell (l=") and f"for its {what}, more than" in err
    assert not (tmp_path / "r.json").exists()


# finite spectrum scales whose V could overflow at N = 16: 4N·σ² is beyond
# float max/2^64 for one degree, a power-law full field and a fractional pair
_OVERFLOWING_TARGETS = [
    {"kind": "single_ell", "c_ell": 8e307},
    {"kind": "full_field",
     "spectrum": {"kind": "power_law", "c0": 1.7e308, "epsilon": 0.2, "l_max": 8}},
    {"kind": "fbm", "hurst": 0.5, "times": [2.0, 1.0],
     "spectrum": {"kind": "explicit", "values": [1e300]}},
]


@pytest.mark.parametrize("target", _OVERFLOWING_TARGETS,
                         ids=["single_ell", "full_field", "fbm"])
def test_overflowing_quadratic_variation_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, target):
    monkeypatch.setattr(sphereqv.simulate, "batch_quadratic_variation",
                        lambda *a: pytest.fail("sampled"))
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sampled"))
    sample_target = dict(target, ell=3) if target["kind"] == "single_ell" else target
    spec = _write_spec(tmp_path, target=sample_target, n=16, replications=200)
    cfg = _write_config(tmp_path, target=target, cells=[[2, 8], [2, 16]])
    for argv, out in ((["simulate", "--spec-file", spec], tmp_path / "x.csv"),
                      (["experiment", "--config", cfg], tmp_path / "r.json")):
        assert main([*argv, "--out", str(out).removesuffix(".json")]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith("config error: ") and "V could overflow" in err
        assert not out.exists()


@pytest.mark.parametrize("command", [
    "moments", "estimate cl", "estimate cl1", "estimate cl2", "estimate cl3",
    "simulate", "experiment"])
def test_degree_beyond_the_bound_exits_2_at_once(tmp_path, capsys, monkeypatch, command):
    # l = 10¹¹ ran O(l) recurrence steps without bound; moments takes 3.7 s and
    # estimate --mode cl 0.25 s at the bound 2²¹. The sampling commands meet
    # the sampler's own, lower bound first
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sampled"))
    ell = 10 ** 11
    argv = {
        "moments": ["moments", "--ell", str(ell), "--n", "1", "--cl", "1"],
        "simulate": ["simulate", "--out", str(tmp_path / "x.csv"), "--spec-file",
                     _write_spec(tmp_path, target={"kind": "single_ell", "ell": ell})],
        "experiment": ["experiment", "--out", str(tmp_path / "r"), "--config",
                       _write_config(tmp_path, cells=[[ell, 16]])],
    }.get(command, ["estimate", "--mode", command.split()[-1], "--v", "1",
                    "--ell", str(ell), "--n", "1"])
    if command == "estimate cl2":
        argv += ["--c", "1"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.endswith(
        f"degree {ell} exceeds 1900, the largest at which the harmonic sweep is exact\n"
        if command in ("simulate", "experiment") else
        f"degree {ell} exceeds 2097152 (2^21), the largest whose O(l) "
        "recurrences run within about 10 s\n")
    assert not list(tmp_path.glob("[xr].*"))


_TOP_SPECTRUM = {"kind": "power_law", "c0": 1.0, "epsilon": 0.2, "l_max": 1901}


@pytest.mark.parametrize("command", ["simulate", "experiment"])
@pytest.mark.parametrize("target", [
    {"kind": "full_field", "spectrum": _TOP_SPECTRUM},
    {"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0], "spectrum": _TOP_SPECTRUM},
], ids=["full_field", "fbm"])
def test_spectrum_degree_beyond_the_bound_exits_2_at_once(
        tmp_path, capsys, monkeypatch, command, target):
    # a spectrum's top degree is bounded as one degree is, by the degree where
    # the harmonic sweep stops being exact: at l_max = 2²² both commands were
    # still sampling, in O(l_max²·N) per replication, after 20 s
    monkeypatch.setattr(harness, "_sample_cell", lambda *a, **k: pytest.fail("sampled"))
    out = tmp_path / ("x.csv" if command == "simulate" else "r.json")
    argv = (["simulate", "--spec-file", _write_spec(tmp_path, target=target)]
            if command == "simulate" else
            ["experiment", "--config", _write_config(tmp_path, target=target)])
    assert main([*argv, "--out", str(out).removesuffix(".json")]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert err == (f"config error: bad {target['kind']} target: degree 1901 exceeds 1900, "
                   "the largest at which the harmonic sweep is exact\n")
    assert not out.exists()


@pytest.mark.parametrize("ell, n", [(1901, 16), (3000, 64), (4292, 32), (5000, 32)])
@pytest.mark.parametrize("command", ["simulate", "experiment"])
def test_single_degree_beyond_the_sweep_exits_2_before_any_draw(
        tmp_path, capsys, monkeypatch, command, ell, n):
    # past degree 1900 the harmonic sweep leaves the normal float range:
    # simulate wrote V ≈ 2e292 at (3000, 64), whose exact mean is 6.6e4, and
    # nan at 4292 and 5000, each with exit 0
    monkeypatch.setattr(harness, "_sample_cell", lambda *a, **k: pytest.fail("sampled"))
    out = tmp_path / ("x.csv" if command == "simulate" else "r.json")
    argv = (["simulate", "--spec-file", _write_spec(
                tmp_path, target={"kind": "single_ell", "ell": ell}, n=n)]
            if command == "simulate" else
            ["experiment", "--config", _write_config(tmp_path, cells=[[ell, n]])])
    assert main([*argv, "--out", str(out).removesuffix(".json")]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == (
        f"config error: bad single_ell target: degree {ell} exceeds 1900, "
        "the largest at which the harmonic sweep is exact\n")
    assert not out.exists()


@pytest.mark.parametrize("target", [
    {"kind": "single_ell", "ell": 1900},
    {"kind": "full_field", "spectrum": dict(_TOP_SPECTRUM, l_max=1900)},
    {"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0],
     "spectrum": dict(_TOP_SPECTRUM, l_max=1900)},
], ids=["single_ell", "full_field", "fbm"])
def test_sampled_top_degree_at_the_bound_runs(tmp_path, capsys, target):
    # degree 1900 itself samples, to finite values
    assert main(["simulate", "--out", str(tmp_path / "x.csv"), "--spec-file",
                 _write_spec(tmp_path, target=target, n=4, replications=1)]) == 0
    capsys.readouterr()
    row = (tmp_path / "x.csv").read_text(encoding="utf-8").splitlines()[1]
    assert all(math.isfinite(float(v)) for v in row.split(",")[1:-1])


def test_statistics_whose_sums_overflow_exit_2_before_sampling(tmp_path, capsys, monkeypatch):
    # at c_l = 1e40 on (3, 16) V itself is far from overflowing, but k4's
    # jackknife squares a fourth-order statistic: 200·(4N·σ²)^8 > float max/2^64
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sampled"))
    cfg = _write_config(tmp_path, target={"kind": "single_ell", "c_ell": 1e40},
                        cells=[[3, 16]], replications=200, statistics=["mean", "k4"])
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ") and err.count("\n") == 1
    assert "V^8" in err and not (tmp_path / "r.json").exists()


def test_large_scale_within_the_statistics_bound_gives_finite_rows(tmp_path, capsys):
    # 1e30 passes the k4 bound at (3, 16), R = 200: every row is finite and
    # no step overflows on the way
    cfg = _write_config(tmp_path, target={"kind": "single_ell", "c_ell": 1e30},
                        cells=[[3, 16]], replications=200,
                        statistics=["mean", "var", "k3", "k4", "ks_normal"])
    with np.errstate(all="raise"):
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    rows = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["rows"]
    assert len(rows) == 5
    assert all(math.isfinite(r[k]) for r in rows for k in ("empirical", "se", "exact"))


def test_experiment_reps_override_is_checked_against_statistics(tmp_path, capsys):
    cfg = _write_config(tmp_path, statistics=["ks_normal"])
    assert main(["experiment", "--config", cfg, "--reps", "199",
                 "--out", str(tmp_path / "r")]) == 2
    assert "need at least 200 replications, got 199" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_ks_normal_needs_the_replications_of_its_jackknife_se(tmp_path, capsys):
    # below 200 the KS row's SE was NaN, which a strict JSON parser refuses
    base = tmp_path / "sweep"
    argv = ["experiment", "--config", "regime_sweep", "--out", str(base), "--threads", "2"]
    assert main([*argv, "--reps", "150"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("config error: statistics ['mean', 'var', 'k3', 'k4', "
                                 "'ks_normal'] need at least 200 replications, got 150\n")
    assert not (tmp_path / "sweep.json").exists()
    assert main([*argv, "--reps", "200"]) == 0
    capsys.readouterr()

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    text = (tmp_path / "sweep.json").read_text(encoding="utf-8")
    rows = json.loads(text, parse_constant=refuse)["rows"]
    ks = [r for r in rows if r["stat"] == "ks_normal"]
    assert ks and all(math.isfinite(r["se"]) and r["se"] > 0 for r in ks)


# a c_ell of 0, a spectrum with no C_l > 0 at l ≥ 1 (degree 0 is constant
# along the meridian), and an fbm time whose t^(2H) underflows to 0
_ZERO_LAWS = [
    {"target": {"kind": "single_ell", "c_ell": 0.0}, "cells": [[3, 16]],
     "statistics": ["mean", "var", "k3", "k4", "ks_normal", "estimator_error"]},
    {"target": {"kind": "single_ell", "c_ell": 0.0}, "cells": [[3, 16]],
     "statistics": ["mean", "var", "k3", "k4", "estimator_error"]},
    {"target": {"kind": "full_field", "spectrum": {"kind": "explicit", "values": [0.0, 0.0]}}},
    {"target": {"kind": "full_field",
                "spectrum": {"kind": "explicit", "values": [1.0, 0.0], "l_min": 0}},
     "statistics": ["mean", "var", "ks_normal"]},
    {"target": {"kind": "fbm", "hurst": 0.5, "times": [2.0, 1.0],
                "spectrum": {"kind": "explicit", "values": [0.0, 0.0]}},
     "statistics": ["mean", "var", "hurst"]},
    {"target": {"kind": "fbm", "hurst": 0.9, "times": [1.0, 1e-300],
                "spectrum": {"kind": "explicit", "values": [1.0]}},
     "statistics": ["mean", "var", "hurst"]},
]


@pytest.mark.parametrize("over", _ZERO_LAWS, ids=[
    "c_ell_zero_ks", "c_ell_zero", "full_field_zeros", "full_field_degree_0",
    "fbm_zeros", "fbm_time_underflows"])
def test_identically_zero_quadratic_variation_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch, over):
    # V ≡ 0 leaves every standardized statistic undefined: the run used to
    # sample and then fail, or write NaN rows. Every statistic sums V^p with
    # p ≥ 2, so the cell rule's underflow clause refuses it at E[V] = 0
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("sampled"))
    cfg = _write_config(tmp_path, replications=200, **over)
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: E[V] is 0 at N=16: V is identically zero\n"
    assert not (tmp_path / "r.json").exists()


# the power of c_ell each row's columns carry
_C_POWER = {"mean": 1, "var": 2, "k3": 3, "k4": 4, "ks_normal": 0}


def _scaled_run(tmp_path, capsys, c_ell):
    """(exit status, report rows or None) of one (3, 16) cell at scale c_ell."""
    cfg = _write_config(tmp_path, target={"kind": "single_ell", "c_ell": c_ell},
                        cells=[[3, 16]], replications=200,
                        statistics=["mean", "var", "k3", "k4", "ks_normal"])
    base = tmp_path / f"r{c_ell:g}"
    code = main(["experiment", "--config", cfg, "--out", str(base), "--threads", "1"])
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.startswith("config error: ") and err.count("\n") == 1
        assert "could underflow" in err and not os.path.exists(f"{base}.json")
        return code, None
    assert code == 0, err
    return code, json.loads(pathlib.Path(f"{base}.json").read_text(encoding="utf-8"))["rows"]


@pytest.mark.parametrize("c_ell", [1.0, 1e-20, 1e-35, 1e-40, 1e-60, 1e-90, 1e-160, 1e-300])
def test_tiny_spectrum_scale_is_refused_or_scales_every_row(tmp_path, capsys, c_ell):
    # a scale whose statistics' sums underflow used to sample and then exit 1
    # ("float division by zero", "degenerate Gram matrix") or write an SE of 0
    _, want = _scaled_run(tmp_path, capsys, 1.0)
    code, got = _scaled_run(tmp_path, capsys, c_ell)
    if code == 2:
        return
    assert [r["stat"] for r in got] == [r["stat"] for r in want]
    for g, w in zip(got, want):
        scale = c_ell ** _C_POWER[w["stat"]]
        for key in ("empirical", "se", "exact"):
            assert g[key] == pytest.approx(w[key] * scale, rel=1e-12, abs=0), (w["stat"], key)


def _perfbench_workloads(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("size", ["full", "smoke"])
def test_bundled_and_benchmark_configs_pass_the_scale_checks(tmp_path, monkeypatch, size):
    workloads = _perfbench_workloads(monkeypatch)
    configs = [json.loads(cli._load_config_text("regime_sweep"))]
    for name in ("regime_sweep", "many_reps", "fbm_pair"):
        workloads.build(name, workloads.DEFAULT_SEED, str(tmp_path), size)
    configs += [json.loads(p.read_text(encoding="utf-8"))
                for p in sorted(tmp_path.glob("*.config.json"))]
    assert len(configs) == 4  # regime_sweep, many_reps and fbm_pair's two
    for raw in configs:
        harness.ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("name", ["regime_sweep", "many_reps", "fbm_pair", "moments_large_n"])
def test_benchmark_setup_probe_reaches_its_stop_call(tmp_path, monkeypatch, name):
    # the benchmark's set-up time runs a workload's first call until cli
    # looks up ``stop_at``; a command that reached its layers another way
    # would time the whole run, or fail the probe
    workloads = _perfbench_workloads(monkeypatch)
    workload = workloads.build(name, workloads.DEFAULT_SEED, str(tmp_path), "smoke")

    class Stop(BaseException):
        pass

    def stop(*args, **kwargs):
        raise Stop

    monkeypatch.setattr(cli, workload.stop_at, stop)
    with pytest.raises(Stop):
        cli.main(workload.calls[0].argv)


def test_simulate_samples_an_identically_zero_field(tmp_path, capsys):
    spec = _write_spec(tmp_path, target={"kind": "single_ell", "ell": 3, "c_ell": 0.0})
    assert main(["simulate", "--spec-file", spec, "--out", str(tmp_path / "x.csv")]) == 0
    capsys.readouterr()
    rows = (tmp_path / "x.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 5 and all(row.split(",")[1] == "0" for row in rows)


# each library ValueError about a target's values is one line, prefixed once
@pytest.mark.parametrize("target, line", [
    ({"kind": "single_ell", "c_ell": 1.7e308},
     "bad single_ell target: c_ell must be non-negative with 2·c_ell finite, got 1.7e+308"),
    ({"kind": "fbm", "hurst": 1.5, "times": [2.0, 1.0],
      "spectrum": {"kind": "explicit", "values": [1.0]}},
     "bad fbm target: hurst must lie in (0, 1)"),
    ({"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0],
      "spectrum": {"kind": "power_law", "c0": 1.7e308, "epsilon": 0.2, "l_max": 8}},
     "bad fbm target: spectrum peak 1.7e+308 makes 4π·A_l overflow a float"),
], ids=["c_ell_basis_overflows", "hurst_outside_unit_interval", "fbm_peak_overflows"])
def test_library_target_errors_are_one_config_error_line(tmp_path, capsys, target, line):
    sample_target = dict(target, ell=3) if target["kind"] == "single_ell" else target
    spec = _write_spec(tmp_path, target=sample_target)
    cfg = _write_config(tmp_path, target=target, statistics=["mean"], cells=[[3, 16]])
    for argv, out in ((["simulate", "--spec-file", spec], tmp_path / "x.csv"),
                      (["experiment", "--config", cfg], tmp_path / "r.json")):
        assert main([*argv, "--out", str(out).removesuffix(".json")]) == 2
        assert capsys.readouterr() == ("", f"config error: {line}\n")
        assert not out.exists()


# ======================================================================
# specfun-check and help
# ======================================================================

def test_specfun_check_passes(capsys):
    # three invariants on small arrays, far under a CI runner's memory: the
    # third is the addition theorem at the sampler's top degree
    tracemalloc.start()
    try:
        assert main(["specfun-check"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2 ** 20
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "addition theorem at degree 1900" in out
    assert "bessel" not in out
    assert "FAIL" not in out


def test_help_documents_units(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--help"])
    assert exc.value.code == 0
    assert "radians" in capsys.readouterr().out


def _subparsers(parser):
    """name -> subparser of a parser from ``cli._build_parser``."""
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


_build_parser = cli._build_parser
_COMMANDS = tuple(_subparsers(_build_parser()))


# one representative argv per command, every flag it has set
_FULL_ARGV = {
    "moments": ["moments", "--ell", "8", "--n", "64", "--cl", "0.5", "--regime",
                "ell_comparable", "--regime-c", "1", "--p-max", "6", "--csv", "m.csv"],
    "simulate": ["simulate", "--spec-file", "s.json", "--seed", "7", "--reps", "3",
                 "--out", "s.csv"],
    "estimate": ["estimate", "--mode", "cl2", "--v", "1", "--ell", "3", "--n", "8",
                 "--c", "1", "--coeffs", "1,2", "--vt", "2", "--vs", "1", "--t", "2",
                 "--s", "1"],
    "experiment": ["experiment", "--config", "regime_sweep", "--out", "r", "--seed", "1",
                   "--reps", "200", "--threads", "2", "--strict"],
    "specfun-check": ["specfun-check"],
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_one_command_parser_equals_the_full_parser(monkeypatch, capsys, command):
    # main parses `<command> …` with a parser that registers that command
    # alone: its help and the parsed flags are the full parser's
    monkeypatch.setenv("COLUMNS", "80")
    assert list(_FULL_ARGV) == list(_COMMANDS)
    built = []
    monkeypatch.setattr(cli, "_build_parser",
                        lambda *names: built.append(names) or _build_parser(*names))
    assert _exit_code([command, "--help"]) == 0
    capsys.readouterr()
    assert built == [(command,)]
    full, one = _build_parser(*_COMMANDS), _build_parser(command)
    assert list(_subparsers(one)) == [command]
    assert (_subparsers(one)[command].format_help()
            == _subparsers(full)[command].format_help())
    assert one.parse_args(_FULL_ARGV[command]) == full.parse_args(_FULL_ARGV[command])


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_main_runs_the_command_records_runner(monkeypatch, command):
    # main names no command: each record's runner is the one it calls
    calls = []
    monkeypatch.setitem(cli._COMMANDS, command, cli._COMMANDS[command]._replace(
        run=lambda args, parser: calls.append(args.command) or 42))
    assert main(_FULL_ARGV[command]) == 42
    assert calls == [command]


def test_mode_choices_are_the_mode_table_in_order():
    (mode,) = [a for a in _subparsers(_build_parser("estimate"))["estimate"]._actions
               if a.dest == "mode"]
    assert list(mode.choices) == list(cli._ESTIMATE_MODES)
    assert list(mode.choices) == ["cl", "cl1", "cl2", "cl3", "classical", "hurst"]


def test_estimate_reads_a_modes_flags_and_call_from_its_record(monkeypatch, capsys):
    monkeypatch.setitem(cli._ESTIMATE_MODES, "hurst",
                        (("vt", "vs"), lambda est, vt, vs: {"value": vt + vs}))
    assert main(["estimate", "--mode", "hurst", "--vt", "2", "--vs", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"value": 3.0}
    assert _exit_code(["estimate", "--mode", "hurst", "--vt", "2", "--vs", "1",
                       "--v", "2"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: mode hurst reads only --vt --vs, not --v\n")


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus"], ["bogus", "--ell", "3"], ["--foo"],
    ["--foo", "moments", "--ell", "3", "--n", "4", "--cl", "1"],
    ["moments", "--ell", "3", "--n", "4", "--cl", "1", "--bogus"],
    ["experiment", "--config", "moments", "--threads", "2000"],
    ["specfun-check", "--bogus"],
    *([name, "--help"] for name in _COMMANDS),
    ["--help", "moments"], ["moments"],
], ids=" ".join)
def test_usage_and_errors_match_the_full_parser(monkeypatch, argv):
    # help, usage and error bytes and the exit status under main equal the
    # full parser's: argparse names every registered command in both
    monkeypatch.setenv("COLUMNS", "80")

    def run(parse):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                parse()
        return exc.value.code, out.getvalue(), err.getvalue()

    got = run(lambda: main(argv))
    want = run(lambda: cli._build_parser(*_COMMANDS).parse_args(argv))
    assert got == want
    assert got[0] == (0 if "--help" in argv else 2)


@pytest.mark.parametrize("argv", [
    ["estimate", "--mode", "cl"],
    ["moments", "--ell", "3", "--n", "16", "--cl", "1", "--regime-c", "3"],
], ids=" ".join)
def test_errors_after_parsing_print_the_full_usage(monkeypatch, capsys, argv):
    # _cmd_estimate and _cmd_moments raise these through the one-command parser; the
    # full parser prints them, under a usage line that names every command
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    usage = _build_parser(*_COMMANDS).format_usage()
    assert "{" + ",".join(_COMMANDS) + "}" in usage
    assert out == "" and err.startswith(usage) and err.count("error:") == 1


_NUMPY_SPY = """
import os, sys

class Spy:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not Spy.seen:
            Spy.seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.meta_path.insert(0, Spy())
import {module}
print(Spy.seen)
"""


def _blas_env(timeout):
    """_child_env() with OPENBLAS_THREAD_TIMEOUT at ``timeout``, or unset at None."""
    env = _child_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    return env if timeout is None else dict(env, OPENBLAS_THREAD_TIMEOUT=timeout)


@pytest.mark.parametrize("module, timeout, seen", [
    ("sphereqv.cli", None, "20"), ("sphereqv.cli", "7", "7"),
    ("sphereqv.simulate", None, None), ("sphereqv.harness", None, None),
])
def test_the_command_sets_openblas_idle_timeout_before_numpy_loads(module, timeout, seen):
    # OpenBLAS reads the variable once, when numpy loads it; a user's value
    # wins, and a library import sets nothing
    run = subprocess.run([sys.executable, "-c", _NUMPY_SPY.format(module=module)],
                         capture_output=True, text=True, env=_blas_env(timeout))
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"{[seen]}\n"


def test_report_bytes_do_not_depend_on_openblas_idle_timeout(tmp_path):
    cfg = _write_config(tmp_path, replications=200, cells=[[1, 128]],
                        statistics=["mean", "var", "ks_normal", "hurst"],
                        target={"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0],
                                "spectrum": {"kind": "power_law", "c0": 1.0,
                                             "epsilon": 0.2, "l_max": 64}})
    reports = []
    for timeout in (None, "28"):
        base = tmp_path / f"report-{timeout}"
        run = subprocess.run([sys.executable, "-m", "sphereqv.cli", "experiment",
                              "--config", cfg, "--out", str(base)],
                             capture_output=True, text=True, env=_blas_env(timeout))
        assert run.returncode == 0, run.stderr
        reports.append([pathlib.Path(f"{base}{ext}").read_bytes() for ext in (".json", ".csv")])
    assert reports[0] == reports[1]


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


def test_experiment_with_the_ks_row_loads_no_scipy(tmp_path):
    # the bundled sweep computes ks_normal, whose Φ is specfun._ndtr: a fresh
    # interpreter holds no scipy module after the run
    argv = ["experiment", "--config", "regime_sweep", "--reps", "200",
            "--out", str(tmp_path / "sweep")]
    code = ("import sys\n"
            "import sphereqv.cli as cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    run = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=_child_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


# the layers only the sampling commands need
_SAMPLER_SIDE = ("sphereqv.harness", "sphereqv.simulate", "numpy.random",
                 "concurrent.futures")


def _loaded_after(argv, stop_at=None):
    """Which of the sampler side's modules and ``sphereqv.estimators`` a fresh
    interpreter holds after ``cli.main(argv)`` exits 0, or, with ``stop_at``,
    after replacing ``cli.<stop_at>`` stopped the command there, as the
    benchmark's set-up probe does."""
    code = ["import contextlib, io, json, sys", "import sphereqv.cli as cli"]
    if stop_at:
        code += ["class Stop(BaseException): pass",
                 "def stop(*a, **k): raise Stop",
                 f"cli.{stop_at} = stop",
                 "try:",
                 f"    cli.main({argv!r})",
                 "    sys.exit('not stopped')",
                 "except Stop:",
                 "    pass"]
    else:
        code += ["with contextlib.redirect_stdout(io.StringIO()):",
                 f"    assert cli.main({argv!r}) == 0"]
    watched = (*_SAMPLER_SIDE, "sphereqv.estimators")
    code.append(f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))")
    run = subprocess.run([sys.executable, "-c", "\n".join(code)], capture_output=True,
                         text=True, env=_child_env())
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


_MOMENTS_ARGV = ["moments", "--ell", "8", "--n", "4096", "--cl", "1", "--regime", "fixed_ell"]


@pytest.mark.parametrize("argv, allowed", [
    (_MOMENTS_ARGV, set()),
    (["estimate", "--mode", "cl", "--v", "1", "--ell", "3", "--n", "8"],
     {"sphereqv.estimators"}),
    # it draws its points with numpy.random; its scipy.special reference loads
    # numpy.testing, which imports concurrent.futures
    (["specfun-check"], {"numpy.random", "concurrent.futures"}),
], ids=["moments", "estimate", "specfun-check"])
def test_exact_side_commands_load_no_sampler(argv, allowed):
    assert _loaded_after(argv) <= allowed


def test_experiment_loads_the_sampler_and_stops_at_its_layer_calls(tmp_path):
    argv = ["experiment", "--out", str(tmp_path / "r"), "--config",
            _write_config(tmp_path, replications=20, cells=[[2, 8]])]
    assert _loaded_after(argv) == {*_SAMPLER_SIDE, "sphereqv.estimators"}
    (tmp_path / "r.json").unlink()
    # the names the set-up probe replaces stop each command before its layer call
    assert _loaded_after(argv, stop_at="run_experiment") == {
        *_SAMPLER_SIDE, "sphereqv.estimators"}
    assert not (tmp_path / "r.json").exists()
    assert _loaded_after(_MOMENTS_ARGV, stop_at="increment_gram_fl") == set()


def test_package_root_binds_no_public_name():
    # the root holds only __version__, and a module loads only what it imports
    code = ("import sys\n"
            "import sphereqv.specfun\n"
            "print(sorted(m for m in sys.modules if m.startswith('sphereqv')))\n"
            "print(sorted(k for k in vars(sys.modules['sphereqv'])\n"
            "             if not k.startswith('_') and k != 'specfun'))\n")
    run = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=_child_env())
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["['sphereqv', 'sphereqv.specfun']", "[]"]


def _unused_imports(path):
    """``file:line name`` for each name an import in ``path`` binds that the
    module never reads; ``__future__`` imports and names in ``__all__`` pass."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], alias.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items()
            if name not in read and name not in exported]


def test_no_module_imports_a_name_it_never_reads():
    src = pathlib.Path(sphereqv.moments.__file__).parent
    tests = pathlib.Path(__file__).parent
    paths = sorted(src.glob("*.py")) + sorted(tests.glob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in _unused_imports(path)] == []


_FORMER_ROOT_NAMES = {
    "covariance": ["IncrementGram", "LineGrid", "PowerSpectrum",
                   "increment_gram_fl"],
    "estimators": ["EstimateResult", "estimate_cl", "estimate_cl_classical",
                   "estimate_cl_variant", "estimate_hurst"],
    "moments": ["asymptotic_mean", "asymptotic_var", "estimator_bias", "exact_mean_vnl",
                "exact_var_vnl", "fourth_moment_bound", "fullfield_moment_orders",
                "k_ell_constant", "nclt_limit_cumulant", "normalized_cumulant",
                "trace_cumulant"],
    "simulate": ["SampleSpec"],
    "specfun": ["bessel_j", "harmonic_meridian_table", "legendre_p"],
}


@pytest.mark.parametrize("module", sorted(_FORMER_ROOT_NAMES))
def test_former_root_names_import_from_their_modules(module):
    mod = importlib.import_module(f"sphereqv.{module}")
    for name in _FORMER_ROOT_NAMES[module]:
        assert name in mod.__all__ and hasattr(mod, name), name
