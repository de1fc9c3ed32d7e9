"""Experiment harness: statistics, config validation, determinism, oracles."""

import json
import math
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special, stats
from scipy.linalg import toeplitz

from sphereqv import covariance, harness, simulate
from sphereqv.harness import (
    CellStat,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    check_oracle_agreement,
    empirical_cumulants,
    ks_normal,
    loglog_slope,
    run_experiment,
)

RNG = np.random.default_rng(550123)


# ======================================================================
# k-statistics
# ======================================================================

def test_cumulants_of_constant_sample_vanish():
    # power-sum centering cancels to float crumbs, not exact zeros
    out = empirical_cumulants(np.full(500, 3.7), p_max=4)
    for k, se in out:
        assert abs(k) < 1e-11
        assert se < 1e-11


def test_cumulants_match_direct_formulas():
    x = RNG.normal(2.0, 1.5, size=97)
    n = x.size
    m2 = np.mean((x - x.mean()) ** 2)
    m3 = np.mean((x - x.mean()) ** 3)
    m4 = np.mean((x - x.mean()) ** 4)
    out = empirical_cumulants(x, p_max=4)
    assert_allclose(out[0][0], n * m2 / (n - 1), rtol=1e-12)
    assert_allclose(out[1][0], n ** 2 * m3 / ((n - 1) * (n - 2)), rtol=1e-12)
    want4 = n ** 2 * ((n + 1) * m4 - 3 * (n - 1) * m2 ** 2) \
        / ((n - 1) * (n - 2) * (n - 3))
    assert_allclose(out[2][0], want4, rtol=1e-10)
    assert_allclose(out[0][0], np.var(x, ddof=1), rtol=1e-12)


def test_cumulants_standard_normal_draws():
    x = RNG.standard_normal(1_000_000)
    (k2, se2), (k3, se3), (k4, se4) = empirical_cumulants(x, p_max=4)
    assert abs(k2 - 1.0) < 4 * se2
    assert abs(k3) < 4 * se3
    assert abs(k4) < 4 * se4


def test_cumulants_chi_square_draws():
    # χ²(1): κ₂ = 2, κ₃ = 8, κ₄ = 48
    x = RNG.standard_normal(1_000_000) ** 2
    (k2, se2), (k3, se3), (k4, se4) = empirical_cumulants(x, p_max=4)
    assert abs(k2 - 2.0) < 4 * se2
    assert abs(k3 - 8.0) < 4 * se3
    assert abs(k4 - 48.0) < 4 * se4


def test_cumulants_validation():
    with pytest.raises(ValueError):
        empirical_cumulants(np.ones(39), p_max=4)
    with pytest.raises(ValueError):
        empirical_cumulants(np.ones(100), p_max=5)


# ======================================================================
# Kolmogorov-Smirnov distance
# ======================================================================

def test_ks_normal_on_quantile_grid():
    n = 1000
    x = special.ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert_allclose(ks_normal(x), 0.5 / n, rtol=1e-9)


def test_ks_normal_degenerate_sample():
    assert ks_normal(np.zeros(200)) == 0.5


def test_ks_normal_matches_reference():
    x = RNG.standard_normal(5000)
    assert_allclose(ks_normal(x), stats.kstest(x, "norm").statistic, rtol=1e-9)


def _ks_jackknife_se(sample):
    return harness._ks_jackknife_se(*harness._ks_sort(sample))


@pytest.mark.parametrize("sample", [
    # one decimal: hundreds of ties, some of them across block boundaries
    np.round(np.random.default_rng(3).standard_normal(1000), 1),
    np.random.default_rng(4).standard_normal(50_000),
    np.random.default_rng(5).standard_normal(237) * 2.0 + 0.3,
    # 50 blocks of 246 and 247: two leave-one-out sizes share their rank grids
    np.random.default_rng(6).standard_normal(12_345),
], ids=["ties", "fifty_thousand", "uneven_blocks", "fifty_uneven_blocks"])
def test_ks_jackknife_from_one_sort_is_bitwise_the_generic_one(sample):
    want = harness._jackknife_se(sample, ks_normal)
    got = _ks_jackknife_se(sample)
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
    # the distance read from the same sort is bitwise ks_normal's
    phi, _ = harness._ks_sort(sample)
    got = harness._ks_sorted(phi, harness._ks_grid(phi.size))
    assert np.float64(got).view(np.uint64) == np.float64(ks_normal(sample)).view(np.uint64)


def test_the_ks_row_sorts_and_evaluates_phi_once(monkeypatch):
    # one cell's distance and its SE share one argsort and one Φ pass
    calls = {"argsort": 0, "sort": 0, "ndtr": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness.np, "argsort", counted("argsort", np.argsort))
    monkeypatch.setattr(harness.np, "sort", counted("sort", np.sort))
    monkeypatch.setattr(harness, "_ndtr", counted("ndtr", harness._ndtr))
    cell = harness._Cell(3, 16, harness.SingleEll(3, 1.0), np.random.default_rng(9).gamma(4.0, size=500))
    cell.exact = {"mean": 4.0, "var": 4.0}
    cell.gram = None
    monkeypatch.setattr(harness.mom, "fourth_moment_bound", lambda gram: 0.0)
    (row,) = harness._STATISTICS["ks_normal"].rows(cell)
    assert calls == {"argsort": 1, "sort": 0, "ndtr": 1}
    assert row[1] == ks_normal(cell.standardized)
    assert row[2] == harness._jackknife_se(cell.standardized, ks_normal)


@pytest.mark.parametrize("statistic, limit_mib", [
    (ks_normal, 30.6), (_ks_jackknife_se, 38.6)], ids=["ks_normal", "jackknife"])
def test_ks_row_memory_peak_at_a_million_samples(statistic, limit_mib):
    # Φ runs in fixed-size blocks, so its masks and subsets stay small beside
    # the sorted copy and the rank grids: the peaks match scipy's ndtr, which
    # read 30.52 and 38.50 MiB, where one block of all 10⁶ values read 56.8
    # and 50.1 MiB
    x = np.random.default_rng(8).standard_normal(10 ** 6)
    statistic(x[:1000])
    tracemalloc.start()
    try:
        statistic(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2 ** 20


def test_ks_normal_needs_enough_samples():
    with pytest.raises(ValueError):
        ks_normal(np.zeros(99))


# ======================================================================
# Log-log slope fits
# ======================================================================

def test_slope_recovers_pure_power_law():
    xs = np.array([16.0, 32.0, 64.0, 128.0])
    slope, err = loglog_slope(xs, 3.0 * xs ** 2.5)
    assert_allclose(slope, 2.5, rtol=1e-12)
    assert err < 1e-12


def test_slope_with_log_correction():
    xs = np.array([16.0, 32.0, 64.0, 128.0])
    slope, _ = loglog_slope(xs, xs ** 1.5 * np.log(xs), "divide_by_log")
    assert_allclose(slope, 1.5, rtol=1e-12)


def test_slope_with_noise_stays_in_band():
    xs = np.array([8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
    ys = 2.0 * xs ** -1.0 * np.exp(RNG.normal(0, 0.02, xs.size))
    slope, err = loglog_slope(xs, ys)
    assert abs(slope + 1.0) < 4 * err + 0.05


def test_slope_validation():
    with pytest.raises(ValueError):
        loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        loglog_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        loglog_slope([0.5, 2.0, 3.0], [1.0, 2.0, 3.0], "divide_by_log")
    with pytest.raises(ValueError):
        loglog_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        loglog_slope([2.0, 4.0, 8.0], [1.0, 2.0, 3.0], "square_root")
    with pytest.raises(ValueError):
        loglog_slope([2.0, 4.0, 8.0], [1.0, 2.0, 3.0], "none")


# ======================================================================
# Configuration validation
# ======================================================================

def _base_config(**over):
    raw = {
        "seed": 11,
        "replications": 200,
        "statistics": ["mean", "var"],
        "target": {"kind": "single_ell", "c_ell": 1.0},
        "cells": [[3, 16]],
    }
    raw.update(over)
    return raw


def test_scale_check_bounds_four_n_times_the_pointwise_variance():
    # 4N·c_l(2l+1)/(4π) at l = 3, N = 16 is 112·c_l/π
    c = sys.float_info.max / 2 ** 64 * math.pi / 112
    harness._check_cell(harness.SingleEll(3, 0.99 * c), 16)
    with pytest.raises(ConfigError, match="overflow"):
        harness._check_cell(harness.SingleEll(3, 1.01 * c), 16)
    # a config also bounds its var row's sums of V^4 over its 200 replications
    c = (sys.float_info.max / 2 ** 64 / 200) ** 0.25 * math.pi / 112
    ExperimentConfig.from_dict(_base_config(target={"kind": "single_ell", "c_ell": 0.99 * c}))
    with pytest.raises(ConfigError, match="overflow"):
        ExperimentConfig.from_dict(_base_config(
            target={"kind": "single_ell", "c_ell": 1.01 * c}))


_POWER_LAW = {"kind": "power_law", "c0": 1.0, "epsilon": 0.2}


@pytest.mark.parametrize("target", [
    {"kind": "full_field", "spectrum": dict(_POWER_LAW, l_max=1901)},
    {"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0], "spectrum": dict(_POWER_LAW, l_max=1901)},
    {"kind": "full_field", "spectrum": {"kind": "explicit", "values": [1.0, 0.5],
                                        "l_min": 1900}},
], ids=["full_field", "fbm", "explicit"])
def test_config_bounds_every_spectrum_top_degree(target):
    # the top degree is l_max, or l_min + len(values) − 1; one past the
    # harmonic sweep's exact range (1900) is refused when the target is
    # built, where it sampled from the wrong law
    with pytest.raises(ConfigError, match=r"target: degree 1901 exceeds 1900, the largest"):
        ExperimentConfig.from_dict(_base_config(target=target, cells=[[3, 16]]))
    if target["spectrum"]["kind"] == "power_law":
        top = dict(target, spectrum=dict(target["spectrum"], l_max=1900))
        ExperimentConfig.from_dict(_base_config(target=top, cells=[[3, 16]]))


@pytest.mark.parametrize("l_max", [8, 2 ** 16 + 5, 10 ** 6])
def test_weight_sum_of_a_power_law(l_max):
    # the cell rule's scale sums C_l (2l+1) over every degree, past 2^16 too
    ells = np.arange(1, l_max + 1, dtype=float)
    want = math.fsum((2 * ells + 1) * 3.0 * ells ** -2.01)
    power = covariance._degree_power(covariance.PowerSpectrum.power_law(3.0, 0.01, l_max))
    assert want * (1 - 1e-14) <= float(np.sum(power)) <= want * (1 + 1e-5)


def test_mean_v_is_the_exact_mean_free_of_cancellation():
    def mean_v(target, n):  # the floor check's mean: the earlier time's kernel
        spectrum, factors = target.kernel
        return harness.mom._mean_v(spectrum, min(factors), n)

    grid = covariance.LineGrid(16)
    spectrum = covariance.PowerSpectrum.power_law(1.0, 0.2, 40)
    fbm = harness.FbmTarget(0.3, spectrum, (2.0, 1.0))  # the earlier time, 1, has factor 1
    for target, want in [
            (harness.SingleEll(3, 0.5), harness.mom.exact_mean_vnl(3, 0.5, 16)),
            (harness.FullField(spectrum), 16 * covariance.increment_row_f(spectrum, grid)[0]),
            (fbm, 16 * covariance.fbm_spatial_row(spectrum, grid)[0])]:
        assert mean_v(target, 16) == pytest.approx(want, rel=1e-12)
    # at N = 10^9 cos(π/2N) rounds to 1 and 1 − P_l(cos) to 0; the mean is
    # 2N·c_l(2l+1)/(4π) · l(l+1)h²/4 to relative O(h²), h = π/2N
    n, h = 10 ** 9, math.pi / 2e9
    assert harness.mom.exact_mean_vnl(3, 1.0, n) == 0.0
    assert mean_v(harness.SingleEll(3, 1.0), n) == pytest.approx(
        2 * n * 7 / (4 * math.pi) * 12 * h * h / 4, rel=1e-12)


def test_fbm_mean_is_the_joint_gram_time_t_trace():
    # a fractional pair's exact mean is E[V_t], the trace of the time-t block of
    # the joint 2N×2N increment covariance R ⊗ Σ (R the 2×2 time covariance)
    n, grid = 40, covariance.LineGrid(40)
    spectrum = covariance.PowerSpectrum.power_law(1.0, 0.2, 24)
    for hurst in (0.3, 0.7):
        target = harness.FbmTarget(hurst, spectrum, (2.0, 1.0))
        (t, s), h2 = target.times, 2.0 * hurst
        r = covariance.rh_cross(hurst, t, s)
        joint = np.kron(np.array([[t ** h2, r], [r, s ** h2]]),
                        toeplitz(covariance.fbm_spatial_row(spectrum, grid)))
        want = np.trace(joint[:n, :n])
        got = harness._cell_exact(target, n)["mean"]
        assert got == pytest.approx(want, rel=1e-14)


def test_config_minimal_roundtrip():
    cfg = ExperimentConfig.from_dict(_base_config())
    assert cfg.seed == 11 and cfg.replications == 200
    assert cfg.cells == ((3, 16),)
    assert cfg.regime.kind == "fixed_ell"
    assert cfg.batch_size == 1024 and cfg.output is None


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="^config must be a JSON object$"):
        ExperimentConfig.from_dict([_base_config()])
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(typo=1))
    raw = _base_config()
    del raw["cells"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(statistics=["mean", "median"]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(seed=-3))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(replications=0))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(batch_size=0))


def test_config_target_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(target={"kind": "plane_wave"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _base_config(target={"kind": "single_ell", "ell": 3}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _base_config(target={"kind": "full_field",
                                 "spectrum": {"kind": "power_law", "c0": 1.0}}))
    for times in ([1], [1, 2, 3]):
        with pytest.raises(ConfigError, match=r"^fbm times must be a list of two "
                                              rf"numbers, got {len(times)}$"):
            ExperimentConfig.from_dict(_base_config(target={
                "kind": "fbm", "hurst": 0.7, "times": times,
                "spectrum": {"kind": "explicit", "values": [1.0]}}))
    cfg = ExperimentConfig.from_dict(_base_config(
        target={"kind": "full_field",
                "spectrum": {"kind": "power_law", "c0": 1.0, "epsilon": 0.2,
                             "l_max": 64}}))
    assert cfg.targets[0].spectrum.l_max == 64


def test_config_fbm_target():
    raw = _base_config(
        statistics=["mean", "hurst"],
        target={"kind": "fbm", "hurst": 0.7, "times": [2.0, 1.0],
                "spectrum": {"kind": "explicit", "values": [1.0, 0.5]}},
        cells=[[1, 16]])
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.targets[0].hurst == 0.7
    bad = dict(raw)
    bad["target"] = dict(raw["target"], hurst=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


_TWO_DEGREES = {"kind": "explicit", "values": [1.0, 0.5]}


@pytest.mark.parametrize("target, cls", [
    ({"kind": "single_ell", "c_ell": 1.5}, simulate.SingleEll),
    ({"kind": "full_field", "spectrum": _TWO_DEGREES}, simulate.FullField),
    ({"kind": "fbm", "hurst": 0.7, "times": [2.0, 1.0], "spectrum": _TWO_DEGREES},
     simulate.FbmTarget),
], ids=["single_ell", "full_field", "fbm"])
def test_config_builds_each_cells_sampler_target_once(monkeypatch, target, cls):
    built = []

    class Counted(cls):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, cls.__name__, Counted)
    cells = [[2, 16], [3, 32], [5, 64]]
    cfg = ExperimentConfig.from_dict(_base_config(
        target=target, cells=cells, regime={"kind": "ell_slower"},
        statistics=["mean", "hurst"] if target["kind"] == "fbm" else ["mean"]))
    assert len(cfg.targets) == len(cfg.cells) == 3
    assert all(isinstance(t, cls) for t in cfg.targets)
    if cls is simulate.SingleEll:
        # one per cell, at the cell's degree
        assert [t.ell for t in cfg.targets] == [2, 3, 5]
        assert [t.c_ell for t in cfg.targets] == [1.5] * 3
        assert built == list(cfg.targets)
    else:
        # one object, parsed once and shared by every cell
        assert len(built) == 1 and all(t is built[0] for t in cfg.targets)
    assert not hasattr(cfg, "target")


def test_config_regime_coupling():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(cells=[[3, 16], [4, 32]]))
    ok = _base_config(cells=[[16, 16], [32, 32]],
                      regime={"kind": "ell_comparable", "c": 1.0})
    assert ExperimentConfig.from_dict(ok).regime.c == 1.0
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _base_config(cells=[[16, 17]],
                         regime={"kind": "ell_comparable", "c": 1.0}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _base_config(cells=[[8, 16]], regime={"kind": "ell_faster"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            _base_config(cells=[[16, 8]], regime={"kind": "ell_slower"}))


_TARGETS = {
    "single_ell": {"kind": "single_ell", "c_ell": 1.0},
    "full_field": {"kind": "full_field", "spectrum": {"kind": "explicit", "values": [1.0]}},
    "fbm": {"kind": "fbm", "hurst": 0.5, "times": [2.0, 1.0],
            "spectrum": {"kind": "explicit", "values": [1.0]}},
}
# the target kinds each statistic applies to, and its fewest replications
_APPLIES = {"mean": ("single_ell", "full_field", "fbm"),
            "var": ("single_ell", "full_field", "fbm"),
            "k3": ("single_ell", "full_field"),
            "k4": ("single_ell", "full_field"),
            "ks_normal": ("single_ell", "full_field", "fbm"),
            "estimator_error": ("single_ell",),
            "hurst": ("fbm",)}
_MIN_REPS = {"mean": 2, "var": 20, "k3": 30, "k4": 40, "ks_normal": 200,
             "estimator_error": 20, "hurst": 2}


@pytest.mark.parametrize("kind", sorted(_TARGETS))
@pytest.mark.parametrize("stat", sorted(_APPLIES))
def test_config_statistic_target_coupling(stat, kind):
    raw = _base_config(statistics=[stat], target=_TARGETS[kind])
    if kind in _APPLIES[stat]:
        assert ExperimentConfig.from_dict(raw).statistics == (stat,)
    else:
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert str(err.value) == f"statistics ['{stat}'] do not apply to {kind} targets"


@pytest.mark.parametrize("stat", sorted(_MIN_REPS))
def test_config_statistic_minimum_replications(stat):
    need = _MIN_REPS[stat]
    target = _TARGETS[_APPLIES[stat][0]]
    raw = _base_config(statistics=[stat], target=target, replications=need)
    assert ExperimentConfig.from_dict(raw).replications == need
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(dict(raw, replications=need - 1))
    assert str(err.value) == (f"statistics ['{stat}'] need at least {need} "
                              f"replications, got {need - 1}")


@pytest.mark.parametrize("name", [["mean"], {"mean": 1}, 5], ids=["list", "dict", "number"])
def test_config_non_string_statistic_is_unknown(name):
    with pytest.raises(ConfigError, match=r"^unknown statistics \["):
        ExperimentConfig.from_dict(_base_config(statistics=["mean", name]))


# JSON values leaning towards the names and edge numbers a config uses, and
# config-shaped values that reach the checks behind each key's type test
_NAMES = st.sampled_from(["mean", "var", "k4", "ks_normal", "estimator_error",
                          "hurst", "kind", "c", "fixed_ell", "ell_comparable"])
_LEAF = (st.none() | st.booleans() | st.integers() | st.floats() | st.text() | _NAMES
         | st.sampled_from([2 ** 63, 2 ** 64, 10 ** 400, 1.7e308, -0.0]))
_JSON = st.recursive(
    _LEAF, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_NAMES | st.text(), inner, max_size=3), max_leaves=12)
_SPECTRUM = (st.fixed_dictionaries({"kind": st.just("power_law"), "c0": _LEAF,
                                     "epsilon": _LEAF, "l_max": _LEAF})
             | st.fixed_dictionaries({"kind": st.just("explicit"),
                                      "values": st.lists(_LEAF, max_size=3)},
                                     optional={"l_min": _LEAF}))
_SHAPED = {
    "cells": st.lists(st.lists(_LEAF, max_size=3), max_size=3),
    "statistics": st.lists(_LEAF, max_size=3),
    "regime": st.fixed_dictionaries(
        {"kind": st.sampled_from(["fixed_ell", "ell_comparable", "ell_faster",
                                  "ell_slower"])},
        optional={"c": _LEAF}),
    "target": st.fixed_dictionaries({"kind": st.just("single_ell")},
                                    optional={"c_ell": _LEAF})
    | st.fixed_dictionaries({"kind": st.just("full_field"), "spectrum": _SPECTRUM})
    | st.fixed_dictionaries({"kind": st.just("fbm"), "hurst": _LEAF, "spectrum": _SPECTRUM,
                             "times": st.lists(_LEAF, max_size=3)}),
}


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(["seed", "replications", "batch_size", "cells",
                        "statistics", "regime", "target"]),
       st.booleans(), st.booleans(), st.data())
def test_any_json_value_is_a_config_or_a_config_error(key, comparable, shaped, data):
    raw = _base_config()
    if comparable:  # cells (3, 16) under l = round(c·N)
        raw["regime"] = {"kind": "ell_comparable", "c": 3 / 16}
    raw[key] = data.draw(_SHAPED.get(key, _LEAF) if shaped else _JSON)
    try:
        ExperimentConfig.from_dict(raw)
    except ConfigError:
        pass


# ======================================================================
# Running experiments
# ======================================================================

def _small_run(threads=None):
    cfg = ExperimentConfig.from_dict({
        "seed": 901,
        "replications": 2000,
        "statistics": ["mean", "var", "k3", "k4", "ks_normal",
                       "estimator_error"],
        "target": {"kind": "single_ell", "c_ell": 1.3},
        "cells": [[2, 16]],
        "batch_size": 256,
    })
    return run_experiment(cfg, threads=threads)


def test_small_experiment_agrees_with_oracles():
    report = _small_run(threads=2)
    ok, checked, failures = check_oracle_agreement(report, band=4.0)
    assert checked == 6  # mean, var, k3, k4, estimator_mean, estimator_var
    assert failures == []
    assert ok == checked
    stats_seen = [r.stat for r in report.rows]
    assert stats_seen == ["mean", "var", "k3", "k4", "ks_normal",
                          "estimator_mean", "estimator_var"]


def test_experiment_output_is_worker_count_invariant():
    a, b = _small_run(threads=1), _small_run(threads=4)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


_FIELD = {"kind": "power_law", "c0": 1.0, "epsilon": 0.2, "l_max": 24}


@pytest.mark.parametrize("target, cells, statistics", [
    ({"kind": "single_ell", "c_ell": 1.1}, [[3, 16], [3, 24]], ["mean", "var"]),
    ({"kind": "full_field", "spectrum": _FIELD}, [[3, 16], [3, 24]], ["mean", "var"]),
    ({"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0], "spectrum": dict(_FIELD, l_max=40)},
     [[1, 32]], ["mean", "var", "ks_normal", "hurst"]),
], ids=["single_ell", "full_field", "fbm"])
def test_every_batch_samples_on_the_calling_thread(monkeypatch, target, cells, statistics):
    # several degree chunks per multi-degree batch, so the draw helper runs
    # beside each; at any worker count every batch runs on the caller, no
    # other thread starts, and the report is one worker's byte for byte
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 200)
    cfg = ExperimentConfig.from_dict({
        "seed": 9, "replications": 200, "batch_size": 50,
        "statistics": statistics, "target": target, "cells": cells,
    })
    want = run_experiment(cfg, threads=1)
    batch, seen, alive = harness.batch_quadratic_variation, [], set()

    def record(*args):
        seen.append(threading.current_thread())
        alive.update(threading.enumerate())
        return batch(*args)

    monkeypatch.setattr(harness, "batch_quadratic_variation", record)
    for threads in (1, 2, 4):
        seen.clear()
        got = run_experiment(cfg, threads=threads)
        assert len(seen) == 4 * len(cells)
        assert all(t is threading.main_thread() for t in seen)
        assert got.to_json() == want.to_json()
        assert got.to_csv() == want.to_csv()
    assert all(t is threading.main_thread() or t.name.startswith("sphereqv-draw")
               for t in alive)


@pytest.mark.parametrize("threads", [1, 2])
def test_interrupt_flushes_the_finished_cells(monkeypatch, threads):
    # the second cell's second batch is interrupted: the flush holds the
    # first cell's rows, as a run of that cell alone writes them
    raw = {"seed": 7, "replications": 200, "batch_size": 50,
           "statistics": ["mean", "var"],
           "target": {"kind": "single_ell", "c_ell": 1.0}, "cells": [[3, 16], [3, 24]]}
    want = run_experiment(ExperimentConfig.from_dict(dict(raw, cells=[[3, 16]])),
                          threads=threads)
    batch = harness.batch_quadratic_variation

    def interrupt(spec, start, count):
        if spec.grid.n == 24 and start == 50:
            raise KeyboardInterrupt
        return batch(spec, start, count)

    monkeypatch.setattr(harness, "batch_quadratic_variation", interrupt)
    flushed = []
    with pytest.raises(KeyboardInterrupt):
        run_experiment(ExperimentConfig.from_dict(raw), threads=threads,
                       partial_flush=flushed.append)
    assert len(flushed) == 1 and len(flushed[0].rows) == 2
    assert flushed[0].to_json() == want.to_json()
    assert flushed[0].to_csv() == want.to_csv()


def _cells_from_threads(cells, c_ell, seed, reps, batch, threads):
    """Each single-degree cell's V, its batches handed to
    ``simulate.batch_quadratic_variation`` from ``threads`` pool threads at
    once (one thread: in order on the caller)."""
    out = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        run = map if threads == 1 else pool.map
        for ell, n in cells:
            spec = simulate.SampleSpec(target=simulate.SingleEll(ell, c_ell),
                                       grid=covariance.LineGrid(n), seed=seed,
                                       replications=reps)
            starts = range(0, reps, batch)
            counts = [min(batch, reps - s) for s in starts]
            out.append(np.concatenate(list(run(simulate.batch_quadratic_variation,
                                               repeat(spec), starts, counts))))
    return [v.tobytes() for v in out]


def test_shared_cell_basis_survives_thread_stress():
    # a cell's batches share one cached read-only basis across the threads
    # that call the sampler; with more threads than cores and a short switch
    # interval the values stay byte-identical to one thread's
    args = ([[4, 16], [4, 24], [4, 16]], 0.9, 5, 640, 32)
    want = _cells_from_threads(*args, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _cells_from_threads(*args, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("threads", [2, 8])
def test_concurrent_batches_build_each_cell_table_once(monkeypatch, threads):
    # every batch of a cell asks for the same basis at once; the table build
    # is slowed so that, without single flight, a second thread would miss
    # the cache while the first is still building and build it again
    args = ([[6, 16], [6, 24], [6, 16]], 1.3, 11, 320, 40)
    want = _cells_from_threads(*args, threads=1)
    calls = []
    table = simulate.harmonic_meridian_table

    def slow_table(*args):
        calls.append(args[0])
        time.sleep(0.02)
        return table(*args)

    monkeypatch.setattr(simulate, "harmonic_meridian_table", slow_table)
    simulate._meridian_basis.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _cells_from_threads(*args, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert calls == [6, 6, 6]  # once per cell, each cell rebuilds its own
    assert got == want


def test_each_cell_decomposes_its_gram_once(monkeypatch):
    # k3, k4 and the fourth-moment bound share one eigendecomposition
    cfg = ExperimentConfig.from_dict({
        "seed": 21, "replications": 400,
        "statistics": ["mean", "var", "k3", "k4", "ks_normal"],
        "target": {"kind": "single_ell", "c_ell": 0.7},
        "cells": [[3, 12], [3, 20]], "batch_size": 200,
    })
    want = run_experiment(cfg, threads=1).to_json()
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    got = run_experiment(cfg, threads=1).to_json()
    assert calls == [(12, 12), (20, 20)]
    assert got == want


def _frozen_cell_rows(config, ell, n, target, samples):
    # _cell_rows before each statistic declared its rows in _STATISTICS: an
    # eager exact side, Gram and k-statistics, and one branch per statistic
    mom = harness.mom
    exact = harness._cell_exact(target, n)
    regime_str = config.regime.kind
    if config.regime.kind == mom.ELL_COMPARABLE:
        regime_str = f"ell_comparable(c={config.regime.c:g})"
    seed = config.seed
    stats = config.statistics
    v = samples[:, 0] if samples.ndim == 2 else samples

    gram = covariance.IncrementGram(n, row=exact["row"])
    kmax = 4 if "k4" in stats else (3 if "k3" in stats else 2)
    kstats = None
    if {"var", "k3", "k4"} & set(stats):
        kstats = empirical_cumulants(v, p_max=max(kmax, 2))

    rows = []

    def add(stat, empirical, se, exact_val, source):
        rows.append(CellStat(ell=ell, n=n, regime=regime_str, stat=stat,
                             empirical=float(empirical), se=float(se),
                             exact=float(exact_val), source_op=source,
                             seed=seed))

    for stat in stats:
        if stat == "mean":
            se = float(np.std(v, ddof=1) / math.sqrt(v.size))
            add("mean", float(np.mean(v)), se, exact["mean"], exact["mean_src"])
        elif stat == "var":
            add("var", kstats[0][0], kstats[0][1], exact["var"],
                "exact_var_from_row")
        elif stat == "k3":
            add("k3", kstats[1][0], kstats[1][1],
                mom.trace_cumulant(gram, 3), "trace_cumulant")
        elif stat == "k4":
            add("k4", kstats[2][0], kstats[2][1],
                mom.trace_cumulant(gram, 4), "trace_cumulant")
        elif stat == "ks_normal":
            f = (v - exact["mean"]) / math.sqrt(exact["var"])
            ks = ks_normal(f)
            add("ks_normal", ks, harness._jackknife_se(f, ks_normal),
                mom.fourth_moment_bound(gram), "fourth_moment_bound")
        elif stat == "estimator_error":
            c_ell = target.c_ell
            ratios = harness.estimate_cl(v, ell, n).value / c_ell
            se = float(np.std(ratios, ddof=1) / math.sqrt(ratios.size))
            add("estimator_mean", float(np.mean(ratios)), se, 1.0, "estimate_cl")
            kr = empirical_cumulants(ratios, p_max=2)
            add("estimator_var", kr[0][0], kr[0][1],
                exact["var"] / exact["mean"] ** 2, "exact_var_vnl/exact_mean_vnl")
        elif stat == "hurst":
            t, s = target.times
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                h = np.array([harness.estimate_hurst(vt, vs, t, s) for vt, vs in samples])
            med = float(np.median(h))
            se = harness._jackknife_se(h, np.median)
            add("hurst_median", med, se, target.hurst, "estimate_hurst")
    return rows


def _bits(row):
    """A CellStat's fields, each float as its hex form, so equal means bitwise."""
    return tuple(x.hex() if isinstance(x, float) else x for x in
                 (getattr(row, name) for name in harness._CSV_COLUMNS))


_SIX = ["mean", "var", "k3", "k4", "ks_normal", "estimator_error"]
_PAIR = {"kind": "fbm", "hurst": 0.3, "times": [2.0, 1.0], "spectrum": _FIELD}


@pytest.mark.parametrize("config", [
    {"replications": 200, "statistics": _SIX, "cells": [[3, 16]],
     "target": {"kind": "single_ell", "c_ell": 0.7}},
    {"replications": 200, "statistics": _SIX, "cells": [[20, 16]],
     "target": {"kind": "single_ell", "c_ell": 0.7}, "regime": {"kind": "ell_faster"}},
    {"replications": 200, "statistics": ["mean", "var", "k3", "k4", "ks_normal"],
     "cells": [[1, 8], [1, 16], [1, 32]], "target": {"kind": "full_field", "spectrum": _FIELD}},
    {"replications": 200, "statistics": ["mean", "var", "ks_normal", "hurst"],
     "cells": [[1, 16]], "target": _PAIR},
    {"replications": 40, "statistics": ["k4", "estimator_error", "mean", "var"],
     "cells": [[3, 16]], "target": {"kind": "single_ell", "c_ell": 0.7}},
    {"replications": 20, "statistics": ["var"], "cells": [[3, 16]],
     "target": {"kind": "single_ell"}},
    {"replications": 30, "statistics": ["k3"], "cells": [[3, 16]],
     "target": {"kind": "single_ell"}},
], ids=["single_ell_core", "single_ell_dense", "full_field", "fbm", "out_of_order",
        "var_floor", "k3_floor"])
def test_rows_are_bitwise_the_frozen_chain(config):
    cfg = ExperimentConfig.from_dict({"seed": 5, **config})
    for (ell, n), target in zip(cfg.cells, cfg.targets):
        spec = simulate.SampleSpec(target=target, grid=covariance.LineGrid(n), seed=cfg.seed,
                                   replications=cfg.replications)
        samples = harness._sample_cell(spec, cfg.batch_size)
        want = _frozen_cell_rows(cfg, ell, n, target, samples)
        got = harness._cell_rows(cfg, ell, n, target, samples)
        assert [r.stat for r in got] == [r.stat for r in want]
        assert [_bits(r) for r in got] == [_bits(r) for r in want]


@pytest.mark.parametrize("target, statistics, unread", [
    (_PAIR, ["hurst"], ("_cell_exact", "fbm_spatial_row", "IncrementGram")),
    ({"kind": "single_ell", "c_ell": 0.7}, ["mean", "var", "estimator_error"],
     ("IncrementGram",)),
    ({"kind": "full_field", "spectrum": _FIELD}, ["mean", "var"], ("IncrementGram",)),
], ids=["fbm_hurst", "single_ell", "full_field"])
def test_a_cell_forms_only_what_its_statistics_read(monkeypatch, target, statistics, unread):
    cfg = ExperimentConfig.from_dict({"seed": 5, "replications": 200, "statistics": statistics,
                                      "target": target, "cells": [[3, 16]]})
    spec = simulate.SampleSpec(target=cfg.targets[0], grid=covariance.LineGrid(16),
                               seed=cfg.seed, replications=cfg.replications)
    samples = harness._sample_cell(spec, cfg.batch_size)
    want = _frozen_cell_rows(cfg, 3, 16, cfg.targets[0], samples)

    def unexpected(*args, **kwargs):
        raise AssertionError("formed an input no requested row reads")

    for name in unread:
        monkeypatch.setattr(harness, name, unexpected)
    monkeypatch.setattr(np.linalg, "eigvalsh", unexpected)
    got = harness._cell_rows(cfg, 3, 16, cfg.targets[0], samples)
    assert [_bits(r) for r in got] == [_bits(r) for r in want]


def test_csv_shape_and_float_roundtrip():
    report = _small_run(threads=2)
    lines = report.to_csv().splitlines()
    header = lines[0].split(",")
    assert header == ["ell", "n", "regime", "stat", "empirical", "se", "exact",
                      "source_op", "seed"]
    for line, row in zip(lines[1:], report.rows):
        parts = line.split(",")
        assert len(parts) == len(header)
        assert float(parts[4]) == row.empirical  # %.17g survives the roundtrip
        assert float(parts[6]) == row.exact
    payload = json.loads(report.to_json())
    assert payload["seed"] == 901
    assert len(payload["rows"]) == len(report.rows)


def test_sweep_slopes_track_exact_decay():
    cfg = ExperimentConfig.from_dict({
        "seed": 33,
        "replications": 400,
        "statistics": ["mean", "var"],
        "target": {"kind": "single_ell", "c_ell": 1.0},
        "cells": [[3, 32], [3, 64], [3, 128]],
    })
    report = run_experiment(cfg, threads=2)
    # fixed degree: mean ~ 1/N, variance ~ 1/N²; both from exact columns
    s_mean = report.slopes["exact_mean"][0]
    assert abs(s_mean + 1.0) < 0.05
    assert "empirical_mean" in report.slopes
    s_var, _ = loglog_slope(np.array([32.0, 64.0, 128.0]),
                            np.array([r.exact for r in report.rows
                                      if r.stat == "var"]))
    assert abs(s_var + 2.0) < 0.1


def test_fbm_experiment_recovers_hurst():
    cfg = ExperimentConfig.from_dict({
        "seed": 77,
        "replications": 400,
        "statistics": ["mean", "hurst"],
        "target": {"kind": "fbm", "hurst": 0.7, "times": [2.0, 1.0],
                   "spectrum": {"kind": "explicit", "values": [1.0, 0.5]}},
        "cells": [[1, 64]],
    })
    report = run_experiment(cfg, threads=2)
    h_row = [r for r in report.rows if r.stat == "hurst_median"][0]
    assert h_row.exact == 0.7
    assert abs(h_row.empirical - 0.7) < 0.1
    assert report.slopes == {}
    ok, checked, failures = check_oracle_agreement(report)
    assert failures == []


def test_full_field_experiment_agrees_with_its_row_oracles():
    spectrum = {"kind": "power_law", "c0": 1.0, "epsilon": 0.2, "l_max": 16}
    cfg = ExperimentConfig.from_dict({
        "seed": 5,
        "replications": 400,
        "statistics": ["mean", "var"],
        "target": {"kind": "full_field", "spectrum": spectrum},
        "cells": [[1, 16], [1, 32]],
    })
    report = run_experiment(cfg, threads=1)
    power_law = covariance.PowerSpectrum.power_law(1.0, 0.2, 16)
    want = []
    for n in (16, 32):
        row = covariance.increment_row_f(power_law, covariance.LineGrid(n))
        want += [(n, "mean", n * row[0], "increment_gram_f.trace"),
                 (n, "var", harness.mom.exact_var_from_row(row), "exact_var_from_row")]
    assert [(r.n, r.stat, r.exact, r.source_op) for r in report.rows] == want
    ok, checked, failures = check_oracle_agreement(report)
    assert checked == 4 and failures == []


def test_oracle_check_flags_corrupted_exact_value():
    report = _small_run(threads=2)
    rows = list(report.rows)
    victim = rows[0]
    rows[0] = CellStat(ell=victim.ell, n=victim.n, regime=victim.regime,
                       stat=victim.stat, empirical=victim.empirical,
                       se=victim.se, exact=victim.exact * 1.5,
                       source_op=victim.source_op, seed=victim.seed)
    bad = ExperimentReport(rows=tuple(rows), slopes=report.slopes,
                           seed=report.seed, replications=report.replications)
    ok, checked, failures = check_oracle_agreement(bad)
    assert len(failures) == 1
    assert failures[0][0] == victim.stat
    assert ok == checked - 1


@pytest.mark.parametrize("hurst, replications", [(0.3, 200), (0.7, 1000)])
def test_oracle_check_fails_an_se_within_ulps_of_its_value(monkeypatch, hurst, replications):
    # the comonotone pair fault, r = t^H s^H: every Ĥ is H to rounding, and
    # the hurst_median SE reads 2.4e-16 and 7.8e-16 here, not 0, so the row
    # passed at a gap below 1 SE; 16·ε·H flags it as degenerate
    monkeypatch.setattr(simulate, "rh_cross", lambda h, t, s: (t * s) ** h)
    cfg = ExperimentConfig.from_dict({
        "seed": 3, "replications": replications, "statistics": ["mean", "var", "hurst"],
        "cells": [[1, 128]], "target": {"kind": "fbm", "hurst": hurst, "times": [2.0, 1.0],
                                        "spectrum": {"kind": "power_law", "c0": 1.0,
                                                     "epsilon": 0.2, "l_max": 64}}})
    report = run_experiment(cfg, threads=1)
    (row,) = [r for r in report.rows if r.stat == "hurst_median"]
    assert 0 < row.se < 1e-15
    assert check_oracle_agreement(report) == (2, 3, [("hurst_median", 1, 128, math.inf)])


def test_oracle_check_skips_rows_without_a_finite_se_or_exact_value():
    rows = tuple(CellStat(ell=2, n=16, regime="fixed_ell", stat="mean", empirical=1.0,
                          se=se, exact=exact, source_op="exact_mean_vnl", seed=1)
                 for se, exact in [(math.nan, 1.0), (math.inf, 1.0), (0.1, math.inf),
                                   (0.1, math.nan)])
    report = ExperimentReport(rows=rows, slopes={}, seed=1, replications=40)
    assert check_oracle_agreement(report) == (0, 0, [])


def test_slopes_drop_a_fit_that_raises():
    # divide_by_log needs N > 1, so the variance fits through N = 1 raise
    # and only the mean's slopes are reported
    cfg = ExperimentConfig.from_dict({
        "seed": 3, "replications": 40, "statistics": ["mean", "var"],
        "target": {"kind": "single_ell", "c_ell": 1.0},
        "cells": [[1, 1], [1, 2], [1, 4]]})
    report = run_experiment(cfg, threads=1)
    assert sorted(report.slopes) == ["empirical_mean", "exact_mean"]


def test_report_write_creates_both_files(tmp_path):
    report = ExperimentReport(rows=(), slopes={}, seed=1, replications=0)
    jpath, cpath = report.write(tmp_path / "out" / "report")
    with open(jpath, encoding="utf-8") as fh:
        assert json.load(fh)["seed"] == 1
    with open(cpath, "rb") as fh:
        data = fh.read()
    assert data.endswith(b"\n") and b"\r" not in data
