"""Monte Carlo experiment engine with deterministic replication.

An experiment is a sweep over (degree, grid) cells. For each cell the
harness draws replications of the quadratic variation in fixed-size
batches on the calling thread, computes the requested empirical statistics
with standard errors, and pairs every one with its exact counterpart from
the moment formulas. Each statistic is one ``_STATISTICS`` record, which
also writes its rows from the sampled cell, whose inputs are formed on
first read. Replication r of a cell depends only on (seed, r), and batches
are joined in order, so the emitted report is a function of the config
alone, for one numpy/BLAS build at one BLAS thread count: the dense
``eigvalsh`` behind the exact k3, k4 and ks_normal columns, and the
sampler's basis products, change their last bits with either.

Only ``sphereqv simulate`` and ``experiment`` load this module, and with it
``simulate``, ``estimators`` and ``numpy.random``, but no scipy module.
Its config-time cell check hands each sampler target's ``kernel`` (its
spectrum and one factor per time) to the exact side's rule
(``moments._cell_error``), which ``sphereqv moments`` runs without this
module.

Empirical cumulants use k-statistics (unbiased cumulant estimators) with
delete-block jackknife standard errors; normality is measured by the exact
Kolmogorov–Smirnov distance of the standardized statistic to N(0,1), whose
Φ is ``specfun._ndtr``, bitwise ``scipy.special.ndtr`` without loading
scipy; scaling laws are checked by least-squares slopes in log-log
coordinates.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import repeat

import numpy as np

from . import moments as mom
from .covariance import (IncrementGram, LineGrid, PowerSpectrum, fbm_spatial_row,
                         increment_row_f, increment_row_fl)
from .estimators import estimate_cl, estimate_hurst
from .moments import RegimeTag
from .simulate import (FbmTarget, FullField, SampleSpec, SingleEll, _batch_arrays,
                       batch_quadratic_variation)
from .specfun import _ndtr

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CellStat",
    "ExperimentReport",
    "run_experiment",
    "empirical_cumulants",
    "ks_normal",
    "loglog_slope",
    "check_oracle_agreement",
]

# each report statistic: the target kinds it accepts; its fewest replications
# (2 for an SE, 10·p for k-statistics to order p, 20 for the estimator ratios'
# variance, 200 for the KS distance's jackknife SE: at ks_normal's own 100, each
# jackknife sample holds 90); the highest power of V its sums reach (2 for an
# SE's squares; k-statistics form V^4 sums and jackknife k3², k4²; the fourth-
# moment bound sums eigenvalues^4); whether its exact side decomposes the dense
# N×N Gram; whether its exact column is an oracle value, not a paired diagnostic;
# and its rows, (label, empirical, se, exact, source_op) from one ``_Cell``.
# A floor makes a row computable, not its 4-SE check calibrated: strict mode
# fails a correct single-degree sampler (c_ell 1; mean, var, k3, k4) on 17 of
# seeds 1–40 at (2, 3) and 23 at (3, 16) with k4's 40 replications, and on 5
# at (3, 16) with 400, mostly on the k4 and k3 rows (README, strict mode)
_Statistic = namedtuple("_Statistic", "kinds min_reps power dense_gram oracle rows")
_ANY = {"single_ell", "full_field", "fbm"}
_STATISTICS = {
    "mean": _Statistic(_ANY, 2, 2, False, True, lambda c: [
        ("mean", *_mean_se(c.v), c.exact["mean"], c.exact["mean_src"])]),
    "var": _Statistic(_ANY, 20, 4, False, True, lambda c: [
        ("var", *c.kstats[0], c.exact["var"], "exact_var_from_row")]),
    "k3": _Statistic({"single_ell", "full_field"}, 30, 6, True, True, lambda c: [
        ("k3", *c.kstats[1], mom.trace_cumulant(c.gram, 3), "trace_cumulant")]),
    "k4": _Statistic({"single_ell", "full_field"}, 40, 8, True, True, lambda c: [
        ("k4", *c.kstats[2], mom.trace_cumulant(c.gram, 4), "trace_cumulant")]),
    "ks_normal": _Statistic(_ANY, 200, 4, True, False, lambda c: [
        ("ks_normal", ks_normal(c.standardized), _ks_jackknife_se(c.standardized),
         mom.fourth_moment_bound(c.gram), "fourth_moment_bound")]),
    "estimator_error": _Statistic({"single_ell"}, 20, 2, False, True, lambda c: [
        ("estimator_mean", *_mean_se(c.ratios), 1.0, "estimate_cl"),
        ("estimator_var", *empirical_cumulants(c.ratios, p_max=2)[0],
         c.exact["var"] / c.exact["mean"] ** 2, "exact_var_vnl/exact_mean_vnl")]),
    "hurst": _Statistic({"fbm"}, 2, 2, False, True, lambda c: [
        ("hurst_median", float(np.median(c.hurst)), _jackknife_se(c.hurst, np.median),
         c.target.hurst, "estimate_hurst")]),
}

# replications per batch unless a config sets batch_size; the partition and
# the seed fix every sampled bit
_BATCH_SIZE = 1024


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad value, bad coupling)."""


# ======================================================================
# Configuration
# ======================================================================

_SPECTRUM_KEYS = {"power_law": {"kind", "c0", "epsilon", "l_max"},
                  "explicit": {"kind", "values", "l_min"}}


def _json_object(obj, what, allowed=None, required=()):
    """``obj`` when it is a JSON object with no key outside ``allowed`` (any
    key when None) and every key in ``required``; else ConfigError. The one
    shape and key rule of every object a config or sample spec holds."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    if allowed is not None and set(obj) - allowed:
        raise ConfigError(f"unknown {what} keys {sorted(set(obj) - allowed)}")
    if missing := [key for key in required if key not in obj]:
        raise ConfigError(f"missing {what} key '{missing[0]}'")
    return obj


def _parse_spectrum(obj):
    kind = _json_object(obj, "spectrum").get("kind")
    allowed = _SPECTRUM_KEYS.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise ConfigError("spectrum.kind must be 'power_law' or 'explicit'")
    _json_object(obj, "spectrum", allowed)
    if kind == "power_law":
        make, args = PowerSpectrum.power_law, (
            _config_real(obj.get("c0"), "power_law c0 must be a finite number"),
            _config_real(obj.get("epsilon"), "power_law epsilon must be a finite number"),
            _config_int(obj.get("l_max"), "power_law l_max must be an integer ≥ 1", 1, 2 ** 63))
    else:
        make, values = PowerSpectrum.explicit, obj.get("values")
        if not isinstance(values, list):
            raise ConfigError("explicit values must be a list of numbers")
        args = ([_config_real(v, "explicit values must be finite numbers") for v in values],
                _config_int(obj.get("l_min", 1), "explicit l_min must be an integer ≥ 0",
                            0, 2 ** 63))
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"bad {kind} spectrum: {exc}") from exc


def _config_int(value, message, lo=1, hi=math.inf):
    """value as an int in [lo, hi), else ConfigError(message). Integral floats
    (3.0) pass; bools, strings, None and fractional or non-finite numbers do not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not lo <= value < hi):
        raise ConfigError(message)
    return int(value)


def _config_real(value, message, lo=-sys.float_info.max):
    """value as a finite float ≥ lo, else ConfigError(message). Ints pass;
    bools, strings, None, NaN, infinities and ints beyond the float range do not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not lo <= value <= sys.float_info.max):
        raise ConfigError(message)
    return float(value)


def _parse_regime(obj):
    if obj is None:
        return RegimeTag.fixed_ell()
    _json_object(obj, "regime", {"kind", "c"})
    try:
        return RegimeTag(obj.get("kind"), obj.get("c"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_TARGET_KEYS = {"single_ell": {"kind", "c_ell"},
                "full_field": {"kind", "spectrum"},
                "fbm": {"kind", "hurst", "times", "spectrum"}}


def _parse_target(obj, ell):
    """The sampler target (SingleEll at degree ``ell``, FullField or FbmTarget)
    of a config's target object; ConfigError for a malformed object, with
    ``bad {kind} target: …`` for values the library refuses."""
    kind = _json_object(obj, "target", required=("kind",))["kind"]
    allowed = _TARGET_KEYS.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise ConfigError(f"unknown target kind {kind!r}")
    _json_object(obj, "target", allowed)
    if kind == "single_ell":
        c_ell = obj.get("c_ell", 1.0)
        make, args = SingleEll, (ell, _config_real(
            c_ell, f"c_ell must be a finite non-negative number, got {c_ell!r}", 0.0))
    elif kind == "full_field":
        make, args = FullField, (_parse_spectrum(obj.get("spectrum")),)
    else:
        times = obj.get("times")
        if not isinstance(times, list) or len(times) != 2:
            got = f", got {len(times)}" if isinstance(times, list) else ""
            raise ConfigError(f"fbm times must be a list of two numbers{got}")
        hurst = _config_real(obj.get("hurst"), "fbm hurst must be a finite number")
        times = tuple(_config_real(t, "fbm times must be finite numbers") for t in times)
        make, args = FbmTarget, (hurst, _parse_spectrum(obj.get("spectrum")), times)
    # the parsing stays outside: its ConfigErrors are ValueErrors too
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"bad {kind} target: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    ``cells`` is a tuple of (ell, n) pairs (ell is carried but unused for fbm
    targets); ``targets`` holds each cell's sampler target: a SingleEll at its
    degree, or one FullField or FbmTarget shared by all; ``regime`` tags every cell.
    """

    seed: int
    replications: int
    statistics: tuple
    targets: tuple
    cells: tuple
    regime: RegimeTag
    output: str | None = None
    batch_size: int = _BATCH_SIZE

    @classmethod
    def from_dict(cls, raw):
        required = ("seed", "replications", "statistics", "target", "cells")
        _json_object(raw, "config", {*required, "regime", "output", "batch_size"}, required)

        seed = _config_int(raw["seed"], "seed must be an unsigned 64-bit integer",
                           0, 2 ** 64)
        reps = _config_int(raw["replications"], "replications must be a positive integer")

        stats = raw["statistics"]
        if not isinstance(stats, list) or not stats:
            raise ConfigError("statistics must be a nonempty list of names")
        stats = tuple(stats)
        # a list or dict among the names is unhashable: no table lookup
        if bad := [s for s in stats if not isinstance(s, str) or s not in _STATISTICS]:
            raise ConfigError(f"unknown statistics {bad}")
        # a repeated name writes its rows twice, diluting strict mode's ratio
        if twice := sorted({s for s in stats if stats.count(s) > 1}):
            raise ConfigError(f"statistics {twice} are named more than once")
        need = max(_STATISTICS[s].min_reps for s in stats)
        if reps < need:
            raise ConfigError(f"statistics {list(stats)} need at least {need} "
                              f"replications, got {reps}")

        # read ahead of the parse: an fbm cell may carry any ell
        kind = raw["target"].get("kind") if isinstance(raw["target"], dict) else None

        if not isinstance(raw["cells"], list) or not raw["cells"]:
            raise ConfigError("cells must be a nonempty list of [ell, n] pairs")
        cells = []
        for cell in raw["cells"]:
            msg = f"bad cell {cell!r}"
            if not isinstance(cell, list) or len(cell) != 2:
                raise ConfigError(msg)
            cells.append((_config_int(cell[0], msg, -math.inf if kind == "fbm" else 1),
                          _config_int(cell[1], msg, 1, 2 ** 63)))  # int64 grid sizes
        if kind == "single_ell":
            targets = tuple(_parse_target(raw["target"], ell) for ell, _ in cells)
        else:
            targets = (_parse_target(raw["target"], None),) * len(cells)

        regime = _parse_regime(raw.get("regime"))
        _check_coupling(regime, cells, kind)
        power = max(_STATISTICS[s].power for s in stats)
        for target, (_, n) in zip(targets, cells):
            _check_cell(target, n, power, reps)
        if bad := [s for s in stats if kind not in _STATISTICS[s].kinds]:
            raise ConfigError(f"statistics {bad} do not apply to {kind} targets")

        batch = _config_int(raw.get("batch_size", _BATCH_SIZE),
                            "batch_size must be a positive integer")

        output = raw.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("output must be a path string")

        return cls(seed=seed, replications=reps, statistics=stats,
                   targets=targets, cells=tuple(cells), regime=regime,
                   output=output, batch_size=batch)


def _check_coupling(regime, cells, target_kind):
    """The (ell, n) pairs must realize the declared regime."""
    if target_kind == "fbm":
        return
    kind = regime.kind
    if kind == mom.FIXED_ELL:
        if len({ell for ell, _ in cells}) > 1:
            raise ConfigError("fixed_ell sweep must keep the degree constant")
    elif kind == mom.ELL_COMPARABLE:
        for ell, n in cells:
            if not (math.isfinite(regime.c * n) and ell == round(regime.c * n)):
                raise ConfigError(
                    f"cell ({ell},{n}) violates coupling l = round(c·N), c={regime.c}")
    elif kind == mom.ELL_FASTER:
        for ell, n in cells:
            if ell <= n:
                raise ConfigError(f"cell ({ell},{n}) has l ≤ N under ell_faster")
    else:
        for ell, n in cells:
            if ell >= n:
                raise ConfigError(f"cell ({ell},{n}) has l ≥ N under ell_slower")


# ======================================================================
# Report containers
# ======================================================================

@dataclass(frozen=True)
class CellStat:
    """One empirical statistic paired with its exact counterpart."""

    ell: int
    n: int
    regime: str
    stat: str
    empirical: float
    se: float
    exact: float
    source_op: str
    seed: int

    def as_dict(self):
        return asdict(self)


_CSV_COLUMNS = tuple(f.name for f in fields(CellStat))


def _fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


@dataclass(frozen=True)
class ExperimentReport:
    """Deterministic result of one experiment run."""

    rows: tuple
    slopes: dict = field(default_factory=dict)
    seed: int = 0
    replications: int = 0

    def to_json(self):
        payload = {
            "replications": self.replications,
            "rows": [r.as_dict() for r in self.rows],
            "seed": self.seed,
            "slopes": self.slopes,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self):
        lines = [",".join(_CSV_COLUMNS)]
        for r in self.rows:
            d = r.as_dict()
            lines.append(",".join(_fmt(d[c]) for c in _CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def write(self, base_path):
        """Write <base>.json and <base>.csv (UTF-8, LF)."""
        base = str(base_path)
        os.makedirs(os.path.dirname(base) or ".", exist_ok=True)
        with open(base + ".json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())
        with open(base + ".csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())
        return base + ".json", base + ".csv"


# ======================================================================
# Statistics
# ======================================================================

def _jackknife_groups(n):
    """Delete-block jackknife block count for n samples."""
    return 50 if n >= 500 else max(2, n // 10)


def _block_bounds(n, groups):
    edges = np.linspace(0, n, groups + 1).astype(int)
    return list(zip(edges[:-1], edges[1:]))


def empirical_cumulants(samples, p_max=4):
    """k-statistics k₂..k_{p_max} with delete-block jackknife standard errors.

    k-statistics are the unbiased estimators of cumulants:
        k₂ = n m₂/(n−1)
        k₃ = n² m₃/((n−1)(n−2))
        k₄ = n² [(n+1) m₄ − 3(n−1) m₂²] / ((n−1)(n−2)(n−3))
    with m_r the central sample moments. Standard errors come from delete-
    block jackknife over G contiguous blocks (G = 50 for large samples),
    computed from per-block power sums so the cost stays O(n + G).

    Returns [(k_p, se_p)] for p = 2..p_max. Requires ≥ 10·p_max samples.
    """
    if not (2 <= p_max <= 4):
        raise ValueError("p_max must be 2, 3 or 4")
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n < 10 * p_max:
        raise ValueError(f"need at least {10 * p_max} samples, got {n}")

    groups = _jackknife_groups(n)
    bounds = _block_bounds(n, groups)
    powers = np.empty((4, groups))
    for b, (lo, hi) in enumerate(bounds):
        seg = x[lo:hi]
        powers[0, b] = seg.sum()
        powers[1, b] = (seg * seg).sum()
        powers[2, b] = (seg ** 3).sum()
        powers[3, b] = (seg ** 4).sum()
    totals = powers.sum(axis=1)
    counts = np.array([hi - lo for lo, hi in bounds], dtype=float)

    def kstats(s1, s2, s3, s4, m):
        mu = s1 / m
        r2 = s2 / m
        r3 = s3 / m
        r4 = s4 / m
        m2 = r2 - mu ** 2
        m3 = r3 - 3 * mu * r2 + 2 * mu ** 3
        m4 = r4 - 4 * mu * r3 + 6 * mu ** 2 * r2 - 3 * mu ** 4
        k2 = m * m2 / (m - 1)
        k3 = m ** 2 * m3 / ((m - 1) * (m - 2))
        k4 = (m ** 2 * ((m + 1) * m4 - 3 * (m - 1) * m2 ** 2)
              / ((m - 1) * (m - 2) * (m - 3)))
        return k2, k3, k4

    full = kstats(*totals, float(n))
    leave = np.array([
        kstats(totals[0] - powers[0, b], totals[1] - powers[1, b],
               totals[2] - powers[2, b], totals[3] - powers[3, b],
               float(n) - counts[b])
        for b in range(groups)
    ])  # (groups, 3)
    g = float(groups)
    se = np.sqrt((g - 1.0) / g
                 * np.sum((leave - leave.mean(axis=0)) ** 2, axis=0))
    return [(float(full[p - 2]), float(se[p - 2])) for p in range(2, p_max + 1)]


def _jackknife_spread(vals):
    """Jackknife SE from the G leave-one-block-out values of a statistic."""
    vals = np.asarray(vals, dtype=float)
    g = float(vals.size)
    return float(np.sqrt((g - 1.0) / g * np.sum((vals - vals.mean()) ** 2)))


def _jackknife_se(samples, statistic):
    """Delete-block jackknife SE of an arbitrary statistic (generic, O(G·n))."""
    x = np.asarray(samples, dtype=float)
    n = x.shape[0]
    return _jackknife_spread([statistic(np.concatenate([x[:lo], x[hi:]]))
                              for lo, hi in _block_bounds(n, _jackknife_groups(n))])


def _ks_grid(n):
    """The empirical CDF's steps (i/n, (i−1)/n), i = 1..n, of an n-sample."""
    i = np.arange(1, n + 1, dtype=float)
    return i / n, (i - 1.0) / n


def _ks_sorted(phi, grid):
    """KS distance of a sample given as Φ of its sorted values and their
    ``_ks_grid(phi.size)``."""
    upper, lower = grid
    return float(max(np.max(upper - phi), np.max(phi - lower)))


def _ks_jackknife_se(samples):
    """Bitwise ``_jackknife_se(samples, ks_normal)``, from one sort.

    Sorts once and evaluates Φ once; each leave-one-block-out distance then
    drops that block's members from the sorted Φ by mask. Equal values
    give equal Φ, so every distance sees the same sorted array as a fresh
    sort of its subsample, and goes through the same elementwise ops. The
    blocks differ in size by at most one, so the leave-one-out samples
    have at most two sizes, and each size's rank grid is built once.
    """
    x = np.asarray(samples, dtype=float).ravel()
    bounds = _block_bounds(x.size, _jackknife_groups(x.size))
    # block labels of the sorted sample; ≤ 50 blocks fit in one byte each
    block = np.repeat(np.arange(len(bounds), dtype=np.uint8), [hi - lo for lo, hi in bounds])
    # the loop below is the row's memory peak: Φ overwrites the sorted copy
    # and the permutation is dropped first, keeping it near the generic one's
    order = np.argsort(x)
    phi, block = x[order], block[order]
    del order
    _ndtr(phi, out=phi)
    sizes = [x.size - (hi - lo) for lo, hi in bounds]
    grids = {m: _ks_grid(m) for m in set(sizes)}
    return _jackknife_spread([_ks_sorted(phi[block != b], grids[m])
                              for b, m in enumerate(sizes)])


def ks_normal(samples):
    """Exact Kolmogorov–Smirnov distance to the standard normal.

    D = max_i max(i/n − Φ(x_(i)), Φ(x_(i)) − (i−1)/n) over the sorted
    sample. Requires at least 100 samples.
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if n < 100:
        raise ValueError(f"need at least 100 samples, got {n}")
    return _ks_sorted(_ndtr(np.sort(x)), _ks_grid(n))


def loglog_slope(xs, ys, log_correction=None):
    """Least-squares slope of log y against log x, with its standard error.

    ``log_correction='divide_by_log'`` fits log(y/ln x) instead, removing a
    known logarithmic factor before the power-law fit (requires x > 1).
    Needs at least 3 strictly positive points.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3 or xs.size != ys.size:
        raise ValueError("need at least 3 paired points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs strictly positive data")
    if log_correction not in (None, "divide_by_log"):
        raise ValueError("log_correction must be None or 'divide_by_log'")
    if log_correction == "divide_by_log":
        if np.any(xs <= 1):
            raise ValueError("divide_by_log needs x > 1")
        ys = ys / np.log(xs)
    lx = np.log(xs)
    ly = np.log(ys)
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0:
        raise ValueError("x values must not be all equal")
    slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (intercept + slope * lx)
    dof = xs.size - 2
    stderr = float(np.sqrt(np.sum(resid ** 2) / dof / sxx)) if dof > 0 else float("nan")
    return slope, stderr


# ======================================================================
# The experiment engine
# ======================================================================

def _check_cell(target, n, power=1, reps=1):
    """ConfigError when ``moments._cell_error`` refuses the target's kernel on
    an N-increment grid: V, or a sum of V^power over reps replications
    (``_STATISTICS``' power), could overflow or underflow, or V is identically
    zero. The target, when built, refuses a top degree beyond the sampler's."""
    if why := mom._cell_error(*target.kernel, n, power, reps):
        raise ConfigError(why)


def _cell_exact(target, n):
    """Exact Gram row, mean and variance of one cell (O(N), no dense Gram)."""
    grid = LineGrid(n)
    if isinstance(target, SingleEll):
        row = increment_row_fl(target.ell, target.c_ell, grid)
        mean = mom.exact_mean_vnl(target.ell, target.c_ell, n)
        mean_src = "exact_mean_vnl"
    elif isinstance(target, FullField):
        row = increment_row_f(target.spectrum, grid)
        mean = n * row[0]
        # this label and the fbm one name removed functions; the benchmark's
        # pinned report digests hold both byte for byte
        mean_src = "increment_gram_f.trace"
    else:
        # V at the first time t: the spatial row scaled by its factor t^(2H)
        row = target.kernel[1][0] * fbm_spatial_row(target.spectrum, grid)
        mean = n * row[0]
        mean_src = "fbm_joint_gram.trace"
    var = mom.exact_var_from_row(row)
    return {"row": row, "mean": mean, "mean_src": mean_src, "var": var}


def _mean_se(x):
    """The sample mean of ``x`` and its standard error."""
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))


class _Cell:
    """One sampled cell as ``_STATISTICS``' rows read it: V (the first time's,
    for a pair) and each input of a row, formed on first read only."""

    exact = cached_property(lambda c: _cell_exact(c.target, c.n))
    gram = cached_property(lambda c: IncrementGram(c.n, row=c.exact["row"]))
    # k2..k4 read every replication whatever p_max, which bounds R only
    kstats = cached_property(lambda c: empirical_cumulants(c.v, p_max=min(4, c.v.size // 10)))
    standardized = cached_property(lambda c: (c.v - c.exact["mean"]) / math.sqrt(c.exact["var"]))
    ratios = cached_property(lambda c: estimate_cl(c.v, c.ell, c.n).value / c.target.c_ell)

    def __init__(self, ell, n, target, samples):
        self.ell, self.n, self.target, self.samples = ell, n, target, samples
        self.v = samples[:, 0] if samples.ndim == 2 else samples

    @cached_property
    def hurst(self):
        t, s = self.target.times
        # per-replication estimates scatter outside (0,1) by design;
        # the median absorbs them, so the per-value warning is noise here
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return np.array([estimate_hurst(vt, vs, t, s) for vt, vs in self.samples])


def _cell_rows(config, ell, n, target, samples):
    """The CellStat rows of one cell: each named statistic's rows, in the
    config's order."""
    regime = config.regime
    regime_str = (f"ell_comparable(c={regime.c:g})" if regime.kind == mom.ELL_COMPARABLE
                  else regime.kind)
    cell = _Cell(ell, n, target, samples)
    return [CellStat(ell=ell, n=n, regime=regime_str, stat=label, empirical=float(empirical),
                     se=float(se), exact=float(exact), source_op=source, seed=config.seed)
            for stat in config.statistics
            for label, empirical, se, exact, source in _STATISTICS[stat].rows(cell)]


def _cell_arrays(target, n, batch, replications, dense_gram):
    """(bytes, name) of each large array sampling ``target`` allocates.

    ``target`` is a sampler target on an N-increment grid, drawn for
    ``replications`` in batches of ``batch``: one batch's arrays
    (``simulate._batch_arrays``), the times·R sampled values and, with
    ``dense_gram``, the dense N×N Gram decomposed after sampling.
    """
    arrays = _batch_arrays(target, n, min(batch, replications))
    arrays.append((8 * len(target.kernel[1]) * replications, "sampled values"))
    if dense_gram:
        arrays.append((8 * n * n, "dense Gram"))
    return arrays


def _fit_slopes(config, rows):
    """Log-log slopes across the sweep, from exact and empirical columns."""
    if len({n for _, n in config.cells}) < 3 or isinstance(config.targets[0], FbmTarget):
        return {}
    slopes = {}
    for stat, corr, key in (("mean", None, "mean"), ("var", "divide_by_log", "var_divlog")):
        cells = [r for r in rows if r.stat == stat]
        xs = np.array([r.n for r in cells], dtype=float)
        try:  # no fit below 3 cells, nor through non-positive values
            s, e = loglog_slope(xs, np.array([r.exact for r in cells]), corr)
            slopes[f"exact_{key}"] = [s, e]
            s, e = loglog_slope(xs, np.array([r.empirical for r in cells]), corr)
            slopes[f"empirical_{key}"] = [s, e]
        except ValueError:
            continue
    return slopes


def _sample_cell(spec, batch):
    """The spec's V (or (V_t, V_s)) per replication: batches of ``batch``
    drawn in order on the calling thread and joined."""
    starts = range(0, spec.replications, batch)
    counts = [min(batch, spec.replications - s) for s in starts]
    return np.concatenate(
        list(map(batch_quadratic_variation, repeat(spec), starts, counts)), axis=0)


def run_experiment(config, threads=None, partial_flush=None):
    """Execute an experiment; deterministic for (config, seed).

    Every cell's replications are drawn in fixed batches of
    ``config.batch_size`` on the calling thread, which also runs the exact
    side. ``threads`` is ignored, kept for the callers that pass it
    (acceptance check 10 and ``sphereqv experiment --threads``). On
    KeyboardInterrupt the rows finished so far are flushed through
    ``partial_flush`` (if given) before the interrupt propagates.
    """
    all_rows = []
    try:
        for (ell, n), target in zip(config.cells, config.targets):
            spec = SampleSpec(target=target, grid=LineGrid(n), seed=config.seed,
                              replications=config.replications)
            samples = _sample_cell(spec, config.batch_size)
            all_rows.extend(_cell_rows(config, ell, n, target, samples))
    except KeyboardInterrupt:
        if partial_flush is not None:
            partial_flush(ExperimentReport(rows=tuple(all_rows), slopes={},
                                           seed=config.seed,
                                           replications=config.replications))
        raise
    report = ExperimentReport(rows=tuple(all_rows),
                              slopes=_fit_slopes(config, all_rows),
                              seed=config.seed,
                              replications=config.replications)
    return report


# an SE at most this fraction of its row's larger value, 16 ulps, is degenerate
_SE_FLOOR = 16 * sys.float_info.epsilon


def check_oracle_agreement(report, band=4.0):
    """Fraction of empirical/exact pairs agreeing within ``band`` SEs.

    Rows whose exact column is a paired diagnostic rather than an oracle
    (ks_normal) are skipped, as are rows without a finite SE. A row whose
    SE is at most 16·ε·max(|empirical|, |exact|), 0 included, fails at an
    infinite gap: configs whose V is identically zero are refused, so an SE
    within a few ulps of the values comes only from a degenerate sample,
    such as a comonotone fractional pair whose every Ĥ is H to rounding.
    Returns (n_ok, n_checked, failures) with one (stat, ell, n, gap_in_se)
    tuple per violation.
    """
    ok = 0
    checked = 0
    failures = []
    for r in report.rows:
        if r.stat in _STATISTICS and not _STATISTICS[r.stat].oracle:
            continue
        if not (math.isfinite(r.exact) and math.isfinite(r.se)):
            continue
        checked += 1
        degenerate = r.se <= _SE_FLOOR * max(abs(r.empirical), abs(r.exact))
        gap = math.inf if degenerate else abs(r.empirical - r.exact) / r.se
        if gap <= band:
            ok += 1
        else:
            failures.append((r.stat, r.ell, r.n, gap))
    return ok, checked, failures
