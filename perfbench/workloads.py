"""The benchmark's workloads: inputs generated from a seed, the CLI calls that
run them, and the checks that their outputs are right.

Each workload is a list of ``sphereqv`` CLI calls made in process through
``sphereqv.cli.main``. Generated configs and report files live in a scratch
directory the caller owns; nothing is written next to the sources.

Output checks (every workload's output must also be identical across the
iterations of one run):

* experiment workloads: the report pair is written and, at the default seed
  and full size, strict mode passes and the report bytes (JSON + CSV) hash
  to the digest in ``reference.json``. ``many_reps`` and ``fbm_pair`` need
  every oracle row within 4 SE, except that a ``hurst_median`` need only lie
  within 0.05 of its H: its SE is a jackknife SE of a median, which is too
  small on some seeds (seed 12 at H = 0.7 puts it 5.1 SE off). The SE of
  a ``var``, ``k3``, ``k4`` or ``estimator_var`` row is never taken below
  the exact SD of its k-statistic over R replications, from the cumulants
  of V (``_kstat_sd``). The program's SE for these rows is a delete-block
  jackknife, which shrinks with a sample that happens to lack large values:
  seed 156901944 (fbm_pair, H = 0.7) puts the variance 4.2 jackknife SE
  but 2.4 SDs low (the SD's lower bound from κ2 alone), and seed 1059
  (many_reps) puts k4 4.1 jackknife SE but 2.0 exact SDs low.
* ``regime_sweep`` on other seeds needs at least 75% of its oracle rows
  within 4 SE, not strict mode's 95%: with 12 rows strict mode demands all
  of them, and at 2000 replications the jackknife gaps of k3 and k4 are
  heavy tailed. Seeds 1..150 fail strict mode 14 times, each on one cell's
  k4 row (5 times also its k3 row), the worst at 7.7 SE. Strict mode's
  exit code 3 is then the program's statistical verdict, which
  ``oracle_ok_frac`` reports, not a failed operation.
* ``moments_large_n``: every printed value matches ``reference.json`` to a
  relative 1e-10. Other seeds change only C_l, so the reference is scaled by
  the power of C_l each quantity carries.

Record the references again with ``python3 perfbench/workloads.py --record``
(only when the program's outputs are meant to change).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.resources
import io
import json
import math
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

# The bundled regime_sweep config's seed; reference digests exist only here.
DEFAULT_SEED = 20240801

NAMES = ("regime_sweep", "many_reps", "fbm_pair", "moments_large_n")

# Workload sizes. "full" is what the benchmark measures; "smoke" is a
# seconds-long stand-in used by the self-test.
SIZES = {
    "full": {"sweep_reps": None, "many_reps": 50_000, "fbm_l_max": 512,
             "fbm_n": 1024, "fbm_reps": 200, "moments_n": 4096},
    "smoke": {"sweep_reps": 200, "many_reps": 2_000, "fbm_l_max": 24,
              "fbm_n": 64, "fbm_reps": 200, "moments_n": 64},
}

# Power of C_l carried by each printed moments quantity.
_CL_POWER = {"mean": 1, "variance": 2, "asymptotic_mean": 1, "asymptotic_var": 2}
_MOMENTS_RTOL = 1e-10
_HURST_TOL = 0.05
_SWEEP_MIN_OK = 0.75
_STRICT_DISAGREEMENT = 3  # sphereqv experiment --strict: oracle pairs disagree
_MOMENTS_CL = 0.5
_ORACLE_BAND = 4.0  # SEs, as in check_oracle_agreement
# Rows holding a k-statistic of V (or of V scaled), with its order.
_KSTAT_ORDER = {"var": 2, "estimator_var": 2, "k3": 3, "k4": 4}


@dataclass
class Call:
    """One CLI call; ``report_base`` is set for experiment calls."""

    argv: list
    report_base: str | None = None
    hurst: float | None = None
    cumulants: dict | None = None  # κ2..κ8 of V for the call's single cell


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    threads: int
    calls: list
    configs: dict = field(default_factory=dict)  # label -> sha256 of config bytes
    cl: float | None = None
    stop_at: str = "run_experiment"  # first layer call the CLI makes


@dataclass
class CallOutput:
    rc: object
    wall_s: float
    stdout: str
    stderr: str
    report: dict = field(default_factory=dict)  # ".json"/".csv" -> bytes


@dataclass
class Check:
    ok: bool
    problems: list
    oracle_ok: int
    oracle_checked: int
    digest: str | None


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _write_config(workdir, label, obj):
    path = os.path.join(workdir, f"{label}.config.json")
    data = json.dumps(obj, sort_keys=True, indent=2).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return path, _sha256(data)


def _moments_cl(seed):
    if seed == DEFAULT_SEED:
        return _MOMENTS_CL
    return round(random.Random(seed).uniform(0.25, 2.0), 12)


def _single_ell_cumulants(ell, n, c_ell):
    """κ2..κ8 of V for one degree, from its increment Gram."""
    from scipy.linalg import toeplitz
    from sphereqv.covariance import LineGrid, increment_row_fl
    from sphereqv.moments import trace_cumulant
    gram = toeplitz(increment_row_fl(ell, c_ell, LineGrid(n)))
    return {p: trace_cumulant(gram, p) for p in range(2, 9)}


def build(name, seed, workdir, size="full"):
    """The workload ``name`` for ``seed``, with configs written to ``workdir``."""
    sz = SIZES[size]

    def out(label):
        return os.path.join(workdir, f"{label}.report")

    if name == "regime_sweep":
        bundled = importlib.resources.files("sphereqv").joinpath(
            "configs", "regime_sweep.json").read_bytes()
        argv = ["experiment", "--config", "regime_sweep", "--strict",
                "--threads", "2", "--seed", str(seed), "--out", out(name)]
        if sz["sweep_reps"]:
            argv += ["--reps", str(sz["sweep_reps"])]
        return Workload(name, seed, size, 2, [Call(argv, out(name))],
                        {"regime_sweep.json (bundled, --seed overrides)":
                         _sha256(bundled)})
    if name == "many_reps":
        cfg = {"seed": seed, "replications": sz["many_reps"],
               "statistics": ["mean", "var", "k3", "k4", "ks_normal",
                              "estimator_error"],
               "target": {"kind": "single_ell", "c_ell": 1.0},
               "cells": [[3, 16]], "regime": {"kind": "fixed_ell"}}
        path, digest = _write_config(workdir, name, cfg)
        argv = ["experiment", "--config", path, "--strict", "--threads", "1",
                "--out", out(name)]
        (ell, n), = cfg["cells"]
        call = Call(argv, out(name), cumulants=_single_ell_cumulants(
            ell, n, cfg["target"]["c_ell"]))
        return Workload(name, seed, size, 1, [call],
                        {os.path.basename(path): digest})
    if name == "fbm_pair":
        calls, configs = [], {}
        for i, hurst in enumerate((0.3, 0.7)):
            label = f"{name}_h{hurst}"
            cfg = {"seed": seed + i, "replications": sz["fbm_reps"],
                   "statistics": ["mean", "var", "ks_normal", "hurst"],
                   "target": {"kind": "fbm", "hurst": hurst, "times": [2.0, 1.0],
                              "spectrum": {"kind": "power_law", "c0": 1.0,
                                           "epsilon": 0.2,
                                           "l_max": sz["fbm_l_max"]}},
                   "cells": [[1, sz["fbm_n"]]]}
            path, digest = _write_config(workdir, label, cfg)
            configs[os.path.basename(path)] = digest
            calls.append(Call(["experiment", "--config", path, "--strict",
                               "--threads", "1", "--out", out(label)],
                              out(label), hurst))
        return Workload(name, seed, size, 1, calls, configs)
    if name == "moments_large_n":
        cl = _moments_cl(seed)
        argv = ["moments", "--ell", "8", "--n", str(sz["moments_n"]),
                "--cl", repr(cl), "--p-max", "4", "--regime", "fixed_ell"]
        return Workload(name, seed, size, 1, [Call(argv)], {}, cl=cl,
                        stop_at="increment_gram_fl")
    raise ValueError(f"unknown workload {name!r}")


def execute(workload, cli):
    """Run every call of the workload once; failures are captured, not raised."""
    outputs = []
    for call in workload.calls:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(call.argv)
        except SystemExit as exc:  # argparse rejects flags this way
            rc = exc.code
        except Exception:
            rc = "exception"
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        report = {}
        if call.report_base:
            for suffix in (".json", ".csv"):
                path = call.report_base + suffix
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        report[suffix] = fh.read()
                    os.remove(path)
        outputs.append(CallOutput(rc, wall, out.getvalue(), err.getvalue(), report))
    return outputs


def load_reference():
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _has_reference(workload):
    return workload.size == "full" and workload.seed == DEFAULT_SEED


def _report_digest(outputs):
    return _sha256(b"".join(o.report.get(".json", b"") + o.report.get(".csv", b"")
                            for o in outputs))


def check(workload, outputs, first_digest, reference):
    """Check one iteration's outputs; ``first_digest`` is the run's first."""
    problems = []
    for call, out in zip(workload.calls, outputs):
        ran = out.rc == 0 or (call.report_base and out.rc == _STRICT_DISAGREEMENT)
        if not ran:
            problems.append(f"{call.argv[0]} exited {out.rc}: "
                            f"{out.stderr.strip()[-300:]}")
        elif call.report_base and set(out.report) != {".json", ".csv"}:
            problems.append(f"report pair not written to {call.report_base}")
    if problems:
        return Check(False, problems, 0, 0, None)
    if workload.name == "moments_large_n":
        result = _check_moments(workload, outputs[0], reference)
    else:
        result = _check_experiment(workload, outputs, reference)
    if first_digest is not None and result.digest != first_digest:
        result.problems.append("output differs from the run's first iteration")
    result.ok = not result.problems
    return result


def _check_experiment(workload, outputs, reference):
    from sphereqv.harness import CellStat, ExperimentReport, check_oracle_agreement
    problems = []
    digest = _report_digest(outputs)
    if _has_reference(workload):
        if digest != reference[workload.name]["sha256"]:
            problems.append("report digest differs from the recorded reference")
        if any(o.rc != 0 for o in outputs):
            problems.append("strict mode failed at the reference seed")
    n_ok = n_checked = 0
    for call, out in zip(workload.calls, outputs):
        try:
            payload = json.loads(out.report[".json"])
            rows = payload["rows"]
            report = ExperimentReport(rows=tuple(CellStat(**r) for r in rows))
            replications = int(payload["replications"])
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
            continue
        ok, checked, failures = check_oracle_agreement(report, _ORACLE_BAND)
        n_ok += ok
        n_checked += checked
        if workload.name == "regime_sweep":
            if ok < _SWEEP_MIN_OK * checked:
                problems.append(f"only {ok}/{checked} oracle rows within 4 SE")
        else:  # hurst_median has its own rule below
            problems += [f"oracle row {s} at (l={l}, N={n}) off by {g:.2f} SE"
                         for s, l, n, g in failures if s != "hurst_median"
                         and not _within_kstat_sd(report, (s, l, n),
                                                  replications, call.cumulants)]
        if call.hurst is not None:
            med = [r["empirical"] for r in rows if r["stat"] == "hurst_median"]
            if len(med) != 1 or abs(med[0] - call.hurst) > _HURST_TOL:
                problems.append(f"hurst_median {med} not within {_HURST_TOL} "
                                f"of H={call.hurst}")
    return Check(not problems, problems, n_ok, n_checked, digest)


def _kstat_sd(p, kappa, reps):
    """Exact SD of the order-p k-statistic of ``reps`` draws of V.

    Fisher's formulas in the cumulants κ2..κ8 of V. A cumulant missing from
    ``kappa`` counts as 0, which makes the result a lower bound: every
    cumulant of a quadratic form of Gaussians is positive.
    """
    k = {q: kappa.get(q, 0.0) for q in range(2, 9)}
    n = float(reps)
    if p == 2:
        var = k[4] / n + 2 * k[2] ** 2 / (n - 1)
    elif p == 3:
        var = (k[6] / n + 9 * (k[4] * k[2] + k[3] ** 2) / (n - 1)
               + 6 * n * k[2] ** 3 / ((n - 1) * (n - 2)))
    else:
        var = (k[8] / n
               + (16 * k[6] * k[2] + 48 * k[5] * k[3] + 34 * k[4] ** 2) / (n - 1)
               + 72 * n * k[4] * k[2] ** 2 / ((n - 1) * (n - 2))
               + 144 * n * k[3] ** 2 * k[2] / ((n - 1) * (n - 2))
               + 24 * n * (n + 1) * k[2] ** 4 / ((n - 1) * (n - 2) * (n - 3)))
    return math.sqrt(var)


def _within_kstat_sd(report, key, reps, cumulants):
    """Whether the k-statistic row ``key`` = (stat, l, N) lies within the
    band of its exact SD.

    ``cumulants`` are V's κ2..κ8; without them only κ2, the exact value of
    the cell's ``var`` row, is known and the SD is a lower bound. A row of V
    scaled (``estimator_var``) has its SD scaled with its exact value.
    """
    stat, ell, n = key
    p = _KSTAT_ORDER.get(stat)
    rows = {r.stat: r for r in report.rows if (r.ell, r.n) == (ell, n)}
    if cumulants is None and "var" in rows:
        cumulants = {2: rows["var"].exact}
    if p is None or reps <= p or p not in (cumulants or {}):
        return False
    row = rows[stat]
    sd = _kstat_sd(p, cumulants, reps) * abs(row.exact / cumulants[p])
    return abs(row.empirical - row.exact) <= _ORACLE_BAND * max(row.se, sd)


def _parse_moments(stdout):
    values = {}
    for line in stdout.strip().splitlines():
        key, val = line.split()
        values[key] = float(val)
    return values


def _check_moments(workload, out, reference):
    digest = _sha256(out.stdout.encode())
    try:
        got = _parse_moments(out.stdout)
    except ValueError:
        return Check(False, [f"unparsable moments output: {out.stdout[:200]!r}"],
                     0, 0, digest)
    if workload.size != "full":  # no reference: finite values, same each time
        finite = sum(math.isfinite(v) for v in got.values())
        ok = bool(got) and finite == len(got)
        return Check(ok, [] if ok else ["non-finite moments"], finite, len(got),
                     digest)
    ref = reference["moments_large_n"]
    scale = workload.cl / ref["cl"]
    problems = []
    n_ok = 0
    for key, ref_val in ref["values"].items():
        want = ref_val * scale ** _CL_POWER.get(key, 0)
        val = got.get(key)
        if val is not None and abs(val - want) <= _MOMENTS_RTOL * abs(want):
            n_ok += 1
        else:
            problems.append(f"moments {key} = {val!r}, reference {want!r}")
    if set(got) != set(ref["values"]):
        problems.append(f"moments printed {sorted(got)}, "
                        f"reference has {sorted(ref['values'])}")
    return Check(not problems, problems, n_ok, len(ref["values"]), digest)


def record_reference(workdir):
    """Run every workload once at the default seed and write reference.json."""
    import sphereqv.cli as cli
    ref = {"seed": DEFAULT_SEED}
    for name in NAMES:
        wl = build(name, DEFAULT_SEED, workdir)
        outputs = execute(wl, cli)
        bad = [o.stderr for o in outputs if o.rc != 0]
        if bad:
            raise RuntimeError(f"{name} failed: {bad}")
        if name == "moments_large_n":
            ref[name] = {"cl": wl.cl, "values": _parse_moments(outputs[0].stdout)}
        else:
            ref[name] = {"sha256": _report_digest(outputs)}
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/workloads.py --record")
    sys.path.insert(0, SRC)
    work = os.path.join(HERE, "_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        record_reference(tmp)
    print(f"wrote {REFERENCE}")
