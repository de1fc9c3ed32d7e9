"""sphereqv benchmark: runs a workload through the ``sphereqv`` CLI entry point
(``sphereqv.cli.main``, in process), checks its outputs, and prints its
end-to-end metrics, or with ``--trace 1`` its per-layer metrics.

    python3 perfbench/run.py --workload regime_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all   # each workload in a fresh process
    python3 perfbench/selftest.py             # smoke-size self-test

A run repeats the workload until ``--seconds`` have passed (at least twice)
and reports medians over those iterations. With ``--trace 1`` the iterations
alternate untraced and traced; per-layer metrics are medians over the traced
ones, and ``trace.overhead_s`` is the traced median wall time minus the
untraced one. The spans are written to ``perfbench/_work/traces/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (iterations run), ``failed`` (iterations whose output check
failed) and ``metrics``; the lines before it are a provenance block and a
human-readable table. ``error_rate`` is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads as wl

WORK = os.path.join(wl.HERE, "_work")
SETUP_SAMPLES = 5
# Iterations a run makes at least, however long they take: a median of two
# for the slow workloads, and an untraced plus a traced one under --trace 1.
MIN_ITERATIONS = 2

# (name, unit) of every end-to-end metric, in output order.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("oracle_ok_frac", "ratio"))

# Time from a fresh interpreter's first statement to the CLI's first layer
# call: importing sphereqv plus parsing and validating the flags and config.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
import sphereqv.cli as cli

class Stop(BaseException):
    pass

def stop(*args, **kwargs):
    raise Stop

setattr(cli, sys.argv[3], stop)
try:
    cli.main(json.loads(sys.argv[2]))
except Stop:
    print(time.perf_counter() - t0)
"""


def import_program():
    """``sphereqv.cli`` from this checkout's ``src/``, or None if it is absent."""
    sys.path.insert(0, wl.SRC)
    try:
        import sphereqv.cli as cli
    except ImportError:
        return None
    if not os.path.abspath(cli.__file__).startswith(wl.SRC + os.sep):
        return None
    return cli


def setup_time(workload):
    call = workload.calls[0]
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, wl.SRC, json.dumps(call.argv),
         workload.stop_at],
        capture_output=True, text=True, timeout=120, cwd=wl.ROOT)
    try:
        return float(proc.stdout.split()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-1000:]}") from None


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def _git_commit():
    git = os.path.join(wl.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas():
    import numpy
    try:
        info = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        name = f"{info['name']} {info['version']}"
    except (AttributeError, KeyError):
        name = None
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = getter()
                break
    return name, threads


def provenance(workload):
    import numpy
    import scipy
    blas, blas_threads = _blas()
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": workload.seed,
        "size": workload.size,
        "config_sha256": workload.configs,
        "argv": [c.argv for c in workload.calls],
    }


# ----------------------------------------------------------------------
# Measuring one workload
# ----------------------------------------------------------------------

def _high_percentile(values):
    """(percentile, value) with at least ten samples above it, else None."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def run_workload(name, seed, seconds, trace, size="full",
                 setup_samples=SETUP_SAMPLES, cli=None):
    """Measure one workload; returns (result, table lines, provenance)."""
    cli = cli or import_program()
    reference = wl.load_reference()
    os.makedirs(WORK, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}
    layers, oracle, problems = [], [], []
    attempted = failed = 0
    first_digest = None
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workload = wl.build(name, seed, tmp, size)
        prov = provenance(workload)
        setups = [] if trace else [setup_time(workload)
                                   for _ in range(setup_samples)]
        deadline = time.perf_counter() + seconds
        while True:
            traced = tracer is not None and attempted % 2 == 1
            with tracer.installed() if traced else contextlib.nullcontext():
                outputs = wl.execute(workload, cli)
            if traced:
                layers.append(tracing.layer_metrics(tracer.take(), workload.threads))
            walls[traced].append(sum(o.wall_s for o in outputs))
            check = wl.check(workload, outputs, first_digest, reference)
            first_digest = first_digest or check.digest
            attempted += 1
            failed += not check.ok
            problems += check.problems
            if check.oracle_checked:
                oracle.append(check.oracle_ok / check.oracle_checked)
            if time.perf_counter() >= deadline and attempted >= MIN_ITERATIONS:
                break

    lines = [f"workload {name}  seed {seed}  size {size}  iterations {attempted}"
             f"  failed {failed}  error_rate {failed / attempted:.4g}"]
    lines += [f"  check: {p}" for p in problems[:10]]
    if trace:
        metrics = {m: statistics.median(it[m] for it in layers)
                   for m, _, _ in tracing.PER_LAYER if m != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
        units = {m: u for m, u, _ in tracing.PER_LAYER}
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        tracer.save(os.path.join(WORK, "traces", f"{name}.npz"))
        lines.append(f"  wall_s median traced {statistics.median(walls[True]):.4f} s,"
                     f" untraced {statistics.median(walls[False]):.4f} s")
        lines.append(f"  {'per-layer metric':<32}{'value':>14}  unit")
        lines += [f"  {m:<32}{metrics[m]:>14.6g}  {u}"
                  for m, u, _ in tracing.PER_LAYER]
    else:
        wall = walls[False]
        metrics = {
            "wall_s": statistics.median(wall),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "oracle_ok_frac": statistics.median(oracle) if oracle else 0.0,
        }
        units = dict(END_TO_END)
        high = _high_percentile(wall)
        tail = (f"p{high[0]} {high[1]:.4f} s" if high
                else "no percentile with 10 samples beyond it")
        notes = {"wall_s": f"median of n={len(wall)}; {tail}",
                 "setup_s": f"median of {len(setups)} fresh processes"}
        lines.append(f"  {'metric':<16}{'value':>14}  unit")
        lines += [f"  {m:<16}{metrics[m]:>14.6g}  {u:<6}{notes.get(m, '')}"
                  for m, u in END_TO_END]
        lines.append(f"  {'error_rate':<16}{failed / attempted:>14.6g}  ratio "
                     f"{failed} of {attempted} iterations failed their check")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": v, "unit": units[m]}
                          for m, v in metrics.items()}}
    return result, lines, prov


# ----------------------------------------------------------------------
# Every workload, each in its own process
# ----------------------------------------------------------------------

def run_all(args):
    summary, rows, ok = {"correct": True, "attempted": 0, "failed": 0,
                         "metrics": {}}, [], True
    for name in wl.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=wl.ROOT)
        out = proc.stdout.strip().splitlines()
        try:
            result = json.loads(out[-1])
        except (IndexError, ValueError):
            ok = False
            sys.stderr.write(f"{name}: no result (exit {proc.returncode})\n"
                             f"{proc.stderr[-2000:]}")
            continue
        sys.stdout.write("\n".join(out[:-1]) + "\n\n")
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "error_rate", result["failed"] / result["attempted"],
                     "ratio"))
    sys.stdout.write(f"{'workload':<18}{'metric':<32}{'value':>14}  unit\n")
    for name, metric, value, unit in rows:
        sys.stdout.write(f"{name:<18}{metric:<32}{value:>14.6g}  {unit}\n")
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED,
                        help="workload seed (0 <= seed < 2**63)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure for this long (at least two iterations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.workload == "all":
        return run_all(args)
    cli = import_program()
    if cli is None:
        sys.stderr.write(f"sphereqv not found under {wl.SRC}\n")
        return 2
    result, lines, prov = run_workload(args.workload, args.seed, args.seconds,
                                       args.trace, cli=cli)
    sys.stdout.write("provenance " + json.dumps(prov, sort_keys=True) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
