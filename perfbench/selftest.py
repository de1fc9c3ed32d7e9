"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size and checks that every metric named in
BENCHMARK.json is emitted with its unit, that a corrupted or crashing
program counts as a failed iteration instead of crashing the benchmark, that
a k-statistic row is judged against its exact SD, and that report
files go to a scratch directory under ``perfbench/_work`` and never into the
source tree. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
import tracing
import workloads as wl

SEED = 7
failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def source_tree():
    files = set()
    for dirpath, dirnames, filenames in os.walk(wl.ROOT):
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", "__pycache__", "_work")]
        files.update(os.path.join(dirpath, f) for f in filenames)
    return files


def smoke(name, trace=0, cli=None):
    result, _, _ = run.run_workload(name, SEED, 0, trace, size="smoke",
                                    setup_samples=1, cli=cli)
    return result


def check_metrics(spec):
    expect([w["name"] for w in spec["workloads"]] == list(wl.NAMES),
           "BENCHMARK.json lists the benchmark's workloads")
    expect({(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END),
           "BENCHMARK.json end_to_end matches the emitted metrics")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == list(tracing.PER_LAYER),
           "BENCHMARK.json per_layer matches the emitted metrics")
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for name in wl.NAMES:
            result = smoke(name, trace)
            got = {m: e["unit"] for m, e in result["metrics"].items()}
            expect(result["correct"] and got == units
                   and all(isinstance(e["value"], (int, float))
                           for e in result["metrics"].values()),
                   f"{name} --trace {trace}: correct, every {key} metric with its unit")


def check_corruption(cli):
    import sphereqv.harness as harness
    original_batch = harness.batch_quadratic_variation
    original_to_json = harness.ExperimentReport.to_json
    original_gram = cli.increment_gram_fl

    def scaled_batch(*args):
        return 1.5 * original_batch(*args)

    def crash(*args):
        raise RuntimeError("injected failure")

    cases = (
        ("regime_sweep", harness, "batch_quadratic_variation", scaled_batch,
         "sampled values scaled by 1.5"),
        ("many_reps", harness.ExperimentReport, "to_json",
         lambda self: "not json", "report JSON replaced by garbage"),
        ("moments_large_n", cli, "increment_gram_fl", crash,
         "the CLI raising an unexpected exception"),
    )
    for name, owner, attr, bad, what in cases:
        setattr(owner, attr, bad)
        try:
            result = smoke(name, cli=cli)
            expect(not result["correct"]
                   and result["failed"] == result["attempted"] >= 1,
                   f"{name}: {what} counts as an error, not a crash")
        finally:
            harness.batch_quadratic_variation = original_batch
            harness.ExperimentReport.to_json = original_to_json
            cli.increment_gram_fl = original_gram


def check_kstat_sd():
    from sphereqv.harness import CellStat, ExperimentReport

    def report(stat, empirical, se, exact):
        row = CellStat(ell=1, n=1024, regime="fixed_ell", stat=stat,
                       empirical=empirical, se=se, exact=exact, source_op="",
                       seed=SEED)
        var = CellStat(ell=1, n=1024, regime="fixed_ell", stat="var",
                       empirical=608.2, se=35.2, exact=608.2, source_op="",
                       seed=SEED)
        return ExperimentReport(rows=(row,) if stat == "var" else (row, var))

    # 200 draws, κ2 only: the variance's SD is at least 608.2 * 0.1003 = 61.
    key = ("var", 1, 1024)
    expect(wl._within_kstat_sd(report("var", 459.9, 35.2, 608.2), key, 200, None),
           "a variance 4.2 jackknife SE but 2.4 least SDs off passes")
    expect(not wl._within_kstat_sd(report("var", 300.0, 35.2, 608.2), key, 200,
                                   None),
           "a variance 5 least SDs off fails")
    # many_reps' cell: the exact SD of k4 over 50,000 draws is 0.0392.
    kappa = wl._single_ell_cumulants(3, 16, 1.0)
    key = ("k4", 1, 1024)
    expect(wl._within_kstat_sd(report("k4", 0.3694, 0.0186, kappa[4]), key,
                               50_000, kappa),
           "a k4 4.1 jackknife SE but 2.0 exact SDs off passes")
    expect(not wl._within_kstat_sd(report("k4", 0.25, 0.0186, kappa[4]), key,
                                   50_000, kappa),
           "a k4 5 exact SDs off fails")
    expect(not wl._within_kstat_sd(report("k4", 0.3694, 0.0186, kappa[4]), key,
                                   50_000, None),
           "a k4 row without higher cumulants keeps the program's SE")


def check_scratch(before):
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        inside = True
        for name in wl.NAMES:
            for call in wl.build(name, SEED, tmp, "smoke").calls:
                paths = [a for a in call.argv if os.sep in a]
                if call.report_base:
                    paths.append(call.report_base)
                inside &= all(p.startswith(tmp + os.sep) for p in paths)
    expect(inside, "report and config paths lie in the scratch directory")
    leftovers = [d for d in os.listdir(run.WORK) if d.startswith("tmp")]
    expect(not leftovers, "scratch directories are removed after each run")
    expect(source_tree() == before, "no file was added to the source tree")


def main():
    cli = run.import_program()
    if cli is None:
        print(f"sphereqv not found under {wl.SRC}")
        return 2
    before = source_tree()
    with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_corruption(cli)
    check_kstat_sd()
    check_scratch(before)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
