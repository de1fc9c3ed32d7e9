"""Command line front end.

Subcommands wrap the library layers one-to-one:

    moments        exact and asymptotic moments of one (degree, grid) cell
    simulate       draw quadratic-variation replications to CSV
    estimate       spectrum / Hurst point estimates from given inputs
    experiment     run a Monte Carlo experiment config, write JSON + CSV
    specfun-check  run the special-function invariant suite

Units: degrees l are dimensionless integers ≥ 1, angles are radians, seeds
are unsigned 64-bit integers. Exit codes: 0 success, 1 numeric or I/O
failure, 2 flag/config validation error, 3 oracle-agreement failure under
``experiment --strict``. Worker count: --threads, else SPHEREQV_THREADS,
else machine parallelism; outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import harness, moments as mom
from .covariance import LineGrid, _carries_factor, increment_gram_fl
from .estimators import (estimate_cl, estimate_cl_classical,
                         estimate_cl_variant, estimate_hurst)
from .harness import ConfigError, ExperimentConfig, check_oracle_agreement, run_experiment
from .moments import RegimeTag
from .simulate import SampleSpec, batch_quadratic_variation, rep_stream_id

__all__ = ["main"]


def _positive_int(text):
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be ≥ 1, got {val}")
    return val


def _u64(text):
    val = int(text)
    if not (0 <= val < 2 ** 64):
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return val


def _fmt(x):
    return "%.17g" % float(x)


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


# ======================================================================
# moments
# ======================================================================

def _physical_memory():
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _cmd_moments(args):
    # the largest array of the chosen path, the (l+1)×(N+1) harmonic table
    # of the increment factor or else the dense N×N Gram, must fit in memory
    # (the run holds about two of it); checked before anything is allocated
    if _carries_factor(args.ell, args.n):
        need, what = 8 * (args.ell + 1) * (args.n + 1), "increment factor"
    else:
        need, what = 8 * args.n * args.n, "dense Gram"
    have = _physical_memory()
    if have is not None and need > have:
        sys.stderr.write(f"error: l={args.ell}, N={args.n} needs {need / 2 ** 30:,.1f} GiB "
                         f"for its {what}, more than the {have / 2 ** 30:,.1f} GiB "
                         f"of physical memory\n")
        return 2
    gram = increment_gram_fl(args.ell, args.cl, LineGrid(args.n))
    mean = mom.exact_mean_vnl(args.ell, args.cl, args.n)
    var = mom.exact_var_vnl(gram)
    lines = [
        ("mean", mean),
        ("variance", var),
    ]
    for p in range(3, args.p_max + 1):
        lines.append((f"normalized_k{p}", mom.normalized_cumulant(gram, p)))
    lines.append(("fourth_moment_bound", mom.fourth_moment_bound(gram)))
    if args.regime:
        regime = (RegimeTag.ell_comparable(args.regime_c)
                  if args.regime == "ell_comparable"
                  else RegimeTag(args.regime))
        a_mean = mom.asymptotic_mean(regime, args.ell, args.cl, args.n)
        a_var = mom.asymptotic_var(regime, args.ell, args.cl, args.n)
        lines += [
            ("asymptotic_mean", a_mean),
            ("mean_ratio", mean / a_mean),
            ("asymptotic_var", a_var),
            ("var_ratio", var / a_var),
        ]
    width = max(len(k) for k, _ in lines)
    for key, val in lines:
        sys.stdout.write(f"{key.ljust(width)}  {_fmt(val)}\n")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("quantity,value\n")
            for key, val in lines:
                fh.write(f"{key},{_fmt(val)}\n")
    return 0


# ======================================================================
# simulate
# ======================================================================

def _sample_target(obj):
    """Sampler target of a sample spec: 'ell' is checked here, the rest by
    the experiment config's target parser."""
    ell = None
    if isinstance(obj, dict) and obj.get("kind") == "single_ell":
        obj = dict(obj)
        ell = obj.pop("ell", None)
        ell = harness._config_int(
            ell, f"single_ell target needs an integer 'ell' ≥ 1, got {ell!r}")
    return harness._sampler_target(harness._parse_target(obj), ell)


def _cmd_simulate(args):
    with open(args.spec_file, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    allowed = {"target", "n", "seed", "replications"}
    if not isinstance(raw, dict):
        raise ConfigError("sample spec must be a JSON object")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown sample spec keys {sorted(unknown)}")
    if "target" not in raw or "n" not in raw:
        raise ConfigError("sample spec needs 'target' and 'n'")
    target = _sample_target(raw["target"])
    # precedence: explicit flags > spec file > defaults
    seed = args.seed if args.seed is not None else raw.get("seed", 0)
    reps = args.reps if args.reps is not None else raw.get("replications", 1)
    n = harness._config_int(raw["n"], "n must be a positive integer", 1, 2 ** 63)
    seed = harness._config_int(seed, "seed must be an unsigned 64-bit integer", 0, 2 ** 64)
    reps = harness._config_int(reps, "replications must be a positive integer")
    spec = SampleSpec(target=target, grid=LineGrid(n), seed=seed, replications=reps)
    batch = 1024
    chunks = []
    for start in range(0, spec.replications, batch):
        count = min(batch, spec.replications - start)
        chunks.append(batch_quadratic_variation(spec, start, count))
    # one column of V, or (V at t, V at s) for a fractional pair
    values = np.concatenate(chunks, axis=0).reshape(spec.replications, -1)
    header = "rep,v,stream" if values.shape[1] == 1 else "rep,v_t,v_s,stream"
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for rep, row in enumerate(values):
            cols = ",".join(_fmt(v) for v in row)
            fh.write(f"{rep},{cols},{rep_stream_id(spec, rep)}\n")
    sys.stdout.write(f"wrote {spec.replications} rows to {args.out}\n")
    return 0


# ======================================================================
# estimate
# ======================================================================

def _require(parser, args, names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        parser.error(f"mode {args.mode} requires --" + " --".join(missing))


def _cmd_estimate(args, parser):
    mode = args.mode
    if mode in ("cl", "cl1", "cl2", "cl3"):
        _require(parser, args, ["v", "ell", "n"])
        if mode == "cl":
            res = estimate_cl(args.v, args.ell, args.n)
        else:
            variant = int(mode[2])
            if variant == 2:
                _require(parser, args, ["c"])
            res = estimate_cl_variant(args.v, args.ell, args.n, variant, c=args.c)
        _emit_json(res.as_dict())
    elif mode == "classical":
        _require(parser, args, ["coeffs", "ell"])
        coeffs = [float(tok) for tok in args.coeffs.split(",") if tok.strip()]
        res = estimate_cl_classical(coeffs, args.ell)
        _emit_json(res.as_dict())
    else:  # hurst
        _require(parser, args, ["vt", "vs", "t", "s"])
        h = estimate_hurst(args.vt, args.vs, args.t, args.s)
        _emit_json({"value": h})
    return 0


# ======================================================================
# experiment
# ======================================================================

def _load_config_text(path):
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    # fall back to configs bundled with the package; a bare name may omit .json
    names = [path] if path.endswith(".json") else [path, path + ".json"]
    for name in names:
        bundled = resources.files("sphereqv").joinpath("configs", name)
        if bundled.is_file():
            return bundled.read_text(encoding="utf-8")
    raise FileNotFoundError(f"config file not found: {path}")


def _cmd_experiment(args):
    raw = json.loads(_load_config_text(args.config))
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    # precedence: explicit flags > config file > defaults
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.reps is not None:
        raw["replications"] = args.reps
    config = ExperimentConfig.from_dict(raw)
    base = args.out or config.output or "experiment_report"
    report = run_experiment(config, threads=args.threads,
                            partial_flush=lambda rep: rep.write(base))
    json_path, csv_path = report.write(base)
    sys.stdout.write(f"wrote {json_path} and {csv_path}\n")
    if args.strict:
        ok, checked, failures = check_oracle_agreement(report)
        if checked and ok / checked < 0.95:
            for stat, ell, n, gap in failures:
                sys.stderr.write(
                    f"oracle disagreement: {stat} at (l={ell}, N={n}) off by "
                    f"{gap:.2f} SE\n")
            sys.stderr.write(
                f"strict mode: {ok}/{checked} statistics within 4 SE "
                f"(threshold 95%)\n")
            return 3
        sys.stdout.write(f"strict mode: {ok}/{checked} statistics within 4 SE\n")
    return 0


# ======================================================================
# specfun-check
# ======================================================================

def _cmd_specfun_check(_args):
    from scipy.special import eval_legendre

    from .specfun import (harmonic_meridian_stack, harmonic_meridian_table,
                          hilb_approx_p, legendre_p, legendre_p_deriv)

    rng = np.random.default_rng(20240801)
    checks = []

    x = rng.uniform(-1, 1, 200)
    err = max(np.max(np.abs(legendre_p(l, x) - eval_legendre(l, x)))
              for l in (1, 2, 7, 40, 150))
    checks.append(("legendre_p vs reference", err, 1e-11))

    # derivative identity (1-x²)P'_l = l(P_{l-1} - x P_l), plus endpoints
    derr = 0.0
    for l in (1, 3, 25):
        lhs = (1 - x ** 2) * legendre_p_deriv(l, x)
        rhs = l * (legendre_p(l - 1, x) - x * legendre_p(l, x))
        derr = max(derr, float(np.max(np.abs(lhs - rhs))))
        derr = max(derr, abs(legendre_p_deriv(l, 1.0) - l * (l + 1) / 2))
    checks.append(("legendre_p_deriv identity", derr, 1e-11))

    add_err = 0.0
    for l in (1, 5, 40):
        th1, th2 = rng.uniform(0.05, 1.5, 2)
        lam1 = harmonic_meridian_table(l, th1)[:, 0]
        lam2 = harmonic_meridian_table(l, th2)[:, 0]
        w = np.full(l + 1, 2.0)
        w[0] = 1.0
        lhs = float(np.sum(w * lam1 * lam2))
        rhs = (2 * l + 1) / (4 * math.pi) * legendre_p(l, math.cos(th1 - th2))
        add_err = max(add_err, abs(lhs - rhs))
    checks.append(("harmonic addition theorem", add_err, 1e-12))

    # the stack packs one sweep's degree blocks; each must be bitwise the
    # table of its degree (a sample of degrees: every table is its own sweep)
    theta = LineGrid(1024).points
    stack = harmonic_meridian_stack(0, 513, theta)
    serr = max(float(np.max(np.abs(stack[l * (l + 1) // 2:(l + 1) * (l + 2) // 2]
                                   - harmonic_meridian_table(l, theta))))
               for l in (0, 1, 2, 3, 64, 255, 512))
    checks.append(("harmonic stack vs per-degree tables, l_max=512, N=1024",
                   serr, 0.0))

    herr = 0.0
    for l, psi in ((100, 0.01), (400, 0.002)):
        approx = hilb_approx_p(l, psi)
        exact = legendre_p(l, math.cos(psi))
        herr = max(herr, abs(approx - exact))
    checks.append(("small-angle Legendre approximation", herr, 1e-4))

    failed = 0
    for name, err, tol in checks:
        status = "PASS" if err <= tol else "FAIL"
        failed += status == "FAIL"
        sys.stdout.write(f"{status}  {name}: max error {err:.3e} (tol {tol:g})\n")
    return 1 if failed else 0


# ======================================================================
# Parser
# ======================================================================

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sphereqv",
        description="Quadratic variations of isotropic Gaussian fields on "
                    "a sphere meridian: exact moments, simulation, "
                    "estimation, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mom = sub.add_parser(
        "moments",
        help="exact (and asymptotic) moments of one (degree, grid) cell",
        description="Exact mean/variance/cumulants of the quadratic "
                    "variation. Degree l is a dimensionless integer ≥ 1; "
                    "the grid has N increments over [0, π/2] (radians).")
    p_mom.add_argument("--ell", type=_positive_int, required=True,
                       help="degree l (dimensionless integer ≥ 1)")
    p_mom.add_argument("--n", type=_positive_int, required=True,
                       help="number of grid increments N")
    p_mom.add_argument("--cl", type=float, required=True,
                       help="spectrum value C_l at the degree")
    p_mom.add_argument("--regime",
                       choices=["fixed_ell", "ell_faster", "ell_comparable",
                                "ell_slower"],
                       help="also print asymptotic counterparts for this regime")
    p_mom.add_argument("--regime-c", type=float, default=None,
                       help="ratio c for ell_comparable")
    p_mom.add_argument("--p-max", type=int, default=4, choices=range(2, 9),
                       metavar="P", help="highest cumulant order (2..8)")
    p_mom.add_argument("--csv", help="also write quantity,value CSV here")

    p_sim = sub.add_parser(
        "simulate",
        help="draw quadratic-variation replications to CSV",
        description="Sample quadratic variations per a JSON sample spec. "
                    "Seeds are unsigned 64-bit integers; one derived "
                    "stream per replication.")
    p_sim.add_argument("--spec-file", required=True,
                       help="JSON file: {target, n, [seed], [replications]}")
    p_sim.add_argument("--seed", type=_u64, default=None,
                       help="seed override (u64)")
    p_sim.add_argument("--reps", type=_positive_int, default=None,
                       help="replication count override")
    p_sim.add_argument("--out", required=True, help="output CSV path")

    p_est = sub.add_parser(
        "estimate",
        help="spectrum / Hurst point estimates from given inputs",
        description="Point estimates. Modes cl/cl1/cl2/cl3 need --v --ell "
                    "--n (cl2 also --c); classical needs --coeffs --ell; "
                    "hurst needs --vt --vs --t --s (times in the same "
                    "units, any).")
    p_est.add_argument("--mode", required=True,
                       choices=["cl", "cl1", "cl2", "cl3", "classical", "hurst"])
    p_est.add_argument("--v", type=float, help="observed quadratic variation")
    p_est.add_argument("--ell", type=_positive_int, help="degree l (integer ≥ 1)")
    p_est.add_argument("--n", type=_positive_int, help="grid increments N")
    p_est.add_argument("--c", type=float, help="degree/grid ratio for cl2")
    p_est.add_argument("--coeffs",
                       help="comma-separated 2l+1 harmonic coefficients")
    p_est.add_argument("--vt", type=float, help="quadratic variation at time t")
    p_est.add_argument("--vs", type=float, help="quadratic variation at time s")
    p_est.add_argument("--t", type=float, help="first observation time")
    p_est.add_argument("--s", type=float, help="second observation time")

    p_exp = sub.add_parser(
        "experiment",
        help="run a Monte Carlo experiment config, write JSON + CSV",
        description="Run an experiment described by a JSON config (path or "
                    "bundled name, e.g. regime_sweep.json). Flags override "
                    "config values; unknown config keys are rejected.")
    p_exp.add_argument("--config", required=True,
                       help="config path or bundled config name")
    p_exp.add_argument("--out", default=None,
                       help="output base path (writes BASE.json and BASE.csv)")
    p_exp.add_argument("--seed", type=_u64, default=None, help="seed override (u64)")
    p_exp.add_argument("--reps", type=_positive_int, default=None,
                       help="replication count override")
    p_exp.add_argument("--threads", type=_positive_int, default=None,
                       help="worker threads (default: SPHEREQV_THREADS or all cores)")
    p_exp.add_argument("--strict", action="store_true",
                       help="exit 3 unless ≥95%% of oracle pairs agree within 4 SE")

    sub.add_parser(
        "specfun-check",
        help="run the special-function invariant suite",
        description="Evaluates the special-function layer against reference "
                    "implementations and closed forms; prints one PASS/FAIL "
                    "line per invariant.")

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "moments":
            if args.regime == "ell_comparable" and args.regime_c is None:
                parser.error("--regime ell_comparable requires --regime-c")
            return _cmd_moments(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "estimate":
            return _cmd_estimate(args, parser)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _cmd_specfun_check(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 1
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
