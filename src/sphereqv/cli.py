"""Command line front end.

Each command is one ``_COMMANDS`` record (help, description, arguments,
runner) and each ``estimate`` mode one ``_ESTIMATE_MODES`` record. A command
imports only the layers it runs: numpy, specfun, covariance and moments load
with this module; ``estimate`` adds estimators, ``simulate`` and
``experiment`` the sampler and the harness.

Units: degrees l are dimensionless integers ≥ 1, angles are radians, seeds
are unsigned 64-bit integers. Exit codes: 0 success, 1 numeric or I/O
failure (an output that cannot be written exits 1 before any draw or Gram),
2 flag/config validation error (a config or sample spec that is not UTF-8
JSON, or nests too deeply to decode, included) or a ``moments`` or
``estimate`` input that the function reading it refuses, 3 oracle-agreement
failure under ``experiment --strict``, or a strict run with no oracle row to
check. ``experiment`` samples on the calling thread; --threads (at most
``_MAX_THREADS``) is accepted and changes nothing, so outputs are the same
for any value, for one numpy/BLAS build at one BLAS thread count.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from collections import namedtuple
from importlib import resources

# OpenBLAS reads how long an idle worker spins once, when numpy loads it: at
# its default, 2^28 cycles (about 0.1 s), a worker spins after each product
# through the sampler's sweep and draws; 2^20 cycles is about 0.5 ms. A value
# the user set wins, and a library import of the other modules sets nothing
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

import numpy as np

from . import moments as mom
from .covariance import LineGrid, PowerSpectrum, increment_gram_fl
from .moments import RegimeTag

__all__ = ["main"]


# --threads changes nothing (every run samples on the calling thread): it is
# accepted, so existing command lines keep parsing, and above this exits 2
_MAX_THREADS = 1024


def _int(text):
    """int(text); else exit 2 at the flag."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _positive_int(text, high=math.inf):
    """int(text) when it lies in [1, high]; else exit 2 at the flag."""
    val = _int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be ≥ 1, got {val}")
    if val > high:
        raise argparse.ArgumentTypeError(f"must be ≤ {high}, got {val}")
    return val


def _finite(text, low=-math.inf):
    """float(text) when it is finite and > low; else exit 2 at the flag."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not (math.isfinite(val) and val > low):
        bound = "" if low == -math.inf else f" > {low:g}"
        raise argparse.ArgumentTypeError(f"must be a finite number{bound}, got {text!r}")
    return val


def _u64(text):
    """int(text) when it lies in [0, 2⁶⁴); else exit 2 at the flag."""
    val = _int(text)
    if not (0 <= val < 2 ** 64):
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return val


def _fmt(x):
    return "%.17g" % float(x)


# ======================================================================
# moments
# ======================================================================

def _physical_memory():
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _memory_error(arrays, where):
    """True, after writing the one-line exit-2 message, when the largest of
    ``arrays``, (bytes, name) pairs, exceeds physical memory; False when it
    fits or physical memory is unknown."""
    have = _physical_memory()
    need, what = max(arrays)
    if have is None or need <= have:
        return False
    sys.stderr.write(f"error: {where} needs {need / 2 ** 30:,.1f} GiB for its {what}, "
                     f"more than the {have / 2 ** 30:,.1f} GiB of physical memory\n")
    return True


def _check_output(*paths, makes_dirs=False):
    """Raise, before any work, the OSError that writing each of ``paths`` (None
    skipped) would: a directory, a file this process may not write, a new file
    in a directory it may not write or that is missing (unless ``makes_dirs``,
    as the report's writer makes it). Nothing is created, cut or opened: a
    FIFO opened early hands its reader an EOF, so its write is left to itself."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        target = path
        try:
            os.stat(path)  # under a file: NotADirectoryError
        except FileNotFoundError:
            target = os.path.dirname(os.path.abspath(path))
            while makes_dirs and not os.path.exists(target):
                target = os.path.dirname(target)
            if not os.path.isdir(target):
                raise
        if not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _moments_need(ell, n):
    """(bytes, name) the moments command must fit in physical memory: on the
    core path a Gram-row sweep, 5·8(N+1) bytes, and five (l+1)×(l+1) arrays,
    or the dense N×N Gram and eigvalsh's copy; plus 256 KiB for the
    interpreter. Every regime's asymptotic counterpart is O(l) on top.

    The core path forms no row (its peak is 0.03 MB at (l, N) = (8, 10⁶)),
    but the row term stays as the bound on N: past it the printed mean,
    ``exact_mean_vnl``, loses ever more digits to cancellation (19% low at
    (3, 2²⁶); it reads 0 near N = 10⁹), so the term stays until that mean is
    free of cancellation. tracemalloc read 0.94-0.99 of this where the core
    or the dense Gram sets the peak, at (255, 512), (600, 512) and
    (1023, 4096)."""
    if ell < n:
        need, what = 40 * (n + 1) + 40 * (ell + 1) ** 2, "Gram row and core"
    else:
        need, what = 16 * n * n, "dense Gram"
    return need + 2 ** 18, what


def _cmd_moments(args, parser):
    ell, n, c_ell = args.ell, args.n, args.cl
    # the one regime rule RegimeTag cannot see: with no regime it is never built
    if args.regime_c is not None and args.regime is None:
        parser.error("--regime-c is read by --regime ell_comparable only")
    # the chosen path's memory bound must fit, checked before allocating
    if _memory_error([_moments_need(ell, n)], f"l={ell}, N={n}"):
        return 2
    # each input is refused, before the Gram is built, by the function that
    # reads it; the scale by an experiment's single_ell cell rule at the
    # highest power of V the printed cumulants sum (κ4 always)
    try:
        mom._check_ell_n(ell, n)
        if why := mom._cell_error(PowerSpectrum.single(ell, c_ell), (1.0 / (4.0 * math.pi),),
                                  n, max(args.p_max, 4)):
            raise ValueError(why)
        if args.regime:
            regime = RegimeTag(args.regime, args.regime_c)
            a_mean = mom.asymptotic_mean(regime, ell, c_ell, n)
            a_var = mom.asymptotic_var(regime, ell, c_ell, n)
    except ValueError as exc:
        return _input_error(exc)
    _check_output(args.csv)
    gram = increment_gram_fl(ell, c_ell, LineGrid(n))
    mean = mom.exact_mean_vnl(ell, c_ell, n)
    var = mom.exact_var_vnl(gram)
    lines = [("mean", mean), ("variance", var)]
    for p in range(3, args.p_max + 1):
        lines.append((f"normalized_k{p}", mom.normalized_cumulant(gram, p)))
    lines.append(("fourth_moment_bound", mom.fourth_moment_bound(gram)))
    if args.regime:
        lines += [("asymptotic_mean", a_mean), ("mean_ratio", mean / a_mean),
                  ("asymptotic_var", a_var), ("var_ratio", var / a_var)]
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
    from . import harness

    ell = None
    if harness._json_object(obj, "target").get("kind") == "single_ell":
        obj = dict(obj)
        ell = obj.pop("ell", None)
        ell = harness._config_int(
            ell, f"single_ell target needs an integer 'ell' ≥ 1, got {ell!r}")
    return harness._parse_target(obj, ell)


def _cmd_simulate(args, _parser):
    from . import harness
    from .simulate import SampleSpec, rep_stream_id

    with open(args.spec_file, "r", encoding="utf-8") as fh:
        raw = _json_object(fh.read(), "sample spec", {"target", "n", "seed", "replications"},
                           ("target", "n"))
    target = _sample_target(raw["target"])
    # precedence: explicit flags > spec file > defaults
    seed = args.seed if args.seed is not None else raw.get("seed", 0)
    reps = args.reps if args.reps is not None else raw.get("replications", 1)
    n = harness._config_int(raw["n"], "n must be a positive integer", 1, 2 ** 63)
    seed = harness._config_int(seed, "seed must be an unsigned 64-bit integer", 0, 2 ** 64)
    reps = harness._config_int(reps, "replications must be a positive integer")
    harness._check_cell(target, n)
    arrays = harness._cell_arrays(target, n, harness._BATCH_SIZE, reps, dense_gram=False)
    if _memory_error(arrays, f"sample spec (N={n}, replications={reps})"):
        return 2
    _check_output(args.out)
    spec = SampleSpec(target=target, grid=LineGrid(n), seed=seed, replications=reps)
    # one column of V, or (V at t, V at s) for a fractional pair
    values = harness._sample_cell(spec, harness._BATCH_SIZE).reshape(spec.replications, -1)
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

# mode -> (the flags it reads, all required and every other one refused, its
# estimate from the estimators module and those flags), in --mode's order
_ESTIMATE_MODES = {
    "cl": (("v", "ell", "n"), lambda est, *a: est.estimate_cl(*a).as_dict()),
    "cl1": (("v", "ell", "n"), lambda est, *a: est.estimate_cl_variant(*a, 1).as_dict()),
    "cl2": (("v", "ell", "n", "c"), lambda est, *a: est.estimate_cl_variant(
        *a[:3], 2, c=a[3]).as_dict()),
    "cl3": (("v", "ell", "n"), lambda est, *a: est.estimate_cl_variant(*a, 3).as_dict()),
    "classical": (("coeffs", "ell"), lambda est, *a: est.estimate_cl_classical(*a).as_dict()),
    "hurst": (("vt", "vs", "t", "s"), lambda est, *a: {"value": est.estimate_hurst(*a)}),
}


def _input_error(message):
    """Exit status 2, after writing ``message`` as one stderr line."""
    sys.stderr.write(f"error: {message}\n")
    return 2


def _cmd_estimate(args, parser):
    from . import estimators

    mode, (reads, estimate) = args.mode, _ESTIMATE_MODES[args.mode]
    flags = set().union(*(f for f, _ in _ESTIMATE_MODES.values()))
    given = {f for f in flags if getattr(args, f) is not None}
    if missing := [f for f in reads if f not in given]:
        parser.error(f"mode {mode} requires --" + " --".join(missing))
    if extra := sorted(given - set(reads)):
        parser.error(f"mode {mode} reads only --{' --'.join(reads)}, not --" + " --".join(extra))
    # each estimator refuses its own inputs with a ValueError; arithmetic
    # that fails on valid inputs raises an ArithmeticError, exit 1 in main
    try:
        res = estimate(estimators, *(getattr(args, f) for f in reads))
    except ValueError as exc:
        return _input_error(exc)
    # a non-finite value is a ValueError (numeric error, exit 1), never bare
    # NaN or Infinity on stdout
    sys.stdout.write(json.dumps(res, sort_keys=True, allow_nan=False) + "\n")
    return 0


# ======================================================================
# experiment
# ======================================================================

def _json_object(text, what, *keys):
    """``text``, a config or sample spec, decoded and checked by ``harness._json_object``."""
    from . import harness

    try:
        return harness._json_object(json.loads(text), what, *keys)
    except RecursionError:  # one decoder frame per level: too deep to decode
        raise harness.ConfigError(f"{what} is nested too deeply to decode") from None


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


def run_experiment(config, threads=None, partial_flush=None):
    """``harness.run_experiment``, looked up by this name when ``experiment``
    runs, so tests and the benchmark's set-up probe can replace it; the harness
    loads only with the commands it runs. ``threads`` is passed on, ignored."""
    from .harness import run_experiment
    return run_experiment(config, threads=threads, partial_flush=partial_flush)


def _cmd_experiment(args, _parser):
    from . import harness

    raw = _json_object(_load_config_text(args.config), "config")
    # precedence: explicit flags > config file > defaults
    for key, flag in (("seed", args.seed), ("replications", args.reps)):
        if flag is not None:
            raw[key] = flag
    config = harness.ExperimentConfig.from_dict(raw)
    dense_gram = any(harness._STATISTICS[s].dense_gram for s in config.statistics)
    for (ell, n), target in zip(config.cells, config.targets):
        # a cell's largest array, checked for every cell before any draw
        arrays = harness._cell_arrays(target, n, config.batch_size, config.replications,
                                      dense_gram)
        if _memory_error(arrays, f"cell (l={ell}, N={n})"):
            return 2
    base = args.out or config.output or "experiment_report"
    _check_output(base + ".json", base + ".csv", makes_dirs=True)
    report = run_experiment(config, threads=args.threads,
                            partial_flush=lambda rep: rep.write(base))
    json_path, csv_path = report.write(base)
    sys.stdout.write(f"wrote {json_path} and {csv_path}\n")
    if args.strict:
        ok, checked, failures = harness.check_oracle_agreement(report)
        # a run that checks no row has shown nothing: it fails too
        if not checked or ok / checked < 0.95:
            for stat, ell, n, gap in failures:
                sys.stderr.write(f"oracle disagreement: {stat} at (l={ell}, N={n}) off by "
                                 f"{gap:.2f} SE\n")
            sys.stderr.write(f"strict mode: {ok}/{checked} statistics within 4 SE "
                             f"(threshold 95%)\n")
            return 3
        sys.stdout.write(f"strict mode: {ok}/{checked} statistics within 4 SE\n")
    return 0


# ======================================================================
# specfun-check
# ======================================================================

def _cmd_specfun_check(_args, _parser):
    from scipy.special import eval_legendre

    from .specfun import _SWEEP_MAX_DEGREE, harmonic_meridian_table, legendre_p

    rng = np.random.default_rng(20240801)
    checks = []

    x = rng.uniform(-1, 1, 200)
    err = max(np.max(np.abs(legendre_p(l, x) - eval_legendre(l, x)))
              for l in (1, 2, 7, 40, 150))
    checks.append(("legendre_p vs reference", err, 1e-11))

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

    # the samplers' range: Σ_m (2−δ_m0) λ_lm² = (2l+1)/(4π) at the sweep's top degree,
    # on N = 256's grid and at sin θ = 1/e, where the sectoral start underflows first
    top = _SWEEP_MAX_DEGREE
    lam = harmonic_meridian_table(top, np.append(LineGrid(256).points, math.asin(1 / math.e)))
    diag = (2.0 * np.sum(lam * lam, axis=0) - lam[0] ** 2) * (4 * math.pi / (2 * top + 1))
    checks.append((f"addition theorem at degree {top}, relative",
                   float(np.max(np.abs(diag - 1.0))), 1e-10))

    for name, err, tol in checks:
        sys.stdout.write(f"{'PASS' if err <= tol else 'FAIL'}  {name}: max error {err:.3e} "
                         f"(tol {tol:g})\n")
    return 0 if all(err <= tol for _, err, tol in checks) else 1


# ======================================================================
# Parser
# ======================================================================

def _moments_arguments(p):
    p.add_argument("--ell", type=_positive_int, required=True,
                   help="degree l (dimensionless integer ≥ 1)")
    p.add_argument("--n", type=_positive_int, required=True,
                   help="number of grid increments N")
    p.add_argument("--cl", type=lambda t: _finite(t, 0.0), required=True,
                   help="spectrum value C_l at the degree")
    p.add_argument("--regime", choices=mom._REGIMES,
                   help="also print asymptotic counterparts for this regime")
    p.add_argument("--regime-c", type=_finite, default=None,
                   help="ratio c for ell_comparable")
    p.add_argument("--p-max", type=int, default=4, choices=range(2, 9),
                   metavar="P", help="highest cumulant order (2..8)")
    p.add_argument("--csv", help="also write quantity,value CSV here")


def _simulate_arguments(p):
    p.add_argument("--spec-file", required=True,
                   help="JSON file: {target, n, [seed], [replications]}")
    p.add_argument("--seed", type=_u64, default=None, help="seed override (u64)")
    p.add_argument("--reps", type=_positive_int, default=None,
                   help="replication count override")
    p.add_argument("--out", required=True, help="output CSV path")


def _estimate_arguments(p):
    p.add_argument("--mode", required=True, choices=list(_ESTIMATE_MODES))
    p.add_argument("--v", type=_finite, help="observed quadratic variation")
    p.add_argument("--ell", type=_positive_int, help="degree l (integer ≥ 1)")
    p.add_argument("--n", type=_positive_int, help="grid increments N")
    p.add_argument("--c", type=_finite, help="degree/grid ratio for cl2")
    p.add_argument("--coeffs", type=lambda text: [
                       _finite(tok) for tok in text.split(",") if tok.strip()],
                   help="comma-separated 2l+1 harmonic coefficients")
    p.add_argument("--vt", type=_finite, help="quadratic variation at time t")
    p.add_argument("--vs", type=_finite, help="quadratic variation at time s")
    p.add_argument("--t", type=_finite, help="first observation time")
    p.add_argument("--s", type=_finite, help="second observation time")


def _experiment_arguments(p):
    p.add_argument("--config", required=True, help="config path or bundled config name")
    p.add_argument("--out", default=None,
                   help="output base path (writes BASE.json and BASE.csv)")
    p.add_argument("--seed", type=_u64, default=None, help="seed override (u64)")
    p.add_argument("--reps", type=_positive_int, default=None,
                   help="replication count override")
    p.add_argument("--threads", type=lambda t: _positive_int(t, _MAX_THREADS), default=None,
                   help=f"accepted for older callers, 1..{_MAX_THREADS}; every run "
                        "samples on one thread")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 unless ≥95%% of oracle pairs agree within 4 SE "
                        "(and at least one pair is checked)")


# name -> (help, description, function adding the command's arguments, its
# runner run(args, parser) returning the exit status), in usage order
_Command = namedtuple("_Command", "help description arguments run")
_COMMANDS = {
    "moments": _Command(
        "exact (and asymptotic) moments of one (degree, grid) cell",
        "Exact mean/variance/cumulants of the quadratic variation. Degree l is a "
        "dimensionless integer ≥ 1; the grid has N increments over [0, π/2] (radians).",
        _moments_arguments, _cmd_moments),
    "simulate": _Command(
        "draw quadratic-variation replications to CSV",
        "Sample quadratic variations per a JSON sample spec. Seeds are unsigned 64-bit "
        "integers; one derived stream per replication.",
        _simulate_arguments, _cmd_simulate),
    "estimate": _Command(
        "spectrum / Hurst point estimates from given inputs",
        "Point estimates. Modes cl/cl1/cl2/cl3 need --v --ell --n (cl2 also --c); "
        "classical needs --coeffs --ell; hurst needs --vt --vs --t --s (times in the "
        "same units, any). A mode refuses every other flag.",
        _estimate_arguments, _cmd_estimate),
    "experiment": _Command(
        "run a Monte Carlo experiment config, write JSON + CSV",
        "Run an experiment described by a JSON config (path or bundled name, e.g. "
        "regime_sweep.json). Flags override config values; unknown config keys are "
        "rejected.",
        _experiment_arguments, _cmd_experiment),
    "specfun-check": _Command(
        "run the special-function invariant suite",
        "Evaluates the special-function layer against reference implementations and "
        "closed forms; prints one PASS/FAIL line per invariant.",
        lambda p: None, _cmd_specfun_check),
}


def _build_parser(*commands):
    """The parser with the commands named in ``commands`` registered, each
    with its help, description and arguments, or with every command when
    ``commands`` names none of them (no argv, a flag first, an unknown command).

    A parser that registers fewer than every command hands each top-level
    error (an unrecognized argument, or a ``parser.error`` after parsing) to
    the full parser, whose usage line lists every command, so its stderr
    bytes are the full parser's; a subcommand's own errors and help name no
    other command."""
    parser = argparse.ArgumentParser(
        prog="sphereqv",
        description="Quadratic variations of isotropic Gaussian fields on "
                    "a sphere meridian: exact moments, simulation, "
                    "estimation, experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    names = [name for name in _COMMANDS if name in commands] or list(_COMMANDS)
    for name in names:
        cmd = _COMMANDS[name]
        cmd.arguments(sub.add_parser(name, help=cmd.help, description=cmd.description))
    if len(names) < len(_COMMANDS):
        parser.error = lambda message: _build_parser().error(message)
    return parser


def main(argv=None):
    """Run the command ``argv`` names (``sys.argv[1:]`` by default), parsed
    by ``_build_parser`` with that command alone, and return its exit status."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(*argv[:1])
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command].run(args, parser)
    # a config or sample spec whose bytes are not UTF-8 JSON is a config error,
    # as is the harness's ConfigError: the tuple is built when an exception
    # reaches it, after a command that raises one has loaded the harness
    except (json.JSONDecodeError, UnicodeDecodeError, getattr(
            sys.modules.get(f"{__package__}.harness"), "ConfigError", UnicodeDecodeError)) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except OSError as exc:
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
