"""Spans around the calls into each sphereqv layer, recorded from outside.

The modules import each other's functions by value, so a function is wrapped
at every name it is looked up under: for each public function of a layer,
every ``sphereqv`` namespace that holds that function object gets the traced
version (for example ``sphereqv.harness.batch_quadratic_variation`` and
``sphereqv.simulate.rep_seed_sequence``). Config loading and report writing
are reached through ``cli._load_config_text`` and two methods, which are
wrapped on their owners.

A span is (id, name, start, end, parent, thread id, run id, info). The run
id is the id of the top-level span on the main thread (one CLI call), which
worker-thread spans share. ``info``
holds the call's problem sizes for the few functions whose per-layer metrics
are computed from their arguments. Spans stay in memory and are written to
an ``.npz`` file when the run ends. A span's self time is its duration minus
the durations of its children; children of one span run on its thread and
nest, so they do not overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "covariance", "moments", "simulate", "estimators",
          "harness", "cli")

# (name, unit, better): every per-layer metric the traced run emits.
PER_LAYER = (
    ("specfun.stack_s", "s", "lower"),
    ("specfun.stack_calls", "count", "lower"),
    ("specfun.stack_useful_ratio", "ratio", "higher"),
    ("specfun.table_s", "s", "lower"),
    ("specfun.table_calls", "count", "lower"),
    ("specfun.table_distinct_ratio", "ratio", "higher"),
    ("specfun.legendre_s", "s", "lower"),
    ("specfun.legendre_calls", "count", "lower"),
    ("covariance.row_s", "s", "lower"),
    ("covariance.gram_s", "s", "lower"),
    ("covariance.gram_mb", "MB", "lower"),
    ("moments.cumulant_s", "s", "lower"),
    ("moments.eig_calls", "count", "lower"),
    ("moments.eig_per_gram", "ratio", "lower"),
    ("simulate.batch_s", "s", "lower"),
    ("simulate.batch_calls", "count", "lower"),
    ("simulate.batch_self_s", "s", "lower"),
    ("simulate.stream_calls", "count", "lower"),
    ("simulate.stream_s", "s", "lower"),
    ("simulate.stream_us_per_rep", "us", "lower"),
    ("simulate.matmul_gflop", "GFLOP", "lower"),
    ("simulate.basis_mb", "MB", "lower"),
    ("estimators.estimate_cl_s", "s", "lower"),
    ("estimators.estimate_cl_calls", "count", "lower"),
    ("estimators.estimate_hurst_s", "s", "lower"),
    ("harness.kstats_s", "s", "lower"),
    ("harness.ks_s", "s", "lower"),
    ("harness.ks_calls", "count", "lower"),
    ("harness.pool_busy_frac", "ratio", "higher"),
    ("harness.pool_wait_s", "s", "lower"),
    ("harness.write_s", "s", "lower"),
    ("harness.report_bytes", "bytes", "lower"),
    ("cli.config_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


# ----------------------------------------------------------------------
# Problem sizes taken from a call's arguments and result
# ----------------------------------------------------------------------

def _stack_info(tracer, args, kwargs, result):
    # one recurrence pass fills rows (l, m) for every m < l_hi and l in
    # [m, l_hi): l_hi(l_hi+1)/2 rows, of which the [l_lo, l_hi) ones return
    l_hi = int(args[1])
    return {"rows": result.shape[0], "evaluated": l_hi * (l_hi + 1) // 2,
            "points": result.shape[1]}


def _table_info(tracer, args, kwargs, result):
    return {"key": (int(args[0]), result.shape[1]), "rows": result.shape[0],
            "points": result.shape[1]}


def _batch_info(tracer, args, kwargs, result):
    spec, count = args[0], int(args[2])
    target = spec.target
    if hasattr(target, "ell"):  # single degree
        rows, products = target.ell + 1, 1
    else:
        fbm = hasattr(target, "spec")  # fractional pair: one product per time
        spectrum = target.spec.spectrum if fbm else target.spectrum
        rows = sum(l + 1 for l in range(spectrum.l_min, spectrum.l_max + 1))
        products = 2 if fbm else 1
    return {"cell": (spec.grid.n, getattr(target, "ell", None), spec.seed),
            "flop": products * 2 * count * rows * (spec.grid.n + 1)}


def _cumulant_info(tracer, args, kwargs, result):
    gram = args[0]
    tracer.keep.append(gram)  # keeps id(gram) unique until the iteration ends
    return {"p": int(args[1]), "gram": id(gram)}


def _gram_info(tracer, args, kwargs, result):
    return {"bytes": getattr(result, "sigma", result).nbytes}


def _write_info(tracer, args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


_INFO = {
    "specfun.harmonic_meridian_stack": _stack_info,
    "specfun.harmonic_meridian_table": _table_info,
    "simulate.batch_quadratic_variation": _batch_info,
    "moments.trace_cumulant": _cumulant_info,
    "covariance.increment_gram_fl": _gram_info,
    "covariance.increment_gram_f": _gram_info,
    "covariance.fbm_joint_gram": _gram_info,
    "harness.ExperimentReport.write": _write_info,
}


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------

class Tracer:
    """Wraps the layers' functions and records one span per call."""

    def __init__(self):
        self.spans = []
        self.keep = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._archive = []

    def _wrap(self, name, fn):
        info = _INFO.get(name)
        local, ids = self._local, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            if not stack and threading.current_thread() is threading.main_thread():
                self.run_id = sid  # a top-level call (cli.main) starts a run
            stack.append(sid)
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(self, args, kwargs, result) if done and info else None
                self.spans.append((sid, name, start, end, parent,
                                   threading.get_ident(), self.run_id, extra))
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's public functions for the duration of the block."""
        import sphereqv
        mods = [importlib.import_module(f"sphereqv.{m}") for m in LAYERS]
        namespaces = [sphereqv, *mods]
        try:
            for layer, mod in zip(LAYERS, mods):
                for fname in mod.__all__:
                    fn = getattr(mod, fname)
                    if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                        continue
                    traced = self._wrap(f"{layer}.{fname}", fn)
                    for ns in namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is fn:
                                self._patch(ns, attr, traced)
            cli, harness = mods[-1], mods[-2]
            self._patch(cli, "_load_config_text",
                        self._wrap("cli._load_config_text", cli._load_config_text))
            config_cls, report_cls = harness.ExperimentConfig, harness.ExperimentReport
            from_dict = vars(config_cls)["from_dict"].__func__
            self._patch(config_cls, "from_dict", classmethod(
                self._wrap("harness.ExperimentConfig.from_dict", from_dict)))
            self._patch(report_cls, "write",
                        self._wrap("harness.ExperimentReport.write", report_cls.write))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def take(self):
        """The spans recorded since the last call; they are also archived."""
        spans, self.spans = self.spans, []
        self.keep = []
        if spans:
            self._archive.append(spans)
        return spans

    def save(self, path):
        """Write every archived span as arrays to ``path`` (.npz)."""
        spans = [s for chunk in self._archive for s in chunk]
        names = sorted({s[1] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*spans)) if spans else [()] * 8
        np.savez(path, names=np.array(names, dtype=str),
                 id=np.array(cols[0], dtype=np.int64),
                 name=np.array([index[n] for n in cols[1]], dtype=np.int32),
                 start=np.array(cols[2], dtype=float),
                 end=np.array(cols[3], dtype=float),
                 parent=np.array(cols[4], dtype=np.int64),
                 thread=np.array(cols[5], dtype=np.uint64),
                 run=np.array(cols[6], dtype=np.int32))


# ----------------------------------------------------------------------
# Per-layer metrics of one traced iteration
# ----------------------------------------------------------------------

def layer_metrics(spans, workers):
    """Per-layer metrics (name -> value) from one iteration's spans."""
    spans = [s for s in spans if s[7] is not None or s[1] not in _INFO]
    child = defaultdict(float)
    specfun_child = defaultdict(float)
    for sid, name, start, end, parent, *_ in spans:
        child[parent] += end - start
        if name.startswith("specfun."):
            specfun_child[parent] += end - start
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def self_s(*names):
        return sum(s[3] - s[2] - child[s[0]] for n in names for s in by_name[n])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    stack = by_name["specfun.harmonic_meridian_stack"]
    table = by_name["specfun.harmonic_meridian_table"]
    batch = by_name["simulate.batch_quadratic_variation"]
    eig = [s for s in by_name["moments.trace_cumulant"] if s[7]["p"] >= 3]
    grams = ("covariance.increment_gram_fl", "covariance.increment_gram_f",
             "covariance.fbm_joint_gram")
    stream_s = self_s("simulate.rep_seed_sequence")
    stream_calls = calls("simulate.rep_seed_sequence")

    cells = defaultdict(list)
    for s in batch:
        cells[(s[6], s[7]["cell"])].append(s)
    sampling_wall = sum(max(s[3] for s in c) - min(s[2] for s in c)
                        for c in cells.values())
    pool_wait = sum(s[2] - min(t[2] for t in c) for c in cells.values() for s in c)
    batch_busy = sum(s[3] - s[2] for s in batch)

    return {
        "specfun.stack_s": self_s("specfun.harmonic_meridian_stack"),
        "specfun.stack_calls": len(stack),
        "specfun.stack_useful_ratio": ratio(sum(s[7]["rows"] for s in stack),
                                            sum(s[7]["evaluated"] for s in stack)),
        "specfun.table_s": self_s("specfun.harmonic_meridian_table"),
        "specfun.table_calls": len(table),
        "specfun.table_distinct_ratio": ratio(len({s[7]["key"] for s in table}),
                                              len(table)),
        "specfun.legendre_s": self_s("specfun.legendre_p"),
        "specfun.legendre_calls": calls("specfun.legendre_p"),
        "covariance.row_s": self_s("covariance.increment_row_fl",
                                   "covariance.increment_row_f",
                                   "covariance.fbm_spatial_row"),
        "covariance.gram_s": self_s(*grams),
        "covariance.gram_mb": sum(s[7]["bytes"] for n in grams
                                  for s in by_name[n]) / 1e6,
        "moments.cumulant_s": self_s("moments.trace_cumulant",
                                     "moments.normalized_cumulant",
                                     "moments.fourth_moment_bound"),
        "moments.eig_calls": len(eig),
        "moments.eig_per_gram": ratio(len(eig), len({s[7]["gram"] for s in eig})),
        "simulate.batch_s": batch_busy,
        "simulate.batch_calls": len(batch),
        "simulate.batch_self_s": sum(s[3] - s[2] - specfun_child[s[0]]
                                     for s in batch),
        "simulate.stream_calls": stream_calls,
        "simulate.stream_s": stream_s,
        "simulate.stream_us_per_rep": ratio(stream_s * 1e6, stream_calls),
        "simulate.matmul_gflop": sum(s[7]["flop"] for s in batch) / 1e9,
        "simulate.basis_mb": sum(s[7]["rows"] * s[7]["points"] * 8
                                 for s in stack + table) / 1e6,
        "estimators.estimate_cl_s": self_s("estimators.estimate_cl"),
        "estimators.estimate_cl_calls": calls("estimators.estimate_cl"),
        "estimators.estimate_hurst_s": self_s("estimators.estimate_hurst"),
        "harness.kstats_s": self_s("harness.empirical_cumulants"),
        "harness.ks_s": self_s("harness.ks_normal"),
        "harness.ks_calls": calls("harness.ks_normal"),
        "harness.pool_busy_frac": ratio(batch_busy, workers * sampling_wall),
        "harness.pool_wait_s": pool_wait,
        "harness.write_s": self_s("harness.ExperimentReport.write"),
        "harness.report_bytes": sum(s[7]["bytes"] for s in
                                    by_name["harness.ExperimentReport.write"]),
        "cli.config_s": self_s("cli._load_config_text",
                               "harness.ExperimentConfig.from_dict"),
        "trace.spans": len(spans),
    }
