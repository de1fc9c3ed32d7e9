"""Sampler laws and the determinism contract."""

import math
import sys
import threading
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special, stats

from sphereqv import simulate
from sphereqv.covariance import (
    FbmSpec,
    LineGrid,
    PowerSpectrum,
    fbm_spatial_row,
    increment_gram_fl,
    rh_cross,
)
from sphereqv.moments import exact_mean_vnl, exact_var_vnl, trace_cumulant
from sphereqv.simulate import (
    FbmTarget,
    FullField,
    SampleSpec,
    SingleEll,
    batch_quadratic_variation,
    rep_seed_sequence,
    rep_stream_id,
)
from sphereqv.specfun import harmonic_meridian_table


def _spec(target, n=16, seed=123, reps=1):
    return SampleSpec(target=target, grid=LineGrid(n), seed=seed,
                      replications=reps)


# ======================================================================
# Determinism contract
# ======================================================================

def test_batch_split_invariance():
    spec = _spec(SingleEll(4, 1.5), n=24, seed=77, reps=10)
    whole = batch_quadratic_variation(spec, 0, 10)
    assert_array_equal(whole, batch_quadratic_variation(spec, 0, 10))
    parts = np.concatenate([
        batch_quadratic_variation(spec, 0, 3),
        batch_quadratic_variation(spec, 3, 4),
        batch_quadratic_variation(spec, 7, 3),
    ])
    assert_allclose(whole, parts, rtol=1e-12)


def test_batch_split_invariance_full_field():
    sp = PowerSpectrum.power_law(1.0, 0.3, l_max=12)
    spec = _spec(FullField(sp), n=8, seed=5, reps=6)
    whole = batch_quadratic_variation(spec, 0, 6)
    # same batch bitwise; different splits only move the last ulp
    assert_array_equal(whole, batch_quadratic_variation(spec, 0, 6))
    parts = np.concatenate([batch_quadratic_variation(spec, r, 1)
                            for r in range(6)])
    assert_allclose(whole, parts, rtol=1e-12)


def _chunked_reference(spectrum, theta, degree_scale, gens, times):
    # one basis per degree chunk, stacked from per-degree tables (each its
    # own sweep); times = None draws l+1 normals per degree, else
    # (l00, l10, l11) pairs
    outs = [np.zeros((len(gens), theta.size)) for _ in range(1 if times is None else 2)]
    for lo, hi in simulate._degree_chunks(spectrum.l_min, spectrum.l_max):
        basis = np.concatenate([harmonic_meridian_table(l, theta) for l in range(lo, hi)])
        scale = np.concatenate([[degree_scale(l)] + [degree_scale(l) * math.sqrt(2.0)] * l
                                for l in range(lo, hi)])
        basis *= scale[:, None]
        rows = basis.shape[0]
        if times is None:
            z = np.stack([g.standard_normal(rows) for g in gens])
            outs[0] += z @ basis
        else:
            l00, l10, l11 = times
            z = np.stack([g.standard_normal(2 * rows).reshape(rows, 2) for g in gens])
            outs[0] += (l00 * z[:, :, 0]) @ basis
            outs[1] += (l10 * z[:, :, 0] + l11 * z[:, :, 1]) @ basis
    return outs


def test_chunked_sweep_is_bitwise_the_per_chunk_stacks(monkeypatch):
    # a small chunk size forces several chunk boundaries, across which the
    # samplers carry one recurrence sweep instead of restarting it
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 120)
    grid = LineGrid(20)
    theta = grid.points
    sp = PowerSpectrum.power_law(0.9, 0.3, l_max=40)
    assert len(simulate._degree_chunks(sp.l_min, sp.l_max)) >= 3

    def gens():
        return [np.random.default_rng(rep_seed_sequence(_spec(FullField(sp)), r))
                for r in range(3)]

    (got,) = simulate._paths_batch(FullField(sp), grid, gens())
    (want,) = _chunked_reference(sp, theta, lambda l: math.sqrt(sp.cl(l)), gens(), None)
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    # a spectrum starting above degree 0 also skips the leading sweep blocks
    fsp = PowerSpectrum.explicit(np.linspace(1.0, 0.1, 30), l_min=7)
    fspec = FbmSpec(hurst=0.35, spectrum=fsp, times=(2.0, 1.0))
    assert len(simulate._degree_chunks(fsp.l_min, fsp.l_max)) >= 3
    gt, gs = simulate._paths_batch(FbmTarget(fspec), grid, gens())
    h = fspec.hurst
    l00 = 2.0 ** h
    l10 = rh_cross(h, 2.0, 1.0) / l00
    l11 = math.sqrt(max(1.0 - l10 * l10, 0.0))
    wt, ws = _chunked_reference(fsp, theta, lambda l: math.sqrt(4.0 * math.pi * fsp.cl(l)),
                                gens(), (l00, l10, l11))
    assert_array_equal(gt.view(np.uint64), wt.view(np.uint64))
    assert_array_equal(gs.view(np.uint64), ws.view(np.uint64))


@pytest.mark.parametrize("chunk_rows, spectrum", [
    # degrees 20..30 exceed the chunk size: one oversize chunk each
    (20, PowerSpectrum.power_law(0.9, 0.3, l_max=30)),
    # the last chunk (15 rows) is shorter than the first (39 rows)
    (40, PowerSpectrum.explicit(np.linspace(1.0, 0.2, 12), l_min=3)),
], ids=["oversize", "short_last"])
def test_reused_draw_buffers_are_bitwise_the_per_chunk_draws(monkeypatch, chunk_rows,
                                                             spectrum):
    # the multi-degree draws reuse buffers sized for the largest chunk; both
    # targets must give the bits of fresh per-chunk arrays
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", chunk_rows)
    sizes = [simulate._chunk_rows(lo, hi)
             for lo, hi in simulate._degree_chunks(spectrum.l_min, spectrum.l_max)]
    assert len(sizes) >= 3
    assert max(sizes) > chunk_rows or sizes[-1] < max(sizes)
    grid = LineGrid(20)
    theta = grid.points

    def gens():
        return [np.random.default_rng(rep_seed_sequence(_spec(FullField(spectrum)), r))
                for r in range(4)]

    (got,) = simulate._paths_batch(FullField(spectrum), grid, gens())
    (want,) = _chunked_reference(spectrum, theta, lambda l: math.sqrt(spectrum.cl(l)),
                                 gens(), None)
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    fspec = FbmSpec(hurst=0.7, spectrum=spectrum, times=(0.5, 3.0))
    gt, gs = simulate._paths_batch(FbmTarget(fspec), grid, gens())
    l00 = 0.5 ** 0.7
    l10 = rh_cross(0.7, 0.5, 3.0) / l00
    l11 = math.sqrt(max(3.0 ** 1.4 - l10 * l10, 0.0))
    wt, ws = _chunked_reference(spectrum, theta,
                                lambda l: math.sqrt(4.0 * math.pi * spectrum.cl(l)),
                                gens(), (l00, l10, l11))
    assert_array_equal(gt.view(np.uint64), wt.view(np.uint64))
    assert_array_equal(gs.view(np.uint64), ws.view(np.uint64))


def test_memory_estimate_follows_the_chunk_size(monkeypatch):
    # the estimate bounds the largest chunk _paths_batch allocates for the
    # live chunk size, exactly when every degree past 199 is a chunk alone
    from sphereqv.harness import _cell_arrays
    spectrum = PowerSpectrum.power_law(1.0, 0.2, l_max=512)
    for chunk_rows in (16384, 200):
        monkeypatch.setattr(simulate, "_CHUNK_ROWS", chunk_rows)
        rows = max(simulate._chunk_rows(lo, hi)
                   for lo, hi in simulate._degree_chunks(spectrum.l_min, spectrum.l_max))
        arrays = {name: size for size, name in
                  _cell_arrays(FullField(spectrum), 64, 100, 300, dense_gram=False)}
        need = arrays["sampler basis and coefficients"]
        assert need >= 8 * rows * (64 + 1 + 100)
    assert need == 8 * 513 * (64 + 1 + 100)


def _frozen_sequential_v(spec, rep_start, rep_count):
    # batch_quadratic_variation's multi-degree branch before a chunk's draws
    # ran beside its sweep: one thread advances the sweep, then draws and
    # couples every replication, then runs the chunk's gemms
    gens = [np.random.default_rng(rep_seed_sequence(spec, r))
            for r in range(rep_start, rep_start + rep_count)]
    grid = spec.grid
    if isinstance(spec.target, FullField):
        spectrum, factor, times = spec.target.spectrum, 1.0, 1
    else:
        fspec = spec.target.spec
        t, s = fspec.times
        l00 = t ** fspec.hurst
        l10 = rh_cross(fspec.hurst, t, s) / l00
        l11 = math.sqrt(max(s ** (2.0 * fspec.hurst) - l10 * l10, 0.0))
        spectrum, factor, times = fspec.spectrum, 4.0 * math.pi, 2
    b = len(gens)
    rows_max = max(simulate._chunk_rows(lo, hi)
                   for lo, hi in simulate._degree_chunks(spectrum.l_min, spectrum.l_max))
    coef = [np.empty(b * rows_max) for _ in range(times)]
    draw = np.empty(2 * rows_max) if times == 2 else None
    out = np.zeros((times, b, grid.n + 1))
    for basis in simulate._scaled_chunks(spectrum, grid.points, factor):
        rows = basis.shape[0]
        z = [c[:b * rows].reshape(b, rows) for c in coef]
        for i, g in enumerate(gens):
            if times == 1:
                g.standard_normal(out=z[0][i])
            else:
                zi = draw[:2 * rows]
                g.standard_normal(out=zi)
                np.multiply(l11, zi[1::2], out=z[1][i])
                np.multiply(l10, zi[0::2], out=z[0][i])
                z[1][i] += z[0][i]
                np.multiply(l00, zi[0::2], out=z[0][i])
        for k in range(times):
            out[k] += z[k] @ basis
    v = [np.einsum("ij,ij->i", d, d) for d in np.diff(out, axis=2)]
    return v[0] if times == 1 else np.stack(v, axis=1)


def _multi_degree_specs(reps=7):
    sp = PowerSpectrum(kind="power_law", l_min=2, l_max=40, c0=1.0, epsilon=0.2)
    return [_spec(FullField(sp), n=50, seed=2 ** 33 + 1, reps=reps),
            _spec(FbmTarget(FbmSpec(hurst=0.3, spectrum=sp, times=(2.0, 1.0))),
                  n=50, seed=2 ** 33 + 1, reps=reps)]


@pytest.mark.parametrize("count", [1, 2, 7])
@pytest.mark.parametrize("chunk_rows", [60, 300])
@pytest.mark.parametrize("kind", ["full_field", "fbm"])
def test_overlapped_draws_are_bitwise_the_sequential_loop(monkeypatch, kind, chunk_rows,
                                                         count):
    # the draw helper and the batch thread share each chunk's draws; the
    # values must be the bits of one thread drawing after the sweep
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", chunk_rows)
    spec = _multi_degree_specs()[kind == "fbm"]
    assert len(simulate._degree_chunks(2, 40)) >= 3
    got = batch_quadratic_variation(spec, 3, count)
    want = _frozen_sequential_v(spec, 3, count)
    assert got.shape == want.shape
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_batch_draws_alone_while_the_helper_is_busy(monkeypatch):
    # a batch whose draw tasks queue behind another task cancels them and
    # draws every replication itself: same bits, no wait on the helper
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 60)
    specs = _multi_degree_specs()
    want = [batch_quadratic_variation(spec, 0, 7) for spec in specs]
    started, release = threading.Event(), threading.Event()
    blocker = simulate._DRAW_HELPER.submit(lambda: started.set() or release.wait(30))
    got = []
    worker = threading.Thread(
        target=lambda: got.extend(batch_quadratic_variation(spec, 0, 7) for spec in specs))
    try:
        assert started.wait(10)
        worker.start()
        worker.join(30)
        finished = not worker.is_alive()
    finally:
        release.set()
    worker.join(30)
    assert blocker.result(timeout=10)
    assert finished
    for g, w in zip(got, want):
        assert_array_equal(g.view(np.uint64), w.view(np.uint64))


def test_concurrent_batches_share_the_draw_helper(monkeypatch):
    # more batch threads than cores race for the one helper with a short
    # switch interval; a replication drawn twice or never would move bits
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 60)
    specs = _multi_degree_specs(reps=24)
    want = [[batch_quadratic_variation(spec, start, 6) for start in range(0, 24, 6)]
            for spec in specs]
    results = {}

    def run(key):
        spec, start = specs[key[0]], key[1]
        results[key] = batch_quadratic_variation(spec, start, 6)

    threads = [threading.Thread(target=run, args=((k, start),))
               for k in range(2) for start in range(0, 24, 6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(2):
        for j, start in enumerate(range(0, 24, 6)):
            assert_array_equal(results[k, start].view(np.uint64),
                               want[k][j].view(np.uint64))


def test_single_degree_cell_builds_its_basis_once(monkeypatch):
    # a cell's batches share one read-only basis; values are those of a
    # basis built afresh for every batch
    spec = _spec(SingleEll(ell=5, c_ell=0.8), n=24, reps=90)
    fresh = simulate._meridian_basis.__wrapped__(5, 0.8, spec.grid)
    calls = []
    table = simulate.harmonic_meridian_table
    monkeypatch.setattr(simulate, "harmonic_meridian_table",
                        lambda *a: calls.append(a) or table(*a))
    simulate._meridian_basis.cache_clear()
    got = np.concatenate([batch_quadratic_variation(spec, s, 30) for s in (0, 30, 60)])
    assert len(calls) == 1
    basis = simulate._meridian_basis(5, 0.8, spec.grid)
    assert not basis.flags.writeable
    assert_array_equal(basis.view(np.uint64), fresh.view(np.uint64))
    z = np.array([np.random.default_rng(rep_seed_sequence(spec, r)).standard_normal(11)[:6]
                  for r in range(30)])
    d = np.diff(z @ fresh, axis=1)
    assert_array_equal(got[:30], np.einsum("ij,ij->i", d, d))
    batch_quadratic_variation(_spec(SingleEll(ell=5, c_ell=0.8), n=25), 0, 2)
    assert len(calls) == 2  # a new grid is a new cell


def _frozen_single_degree_v(spec, rep_start, rep_count):
    # the single-degree branch of batch_quadratic_variation as it stood
    # before the three targets shared one sampler body
    ell = spec.target.ell
    basis = simulate._meridian_basis(ell, spec.target.c_ell, spec.grid)
    gens = [np.random.default_rng(rep_seed_sequence(spec, r))
            for r in range(rep_start, rep_start + rep_count)]
    z = np.empty((len(gens), ell + 1))
    for i, g in enumerate(gens):
        z[i] = g.standard_normal(2 * ell + 1)[:ell + 1]
    paths = z @ basis
    d = np.diff(paths, axis=1)
    return np.einsum("ij,ij->i", d, d)


@pytest.mark.parametrize("ell, n", [(1, 1), (3, 16), (9, 64), (40, 33),
                                   (64, 64), (128, 128), (256, 256)])  # bundled regime_sweep
def test_single_degree_is_bitwise_the_frozen_bodies(ell, n):
    spec = _spec(SingleEll(ell, 0.8), n=n, seed=2 ** 32 + 5, reps=60)
    for start, count in ((0, 60), (7, 1), (13, 20)):
        got = batch_quadratic_variation(spec, start, count)
        want = _frozen_single_degree_v(spec, start, count)
        assert got.shape == (count,)
        assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_pcg64_asks_seed_words_for_four_uint64(monkeypatch):
    requests = []

    class Recording(simulate._SeedWords):
        def generate_state(self, n_words, dtype=np.uint32):
            requests.append((n_words, np.dtype(dtype)))
            return super().generate_state(n_words, dtype)

    monkeypatch.setattr(simulate, "_SeedWords", Recording)
    batch_quadratic_variation(_spec(SingleEll(3, 1.0)), 0, 3)
    assert requests == [(4, np.dtype(np.uint64))] * 3


@pytest.mark.parametrize("kind, count, peak", [
    ("single_ell", 1024, 1), ("full_field", 12, 12), ("fbm", 12, 12)])
def test_stream_lifetime_per_target_kind(monkeypatch, kind, count, peak):
    # a single degree reads each stream once and frees it before making the
    # next; the multi-degree targets advance every stream chunk by chunk, so
    # they hold all B of them. Counting the streams leaves the values alone.
    sp = PowerSpectrum.power_law(0.9, 0.3, l_max=12)
    target = {"single_ell": SingleEll(3, 1.0), "full_field": FullField(sp),
              "fbm": FbmTarget(FbmSpec(hurst=0.35, spectrum=sp, times=(2.0, 1.0)))}[kind]
    spec = _spec(target, seed=2 ** 32 + 5)
    want = batch_quadratic_variation(spec, 5, count)
    live, seen = [0], [0]

    def dropped():
        live[0] -= 1

    class Counted(np.random.PCG64):
        def __init__(self, seed=None):
            super().__init__(seed)
            live[0] += 1
            seen[0] = max(seen[0], live[0])
            weakref.finalize(self, dropped)

    monkeypatch.setattr(np.random, "PCG64", Counted)
    got = batch_quadratic_variation(spec, 5, count)
    assert seen[0] == peak
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed, rep, single_id, multi_id", [
    (0, 0, "0:0:5", "0:0"),
    (0, 4294967296, "0:4294967296:5", "0:4294967296"),
    (4294967295, 0, "4294967295:0:5", "4294967295:0"),
    (4294967295, 4294967296, "4294967295:4294967296:5", "4294967295:4294967296"),
    (4294967296, 0, "4294967296:0:5", "4294967296:0"),
    (4294967296, 4294967296, "4294967296:4294967296:5", "4294967296:4294967296"),
    (18446744073709551615, 0, "18446744073709551615:0:5", "18446744073709551615:0"),
    (18446744073709551615, 4294967296,
     "18446744073709551615:4294967296:5", "18446744073709551615:4294967296"),
])
def test_stream_entropy_is_frozen(seed, rep, single_id, multi_id):
    # the determinism contract: [seed, rep, l] for one degree, [seed, rep]
    # for the full field and the fractional pair
    sp = PowerSpectrum.explicit([1.0, 0.5], l_min=1)
    single = _spec(SingleEll(5, 1.0), seed=seed)
    assert rep_stream_id(single, rep) == single_id
    assert rep_seed_sequence(single, rep).entropy == [seed, rep, 5]
    for target in (FullField(sp), FbmTarget(FbmSpec(hurst=0.4, spectrum=sp,
                                                    times=(2.0, 1.0)))):
        multi = _spec(target, seed=seed)
        assert rep_stream_id(multi, rep) == multi_id
        assert rep_seed_sequence(multi, rep).entropy == [seed, rep]


_SEED_EDGES = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


@pytest.mark.parametrize("seed", _SEED_EDGES)
@pytest.mark.parametrize("ell", [5, 2 ** 32 + 1, None])
def test_seed_words_are_numpys_seed_sequence(seed, ell):
    # up to 6 entropy words ([2⁶⁴−1, 2³², 2³²+1]), so the mixing loop past
    # the 4-word pool runs; the straddling batch changes rep's word count
    target = FullField(PowerSpectrum.single(2, 1.0)) if ell is None else SingleEll(ell, 1.0)
    spec = _spec(target, seed=seed)
    for start, count in ((0, 3), (2 ** 32 - 2, 4), (2 ** 64 - 1, 2)):
        got = simulate._rep_seed_words(spec, start, count)
        want = np.array([rep_seed_sequence(spec, r).generate_state(4, np.uint64)
                         for r in range(start, start + count)])
        assert got.dtype == np.uint64 and got.shape == (count, 4)
        assert_array_equal(got, want)


def _default_rng_v(spec, rep_start, rep_count):
    # V from numpy's own per-replication streams, the construction the
    # batch's vectorized seed hash replaced
    gens = [np.random.default_rng(rep_seed_sequence(spec, r))
            for r in range(rep_start, rep_start + rep_count)]
    paths = simulate._paths_batch(spec.target, spec.grid, gens)
    v = [np.einsum("ij,ij->i", d, d) for d in np.diff(paths, axis=2)]
    return v[0] if len(v) == 1 else np.stack(v, axis=1)


@pytest.mark.parametrize("seed", _SEED_EDGES)
def test_batch_streams_are_bitwise_default_rng(seed, monkeypatch):
    # several chunks for the full field and the fractional pair; one batch
    # straddles rep 2³², where rep's entropy grows from one word to two
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 120)
    sp = PowerSpectrum.power_law(0.9, 0.3, l_max=40)
    assert len(simulate._degree_chunks(sp.l_min, sp.l_max)) >= 3
    targets = [SingleEll(4, 1.3), FullField(sp),
               FbmTarget(FbmSpec(hurst=0.35, spectrum=sp, times=(2.0, 1.0)))]
    for target in targets:
        spec = _spec(target, n=12, seed=seed)
        for start, count in ((0, 4), (2 ** 32 - 2, 5)):
            got = batch_quadratic_variation(spec, start, count)
            want = _default_rng_v(spec, start, count)
            assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_stream_ids():
    s1 = _spec(SingleEll(5, 1.0), seed=42)
    assert rep_stream_id(s1, 3) == "42:3:5"
    s2 = _spec(FullField(PowerSpectrum.single(2, 1.0)), seed=42)
    assert rep_stream_id(s2, 0) == "42:0"


def test_draw_layout_is_degree_ascending():
    # reconstruct a full-field path from the documented layout: for each
    # degree l in ascending order, l+1 normals scaled by √C_l (m = 0) and
    # √(2 C_l) (m ≥ 1) against the normalized harmonics
    sp = PowerSpectrum.power_law(0.7, 0.4, l_max=200)  # spans a chunk boundary
    grid = LineGrid(4)
    (path,) = simulate._paths_batch(FullField(sp), grid, [np.random.default_rng(314)])

    rng2 = np.random.default_rng(314)
    want = np.zeros(grid.n + 1)
    for ell in range(1, 201):
        lam = harmonic_meridian_table(ell, grid.points)
        w = np.full(ell + 1, math.sqrt(2.0 * sp.cl(ell)))
        w[0] = math.sqrt(sp.cl(ell))
        want += (w * rng2.standard_normal(ell + 1)) @ lam
    assert_allclose(path[0], want, rtol=0, atol=1e-12)


# ======================================================================
# Sampling laws
# ======================================================================

def test_zero_spectrum_gives_zero_path():
    (path,) = simulate._paths_batch(SingleEll(3, 0.0), LineGrid(8), [np.random.default_rng(0)])
    assert_array_equal(path, np.zeros((1, 9)))


def test_two_point_covariance_law():
    ell, n, b = 1, 8, 200000
    grid = LineGrid(n)
    rng = np.random.default_rng(5150)
    lam = harmonic_meridian_table(ell, grid.points)
    w = np.full(ell + 1, math.sqrt(2.0))
    w[0] = 1.0
    paths = rng.standard_normal((b, ell + 1)) @ (w[:, None] * lam)
    emp = paths.T @ paths / b
    lag = np.abs(grid.points[:, None] - grid.points[None, :])
    want = (2 * ell + 1) / (4 * math.pi) * special.eval_legendre(ell, np.cos(lag))
    se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want ** 2) / b)
    assert np.max(np.abs(emp - want) / se) < 5.0


def test_increment_covariance_law():
    ell, n, b = 6, 8, 200000
    grid = LineGrid(n)
    rng = np.random.default_rng(616)
    lam = harmonic_meridian_table(ell, grid.points)
    w = np.full(ell + 1, math.sqrt(2.0))
    w[0] = 1.0
    d = np.diff(rng.standard_normal((b, ell + 1)) @ (w[:, None] * lam), axis=1)
    emp = d.T @ d / b
    want = increment_gram_fl(ell, 1.0, grid).sigma
    se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want ** 2) / b)
    assert np.max(np.abs(emp - want) / se) < 5.0


def test_quadratic_variation_moments_law():
    spec = _spec(SingleEll(3, 1.0), n=32, seed=8811, reps=100000)
    v = batch_quadratic_variation(spec, 0, spec.replications)
    gram = increment_gram_fl(3, 1.0, spec.grid)
    mean, var = exact_mean_vnl(3, 1.0, 32), exact_var_vnl(gram)
    assert abs(v.mean() - mean) < 4.0 * math.sqrt(var / v.size)
    # sample-variance band from the exact fourth cumulant
    k4 = trace_cumulant(gram, 4)
    se_var = math.sqrt((k4 + 2 * var ** 2) / v.size)
    assert abs(v.var(ddof=1) - var) < 5.0 * se_var


def test_full_field_pointwise_variance_law():
    sp = PowerSpectrum.power_law(1.0, 0.2, l_max=64)
    spec = _spec(FullField(sp), n=16, seed=3030, reps=1)
    b = 30000
    gens = [np.random.default_rng(rep_seed_sequence(spec, r)) for r in range(b)]
    (paths,) = simulate._paths_batch(FullField(sp), spec.grid, gens)
    ells = sp.degrees()
    want = float(np.sum(sp.cl(ells) * (2 * ells + 1) / (4 * math.pi)))
    emp = paths.var(axis=0, ddof=1)
    se = want * math.sqrt(2.0 / b)
    assert np.max(np.abs(emp - want)) < 5.0 * se


def test_fbm_marginal_scales_as_time_power():
    h, t, s = 0.3, 2.0, 1.0
    fspec = FbmSpec(hurst=h, spectrum=PowerSpectrum.explicit([0.8, 0.4], l_min=1),
                    times=(t, s))
    spec = _spec(FbmTarget(fspec), n=16, seed=99, reps=4000)
    v = batch_quadratic_variation(spec, 0, spec.replications)
    ratio = v[:, 0].mean() / v[:, 1].mean()
    want = (t / s) ** (2 * h)
    assert abs(ratio / want - 1) < 0.1
    # time-t marginal mean equals the trace of the scaled spatial Gram
    from scipy.linalg import toeplitz
    spatial = toeplitz(fbm_spatial_row(fspec.spectrum, spec.grid))
    mean_t = t ** (2 * h) * np.trace(spatial)
    var_t = 2.0 * np.sum((t ** (2 * h) * spatial) ** 2)
    assert abs(v[:, 0].mean() - mean_t) < 4.0 * math.sqrt(var_t / v.shape[0])


def test_fbm_rescaled_quadratic_variations_share_one_law():
    h = 0.7
    fspec = FbmSpec(hurst=h, spectrum=PowerSpectrum.single(3, 1.0),
                    times=(2.0, 1.0))
    spec = _spec(FbmTarget(fspec), n=12, seed=4242, reps=3000)
    a = batch_quadratic_variation(spec, 0, 1500)[:, 0] / 2.0 ** (2 * h)
    b = batch_quadratic_variation(spec, 1500, 1500)[:, 1]  # disjoint reps
    assert stats.ks_2samp(a, b).pvalue > 1e-3


# ======================================================================
# Validation
# ======================================================================

def test_sample_spec_validation():
    grid = LineGrid(4)
    with pytest.raises(TypeError):
        SampleSpec(target="field", grid=grid, seed=1)
    with pytest.raises(ValueError):
        SampleSpec(target=SingleEll(1, 1.0), grid=grid, seed=-1)
    with pytest.raises(ValueError):
        SampleSpec(target=SingleEll(1, 1.0), grid=grid, seed=2 ** 64)
    with pytest.raises(ValueError):
        SampleSpec(target=SingleEll(1, 1.0), grid=grid, seed=1, replications=0)
    with pytest.raises(ValueError):
        SingleEll(0, 1.0)
    with pytest.raises(ValueError):
        SingleEll(2, -1.0)


@pytest.mark.parametrize("c_ell", [float("nan"), float("inf"), -float("inf"), 1.7e308])
def test_single_ell_needs_a_finite_c_ell(c_ell):
    with pytest.raises(ValueError, match="finite"):
        SingleEll(3, c_ell)


def test_sampler_targets_need_a_finite_basis_scale():
    # the basis holds √(2·c_l) for one degree and √(4π·A_l) for the pair
    SingleEll(3, sys.float_info.max / 2)
    with pytest.raises(ValueError):
        SingleEll(3, math.nextafter(sys.float_info.max / 2, math.inf))
    peak = sys.float_info.max / (4.0 * math.pi)
    for sp, ok in ((PowerSpectrum.power_law(peak, 0.2, l_max=8), True),
                   (PowerSpectrum.power_law(2.0 * peak, 0.2, l_max=8), False),
                   (PowerSpectrum.explicit([1.0, 2.0 * peak], l_min=3), False)):
        spec = FbmSpec(hurst=0.3, spectrum=sp, times=(2.0, 1.0))
        if ok:
            FbmTarget(spec)
        else:
            with pytest.raises(ValueError, match="overflow"):
                FbmTarget(spec)


def test_batch_rejects_empty_range():
    spec = _spec(SingleEll(1, 1.0))
    with pytest.raises(ValueError):
        batch_quadratic_variation(spec, 0, 0)
