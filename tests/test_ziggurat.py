"""The vectorized single-degree draw: numpy's ziggurat tables as read from
the installed numpy, the check that guards them, and bitwise agreement with
the per-stream loop it replaces for small degrees."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from sphereqv import simulate
from sphereqv.covariance import LineGrid
from sphereqv.simulate import SampleSpec, SingleEll, batch_quadratic_variation

# PCG64's multiplier and its inverse mod 2¹²⁸
_M = int(simulate._PCG_MULT_HI) << 64 | int(simulate._PCG_MULT_LO)
_MASK = 2 ** 128 - 1
_M_INV = pow(_M, -1, 2 ** 128)
_RABS_MAX = 2 ** 52 - 1
_SEED_EDGES = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
# degrees 1 up to one past the rule's bound, so both draw paths are compared
_DEGREES = range(1, simulate._ZIGGURAT_MAX_DEGREE + 2)


def _step(state, inc):
    return (state * _M + inc) & _MASK


def _back(state, inc):
    """The state one LCG step before ``state``."""
    return (state - inc) * _M_INV & _MASK


_BIT_GENERATOR = np.random.PCG64(0)
_GENERATOR = np.random.Generator(_BIT_GENERATOR)


def _draw_one(state, inc):
    """numpy's standard_normal() from PCG64 (state, inc), set through the
    public ``state`` setter: the value and the outputs it consumed."""
    value = _BIT_GENERATOR.state
    value["state"] = {"state": state, "inc": inc}
    _BIT_GENERATOR.state = value
    x = _GENERATOR.standard_normal()
    end = _BIT_GENERATOR.state["state"]["state"]
    for steps in range(1, 1000):
        state = _step(state, inc)
        if state == end:
            return x, steps
    raise AssertionError("the draw consumed more than 1000 outputs")


KI, WI = simulate._ziggurat_tables()


def test_tables_are_the_installed_numpys():
    # an independent reading through the public ``state`` setter: WI[idx] is
    # the value drawn at rabs = 1, and KI[idx] the first rabs whose draw
    # reads more than one output, by bisection over all of [0, 2⁵²]
    assert KI.dtype == np.uint64 and WI.dtype == np.float64 and KI.shape == WI.shape == (256,)
    inc = 2 ** 127 + 1

    def steps(rabs, idx):
        return _draw_one(_back(rabs << 9 | idx, inc), inc)

    for idx in range(256):
        assert steps(1, idx)[0] == WI[idx]
        lo, hi = -1, 2 ** 52
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if steps(mid, idx)[1] == 1 else (lo, mid)
        assert int(KI[idx]) == hi


@pytest.fixture
def first_use(monkeypatch):
    """Runs the first l ≤ 8 batch of a process whose ``_ziggurat_normals``
    draws with ``ki`` and ``wi`` in place of the tables read from numpy."""
    real = simulate._ziggurat_normals

    def run(ki, wi):
        monkeypatch.setattr(simulate, "_ziggurat_normals",
                            lambda states, z, stream, *tables: real(states, z, stream, ki, wi))
        simulate._ziggurat_tables.cache_clear()
        try:
            return batch_quadratic_variation(_spec(3, 1), 0, 64)
        finally:
            simulate._ziggurat_tables.cache_clear()
            monkeypatch.setattr(simulate, "_ziggurat_normals", real)

    return run


@pytest.mark.parametrize("idx, delta", [(i, d) for i in (0, 1, 2, 128, 255) for d in (1, -1)])
def test_the_table_probe_sees_one_entry_off_by_one(first_use, idx, delta):
    # one entry off by one (KI) or one ulp (WI) fails the first batch wherever
    # it would move a bit. Two faults move none, and pass: a KI one too small
    # only hands the draw at its edge to numpy's own slow path, and WI[1] is
    # never read, as KI[1] = 0 sends every idx-1 draw there
    want = batch_quadratic_variation(_spec(3, 1), 0, 64)
    named = rf"at idx \[(.*, )?{idx}(, .*)?\]"  # a draw at another idx may use the entry too
    if int(KI[idx]) + delta >= 0:  # KI[1] is 0
        ki = KI.copy()
        ki[idx] = int(KI[idx]) + delta
        if delta > 0:
            with pytest.raises(RuntimeError, match=named):
                first_use(ki, WI)
        else:
            assert_array_equal(first_use(ki, WI), want)
    wi = WI.copy()
    wi[idx] = np.nextafter(wi[idx], np.inf if delta > 0 else 0.0)
    if idx == 1:
        assert_array_equal(first_use(KI, wi), want)
    else:
        with pytest.raises(RuntimeError, match=named):
            first_use(KI, wi)


def _spec(ell, seed):
    return SampleSpec(SingleEll(ell, 1.0), LineGrid(16), seed)


def _per_stream(states, k):
    """The per-stream loop: each row of ``states`` written into one stream,
    then k normals drawn."""
    z = np.empty((len(states), k))
    gen, block = simulate._stream()
    for state, row in zip(states[:, simulate._STATE_ORDER], z):
        block[:] = state
        gen.standard_normal(out=row)
    return z


def _vectorized(states, k):
    z = np.empty((len(states), k))
    simulate._ziggurat_normals(states, z, simulate._stream(), KI, WI)
    return z


def _assert_bitwise(got, want):
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", _SEED_EDGES)
@pytest.mark.parametrize("ell", _DEGREES)
def test_vectorized_draw_is_bitwise_the_per_stream_loop(ell, seed):
    # rep starts that straddle 2³², where rep's entropy grows a word; 1025
    # and 255 leave a partial last sub-block at the default and a small one
    spec = _spec(ell, seed)
    for start, count in ((0, 1), (0, 2), (2 ** 32 - 100, 255), (2 ** 32 - 512, 1024),
                         (2 ** 32 - 1, 1025)):
        states = simulate._pcg64_states(simulate._rep_seed_words(spec, start, count))
        _assert_bitwise(_vectorized(states, ell + 1), _per_stream(states, ell + 1))


@pytest.mark.parametrize("ell", _DEGREES)
def test_vectorized_draw_is_bitwise_at_fifty_thousand(ell):
    # twelve full sub-blocks of the default size and a partial one
    spec = _spec(ell, 2 ** 64 - 1)
    states = simulate._pcg64_states(simulate._rep_seed_words(spec, 2 ** 32 - 25_000, 50_000))
    _assert_bitwise(_vectorized(states, ell + 1), _per_stream(states, ell + 1))


def test_sub_blocks_do_not_change_the_draws(monkeypatch):
    spec = _spec(3, 7)
    states = simulate._pcg64_states(simulate._rep_seed_words(spec, 0, 1025))
    want = _per_stream(states, 4)
    for size in (1, 2, 255, 1024):
        monkeypatch.setattr(simulate, "_ZIGGURAT_BLOCK", size)
        _assert_bitwise(_vectorized(states, 4), want)


@pytest.mark.parametrize("ell", _DEGREES)
@pytest.mark.parametrize("count", [1, 1025])
def test_batch_values_do_not_depend_on_the_draw_path(monkeypatch, ell, count):
    # the rule picks the path from l; forcing the loop moves no bit
    spec = _spec(ell, 2 ** 32)
    got = batch_quadratic_variation(spec, 2 ** 32 - 300, count)
    monkeypatch.setattr(simulate, "_ZIGGURAT_MAX_DEGREE", 0)
    _assert_bitwise(got, batch_quadratic_variation(spec, 2 ** 32 - 300, count))


# (idx, rabs, outcome of numpy's slow path): the tail at idx 0, the layer
# whose KI is 0 at idx 1, and a wedge at idx 128. rabs = KI's first value
# off the fast path lies at a layer's inner edge, where the wedge accepts,
# and the largest rabs at its outer edge, where it nearly always rejects
_SLOW_DRAWS = [(0, _RABS_MAX, "accept"), (0, _RABS_MAX, "reject"),
               (1, 0, "accept"), (1, _RABS_MAX, "reject"),
               (128, int(KI[128]), "accept"), (128, _RABS_MAX, "reject")]


def _crafted(idx, rabs, outcome, position, sign):
    """A PCG64 (state, inc) whose draw at ``position`` has output
    (rabs, sign, idx) and whose earlier draws take the fast path, with the
    slow path's ``outcome``: the fewest outputs (the wedge reads one more,
    the tail two more) when it accepts, more when it rejects."""
    r = rabs << 9 | sign << 8 | idx
    fewest = 3 if idx == 0 else 2
    for t in range(1, 100_000):
        inc = 2 * t + 1
        state = _back(r, inc)
        _, steps = _draw_one(state, inc)
        if (steps == fewest) != (outcome == "accept"):
            continue
        for _ in range(position):
            state = _back(state, inc)
        start, fast = state, True
        for _ in range(position):
            fast &= _draw_one(state, inc)[1] == 1
            state = _step(state, inc)
        if fast:
            return start, inc
    raise AssertionError("no increment gives the outcome")


@pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("idx, rabs, outcome", _SLOW_DRAWS,
                         ids=[f"{i}-{o}" for i, _, o in _SLOW_DRAWS])
def test_a_rejected_draw_is_finished_by_its_stream(idx, rabs, outcome, position):
    # a crafted replication leaves the fast path at one position of its five
    # draws; its neighbours are seeded replications
    spec = _spec(4, 11)
    states = simulate._pcg64_states(simulate._rep_seed_words(spec, 0, 9))
    for row, sign in ((3, 0), (7, 1)):
        state, inc = _crafted(idx, rabs, outcome, position, sign)
        states[row] = [w >> s & (2 ** 64 - 1) for w in (state, inc) for s in (0, 64)]
    want = _per_stream(states, 5)
    if outcome == "accept":  # the wedge returns ±rabs·WI[idx], the tail a value past r ≈ 3.654
        got = want[[3, 7], position]
        assert list(got) == [rabs * WI[idx], -rabs * WI[idx]] if idx else min(abs(got)) > 3.65
    _assert_bitwise(_vectorized(states, 5), want)


def test_importing_the_cli_harness_and_sampler_derives_no_table():
    # in a fresh interpreter, as this one has read the tables; the first
    # l ≤ 8 batch reads them, so the count can move
    code = ("import sphereqv.cli, sphereqv.harness, sphereqv.simulate as s\n"
            "from sphereqv.covariance import LineGrid\n"
            "print(s._ziggurat_tables.cache_info().misses)\n"
            "s.batch_quadratic_variation(s.SampleSpec(s.SingleEll(3, 1.0), LineGrid(16), 1), 0, 1)\n"
            "print(s._ziggurat_tables.cache_info().misses)\n")
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "1"]


def test_a_million_replication_batch_peaks_within_2_mb_of_the_loops(monkeypatch):
    # the vectorized draw works in fixed sub-blocks, so its temporaries do
    # not grow with the batch (in one block of all 10⁶ it peaked 80 MB
    # higher). The bound is a draw that allocates nothing, which no path,
    # the per-stream loop included, can peak below; measuring the loop
    # itself under tracemalloc took 7 s on a 2-vCPU VM
    spec = SampleSpec(SingleEll(3, 1.0), LineGrid(16), 5, 10 ** 6)
    batch_quadratic_variation(spec, 0, 1024)  # tables and basis built first

    def peak():
        tracemalloc.start()
        try:
            batch_quadratic_variation(spec, 0, 10 ** 6)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    vectorized = peak()
    monkeypatch.setattr(simulate, "_ziggurat_normals", lambda states, z, *args: z.fill(0.0))
    assert vectorized <= peak() + 2 * 2 ** 20
