"""Exact Gaussian sampling of meridian paths and their quadratic variations.

Sampling happens in coefficient space: a degree-l isotropic field restricted
to the meridian is √C_l · [z₀ λ_{l0}(θ) + √2 Σ_m z_m λ_{lm}(θ)] with i.i.d.
standard normal z, which reproduces the exact covariance
C_l (2l+1)/(4π) P_l(cos|θ−θ'|) through the addition theorem. No matrix
factorization is involved, so the (rank-deficient) grid covariance never
has to be decomposed. Truncated full fields sum independent degrees;
the two-time fractional pair (``FbmTarget``: Hurst exponent, spatial
spectrum, two times) couples each coefficient channel through the 2×2
time covariance. Each target's ``kernel`` is the spectrum and the factor f
per time of its kernel f·Σ C_l (2l+1) P_l, read wherever a time count is.
All three draw through one body, ``_paths_batch``, in the layout below,
which ``batch_quadratic_variation`` drives. The basis is this module's
alone: its scaling, its per-cell cache (``_meridian_basis``) and its
memory estimate (``_batch_arrays``).

Range: a target's top degree (a ``SingleEll``'s l, a spectrum's l_max) is
at most ``specfun._SWEEP_MAX_DEGREE`` = 1900, the last at which the
harmonic sweep is exact; each target refuses a larger one when built.

Determinism contract: every replication owns one random stream,
default_rng of SeedSequence([seed, rep, l]) for single-degree targets and
of SeedSequence([seed, rep]) for multi-degree targets (full field,
fractional pair), whose draws follow a fixed degree-ascending layout.
``rep_seed_sequence`` is that definition. The batch sampler builds no
SeedSequence and no per-replication PCG64: it derives a whole batch's PCG64
seed words by one vectorized pass of numpy's SeedSequence hash, turns them
into each replication's seeded 128-bit (state, inc) by one vectorized pass
of PCG64's seeding step, and draws every replication through one reusable
Generator per drawing thread by writing that state into its PCG64. A
single-degree batch at degree ≤ 8 instead runs numpy's ziggurat across
all its replications with array operations
(``_ziggurat_normals``) and hands each draw that leaves its fast path back
to that Generator. So its streams are bitwise those of
default_rng(rep_seed_sequence(spec, rep)), whichever path draws them, and
the coefficients of a replication are a pure function of (spec, rep).
Evaluated paths are bitwise reproducible for a fixed batch partition
(different partitions can move the last ulp through BLAS reduction order),
which is why consumers that promise byte-identical output pin their batch
boundaries and let only the scheduling vary. The same holds only for one
numpy/BLAS build at one BLAS thread count, which can also split a product.

Streams: a batch builds one PCG64 and Generator per drawing thread (the
batch thread's, and the draw helper's for a multi-degree target) and
writes each replication's state into it through a view of its 32-byte
state block (``_stream``). A multi-degree replication's stream advances
chunk by chunk, so its state is read back after each chunk's draw. Where
numpy keeps the block's four words is probed once per process, through
the public ``state`` setter (``_STATE_ORDER``); an import that finds
another layout raises. The vectorized draw steps the LCG itself and
writes a replication into the block only to finish a rejected draw, from
the state before that draw; its tables are read from the installed numpy
through the same block, and checked, by the first batch that takes it.

Only ``sphereqv simulate`` and ``experiment`` load this module (with
``numpy.random`` and ``concurrent.futures``); ``moments``, ``estimate`` and
``specfun-check`` run without it.

Threads: a multi-degree batch draws each degree chunk's normals on two
threads while the chunk's harmonic sweep runs, the batch's own and one
draw helper that every batch of the process shares; a batch that finds the
helper busy with another batch draws everything itself. The harness runs
its batches one after another on the calling thread, so batches overlap
only when a caller of ``batch_quadratic_variation`` runs them concurrently;
the helper's busy rule, each batch's own streams and the basis cache's lock
keep that safe. Which thread draws a replication never changes its values
(see ``_paths_batch``).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .covariance import LineGrid, PowerSpectrum, rh_cross
from .specfun import _check_sweep_degree, _meridian_blocks, harmonic_meridian_table

__all__ = [
    "SingleEll",
    "FullField",
    "FbmTarget",
    "SampleSpec",
    "rep_seed_sequence",
    "rep_stream_id",
    "batch_quadratic_variation",
]

# degree-chunk size (in stacked coefficient rows) for full-field work;
# bounds the basis block at ~16k rows × (N+1) points
_CHUNK_ROWS = 16384

# the one thread that draws a degree chunk's normals while the batch thread
# runs the chunk's harmonic sweep, shared by every batch of the process; the
# executor starts it on the first submit and keeps it, as threads that start
# and exit make the C allocator open fresh per-thread arenas
_DRAW_HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sphereqv-draw")

# held while a batch looks up or builds its cell's single-degree basis, so
# concurrent batches of one cell build it once (see ``_meridian_basis``)
_BASIS_LOCK = threading.Lock()


# ======================================================================
# Targets and sample specification
# ======================================================================

@dataclass(frozen=True)
class SingleEll:
    """Sample the degree-l component alone."""

    ell: int
    c_ell: float

    def __post_init__(self):
        if int(self.ell) != self.ell or self.ell < 1:
            raise ValueError("degree must be an integer ≥ 1")
        _check_sweep_degree(self.ell)
        # the sampler's basis holds √(2·c_ell), so 2·c_ell must be finite
        if not 0 <= 2.0 * self.c_ell < math.inf:
            raise ValueError("c_ell must be non-negative with 2·c_ell finite, "
                             f"got {self.c_ell!r}")
        object.__setattr__(self, "ell", int(self.ell))

    @property
    def kernel(self):
        """(spectrum, factors) of its kernel f·Σ C_l (2l+1) P_l: one degree, f = 1/(4π)."""
        return PowerSpectrum.single(self.ell, self.c_ell), (1.0 / (4.0 * math.pi),)


@dataclass(frozen=True)
class FullField:
    """Sample the truncated full field with the given spectrum."""

    spectrum: PowerSpectrum

    def __post_init__(self):
        _check_sweep_degree(self.spectrum.l_max)

    @property
    def kernel(self):
        """(spectrum, factors) of its kernel f·Σ C_l (2l+1) P_l, with f = 1/(4π)."""
        return self.spectrum, (1.0 / (4.0 * math.pi),)


@dataclass(frozen=True)
class FbmTarget:
    """Sample the sphere-valued fractional Brownian pair (B_t, B_s).

    ``spectrum`` carries the spatial coefficients A_l; the spatial kernel is
    Σ A_l (2l+1) P_l(cos d) with no 1/(4π), which differs from the fixed-time
    field convention by exactly that factor. ``times`` = (t, s), distinct
    positives; ``hurst`` in (0, 1) scales variances as t^{2H}.
    """

    hurst: float
    spectrum: PowerSpectrum
    times: tuple

    def __post_init__(self):
        _check_sweep_degree(self.spectrum.l_max)
        if not (0.0 < self.hurst < 1.0):
            raise ValueError("hurst must lie in (0, 1)")
        t, s = self.times
        if not (0 < t < math.inf and 0 < s < math.inf) or t == s:
            raise ValueError("times must be distinct finite positives")
        try:
            object.__setattr__(self, "times", (float(t), float(s)))
            self.kernel  # raises where a time's t^(2H) overflows
        except OverflowError:
            raise ValueError("times^(2·hurst) overflows a float") from None
        # the sampler's basis holds √(4π·A_l); a power law peaks at A_1 = c0
        sp = self.spectrum
        peak = max(sp.values) if sp.kind == "explicit" else sp.c0
        if not 4.0 * math.pi * peak < math.inf:
            raise ValueError(f"spectrum peak {peak!r} makes 4π·A_l overflow a float")

    @property
    def kernel(self):
        """(spectrum, factors) of its kernel f·Σ A_l (2l+1) P_l, f = t^(2H) per
        time: no other line of the package but ``covariance.rh_cross`` forms one."""
        return self.spectrum, tuple(t ** (2.0 * self.hurst) for t in self.times)


@dataclass(frozen=True)
class SampleSpec:
    """What to sample, where, and under which deterministic seed."""

    target: object
    grid: LineGrid
    seed: int
    replications: int = 1

    def __post_init__(self):
        if not isinstance(self.target, (SingleEll, FullField, FbmTarget)):
            raise TypeError("target must be SingleEll, FullField or FbmTarget")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if int(self.replications) != self.replications or self.replications < 1:
            raise ValueError("replications must be a positive integer")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "replications", int(self.replications))


def _rep_entropy(spec, rep):
    """A replication's stream entropy: [seed, rep], plus l for a single degree."""
    if int(rep) != rep or rep < 0:  # the contract defines no stream for these
        raise ValueError(f"rep must be a non-negative integer, got {rep!r}")
    entropy = [spec.seed, int(rep)]
    if isinstance(spec.target, SingleEll):
        entropy.append(spec.target.ell)
    return entropy


def rep_seed_sequence(spec, rep):
    """The per-replication seed sequence defined by the determinism contract."""
    return np.random.SeedSequence(_rep_entropy(spec, rep))


def rep_stream_id(spec, rep):
    """Human-readable identifier of a replication's stream."""
    return ":".join(map(str, _rep_entropy(spec, rep)))


# numpy's SeedSequence hash (O'Neill's seed_seq_fe over a pool of four
# uint32 words): hashmix constants, mix multipliers, output constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_POOL = 4


def _u32_words(n):
    """A non-negative int as numpy's entropy words: little-endian uint32, 0 → [0]."""
    return [n >> s & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)]


def _seed_words(entropy):
    """SeedSequence(entropy).generate_state(4, np.uint64) for a batch at once.

    ``entropy`` is a list of uint32 word arrays of one length B, in numpy's
    word order; returns the (B, 4) uint64 seed words, bitwise numpy's.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = np.empty((zero.size, 8), "<u4")
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        value = value * hash_const
        state[:, i] = value ^ (value >> 16)
    return state.view("<u8").astype(np.uint64)


def _rep_seed_words(spec, rep_start, rep_count):
    """Each replication's PCG64 seed words, shape (rep_count, 4) uint64.

    Row i equals rep_seed_sequence(spec, rep_start + i).generate_state(4,
    np.uint64). Within a run of reps between multiples of 2³² only the low
    word of rep changes, so each run is hashed as one batch.
    """
    out = []
    rep, stop = int(rep_start), int(rep_start) + int(rep_count)
    while rep < stop:
        end = min(stop, ((rep >> 32) + 1) << 32)
        low = (rep & 0xFFFFFFFF) + np.arange(end - rep, dtype=np.uint32)
        entropy = []
        for i, value in enumerate(_rep_entropy(spec, rep)):
            words = [np.full(low.size, w, np.uint32) for w in _u32_words(value)]
            if i == 1:
                words[0] = low
            entropy += words
        out.append(_seed_words(entropy))
        rep = end
    return np.concatenate(out)


# PCG64's 128-bit LCG multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128),
# as its low and high 64-bit words
_PCG_MULT_LO, _PCG_MULT_HI = np.uint64(0x4385DF649FCCF645), np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_INV = pow(int(_PCG_MULT_HI) << 64 | int(_PCG_MULT_LO), -1, 2 ** 128)  # mod 2¹²⁸
_LOW32 = np.uint64(0xFFFFFFFF)


def _mul_hi(a, b):
    """High 64 bits of each 128-bit product a·b of uint64 arrays, by 32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    cross0, cross1 = a1 * b0, a0 * b1
    mid = (a0 * b0 >> 32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)


def _pcg64_states(words):
    """Each replication's seeded PCG64 state from its seed words.

    ``words`` is ``_rep_seed_words``' (B, 4) uint64; returns (B, 4) uint64
    rows (state_lo, state_hi, inc_lo, inc_hi), bitwise what numpy's
    pcg64_srandom_r makes of initstate = w0·2⁶⁴ + w1 and initseq =
    w2·2⁶⁴ + w3: inc = (initseq << 1) | 1, state = ((initstate + inc)·M + inc)
    mod 2¹²⁸. The uint64 arithmetic wraps mod 2⁶⁴, and every comparison
    below is a carry out of a low-word sum.
    """
    w0, w1, w2, w3 = words.T
    inc_lo = w3 << 1 | 1
    inc_hi = w2 << 1 | w3 >> 63
    s_lo = w1 + inc_lo
    s_hi = w0 + inc_hi + (s_lo < w1)
    return np.stack([*_pcg64_step(s_lo, s_hi, inc_lo, inc_hi), inc_lo, inc_hi], axis=1)


def _pcg64_step(lo, hi, inc_lo, inc_hi):
    """One step state·M + inc mod 2¹²⁸ of PCG64's LCG, on uint64 word arrays:
    the new (state_lo, state_hi)."""
    prod_lo = lo * _PCG_MULT_LO
    prod_hi = _mul_hi(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    new_lo = prod_lo + inc_lo
    return new_lo, prod_hi + inc_hi + (new_lo < prod_lo)


def _state_view(bit_generator):
    """A writable uint64 view of a PCG64's 32-byte (state, inc) block.

    The first field of the struct at ``ctypes.state_address`` (numpy's
    pcg64_state) points at the block. The view holds the bit generator, so
    the block lives as long as the view.
    """
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    block = (ctypes.c_uint64 * 4).from_address(address)
    block.owner = bit_generator
    return np.frombuffer(block, np.uint64)


def _state_word_order():
    """The column order that puts ``_pcg64_states``' rows in the block's
    memory order: four distinct words written through the public ``state``
    setter, then found in the block."""
    probe = [0x0123456789ABCDEF, 0x1032547698BADCFE, 0x2301674589EFCDAB, 0x3210765498FEDCBB]
    bit_generator = np.random.PCG64(0)
    value = bit_generator.state
    value["state"] = {"state": probe[0] | probe[1] << 64, "inc": probe[2] | probe[3] << 64}
    bit_generator.state = value
    block = _state_view(bit_generator).tolist()
    if sorted(block) != probe:
        raise RuntimeError("PCG64's state block does not hold (state, inc) as four "
                           f"uint64 words: wrote {probe}, found {block}")
    return [probe.index(w) for w in block]


# probed once per process: numpy lays the 128-bit words out per platform
_STATE_ORDER = _state_word_order()


def _stream():
    """A drawing thread's Generator and the view of its PCG64's state block.

    Writing a row of ``_pcg64_states`` (in ``_STATE_ORDER``) into the view
    makes the Generator draw that replication's stream: ``standard_normal``
    consumes whole 64-bit words only, so its PCG64 keeps no buffered
    half-word and (state, inc) is the whole of its state.
    """
    bit_generator = np.random.PCG64(0)
    return np.random.Generator(bit_generator), _state_view(bit_generator)


# replications per sub-block of ``_ziggurat_normals``, which bounds its
# uint64 temporaries whatever the batch size
_ZIGGURAT_BLOCK = 4096
# a single-degree batch draws through ``_ziggurat_normals`` up to this
# degree; beyond it the per-stream loop is faster (work per normal drawn)
_ZIGGURAT_MAX_DEGREE = 8
_RABS_MASK = np.uint64(2 ** 52 - 1)


def _ziggurat_normals(states, z, stream, ki, wi):
    """Fill z (B, k) with each replication's first k standard normals,
    bitwise the rows ``stream`` draws after each row of ``states`` (in
    ``_pcg64_states``' word order) is written into it.

    Numpy's ziggurat, run across replications: k steps advance every
    replication's 128-bit LCG, and each position's PCG64 XSL-RR output r
    gives ±rabs·WI[idx] with idx = r & 0xFF, the sign from bit 8 and rabs
    the 52 bits above it, accepted iff rabs < KI[idx] (``ki`` and ``wi``,
    from :func:`_ziggurat_tables`). 1.5% of draws fail that test (the
    mean of 1 − KI/2⁵²), so at l = 3 about 6% of replications do; such a
    replication's row is finished from its first rejected position by
    ``stream`` itself, from its state before that draw, so numpy runs the
    wedge and the tail and no table beyond KI and WI is needed.
    """
    gen, block = stream
    k = z.shape[1]
    for start in range(0, len(states), _ZIGGURAT_BLOCK):
        lo, hi, inc_lo, inc_hi = states[start:start + _ZIGGURAT_BLOCK].T
        los, his = [lo], [hi]
        for _ in range(k):
            lo, hi = _pcg64_step(lo, hi, inc_lo, inc_hi)
            los.append(lo)
            his.append(hi)
        # (n, k + 1): column j is the state before draw j, column j+1 after it
        los, his = np.stack(los, axis=1), np.stack(his, axis=1)
        word, rot = his[:, 1:] ^ los[:, 1:], his[:, 1:] >> 58
        r = word >> rot | word << (-rot & 63)
        idx, rabs = r.view(np.int64) & 0xFF, r >> 9 & _RABS_MASK
        fast = rabs < ki.take(idx)
        x = z[start:start + lo.size]
        np.multiply(rabs, wi.take(idx), out=x)
        x.view(np.uint64)[...] ^= r >> 8 << 63  # negative iff bit 8
        bad = np.flatnonzero(~fast.all(axis=1))
        first = fast[bad].argmin(axis=1)
        rows = np.stack([los[bad, first], his[bad, first], inc_lo[bad], inc_hi[bad]], axis=1)
        for i, j, row in zip(bad, first, rows[:, _STATE_ORDER]):
            block[:] = row
            gen.standard_normal(out=x[i, j:])


@functools.cache
def _ziggurat_tables():
    """The installed numpy's ziggurat tables (KI, WI), read from its
    ``standard_normal`` at crafted outputs r = rabs·2⁹ + idx by the first
    batch that draws through :func:`_ziggurat_normals`, never at import.

    WI[idx] is the value drawn at rabs = 1; KI[idx] is the least rabs whose
    draw reads more than r, bracketed from the guess 2⁵²·WI[idx−1]/WI[idx]
    (2⁵¹ at idx 0 and 1) and bisected, in about 920 draws (the guess cannot
    change KI). Then replications crafted at rabs = 1 (exactly ±WI), KI − 1
    and KI, either sign, must draw two normals each through
    ``_ziggurat_normals`` bitwise as numpy does, or RuntimeError is raised:
    a fault in the tables fails loudly instead of changing bytes.
    """
    gen, block = _stream()

    def crafted(r):
        # a row of _pcg64_states with increment 1 (any odd one would do) whose
        # state steps to r < 2⁶⁴, which XSL-RR outputs as is (zero high word)
        state = (r - 1) * _PCG_MULT_INV % 2 ** 128
        return [state & 2 ** 64 - 1, state >> 64, 1, 0]

    def draw(r):
        # the value drawn from output r, and whether it read r alone
        row = crafted(r)
        block[:] = [row[c] for c in _STATE_ORDER]
        x = gen.standard_normal()
        row[:2] = r, 0
        return x, block.tolist() == [row[c] for c in _STATE_ORDER]

    wi = np.array([draw(1 << 9 | idx)[0] for idx in range(256)])
    ki = np.empty(256, np.uint64)
    for idx in range(256):
        # rabs −1 and 2⁵², outside the draw's range, end the brackets
        fast = functools.cache(lambda x: x < 0 or x < 2 ** 52 and draw(x << 9 | idx)[1])
        lo = hi = 2 ** 51 if idx < 2 else int(2 ** 52 * wi[idx - 1] / wi[idx])
        step = 1
        while fast(hi):
            lo, hi, step = hi, min(hi + step, 2 ** 52), 2 * step
        while not fast(lo):
            hi, lo, step = lo, max(lo - step, -1), 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fast(mid) else (lo, mid)
        ki[idx] = hi
    outputs = [rabs << 9 | sign << 8 | idx for idx, k in enumerate(ki.tolist())
               for rabs in (1, k - 1, k) if 0 <= rabs < 2 ** 52 for sign in (0, 1)]
    states = np.array([crafted(r) for r in outputs], np.uint64)
    got, want = np.empty((len(states), 2)), np.empty((len(states), 2))
    _ziggurat_normals(states, got, (gen, block), ki, wi)
    for state, row in zip(states[:, _STATE_ORDER], want):
        block[:] = state
        gen.standard_normal(out=row)
    same = got.view(np.uint64) == want.view(np.uint64)
    bad = {outputs[i] & 0xFF for i in np.flatnonzero(~same.all(axis=1))}
    if bad:
        raise RuntimeError(f"numpy {np.__version__}'s standard_normal departs from the ziggurat"
                           f" tables read from it at idx {sorted(bad)}")
    ki.flags.writeable = wi.flags.writeable = False  # shared by every batch
    return ki, wi


# ======================================================================
# Shared machinery
# ======================================================================

def _degree_chunks(l_min, l_max):
    """Partition degrees [l_min, l_max] so Σ(l+1) per chunk ≤ _CHUNK_ROWS;
    every degree the sweep accepts (``specfun._SWEEP_MAX_DEGREE``) fits in one."""
    chunks = []
    lo = l_min
    rows = 0
    for l in range(l_min, l_max + 1):
        if rows + l + 1 > _CHUNK_ROWS:
            chunks.append((lo, l))
            lo, rows = l, 0
        rows += l + 1
    chunks.append((lo, l_max + 1))
    return chunks


def _chunk_rows(lo, hi):
    """Coefficient rows Σ(l+1) of the degree chunk [lo, hi)."""
    return (hi - lo) * (hi + lo + 1) // 2


@functools.lru_cache(maxsize=1)
def _meridian_basis(ell, c_ell, grid):
    """Scaled harmonic table B of the degree-l field, shape (l+1, N+1).

    Row m is w_m λ_{lm}(θ_i) over the grid points, with w_0 = √c_l and
    w_m = √(2 c_l) for m ≥ 1, the scaling :func:`_scaled_chunks` gives each
    degree of a multi-degree target. The field at the grid is zᵀB for
    i.i.d. standard normal z, and its increments are zᵀF with F the column
    difference of B; the addition theorem gives FᵀF = the increment Gram.

    One entry, looked up under ``_BASIS_LOCK``: a batch that asks while
    another batch builds the same (l, c_l, grid) waits for that build, so
    the batches of one cell share one table however many threads run them.
    The next key replaces it, so no table outlives its cell. The shared
    array is read-only.
    """
    lam = harmonic_meridian_table(ell, grid.points)
    w = np.full(ell + 1, math.sqrt(2.0 * c_ell))
    w[0] = math.sqrt(c_ell)
    basis = w[:, None] * lam
    basis.flags.writeable = False
    return basis


def _scaled_chunks(spectrum, theta, factor):
    """Scaled harmonic basis of each degree chunk, from one recurrence sweep.

    Yields one (Σ(l+1) × len(theta)) array per chunk of
    :func:`_degree_chunks`, degree blocks in ascending l. Every row of
    degree l is multiplied by √(factor·C_l); orders m ≥ 1 carry an extra √2
    (the two azimuthal channels collapse to one on the meridian). Row layout
    matches the coefficient draw order. The sweep keeps its state across
    chunk boundaries, so each degree is evaluated once per call and written
    scaled straight into its chunk. Every chunk is a leading slice of one
    buffer sized for the largest chunk, so a yielded chunk is overwritten
    by the next.
    """
    chunks = _degree_chunks(spectrum.l_min, spectrum.l_max)
    sizes = [_chunk_rows(lo, hi) for lo, hi in chunks]
    buf = np.empty((max(sizes), theta.size))
    blocks = itertools.islice(_meridian_blocks(spectrum.l_max, theta),
                              spectrum.l_min, None)
    for (lo, hi), size in zip(chunks, sizes):
        basis = buf[:size]
        pos = 0
        for l, lam in zip(range(lo, hi), blocks):
            s = math.sqrt(factor * spectrum.cl(l))
            np.multiply(lam[0], s, out=basis[pos])
            np.multiply(lam[1:], s * math.sqrt(2.0), out=basis[pos + 1:pos + l + 1])
            pos += l + 1
        yield basis


def _paths_batch(target, grid, states):
    """Meridian paths of a batch of B replications, shape (times, B, N+1).

    ``states`` holds each replication's seeded PCG64 state, the (B, 4) rows
    of :func:`_pcg64_states`. Each drawing thread has one ``_stream``: it
    writes a replication's row into that stream's state block and draws, so
    no PCG64 or Generator is built per replication, and the bits are those
    of a PCG64 seeded to the row.

    A single degree (times = 1) draws only its l+1 cosine-channel normals
    per replication, straight into that replication's row of the
    coefficient matrix: the l sine channels multiply sin(mφ) = 0 on the
    meridian, and as they come last in the stream's 2l+1 draws, which the
    ziggurat consumes in order with no buffered state, the l+1 drawn are
    bitwise the leading l+1 of a full draw. It reads each stream once. A
    degree ≤ ``_ZIGGURAT_MAX_DEGREE`` draws every row at once through
    :func:`_ziggurat_normals`, a larger one one stream at a time; the bits
    are the same.

    A full field (times = 1) draws l+1 normals per degree, l_min..l_max
    ascending; the draw layout is part of the determinism contract. The
    fractional pair (times = 2) draws two normals per
    coefficient channel (l, m) and maps them through the lower Cholesky
    factor of [[t^{2H}, r], [r, s^{2H}]] with r = ½(t^{2H}+s^{2H}−|t−s|^{2H}),
    the channel's exact joint law at the two times. Its spatial convention
    Σ A_l (2l+1) P_l (no 1/(4π)) makes the per-degree scale √(4π A_l)
    against the normalized harmonics. Each replication's stream advances
    chunk by chunk: the thread that draws it writes its state, draws the
    chunk's normals and reads the advanced state back into its row of a
    batch-local copy of ``states``.

    The multi-degree draws go through buffers allocated once per batch and
    sized for the largest degree chunk: each replication's times·rows
    normals of a chunk land in a reused scratch vector (for a full field,
    straight in its row of the coefficient matrix), and the pair writes
    l00·z0 and l10·z0 + l11·z1 into two B × rows matrices, each a contiguous
    leading slice of its buffer, with every value rounded as by the
    whole-array expressions.

    Two threads fill a chunk's coefficients while one advances its sweep.
    The draws do not depend on the basis, so each chunk hands the module's
    draw helper a task that pulls replication indices from a source it
    shares with the batch thread; the batch thread runs the chunk's harmonic
    sweep, then pulls the indices left, each thread drawing through its own
    stream into its own scratch vector. Before the gemms the batch thread
    waits for the helper, or cancels its task if another batch still holds
    the helper, and has then drawn every replication itself. Bits cannot
    move: each replication is drawn by exactly one thread, with the same
    operations; its stream advances chunk by chunk in ascending order, as
    no chunk starts before the last one's draws are done; and the gemms are
    unchanged.
    """
    b = len(states)
    if isinstance(target, SingleEll):
        ell = target.ell
        z = np.empty((b, ell + 1))
        stream = _stream()
        if ell <= _ZIGGURAT_MAX_DEGREE:
            _ziggurat_normals(states, z, stream, *_ziggurat_tables())
        else:
            gen, block = stream
            for state, row in zip(states[:, _STATE_ORDER], z):
                block[:] = state
                gen.standard_normal(out=row)
        with _BASIS_LOCK:
            basis = _meridian_basis(ell, target.c_ell, grid)
        return (z @ basis)[None]
    states = states[:, _STATE_ORDER]  # a copy, in the state block's word order
    spectrum, factors = target.kernel
    factor, times = 1.0, len(factors)
    if times == 2:
        t, s = target.times
        l00 = t ** target.hurst
        l10 = rh_cross(target.hurst, t, s) / l00
        l11 = math.sqrt(max(factors[1] - l10 * l10, 0.0))
        factor = 4.0 * math.pi

    def fill(pending, z, zi, stream):
        # draw (and couple) every replication left in ``pending`` into z
        gen, block = stream
        for i in pending:
            block[:] = states[i]
            if times == 1:
                gen.standard_normal(out=z[0][i])
            else:
                gen.standard_normal(out=zi)
                np.multiply(l11, zi[1::2], out=z[1][i])
                np.multiply(l10, zi[0::2], out=z[0][i])
                z[1][i] += z[0][i]  # l10·z0 + l11·z1, rounded as one expression
                np.multiply(l00, zi[0::2], out=z[0][i])
            states[i] = block

    chunks = _degree_chunks(spectrum.l_min, spectrum.l_max)
    rows_max = max(_chunk_rows(lo, hi) for lo, hi in chunks)
    coef = [np.empty(b * rows_max) for _ in range(times)]
    draws = [np.empty(2 * rows_max) for _ in range(2)] if times == 2 else None
    out = np.zeros((times, b, grid.n + 1))
    sweep = _scaled_chunks(spectrum, grid.points, factor)
    helper_stream, own_stream = _stream(), _stream()
    for lo, hi in chunks:
        rows = _chunk_rows(lo, hi)
        z = [c[:b * rows].reshape(b, rows) for c in coef]
        zi = [d[:2 * rows] for d in draws] if draws else [None, None]
        # next() on a range iterator runs in C under the GIL, so the two
        # threads pulling from it each take a replication the other never sees
        pending = iter(range(b))
        task = _DRAW_HELPER.submit(fill, pending, z, zi[0], helper_stream)
        try:
            basis = next(sweep)
            fill(pending, z, zi[1], own_stream)
        finally:
            if not task.cancel():
                task.result()
        for k in range(times):
            out[k] += z[k] @ basis
    return out


def _batch_arrays(target, n, batch):
    """(bytes, name) of the large arrays :func:`_paths_batch` allocates for
    ``batch`` replications of ``target`` on an N-increment grid.

    The paths are (times, B, N+1). The basis, the largest degree chunk of
    the kernel's spectrum (one degree's (l+1)×(N+1) table, or at most
    _CHUNK_ROWS rows; a closed form, O(1) at any l_max), sits beside its
    times·B·rows coefficient buffers and, for a fractional pair, the two
    2·rows draw vectors of the batch thread and the draw helper.
    """
    sp, factors = target.kernel
    times = len(factors)
    rows = min(_CHUNK_ROWS, _chunk_rows(sp.l_min, sp.l_max + 1))
    draws = 4 if times == 2 else 0
    return [(8 * times * batch * (n + 1), "batch paths"),
            (8 * rows * (n + 1 + times * batch + draws), "sampler basis and coefficients")]


# ======================================================================
# Quadratic variation
# ======================================================================

def batch_quadratic_variation(spec, rep_start, rep_count):
    """Quadratic variations for replications rep_start..rep_start+rep_count−1.

    Returns shape (rep_count,) for single-degree and full-field targets and
    (rep_count, 2) with columns (V at t, V at s) for fractional pairs.
    The random draws depend only on (spec, rep); re-running the same batch
    reproduces values bitwise, and different batch splits agree to
    floating-point reduction order.
    """
    if not (int(rep_start) == rep_start >= 0 and int(rep_count) == rep_count >= 1):
        raise ValueError("rep_start must be an integer ≥ 0 and rep_count one ≥ 1,"
                         f" got {rep_start!r} and {rep_count!r}")
    states = _pcg64_states(_rep_seed_words(spec, rep_start, rep_count))
    paths = _paths_batch(spec.target, spec.grid, states)
    v = [np.einsum("ij,ij->i", d, d) for d in np.diff(paths, axis=2)]
    return v[0] if len(v) == 1 else np.stack(v, axis=1)
