"""Exact Gaussian sampling of meridian paths and their quadratic variations.

Sampling happens in coefficient space: a degree-l isotropic field restricted
to the meridian is √C_l · [z₀ λ_{l0}(θ) + √2 Σ_m z_m λ_{lm}(θ)] with i.i.d.
standard normal z, which reproduces the exact covariance
C_l (2l+1)/(4π) P_l(cos|θ−θ'|) through the addition theorem. No matrix
factorization is involved, so the (rank-deficient) grid covariance never
has to be decomposed. Truncated full fields sum independent degrees;
the two-time fractional pair couples each coefficient channel through the
2×2 time covariance. All three draw through one body, ``_paths_batch``
(the single-path samplers run it on one stream), in the layout below.

Determinism contract: every replication owns one random stream,
default_rng of SeedSequence([seed, rep, l]) for single-degree targets and
of SeedSequence([seed, rep]) for multi-degree targets (full field,
fractional pair), whose draws follow a fixed degree-ascending layout.
``rep_seed_sequence`` is that definition. The batch sampler builds no
SeedSequence: it derives the identical PCG64 seed words for a whole batch
by one vectorized pass of numpy's SeedSequence hash, so its streams are
bitwise those of default_rng(rep_seed_sequence(spec, rep)). The coefficients
of a replication are therefore a pure function of (spec, rep). Evaluated
paths are bitwise reproducible for a fixed batch partition (different
partitions can move the last ulp through BLAS reduction order), which is
why consumers that promise byte-identical output pin their batch
boundaries and let only the scheduling vary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import FbmSpec, LineGrid, PowerSpectrum, meridian_basis_fl, rh_cross
from .specfun import _meridian_blocks

__all__ = [
    "SingleEll",
    "FullField",
    "FbmTarget",
    "SampleSpec",
    "PathSample",
    "rep_seed_sequence",
    "rep_stream_id",
    "sample_fl_line",
    "sample_f_line",
    "sample_fbm_pair",
    "quadratic_variation",
    "batch_quadratic_variation",
]

# degree-chunk size (in stacked coefficient rows) for full-field work;
# bounds the basis block at ~16k rows × (N+1) points
_CHUNK_ROWS = 16384


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
        if not 0 <= self.c_ell < math.inf:
            raise ValueError("c_ell must be finite and non-negative")
        object.__setattr__(self, "ell", int(self.ell))


@dataclass(frozen=True)
class FullField:
    """Sample the truncated full field with the given spectrum."""

    spectrum: PowerSpectrum


@dataclass(frozen=True)
class FbmTarget:
    """Sample the fractional pair (B_t, B_s) described by an FbmSpec."""

    spec: FbmSpec

    def __post_init__(self):
        if not isinstance(self.spec, FbmSpec):
            raise TypeError("spec must be an FbmSpec")


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


@dataclass(frozen=True)
class PathSample:
    """Field values at the N+1 grid points."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("a path needs at least two grid values")
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size


def _rep_entropy(spec, rep):
    """A replication's stream entropy: [seed, rep], plus l for a single degree."""
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


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 its precomputed state words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and np.dtype(dtype) == np.uint64
        return self.words


# ======================================================================
# Shared machinery
# ======================================================================

def _degree_chunks(l_min, l_max):
    """Partition degrees [l_min, l_max] so Σ(l+1) per chunk ≤ _CHUNK_ROWS."""
    chunks = []
    lo = l_min
    rows = 0
    for l in range(l_min, l_max + 1):
        if rows and rows + l + 1 > _CHUNK_ROWS:
            chunks.append((lo, l))
            lo, rows = l, 0
        rows += l + 1
    chunks.append((lo, l_max + 1))
    return chunks


def _chunk_rows(lo, hi):
    """Coefficient rows Σ(l+1) of the degree chunk [lo, hi)."""
    return (hi - lo) * (hi + lo + 1) // 2


def _scaled_chunks(spectrum, theta, factor):
    """Scaled harmonic basis of each degree chunk, from one recurrence sweep.

    Yields one (Σ(l+1) × len(theta)) array per chunk of
    :func:`_degree_chunks`, degree blocks in ascending l. Every row of
    degree l is multiplied by √(factor·C_l); orders m ≥ 1 carry an extra √2
    (the two azimuthal channels collapse to one on the meridian). Row layout
    matches the coefficient draw order. The sweep keeps its state across
    chunk boundaries, so each degree is evaluated once per call and written
    scaled straight into its chunk. Every chunk is a leading slice of one
    buffer sized for the largest chunk (one degree with l+1 > _CHUNK_ROWS
    is a chunk of its own, larger than that), so a yielded chunk is
    overwritten by the next.
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


def _paths_batch(target, grid, gens):
    """Meridian paths of a batch of generators, shape (times, B, N+1).

    A single degree (times = 1) draws its full 2l+1 coefficients and keeps
    the leading l+1: the l sine channels multiply sin(mφ) = 0 on the
    meridian. A full field (times = 1) draws l+1 normals per degree,
    l_min..l_max ascending; the draw layout is part of the determinism
    contract. The fractional pair (times = 2) draws two normals per
    coefficient channel (l, m) and maps them through the lower Cholesky
    factor of [[t^{2H}, r], [r, s^{2H}]] with r = ½(t^{2H}+s^{2H}−|t−s|^{2H}),
    the channel's exact joint law at the two times. Its spatial convention
    Σ A_l (2l+1) P_l (no 1/(4π)) makes the per-degree scale √(4π A_l)
    against the normalized harmonics.

    The multi-degree draws go through buffers allocated once per batch and
    sized for the largest degree chunk: each replication's times·rows
    normals of a chunk land in one reused vector (for a full field, straight
    in its row of the coefficient matrix), and the pair writes l00·z0 and
    l10·z0 + l11·z1 into two B × rows matrices, each a contiguous leading
    slice of its buffer, with every value rounded as by the whole-array
    expressions.
    """
    if isinstance(target, SingleEll):
        ell = target.ell
        z = np.empty((len(gens), ell + 1))
        for i, g in enumerate(gens):
            z[i] = g.standard_normal(2 * ell + 1)[:ell + 1]
        return (z @ meridian_basis_fl(ell, target.c_ell, grid))[None]
    if isinstance(target, FullField):
        spectrum, factor, times = target.spectrum, 1.0, 1
    else:
        spec = target.spec
        t, s = spec.times
        l00 = t ** spec.hurst
        l10 = rh_cross(spec.hurst, t, s) / l00
        l11 = math.sqrt(max(s ** (2.0 * spec.hurst) - l10 * l10, 0.0))
        spectrum, factor, times = spec.spectrum, 4.0 * math.pi, 2
    b = len(gens)
    rows_max = max(_chunk_rows(lo, hi)
                   for lo, hi in _degree_chunks(spectrum.l_min, spectrum.l_max))
    coef = [np.empty(b * rows_max) for _ in range(times)]
    draw = np.empty(2 * rows_max) if times == 2 else None
    out = np.zeros((times, b, grid.n + 1))
    for basis in _scaled_chunks(spectrum, grid.points, factor):
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
                z[1][i] += z[0][i]  # l10·z0 + l11·z1, rounded as one expression
                np.multiply(l00, zi[0::2], out=z[0][i])
        for k in range(times):
            out[k] += z[k] @ basis
    return out


# ======================================================================
# Single-path sampling
# ======================================================================

def sample_fl_line(ell, c_ell, grid, rng):
    """One exact path of the degree-l field: 2l+1 normals drawn, l+1 used."""
    return PathSample(values=_paths_batch(SingleEll(ell, c_ell), grid, [rng])[0, 0])


def sample_f_line(spectrum, grid, rng):
    """One exact path of the truncated full field (degrees l_min..l_max)."""
    return PathSample(values=_paths_batch(FullField(spectrum), grid, [rng])[0, 0])


def sample_fbm_pair(spec, grid, rng):
    """One exact joint draw of the fractional pair: (path at t, path at s)."""
    vt, vs = _paths_batch(FbmTarget(spec), grid, [rng])[:, 0]
    return PathSample(values=vt), PathSample(values=vs)


# ======================================================================
# Quadratic variation
# ======================================================================

def quadratic_variation(path):
    """Sum of squared increments over the grid: Σ (v_{i+1} − v_i)²."""
    vals = path.values if isinstance(path, PathSample) else np.asarray(path, float)
    if vals.ndim != 1 or vals.size < 2:
        raise ValueError("need at least two grid values")
    d = np.diff(vals)
    return float(d @ d)


def batch_quadratic_variation(spec, rep_start, rep_count):
    """Quadratic variations for replications rep_start..rep_start+rep_count−1.

    Returns shape (rep_count,) for single-degree and full-field targets and
    (rep_count, 2) with columns (V at t, V at s) for fractional pairs.
    The random draws depend only on (spec, rep); re-running the same batch
    reproduces values bitwise, and different batch splits agree to
    floating-point reduction order.
    """
    if rep_count < 1:
        raise ValueError("rep_count must be positive")
    gens = [np.random.Generator(np.random.PCG64(_SeedWords(w)))
            for w in _rep_seed_words(spec, rep_start, rep_count)]
    v = [np.einsum("ij,ij->i", d, d)
         for d in np.diff(_paths_batch(spec.target, spec.grid, gens), axis=2)]
    return v[0] if len(v) == 1 else np.stack(v, axis=1)
