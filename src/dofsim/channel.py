r"""Two-user, two-subband MISO downlink channel with imperfect transmitter CSI.

The transmitter has two antennas; each user has one.  In every subband
``s`` and for every user ``u`` the true channel vector splits as

    true = estimate + error,

where the transmitter only knows ``estimate``.  The error entries are
i.i.d. complex Gaussian with per-entry variance ``sigma2 = p ** -a`` for
quality exponent ``a`` in [0, 1] at linear SNR ``p``; the estimate is drawn
with per-entry variance ``1 - sigma2`` so the true channel always has unit
per-entry variance regardless of ``a``.  ``a = 1`` is essentially perfect
CSI at high SNR, ``a = 0`` makes the estimate useless (it degenerates to
the zero vector, and zero-forcing on it fails loudly).

Randomness is drawn from per-trial substreams: ``trial_rng(seed, t)`` is a
pure function of the master seed and the trial index, so runs are
bit-reproducible and results do not depend on how trials are partitioned
across workers.  ``trial_rng`` defines the contract; the batched sampler
(``_trial_normals``) reproduces its streams a block of trials at a time in
array passes.  It runs SeedSequence's 32-bit hash over the trial indices,
jumps each PCG64 stream ahead in closed form (the 128-bit LCG state after
n steps is affine in the seeded state) to every raw word, and applies the
fast path of numpy's ziggurat, with tables read back from numpy once per
process.  A trial with a draw that path rejects is resumed by numpy from
the state before that draw.  A once-per-process check compares a fixed
block, with both kinds of trial, against ``trial_rng``.

One trial's cells are built from one ``standard_normal`` draw in a fixed
layout (``_pairs_from_normals``): a realization is one ``ChannelPair``
with the cells on a leading axis in ``CELLS`` order, so
``cells[cell_index(u, s)]`` is one cell.  ``sample_pair`` and
``sample_realization`` build one cell or one trial at one SNR.
``sample_ladder_cells`` builds many trials at every point of an SNR
ladder in one pass: each trial's normals are drawn once and rescaled
along a ladder axis (common random numbers), so the arrays have shape
(cells, points, trials, 2).  Row t at ladder point k equals
``sample_realization(trial_rng(seed, start + t), q, scenario, ps[k])``
bit for bit.  ``zf_direction`` and ``unit`` work row by row on such
arrays.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

USERS = ("user1", "user2")
SUBBANDS = ("A", "B")
SCENARIO_KINDS = ("unmatched", "matched")
#: (user, subband) cells in draw order, the order of a stack of cells.
CELLS = tuple((user, subband) for subband in SUBBANDS for user in USERS)


def cell_index(user: str, subband: str) -> int:
    """The position of the (user, subband) cell in ``CELLS``."""
    try:
        return CELLS.index((user, subband))
    except ValueError:
        raise ValueError(f"unknown cell ({user!r}, {subband!r}); the cells are {CELLS}") from None


@dataclass(frozen=True)
class QualityPair:
    """CSIT quality exponents (beta, alpha) with 0 <= alpha <= beta <= 1.

    The pair is ordered by convention: beta is the better quality.  Exact
    rational values (``fractions.Fraction``) are accepted and preserved so
    closed-form DoF expressions can be evaluated exactly.
    """

    beta: float
    alpha: float

    def __post_init__(self) -> None:
        if not (0 <= self.alpha <= self.beta <= 1):
            raise ValueError(
                f"quality exponents need 0 <= alpha <= beta <= 1, got "
                f"beta={self.beta}, alpha={self.alpha}"
            )


@dataclass(frozen=True)
class Scenario:
    """CSIT allocation across (user, subband) cells.

    unmatched: user1 has quality beta in subband A and alpha in B, user2 the
    reverse (each user has one well-sounded subband).
    matched: both users have beta in subband A and alpha in B.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"scenario kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")

    def quality(self, user: str, subband: str, q: QualityPair):
        """CSIT quality exponent of `user`'s channel estimate in `subband`."""
        if user not in USERS:
            raise ValueError(f"unknown user {user!r}")
        if subband not in SUBBANDS:
            raise ValueError(f"unknown subband {subband!r}")
        if self.kind == "matched":
            return q.beta if subband == "A" else q.alpha
        return q.beta if (user == "user1") == (subband == "A") else q.alpha


UNMATCHED = Scenario("unmatched")
MATCHED = Scenario("matched")


def db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent substream for one Monte Carlo trial.

    Built from ``SeedSequence(seed, spawn_key=(trial,))`` so the stream is a
    pure function of (seed, trial) -- no shared state between trials.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def check_seed(seed) -> int:
    """The master seed as an int; a negative seed raises ValueError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def check_snr(p) -> None:
    """Raise ValueError unless the linear SNR p is finite and exceeds 1 (nan does not)."""
    if not p > 1:
        raise ValueError(f"linear SNR must exceed 1, got {p}")
    if p == math.inf:
        raise ValueError(f"linear SNR must be finite, got {p}")


@dataclass(frozen=True)
class ChannelPair:
    """True channel, transmitter-side estimate and estimation error (2-vectors).

    Indexing a pair indexes its three arrays alike, so a realization (its
    cells stacked on a leading axis in ``CELLS`` order) iterates over them.
    """

    true: np.ndarray
    estimate: np.ndarray
    error: np.ndarray

    def __getitem__(self, index) -> "ChannelPair":
        return ChannelPair(self.true[index], self.estimate[index], self.error[index])


#: Trials per array pass.  Callers of ``sample_ladder_cells`` walk long
#: trial ranges in blocks of this size, which bounds the memory of the
#: normals and of everything computed from them.
TRIAL_BLOCK = 4096

# Constants of numpy's SeedSequence (hashmix, mix, generate_state) and of
# PCG64's LCG, which ``_trial_normals`` reproduces.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHUNK_DRAWS = 1 << 14  # per array pass of ``_fill_normals``, to stay in cache


@functools.cache
def _hash_constants(h: int, mult: int, n: int) -> np.ndarray:
    """h and the n hash constants that follow it, each the last times mult (read-only uint32)."""
    out = [h]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    out = np.array(out, dtype=np.uint32)
    out.flags.writeable = False
    return out


def _words(n: int) -> List[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mix(x, y):
    """SeedSequence's mix of two arrays of 32-bit words."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _pcg64_setter() -> Callable[[int, int], np.random.Generator]:
    """A new PCG64 generator, behind a function that sets its (state, inc) and returns it."""
    gen, inner = np.random.Generator(np.random.PCG64(0)), {}
    full = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}

    def set_state(state: int, inc: int) -> np.random.Generator:
        inner["state"], inner["inc"] = state, inc
        gen.bit_generator.state = full
        return gen

    return set_state


@functools.cache
def _ziggurat() -> Tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables wi and ki, signed and indexed by r & 0x1ff.

    A raw word r gives the layer r & 0xff, the sign (bit 8) and rabs (bits
    9..60); numpy returns +-rabs * wi[layer] if rabs < ki[layer], else it
    takes its slow path.  With inc = -r * MULT the state (r - inc) / MULT
    outputs r (the stepped state r has high word 0: no rotation), and after
    a fast-path draw the next raw output is 0.  wi[layer] is the normal
    drawn for rabs = 1; ki, a lower bound on numpy's, is floor(2**52 *
    wi[layer - 1] / wi[layer] * (1 - 1e-9)) if rabs = ki - 1 takes the
    fast path, else 0, which sends every draw of the layer to numpy's slow
    path (layer 1, which numpy always rejects, is the one that gets 0).
    """
    inverse, set_state = pow(_PCG64_MULT, -1, 1 << 128), _pcg64_setter()

    def draw(layer: int, rabs: int) -> Tuple[float, bool]:
        word = rabs << 9 | layer
        inc = -word * _PCG64_MULT & _MASK128
        gen = set_state((word - inc) * inverse & _MASK128, inc)
        return gen.standard_normal(), gen.bit_generator.random_raw() == 0

    wi = [draw(layer, 1)[0] for layer in range(256)]
    ki = []
    for layer in range(256):
        guess = min(max(int(2**52 * wi[layer - 1] / wi[layer] * (1 - 1e-9)), 0), 2**52)
        ki.append(guess if guess and draw(layer, guess - 1)[1] else 0)
    wi, ki = np.array(wi), np.array(ki, dtype=np.int64)
    return np.concatenate([wi, -wi]), np.concatenate([ki, ki])


@functools.cache
def _jumps(k: int) -> Tuple[np.ndarray, ...]:
    """(high, low, low & 0xffffffff, low >> 32) of A (row 0) and B (row 1), each (2, k + 1, 1).

    From PCG64's seeded state u * MULT + inc, the state before draw n is
    u * A + inc * B mod 2**128, with A = MULT**(n + 1), B = 1 + ... + MULT**n.
    """
    a, b, rows = _PCG64_MULT, 1, []
    for _ in range(k + 1):
        rows.append((a, b))
        a, b = a * _PCG64_MULT & _MASK128, (b * _PCG64_MULT + 1) & _MASK128
    c = np.array(rows, dtype=object).T[:, :, None]
    lo = c & _MASK64
    return tuple(np.array(x, dtype=np.uint64) for x in (c >> 64, lo, lo & _MASK32, lo >> 32))


def _fill_normals(z: np.ndarray, hi: np.ndarray, lo: np.ndarray,
                  set_state: Callable[[int, int], np.random.Generator]) -> None:
    """Row t of z: the first normals of the PCG64 stream with (u, inc) = (hi, lo)[:, t].

    Each state u * A + inc * B is computed on uint64 halves (the high word
    of a low-by-low product from 32-bit limbs) and gives its XSL-RR output.
    Fast-path draws are +-rabs * wi[layer]; a row with a rejected draw is
    finished by numpy, on its own slow path, from the state before it.
    """
    a_hi, a_lo, a0, a1 = _jumps(z.shape[1])
    hi, lo = hi[:, None], lo[:, None]
    x0, x1 = lo & _MASK32, lo >> 32
    p00, p01, p10, p_lo = a0 * x0, a1 * x0, a0 * x1, a_lo * lo
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    p_hi = a1 * x1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + a_hi * lo + a_lo * hi
    s_lo = p_lo[0] + p_lo[1]
    s_hi = p_hi[0] + p_hi[1] + (s_lo < p_lo[1])
    x, rot = s_hi[1:] ^ s_lo[1:], s_hi[1:] >> 58
    words = x >> rot | x << (64 - rot)  # numpy shifts by 64 to 0
    wi, ki = _ziggurat()
    layer = (words & 0x1FF).view(np.int64)
    rabs = (words >> 9 & (1 << 52) - 1).view(np.int64)
    np.multiply(rabs, wi.take(layer), out=z.T)
    rejected = rabs >= ki.take(layer)
    rows = np.flatnonzero(rejected.any(axis=0))
    first = rejected[:, rows].argmax(axis=0)
    halves = np.stack([s_hi[first, rows], s_lo[first, rows], hi[1, 0, rows], lo[1, 0, rows]])
    for t, j, s1, s0, i1, i0 in zip(rows.tolist(), first.tolist(), *halves.tolist()):
        set_state(s1 << 64 | s0, i1 << 64 | i0).standard_normal(out=z[t, j:])


def _trial_normals(seed: int, start: int, trials: int, k: int) -> np.ndarray:
    """k standard normals per trial: row t is ``trial_rng(seed, start + t).standard_normal(k)``.

    The spawn-key words of trials [start, start + trials) go through
    SeedSequence's hash as uint32 arrays, one row per pool word, and
    ``generate_state(4, uint64)`` follows.  PCG64's seeding step gives
    each trial's u and inc, and ``_fill_normals`` draws a chunk at a time.
    """
    seed = check_seed(seed)
    if start < 0:
        raise ValueError(f"start must be a non-negative trial index, got {start}")
    # A spawned SeedSequence zero-pads the seed's words to the pool size and
    # appends the spawn key's words, so once the seed's words are mixed in
    # its pool is SeedSequence(seed).pool, after 16 hashmix calls plus 4 per
    # seed word past the fourth.
    pool = np.random.SeedSequence(seed).pool
    h = int(_hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(0, len(_words(seed)) - _POOL_SIZE))[-1])
    gen_consts = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    states = [np.empty((4, 0), dtype=np.uint64)]
    lo, end = start, start + trials
    while lo < end:
        # Trials whose spawn key has the same number of words.
        n_words = len(_words(lo))
        hi = min(end, 1 << (32 * n_words))
        index = np.arange(lo, hi, dtype=np.uint64 if hi <= 1 << 64 else object)
        mixer = pool[:, None]
        consts = _hash_constants(h, _MULT_A, _POOL_SIZE * n_words)
        for j in range(n_words):
            word = (index >> (32 * j) & _MASK32).astype(np.uint32)
            c = consts[_POOL_SIZE * j:_POOL_SIZE * (j + 1) + 1, None]
            v = (word ^ c[:-1]) * c[1:]
            mixer = _mix(mixer, v ^ (v >> 16))
        out = (np.concatenate([mixer, mixer]) ^ gen_consts[:-1, None]) * gen_consts[1:, None]
        out ^= out >> 16
        states.append(out[1::2].astype(np.uint64) << 32 | out[0::2])
        lo = hi
    s1, s0, i1, i0 = np.concatenate(states, axis=1)
    # inc = (i1:i0) * 2 + 1 and u = (s1:s0) + inc, as (high, low) words.
    inc_hi, inc_lo = i1 << 1 | i0 >> 63, i0 << 1 | 1
    u_lo = s0 + inc_lo
    hi, lo = np.stack([s1 + inc_hi + (u_lo < inc_lo), inc_hi]), np.stack([u_lo, inc_lo])
    z, set_state = np.empty((trials, k)), _pcg64_setter()
    chunk = max(1, _CHUNK_DRAWS // (k + 1))
    for c in range(0, trials, chunk):
        _fill_normals(z[c:c + chunk], hi[:, c:c + chunk], lo[:, c:c + chunk], set_state)
    return z


#: (seed, start, trials, k): rows on the fast path alone and rows with a
#: rejection, across the one- to two-word spawn-key boundary.
_CHECK_BLOCK = (2**70 + 941, 2**32 - 3, 6, 32)


@functools.cache
def _check_seeding() -> None:
    """Once per process: ``_trial_normals`` must match ``trial_rng`` bit for bit."""
    seed, start, trials, k = _CHECK_BLOCK
    want = [trial_rng(seed, start + t).standard_normal(k) for t in range(trials)]
    if not np.array_equal(_trial_normals(seed, start, trials, k), want):
        raise RuntimeError(
            f"numpy {np.__version__} seeds SeedSequence/PCG64 differently from the "
            "batched sampler, or its ziggurat differs; trial streams would not match trial_rng"
        )


def _variances(a: float, p: float) -> Tuple[float, float]:
    """Per-entry (estimate, error) variances of a cell with quality a at linear SNR p."""
    if not 0 <= a <= 1:
        raise ValueError(f"quality exponent must lie in [0, 1], got {a}")
    check_snr(p)
    sigma2 = float(p) ** (-float(a))
    return 1.0 - sigma2, sigma2


def _normals_needed(variances: Sequence[Tuple[float, float]]) -> int:
    return 4 * sum(var > 0.0 for cell in variances for var in cell)


def _pairs_from_normals(z: np.ndarray, variances: Sequence[Tuple[float, float]]) -> ChannelPair:
    """Build cells, stacked in draw order, from the normals on the last axis of z.

    This is the draw layout.  Each cell draws its estimate, then its
    error.  A draw of variance ``var`` takes the next four normals (two
    real parts, then two imaginary parts) and scales them to per-entry
    variance ``var``.  A draw with ``var <= 0`` is the zero vector and
    takes no normals, so every later draw reads four positions earlier.

    ``variances`` holds one (estimate, error) pair per cell.  It may carry
    a trailing ladder axis, one variance per ladder point, whose entries
    agree on whether they are 0; the vectors then gain a ladder axis after
    the cell axis.  All draws are scaled in one array pass.
    """
    draws = np.asarray(variances, dtype=float)
    lead = draws.shape[2:]  # the ladder axis, if any
    draws = draws.reshape((-1,) + lead)  # in draw order
    taken = draws.reshape(len(draws), -1)[:, 0] > 0.0
    scale = np.sqrt(draws[taken] / 2.0)
    m, trials = len(scale), z.shape[:-1]
    # The normals of the taken draws as (draw, *trials, entry, real or
    # imaginary part), scaled straight into the memory of the complex
    # vectors (draw, *lead, *trials, entry).
    normals = np.moveaxis(z[..., :4 * m].reshape(trials + (m, 2, 2)), -3, 0).swapaxes(-1, -2)
    values = np.empty((m,) + lead + trials + (2,), dtype=complex)
    np.multiply(normals.reshape((m,) + (1,) * len(lead) + trials + (2, 2)),
                scale.reshape(scale.shape + (1,) * (len(trials) + 2)),
                out=values.view(float).reshape(values.shape + (2,)))
    drawn = values
    if not taken.all():
        drawn = np.zeros((len(draws),) + values.shape[1:], dtype=complex)
        drawn[taken] = values
    return ChannelPair(true=drawn[0::2] + drawn[1::2], estimate=drawn[0::2], error=drawn[1::2])


def sample_pair(rng: np.random.Generator, a: float, p: float) -> ChannelPair:
    """Draw (true, estimate, error) for one (user, subband) cell.

    Args:
        rng: source of randomness (typically a trial substream).
        a: CSIT quality exponent in [0, 1].
        p: linear SNR, must exceed 1 so sigma2 = p**-a stays within [0, 1].

    Returns:
        ChannelPair with error entries CN(0, sigma2) and estimate entries
        CN(0, 1 - sigma2); ``true == estimate + error`` holds bitwise.
    """
    variances = [_variances(a, p)]
    return _pairs_from_normals(rng.standard_normal(_normals_needed(variances)), variances)[0]


def sample_realization(
    rng: np.random.Generator, q: QualityPair, scenario: Scenario, p: float
) -> ChannelPair:
    """Draw the four cells of one trial, stacked in ``CELLS`` order."""
    variances = [_variances(scenario.quality(u, s, q), p) for u, s in CELLS]
    z = rng.standard_normal(_normals_needed(variances))
    return _pairs_from_normals(z, variances)


def _sample_cells(
    seed: int, qualities: Sequence[float], ps: Sequence[float], trials: int, start: int
) -> ChannelPair:
    """Cells of quality ``qualities`` (in draw order) for trials [start, start + trials).

    The stacked arrays have shape (cells, len(ps), trials, 2): a ladder
    axis, one entry per linear SNR in ``ps``, follows the cell axis.  Each
    trial's normals come from a single draw on its ``trial_rng(seed, start
    + t)`` stream, long enough for the ladder point that needs the most.
    Ladder points that skip the same zero-variance draws are built in one
    pass; a point that skips more reads a prefix of the normals.
    """
    if not len(ps):
        raise ValueError("the SNR ladder needs at least one point")
    if trials < 1:
        raise ValueError(f"at least one trial is required, got {trials}")
    per_point = [[_variances(a, p) for a in qualities] for p in ps]
    k = max(_normals_needed(variances) for variances in per_point)
    _check_seeding()
    z = _trial_normals(seed, start, trials, k)
    variances = np.array(per_point)  # (points, cells, 2)
    groups: Dict[bytes, List[int]] = {}
    for point, zero in enumerate(variances <= 0.0):
        groups.setdefault(zero.tobytes(), []).append(point)
    if len(groups) == 1:
        return _pairs_from_normals(z, variances.transpose(1, 2, 0))
    cells = ChannelPair(*(np.empty((len(qualities), len(ps), trials, 2), dtype=complex)
                          for _ in range(3)))
    for points in groups.values():
        part = _pairs_from_normals(z, variances[points].transpose(1, 2, 0))
        cells.true[:, points], cells.estimate[:, points], cells.error[:, points] = (
            part.true, part.estimate, part.error)
    return cells


def sample_ladder_cells(
    seed: int,
    q: QualityPair,
    scenario: Scenario,
    ps: Sequence[float],
    trials: int,
    start: int = 0,
) -> ChannelPair:
    """Trials [start, start + trials) at every linear SNR in ps, cells stacked in ``CELLS`` order.

    Per cell, vectors have shape (len(ps), trials, 2).  Entry [k, t] equals
    ``sample_realization(trial_rng(seed, start + t), q, scenario, ps[k])``
    bit for bit, and each trial's stream is seeded once for the whole
    ladder.
    """
    qualities = [scenario.quality(u, s, q) for u, s in CELLS]
    return _sample_cells(seed, qualities, ps, trials, start)


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """||v||^2 over the last axis, which has length 2."""
    re, im = v.real ** 2, v.imag ** 2
    return (re[..., 0] + re[..., 1]) + (im[..., 0] + im[..., 1])


def _checked_norm(v: np.ndarray, action: str) -> np.ndarray:
    """||v|| over the last axis, kept as a length-1 axis; raises if any row is ~0."""
    norm = np.sqrt(_sq_norm(v))[..., None]
    if np.any(norm <= 1e-12):
        raise ValueError(f"degenerate direction: cannot {action} a zero estimate")
    return norm


def zf_direction(v: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to v with the fixed phase convention.

    Returns (-conj(v2), conj(v1)) / ||v||, which satisfies v^H w = 0
    exactly.  ``v`` may carry leading axes, one 2-vector per row.  Raises
    if any row is (near) zero because ZF on a degenerate estimate has no
    meaning.
    """
    v = np.asarray(v)
    if v.ndim == 0 or v.shape[-1] != 2:
        raise ValueError(f"expected length-2 vectors, got shape {v.shape}")
    norm = _checked_norm(v, "zero-force on")
    return np.stack([-np.conj(v[..., 1]), np.conj(v[..., 0])], axis=-1) / norm


def unit(v: np.ndarray) -> np.ndarray:
    """v / ||v|| row by row, with the same degeneracy guard as zf_direction."""
    v = np.asarray(v)
    return v / _checked_norm(v, "normalise")


def measure_error_exponent(a: float, snr_ladder, trials: int, seed: int = 0) -> float:
    """Estimate the CSIT error decay exponent from sampled errors.

    Computes mean ||error||^2 / 2 at each ladder point and returns the
    least-squares slope of -log2(mean) against log2(p); for errors drawn
    with variance p**-a the slope estimates a.  Trial t draws from
    ``trial_rng(seed, t)`` once for the whole ladder; the block sums are
    added in trial order, in O(TRIAL_BLOCK) memory.
    """
    check_seed(seed)
    ladder = [float(p) for p in snr_ladder]
    if not all(math.isfinite(p) for p in ladder):
        raise ValueError(f"SNR ladder values must be finite, got {snr_ladder}")
    if len(ladder) < 2 or any(p <= 1 for p in ladder) or sorted(ladder) != ladder:
        raise ValueError(f"SNR ladder must be ascending with every p > 1, got {snr_ladder}")
    if trials < 1:
        raise ValueError("at least one trial is required")
    total = 0.0
    for lo in range(0, trials, TRIAL_BLOCK):
        errors = _sample_cells(seed, [a], ladder, min(TRIAL_BLOCK, trials - lo), lo).error[0]
        total = total + np.add.reduce(_sq_norm(errors), axis=1)
    log_means = -np.log2(total / trials / 2.0)
    return float(np.polyfit(np.log2(ladder), log_means, 1)[0])
