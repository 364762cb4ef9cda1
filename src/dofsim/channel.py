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
(``_trial_normals``) reproduces its streams a block of trials at a time.
It runs SeedSequence's 32-bit hash over the trial indices and PCG64's
seeding step in array passes, which give each trial's seeded 128-bit
state.  Then, trial by trial, it writes that state into one process-wide
PCG64 generator and numpy's own ``standard_normal`` draws the row, so
every draw is numpy's.  A once-per-process check compares a fixed block
against ``trial_rng``.

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

import ctypes
import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# The multiplier's high and low words, and the low word's 32-bit limbs.
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & (1 << 64) - 1)
_MULT_0, _MULT_1 = _MULT_LO & np.uint64(_MASK32), _MULT_LO >> np.uint64(32)
# Held while the shared generator of ``_pcg64`` is written and drawn from.
_LOCK = threading.Lock()


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


@functools.cache
def _pcg64() -> Tuple[np.random.Generator, memoryview, Tuple[int, ...]]:
    """The process's one PCG64 generator, the 32 bytes of its (state, inc) and their word order.

    numpy's PCG64 state struct starts with a pointer to its 128-bit state
    and increment, four uint64 words that the returned memoryview
    aliases; the view must not outlive the generator, so both are kept
    here together.  Word j holds (state low, state high, inc low, inc
    high)[order[j]], read back once from a state set through the public
    setter, so a build that stores the halves high word first needs no
    constant of its own.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    address = ctypes.c_void_p.from_address(gen.bit_generator.ctypes.state_address).value
    words = (ctypes.c_uint64 * 4).from_address(address)
    known = (2, 1, 5, 3)
    gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": 1 << 64 | 2,
                               "inc": 3 << 64 | 5}, "has_uint32": 0, "uinteger": 0}
    if sorted(words) != sorted(known):
        raise RuntimeError(f"numpy {np.__version__}'s PCG64 state does not start with (state, inc)")
    return gen, memoryview(words).cast("B"), tuple(known.index(word) for word in words)


def _trial_normals(seed: int, start: int, trials: int, k: int) -> np.ndarray:
    """k standard normals per trial: row t is ``trial_rng(seed, start + t).standard_normal(k)``.

    The spawn-key words of trials [start, start + trials) go through
    SeedSequence's hash as uint32 arrays, one row per pool word, and
    ``generate_state(4, uint64)`` follows.  PCG64's seeding step gives
    each trial's seeded state on uint64 halves; each is written into the
    shared generator of ``_pcg64``, which draws the row.
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
    # inc = (i1:i0) * 2 + 1, u = (s1:s0) + inc and the seeded state
    # u * MULT + inc, as (high, low) words; the high word of the low-by-low
    # product comes from 32-bit limbs.
    inc_hi, inc_lo = i1 << 1 | i0 >> 63, i0 << 1 | 1
    u_lo = s0 + inc_lo
    u_hi = s1 + inc_hi + (u_lo < inc_lo)
    x0, x1 = u_lo & _MASK32, u_lo >> 32
    p00, p01, p10 = x0 * _MULT_0, x0 * _MULT_1, x1 * _MULT_0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    p_hi = x1 * _MULT_1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    state_lo = u_lo * _MULT_LO + inc_lo
    state_hi = p_hi + u_hi * _MULT_LO + u_lo * _MULT_HI + inc_hi + (state_lo < inc_lo)
    gen, state, order = _pcg64()
    halves = (state_lo, state_hi, inc_lo, inc_hi)
    rows = memoryview(np.stack([halves[i] for i in order], axis=1).view(np.uint8).ravel())
    z, draw = np.empty((trials, k)), gen.standard_normal
    with _LOCK:
        for t, out in enumerate(z):
            state[:] = rows[32 * t:32 * t + 32]
            draw(out=out)
    return z


#: (seed, start, trials, k): a seed of three words and trials across the
#: one- to two-word spawn-key boundary.
_CHECK_BLOCK = (2**70 + 941, 2**32 - 3, 6, 32)


@functools.cache
def _check_seeding() -> None:
    """Once per process: ``_trial_normals`` must match ``trial_rng`` bit for bit."""
    seed, start, trials, k = _CHECK_BLOCK
    want = [trial_rng(seed, start + t).standard_normal(k) for t in range(trials)]
    if not np.array_equal(_trial_normals(seed, start, trials, k), want):
        raise RuntimeError(
            f"numpy {np.__version__} seeds SeedSequence/PCG64 differently from the "
            "batched sampler, or lays out PCG64's state otherwise; trial streams would "
            "not match trial_rng"
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
    if len(ladder) < 2 or ladder[0] <= 1 or any(lo >= hi for lo, hi in zip(ladder, ladder[1:])):
        raise ValueError(f"SNR ladder must be strictly ascending with every p > 1, got {snr_ladder}")
    if trials < 1:
        raise ValueError("at least one trial is required")
    total = 0.0
    for lo in range(0, trials, TRIAL_BLOCK):
        errors = _sample_cells(seed, [a], ladder, min(TRIAL_BLOCK, trials - lo), lo).error[0]
        total = total + np.add.reduce(_sq_norm(errors), axis=1)
    log_means = -np.log2(total / trials / 2.0)
    return float(np.polyfit(np.log2(ladder), log_means, 1)[0])
