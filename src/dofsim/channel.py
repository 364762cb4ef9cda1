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
reproduces its streams without building one ``SeedSequence`` per trial
(``_trial_normals``): it runs SeedSequence's 32-bit hash over a whole
array of trial indices and re-seeds a single PCG64 by setting its state.

One trial's cells are built from one ``standard_normal`` draw in a fixed
layout (``_pairs_from_normals``).  ``sample_pair`` and
``sample_realization`` build one trial at one SNR.  ``sample_ladder``
builds many trials at every point of an SNR ladder: each trial's normals
are drawn once and rescaled per point (common random numbers), and the
vectors carry a leading trial axis.  Row t at ladder point k equals
``sample_realization(trial_rng(seed, start + t), q, scenario, ps[k])``
bit for bit.  ``zf_direction`` and ``unit`` work row by row on such
arrays.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

USERS = ("user1", "user2")
SUBBANDS = ("A", "B")
SCENARIO_KINDS = ("unmatched", "matched")


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


def linear_to_db(p: float) -> float:
    return 10.0 * np.log10(p)


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


@dataclass(frozen=True)
class ChannelPair:
    """True channel, transmitter-side estimate and estimation error (2-vectors)."""

    true: np.ndarray
    estimate: np.ndarray
    error: np.ndarray


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all four (user, subband) channels."""

    pairs: Dict[Tuple[str, str], ChannelPair]

    def pair(self, user: str, subband: str) -> ChannelPair:
        return self.pairs[(user, subband)]

    def true(self, user: str, subband: str) -> np.ndarray:
        return self.pairs[(user, subband)].true

    def estimate(self, user: str, subband: str) -> np.ndarray:
        return self.pairs[(user, subband)].estimate


#: Trials per array pass.  Callers of ``sample_ladder`` walk long trial
#: ranges in blocks of this size, which bounds the memory of the normals
#: and of everything computed from them.
TRIAL_BLOCK = 4096

# Constants of numpy's SeedSequence (hashmix, mix, generate_state) and of
# PCG64's seeding step, which ``_trial_normals`` reproduces.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(h: int, mult: int, n: int) -> List[int]:
    """h and the n hash constants that follow it, each the last times mult."""
    out = [h]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return out


def _words(n: int) -> List[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words (ints or uint32 arrays)."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _seed_pool(seed: int) -> Tuple[List[int], int]:
    """SeedSequence's pool once the seed's words are mixed in, and the next hash constant.

    A spawned SeedSequence zero-pads the seed's words to the pool size and
    appends the spawn key's words, so this prefix is the same for every
    trial of one seed.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool, h


def _trial_normals(seed: int, start: int, trials: int, k: int) -> np.ndarray:
    """k standard normals per trial: row t is ``trial_rng(seed, start + t).standard_normal(k)``.

    The spawn-key words of trials [start, start + trials) go through
    SeedSequence's hash as uint32 arrays, one row per pool word, and
    ``generate_state(4, uint64)`` follows.  Each trial's PCG64 state then
    comes from PCG64's seeding step in Python ints and is set on one bit
    generator created for this call.
    """
    pool, h = _seed_pool(check_seed(seed))
    gen_consts = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE), dtype=np.uint32)
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    z = np.empty((trials, k))
    lo, end = start, start + trials
    while lo < end:
        # Trials whose spawn key has the same number of words.
        n_words = len(_words(lo))
        hi = min(end, 1 << (32 * n_words))
        index = np.arange(lo, hi, dtype=np.uint64 if hi <= 1 << 64 else object)
        mixer = np.array(pool, dtype=np.uint32)[:, None]
        consts = np.array(_hash_constants(h, _MULT_A, _POOL_SIZE * n_words), dtype=np.uint32)
        for j in range(n_words):
            word = (index >> (32 * j) & _MASK32).astype(np.uint32)
            c = consts[_POOL_SIZE * j:_POOL_SIZE * (j + 1) + 1, None]
            v = (word ^ c[:-1]) * c[1:]
            mixer = _mix(mixer, v ^ (v >> 16))
        out = (np.concatenate([mixer, mixer]) ^ gen_consts[:-1, None]) * gen_consts[1:, None]
        out ^= out >> 16
        words64 = (out[1::2].astype(np.uint64) << 32 | out[0::2]).tolist()
        for row, (s0, s1, i0, i1) in enumerate(zip(*words64), start=lo - start):
            inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
            inner["state"] = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
            inner["inc"] = inc
            bit_gen.state = state
            gen.standard_normal(out=z[row])
        lo = hi
    return z


@functools.cache
def _check_seeding() -> None:
    """Once per process: ``_trial_normals`` must match ``trial_rng`` bit for bit."""
    seed, trial = 2**70 + 3, 2**32 + 1
    want = trial_rng(seed, trial).standard_normal(8)
    if not np.array_equal(_trial_normals(seed, trial, 1, 8)[0], want):
        raise RuntimeError(
            f"numpy {np.__version__} seeds SeedSequence/PCG64 differently from the "
            "batched sampler; trial streams would not match trial_rng"
        )


#: Draw order of one trial's cells: (user, subband) in (subband, user) order.
_CELLS = tuple((user, subband) for subband in SUBBANDS for user in USERS)


def _variances(a: float, p: float) -> Tuple[float, float]:
    """Per-entry (estimate, error) variances of a cell with quality a at linear SNR p."""
    if not 0 <= a <= 1:
        raise ValueError(f"quality exponent must lie in [0, 1], got {a}")
    if p <= 1:
        raise ValueError(f"linear SNR must exceed 1, got {p}")
    sigma2 = float(p) ** (-float(a))
    return 1.0 - sigma2, sigma2


def _normals_needed(variances: Sequence[Tuple[float, float]]) -> int:
    return 4 * sum(var > 0.0 for cell in variances for var in cell)


def _pairs_from_normals(
    z: np.ndarray, variances: Sequence[Tuple[float, float]]
) -> List[ChannelPair]:
    """Build cells, in draw order, from the normals on the last axis of z.

    This is the draw layout.  Each cell draws its estimate, then its
    error.  A draw of variance ``var`` takes the next four normals (two
    real parts, then two imaginary parts) and scales them to per-entry
    variance ``var``.  A draw with ``var <= 0`` is the zero vector and
    takes no normals, so every later draw reads four positions earlier.
    """
    pairs = []
    offset = 0
    for cell in variances:
        drawn = []
        for var in cell:
            if var <= 0.0:
                drawn.append(np.zeros(z.shape[:-1] + (2,), dtype=complex))
                continue
            re, im = z[..., offset:offset + 2], z[..., offset + 2:offset + 4]
            drawn.append(np.sqrt(var / 2.0) * (re + 1j * im))
            offset += 4
        estimate, error = drawn
        pairs.append(ChannelPair(true=estimate + error, estimate=estimate, error=error))
    return pairs


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
) -> ChannelRealization:
    """Draw the four channels of one trial in a fixed (subband, user) order."""
    variances = [_variances(scenario.quality(u, s, q), p) for u, s in _CELLS]
    z = rng.standard_normal(_normals_needed(variances))
    return ChannelRealization(dict(zip(_CELLS, _pairs_from_normals(z, variances))))


def _sample_cells(
    seed: int, qualities: Sequence[float], ps: Sequence[float], trials: int, start: int
) -> List[List[ChannelPair]]:
    """Cells of quality ``qualities`` (in draw order) for trials [start, start + trials).

    Returns one list of cells per linear SNR in ``ps``; every vector has a
    leading trial axis.  Each trial's normals come from a single draw on
    its ``trial_rng(seed, start + t)`` stream, long enough for the ladder
    point that needs the most; a point that skips a draw reads a prefix of
    them.
    """
    per_point = [[_variances(a, p) for a in qualities] for p in ps]
    k = max(_normals_needed(variances) for variances in per_point)
    _check_seeding()
    z = _trial_normals(seed, start, trials, k)
    return [_pairs_from_normals(z, variances) for variances in per_point]


def sample_ladder(
    seed: int,
    q: QualityPair,
    scenario: Scenario,
    ps: Sequence[float],
    trials: int,
    start: int = 0,
) -> List[ChannelRealization]:
    """Realizations of trials [start, start + trials) at every linear SNR in ps.

    Vectors have shape (trials, 2).  Row t of the realization at ``ps[k]``
    equals ``sample_realization(trial_rng(seed, start + t), q, scenario,
    ps[k])`` bit for bit, and each trial's stream is seeded once for the
    whole ladder.
    """
    qualities = [scenario.quality(u, s, q) for u, s in _CELLS]
    return [
        ChannelRealization(dict(zip(_CELLS, pairs)))
        for pairs in _sample_cells(seed, qualities, ps, trials, start)
    ]


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """||v||^2 over the last axis."""
    return np.sum(v.real ** 2, axis=-1) + np.sum(v.imag ** 2, axis=-1)


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
    ``trial_rng(seed, t)`` once for the whole ladder.
    """
    check_seed(seed)
    ladder = [float(p) for p in snr_ladder]
    if not all(math.isfinite(p) for p in ladder):
        raise ValueError(f"SNR ladder values must be finite, got {snr_ladder}")
    if len(ladder) < 2 or any(p <= 1 for p in ladder) or sorted(ladder) != ladder:
        raise ValueError(f"SNR ladder must be ascending with every p > 1, got {snr_ladder}")
    if trials < 1:
        raise ValueError("at least one trial is required")
    sq = np.empty((len(ladder), trials))
    for lo in range(0, trials, TRIAL_BLOCK):
        n = min(TRIAL_BLOCK, trials - lo)
        for k, (pair,) in enumerate(_sample_cells(seed, [a], ladder, n, lo)):
            sq[k, lo:lo + n] = _sq_norm(pair.error)
    log_means = -np.log2(np.mean(sq, axis=1) / 2.0)
    return float(np.polyfit(np.log2(ladder), log_means, 1)[0])
