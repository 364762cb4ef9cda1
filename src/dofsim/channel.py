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

Randomness is drawn from one seeded stream per block of ``TRIAL_BLOCK``
trials: block b is ``SeedSequence(seed, spawn_key=(b,))``, and trial t
owns row ``t % TRIAL_BLOCK`` of its block's ``standard_normal((rows,
ROW_WIDTH))``.  A draw that needs k normals reads the first k of its
row, so every scheme, scenario and ladder point sees the same numbers for
a trial (common random numbers), runs are bit-reproducible, and results
do not depend on how a trial range is split.  ``trial_rng(seed, t)``
defines the contract trial by trial: the block's generator advanced past
the rows before t's.  The batched sampler (``_trial_normals``) draws each
block's rows in one numpy call.

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
arrays.  ``ladder_fit`` fits the least-squares line against log2 of an
SNR ladder, as ``np.polyfit`` does, for the exponent and DoF estimates.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
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
        cell_index(user, subband)  # raises on an unknown cell
        if self.kind == "matched":
            return q.beta if subband == "A" else q.alpha
        return q.beta if (user == "user1") == (subband == "A") else q.alpha


UNMATCHED = Scenario("unmatched")
MATCHED = Scenario("matched")


def db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


#: The RNG contract's block: trials [b * TRIAL_BLOCK, (b + 1) * TRIAL_BLOCK)
#: share block b's stream, one row each.  Callers of ``sample_ladder_cells``
#: also walk long trial ranges in blocks of this size, which bounds the
#: memory of the normals and of everything computed from them.
TRIAL_BLOCK = 4096
#: The normals in a trial's row: eight per cell (estimate and error, two
#: real and two imaginary parts each), the most any draw layout takes.
ROW_WIDTH = 8 * len(CELLS)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """The generator of block ``block``'s stream, before its first row."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The stream of one Monte Carlo trial: its block's, positioned at the trial's row.

    A pure function of (seed, trial): block ``trial // TRIAL_BLOCK`` is
    seeded from ``SeedSequence(seed, spawn_key=(block,))`` and advanced
    past the ``trial % TRIAL_BLOCK`` rows of ``ROW_WIDTH`` normals before
    the trial's own, so its next ``k <= ROW_WIDTH`` normals are the first
    ``k`` of the trial's row.
    """
    block, row = divmod(trial, TRIAL_BLOCK)
    rng = _block_rng(seed, block)
    rng.standard_normal(row * ROW_WIDTH)
    return rng


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


def _trial_normals(seed: int, start: int, trials: int, k: int) -> np.ndarray:
    """k standard normals per trial: row t is ``trial_rng(seed, start + t).standard_normal(k)``.

    Each block that trials [start, start + trials) touch draws its rows up
    to the last one needed in one ``standard_normal`` call; rows before
    ``start`` are drawn and dropped, so an aligned range drops none.
    """
    seed = check_seed(seed)
    if start < 0:
        raise ValueError(f"start must be a non-negative trial index, got {start}")
    end = start + trials
    parts = []
    for block in range(start // TRIAL_BLOCK, (end - 1) // TRIAL_BLOCK + 1):
        first = block * TRIAL_BLOCK
        rows = _block_rng(seed, block).standard_normal((min(end - first, TRIAL_BLOCK), ROW_WIDTH))
        parts.append(rows[max(start - first, 0):, :k])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
    # Views of the taken draws' normals and of the complex vectors' memory
    # as (draw, *lead, entry, real or imaginary part, *trials), scaled in
    # that (C) order, so the inner loop runs over the trials.
    n = len(trials)
    normals = np.moveaxis(z[..., :4 * m].reshape(trials + (m, 2, 2)), range(n), range(-n, 0))
    values = np.empty((m,) + lead + trials + (2,), dtype=complex)
    target = np.moveaxis(values.view(float).reshape(values.shape + (2,)),
                         range(1 + len(lead), 1 + len(lead) + n), range(-n, 0))
    np.multiply(normals.swapaxes(1, 2).reshape((m,) + (1,) * len(lead) + (2, 2) + trials),
                scale.reshape(scale.shape + (1,) * (n + 2)), out=target, order="C")
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
    trial's normals are read once from its row, as many as the ladder
    point that needs the most takes.  Ladder points that skip the same zero-variance draws are built in one
    pass; a point that skips more reads a prefix of the normals.
    """
    if not len(ps):
        raise ValueError("the SNR ladder needs at least one point")
    if trials < 1:
        raise ValueError(f"at least one trial is required, got {trials}")
    per_point = [[_variances(a, p) for a in qualities] for p in ps]
    k = max(_normals_needed(variances) for variances in per_point)
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
    bit for bit, and each block's stream is drawn once for the whole
    ladder.
    """
    qualities = [scenario.quality(u, s, q) for u, s in CELLS]
    return _sample_cells(seed, qualities, ps, trials, start)


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """||v||^2 over the last axis, which has length 2."""
    re, im = v.real ** 2, v.imag ** 2
    return (re[..., 0] + re[..., 1]) + (im[..., 0] + im[..., 1])


def _checked_norm(v: np.ndarray, action: str) -> np.ndarray:
    """||v|| over the last axis, which must have length 2; raises if any row is ~0."""
    if v.ndim == 0 or v.shape[-1] != 2:
        raise ValueError(f"expected length-2 vectors, got shape {v.shape}")
    norm = np.sqrt(_sq_norm(v))
    if np.any(norm <= 1e-12):
        raise ValueError(f"degenerate direction: cannot {action} a zero estimate")
    return norm


def zf_direction(v: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to v with the fixed phase convention.

    Returns (-conj(v2), conj(v1)) / ||v||, which satisfies v^H w = 0
    exactly.  ``v`` may carry leading axes, one 2-vector per row.  Raises
    if any row is (near) zero because ZF on a degenerate estimate has no
    meaning.  Each entry is divided in one pass over the rows.
    """
    v = np.asarray(v)
    norm = _checked_norm(v, "zero-force on")
    out = np.empty(v.shape, dtype=np.result_type(v, norm))
    np.conjugate(v[..., ::-1], out=out)
    np.negative(out[..., 0], out=out[..., 0])
    return _divide_rows(out, norm, out)


def unit(v: np.ndarray) -> np.ndarray:
    """v / ||v|| row by row, with the same shape and degeneracy guards as zf_direction."""
    v = np.asarray(v)
    norm = _checked_norm(v, "normalise")
    return _divide_rows(v, norm, np.empty(v.shape, dtype=np.result_type(v, norm)))


def _divide_rows(v: np.ndarray, norm: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = v / norm[..., None], in one pass over the rows per entry of the last axis."""
    for i in range(v.shape[-1]):
        np.divide(v[..., i], norm, out=out[..., i])
    return out


def measure_error_exponent(a: float, snr_ladder, trials: int, seed: int = 0) -> float:
    """Estimate the CSIT error decay exponent from sampled errors.

    Computes mean ||error||^2 / 2 at each ladder point and returns the
    least-squares slope of -log2(mean) against log2(p); for errors drawn
    with variance p**-a the slope estimates a.  Trial t reads its row of
    the block streams once for the whole ladder; the block sums are
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
    return float(ladder_fit(ladder, log_means)[1])


@functools.lru_cache(maxsize=64)
def _ladder_basis(ps: Tuple[float, ...]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x = log2(ps) and ``np.polyfit``'s column-scaled degree-1 Vandermonde
    matrix on x with its column scales, read-only, as the fit shares them."""
    x = np.log2(ps)
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    for a in (x, lhs, scale):
        a.flags.writeable = False
    return x, lhs, scale


def ladder_fit(ps: Sequence[float], y: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x = log2(ps), then the slope and intercept of the least-squares line
    through each column of y against x.

    This is ``np.polyfit(x, y, 1)`` bit for bit: the same LAPACK
    least-squares call on the same scaled matrix, which is built once per
    ladder.  y is 1-D, or 2-D with one column per line.
    """
    x, lhs, scale = _ladder_basis(tuple(ps))
    c, _, rank, _ = np.linalg.lstsq(lhs, y, len(x) * np.finfo(float).eps)
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    return x, c[0] / scale[0], c[1] / scale[1]
