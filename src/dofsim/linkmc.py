"""Monte Carlo link layer: SIC step rates and DoF slope estimates.

The decoder walks the descriptor's compiled table (``schemes.DecodeTable``),
which the static achievability check walks over exponents, through index
arrays that ``_walk_arrays`` builds once for all equal tables: from the
cells it builds each link's received power once, in one pass over the
per-link columns (a nulled link reads e^H w, see ``_link_powers``),
gathers them per step, padded with a zero-power row, and gives every step
the rate log2(1 + S / (1 + I)), where I sums the powers the step has not
cancelled.  Rates come as one array with a leading step axis in
decode-plan order; each row of ``d.table.payloads`` names the steps
that decode its payload, whose worst rate the payload delivers.  The
DoF estimate is the slope of the mean delivered rate per channel use of
the two-subband frame against log2(P) over an SNR ladder.

The walk has one layout, that of ``channel.sample_ladder_cells``:
(cell, ladder point, trial, antenna).  One walk covers a block of trials
at every ladder point with a fixed number of array operations, in
sub-blocks of ``WALK_BLOCK`` trials that bound its temporaries;
``sic_rates`` and ``received_power`` take one realization or a block of
trials at one SNR and add the missing axes.  Trial t reads its
randomness once for the whole ladder, from row ``t % TRIAL_BLOCK`` of
its block's seeded stream (the channel module's RNG contract), so the
per-trial rate table is a pure function of (seed, trial index) and
means are bit-identical no matter how the trial range is partitioned.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
from typing import Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import jsontext
from .channel import (
    TRIAL_BLOCK,
    ChannelPair,
    check_snr,
    db_to_linear,
    ladder_fit,
    sample_ladder_cells,
    unit,
    zf_direction,
)
# Not called here, but kept importable as ``linkmc.trial_rng`` and
# ``linkmc.sample_realization``: the per-layer trace wraps them by this path.
from .channel import sample_realization, trial_rng  # noqa: F401
from .model import CELLS, SUBBANDS, QualityPair, Scenario, cell_index, check_seed
from .schemes import (PRECODER_KINDS, DecodeStep, DecodeTable, SchemeDescriptor, SymbolSpec,
                      _compile, credit_users)

#: Fit residual (bits per channel use) above which the slope estimate falls
#: back to the top SNR pair; the common layer's rate converges slowly.
RESIDUAL_FALLBACK = 0.02

#: Trials per sub-block of a walk: bounds its temporaries, which grow with
#: the links times the ladder points times the trials of one pass.
WALK_BLOCK = 1024

_E1 = np.array([1.0, 0.0], dtype=complex)


def _direction(kind: str, ref: np.ndarray) -> np.ndarray:
    """The zf_orth or aligned direction on its reference estimates ref."""
    return zf_direction(ref) if kind == "zf_orth" else unit(ref)


class _WalkArrays(NamedTuple):
    """A decode table's read-only index arrays, as the walk gathers through them."""

    #: (kind, its rows of the table's precoders, their reference cells), in
    #: ``PRECODER_KINDS`` order; basis_e1 references no cell (None)
    kinds: Tuple[Tuple[str, np.ndarray, Optional[np.ndarray]], ...]
    precoder: np.ndarray  # these three: the table's columns of the same names
    symbol: np.ndarray
    signal: np.ndarray
    interference: np.ndarray  # (steps, width), padded with the link count


def _indices(values) -> np.ndarray:
    """values as a read-only index array, safe to share between walks."""
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False
    return out


@functools.cache
def _walk_arrays(table: DecodeTable) -> _WalkArrays:
    """The walk's arrays of ``table``, built once for all equal tables."""
    pre, width = table.precoders, max(map(len, table.interference))
    rows = {kind: [r for r, p in enumerate(pre) if p.kind == kind] for kind in PRECODER_KINDS}
    kinds = tuple((kind, _indices(rs), None if kind == "basis_e1" else
                   _indices([cell_index(pre[r].user, pre[r].subband) for r in rs]))
                  for kind, rs in rows.items() if rs)
    padded = [row + (len(table.cell),) * (width - len(row)) for row in table.interference]
    return _WalkArrays(kinds, *map(_indices, (table.precoder, table.symbol, table.signal, padded)))


def _directions(estimate: np.ndarray, table: DecodeTable, walk: _WalkArrays) -> np.ndarray:
    """Every direction of the table, stacked on a leading axis.

    ``estimate`` is the stacked estimates, (cells, points, trials, 2).
    All zero-forcing directions come from one ``zf_direction`` call and
    all aligned ones from one ``unit`` call.
    """
    out = np.empty((len(table.precoders),) + estimate.shape[1:], dtype=complex)
    for kind, rows, refs in walk.kinds:
        out[rows] = _E1 if refs is None else _direction(kind, estimate[refs])
    return out


def _power_table(symbols: Sequence[SymbolSpec], walk: _WalkArrays, ps: Sequence[float]):
    """Each link's symbol power at each linear SNR in ps, shaped (links, points, 1)."""
    return np.array([[sym.power.value(p) for p in ps] for sym in symbols])[walk.symbol, :, None]


def _link_powers(cells: ChannelPair, table: DecodeTable, walk: _WalkArrays, power) -> np.ndarray:
    """|h^H w|^2 times the symbol's power for every link of the table.

    Returns shape (links + 1, points, trials) for cells shaped (cells,
    points, trials, 2) and the table's ``_power_table`` on their ladder;
    the extra last row is zero, for padding.  The directions are gathered
    once for all links, and each link's row gets its channel: e + ĥ, or e
    alone on a nulled link (``table.nulled``), which reads e^H w as
    ĥ^H w = 0 exactly.  Every later pass runs in place.
    """
    w = _directions(cells.estimate, table, walk)[walk.precoder]
    products = np.empty(w.shape, dtype=np.result_type(cells.estimate, w))
    for n, (c, nulled) in enumerate(zip(table.cell, table.nulled)):
        np.add(cells.error[c], 0.0 if nulled else cells.estimate[c], out=products[n])
    np.conjugate(products, out=products)
    products *= w
    summed = products[..., 0]
    summed += products[..., 1]
    out = np.empty((len(table.cell) + 1,) + w.shape[1:-1])
    out[-1] = 0.0
    powers = np.abs(summed, out=out[:-1])
    np.square(powers, out=powers)
    powers *= power
    return out


def _one_point(cells: ChannelPair, p: float):
    """One realization's or a block's cells in the walk's layout at a checked SNR p,
    and the index that drops the added point axis (and trial axis) from a walk's output."""
    shape = np.shape(cells.estimate)
    if shape[:1] != (len(CELLS),) or len(shape) not in (2, 3):
        raise ValueError(f"expected the {len(CELLS)} cells stacked in CELLS order, each a "
                         f"2-vector or a (trials, 2) block, got true channels of shape {shape}")
    check_snr(p)
    if len(shape) == 2:
        return cells[:, None, None], np.s_[:, 0, 0]
    return cells[:, None], np.s_[:, 0]


def received_power(cells: ChannelPair, sym: SymbolSpec, user: str, p: float):
    """|h^H w|^2 times the symbol's allocated power at linear SNR p.

    ``cells`` is one realization's or a block of trials' stacked cells.
    The link is compiled as a one-step plan.
    """
    table = _compile((sym,), (DecodeStep(user, sym.slot, sym.id),))
    walk = _walk_arrays(table)
    cells, drop = _one_point(cells, p)
    return _link_powers(cells, table, walk, _power_table((sym,), walk, [p]))[drop][0]


def _step_rates(d: SchemeDescriptor, cells: ChannelPair, ps: Sequence[float]):
    """The rate of every step of ``d.table`` at every linear SNR in ps.

    Returns shape (steps, points, trials) for cells shaped (cells, points,
    trials, 2), steps in plan order.  Each step's interference is summed
    in descriptor order, as a Python ``sum`` over its links would.  The
    power table is built once, the trials walked in sub-blocks of
    ``WALK_BLOCK``.  On a zero estimate this raises the error of the
    block's first degenerate direction, in first-use order, at the first
    ladder point that has one.
    """
    table = d.table
    walk = _walk_arrays(table)
    out = np.empty(walk.signal.shape + cells.estimate.shape[1:-1])
    power = _power_table(d.symbols, walk, ps)
    for lo in range(0, out.shape[2], WALK_BLOCK):
        part = np.s_[:, :, lo:lo + WALK_BLOCK]
        try:
            powers = _link_powers(cells[part], table, walk, power)
        except ValueError:
            for k in range(len(ps)):
                for pre in table.precoders:
                    if pre.kind != "basis_e1":
                        _direction(pre.kind, cells.estimate[cell_index(pre.user, pre.subband), k])
            raise
        total = sum(powers[links] for links in walk.interference.T)
        np.log2(1.0 + powers[walk.signal] / (1.0 + total), out=out[part])
        del powers, total  # before the next sub-block's walk
    return out


def sic_rates(d: SchemeDescriptor, cells: ChannelPair, p: float) -> np.ndarray:
    """Walk the decode table on one realization's stacked cells, or on a block of trials.

    At each step the target's received power S competes against unit noise
    plus the received powers I of all same-slot symbols that the step has
    not cancelled.  Returns shape (steps, ...), steps in decode-plan
    order, then the trial axis after the cell axis, if any.
    """
    cells, drop = _one_point(cells, p)
    return _step_rates(d, cells, [p])[drop]


def trial_rates(
    d: SchemeDescriptor,
    q: QualityPair,
    scenario: Scenario,
    p: float,
    trials: int,
    seed: int = 0,
    start: int = 0,
) -> np.ndarray:
    """Rate table for trials [start, start + trials), one row per trial.

    Columns follow the decode plan.  Row t depends only on (seed,
    start + t), so disjoint ranges computed separately concatenate into
    exactly the array a single full run would produce.  Raises ValueError
    if a rate is not finite (the received powers overflowed).
    """
    blocks = [rates[0] for rates in _ladder_rates(d, q, scenario, [p], trials, seed, start)]
    # In C order, so that a mean over trials adds them one row at a time.
    out = np.concatenate(blocks, out=np.empty((trials, len(d.table.signal))))
    _check_finite(out, f"{[p]} (linear)")
    return out


def _ladder_rates(
    d: SchemeDescriptor,
    q: QualityPair,
    scenario: Scenario,
    ps: Sequence[float],
    trials: int,
    seed: int,
    start: int,
) -> Iterator[np.ndarray]:
    """Rate tables of trials [start, start + trials) in blocks of TRIAL_BLOCK.

    Yields each block's rates, shaped (len(ps), trials in the block,
    steps), in trial order.  Each block is sampled once for the whole
    ladder and walked once.  Received powers can overflow at extreme SNR;
    the rates then come out inf or nan, and the caller rejects them with
    ``_check_finite``.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    _check_descriptor_matches(d, q, scenario)
    for lo in range(0, trials, TRIAL_BLOCK):
        cells = sample_ladder_cells(seed, q, scenario, ps, min(TRIAL_BLOCK, trials - lo), start + lo)
        with np.errstate(over="ignore", invalid="ignore"):
            rates = _step_rates(d, cells, ps)
        yield rates.transpose(1, 2, 0)


def _check_finite(rates: np.ndarray, ladder: str) -> None:
    """Raise ValueError, naming the ladder, if a rate is not finite."""
    if not np.isfinite(rates).all():
        raise ValueError(f"SNR ladder {ladder} overflows the received powers")


def _mean_rates(
    d: SchemeDescriptor,
    q: QualityPair,
    scenario: Scenario,
    ps: Sequence[float],
    trials: int,
    seed: int,
    ladder: str,
) -> np.ndarray:
    """Mean rate of each step at each linear SNR in ps over trials [0, trials).

    Shape (len(ps), steps), in O(TRIAL_BLOCK) memory.  Each block is
    accumulated onto the running sums with the sums as its first row, so
    the trials are added one at a time in trial order whatever the block
    size.  For tables of two or more steps that is how the mean of the
    whole rate table adds them, so the means are bit-identical to it.
    ``ladder`` names the ladder in the error on a rate that is not finite.
    """
    sums = np.zeros((len(ps), len(d.table.signal)))
    for block in _ladder_rates(d, q, scenario, ps, trials, seed, 0):
        sums = np.add.accumulate(np.concatenate([sums[:, None], block], axis=1), axis=1)[:, -1]
    _check_finite(sums, ladder)
    return sums / trials


def _check_descriptor_matches(d: SchemeDescriptor, q: QualityPair, scenario: Scenario) -> None:
    if d.scenario is not None and d.scenario != scenario.kind:
        raise ValueError(
            f"descriptor {d.name!r} was built for the {d.scenario} scenario, "
            f"not {scenario.kind}"
        )
    if d.quality is not None and (
        float(d.quality.beta) != float(q.beta) or float(d.quality.alpha) != float(q.alpha)
    ):
        raise ValueError(
            f"descriptor {d.name!r} was built for beta={d.quality.beta}, "
            f"alpha={d.quality.alpha}; simulation asked for beta={q.beta}, alpha={q.alpha}"
        )


def _slopes(ps: Sequence[float], y: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares slope, top-pair slope and max |residual| of each column of y on log2(ps).

    The fitted line is evaluated as ``np.polyval`` does, in Horner form.
    """
    x, slope, intercept = ladder_fit(ps, y)
    residual = np.abs(slope * x[:, None] + intercept - y).max(axis=0)
    top = (y[-1] - y[-2]) / (x[-1] - x[-2])
    return slope, top, residual


def _headline(ls: float, top: float, residual: float) -> float:
    return float(top if residual > RESIDUAL_FALLBACK else ls)


def _db_key(snr_db: float) -> str:
    return f"{float(snr_db):g}"


@dataclasses.dataclass(frozen=True)
class SimReport:
    """Result of one DoF estimation run; ``to_json`` is the ``simulate`` artifact."""

    scheme: str
    beta: float
    alpha: float
    scenario: str
    seed: int
    trials: int
    ladder_db: Tuple[float, ...]
    rates: Dict[str, Dict[str, float]]  # symbol -> snr_db key -> delivered rate
    dof: Dict[str, float]

    def to_dict(self) -> dict:
        # Shallow, not dataclasses.asdict, whose deep copy of each float is ~40x slower.
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def to_json(self) -> str:
        return jsontext.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "SimReport":
        """The report of ``doc``'s field entries; other keys are ignored."""
        fields = {f.name: doc[f.name] for f in dataclasses.fields(cls)}
        return cls(**{**fields, "ladder_db": tuple(doc["ladder_db"])})

    @classmethod
    def from_json(cls, text: str) -> "SimReport":
        return cls.from_dict(json.loads(text))


def estimate_dof(
    d: SchemeDescriptor,
    q: QualityPair,
    scenario: Scenario,
    ladder_db: Sequence[float],
    trials: int,
    seed: int = 0,
) -> SimReport:
    """Estimate per-user and sum DoF from rates across an SNR ladder.

    Rates are averaged per ladder point with common random numbers across
    points (the same trial rows), then regressed on log2(P).  When the
    fit's residual exceeds RESIDUAL_FALLBACK the headline slope switches
    to the top SNR pair, which sheds most of the finite-SNR offset; both
    estimates appear in the report.
    """
    seed, trials = check_seed(seed), operator.index(trials)  # plain ints, as JSON writes them
    ladder = [float(v) for v in ladder_db]
    if not all(math.isfinite(v) for v in ladder):
        raise ValueError(f"SNR ladder values must be finite, got {ladder_db}")
    if len(ladder) < 3 or sorted(ladder) != ladder or len(set(ladder)) != len(ladder):
        raise ValueError(f"SNR ladder must be strictly ascending with >= 3 points, got {ladder_db}")
    # Keys round monotonically, so points that share one are neighbours.
    keys = [_db_key(v) for v in ladder]
    for lo, hi, key, next_key in zip(ladder, ladder[1:], keys, keys[1:]):
        if key == next_key:
            raise ValueError(f"SNR ladder points {lo!r} and {hi!r} dB share the report key {key!r}")
    try:
        ps = [db_to_linear(v) for v in ladder]
    except OverflowError:
        raise ValueError(f"SNR ladder {ladder_db} dB overflows a linear SNR") from None
    if any(p <= 1 for p in ps):
        raise ValueError("every ladder point must exceed 0 dB")

    payloads = d.table.payloads
    sym_rates: Dict[str, Dict[str, float]] = {sym_id: {} for sym_id, _, _ in payloads}
    per_point = []  # (sum, user1, user2) at each ladder point
    means = _mean_rates(d, q, scenario, ps, trials, seed, ladder=f"{ladder_db} dB")
    for key, row in zip(keys, means.tolist()):
        # A payload delivers its worst decoder's rate once per frame of
        # len(SUBBANDS) equal-width subbands.
        delivered = {sym_id: min(row[c] for c in columns) / len(SUBBANDS)
                     for sym_id, _, columns in payloads}
        for sym_id, r in delivered.items():
            sym_rates[sym_id][key] = r
        u1, u2 = credit_users(d, delivered)
        per_point.append((u1 + u2, u1, u2))

    ls, top, res = _slopes(ps, np.array(per_point))
    dof = {
        "user1": _headline(ls[1], top[1], res[1]),
        "user2": _headline(ls[2], top[2], res[2]),
        "sum": _headline(ls[0], top[0], res[0]),
        "residual": float(res[0]),
        "sum_regression": float(ls[0]),
        "sum_top_pair": float(top[0]),
    }
    return SimReport(
        scheme=d.name,
        beta=float(q.beta),
        alpha=float(q.alpha),
        scenario=scenario.kind,
        seed=seed,
        trials=trials,
        ladder_db=tuple(ladder),
        rates=sym_rates,
        dof=dof,
    )
