"""Monte Carlo link layer: instantaneous SIC rates and DoF slope estimates.

The decoder walks the descriptor's compiled table (``schemes.DecodeTable``),
the one the static achievability check walks over exponents: per linear
SNR it builds each precoder and each (symbol, user) received power once,
then gives every decode step the rate log2(1 + S / (1 + I)), where I sums
the powers the step has not cancelled.  Ergodic rates average those over
per-trial substreams; the DoF estimate is the slope of the rate per
channel use of the two-subband frame against log2(P) over an SNR ladder.

The walk is elementwise: a realization whose vectors carry a leading
trial axis (``channel.sample_ladder``) yields rate arrays with that axis,
so one walk per ladder point covers a whole block of trials.  Every trial
draws its randomness from ``trial_rng(seed, trial)``, once for the whole
ladder, so the per-trial rate table is a pure function of (seed, trial
index) and means are bit-identical no matter how the trial range is
partitioned.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channel import (
    SUBBANDS,
    TRIAL_BLOCK,
    ChannelRealization,
    QualityPair,
    Scenario,
    check_seed,
    db_to_linear,
    sample_ladder,
    unit,
    zf_direction,
)
# Not called here, but kept importable as ``linkmc.trial_rng`` and
# ``linkmc.sample_realization``: the per-layer trace wraps them by this path.
from .channel import sample_realization, trial_rng  # noqa: F401
from .schemes import Precoder, SchemeDescriptor, SymbolSpec, credit_users

#: Fit residual (bits per channel use) above which the slope estimate falls
#: back to the top SNR pair; the common layer's rate converges slowly.
RESIDUAL_FALLBACK = 0.02

_E1 = np.array([1.0, 0.0], dtype=complex)


def _direction(realization: ChannelRealization, pre: Precoder) -> np.ndarray:
    if pre.kind == "basis_e1":
        return _E1
    ref = realization.estimate(pre.user, pre.subband)
    return zf_direction(ref) if pre.kind == "zf_orth" else unit(ref)


def _link_power(h: np.ndarray, w: np.ndarray, power: float) -> np.ndarray:
    return np.abs(np.sum(h.conj() * w, axis=-1)) ** 2 * power


def received_power(realization: ChannelRealization, sym: SymbolSpec, user: str, p: float):
    """|h^H w|^2 times the symbol's allocated power at linear SNR p.

    Elementwise over any leading trial axis of the realization's vectors.
    """
    if p <= 1:
        raise ValueError(f"linear SNR must exceed 1, got {p}")
    return _link_power(realization.true(user, sym.slot), _direction(realization, sym.precoder),
                       sym.power.value(p))


def _step_rates(d: SchemeDescriptor, realization: ChannelRealization, p: float) -> list:
    """The rate of every step of ``d.table``, in decode-plan order."""
    directions: Dict[Precoder, np.ndarray] = {}
    powers = []
    for i, user in d.table.links:
        sym = d.symbols[i]
        if sym.precoder not in directions:
            directions[sym.precoder] = _direction(realization, sym.precoder)
        powers.append(_link_power(realization.true(user, sym.slot), directions[sym.precoder],
                                  sym.power.value(p)))
    return [np.log2(1.0 + powers[step.signal] / (1.0 + sum(powers[i] for i in step.interference)))
            for step in d.table.steps]


@dataclass(frozen=True)
class InstantRates:
    """Per-symbol rates, keyed by symbol id then decoding user.

    A rate is a number, or an array with one entry per trial.
    """

    rates: Dict[str, Dict[str, float]]

    def delivered(self, sym_id: str) -> float:
        """Rate credited to a symbol: the worst of its designated decoders."""
        return functools.reduce(np.minimum, self.rates[sym_id].values())


def sic_rates(d: SchemeDescriptor, realization: ChannelRealization, p: float) -> InstantRates:
    """Walk the decode table on one realization, or on a block of trials.

    At each step the target's received power S competes against unit noise
    plus the received powers I of all same-slot symbols that the step has
    not cancelled.  Rates have the realization's leading trial axis, if any.
    """
    if p <= 1:
        raise ValueError(f"linear SNR must exceed 1, got {p}")
    return _by_symbol(d, _step_rates(d, realization, p))


def _by_symbol(d: SchemeDescriptor, per_step: Sequence) -> InstantRates:
    rates: Dict[str, Dict[str, float]] = {}
    for (sym_id, user), rate in zip(rate_cells(d), per_step):
        rates.setdefault(sym_id, {})[user] = rate
    return InstantRates(rates)


def rate_cells(d: SchemeDescriptor) -> List[Tuple[str, str]]:
    """(symbol, decoding user) of each rate-table column: one per decode step, in plan order."""
    return [(d.symbols[step.target].id, step.user) for step in d.table.steps]


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

    Columns follow ``rate_cells(d)``.  Row t depends only on (seed,
    start + t), so disjoint ranges computed separately concatenate into
    exactly the array a single full run would produce.
    """
    return _ladder_rates(d, q, scenario, [p], trials, seed, start)[0]


def _ladder_rates(
    d: SchemeDescriptor,
    q: QualityPair,
    scenario: Scenario,
    ps: Sequence[float],
    trials: int,
    seed: int,
    start: int = 0,
    ladder: Optional[str] = None,
) -> np.ndarray:
    """Rate tables of trials [start, start + trials) at every linear SNR in ps.

    Shape (len(ps), trials, cells); ``out[k]`` is ``trial_rates`` at
    ``ps[k]``.  Trials go in blocks of TRIAL_BLOCK, each sampled once for
    the whole ladder and walked once per ladder point.  Raises ValueError
    if a rate is not finite (the received powers overflowed); ``ladder``
    names the ladder in that message, by default its linear SNRs.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    _check_descriptor_matches(d, q, scenario)
    out = np.empty((len(ps), trials, len(d.table.steps)))
    for lo in range(0, trials, TRIAL_BLOCK):
        n = min(TRIAL_BLOCK, trials - lo)
        realizations = sample_ladder(seed, q, scenario, ps, n, start + lo)
        for k, (p, realization) in enumerate(zip(ps, realizations)):
            # Received powers can overflow at extreme SNR; the rates then
            # come out inf or nan and are rejected below.
            with np.errstate(over="ignore", invalid="ignore"):
                rates = _step_rates(d, realization, p)
            for c, rate in enumerate(rates):
                out[k, lo:lo + n, c] = rate
    if not np.all(np.isfinite(out)):
        name = ladder if ladder is not None else f"{list(ps)} (linear)"
        raise ValueError(f"SNR ladder {name} overflows the received powers")
    return out


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


def ergodic_rates(
    d: SchemeDescriptor,
    q: QualityPair,
    scenario: Scenario,
    p: float,
    trials: int,
    seed: int = 0,
) -> InstantRates:
    """Mean per-symbol rates over independent trials (same layout as sic_rates)."""
    means = trial_rates(d, q, scenario, p, trials, seed).mean(axis=0)
    return _by_symbol(d, [float(v) for v in means])


def _slope(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares slope, top-pair slope and max |residual| of y on x."""
    coeffs = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(np.polyval(coeffs, x) - y)))
    top = float((y[-1] - y[-2]) / (x[-1] - x[-2]))
    return float(coeffs[0]), top, residual


def _headline(ls: float, top: float, residual: float) -> float:
    return top if residual > RESIDUAL_FALLBACK else ls


def _db_key(snr_db: float) -> str:
    return f"{float(snr_db):g}"


@dataclass(frozen=True)
class SimReport:
    """Result of one DoF estimation run, serialisable to JSON."""

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
        return {
            "scheme": self.scheme,
            "beta": self.beta,
            "alpha": self.alpha,
            "scenario": self.scenario,
            "seed": self.seed,
            "trials": self.trials,
            "ladder_db": list(self.ladder_db),
            "rates": {s: dict(per) for s, per in self.rates.items()},
            "dof": dict(self.dof),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "SimReport":
        return cls(
            scheme=doc["scheme"],
            beta=doc["beta"],
            alpha=doc["alpha"],
            scenario=doc["scenario"],
            seed=doc["seed"],
            trials=doc["trials"],
            ladder_db=tuple(doc["ladder_db"]),
            rates={s: dict(per) for s, per in doc["rates"].items()},
            dof=dict(doc["dof"]),
        )

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
    points (same trial substreams), then regressed on log2(P).  When the
    fit's residual exceeds RESIDUAL_FALLBACK the headline slope switches
    to the top SNR pair, which sheds most of the finite-SNR offset; both
    estimates appear in the report.
    """
    check_seed(seed)
    ladder = [float(v) for v in ladder_db]
    if not all(math.isfinite(v) for v in ladder):
        raise ValueError(f"SNR ladder values must be finite, got {ladder_db}")
    if len(ladder) < 3 or sorted(ladder) != ladder or len(set(ladder)) != len(ladder):
        raise ValueError(f"SNR ladder must be strictly ascending with >= 3 points, got {ladder_db}")
    try:
        ps = [db_to_linear(v) for v in ladder]
    except OverflowError:
        raise ValueError(f"SNR ladder {ladder_db} dB overflows a linear SNR") from None
    if any(p <= 1 for p in ps):
        raise ValueError("every ladder point must exceed 0 dB")

    payloads = d.table.payloads
    sym_rates: Dict[str, Dict[str, float]] = {sym_id: {} for sym_id, _ in payloads}
    sums, users1, users2 = [], [], []
    tables = _ladder_rates(d, q, scenario, ps, trials, seed, ladder=f"{ladder_db} dB")
    for snr_db, table in zip(ladder, tables):
        means = table.mean(axis=0)
        # A payload delivers its worst decoder's rate once per frame of
        # len(SUBBANDS) equal-width subbands.
        delivered = {sym_id: float(min(means[c] for c in columns)) / len(SUBBANDS)
                     for sym_id, columns in payloads}
        for sym_id, r in delivered.items():
            sym_rates[sym_id][_db_key(snr_db)] = r
        u1, u2 = credit_users(d, delivered)
        users1.append(u1)
        users2.append(u2)
        sums.append(u1 + u2)

    x = np.log2(ps)
    ls_sum, top_sum, res_sum = _slope(x, np.asarray(sums))
    ls_u1, top_u1, res_u1 = _slope(x, np.asarray(users1))
    ls_u2, top_u2, res_u2 = _slope(x, np.asarray(users2))
    dof = {
        "user1": _headline(ls_u1, top_u1, res_u1),
        "user2": _headline(ls_u2, top_u2, res_u2),
        "sum": _headline(ls_sum, top_sum, res_sum),
        "residual": res_sum,
        "sum_regression": ls_sum,
        "sum_top_pair": top_sum,
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
