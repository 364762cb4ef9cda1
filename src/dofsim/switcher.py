"""Strategy switching: who wins where on the CSIT quality grid.

For every quality pair the three simple strategies (fdma, zfbf and -- in
the unmatched scenario -- s3) are scored by analytic sum DoF against the
optimal scheme.  A sweep rasterises the unit square (cells below the
diagonal are evaluated on the swapped pair, since relabelling the users
mirrors the problem) and labels each cell either with the winning simple
strategy or with "optimal-needed" when even the winner's ratio falls
below the threshold rho.

A sweep is computed as float64 arrays over the whole grid: the same
closed forms (``schemes.analytic_sum_dof_at``) and the same winner rule
as ``best_strategy``, applied elementwise.  ``SweepMap`` keeps the
grid axis once and one score column per ``SweepCell`` field.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import jsontext
from .channel import QualityPair, Scenario
from .schemes import SCHEMES, analytic_sum_dof, analytic_sum_dof_at

#: Comparison slack: keeps exact ties (ratio == rho, equal sum DoF) stable
#: under floating-point noise.
_TIE_EPS = 1e-12

OPTIMAL_NEEDED = "optimal-needed"

#: Simple strategies in tie-break order; ``SweepMap.best`` indexes this.
STRATEGIES = ("fdma", "zfbf", "s3")

#: Rows of CSV text joined per write.
_CSV_BLOCK = 4096

#: Most cells a sweep rasters: the grid of step 0.001.  Memory grows with
#: the cell count; a csv sweep of this grid peaks near 146 MB unmatched and
#: 118 MB matched, a json one near 94 MB unmatched (the ``ru_maxrss`` of a
#: fresh ``python -m dofsim.cli sweep --step 0.001 --out /dev/null``
#: process, x86-64, Python 3.11.7, numpy 2.4.6).
MAX_GRID_CELLS = 1001 ** 2
_MAX_DIVISIONS = math.isqrt(MAX_GRID_CELLS) - 1


@dataclass(frozen=True)
class SweepCell:
    beta: float
    alpha: float
    d_fdma: float
    d_zfbf: float
    d_s3: Optional[float]
    d_opt: float
    best: str
    ratio: float


def _candidates(scenario: Scenario) -> Tuple[str, ...]:
    return tuple(name for name in STRATEGIES if scenario.kind in SCHEMES[name].scenarios)


def _pick(values: Sequence):
    """Index and value of the winning candidate, elementwise.

    A later candidate wins only if it beats the current best by more than
    _TIE_EPS, so ties go to the earlier strategy in STRATEGIES order.
    """
    best, best_value = 0, values[0]
    for k, value in enumerate(values[1:], start=1):
        better = value > best_value + _TIE_EPS
        best = np.where(better, k, best)
        best_value = np.where(better, value, best_value)
    return best, best_value


def _needs_optimal(ratio, rho: float):
    return ratio < rho - _TIE_EPS


def best_strategy(q: QualityPair, scenario: Scenario) -> SweepCell:
    """Score the simple strategies at one quality pair.

    ``best`` is the highest-DoF simple strategy, ties resolved by the
    fixed order fdma < zfbf < s3; ``ratio`` is its sum DoF over the
    optimal scheme's.  The formulas see ``q`` as given, so Fraction
    entries are exact until the final conversion to float.
    """
    values = [float(analytic_sum_dof(name, q, scenario)) for name in _candidates(scenario)]
    d_opt = float(analytic_sum_dof("optimal", q, scenario))
    best, best_value = _pick(values)
    return SweepCell(
        beta=float(q.beta), alpha=float(q.alpha),
        d_fdma=values[0], d_zfbf=values[1],
        d_s3=values[2] if len(values) > 2 else None, d_opt=d_opt,
        best=STRATEGIES[int(best)], ratio=float(best_value / d_opt),
    )


@dataclass(frozen=True, eq=False)
class SweepMap:
    """A scored grid: the grid axis once, then one array per score field.

    Cell k sits at (beta, alpha) = (grid[k // n], grid[k % n]) with
    n = len(grid), so cells run row-major in beta, then alpha.  The score
    columns are float64; ``best`` holds indices into STRATEGIES; ``d_s3``
    is None in the matched scenario.
    """

    scenario: str
    step: float
    rho: float
    grid: np.ndarray
    d_fdma: np.ndarray
    d_zfbf: np.ndarray
    d_s3: Optional[np.ndarray]
    d_opt: np.ndarray
    best: np.ndarray
    ratio: np.ndarray

    @cached_property
    def _counts(self) -> Dict[str, int]:
        names = STRATEGIES + (OPTIMAL_NEEDED,)
        labels = np.where(_needs_optimal(self.ratio, self.rho), len(STRATEGIES), self.best)
        counts = np.bincount(labels, minlength=len(names))
        present = sorted(np.flatnonzero(counts).tolist(), key=lambda k: np.argmax(labels == k))
        return {names[k]: int(counts[k]) for k in present}

    def counts_by_strategy(self) -> Dict[str, int]:
        """Cells per label, keyed in order of first appearance; counted once per map."""
        return dict(self._counts)

    def min_ratio(self) -> float:
        return float(self.ratio.min())

    def argmin(self) -> List[Tuple[float, float]]:
        row, col = np.divmod(np.flatnonzero(self.ratio <= self.min_ratio() + 1e-9), len(self.grid))
        return list(zip(self.grid[row].tolist(), self.grid[col].tolist()))

    def summary_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "step": self.step,
            "rho": self.rho,
            "min_ratio": self.min_ratio(),
            "argmin": [[b, a] for b, a in self.argmin()],
            "counts_by_strategy": self.counts_by_strategy(),
        }


def _grid(step: float) -> np.ndarray:
    if not 0 < step <= 0.1:
        raise ValueError(f"grid step must lie in (0, 0.1], got {step}")
    if step * _MAX_DIVISIONS < 1.0 - 1e-9:
        raise ValueError(
            f"grid step {step} rasters more than {MAX_GRID_CELLS} cells; "
            f"the smallest allowed step is {1 / _MAX_DIVISIONS:g}")
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"grid step must divide 1 evenly, got {step}")
    return np.arange(n + 1) / n


def sweep(scenario: Scenario, step: float = 0.01, rho: float = 0.9) -> SweepMap:
    """Rasterise [0, 1]^2 row-major in beta, then alpha.

    Cells with alpha > beta are evaluated on the swapped pair (user
    relabelling) but keep their own grid coordinates.
    """
    if not 0 < rho <= 1:
        raise ValueError(f"ratio threshold rho must lie in (0, 1], got {rho}")
    grid = _grid(step)
    hi, lo = np.maximum.outer(grid, grid).ravel(), np.minimum.outer(grid, grid).ravel()

    def score(name: str) -> np.ndarray:
        value = analytic_sum_dof_at(name, hi, lo, scenario)
        return np.broadcast_to(np.asarray(value, dtype=float), hi.shape)

    values = [score(name) for name in _candidates(scenario)]
    d_opt = score("optimal")
    best, best_value = _pick(values)
    return SweepMap(
        scenario=scenario.kind, step=step, rho=rho, grid=grid,
        d_fdma=values[0], d_zfbf=values[1], d_s3=values[2] if len(values) > 2 else None,
        d_opt=d_opt, best=best, ratio=best_value / d_opt,
    )


CSV_HEADER = ["beta", "alpha", "d_fdma", "d_zfbf", "d_s3", "d_opt", "best", "ratio"]


def _fields(column: np.ndarray, end: str) -> Tuple[np.ndarray, np.ndarray]:
    """Each distinct value's repr with ``end`` attached, and every entry's index into them."""
    if column.strides == (0,):  # a broadcast constant, like fdma's sum DoF: no sort
        values, inverse = column[:1], np.broadcast_to(np.int32(0), column.shape)
    else:
        values, inverse = np.unique(column, return_inverse=True)
        inverse = inverse.astype(np.int32)  # a grid holds at most MAX_GRID_CELLS cells
    return np.array([repr(v) + end for v in values.tolist()], dtype=object), inverse


def write_sweep_csv(m: SweepMap, stream: io.TextIOBase) -> None:
    """One row per cell; floats as repr so parsing the file is lossless.

    No field ever needs csv quoting: each is a float repr, a strategy
    name or empty.  Each field is formatted once per distinct value with
    its separator attached, so a block of rows is one join over a
    (rows, 8) table, written with one ``write`` (the header with the first).
    """
    n = len(m.ratio)
    # Cells run row-major over the grid axis, so beta and alpha index its fields directly.
    axis, _ = _fields(m.grid, ",")
    at = np.arange(len(axis), dtype=np.int32)
    no_s3 = (np.array([","], dtype=object), np.broadcast_to(0, n))
    best = (np.array([name + "," for name in STRATEGIES], dtype=object), m.best)
    columns = [
        (axis, np.repeat(at, len(at))), (axis, np.tile(at, len(at))), _fields(m.d_fdma, ","),
        _fields(m.d_zfbf, ","), no_s3 if m.d_s3 is None else _fields(m.d_s3, ","),
        _fields(m.d_opt, ","), best, _fields(m.ratio, "\n"),
    ]
    head = ",".join(CSV_HEADER) + "\n"  # rides with the first block: every grid has cells
    table = np.empty((min(n, _CSV_BLOCK), len(columns)), dtype=object)
    for lo in range(0, n, _CSV_BLOCK):
        block = table[:min(_CSV_BLOCK, n - lo)]
        for j, (fields, index) in enumerate(columns):
            block[:, j] = fields[index[lo:lo + len(block)]]
        stream.write(head + "".join(block.ravel().tolist()))
        head = ""


def write_summary_json(m: SweepMap, stream: io.TextIOBase) -> None:
    """The ``sweep --format json`` artifact: ``summary_dict`` through ``jsontext.dumps``."""
    stream.write(jsontext.dumps(m.summary_dict()))
