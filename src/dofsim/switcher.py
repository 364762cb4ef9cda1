"""Strategy switching: who wins where on the CSIT quality grid.

For every quality pair the three simple strategies (fdma, zfbf and -- in
the unmatched scenario -- s3) are scored by analytic sum DoF against the
optimal scheme.  A sweep rasterises the unit square and labels each cell
either with the winning simple strategy or with "optimal-needed" when even
the winner's ratio falls below the threshold rho.

Relabelling the users mirrors the problem, so a sweep scores each mirror
pair of cells once, as float64 arrays over the entries alpha <= beta: the
same closed forms (``schemes.analytic_sum_dof_at``) and winner rule as
``best_strategy``, applied elementwise (see ``SweepMap``).
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

#: Most cells a sweep rasters: the grid of step 0.001, 501 501 entries.
#: Memory grows with the cell count; a csv sweep of this grid peaks near
#: 129 MB unmatched and 76 MB matched, a json one near 72 MB unmatched (the
#: ``ru_maxrss`` of a fresh ``python -m dofsim sweep --step 0.001 --out
#: /dev/null`` process, x86-64, Python 3.11.7, numpy 2.4.6).
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
    """A scored grid: the grid axis, one score entry per mirror pair, and the cell-to-entry index.

    Cell k sits at (beta, alpha) = (grid[k // n], grid[k % n]), n = len(grid).
    The n(n+1)/2 entries are the cells with alpha <= beta in row-major order
    (``np.tril_indices(n)``): entry h(h+1)/2 + l scores cells (h, l) and (l, h),
    and ``mirror[k]`` (int32) is cell k's entry.  The score columns are float64
    over the entries, fdma's sum DoF (the same on every cell) a 0-d array;
    ``best`` indexes STRATEGIES; ``d_s3`` is None in the matched scenario.
    """

    scenario: str
    step: float
    rho: float
    grid: np.ndarray
    mirror: np.ndarray
    d_fdma: np.ndarray
    d_zfbf: np.ndarray
    d_s3: Optional[np.ndarray]
    d_opt: np.ndarray
    best: np.ndarray
    ratio: np.ndarray

    @cached_property
    def _counts(self) -> Dict[str, int]:
        names = STRATEGIES + (OPTIMAL_NEEDED,)
        labels = np.where(self.ratio < self.rho - _TIE_EPS, len(STRATEGIES), self.best)
        n, at = len(self.grid), np.arange(len(self.grid))
        # Cells (i, j), i <= j, row-major: each entry once, at its first cell.
        seen = labels[self.mirror.reshape(n, n)[at[:, None] <= at]]
        # An entry counts for its two cells, one on the diagonal for one.
        counts = (2 * np.bincount(seen, minlength=len(names))
                  - np.bincount(labels[self.mirror[::n + 1]], minlength=len(names)))
        present = sorted(np.flatnonzero(counts).tolist(), key=lambda k: np.argmax(seen == k))
        return {names[k]: int(counts[k]) for k in present}

    def counts_by_strategy(self) -> Dict[str, int]:
        """Cells per label, keyed in order of first appearance; counted once per map."""
        return dict(self._counts)

    def min_ratio(self) -> float:
        return float(self.ratio.min())

    def argmin(self) -> List[Tuple[float, float]]:
        near = self.ratio <= self.min_ratio() + 1e-9
        row, col = np.divmod(np.flatnonzero(near[self.mirror]), len(self.grid))
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


def _entries(grid: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each entry's (beta, alpha), alpha <= beta, and the cell-to-entry index ``mirror``."""
    at = np.arange(len(grid), dtype=np.int32)
    corner = (at * (at + 1) // 2)[:, None] + at  # entry h(h+1)/2 + l at (h, l) for l <= h
    mirror = np.maximum(corner, corner.T)  # below the diagonal, corner is the larger
    lower = at[:, None] >= at
    beta = np.broadcast_to(grid[:, None], corner.shape)
    return beta[lower], beta.T[lower], mirror.ravel()


def sweep(scenario: Scenario, step: float = 0.01, rho: float = 0.9) -> SweepMap:
    """Rasterise [0, 1]^2, scoring each mirror pair once (see ``SweepMap``)."""
    if not 0 < rho <= 1:
        raise ValueError(f"ratio threshold rho must lie in (0, 1], got {rho}")
    grid = _grid(step)
    hi, lo, mirror = _entries(grid)
    d_opt, *values = [np.asarray(analytic_sum_dof_at(name, hi, lo, scenario), dtype=float)
                      for name in ("optimal",) + _candidates(scenario)]
    del hi, lo  # the winner rule reads only the scores
    best, best_value = _pick(values)
    return SweepMap(
        scenario=scenario.kind, step=step, rho=rho, grid=grid, mirror=mirror,
        d_fdma=values[0], d_zfbf=values[1], d_s3=values[2] if len(values) > 2 else None,
        d_opt=d_opt, best=best, ratio=best_value / d_opt,
    )


CSV_HEADER = ["beta", "alpha", "d_fdma", "d_zfbf", "d_s3", "d_opt", "best", "ratio"]


def _distinct(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A score column's distinct values, and each entry's index into them."""
    values, inverse = np.unique(column, return_inverse=True)
    return values, inverse.astype(np.int32)  # a grid holds at most MAX_GRID_CELLS cells


def write_sweep_csv(m: SweepMap, stream: io.TextIOBase) -> None:
    """One row per cell; floats as repr so parsing the file is lossless.

    No field ever needs csv quoting: each is a float repr, a strategy
    name or empty.  Each score column's distinct values among the entries
    are formatted once (``str`` of a float is its repr) with the separator
    after them; a column of one value (fdma's sum DoF, matched's blank d_s3)
    rides on the field before it.  A block of rows is one ``take`` from that
    table, beta and alpha by the cell and the scores through ``mirror``,
    written with one ``write`` (the header with the first).
    """
    n = len(m.grid)
    fields = []  # [values, entry index, text after each value]
    for values, index in [(m.grid, None), (m.grid, None), _distinct(m.d_fdma),
                          _distinct(m.d_zfbf), _distinct("" if m.d_s3 is None else m.d_s3),
                          _distinct(m.d_opt), (np.array(STRATEGIES, dtype=object), m.best),
                          _distinct(m.ratio)]:
        if len(values) == 1:
            fields[-1][2] += str(values.tolist()[0]) + ","
        else:
            fields.append([values, index, ","])
    fields[-1][2] = fields[-1][2][:-1] + "\n"
    table = np.array([str(v) + end for values, _, end in fields for v in values.tolist()],
                     dtype=object)
    starts = np.cumsum([0] + [len(values) for values, _, _ in fields[:-1]])
    head = ",".join(CSV_HEADER) + "\n"  # rides with the first block: every grid has cells
    for lo in range(0, n * n, _CSV_BLOCK):
        hi = min(lo + _CSV_BLOCK, n * n)
        at = [*np.divmod(np.arange(lo, hi), n)] + [inv[m.mirror[lo:hi]] for _, inv, _ in fields[2:]]
        block = table.take(np.column_stack(at) + starts)
        stream.write(head + "".join(block.ravel().tolist()))
        head = ""


def write_summary_json(m: SweepMap, stream: io.TextIOBase) -> None:
    """The ``sweep --format json`` artifact: ``summary_dict`` through ``jsontext.dumps``."""
    stream.write(jsontext.dumps(m.summary_dict()))
