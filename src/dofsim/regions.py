"""Degrees-of-freedom region algebra for the two-user downlink.

Every DoF region in this system is a two-user polymatroid

    {(d1, d2) >= 0 : d1 <= r1, d2 <= r2, d1 + d2 <= r12},

with max(r1, r2) <= r12 <= r1 + r2.  Regions are built from three
canonical blocks -- the no-CSIT triangle (1, 1, 1), the alternating-CSIT
pentagon (1, 1, 3/2) and the perfect-CSIT unit square (1, 1, 2) -- through
weighted Minkowski sums, and are compared with the converse bound
(1, 1, 1 + (beta+alpha)/2).

A region is stored by its two greedy corner points c1 = (r1, r12 - r1)
and c2 = (r12 - r2, r2).  The Minkowski sum of two polymatroids adds
their rank functions (Fujishige, *Submodular Functions and
Optimization*), so it adds their corners, and scaling multiplies them.
Arithmetic follows the input type: Fraction quality exponents give exact
regions.  The vertex ring is derived for output only.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

Point = Tuple[float, float]

#: Corner points (c1, c2) of the canonical building blocks, keyed by kind.
_CANONICAL = {
    "no_csit": ((1, 0), (0, 1)),
    "alternating": ((1, Fraction(1, 2)), (Fraction(1, 2), 1)),
    "perfect": ((1, 1), (1, 1)),
}


@dataclass(frozen=True)
class DofRegion:
    """Two-user polymatroid, held by its greedy corners c1 and c2.

    c1 maximises d1 first, c2 maximises d2 first; both lie in the
    nonnegative quadrant with c2 left of and above c1, and both sum to
    r12 (float corners within four ulps of the sum's magnitude).
    """

    c1: Point
    c2: Point

    def __post_init__(self) -> None:
        (x1, y1), (x2, y2) = self.c1, self.c2
        if not (0 <= x2 <= x1 and 0 <= y1 <= y2):
            raise ValueError(
                f"corners {self.c1} and {self.c2} do not bound a down-closed region "
                "in the nonnegative quadrant"
            )
        r12, other = x1 + y1, x2 + y2
        if r12 != other and abs(r12 - other) > 4 * sys.float_info.epsilon * max(r12, other):
            raise ValueError(f"corners {self.c1} and {self.c2} sum to {r12} and {other}")

    @property
    def ranks(self) -> Tuple[float, float, float]:
        """(r1, r2, r12): the bounds on d1, d2 and d1 + d2."""
        return self.c1[0], self.c2[1], self.c1[0] + self.c1[1]

    @property
    def vertices(self) -> Tuple[Point, ...]:
        """Float vertex ring, counterclockwise from the origin.

        The ring (0, 0), (r1, 0), c1, c2, (0, r2) with exact repeats dropped.
        """
        (x1, y1), (x2, y2) = self.c1, self.c2
        ring: List[Point] = []
        for x, y in ((0, 0), (x1, 0), (x1, y1), (x2, y2), (0, y2)):
            p = (float(x), float(y))
            if p not in ring:
                ring.append(p)
        return tuple(ring)

    def vertex_list(self) -> List[List[float]]:
        """Vertices as plain lists (JSON-friendly)."""
        return [[x, y] for x, y in self.vertices]


@functools.cache
def canonical(kind: str) -> DofRegion:
    """One of the unit-weight building blocks: no_csit, alternating, perfect."""
    try:
        return DofRegion(*_CANONICAL[kind])
    except KeyError:
        raise ValueError(f"unknown canonical region kind {kind!r}") from None


def scale(region: DofRegion, w) -> DofRegion:
    """Scale a region by a nonnegative weight (w = 0 collapses to the origin)."""
    if w < 0:
        raise ValueError(f"region weight must be nonnegative, got {w}")
    (x1, y1), (x2, y2) = region.c1, region.c2
    return DofRegion((w * x1, w * y1), (w * x2, w * y2))


def minkowski_sum(r1: DofRegion, r2: DofRegion) -> DofRegion:
    """Minkowski sum of two regions: their corners add."""
    (a1, b1), (a2, b2) = r1.c1, r1.c2
    (c1, d1), (c2, d2) = r2.c1, r2.c2
    return DofRegion((a1 + c1, b1 + d1), (a2 + c2, b2 + d2))


def _weighted(weights) -> List[Tuple[str, float, DofRegion]]:
    return [(name, w, scale(canonical(name), w)) for name, w in weights]


def components_unmatched(q) -> List[Tuple[str, float, DofRegion]]:
    """Weighted components of the unmatched-CSIT region, in display order.

    Returns [(name, weight, scaled region)] with weights
    perfect: alpha, alternating: beta - alpha, no_csit: 1 - beta.
    """
    return _weighted((("perfect", q.alpha), ("alternating", q.beta - q.alpha),
                      ("no_csit", 1 - q.beta)))


def components_matched(q) -> List[Tuple[str, float, DofRegion]]:
    """Weighted components of the matched-CSIT region, in display order."""
    w = (q.beta + q.alpha) / 2
    return _weighted((("perfect", w), ("no_csit", 1 - w)))


def compose(parts: List[Tuple[str, float, DofRegion]]) -> DofRegion:
    """The Minkowski sum of the scaled regions of ``components_*(q)``."""
    return functools.reduce(minkowski_sum, (region for _, _, region in parts))


def compose_unmatched(q) -> DofRegion:
    """(1-beta) * no_csit + (beta-alpha) * alternating + alpha * perfect."""
    return compose(components_unmatched(q))


def compose_matched(q) -> DofRegion:
    """(1-(beta+alpha)/2) * no_csit + ((beta+alpha)/2) * perfect."""
    return compose(components_matched(q))


def outer_bound(q) -> DofRegion:
    """Converse region: d1 <= 1, d2 <= 1, d1 + d2 <= 1 + (beta+alpha)/2."""
    s = 1 + (q.beta + q.alpha) / 2
    return DofRegion((1, s - 1), (s - 1, 1))


def region_equal(r1: DofRegion, r2: DofRegion, tol: float = 1e-9) -> bool:
    """Equality of the three ranks within tol (tol = 0 with Fractions is exact)."""
    return all(abs(a - b) <= tol for a, b in zip(r1.ranks, r2.ranks))
