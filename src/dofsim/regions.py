"""Degrees-of-freedom region algebra for the two-user downlink.

A DoF region here is a convex polygon in the nonnegative quadrant that is
down-closed (if a pair (d1, d2) is achievable, so is every componentwise
smaller pair).  Regions are built from three canonical building blocks --
the no-CSIT triangle, the alternating-CSIT polygon and the perfect-CSIT
unit square -- combined through weighted Minkowski sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

Point = Tuple[float, float]

_EPS = 1e-12

#: Vertex lists of the canonical building blocks, keyed by kind.
_CANONICAL = {
    "no_csit": ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
    "alternating": ((0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 1.0)),
    "perfect": ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
}


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _dedupe(points: Sequence[Point], tol: float) -> List[Point]:
    """Sorted points, each dropped if within tol of the last one kept."""
    out = [points[0]]
    for p in points[1:]:
        q = out[-1]
        if abs(p[0] - q[0]) > tol or abs(p[1] - q[1]) > tol:
            out.append(p)
    return out


def _hull_ccw(points: Sequence[Point]) -> List[Point]:
    """Monotone-chain hull, counterclockwise, collinear points dropped.

    The tolerances shrink with the point set's extent (capped at 1), so a
    region scaled by a tiny weight keeps its shape: cross products scale
    with the square of the extent.
    """
    pts = sorted(points)
    span = max(pts[-1][0] - pts[0][0], max(p[1] for p in pts) - min(p[1] for p in pts))
    span = min(1.0, span)
    pts = _dedupe(pts, _EPS * span)
    if len(pts) <= 2:
        return pts
    tol = _EPS * span * span
    lower: List[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= tol:
            lower.pop()
        lower.append(p)
    upper: List[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= tol:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _canonical_vertices(points: Iterable[Point]) -> Tuple[Point, ...]:
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("a region needs at least one vertex")
    for x, y in pts:
        if x < -_EPS or y < -_EPS:
            raise ValueError(f"vertex ({x}, {y}) outside the nonnegative quadrant")
    # Down-closure: every vertex drags its axis projections (and the origin)
    # into the region before the hull pass.
    aug: List[Point] = [(0.0, 0.0)]
    for x, y in pts:
        x, y = max(x, 0.0), max(y, 0.0)
        aug.extend([(x, y), (x, 0.0), (0.0, y)])
    return tuple(_hull_ccw(aug))


@dataclass(frozen=True)
class DofRegion:
    """Down-closed convex DoF polygon.

    ``vertices`` is kept in canonical form: counterclockwise, starting at
    the origin, no duplicate or collinear points.  Any iterable of points
    may be passed in; the constructor canonicalises.
    """

    vertices: Tuple[Point, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _canonical_vertices(self.vertices))

    def vertex_list(self) -> List[List[float]]:
        """Vertices as plain lists (JSON-friendly)."""
        return [[x, y] for x, y in self.vertices]


def canonical(kind: str) -> DofRegion:
    """One of the unit-weight building blocks: no_csit, alternating, perfect."""
    try:
        return DofRegion(_CANONICAL[kind])
    except KeyError:
        raise ValueError(f"unknown canonical region kind {kind!r}") from None


def scale(region: DofRegion, w: float) -> DofRegion:
    """Scale a region by a nonnegative weight (w = 0 collapses to the origin)."""
    if w < 0:
        raise ValueError(f"region weight must be nonnegative, got {w}")
    return DofRegion(tuple((w * x, w * y) for x, y in region.vertices))


def _edge_angle(e: Point) -> float:
    t = math.atan2(e[1], e[0])
    return t if t >= 0 else t + 2.0 * math.pi


def _edges(vertices: Sequence[Point]) -> List[Point]:
    n = len(vertices)
    return [
        (vertices[(i + 1) % n][0] - vertices[i][0], vertices[(i + 1) % n][1] - vertices[i][1])
        for i in range(n)
    ]


def minkowski_sum(r1: DofRegion, r2: DofRegion) -> DofRegion:
    """Minkowski sum of two regions via the rotating edge merge.

    Both canonical vertex rings start at the origin, which is the
    bottom-left-most vertex, so the two edge sequences are each sorted by
    polar angle and can be merged in a single pass.
    """
    a, b = r1.vertices, r2.vertices
    if len(a) == 1:
        (dx, dy) = a[0]
        return DofRegion(tuple((x + dx, y + dy) for x, y in b))
    if len(b) == 1:
        (dx, dy) = b[0]
        return DofRegion(tuple((x + dx, y + dy) for x, y in a))
    ea, eb = _edges(a), _edges(b)
    out: List[Point] = [(a[0][0] + b[0][0], a[0][1] + b[0][1])]
    i = j = 0
    while i < len(ea) or j < len(eb):
        if j >= len(eb):
            step, i = ea[i], i + 1
        elif i >= len(ea):
            step, j = eb[j], j + 1
        else:
            ti, tj = _edge_angle(ea[i]), _edge_angle(eb[j])
            if abs(ti - tj) <= _EPS:
                step = (ea[i][0] + eb[j][0], ea[i][1] + eb[j][1])
                i, j = i + 1, j + 1
            elif ti < tj:
                step, i = ea[i], i + 1
            else:
                step, j = eb[j], j + 1
        last = out[-1]
        out.append((last[0] + step[0], last[1] + step[1]))
    return DofRegion(tuple(out))


def components_unmatched(q) -> List[Tuple[str, float, DofRegion]]:
    """Weighted components of the unmatched-CSIT region, in display order.

    Returns [(name, weight, scaled region)] with weights
    perfect: alpha, alternating: beta - alpha, no_csit: 1 - beta.
    """
    beta, alpha = q.beta, q.alpha
    return [
        ("perfect", float(alpha), scale(canonical("perfect"), float(alpha))),
        ("alternating", float(beta - alpha), scale(canonical("alternating"), float(beta - alpha))),
        ("no_csit", float(1 - beta), scale(canonical("no_csit"), float(1 - beta))),
    ]


def components_matched(q) -> List[Tuple[str, float, DofRegion]]:
    """Weighted components of the matched-CSIT region, in display order."""
    w = float(q.beta + q.alpha) / 2.0
    return [
        ("perfect", w, scale(canonical("perfect"), w)),
        ("no_csit", 1.0 - w, scale(canonical("no_csit"), 1.0 - w)),
    ]


def _compose(parts: List[Tuple[str, float, DofRegion]]) -> DofRegion:
    acc = DofRegion(((0.0, 0.0),))
    for _, _, region in parts:
        acc = minkowski_sum(acc, region)
    return acc


def compose_unmatched(q) -> DofRegion:
    """(1-beta) * no_csit + (beta-alpha) * alternating + alpha * perfect."""
    return _compose(components_unmatched(q))


def compose_matched(q) -> DofRegion:
    """(1-(beta+alpha)/2) * no_csit + ((beta+alpha)/2) * perfect."""
    return _compose(components_matched(q))


def _clip_halfplane(poly: List[Point], a: float, b: float, c: float) -> List[Point]:
    """Keep the part of a convex polygon with a*x + b*y <= c."""
    out: List[Point] = []
    n = len(poly)
    for k in range(n):
        p, q = poly[k], poly[(k + 1) % n]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp <= _EPS:
            out.append(p)
        if (fp < -_EPS and fq > _EPS) or (fp > _EPS and fq < -_EPS):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def outer_bound(q) -> DofRegion:
    """Converse region: d1 <= 1, d2 <= 1, d1 + d2 <= 1 + (beta+alpha)/2."""
    s = 1.0 + float(q.beta + q.alpha) / 2.0
    poly: List[Point] = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    for plane in ((1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, s)):
        poly = _clip_halfplane(poly, *plane)
    return DofRegion(tuple(poly))


def support(region: DofRegion, direction: Tuple[float, float]) -> float:
    """Support function: max over vertices of the dot product with direction."""
    dx, dy = direction
    return max(dx * x + dy * y for x, y in region.vertices)


def contains(region: DofRegion, point: Tuple[float, float], tol: float = 1e-9) -> bool:
    """All-edges half-plane test (tolerance makes boundary points inside)."""
    x, y = point
    v = region.vertices
    if x < -tol or y < -tol:
        return False
    if len(v) == 1:
        return abs(x - v[0][0]) <= tol and abs(y - v[0][1]) <= tol
    if len(v) == 2:
        # Degenerate segment: distance from the point to the segment.
        (x0, y0), (x1, y1) = v
        ex, ey = x1 - x0, y1 - y0
        t = max(0.0, min(1.0, ((x - x0) * ex + (y - y0) * ey) / (ex * ex + ey * ey)))
        return math.hypot(x - (x0 + t * ex), y - (y0 + t * ey)) <= tol
    n = len(v)
    for k in range(n):
        p, q = v[k], v[(k + 1) % n]
        if _cross(p, q, (x, y)) < -tol:
            return False
    return True


def region_equal(r1: DofRegion, r2: DofRegion, tol: float = 1e-9) -> bool:
    """Equality by mutual vertex containment within tol."""
    return all(contains(r2, p, tol) for p in r1.vertices) and all(
        contains(r1, p, tol) for p in r2.vertices
    )
