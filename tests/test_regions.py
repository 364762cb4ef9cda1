"""Tests for the DoF-region polymatroid algebra.

The corner-sum Minkowski implementation is checked against two independent
oracles: the convex hull of all pairwise vertex sums (via scipy) and
support-function additivity over a fan of directions.  The composed
regions are checked the same way, against the iterated hull of the scaled
building blocks' vertex sums.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from dofsim import regions as reg
from dofsim.channel import QualityPair


def contains(region, point, tol=1e-9):
    """Rank test: every constraint of the region holds at the point, within tol."""
    x, y = point
    r1, r2, r12 = region.ranks
    return -tol <= x <= r1 + tol and -tol <= y <= r2 + tol and x + y <= r12 + tol


_COMPOSERS = (
    (reg.compose_unmatched, reg.components_unmatched),
    (reg.compose_matched, reg.components_matched),
)


def _support(region, direction):
    """Support function on the vertex ring: max dot product with direction."""
    return max(direction[0] * x + direction[1] * y for x, y in region.vertices)


def _sorted_vertices(region):
    return sorted(region.vertices)


def _from_ranks(r1, r2, r12):
    """The polymatroid {d1 <= r1, d2 <= r2, d1 + d2 <= r12} by its corners."""
    return reg.DofRegion((r1, r12 - r1), (r12 - r2, r2))


def _random_region(rng):
    """Random full-dimensional polymatroid on a dyadic grid (floats are exact)."""
    r1, r2 = (Fraction(int(k), 64) for k in rng.integers(1, 97, size=2))
    r12 = max(r1, r2) + Fraction(int(rng.integers(0, 65)), 64) * min(r1, r2)
    return _from_ranks(r1, r2, r12)


#: Quality pairs a gap of 10**-k from the edges of the square: near
#: beta = alpha (in the middle and at the top), alpha = 0 and beta = 1.
#: Each one gives some region component a weight of about the gap.
EDGE_PAIRS = [pair for k in range(1, 13) for pair in (
    (0.5, 0.5 - 10.0 ** -k), (1.0, 1.0 - 10.0 ** -k),
    (0.5, 10.0 ** -k), (1.0 - 10.0 ** -k, 0.5),
)]


def _random_pairs(seed, n):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        pairs.append((float(hi), float(lo)))
    return pairs


# ---------------------------------------------------------------------------
# canonical building blocks


def test_canonical_no_csit_vertices():
    r = reg.canonical("no_csit")
    assert r.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def test_canonical_alternating_vertices():
    r = reg.canonical("alternating")
    assert r.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 1.0))


def test_canonical_perfect_vertices():
    r = reg.canonical("perfect")
    assert r.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def test_canonical_unknown_kind():
    with pytest.raises(ValueError):
        reg.canonical("best_effort")


def test_alternating_sum_face_point():
    # (0.75, 0.75) sits on the d1 + d2 = 1.5 face.
    assert contains(reg.canonical("alternating"), (0.75, 0.75))
    assert not contains(reg.canonical("alternating"), (0.76, 0.76))


def test_perfect_contains_corner():
    assert contains(reg.canonical("perfect"), (1.0, 1.0))


# ---------------------------------------------------------------------------
# scaling


def test_scale_half_perfect_is_half_square():
    r = reg.scale(reg.canonical("perfect"), 0.5)
    assert r.vertices == ((0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5))


def test_scale_zero_collapses_to_origin():
    r = reg.scale(reg.canonical("alternating"), 0.0)
    assert r.vertices == ((0.0, 0.0),)


def test_scale_one_is_identity():
    r = reg.canonical("no_csit")
    assert reg.scale(r, 1.0).vertices == r.vertices


def test_scale_negative_weight_rejected():
    with pytest.raises(ValueError):
        reg.scale(reg.canonical("perfect"), -0.1)


# ---------------------------------------------------------------------------
# corner-point representation


def test_constructor_enforces_down_closure():
    r = reg.DofRegion((0.9, 0.2), (0.4, 0.7))
    assert r.ranks == (0.9, 0.7, 0.9 + 0.2)
    assert r.vertices == ((0.0, 0.0), (0.9, 0.0), (0.9, 0.2), (0.4, 0.7), (0.0, 0.7))
    for p in [(0.0, 0.0), (0.9, 0.0), (0.0, 0.7), (0.4, 0.0), (0.0, 0.2), (0.9, 0.2), (0.4, 0.7)]:
        assert contains(r, p)
    assert not contains(r, (0.9, 0.21))


def test_constructor_rejects_negative_coordinates():
    with pytest.raises(ValueError):
        reg.DofRegion((0.5, -0.2), (0.0, 0.0))
    with pytest.raises(ValueError):
        reg.DofRegion((0.5, 0.0), (-0.1, 0.3))
    # c2 must lie left of and above c1.
    with pytest.raises(ValueError):
        reg.DofRegion((0.3, 0.7), (0.9, 0.2))


def test_constructor_rejects_unequal_corner_sums():
    # Both corners of a polymatroid lie on the facet d1 + d2 = r12.
    with pytest.raises(ValueError, match="sum to 1.5 and 1.2"):
        reg.DofRegion((1, 0.5), (0.2, 1))
    # One rounding apart is the same sum: 0.2 + 0.1 and 0.0 + 0.3 differ in the last bit.
    assert 0.2 + 0.1 != 0.0 + 0.3
    assert reg.DofRegion((0.2, 0.1), (0.0, 0.3)).ranks == (0.2, 0.3, 0.2 + 0.1)


def test_every_built_region_has_equal_corner_sums():
    pairs = _random_pairs(19, 300) + EDGE_PAIRS + [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    for b, a in pairs:
        for q in (QualityPair(b, a), QualityPair(Fraction(b), Fraction(a))):
            # Building each region runs the constructor's corner-sum check.
            built = [reg.outer_bound(q)]
            for compose, components in _COMPOSERS:
                built.append(compose(q))
                built.extend(region for _, _, region in components(q))
            assert all(isinstance(r, reg.DofRegion) for r in built)


def test_degenerate_point_region():
    r = reg.DofRegion((0.0, 0.0), (0.0, 0.0))
    assert r.vertices == ((0.0, 0.0),)
    assert contains(r, (0.0, 0.0))
    assert not contains(r, (0.1, 0.0))


def test_degenerate_segment_region():
    r = reg.DofRegion((0.5, 0.0), (0.5, 0.0))
    assert r.vertices == ((0.0, 0.0), (0.5, 0.0))
    assert contains(r, (0.25, 0.0))
    assert not contains(r, (0.25, 0.01))
    assert not contains(r, (0.51, 0.0))


_RANK = st.fractions(0, 2, max_denominator=1000)


@settings(max_examples=200, deadline=None)
@given(_RANK, _RANK, st.fractions(0, 1, max_denominator=1000))
def test_canonical_form_invariants(r1, r2, t):
    r12 = max(r1, r2) + t * min(r1, r2)
    r = _from_ranks(r1, r2, r12)
    v = r.vertices
    assert r.ranks == (r1, r2, r12)
    assert v[0] == (0.0, 0.0), "canonical ring starts at the origin"
    assert len(set(v)) == len(v), "no duplicate vertices"
    assert all(x >= 0 and y >= 0 for x, y in v)
    assert all(isinstance(c, float) for p in v for c in p)
    if len(v) >= 3:
        # Strictly convex counterclockwise ring: every turn is a left turn.
        n = len(v)
        for i in range(n):
            o, a, b = v[i], v[(i + 1) % n], v[(i + 2) % n]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0, f"vertices {o}, {a}, {b} are not a left turn"
    # The ranks are the support values along the three constraint normals.
    # Each is one rounded float sum away from the exact rank.
    assert (_support(r, (1, 0)), _support(r, (0, 1)), _support(r, (1, 1))) == \
        pytest.approx((r1, r2, r12), rel=1e-15)


# ---------------------------------------------------------------------------
# Minkowski sums


def test_minkowski_origin_is_additive_identity():
    tri = reg.canonical("no_csit")
    origin = reg.DofRegion((0.0, 0.0), (0.0, 0.0))
    assert reg.minkowski_sum(tri, origin).vertices == tri.vertices
    assert reg.minkowski_sum(origin, tri).vertices == tri.vertices


def test_minkowski_support_example():
    s = reg.minkowski_sum(
        reg.scale(reg.canonical("perfect"), 0.5),
        reg.scale(reg.canonical("no_csit"), 0.2),
    )
    d = (1 / math.sqrt(2), 1 / math.sqrt(2))
    assert _support(s, d) == pytest.approx((0.5 + 0.5 + 0.2) / math.sqrt(2), abs=1e-12)


def test_weighted_sum_face_value():
    s = reg.minkowski_sum(
        reg.minkowski_sum(
            reg.scale(reg.canonical("perfect"), 0.5),
            reg.scale(reg.canonical("alternating"), 0.3),
        ),
        reg.scale(reg.canonical("no_csit"), 0.2),
    )
    assert _support(s, (1.0, 1.0)) == pytest.approx(0.5 * 2 + 0.3 * 1.5 + 0.2 * 1, abs=1e-12)


def test_minkowski_matches_pairwise_hull_oracle():
    """Corner sum == scipy convex hull of all pairwise vertex sums.

    The regions sit on a dyadic grid, so every float is exact and the hull's
    vertex set must equal the sum's vertex ring.
    """
    rng = np.random.default_rng(1905)
    for _ in range(60):
        r1, r2 = _random_region(rng), _random_region(rng)
        result = reg.minkowski_sum(r1, r2)
        sums = np.array([
            (x1 + x2, y1 + y2) for x1, y1 in r1.vertices for x2, y2 in r2.vertices
        ])
        oracle = sorted(map(tuple, sums[ConvexHull(sums).vertices].tolist()))
        assert oracle == sorted(result.vertices), (
            f"corner sum disagrees with hull oracle for {r1} + {r2}"
        )


def test_minkowski_support_additivity_360():
    rng = np.random.default_rng(42)
    angles = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    for _ in range(20):
        r1, r2 = _random_region(rng), _random_region(rng)
        s = reg.minkowski_sum(r1, r2)
        for t in angles:
            d = (math.cos(t), math.sin(t))
            assert _support(s, d) == pytest.approx(
                _support(r1, d) + _support(r2, d), abs=1e-9
            )


def test_scaling_linearity():
    rng = np.random.default_rng(7)
    for kind in ("no_csit", "alternating", "perfect"):
        r = reg.canonical(kind)
        for _ in range(10):
            w1, w2 = rng.uniform(0, 1, size=2)
            lhs = reg.scale(r, w1 + w2)
            rhs = reg.minkowski_sum(reg.scale(r, w1), reg.scale(r, w2))
            assert reg.region_equal(lhs, rhs, 1e-9)


# ---------------------------------------------------------------------------
# composition and the converse bound


def test_compose_unmatched_reference_point():
    got = _sorted_vertices(reg.compose_unmatched(QualityPair(0.8, 0.5)))
    want = sorted([(0.0, 0.0), (1.0, 0.0), (1.0, 0.65), (0.65, 1.0), (0.0, 1.0)])
    assert len(got) == len(want)
    for (gx, gy), (wx, wy) in zip(got, want):
        assert gx == pytest.approx(wx, abs=1e-9)
        assert gy == pytest.approx(wy, abs=1e-9)


def test_compose_unmatched_perfect_corner_is_square():
    assert reg.region_equal(
        reg.compose_unmatched(QualityPair(1.0, 1.0)), reg.canonical("perfect"), 1e-12
    )


def test_compose_matched_zero_corner_is_triangle():
    assert reg.region_equal(
        reg.compose_matched(QualityPair(0.0, 0.0)), reg.canonical("no_csit"), 1e-12
    )


def test_components_unmatched_weights_and_order():
    parts = reg.components_unmatched(QualityPair(0.8, 0.5))
    assert [(name, pytest.approx(w)) for name, w, _ in parts] == [
        ("perfect", pytest.approx(0.5)),
        ("alternating", pytest.approx(0.3)),
        ("no_csit", pytest.approx(0.2)),
    ]


def test_components_matched_weights():
    parts = reg.components_matched(QualityPair(0.8, 0.5))
    assert [(n, pytest.approx(w)) for n, w, _ in parts] == [
        ("perfect", pytest.approx(0.65)),
        ("no_csit", pytest.approx(0.35)),
    ]


def test_outer_bound_reference_point():
    r = reg.outer_bound(QualityPair(0.8, 0.5))
    assert len(r.vertices) == 5
    assert _support(r, (1.0, 1.0)) == pytest.approx(1.65, abs=1e-12)
    assert contains(r, (1.0, 0.65))
    assert not contains(r, (1.0, 0.66))


def test_outer_bound_corners():
    assert reg.region_equal(reg.outer_bound(QualityPair(1.0, 1.0)),
                            reg.canonical("perfect"), 1e-12)
    assert reg.region_equal(reg.outer_bound(QualityPair(0.0, 0.0)),
                            reg.canonical("no_csit"), 1e-12)


@settings(max_examples=150, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_composition_equals_outer_bound(x, y):
    q = QualityPair(max(x, y), min(x, y))
    assert reg.region_equal(reg.compose_unmatched(q), reg.outer_bound(q), 1e-9)
    assert reg.region_equal(reg.compose_matched(q), reg.outer_bound(q), 1e-9)


_GAPS = [10.0 ** -k for k in range(4, 13)]


@pytest.mark.parametrize("weight, pair", [
    # One component weight equal to the gap g, for each weight that can shrink.
    ("unmatched perfect: alpha", lambda g: QualityPair(0.5, g)),
    ("unmatched alternating: beta - alpha", lambda g: QualityPair(0.7 + g, 0.7)),
    ("unmatched no_csit: 1 - beta", lambda g: QualityPair(1.0 - g, 0.3)),
    ("matched no_csit: 1 - (beta + alpha) / 2", lambda g: QualityPair(1.0, 1.0 - 2 * g)),
])
def test_small_component_weights_keep_their_shape(weight, pair):
    # The hull tolerances follow the point set's extent, so a component
    # scaled by a tiny weight keeps every vertex of its building block and
    # the composition still meets the converse bound.
    for g in _GAPS:
        q = pair(g)
        for compose, components in ((reg.compose_unmatched, reg.components_unmatched),
                                    (reg.compose_matched, reg.components_matched)):
            assert reg.region_equal(compose(q), reg.outer_bound(q), 1e-9), (weight, g)
            for name, w, region in components(q):
                if w > 0:
                    assert len(region.vertices) == len(reg.canonical(name).vertices), \
                        (weight, g, name)


def test_scale_by_a_tiny_weight_keeps_every_vertex():
    for kind in ("no_csit", "alternating", "perfect"):
        unit = reg.canonical(kind)
        for w in _GAPS:
            assert reg.scale(unit, w).vertices == tuple((w * x, w * y) for x, y in unit.vertices)


def test_composition_monotone_in_quality():
    rng = np.random.default_rng(99)
    for _ in range(50):
        a, b, da, db = rng.uniform(0, 1, size=4)
        lo = QualityPair(max(a, b), min(a, b))
        hi = QualityPair(min(1.0, lo.beta + db), min(min(1.0, lo.beta + db), lo.alpha + da))
        small, big = reg.compose_unmatched(lo), reg.compose_unmatched(hi)
        assert all(contains(big, p) for p in small.vertices)


def test_support_trivial():
    assert _support(reg.canonical("no_csit"), (1.0, 0.0)) == 1.0


def test_region_equal_respects_tolerance():
    r = reg.outer_bound(QualityPair(0.8, 0.5))
    nudged = reg.minkowski_sum(r, reg.scale(reg.canonical("no_csit"), 1e-12))
    off = reg.scale(r, 1 + 1e-6)
    assert reg.region_equal(r, nudged, 1e-9)
    assert not reg.region_equal(r, off, 1e-9)
    exact = reg.outer_bound(QualityPair(Fraction(4, 5), Fraction(1, 2)))
    tiny = reg.scale(reg.canonical("no_csit"), Fraction(1, 10**30))
    assert reg.region_equal(exact, reg.minkowski_sum(exact, reg.scale(tiny, 0)), tol=0)
    assert not reg.region_equal(exact, reg.minkowski_sum(exact, tiny), tol=0)


def test_thousand_random_compositions_under_five_seconds():
    rng = np.random.default_rng(20250825)
    t0 = time.perf_counter()
    for _ in range(1000):
        x, y = rng.uniform(0, 1, size=2)
        q = QualityPair(max(x, y), min(x, y))
        assert reg.region_equal(reg.compose_unmatched(q), reg.outer_bound(q), 1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"1000 compositions took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# exact composition, symmetry and the hull oracle for composed regions


@settings(max_examples=200, deadline=None)
@given(st.fractions(0, 1), st.fractions(0, 1))
def test_composition_is_exact_on_fraction_pairs(x, y):
    q = QualityPair(max(x, y), min(x, y))
    outer = reg.outer_bound(q)
    for compose, _ in _COMPOSERS:
        composed = compose(q)
        assert composed == outer
        assert reg.region_equal(composed, outer, tol=0)


def test_composed_region_reaches_the_top_edge_near_beta_equal_alpha_one():
    # The composed top edge sits at d2 = 1 exactly, and the outer bound
    # keeps its d1 + d2 facet although it is only 5e-13 below the corner (1, 1).
    q = QualityPair(1.0, 0.999999999999)
    for compose, _ in _COMPOSERS:
        v = compose(q).vertices
        assert max(y for _, y in v) == 1.0 and max(x for x, _ in v) == 1.0
    outer = reg.outer_bound(q).vertices
    assert outer == ((0.0, 0.0), (1.0, 0.0), (1.0, 0.9999999999995),
                     (0.9999999999995, 1.0), (0.0, 1.0))


def test_composed_corner_sits_on_the_top_edge():
    q = QualityPair(0.5, 0.499999999999)
    assert reg.compose_unmatched(q).vertices == (
        (0.0, 0.0), (1.0, 0.0), (1.0, 0.4999999999995), (0.4999999999995, 1.0), (0.0, 1.0))


def _exact_ring(region):
    (x1, y1), (x2, y2) = region.c1, region.c2
    ring = []
    for p in ((0, 0), (x1, 0), (x1, y1), (x2, y2), (0, y2)):
        if p not in ring:
            ring.append(p)
    return ring


def test_composed_rings_are_mirror_symmetric_and_near_exact():
    grid = [i / 20 for i in range(21)]
    pairs = _random_pairs(31, 300) + EDGE_PAIRS + [(b, a) for b in grid for a in grid if a <= b]
    for b, a in pairs:
        exact_q = QualityPair(Fraction(b), Fraction(a))
        for compose, _ in _COMPOSERS:
            v = compose(QualityPair(b, a)).vertices
            assert sorted(v) == sorted((y, x) for x, y in v), (b, a, v)
            exact = _exact_ring(compose(exact_q))
            assert len(exact) == len(v), (b, a, v)
            for p, e in zip(v, exact):
                assert abs(Fraction(p[0]) - e[0]) <= 2.3e-16 and \
                    abs(Fraction(p[1]) - e[1]) <= 2.3e-16, (b, a, p, e)


def test_component_vertex_bytes_golden():
    # At w = 0.6 the alternating corner 0.5 * w is 0.3, while deriving it
    # from the ranks as fl(1.5 * w) - w would give 0.29999999999999993.
    assert 1.5 * 0.6 - 0.6 != 0.5 * 0.6
    parts = reg.components_unmatched(QualityPair(0.7, 0.1))
    assert [(name, repr(w), repr(region.vertices)) for name, w, region in parts] == [
        ("perfect", "0.1", "((0.0, 0.0), (0.1, 0.0), (0.1, 0.1), (0.0, 0.1))"),
        ("alternating", "0.6",
         "((0.0, 0.0), (0.6, 0.0), (0.6, 0.3), (0.3, 0.6), (0.0, 0.6))"),
        ("no_csit", "0.30000000000000004",
         "((0.0, 0.0), (0.30000000000000004, 0.0), (0.0, 0.30000000000000004))"),
    ]


def _hull_of_vertex_sums(regions):
    """Iterated convex hull of pairwise vertex sums (scipy), as (points, hull)."""
    points = np.array([(0.0, 0.0)])
    for region in regions:
        sums = (points[:, None, :] + np.array(region.vertices)[None, :, :]).reshape(-1, 2)
        sums = np.unique(sums, axis=0)
        if len(sums) >= 3:
            points = sums[ConvexHull(sums).vertices]
        else:
            points = sums
    return points, ConvexHull(points)


@pytest.mark.parametrize("compose, components", _COMPOSERS)
def test_composition_matches_iterated_hull_oracle(compose, components):
    """compose_* == hull of the scaled blocks' pairwise vertex sums, within 1e-12."""
    for b, a in _random_pairs(77, 200) + EDGE_PAIRS:
        q = QualityPair(b, a)
        blocks = [region for _, w, region in components(q) if w > 0]
        points, hull = _hull_of_vertex_sums(blocks)
        ring = np.array(compose(q).vertices)
        mine = ConvexHull(ring)
        # Each vertex set lies in the other polygon (half-planes n.x + c <= 0).
        assert np.max(ring @ hull.equations[:, :2].T + hull.equations[:, 2]) <= 1e-12, (b, a)
        assert np.max(points @ mine.equations[:, :2].T + mine.equations[:, 2]) <= 1e-12, (b, a)
