"""``dofsim verify`` proves its invariants once per face of the quality triangle.

The first tests keep the sampled checks verify ran before the proofs, with
the same grids, seeds and assertions: the exact 1/20 grid's power ledgers
and audits, and the exact compositions of 200 random pairs (seed 0) and
the 48 edge pairs.  Then every point those checks sampled is shown to lie
on a face the proofs cover, the premises of the proofs (affine ranks,
concave margins) are checked at those points, and three mutations of the
model must each make verify fail on the right scheme, scenario and face.
"""

import dataclasses
import functools
import itertools
from fractions import Fraction

import pytest

from dofsim import cli, regions, schemes
from dofsim.model import SCENARIO_KINDS, QualityPair, Scenario
from test_regions import EDGE_PAIRS, _random_pairs

#: The exact 1/20 grid over 0 <= alpha <= beta <= 1.
GRID = [(b, a) for b in (Fraction(i, 20) for i in range(21))
        for a in (Fraction(i, 20) for i in range(21)) if a <= b]
#: The random pairs verify composed before the proofs: seed 0, 200 of them.
RANDOM_PAIRS = _random_pairs(0, 200)
SCENARIOS = [Scenario(kind) for kind in SCENARIO_KINDS]
COMPOSE = {"unmatched": regions.compose_unmatched, "matched": regions.compose_matched}


@functools.cache
def _grid_descriptors():
    """Each grid point's distinct exact descriptors, fdma's counted once per point."""
    descriptors = []
    for b, a in GRID:
        at_q = []
        for scheme, row in schemes.SCHEMES.items():
            for kind in row.scenarios:
                d = schemes.build_descriptor(scheme, QualityPair(b, a), Scenario(kind))
                if d not in at_q:  # fdma's descriptor is the same in both scenarios
                    at_q.append(d)
        descriptors += at_q
    return descriptors


# ---------------------------------------------------------------------------
# the sampled checks, moved out of verify


def test_every_grid_ledger_telescopes_to_p():
    descriptors = _grid_descriptors()
    for d in descriptors:
        schemes.check_power_identity(d)
    assert 2 * len(descriptors) == 2772


def test_every_grid_descriptor_passes_the_exact_audit_with_worst_margin_0():
    worst = min(s.margin for d in _grid_descriptors()
                for s in schemes.static_achievability_check(d))
    assert worst == 0


def test_composition_is_exact_on_the_random_and_edge_pairs():
    assert len(EDGE_PAIRS) == 48
    bad = 0
    for b, a in RANDOM_PAIRS + EDGE_PAIRS:
        q = QualityPair(Fraction(b), Fraction(a))
        for scenario in SCENARIOS:
            if not regions.region_equal(COMPOSE[scenario.kind](q), regions.outer_bound(q), tol=0):
                bad += 1
    assert bad == 0


# ---------------------------------------------------------------------------
# the proofs cover every sampled point


def _weights(b, a):
    """Barycentric weights of (b, a) on the corners (0, 0), (1, 0) and (1, 1)."""
    return 1 - b, b - a, a


def test_the_faces_are_the_seven_of_the_triangle():
    """The interior, the three edges and the three corners, each by the
    corners of its closure, and each the face of its own points."""
    faces = list(schemes.FACES.values())
    assert sorted(faces) == sorted(c for n in (1, 2, 3)
                                   for c in itertools.combinations(schemes._CORNERS, n))
    for name, face in schemes.FACES.items():
        mean = [sum(map(Fraction, coords), Fraction(0)) / len(face) for coords in zip(*face)]
        assert schemes.face_of(*mean) == face, name  # the face's centroid lies on it
        for b, a in face:
            assert schemes.face_of(b, a) == schemes.FACES[f"corner ({b}, {a})"], name


@pytest.mark.parametrize("pairs", [GRID, RANDOM_PAIRS, EDGE_PAIRS],
                         ids=["grid", "random", "edge"])
def test_every_sampled_point_lies_on_a_listed_face(pairs):
    """A point lies on the face its builds use, inside the closure of the
    face's corners: its weight is positive on exactly those corners."""
    faces = set()
    for b, a in pairs:
        b, a = Fraction(b), Fraction(a)
        face = schemes.face_of(b, a)
        assert face in schemes.FACES.values(), (b, a)
        positive = tuple(v for v, w in zip(schemes._CORNERS, _weights(b, a)) if w > 0)
        assert min(_weights(b, a)) >= 0 and positive == face, (b, a)
        faces.add(face)
    if pairs is GRID:
        assert faces == set(schemes.FACES.values())


def test_the_ranks_are_affine_so_the_corners_prove_the_composition():
    """At every sampled point each rank of the composed region and of the
    outer bound is the weighted mean of its values at the corners."""
    for b, a in GRID + [(Fraction(b), Fraction(a)) for b, a in RANDOM_PAIRS + EDGE_PAIRS]:
        weights = _weights(b, a)
        for region in (*COMPOSE.values(), regions.outer_bound):
            at_corners = [region(QualityPair(*map(Fraction, v))).ranks for v in schemes._CORNERS]
            mean = tuple(sum(w * r[k] for w, r in zip(weights, at_corners)) for k in range(3))
            assert region(QualityPair(b, a)).ranks == mean, (region, b, a)


def test_each_grid_margin_is_at_least_the_mean_of_its_face_vertex_margins():
    """Concavity, which lets the face vertices prove the audit: on each grid
    point every step margin is at least the weighted mean of the margins of
    the same step at the vertices of its face, on the face's own forms."""
    for b, a in GRID:
        face = schemes.face_of(b, a)
        weights = [w for w in _weights(b, a) if w > 0]
        for scheme, row in schemes.SCHEMES.items():
            for kind in row.scenarios:
                t = schemes._template(row.build, kind, face)
                at_vertices = [schemes.static_achievability_check(schemes._at(t, QualityPair(*v)))
                               for v in face]
                here = schemes.static_achievability_check(schemes._at(t, QualityPair(b, a)))
                for n, step in enumerate(here):
                    mean = sum(w * margins[n].margin for w, margins in zip(weights, at_vertices))
                    assert step.margin >= mean, (scheme, kind, b, a, step)


# ---------------------------------------------------------------------------
# mutations: verify names the scheme, the scenario and the face


def _verify(capsys, *argv):
    code = cli.main(["verify", *argv])
    return code, [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("[FAIL]")]


def _on_face(q, name):
    """Whether q holds the forms of the face ``name`` (a template build)."""
    return getattr(q.beta, "face", None) == schemes.FACES[name]


def _mutated(monkeypatch, scheme, mutate):
    """Replace the builder of scheme by one whose descriptors pass through mutate."""
    row = schemes.SCHEMES[scheme]

    def build(q, scenario):
        d = row.build(q, scenario)
        symbols = mutate(q, scenario, d.symbols)
        if symbols is d.symbols:
            return d
        return schemes.SchemeDescriptor(d.name, d.scenario, d.quality, symbols,
                                        d.decode_plan, dict(d.common_split))

    monkeypatch.setitem(schemes.SCHEMES, scheme, row._replace(build=build))


def test_a_rate_raised_by_a_thousandth_on_one_face_fails_the_achievability_proof(
        monkeypatch, capsys):
    def raise_u_a(q, scenario, symbols):
        if not (_on_face(q, "edge beta = 1") and scenario.kind == "unmatched"):
            return symbols
        return tuple(dataclasses.replace(s, rate_exponent=s.rate_exponent + Fraction(1, 1000))
                     if s.id == "u_A" else s for s in symbols)

    _mutated(monkeypatch, "zfbf", raise_u_a)
    code, failed = _verify(capsys)
    assert code == 1
    assert failed == [
        "[FAIL] achievability-proof: zfbf (unmatched) on edge beta = 1 at vertex (1, 0): "
        "zfbf: step (user1, slot A, u_A) needs rate exponent 1001/1000 but the SINR "
        "exponent is 1 (1 more)"]


def test_a_power_term_that_no_longer_telescopes_fails_the_power_identity_proof(
        monkeypatch, capsys):
    def raise_a_coefficient(q, scenario, symbols):
        if not _on_face(q, "edge alpha = 0"):
            return symbols
        first, *rest = symbols
        power = dataclasses.replace(first.power, coeff=first.power.coeff + Fraction(1, 1000))
        return (dataclasses.replace(first, power=power), *rest)

    _mutated(monkeypatch, "optimal-unmatched", raise_a_coefficient)
    code, failed = _verify(capsys)
    assert code == 1
    assert len(failed) == 1
    assert failed[0].startswith(
        "[FAIL] power-identity-proof: optimal-unmatched (unmatched) on edge alpha = 0: "
        "power identity violated in slot 'A' of 'optimal-unmatched'"), failed


def test_a_component_weight_off_by_a_thousandth_of_beta_fails_the_composition_proof(
        monkeypatch, capsys):
    components = regions.components_unmatched

    def perturbed(q):
        parts = components(q)
        name, w, _ = parts[0]
        return regions._weighted([(name, w + Fraction(1, 1000) * q.beta)]) + parts[1:]

    monkeypatch.setattr(regions, "components_unmatched", perturbed)
    code, failed = _verify(capsys)
    assert code == 1
    assert failed[0] == (
        "[FAIL] composition-proof: unmatched at corner (1, 0): ranks (1001/1000, 1001/1000, "
        "751/500) against the outer bound's (1, 1, 3/2) (1 more)")
    assert [line.split(":")[0] for line in failed] == ["[FAIL] composition-proof",
                                                       "[FAIL] spot-checks"]
    assert "unmatched at (" in failed[1]
