"""Scheme descriptors: power allocations, decode plans, analytic DoF,
and the static exponent-ladder achievability check."""

import math
import numbers
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dofsim import linkmc as mc
from dofsim import schemes as sch
from dofsim.channel import CELLS, MATCHED, SUBBANDS, UNMATCHED, USERS, QualityPair, Scenario
from dofsim.regions import outer_bound
from test_acceptance import private_loading
from test_regions import contains

Q = QualityPair(0.8, 0.5)


def _exact(q):
    """q on the exact values of its entries: the audit's input."""
    return QualityPair(Fraction(q.beta), Fraction(q.alpha))


#: Q exactly; the audit runs on exact builds.
QX = _exact(Q)

ALL_BUILDERS = [
    ("fdma", lambda q: sch.fdma_descriptor()),
    ("zfbf-unmatched", lambda q: sch.zfbf_descriptor(q, UNMATCHED)),
    ("zfbf-matched", lambda q: sch.zfbf_descriptor(q, MATCHED)),
    ("s3", lambda q: sch.s3_descriptor(q)),
    ("optimal-unmatched", lambda q: sch.optimal_unmatched_descriptor(q)),
    ("matched-optimal", lambda q: sch.matched_descriptor(q)),
]


def _grid(step=0.05):
    n = round(1 / step)
    for i in range(n + 1):
        for j in range(i + 1):
            yield QualityPair(i / n, j / n)


# ---------------------------------------------------------------------------
# building blocks


def test_precoder_validation():
    with pytest.raises(ValueError):
        sch.Precoder("dirty_paper")
    with pytest.raises(ValueError):
        sch.Precoder("basis_e1", user="user1")
    with pytest.raises(ValueError):
        sch.Precoder("zf_orth", user="user1")  # missing subband
    with pytest.raises(ValueError):
        sch.Precoder("aligned", user="user9", subband="A")


def test_power_term_value_and_ledger():
    t = sch.PowerTerm(Fraction(1, 2), 0.8, 0.5)
    p = 1e4
    assert t.value(p) == pytest.approx(0.5 * (p**0.8 - p**0.5))
    assert t.ledger() == [(0.8, Fraction(1, 2)), (0.5, Fraction(-1, 2))]
    full = sch.PowerTerm(1, 1.0)
    assert full.value(p) == p
    assert full.ledger() == [(1.0, Fraction(1))]


def test_power_term_validation():
    with pytest.raises(ValueError):
        sch.PowerTerm(0, 1.0)
    with pytest.raises(ValueError):
        sch.PowerTerm(1, 1.2)
    with pytest.raises(ValueError):
        sch.PowerTerm(1, 0.5, 0.5)
    with pytest.raises(ValueError):
        sch.PowerTerm(1, 0.5, 0.8)
    # Only an exact coefficient keeps the power ledger exact, and it is kept as given.
    for inexact in (0.5, True, np.int64(1), "1/2"):
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            sch.PowerTerm(inexact, 1.0)
    half = Fraction(1, 2)
    assert sch.PowerTerm(half, 1.0).coeff is half
    assert type(sch.PowerTerm(1, 1.0).coeff) is int


def test_symbol_spec_validation():
    ok = sch.SymbolSpec("x", "user1", "A", sch.basis_e1(), sch.PowerTerm(1, 1.0), 1.0)
    assert ok.id == "x"
    with pytest.raises(ValueError):
        sch.SymbolSpec("x", "eavesdropper", "A", sch.basis_e1(), sch.PowerTerm(1, 1.0), 1.0)
    with pytest.raises(ValueError):
        sch.SymbolSpec("x", "user1", "C", sch.basis_e1(), sch.PowerTerm(1, 1.0), 1.0)
    with pytest.raises(ValueError):
        sch.SymbolSpec("x", "user1", "A", sch.basis_e1(), sch.PowerTerm(1, 1.0), -0.1)


# ---------------------------------------------------------------------------
# the reference descriptor (beta, alpha) = (0.8, 0.5)


def _in_slot(d, slot):
    return [s for s in d.symbols if s.slot == slot]


def test_optimal_unmatched_slot_a_power_ladder():
    d = sch.optimal_unmatched_descriptor(Q)
    by_id = {s.id: s for s in _in_slot(d, "A")}
    assert set(by_id) == {"xc_A", "u_A", "u_0", "v_A"}
    assert (by_id["xc_A"].power.hi, by_id["xc_A"].power.lo) == (1.0, 0.8)
    assert by_id["xc_A"].power.coeff == 1
    assert (by_id["u_A"].power.hi, by_id["u_A"].power.lo) == (0.5, None)
    assert by_id["u_A"].power.coeff == Fraction(1, 2)
    assert (by_id["u_0"].power.hi, by_id["u_0"].power.lo) == (0.8, 0.5)
    assert by_id["u_0"].power.coeff == Fraction(1, 2)
    assert (by_id["v_A"].power.hi, by_id["v_A"].power.lo) == (0.8, None)
    assert by_id["v_A"].power.coeff == Fraction(1, 2)
    # rate exponents from the same table
    assert by_id["xc_A"].rate_exponent == pytest.approx(0.2)
    assert by_id["u_A"].rate_exponent == pytest.approx(0.5)
    assert by_id["u_0"].rate_exponent == pytest.approx(0.3)
    assert by_id["v_A"].rate_exponent == pytest.approx(0.8)


def test_optimal_unmatched_precoders_and_repetition():
    d = sch.optimal_unmatched_descriptor(Q)
    u0 = [s for s in d.symbols if s.id == "u_0"]
    assert len(u0) == 2
    assert {s.slot for s in u0} == {"A", "B"}
    pre = {s.slot: s.precoder for s in u0}
    assert (pre["A"].kind, pre["A"].user, pre["A"].subband) == ("aligned", "user2", "A")
    assert (pre["B"].kind, pre["B"].user, pre["B"].subband) == ("aligned", "user1", "B")
    in_a = {s.id: s for s in _in_slot(d, "A")}
    assert in_a["u_A"].precoder == sch.zf_orth("user2", "A")
    assert in_a["v_A"].precoder == sch.zf_orth("user1", "A")
    assert in_a["xc_A"].precoder == sch.basis_e1()
    # repeated payload is decoded once per user, in different subbands
    assert [st.user for st in d.decode_plan if st.symbol == "u_0"] == ["user1", "user2"]
    steps = {st.user: st.slot for st in d.decode_plan if st.symbol == "u_0"}
    assert steps == {"user1": "A", "user2": "B"}


def _table_links(table):
    """link -> (receiving cell, precoder row, symbol instance), read off the table's columns."""
    return dict(enumerate(zip(table.cell.tolist(), table.precoder.tolist(),
                              table.symbol.tolist())))


def _table_steps(d):
    """(user, target instance, interfering instances) of each step, read off d.table."""
    links = _table_links(d.table)
    return [(CELLS[links[signal][0]][0], links[signal][2],
             tuple(links[n][2] for n in row if n != d.table.links))
            for signal, row in zip(d.table.signal.tolist(), d.table.interference.tolist())]


def _reference_steps(d):
    """(user, target instance, interfering instances) of each step, by the documented
    rule: a step is interfered by the same-subband instances whose symbol its user has
    not decoded yet, in descriptor order."""
    decoded = {user: set() for user in USERS}
    steps = []
    for st in d.decode_plan:
        target = next(i for i, s in enumerate(d.symbols) if (s.id, s.slot) == (st.symbol, st.slot))
        interference = tuple(i for i, s in enumerate(d.symbols) if s.slot == st.slot
                             and s.id != st.symbol and s.id not in decoded[st.user])
        decoded[st.user].add(st.symbol)
        steps.append((st.user, target, interference))
    return steps


def _reference_links(d):
    """(symbol instance, receiving user) of every link, in order of first use by the
    steps of ``_reference_steps``: each step's target, then its interference."""
    used = {}
    for user, target, interference in _reference_steps(d):
        for i in (target,) + interference:
            used.setdefault((i, user), len(used))
    return list(used)


def _zero_forced_on(precoder, cell):
    """Whether a link received in ``cell`` is nulled: its precoder is zf_orth on
    that same cell's estimate, by the precoder's kind and reference cell."""
    return precoder.kind == "zf_orth" and CELLS.index((precoder.user, precoder.subband)) == cell


def _reference_margins(d):
    """static_achievability_check's max-plus rule walked over ``_reference_steps`` as tuples,
    without the table's arrays, in exact arithmetic."""

    def exponent(i, user):
        sym = d.symbols[i]
        e = sym.power.hi
        if sym.precoder == sch.zf_orth(user, sym.slot):
            e -= Scenario(d.scenario).quality(user, sym.slot, d.quality)
        return e

    report = []
    for user, target, interfering in _reference_steps(d):
        sym = d.symbols[target]
        signal = exponent(target, user)
        interference = max((exponent(i, user) for i in interfering), default=float("-inf"))
        report.append(sch.StepMargin(user, sym.slot, sym.id, signal, interference,
                                     signal - max(interference, 0) - sym.rate_exponent))
    return report


def test_optimal_unmatched_decode_order_and_cancellation():
    d = sch.optimal_unmatched_descriptor(Q)

    def walk(user):
        """(slot, symbol, interfering symbols) of each of user's steps, in order."""
        return [
            (d.symbols[target].slot, d.symbols[target].id,
             tuple(d.symbols[i].id for i in interference))
            for step_user, target, interference in _table_steps(d) if step_user == user
        ]

    assert walk("user1") == [
        ("A", "xc_A", ("u_A", "u_0", "v_A")),
        ("B", "xc_B", ("v_B", "u_0", "u_B")),
        ("A", "u_0", ("u_A", "v_A")),
        ("A", "u_A", ("v_A",)),
        ("B", "u_B", ("v_B",)),
    ]
    assert walk("user2") == [
        ("A", "xc_A", ("u_A", "u_0", "v_A")),
        ("B", "xc_B", ("v_B", "u_0", "u_B")),
        ("B", "u_0", ("v_B", "u_B")),
        ("B", "v_B", ("u_B",)),
        ("A", "v_A", ("u_A",)),
    ]


#: One quality pair per face of the triangle 0 <= alpha <= beta <= 1: the
#: interior, the beta = 1 edge, the diagonal, the alpha = 0 edge and the
#: three corners.
FACE_POINTS = [(0.8, 0.5), (1.0, 0.5), (0.5, 0.5), (0.5, 0.0), (0.0, 0.0), (1.0, 0.0),
               (1.0, 1.0)]


@pytest.mark.parametrize("beta,alpha", FACE_POINTS)
@pytest.mark.parametrize("scheme", sch.SCHEME_NAMES)
def test_compiled_indices_match_the_links_and_steps(scheme, beta, alpha):
    """The table's arrays against the decode plan's steps under the interference rule."""
    for kind in sch.SCHEMES[scheme].scenarios:
        d = sch.build_descriptor(scheme, QualityPair(beta, alpha), Scenario(kind))
        table = d.table
        steps = _reference_steps(d)
        assert _table_steps(d) == steps
        # Each link is held once, one entry of each column; the links are
        # the steps' (instance, user) pairs in order of first use, and the
        # padding index is the link count.
        used = _reference_links(d)
        assert table.links == len(used)
        for column in (table.cell, table.precoder, table.symbol):
            assert column.shape == (len(used),) and column.dtype == np.intp
        assert set(table.cell.tolist()) <= set(range(len(CELLS)))
        links = _table_links(table)
        for n, (c, r, i) in links.items():
            assert used[n] == (i, CELLS[c][0]) and d.symbols[i].slot == CELLS[c][1], n
            assert table.precoders[r] == d.symbols[i].precoder, n
        assert set(table.interference.ravel().tolist()) <= set(links) | {table.links}
        # Every link of a step is received in the step's cell.
        for (user, target, _), signal, row in zip(steps, table.signal.tolist(),
                                                  table.interference.tolist()):
            assert {links[n][0] for n in row + [signal] if n != table.links} == {
                CELLS.index((user, d.symbols[target].slot))}
        assert table.interference.shape == (len(steps), max(len(st[2]) for st in steps))
        assert len(set(table.precoders)) == len(table.precoders)
        assert [kind for kind, _, _ in table.kinds] == [
            k for k in sch.PRECODER_KINDS if any(pre.kind == k for pre in table.precoders)]
        for kind, rows, refs in table.kinds:
            assert rows.tolist() == [r for r, pre in enumerate(table.precoders)
                                     if pre.kind == kind]
            if kind == "basis_e1":
                assert refs is None
            else:
                assert refs.tolist() == [CELLS.index((table.precoders[r].user,
                                                      table.precoders[r].subband))
                                         for r in rows.tolist()]


def test_matched_descriptor_reference_point():
    d = sch.matched_descriptor(Q)
    assert len(d.symbols) == 6
    a = {s.id: s for s in _in_slot(d, "A")}
    b = {s.id: s for s in _in_slot(d, "B")}
    assert (a["xc_A"].power.hi, a["xc_A"].power.lo) == (1.0, 0.8)
    assert a["u_A"].power == sch.PowerTerm(Fraction(1, 2), 0.8)
    assert a["v_A"].rate_exponent == pytest.approx(0.8)
    assert (b["xc_B"].power.hi, b["xc_B"].power.lo) == (1.0, 0.5)
    assert b["u_B"].rate_exponent == pytest.approx(0.5)


def test_power_identity_symbolic_and_numeric():
    for name, build in ALL_BUILDERS:
        d = build(Q)
        for slot in SUBBANDS:
            assert sch.power_ledger(d, slot) == {1.0: Fraction(1)}, (name, slot)
            for p in (10.0, 1e4):
                total = sum(s.power.value(p) for s in _in_slot(d, slot))
                assert total == pytest.approx(p, rel=1e-12), (name, slot, p)


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_power_identity_everywhere(x, y):
    q = QualityPair(max(x, y), min(x, y))
    for name, build in ALL_BUILDERS:
        d = build(q)
        for slot in SUBBANDS:
            assert sch.power_ledger(d, slot) == {1.0: Fraction(1)}, (name, slot)


# ---------------------------------------------------------------------------
# degenerate corners


def test_optimal_unmatched_drops_common_at_beta_one():
    d = sch.optimal_unmatched_descriptor(QualityPair(1.0, 0.0))
    ids = set(d.payloads())
    assert "xc_A" not in ids and "xc_B" not in ids
    rates = {s.id: s.rate_exponent for s in d.symbols}
    assert rates["u_A"] == 0.0
    assert rates["u_0"] == 1.0
    assert rates["v_A"] == 1.0


def test_optimal_unmatched_drops_u0_at_equal_quality():
    d = sch.optimal_unmatched_descriptor(QualityPair(0.6, 0.6))
    assert "u_0" not in d.payloads()
    assert sch.sum_dof_exponent(d) == pytest.approx(1.6, abs=1e-12)


def test_matched_no_csit_corner_is_common_only():
    d = sch.matched_descriptor(QualityPair(0.0, 0.0))
    assert all(s.owner == "common" for s in d.symbols)
    assert all(s.rate_exponent == 1.0 for s in d.symbols)
    assert sch.sum_dof_exponent(d) == pytest.approx(1.0, abs=1e-12)


def test_matched_perfect_corner_is_pure_zfbf():
    d = sch.matched_descriptor(QualityPair(1.0, 1.0))
    assert all(s.owner != "common" for s in d.symbols)
    assert sch.sum_dof_exponent(d) == pytest.approx(2.0, abs=1e-12)


def test_s3_requires_unmatched():
    with pytest.raises(ValueError):
        sch.build_descriptor("s3", Q, MATCHED)


def test_build_descriptor_dispatch():
    assert sch.build_descriptor("fdma", Q, UNMATCHED).name == "fdma"
    assert sch.build_descriptor("zfbf", Q, MATCHED).scenario == "matched"
    with pytest.raises(ValueError):
        sch.build_descriptor("optimal-unmatched", Q, MATCHED)
    with pytest.raises(ValueError):
        sch.build_descriptor("matched-optimal", Q, UNMATCHED)
    with pytest.raises(ValueError):
        sch.build_descriptor("dpc", Q, UNMATCHED)
    assert set(sch.SCHEME_NAMES) == {
        "fdma", "zfbf", "s3", "optimal-unmatched", "matched-optimal"
    }


@pytest.mark.parametrize("scheme", sch.SCHEME_NAMES)
def test_build_descriptor_follows_the_scenario_table(scheme):
    """build_descriptor and analytic_sum_dof accept the same scenarios, and
    where they do the descriptor's sum DoF is the closed form's."""
    kinds = sch.SCHEMES[scheme].scenarios
    for scenario in (UNMATCHED, MATCHED):
        if scenario.kind in kinds:
            assert sch.build_descriptor(scheme, Q, scenario).scenario in (scenario.kind, None)
            for q in _grid(0.1):
                d = sch.build_descriptor(scheme, q, scenario)
                target = sch.analytic_sum_dof(scheme, q, scenario)
                assert sch.sum_dof_exponent(d) == pytest.approx(target, abs=1e-12), (q, scenario)
        else:
            with pytest.raises(ValueError, match=f"scheme '{scheme}' requires the "
                                                 f"{kinds[0]} scenario, got '{scenario.kind}'"):
                sch.build_descriptor(scheme, Q, scenario)
            with pytest.raises(ValueError, match=f"^scheme '{scheme}' requires the "
                                                 f"{kinds[0]} scenario, got '{scenario.kind}'$"):
                sch.analytic_sum_dof(scheme, Q, scenario)


# ---------------------------------------------------------------------------
# descriptor validation


def _probe(symbols, plan):
    """A descriptor of the given subband-A symbols and plan; subband B
    carries one full-power symbol, decoded last."""
    b = sch.SymbolSpec("b", "user2", "B", sch.basis_e1(), sch.PowerTerm(1, 1.0), 1.0)
    return sch.SchemeDescriptor(
        name="probe", scenario=None, quality=None,
        symbols=symbols + (b,), decode_plan=plan + (sch.DecodeStep("user2", "B", "b"),),
    )


def test_power_identity_violation_is_rejected():
    sym = sch.SymbolSpec("x", "user1", "A", sch.basis_e1(),
                         sch.PowerTerm(Fraction(1, 2), 1.0), 1.0)
    with pytest.raises(ValueError, match="power identity"):
        _probe((sym,), (sch.DecodeStep("user1", "A", "x"),))


def test_duplicate_instance_rejected():
    sym = sch.SymbolSpec("x", "user1", "A", sch.basis_e1(),
                         sch.PowerTerm(Fraction(1, 2), 1.0), 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        _probe((sym, sym), (sch.DecodeStep("user1", "A", "x"),))


def test_plan_must_reference_transmitted_instances():
    sym = sch.SymbolSpec("x", "user1", "A", sch.basis_e1(), sch.PowerTerm(1, 1.0), 1.0)
    with pytest.raises(ValueError, match="not transmitted"):
        _probe((sym,), (sch.DecodeStep("user1", "B", "x"),))
    with pytest.raises(ValueError, match="not transmitted"):
        _probe((sym,), (sch.DecodeStep("user1", "A", "y"),))


def test_a_user_decodes_each_payload_once():
    x = sch.SymbolSpec("x", "user1", "A", sch.basis_e1(), sch.PowerTerm(1, 1.0), 1.0)
    with pytest.raises(ValueError, match="user1 decodes 'x' twice"):
        _probe((x,), (sch.DecodeStep("user1", "A", "x"), sch.DecodeStep("user1", "A", "x")))


def test_every_symbol_needs_a_decoder():
    x = sch.SymbolSpec("x", "user1", "A", sch.basis_e1(),
                       sch.PowerTerm(Fraction(1, 2), 1.0), 1.0)
    y = sch.SymbolSpec("y", "user2", "A", sch.basis_e1(),
                       sch.PowerTerm(Fraction(1, 2), 1.0), 1.0)
    with pytest.raises(ValueError, match="never decoded"):
        _probe((x, y), (sch.DecodeStep("user1", "A", "x"),))


def test_common_split_validation():
    with pytest.raises(ValueError, match="common split"):
        sch.optimal_unmatched_descriptor(Q, common_split={"xc_A": 1.5, "xc_B": 0.0})


def test_common_split_rejects_an_unknown_id():
    with pytest.raises(ValueError, match=r"'u_A'.*common payloads are \['xc_A', 'xc_B'\]"):
        sch.optimal_unmatched_descriptor(QualityPair(0.8, 0.5),
                                         common_split={"u_A": 0.3, "nope": 0.9})


def test_common_payloads_are_credited_by_the_subband_they_are_first_sent_in():
    # Listed B first, under names that say nothing about their subband.
    c2 = sch.SymbolSpec("c2", "common", "B", sch.basis_e1(), sch.PowerTerm(1, 1.0), 0.25)
    c1 = sch.SymbolSpec("c1", "common", "A", sch.basis_e1(), sch.PowerTerm(1, 1.0), 1.0)
    plan = tuple(sch.DecodeStep(u, s, c) for u in ("user1", "user2")
                 for s, c in (("A", "c1"), ("B", "c2")))
    d = sch.SchemeDescriptor(name="two-commons", scenario=None, quality=None,
                             symbols=(c2, c1), decode_plan=plan)
    assert d.common_split == {"c1": 1.0, "c2": 0.0}
    assert sch.user_dof_exponents(d) == (0.5, 0.125)
    # An override of one payload leaves the other on the default.
    skewed = sch.SchemeDescriptor(name="two-commons", scenario=None, quality=None,
                                  symbols=(c2, c1), decode_plan=plan,
                                  common_split={"c2": 0.5})
    assert skewed.common_split == {"c1": 1.0, "c2": 0.5}


def test_instances_must_agree_on_rate():
    a = sch.SymbolSpec("x", "user1", "A", sch.basis_e1(), sch.PowerTerm(1, 1.0), 1.0)
    b = sch.SymbolSpec("x", "user1", "B", sch.basis_e1(), sch.PowerTerm(1, 1.0), 0.5)
    with pytest.raises(ValueError, match="disagree"):
        sch.SchemeDescriptor(
            name="probe", scenario=None, quality=None,
            symbols=(a, b), decode_plan=(sch.DecodeStep("user1", "A", "x"),),
        )


@pytest.mark.parametrize("rate", [-0.1, math.nan])
def test_rate_exponent_must_be_nonnegative(rate):
    # nan != nan, so a nan exponent used to pass here and fail later as a
    # disagreement between the instances of one symbol.
    with pytest.raises(ValueError, match="rate exponent must be nonnegative"):
        sch.SymbolSpec("x", "user1", "A", sch.basis_e1(), sch.PowerTerm(1, 1.0), rate)


# ---------------------------------------------------------------------------
# analytic sum DoF


def test_analytic_reference_values():
    assert sch.analytic_sum_dof("fdma", Q) == 1
    assert sch.analytic_sum_dof("zfbf", Q) == pytest.approx(1.3)
    assert sch.analytic_sum_dof("s3", QualityPair(1.0, 0.5)) == pytest.approx(1.5)
    assert sch.analytic_sum_dof("optimal", Q) == pytest.approx(1.65)
    assert sch.analytic_sum_dof("optimal", Q, MATCHED) == pytest.approx(1.65)


def test_analytic_exact_fractions():
    q = QualityPair(Fraction(4, 5), Fraction(1, 2))
    assert sch.analytic_sum_dof("zfbf", q) == Fraction(13, 10)
    assert sch.analytic_sum_dof("optimal", q) == Fraction(33, 20)
    assert private_loading("icc-private", q) == Fraction(32, 19)
    assert private_loading("optimal-private", q) == Fraction(29, 16)


def test_analytic_zero_quality_corner():
    q = QualityPair(0, 0)
    assert sch.analytic_sum_dof("fdma", q) == 1
    assert sch.analytic_sum_dof("zfbf", q) == 0
    assert sch.analytic_sum_dof("s3", q) == 1
    assert sch.analytic_sum_dof("optimal", q) == 1


def test_analytic_error_cases():
    with pytest.raises(ValueError, match="icc-private is undefined at beta = 0"):
        private_loading("icc-private", QualityPair(0, 0))
    with pytest.raises(ValueError, match="optimal-private is undefined at beta = 0"):
        private_loading("optimal-private", QualityPair(0, 0))
    # The private-loading diagnostics are test oracles, not strategies.
    for strategy in ("icc-private", "optimal-private"):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"unknown scheme '{strategy}'; expected one of {sorted(sch.SCHEMES)}") + "$"):
            sch.analytic_sum_dof(strategy, Q)
    with pytest.raises(ValueError):
        sch.analytic_sum_dof("s3", Q, MATCHED)
    with pytest.raises(ValueError):
        sch.analytic_sum_dof("mat", Q)
    with pytest.raises(ValueError):
        sch.analytic_sum_dof("fdma", Q, "duplex")


def test_analytic_monotone_and_extremes():
    grid = [i / 10 for i in range(11)]
    prev_rows = None
    for b in grid:
        row = [float(sch.analytic_sum_dof("optimal", QualityPair(b, a)))
               for a in grid if a <= b]
        assert all(x <= y + 1e-12 for x, y in zip(row, row[1:]))
        if prev_rows is not None:
            for k, v in enumerate(row[: len(prev_rows)]):
                assert prev_rows[k] <= v + 1e-12
        prev_rows = row
    for b in grid:
        for a in grid:
            if a > b:
                continue
            v = float(sch.analytic_sum_dof("optimal", QualityPair(b, a)))
            assert (v == 2.0) == (b == a == 1.0)
            assert (v == 1.0) == (b == a == 0.0)


def test_analytic_dominates_simple_strategies():
    for q in _grid(0.1):
        opt = sch.analytic_sum_dof("optimal", q)
        assert opt >= sch.analytic_sum_dof("fdma", q)
        assert opt >= sch.analytic_sum_dof("zfbf", q)
        assert opt >= sch.analytic_sum_dof("s3", q)


def test_sum_dof_exponent_matches_analytic():
    for q in map(_exact, _grid(0.25)):
        pairs = [
            (sch.fdma_descriptor(), sch.analytic_sum_dof("fdma", q)),
            (sch.zfbf_descriptor(q, UNMATCHED), sch.analytic_sum_dof("zfbf", q)),
            (sch.zfbf_descriptor(q, MATCHED), sch.analytic_sum_dof("zfbf", q, MATCHED)),
            (sch.s3_descriptor(q), sch.analytic_sum_dof("s3", q)),
            (sch.optimal_unmatched_descriptor(q), sch.analytic_sum_dof("optimal", q)),
            (sch.matched_descriptor(q), sch.analytic_sum_dof("optimal", q, MATCHED)),
        ]
        for d, target in pairs:
            assert sch.sum_dof_exponent(d) == target, d.name


def test_user_dof_split_default_and_custom():
    d = sch.optimal_unmatched_descriptor(Q)
    u1, u2 = sch.user_dof_exponents(d)
    assert (u1, u2) == (pytest.approx(0.9, abs=1e-12), pytest.approx(0.75, abs=1e-12))
    skewed = sch.optimal_unmatched_descriptor(Q, common_split={"xc_A": 0.0, "xc_B": 0.0})
    v1, v2 = sch.user_dof_exponents(skewed)
    assert v1 + v2 == pytest.approx(u1 + u2, abs=1e-12)
    assert (v1, v2) == (pytest.approx(0.8, abs=1e-12), pytest.approx(0.85, abs=1e-12))


def test_credit_users_splits_common_payloads():
    d = sch.optimal_unmatched_descriptor(Q, common_split={"xc_A": 0.25, "xc_B": 0.0})
    payloads = d.payloads()
    assert list(payloads) == ["xc_A", "u_A", "u_0", "v_A", "xc_B", "v_B", "u_B"]
    assert payloads["u_0"].slot == "A", "a repeated payload is keyed by its first instance"
    assert sch.credit_users(d, {sym_id: 1.0 for sym_id in payloads}) == (3.25, 3.75)


def test_user_dof_pairs_inside_outer_bound():
    for q in _grid(0.2):
        for name, build in ALL_BUILDERS:
            d = build(q)
            pair = sch.user_dof_exponents(d)
            assert contains(outer_bound(q), pair), (name, q, pair)


# ---------------------------------------------------------------------------
# static achievability


def test_static_margins_vanish_at_reference_point():
    for name, build in ALL_BUILDERS:
        report = sch.static_achievability_check(build(QX))
        assert report, name
        for step in report:
            assert step.margin == 0, (name, step)


def test_static_check_named_examples():
    report = sch.static_achievability_check(sch.optimal_unmatched_descriptor(QX))
    by_key = {(s.user, s.slot, s.symbol): s for s in report}
    u0 = by_key[("user1", "A", "u_0")]
    assert u0.signal_exponent == QX.beta
    assert u0.interference_exponent == QX.alpha
    assert u0.margin == 0

    zf = sch.static_achievability_check(sch.zfbf_descriptor(QX, UNMATCHED))
    ua = {(s.user, s.slot, s.symbol): s for s in zf}[("user1", "A", "u_A")]
    assert ua.signal_exponent == 1
    assert ua.interference_exponent == 1 - QX.beta
    assert ua.margin == 0

    fd = sch.static_achievability_check(sch.fdma_descriptor())
    assert all(s.interference_exponent == -math.inf for s in fd)
    assert all(s.margin == 0 for s in fd)


def test_static_margins_grid():
    for q in map(_exact, _grid(0.05)):
        for name, build in ALL_BUILDERS:
            for step in sch.static_achievability_check(build(q)):
                assert step.margin >= 0, (name, q, step)


def _exact_margin(margin):
    """A StepMargin as a tuple, its exponents checked to be exact (or -inf: no interference)."""
    values = (margin.signal_exponent, margin.interference_exponent, margin.margin)
    assert all(isinstance(x, numbers.Rational) or x == -math.inf for x in values), margin
    assert isinstance(margin.margin, numbers.Rational), margin
    return (margin.user, margin.slot, margin.symbol) + values


def test_static_margins_equal_the_reference_walk_bit_for_bit():
    count = 0
    for q in map(_exact, _grid(0.05)):
        for scheme, row in sch.SCHEMES.items():
            for kind in row.scenarios:
                d = sch.build_descriptor(scheme, q, Scenario(kind))
                got = [_exact_margin(m) for m in sch.static_achievability_check(d)]
                assert got == [_exact_margin(m) for m in _reference_margins(d)], (scheme, kind, q)
                count += 1
    assert count == 1617


@pytest.mark.parametrize("name,build", [ALL_BUILDERS[1], ALL_BUILDERS[3]])
def test_static_check_rejects_a_float_built_descriptor(name, build):
    # At (0.1, 0) the float exponents audit to a margin of -2.78e-17: the
    # verdict on a float build is a rounding accident, so it is refused.
    q = QualityPair(0.1, 0.0)
    with pytest.raises(ValueError, match=r"build the descriptor on Fraction qualities, "
                                         r"not beta=0\.1, alpha=0\.0$"):
        sch.static_achievability_check(build(q))
    assert all(step.margin >= 0 for step in sch.static_achievability_check(build(_exact(q))))
    # fdma's descriptor carries no quality and audits as it is.
    assert sch.static_achievability_check(sch.fdma_descriptor())


def test_static_check_flags_overloaded_step():
    x = sch.SymbolSpec("x", "user1", "A", sch.basis_e1(),
                       sch.PowerTerm(Fraction(1, 2), 1.0), 1.0)
    y = sch.SymbolSpec("y", "user2", "A", sch.basis_e1(),
                       sch.PowerTerm(Fraction(1, 2), 1.0), 1.0)
    d = _probe((x, y), (
        sch.DecodeStep("user1", "A", "x"),
        sch.DecodeStep("user2", "A", "y"),
    ))
    with pytest.raises(sch.AchievabilityError, match=r"user1, slot A, x"):
        sch.static_achievability_check(d)


def _cross_subband_zf():
    """u_A is zero-forced against user2's estimate of subband B but sent in A."""
    half = sch.PowerTerm(Fraction(1, 2), 1)
    return sch.SchemeDescriptor(
        name="cross-zf", scenario="unmatched", quality=QX,
        symbols=(
            sch.SymbolSpec("u_A", "user1", "A", sch.zf_orth("user2", "B"), half, Fraction(1, 2)),
            sch.SymbolSpec("v_A", "user2", "A", sch.zf_orth("user1", "A"), half, Fraction(1, 2)),
            sch.SymbolSpec("x_B", "user2", "B", sch.basis_e1(), sch.PowerTerm(1, 1), 1),
        ),
        decode_plan=(
            sch.DecodeStep("user1", "A", "u_A"),
            sch.DecodeStep("user2", "A", "v_A"),
            sch.DecodeStep("user2", "B", "x_B"),
        ),
    )


def test_zero_forcing_on_another_subband_does_not_null_leakage():
    # g_A is independent of user2's estimate in B, so u_A reaches user2 at
    # full power and v_A's SINR exponent is 1 - 1 = 0, not 1 - alpha.
    d = _cross_subband_zf()
    with pytest.raises(sch.AchievabilityError,
                       match=r"step \(user2, slot A, v_A\) needs rate exponent 1/2 but "
                             r"the SINR exponent is 0$"):
        sch.static_achievability_check(d)
    # The simulator agrees: user2's DoF is x_B's 1/2 alone; a v_A at SINR
    # exponent 1/2 would add 1/4.
    report = mc.estimate_dof(d, Q, UNMATCHED, (140.0, 160.0, 180.0), trials=400, seed=0)
    assert report.dof["user2"] == pytest.approx(0.5, abs=0.01)


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_static_margins_hold_everywhere(x, y):
    q = QualityPair(Fraction(max(x, y)), Fraction(min(x, y)))
    for name, build in ALL_BUILDERS:
        for step in sch.static_achievability_check(build(q)):
            assert step.margin >= 0, (name, q, step)


# ---------------------------------------------------------------------------
# exact builds: one set of exponents per scheme, its sum-DoF form read off it

#: Every (scheme, scenario kind) pair that build_descriptor accepts.
SCHEME_SCENARIOS = [(scheme, kind) for scheme in sch.SCHEME_NAMES
                    for kind in sch.SCHEMES[scheme].scenarios]

_SUBNORMAL = 5e-324


def _exponents(d):
    """Every number of d's symbols: each power term's exponents and coefficient, and the rate."""
    return [(s.id, s.slot, s.power.hi, s.power.lo, s.power.coeff, s.rate_exponent)
            for s in d.symbols]


def _bits(x):
    return None if x is None else float(x).hex()


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
@example(_SUBNORMAL, 0.0)
@example(1.0, _SUBNORMAL)
@example(2.2250738585072014e-308, 1e-310)
@example(0.1, 0.0)
@example(1.0, 1.0)
def test_float_build_is_the_float_of_the_exact_build(x, y):
    q = QualityPair(max(x, y), min(x, y))
    for scheme, kind in SCHEME_SCENARIOS:
        fl = sch.build_descriptor(scheme, q, Scenario(kind))
        ex = sch.build_descriptor(scheme, _exact(q), Scenario(kind))
        assert (fl.decode_plan, fl.common_split) == (ex.decode_plan, ex.common_split)
        assert [s.precoder for s in fl.symbols] == [s.precoder for s in ex.symbols]
        for got, exact in zip(_exponents(fl), _exponents(ex), strict=True):
            assert got[:2] == exact[:2] and got[4] == exact[4], (scheme, kind, q)
            # Each float exponent is one correctly rounded operation on q.
            assert [_bits(v) for v in got[2:4] + got[5:]] == [
                _bits(v) for v in exact[2:4] + exact[5:]], (scheme, kind, q, got, exact)
            assert all(isinstance(v, numbers.Rational) for v in exact[2:6] if v is not None)


_UNIT_FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=10**9)


@settings(max_examples=100, deadline=None)
@given(_UNIT_FRACTIONS, _UNIT_FRACTIONS)
@example(Fraction(0), Fraction(0))
@example(Fraction(1), Fraction(0))
@example(Fraction(1), Fraction(1))
@example(Fraction(2, 3), Fraction(2, 3))
def test_analytic_sum_dof_is_the_exact_builds_sum_dof(x, y):
    q = QualityPair(max(x, y), min(x, y))
    for scheme, kind in SCHEME_SCENARIOS:
        d = sch.build_descriptor(scheme, q, Scenario(kind))
        target = sch.analytic_sum_dof(scheme, q, kind)
        assert isinstance(target, numbers.Rational)
        assert target == sch.sum_dof_exponent(d), (scheme, kind, q)
        if scheme == sch.OPTIMAL[kind]:
            assert sch.analytic_sum_dof("optimal", q, kind) == target


def test_sum_dof_forms_are_pinned():
    """(c0, cb, ca) of c0 + cb*beta + ca*alpha, as read off each builder."""
    half = Fraction(1, 2)
    pinned = {
        ("fdma", "unmatched"): (1, 0, 0), ("fdma", "matched"): (1, 0, 0),
        ("zfbf", "unmatched"): (0, 1, 1), ("zfbf", "matched"): (0, 1, 1),
        ("s3", "unmatched"): (1, half, 0),
        ("optimal-unmatched", "unmatched"): (1, half, half),
        ("matched-optimal", "matched"): (1, half, half),
    }
    assert sorted(pinned) == sorted(SCHEME_SCENARIOS)
    for key, form in pinned.items():
        exact, floats = sch._sum_dof_form(*key)
        assert exact == form and all(type(c) is Fraction for c in exact), key
        assert floats == tuple(map(float, form)) and all(type(c) is float for c in floats), key


#: The closed forms the switcher scored before they were read off the builders.
_HAND_FORMS = {
    "fdma": lambda b, a: 1,
    "zfbf": lambda b, a: b + a,
    "s3": lambda b, a: 1 + b / 2,
    "optimal-unmatched": lambda b, a: 1 + (b + a) / 2,
    "matched-optimal": lambda b, a: 1 + (b + a) / 2,
}


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
@example(_SUBNORMAL, _SUBNORMAL)
@example(1.0, _SUBNORMAL)
@example(0.3, 0.1)
def test_analytic_sum_dof_on_floats_keeps_the_hand_forms_bits(x, y):
    hi, lo = max(x, y), min(x, y)
    arrays = np.array([hi, 0.7, 1.0, _SUBNORMAL]), np.array([lo, 0.2, 1.0, 0.0])
    for scheme, kind in SCHEME_SCENARIOS:
        want = _HAND_FORMS[scheme]
        got = sch.analytic_sum_dof_at(scheme, hi, lo, kind)
        assert type(got) is float and got.hex() == float(want(hi, lo)).hex(), (scheme, hi, lo)
        got = sch.analytic_sum_dof_at(scheme, *arrays, kind)
        shape = arrays[0].shape
        assert np.array_equal(np.broadcast_to(got, shape), np.broadcast_to(want(*arrays), shape))
    assert np.ndim(sch.analytic_sum_dof_at("fdma", *arrays)) == 0


@pytest.mark.parametrize("scheme,kind", SCHEME_SCENARIOS)
def test_estimate_dof_reads_the_same_from_an_exact_build(scheme, kind):
    scenario = Scenario(kind)
    for q in (QualityPair(0.8, 0.5), QualityPair(1.0, 0.3), QualityPair(0.6, 0.6)):
        exact = sch.build_descriptor(scheme, _exact(q), scenario)
        floats = sch.build_descriptor(scheme, q, scenario)
        reports = [mc.estimate_dof(d, q, scenario, (40.0, 50.0, 60.0), trials=60, seed=3)
                   for d in (exact, floats)]
        assert reports[0].to_json() == reports[1].to_json(), (scheme, kind, q)


# ---------------------------------------------------------------------------
# one decode table per structure


def _index_arrays(table):
    arrays = [table.signal, table.interference]
    arrays += [a for _, rows, refs in table.kinds for a in (rows, refs) if a is not None]
    arrays += [table.cell, table.precoder, table.symbol]
    return arrays


def test_builds_on_one_face_share_one_read_only_table():
    for scheme, kind in SCHEME_SCENARIOS:
        tables = [sch.build_descriptor(scheme, q, Scenario(kind)).table
                  for q in (QualityPair(0.8, 0.5), QualityPair(0.7, 0.2),
                            QualityPair(Fraction(3, 5), Fraction(1, 3)))]
        assert tables[0] is tables[1] is tables[2], scheme
        for a in _index_arrays(tables[0]):
            assert not a.flags.writeable, scheme
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


def test_builds_on_different_faces_get_different_tables():
    inner = sch.optimal_unmatched_descriptor(QualityPair(0.8, 0.5)).table
    faces = [sch.optimal_unmatched_descriptor(QualityPair(1.0, 0.5)).table,  # no common layer
             sch.optimal_unmatched_descriptor(QualityPair(0.6, 0.6)).table]  # no u_0
    assert len({id(t) for t in [inner] + faces}) == 3
    matched = [sch.matched_descriptor(q).table
               for q in (QualityPair(0.8, 0.5), QualityPair(0.8, 0.0), QualityPair(0.0, 0.0))]
    assert len({id(t) for t in matched}) == 3


def test_a_malformed_plan_raises_the_same_message_on_every_call():
    sym = sch.SymbolSpec("x", "user1", "A", sch.basis_e1(), sch.PowerTerm(1, 1.0), 1.0)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="not transmitted") as err:
            _probe((sym,), (sch.DecodeStep("user1", "B", "x"),))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
