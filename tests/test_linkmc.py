"""Monte Carlo link level: received powers, SIC walks, ergodic rates and
DoF slope estimation.

Rates are arrays with one column (or leading row) per decode step, in
decode-plan order; ``_column`` finds the step of a (symbol, user).

The FDMA ergodic reference values below come from the closed form
E log2(1 + |h|^2 p) = e^(1/p) E1(1/p) / ln 2 for |h|^2 ~ Exp(1), evaluated
independently (scipy.special.exp1 and numerical quadrature agree):
12.456356 bits at 40 dB, 15.777066 at 50 dB, 19.098843 at 60 dB.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from dofsim import channel as ch
from dofsim import linkmc as mc
from dofsim import schemes as sch
from dofsim.channel import MATCHED, UNMATCHED, QualityPair
from test_schemes import _reference_links, _table_links, _zero_forced_on

Q = QualityPair(0.8, 0.5)

FDMA_ERGODIC_40DB = 12.456356


def _instance(d, sym_id, slot):
    return next(s for s in d.symbols if (s.id, s.slot) == (sym_id, slot))


def _steps(d):
    """(symbol, decoding user) of each decode step, read off its signal link."""
    links = _table_links(d.table)
    return [(d.symbols[links[n][2]].id, ch.CELLS[links[n][0]][0])
            for n in d.table.signal.tolist()]


def _column(d, sym_id, user):
    return _steps(d).index((sym_id, user))


def _manual_realization():
    # One row per cell, in ch.CELLS order: (user1, A), (user2, A), (user1, B), (user2, B).
    true = np.array([[2.0, 1.0j], [0.5, 1.0], [1.0, -1.0], [1.0j, 2.0]])
    estimate = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0], [0.0, 2.0]], dtype=complex)
    return ch.ChannelPair(estimate=estimate, error=true - estimate)


# ---------------------------------------------------------------------------
# received power


def test_received_power_basis_symbol_exact():
    r = _manual_realization()
    x_a = _instance(sch.fdma_descriptor(), "x_A", "A")
    p = 1e4
    # |h_A[0]|^2 * p with h_A = (2, i)
    assert mc.received_power(r, x_a, "user1", p) == pytest.approx(4.0 * p, rel=1e-12)
    assert mc.received_power(r, x_a, "user2", p) == pytest.approx(0.25 * p, rel=1e-12)


def test_received_power_zf_symbol_exact():
    r = _manual_realization()
    d = sch.zfbf_descriptor(Q, UNMATCHED)
    u_a = _instance(d, "u_A", "A")  # orthogonal to user2's estimate (0, 1)
    p = 100.0
    assert mc.received_power(r, u_a, "user1", p) == pytest.approx(4.0 * p / 2, rel=1e-12)
    assert mc.received_power(r, u_a, "user2", p) == pytest.approx(0.25 * p / 2, rel=1e-12)


def test_received_power_requires_snr_above_one():
    r = _manual_realization()
    x_a = _instance(sch.fdma_descriptor(), "x_A", "A")
    for p in (1.0, float("nan")):
        with pytest.raises(ValueError, match="linear SNR must exceed 1"):
            mc.received_power(r, x_a, "user1", p)


def test_received_power_rejects_a_bare_pair():
    cell = _manual_realization()[0]
    x_a = _instance(sch.fdma_descriptor(), "x_A", "A")
    with pytest.raises(ValueError, match=r"expected the 4 cells .* got true channels of shape \(2,\)"):
        mc.received_power(cell, x_a, "user1", 1e4)


def test_zf_leakage_mean_is_half():
    """E |g^H zf(g_est)|^2 * p^alpha / 2 = sigma2 * p^alpha / 2 = 1/2."""
    d = sch.optimal_unmatched_descriptor(Q)
    u_a = _instance(d, "u_A", "A")
    p = 1e4
    n = 3000
    # Trials 0..n-1 of seed 31 in one block, as stacked cells with a trial axis.
    cells = ch.sample_ladder_cells(31, Q, UNMATCHED, (p,), n)[:, 0]
    mean = float(np.mean(mc.received_power(cells, u_a, "user2", p)))
    assert mean == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------------------
# SIC rate walks


def test_sic_fdma_rate_is_single_user_formula():
    r = _manual_realization()
    p = 1e4
    d = sch.fdma_descriptor()
    x_a, x_b = mc.sic_rates(d, r, p)
    assert x_a == pytest.approx(np.log2(1 + 4.0 * p), rel=1e-12)
    assert x_b == pytest.approx(np.log2(1 + 1.0 * p), rel=1e-12)
    assert d.table.payloads == (("x_A", 0, (0,)), ("x_B", 1, (1,)))


def test_sic_u0_step_matches_hand_computed_sinr():
    p = 10 ** 4.5
    realization = ch.sample_realization(ch.trial_rng(8, 0), Q, UNMATCHED, p)
    d = sch.optimal_unmatched_descriptor(Q)
    rates = mc.sic_rates(d, realization, p)

    h = realization.true[ch.cell_index("user1", "A")]
    g_est = realization.estimate[ch.cell_index("user2", "A")]
    h_est = realization.estimate[ch.cell_index("user1", "A")]
    signal = abs(np.vdot(h, ch.unit(g_est))) ** 2 * (p**0.8 - p**0.5) / 2
    interference = (
        abs(np.vdot(h, ch.zf_direction(g_est))) ** 2 * p**0.5 / 2
        + abs(np.vdot(h, ch.zf_direction(h_est))) ** 2 * p**0.8 / 2
    )
    want = np.log2(1 + signal / (1 + interference))
    assert rates[_column(d, "u_0", "user1")] == pytest.approx(want, rel=1e-12)


def test_sic_rates_take_a_real_valued_realization():
    d = sch.optimal_unmatched_descriptor(Q)
    r = _manual_realization()
    real = ch.ChannelPair(r.estimate.real, r.error.real)
    cast = ch.ChannelPair(*(a.astype(complex) for a in (real.estimate, real.error)))
    assert np.array_equal(mc.sic_rates(d, real, 1e4), mc.sic_rates(d, cast, 1e4))


def test_sic_cancellation_never_hurts():
    q = QualityPair(0.9, 0.4)
    d = sch.s3_descriptor(q)
    p = 1e3
    for t in range(20):
        r = ch.sample_realization(ch.trial_rng(2, t), q, UNMATCHED, p)
        with_sic = mc.sic_rates(d, r, p)
        for st in d.decode_plan:
            # Treating every other same-slot instance as noise is the floor.
            target = _instance(d, st.symbol, st.slot)
            noise = sum(mc.received_power(r, s, st.user, p) for s in d.symbols
                        if s.slot == st.slot and s is not target)
            floor = np.log2(1 + mc.received_power(r, target, st.user, p) / (1 + noise))
            assert with_sic[_column(d, st.symbol, st.user)] >= floor - 1e-12


def test_sic_rates_require_snr_above_one():
    for p in (1.0, float("nan")):
        with pytest.raises(ValueError, match="linear SNR must exceed 1"):
            mc.sic_rates(sch.fdma_descriptor(), _manual_realization(), p)


def test_sic_rates_rejects_a_bare_pair():
    d = sch.fdma_descriptor()
    single = ch.sample_pair(ch.trial_rng(0, 0), 0.5, 1e4)
    with pytest.raises(ValueError, match=r"expected the 4 cells .* got true channels of shape \(2,\)"):
        mc.sic_rates(d, single, 1e4)
    with pytest.raises(ValueError, match=r"got true channels of shape \(3, 2\)"):
        mc.sic_rates(d, _manual_realization()[:3], 1e4)
    # The walk has one trial axis; a second one is refused, not walked.
    blocks = ch.sample_ladder_cells(0, Q, UNMATCHED, [1e4], 6)[:, 0]
    blocks = ch.ChannelPair(*(a.reshape(4, 2, 3, 2) for a in (blocks.estimate, blocks.error)))
    with pytest.raises(ValueError, match=r"got true channels of shape \(4, 2, 3, 2\)"):
        mc.sic_rates(d, blocks, 1e4)


def test_sic_rates_and_received_power_reject_an_infinite_snr():
    # Without the check, sic_rates gave nan rates and a numpy RuntimeWarning.
    d = sch.optimal_unmatched_descriptor(Q)
    r = ch.sample_realization(ch.trial_rng(0, 0), Q, UNMATCHED, 1e4)
    with pytest.raises(ValueError, match="linear SNR must be finite, got inf"):
        mc.sic_rates(d, r, float("inf"))
    with pytest.raises(ValueError, match="linear SNR must be finite, got inf"):
        mc.received_power(r, d.symbols[0], "user1", float("inf"))


@pytest.mark.parametrize("scheme,scenario", [("optimal-unmatched", UNMATCHED),
                                             ("matched-optimal", MATCHED), ("fdma", UNMATCHED)])
def test_a_lone_realization_walks_as_a_one_trial_block(scheme, scenario):
    # The lone (cells, 2) realization and the (cells, 1, 2) block take the
    # two branches of ``_one_point`` into the one (cell, point, trial, 2) walk.
    d, p = sch.build_descriptor(scheme, Q, scenario), 1e5
    for t in range(3):
        lone = ch.sample_realization(ch.trial_rng(6, t), Q, scenario, p)
        block = lone[:, None]
        rates = mc.sic_rates(d, lone, p)
        assert rates.shape == (len(d.table.signal),)
        assert np.array_equal(rates, mc.sic_rates(d, block, p)[:, 0])
        for sym in d.symbols:
            for user in ch.USERS:
                power = mc.received_power(lone, sym, user, p)
                assert np.shape(power) == ()
                assert np.array_equal(power, mc.received_power(block, sym, user, p)[0])


def test_a_walk_builds_its_link_power_table_once(monkeypatch):
    d = sch.optimal_unmatched_descriptor(Q)
    ps = [ch.db_to_linear(v) for v in (40.0, 50.0, 60.0)]
    cells = ch.sample_ladder_cells(0, Q, UNMATCHED, ps, ch.TRIAL_BLOCK)
    calls, value = [], sch.PowerTerm.value

    def counted(term, p):
        calls.append(p)
        return value(term, p)

    monkeypatch.setattr(sch.PowerTerm, "value", counted)
    mc._step_rates(d, cells, ps)
    # Once per symbol instance and ladder point, not once per sub-block.
    assert ch.TRIAL_BLOCK // mc.WALK_BLOCK == 4
    assert len(calls) == len(d.symbols) * len(ps)


def test_delivered_rate_is_worst_decoder():
    # Both users decode the common symbol, so its payload reads both their
    # steps; a report credits the minimum over a payload's steps.
    d = sch.optimal_unmatched_descriptor(Q)
    columns = {sym_id: steps for sym_id, _, steps in d.table.payloads}["xc_A"]
    assert sorted(columns) == sorted(_column(d, "xc_A", user) for user in ch.USERS)


def test_rate_columns_follow_the_decode_steps():
    assert _steps(sch.fdma_descriptor()) == [("x_A", "user1"), ("x_B", "user2")]
    d = sch.optimal_unmatched_descriptor(Q)
    cells = _steps(d)
    assert cells.count(("u_0", "user1")) == 1 and cells.count(("u_0", "user2")) == 1
    assert ("xc_A", "user1") in cells and ("xc_A", "user2") in cells
    assert ("u_A", "user2") not in cells
    assert mc.trial_rates(d, Q, UNMATCHED, 1e3, trials=2).shape == (2, len(cells))


# ---------------------------------------------------------------------------
# trial tables and determinism


def test_trial_rates_partition_independence():
    d = sch.zfbf_descriptor(Q, UNMATCHED)
    p = 1e3
    full = mc.trial_rates(d, Q, UNMATCHED, p, trials=8, seed=9)
    head = mc.trial_rates(d, Q, UNMATCHED, p, trials=5, seed=9)
    tail = mc.trial_rates(d, Q, UNMATCHED, p, trials=3, seed=9, start=5)
    assert np.array_equal(full, np.vstack([head, tail]))


def test_trial_rates_split_at_the_block_boundary_give_the_same_table():
    d = sch.optimal_unmatched_descriptor(Q)
    whole = mc.trial_rates(d, Q, UNMATCHED, 1e4, trials=12, seed=6, start=4090)
    head = mc.trial_rates(d, Q, UNMATCHED, 1e4, trials=6, seed=6, start=4090)
    tail = mc.trial_rates(d, Q, UNMATCHED, 1e4, trials=6, seed=6, start=4096)
    assert np.array_equal(whole, np.vstack([head, tail]))


def test_trial_rates_validation():
    d = sch.zfbf_descriptor(Q, UNMATCHED)
    with pytest.raises(ValueError):
        mc.trial_rates(d, Q, UNMATCHED, 1e3, trials=0)
    with pytest.raises(ValueError, match="scenario"):
        mc.trial_rates(d, Q, MATCHED, 1e3, trials=1)
    with pytest.raises(ValueError, match="beta"):
        mc.trial_rates(d, QualityPair(0.9, 0.5), UNMATCHED, 1e3, trials=1)
    with pytest.raises(ValueError, match="linear SNR must exceed 1, got nan"):
        mc.trial_rates(d, Q, UNMATCHED, float("nan"), trials=1)
    with pytest.raises(ValueError, match="start must be a non-negative trial index, got -2"):
        mc.trial_rates(d, Q, UNMATCHED, 1e3, trials=3, start=-2)


def test_ergodic_rates_reproducible():
    d = sch.s3_descriptor(Q)
    a = mc.trial_rates(d, Q, UNMATCHED, 1e3, trials=40, seed=4).mean(axis=0)
    b = mc.trial_rates(d, Q, UNMATCHED, 1e3, trials=40, seed=4).mean(axis=0)
    assert np.array_equal(a, b)


def test_fdma_ergodic_matches_closed_form():
    d = sch.fdma_descriptor()
    x_a, x_b = mc.trial_rates(d, Q, UNMATCHED, ch.db_to_linear(40.0), trials=20_000,
                              seed=0).mean(axis=0)
    assert x_a == pytest.approx(FDMA_ERGODIC_40DB, abs=0.05)
    assert x_b == pytest.approx(FDMA_ERGODIC_40DB, abs=0.05)


def test_zfbf_perfect_csit_rate_offset():
    # With quality (1, 1) the leakage floor is O(1), so the per-symbol rate
    # sits within a constant of log2(p/2).
    q = QualityPair(1.0, 1.0)
    d = sch.zfbf_descriptor(q, UNMATCHED)
    p = 1e4
    means = mc.trial_rates(d, q, UNMATCHED, p, trials=800, seed=3).mean(axis=0)
    for sym, _, columns in d.table.payloads:
        assert abs(min(means[c] for c in columns) - np.log2(p / 2)) < 1.5, sym
    assert [sym for sym, _, _ in d.table.payloads] == ["u_A", "v_A", "u_B", "v_B"]


# ---------------------------------------------------------------------------
# DoF estimation and reports


def test_estimate_dof_fdma_smoke():
    d = sch.fdma_descriptor()
    report = mc.estimate_dof(d, Q, UNMATCHED, (30.0, 40.0, 50.0), trials=400, seed=0)
    assert report.scheme == "fdma"
    assert report.ladder_db == (30.0, 40.0, 50.0)
    assert set(report.rates) == {"x_A", "x_B"}
    assert set(report.rates["x_A"]) == {"30", "40", "50"}
    assert report.dof["sum"] == pytest.approx(1.0, abs=0.05)
    assert report.dof["user1"] == pytest.approx(0.5, abs=0.05)
    assert set(report.dof) >= {"user1", "user2", "sum", "residual",
                               "sum_regression", "sum_top_pair"}
    # duration weighting: the frame rate is half the slot rate
    assert report.rates["x_A"]["40"] == pytest.approx(FDMA_ERGODIC_40DB / 2, abs=0.2)


def test_rates_monotone_in_snr():
    d = sch.fdma_descriptor()
    report = mc.estimate_dof(d, Q, UNMATCHED, (30.0, 40.0, 50.0), trials=200, seed=1)
    for sym in ("x_A", "x_B"):
        r = [report.rates[sym][k] for k in ("30", "40", "50")]
        assert r[0] < r[1] < r[2]


# On ladders above ~290 dB a float64 sum estimate + error rounds away an
# error below half an ulp of the estimate.  A walk that read the true channel
# on a zero-forced link saw rounding noise there, not the CSIT error, and read
# 0.5951 and 1.7408 below; a nulled link reads the error alone.
_HIGH_LADDER = (380.0, 400.0, 420.0)
_LIMIT_LADDER = (1000.0, 1100.0, 1200.0)


def _zfbf_sum_dof_on_the_high_ladder(q):
    d = sch.zfbf_descriptor(q, UNMATCHED)
    return mc.estimate_dof(d, q, UNMATCHED, _HIGH_LADDER, trials=200, seed=0).dof["sum"]


def test_zfbf_with_perfect_csit_reads_sum_dof_two_on_a_high_ladder():
    assert abs(_zfbf_sum_dof_on_the_high_ladder(QualityPair(1, 1)) - 2) <= 1e-9


def test_zfbf_stays_under_the_outer_bound_on_a_high_ladder():
    # Analytic 1.3 and outer bound 1.65 at (0.8, 0.5).
    dof = _zfbf_sum_dof_on_the_high_ladder(Q)
    assert abs(dof - 1.3) <= 0.01 and dof <= 1.65


#: The zero-forcing rows of ROADMAP's Baseline table: scheme, qualities,
#: scenario, analytic sum DoF, and the tolerance on 380/400/420 dB and on
#: 1000/1100/1200 dB.  The 1e-5 rows have a smallest exponent gap of 1/20,
#: whose finite-SNR bias is ~3e-6 or less at 1000 dB.
_ZF_ROWS = [
    ("zfbf", QualityPair(1, 1), UNMATCHED, 2.0, 1e-9, 1e-12),
    ("zfbf", QualityPair(0.8, 0.5), UNMATCHED, 1.3, 0.01, 1e-12),
    ("zfbf", QualityPair(0.95, 0.5), UNMATCHED, 1.45, 0.01, 1e-5),
    ("optimal-unmatched", QualityPair(0.95, 0.5), UNMATCHED, 1.725, 0.01, 1e-5),
    ("optimal-unmatched", QualityPair(0.6, 0.55), UNMATCHED, 1.575, 0.01, 1e-5),
    ("matched-optimal", QualityPair(1, 0.5), MATCHED, 1.75, 1e-9, 1e-12),
]


@pytest.mark.parametrize("ladder", [_HIGH_LADDER, _LIMIT_LADDER], ids=["380dB", "1000dB"])
@pytest.mark.parametrize("scheme,q,scenario,analytic,tol_high,tol_limit", _ZF_ROWS,
                         ids=[f"{r[0]}({r[1].beta},{r[1].alpha})" for r in _ZF_ROWS])
def test_zero_forcing_reads_the_analytic_sum_dof_on_high_ladders(
        scheme, q, scenario, analytic, tol_high, tol_limit, ladder):
    # Before nulled links read the error alone, every row read 0.59-0.86 on
    # 1000/1100/1200 dB, and all but optimal-unmatched (0.6, 0.55) missed by
    # 0.44-1.41 on 380/400/420 dB, zfbf (0.8, 0.5) above its outer bound.
    d = sch.build_descriptor(scheme, q, scenario)
    dof = mc.estimate_dof(d, q, scenario, ladder, trials=200, seed=0).dof["sum"]
    assert abs(dof - analytic) <= (tol_high if ladder == _HIGH_LADDER else tol_limit), dof
    assert dof <= 1 + (q.beta + q.alpha) / 2 + 1e-12, dof


def test_estimate_dof_ladder_validation():
    d = sch.fdma_descriptor()
    for bad in [(40.0,), (40.0, 50.0), (50.0, 40.0, 60.0), (40.0, 40.0, 50.0),
                (-10.0, 20.0, 30.0)]:
        with pytest.raises(ValueError):
            mc.estimate_dof(d, Q, UNMATCHED, bad, trials=5, seed=0)


@pytest.mark.parametrize("ladder, lo, hi, key", [
    ((40.0, 40.0000001, 50.0), 40.0, 40.0000001, "40"),
    ((20.0, 60.0, 60.000001), 60.0, 60.000001, "60"),
])
def test_estimate_dof_rejects_ladder_points_that_share_a_report_key(ladder, lo, hi, key):
    # Rates are keyed by f"{snr_db:g}", six significant digits; two points
    # with one key would leave one point's rates in the report.
    with pytest.raises(ValueError) as exc:
        mc.estimate_dof(sch.fdma_descriptor(), Q, UNMATCHED, ladder, trials=5, seed=0)
    assert str(exc.value) == f"SNR ladder points {lo!r} and {hi!r} dB share the report key {key!r}"


def test_sim_report_json_roundtrip_and_stability():
    d = sch.s3_descriptor(Q)
    report = mc.estimate_dof(d, Q, UNMATCHED, (20.0, 30.0, 40.0), trials=25, seed=6)
    text = report.to_json()
    again = mc.estimate_dof(d, Q, UNMATCHED, (20.0, 30.0, 40.0), trials=25, seed=6)
    assert again.to_json() == text, "same seed must serialize byte-identically"
    loaded = mc.SimReport.from_json(text)
    assert loaded == report
    doc = json.loads(text)
    assert doc["scheme"] == "s3" and doc["trials"] == 25
    assert doc["beta"] == 0.8 and doc["scenario"] == "unmatched"
    assert mc.SimReport.from_dict({**doc, "unknown": 1}) == report  # unknown keys are ignored


def test_report_rates_are_duration_weighted_delivered_rates():
    d = sch.optimal_unmatched_descriptor(Q)
    trials = 30
    # Standalone ergodic run at 30 dB must reappear as the report's 30 dB
    # column (common random numbers: the ladder reuses the same trial rows).
    means = mc.trial_rates(d, Q, UNMATCHED, ch.db_to_linear(30.0), trials, seed=12).mean(axis=0)
    per_use = {
        sym_id: min(means[c] for c in columns) / len(ch.SUBBANDS)
        for sym_id, _, columns in d.table.payloads
    }
    report = mc.estimate_dof(d, Q, UNMATCHED, (20.0, 30.0, 40.0), trials=trials, seed=12)
    for sym, value in per_use.items():
        assert report.rates[sym]["30"] == pytest.approx(value, rel=1e-12), sym
    # per-user split partitions the sum rate exactly
    total = sum(per_use.values())
    split = [0.0, 0.0]
    for sym_id, sym in d.payloads().items():
        if sym.owner == "common":
            share = d.common_split[sym_id]
            split[0] += share * per_use[sym_id]
            split[1] += (1 - share) * per_use[sym_id]
        else:
            split[0 if sym.owner == "user1" else 1] += per_use[sym_id]
    assert split[0] + split[1] == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# batched walk against the per-trial walk


def _cli_pairs():
    for scheme in sch.SCHEME_NAMES:
        for kind in sch.SCHEMES[scheme].scenarios:
            yield scheme, ch.Scenario(kind)


@pytest.mark.parametrize("scheme,scenario", list(_cli_pairs()))
def test_trial_rates_rows_match_per_trial_walk(scheme, scenario):
    q, p, seed, start, trials = QualityPair(0.9, 0.4), 1e5, 13, 3, 25
    d = sch.build_descriptor(scheme, q, scenario)
    table = mc.trial_rates(d, q, scenario, p, trials, seed=seed, start=start)
    for t in range(trials):
        r = ch.sample_realization(ch.trial_rng(seed, start + t), q, scenario, p)
        assert np.array_equal(table[t], mc.sic_rates(d, r, p)), t


def _differential_pairs():
    """Seeded random pairs with alpha > 0, plus three fixed corners.

    alpha = 0 is left out: zero-forcing and normalising a zero estimate
    fail, so ``simulate`` exits 2 there for zfbf, s3 and optimal-unmatched.
    """
    rng = np.random.default_rng(2024)
    pairs = []
    while len(pairs) < 8:
        lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        if lo > 0:
            pairs.append((float(hi), float(lo)))
    return pairs + [(1.0, 1.0), (1.0, 0.3), (0.6, 0.6)]


#: Largest |MC step slope - audit SINR exponent| allowed at 140/160/180 dB
#: with 2000 trials and seed 0.  The two separate walks that preceded the
#: decode table measured 0.0215 on these pairs (optimal-unmatched u_A at
#: alpha = 0.079): finite-SNR bias of the weakest private symbol, not
#: sampling error.
STEP_SLOPE_BOUND = 0.025


@pytest.mark.parametrize("scheme,scenario", list(_cli_pairs()))
def test_step_slopes_match_the_audit_exponents(scheme, scenario):
    ps = [ch.db_to_linear(v) for v in (140.0, 160.0, 180.0)]
    for b, a in _differential_pairs():
        q = QualityPair(b, a)
        d = sch.build_descriptor(scheme, q, scenario)
        # The audit is exact: it reads the exact build at the same pair.
        report = sch.static_achievability_check(
            sch.build_descriptor(scheme, QualityPair(Fraction(b), Fraction(a)), scenario))
        # MC rate columns and audit steps are the same list: the decode table's.
        assert _steps(d) == [(st.symbol, st.user) for st in report]
        means = np.array([mc.trial_rates(d, q, scenario, p, 2000, seed=0).mean(axis=0)
                          for p in ps])
        slopes = np.polyfit(np.log2(ps), means, 1)[0]
        for st, slope in zip(report, slopes):
            want = float(st.signal_exponent - max(st.interference_exponent, 0))
            assert abs(slope - want) <= STEP_SLOPE_BOUND, (scheme, b, a, st, slope)


def test_estimate_dof_seeds_each_trial_once_for_the_ladder(monkeypatch):
    calls = []
    real = ch._trial_normals

    def counting(seed, start, trials, k):
        calls.append((seed, start, trials))
        return real(seed, start, trials, k)

    monkeypatch.setattr(ch, "_trial_normals", counting)
    monkeypatch.setattr(mc, "TRIAL_BLOCK", 5)
    d = sch.optimal_unmatched_descriptor(Q)
    mc.estimate_dof(d, Q, UNMATCHED, (40.0, 50.0, 60.0), trials=12, seed=2)
    assert calls == [(2, 0, 5), (2, 5, 5), (2, 10, 2)]


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_each_trial_block_is_sampled_and_walked_once_for_the_whole_ladder(monkeypatch):
    calls = []
    for module, name in ((ch, "_trial_normals"), (ch, "_pairs_from_normals"),
                         (mc, "_step_rates")):
        _counting(monkeypatch, module, name, calls)
    monkeypatch.setattr(mc, "TRIAL_BLOCK", 5)
    monkeypatch.setattr(ch, "TRIAL_BLOCK", 5)
    d = sch.optimal_unmatched_descriptor(Q)
    mc.estimate_dof(d, Q, UNMATCHED, (40.0, 50.0, 60.0, 70.0, 80.0), trials=12, seed=2)
    assert calls == ["_trial_normals", "_pairs_from_normals", "_step_rates"] * 3
    calls.clear()
    ch.measure_error_exponent(0.5, [1e2, 1e3, 1e4, 1e5], trials=12, seed=2)
    assert calls == ["_trial_normals", "_pairs_from_normals"] * 3


def test_report_bytes_do_not_depend_on_the_block_size(monkeypatch):
    d = sch.optimal_unmatched_descriptor(Q)
    ladder, trials = (30.0, 40.0, 50.0), 30
    whole = mc.estimate_dof(d, Q, UNMATCHED, ladder, trials, seed=5)
    # The streamed means against the mean of the whole per-trial table.
    for snr_db in ladder:
        means = mc.trial_rates(d, Q, UNMATCHED, ch.db_to_linear(snr_db), trials,
                               seed=5).mean(axis=0)
        for sym_id, _, columns in d.table.payloads:
            want = float(min(means[c] for c in columns)) / len(ch.SUBBANDS)
            assert whole.rates[sym_id][mc._db_key(snr_db)] == want, (snr_db, sym_id)
    monkeypatch.setattr(mc, "TRIAL_BLOCK", 7)
    assert mc.estimate_dof(d, Q, UNMATCHED, ladder, trials, seed=5).to_json() == whole.to_json()


def test_one_step_report_does_not_depend_on_the_block_size(monkeypatch):
    # numpy sums a one-column table pairwise along the trials, so a mean
    # reduced block by block would depend on where the blocks split.
    full = sch.PowerTerm(1, 1.0)
    d = sch.SchemeDescriptor(
        "one-step", None, None,
        (sch.SymbolSpec("x", "user1", "A", sch.basis_e1(), full, 1.0),
         sch.SymbolSpec("x", "user1", "B", sch.basis_e1(), full, 1.0)),
        (sch.DecodeStep("user1", "A", "x"),))
    assert len(d.table.signal) == 1
    whole = mc.estimate_dof(d, Q, UNMATCHED, (40.0, 50.0, 60.0), trials=300, seed=1)
    monkeypatch.setattr(mc, "TRIAL_BLOCK", 7)
    assert mc.estimate_dof(d, Q, UNMATCHED, (40.0, 50.0, 60.0), trials=300,
                           seed=1).to_json() == whole.to_json()


def test_estimate_dof_memory_does_not_grow_with_the_trial_count(monkeypatch):
    import tracemalloc

    d = sch.optimal_unmatched_descriptor(Q)
    block, ladder = 256, (40.0, 50.0, 60.0)
    # Walk in blocks of the RNG contract's size, as estimate_dof does: a
    # walk block inside a larger contract block draws the rows before it.
    monkeypatch.setattr(mc, "TRIAL_BLOCK", block)
    monkeypatch.setattr(ch, "TRIAL_BLOCK", block)
    mc.estimate_dof(d, Q, UNMATCHED, ladder, trials=block, seed=0)  # warm caches
    peaks = []
    for blocks in (2, 8):
        tracemalloc.start()
        mc.estimate_dof(d, Q, UNMATCHED, ladder, trials=block * blocks, seed=0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # Holding the rate table would add a block's table per block (61 KB
    # here); the peak moves by ~1 KB from run to run.
    table_per_block = len(ladder) * block * len(d.table.signal) * 8
    assert abs(peaks[1] - peaks[0]) < table_per_block / 8, peaks


def test_one_block_walk_gathers_one_receiving_cell_at_a_time():
    import tracemalloc

    d = sch.optimal_unmatched_descriptor(Q)
    ps = [ch.db_to_linear(v) for v in (40.0, 50.0, 60.0)]
    cells = ch.sample_ladder_cells(0, Q, UNMATCHED, ps, ch.TRIAL_BLOCK)
    mc._step_rates(d, cells, ps)  # warm caches
    tracemalloc.start()
    try:
        mc._step_rates(d, cells, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 9 537 920 bytes when the walk read one array per cell (x86-64,
    # numpy 2.4).  The walk now gathers all 16 links at once, which over
    # the whole block would peak at ~17.0 MB, but in sub-blocks of
    # mc.WALK_BLOCK trials, so its temporaries are those of a quarter block.
    assert peak <= 1.05 * 9_537_920, peak


def test_one_block_walk_peaks_at_one_sub_block_of_links():
    import tracemalloc

    d = sch.optimal_unmatched_descriptor(Q)
    ps = [ch.db_to_linear(v) for v in (40.0, 50.0, 60.0)]
    cells = ch.sample_ladder_cells(0, Q, UNMATCHED, ps, ch.TRIAL_BLOCK)
    mc._step_rates(d, cells, ps)  # warm caches
    tracemalloc.start()
    try:
        mc._step_rates(d, cells, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 4 615 928 bytes (x86-64, numpy 2.4): the block's rate array (983 040)
    # plus one sub-block's gathered directions and products (1 572 864
    # each) and its link powers; a previous sub-block's temporaries held
    # into the next one's walk would add ~0.7 MB.
    assert peak <= 1.05 * 4_615_928, peak


def test_trial_rates_do_not_depend_on_the_block_size(monkeypatch):
    d = sch.s3_descriptor(Q)
    whole = mc.trial_rates(d, Q, UNMATCHED, 1e4, trials=10, seed=1)
    monkeypatch.setattr(mc, "TRIAL_BLOCK", 4)
    assert np.array_equal(mc.trial_rates(d, Q, UNMATCHED, 1e4, trials=10, seed=1), whole)


@pytest.mark.parametrize("bad", [(40.0, 50.0, float("inf")), (40.0, 50.0, float("nan")),
                                 (40.0, 50.0, 4000.0)])
def test_estimate_dof_rejects_non_finite_ladder(bad):
    with pytest.raises(ValueError, match="finite|overflows"):
        mc.estimate_dof(sch.fdma_descriptor(), Q, UNMATCHED, bad, trials=5, seed=0)


def test_estimate_dof_rejects_rates_that_overflow():
    # Finite linear SNRs (up to 1e308) whose received powers overflow float64.
    with pytest.raises(ValueError, match=r"SNR ladder .*3080.* overflows"):
        mc.estimate_dof(sch.fdma_descriptor(), Q, UNMATCHED, (3000.0, 3050.0, 3080.0),
                        trials=20, seed=0)


@pytest.mark.parametrize("rates", [mc.trial_rates])
def test_rates_that_overflow_raise_in_every_entry_point(rates):
    # A linear SNR of 1e308 overflows the received powers of trial 1.
    with pytest.raises(ValueError, match=r"SNR ladder \[1e\+308\] \(linear\) overflows"):
        rates(sch.fdma_descriptor(), Q, UNMATCHED, 1e308, 3)


def test_estimate_dof_rejects_a_negative_seed(monkeypatch):
    monkeypatch.setattr(mc, "_ladder_rates", None)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
        mc.estimate_dof(sch.fdma_descriptor(), Q, UNMATCHED, (40.0, 50.0, 60.0),
                        trials=5, seed=-3)


def test_estimate_dof_reports_numpy_and_bool_counts_as_plain_ints():
    d = sch.fdma_descriptor()
    ladder = (40.0, 50.0, 60.0)
    text = mc.estimate_dof(d, Q, UNMATCHED, ladder, trials=10, seed=3).to_json()
    assert mc.estimate_dof(d, Q, UNMATCHED, ladder, trials=np.int64(10),
                           seed=np.int64(3)).to_json() == text
    report = mc.estimate_dof(d, Q, UNMATCHED, ladder, trials=np.int32(10), seed=True)
    assert type(report.seed) is int and type(report.trials) is int
    assert '"seed": 1,' in report.to_json()
    assert report.to_json() == mc.estimate_dof(d, Q, UNMATCHED, ladder, trials=10, seed=1).to_json()


# ---------------------------------------------------------------------------
# bit-identity oracles: the formulas that the long-loop kernels replaced


def _slopes_oracle(ps, y):
    x = np.log2(ps)
    coeffs = np.polyfit(x, y, 1)
    residual = np.max(np.abs(np.polyval(coeffs, x[:, None]) - y), axis=0)
    return coeffs[0], (y[-1] - y[-2]) / (x[-1] - x[-2]), residual


def _link_powers_oracle(d):
    """``mc._link_powers`` for d by the walk it replaced, one receiving cell's
    links at a time (looked up with flatnonzero), each link's cell, precoder
    row and symbol taken from the plan walk ``_reference_links``, not from the
    table's columns.  A link zero-forced on its own cell (``_zero_forced_on``)
    reads the cell's error, any other link its true channel."""
    links = _reference_links(d)

    def link_powers(cells, symbols, table, ps):
        assert symbols is d.symbols
        cell = np.array([ch.cell_index(user, symbols[i].slot) for i, user in links])
        nulled = np.array([_zero_forced_on(symbols[i].precoder, c)
                           for (i, _), c in zip(links, cell.tolist())], dtype=bool)
        precoder = np.array([table.precoders.index(symbols[i].precoder) for i, _ in links])
        symbol = np.array([i for i, _ in links])
        w = mc._directions(cells.estimate, table)
        values = np.array([[sym.power.value(p) for p in ps] for sym in symbols])
        values = values.reshape(values.shape + (1,) * (w.ndim - 3))
        out = np.zeros((len(links) + 1,) + w.shape[1:-1])
        for c, (true, error) in enumerate(zip(cells.true, cells.error)):
            for reads, h in ((False, true), (True, error)):
                ns = np.flatnonzero((cell == c) & (nulled == reads))
                if len(ns):
                    products = h.conj() * w[precoder[ns]]
                    out[ns] = np.abs(products[..., 0] + products[..., 1]) ** 2 * values[symbol[ns]]
        return out

    return link_powers


def true_stack_walk_reading_the_error_on_nulled_rows(cells, table, power):
    """``mc._link_powers`` as it was before the table marked nulled links: it
    gathered the 4-cell ``cells.true`` stack for every link.  Here only the rows
    of the links zero-forced on their own cell (``_zero_forced_on``) are read
    from the error instead."""
    w = mc._directions(cells.estimate, table)[table.precoder]
    products = cells.true[table.cell].astype(np.result_type(cells.estimate, w), copy=False)
    rows = [n for n, (c, r) in enumerate(zip(table.cell.tolist(), table.precoder.tolist()))
            if _zero_forced_on(table.precoders[r], c)]
    products[rows] = cells.error[table.cell[rows]]
    np.conjugate(products, out=products)
    products *= w
    summed = products[..., 0]
    summed += products[..., 1]
    out = np.empty((table.links + 1,) + w.shape[1:-1])
    out[-1] = 0.0
    powers = np.abs(summed, out=out[:-1])
    np.square(powers, out=powers)
    powers *= power
    return out


def _step_rates_oracle(d):
    """``mc._step_rates`` for d as one pass over the whole block, through the
    per-cell walk of ``_link_powers_oracle``, interference gathered at once."""
    link_powers = _link_powers_oracle(d)

    def step_rates(walked, cells, ps):
        assert walked is d
        table = d.table
        powers = link_powers(cells, d.symbols, table, ps)
        gathered = powers[table.interference]
        total = sum(gathered[:, j] for j in range(table.interference.shape[1]))
        return np.log2(1.0 + powers[table.signal] / (1.0 + total))

    return step_rates


#: Trial counts at the edges of a walk's sub-blocks and of the sampler's blocks.
WALK_TRIALS = [1, 100, 1023, 1024, 1025, 4096, 9000]


@pytest.mark.parametrize("ps", [(1e4, 1e5, 1e6), (1e14, 1e16, 1e18), (3.0, 1e2, 1e3, 1e7)])
def test_slopes_equal_polyfit_and_polyval(ps):
    rng = np.random.default_rng(len(ps))
    for y in (rng.standard_normal(len(ps)) * 5.0, rng.standard_normal((len(ps), 3)) * 5.0 + 20.0):
        got, want = mc._slopes(ps, y), _slopes_oracle(ps, y)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w) and np.array_equal(g, w)


@pytest.mark.parametrize("trials", WALK_TRIALS)
def test_link_powers_equal_the_flatnonzero_walk(trials):
    ps = [ch.db_to_linear(v) for v in (40.0, 50.0, 60.0)]
    for scheme, scenario in _cli_pairs():
        cells = ch.sample_ladder_cells(2, Q, scenario, ps, trials)
        d = sch.build_descriptor(scheme, Q, scenario)
        got = mc._link_powers(cells, d.table, mc._power_table(d.symbols, d.table, ps))
        assert np.array_equal(got, _link_powers_oracle(d)(cells, d.symbols, d.table, ps)), scheme


@pytest.mark.parametrize("trials", WALK_TRIALS)
def test_step_rates_equal_the_whole_block_walk(trials):
    ps = [ch.db_to_linear(v) for v in (40.0, 50.0, 60.0)]
    for scheme, scenario in _cli_pairs():
        cells = ch.sample_ladder_cells(2, Q, scenario, ps, trials)
        d = sch.build_descriptor(scheme, Q, scenario)
        got, want = mc._step_rates(d, cells, ps), _step_rates_oracle(d)(d, cells, ps)
        assert got.shape == want.shape and np.array_equal(got, want), scheme


@pytest.mark.parametrize("trials", WALK_TRIALS)
def test_reports_equal_the_reports_of_the_whole_block_walk(monkeypatch, trials):
    """Every scheme's report, or its refusal, at sub-block and block edges: on
    the 40/50/60 dB ladder and on the alpha = 3e-18 ladder, which zeroes the
    estimates at 40 dB only, so every scheme that directs a symbol along one
    refuses it."""
    cases = [(Q, (40.0, 50.0, 60.0)), (QualityPair(0.5, 3e-18), (40.0, 200.0, 400.0))]

    def reports(oracle=False):
        out = []
        for scheme, scenario in _cli_pairs():
            for q, ladder in cases:
                d = sch.build_descriptor(scheme, q, scenario)
                if oracle:
                    monkeypatch.setattr(mc, "_step_rates", _step_rates_oracle(d))
                try:
                    out.append(mc.estimate_dof(d, q, scenario, ladder, trials, seed=11).to_json())
                except ValueError as e:
                    out.append(str(e))
        return out

    got = reports()
    assert sum(r.startswith("degenerate direction") for r in got) == 5  # all but fdma's 2
    assert got == reports(oracle=True)


def test_a_zero_estimate_refusal_names_the_whole_blocks_first_degenerate_direction():
    """s3's first precoder is aligned along (user2, A)'s estimate and its second
    zero-forces against (user1, A)'s.  With (user1, A)'s estimate zero in the
    first sub-block and (user2, A)'s only in the last, the walk refuses to
    normalise, as one walk of the whole block does."""
    d = sch.s3_descriptor(Q)
    assert [(pre.kind, pre.user, pre.subband) for pre in d.table.precoders[:2]] == [
        ("aligned", "user2", "A"), ("zf_orth", "user1", "A")]
    cells = ch.sample_ladder_cells(0, Q, UNMATCHED, [1e4], 2 * mc.WALK_BLOCK)[:, 0]
    cells.estimate[ch.cell_index("user1", "A"), 0] = 0.0
    cells.estimate[ch.cell_index("user2", "A"), -1] = 0.0
    with pytest.raises(ValueError, match="^degenerate direction: cannot normalise a zero "):
        mc.sic_rates(d, cells, 1e4)
    with pytest.raises(ValueError, match="cannot zero-force"):
        mc.sic_rates(d, cells[:, :mc.WALK_BLOCK], 1e4)


@pytest.mark.parametrize("scheme,scenario", list(_cli_pairs()))
def test_reports_equal_the_reports_of_the_oracle_kernels(monkeypatch, scheme, scenario):
    from test_channel import _oracle_layout, _unit_oracle, _zf_oracle

    cases = [(QualityPair(0.8, 0.5), (40.0, 50.0, 60.0), 100),
             (QualityPair(1.0, 0.3), (140.0, 160.0, 180.0), 7)]
    if scheme == "fdma":  # the others direct symbols along the zero estimates at 40 dB
        cases.append((QualityPair(0.5, 3e-18), (40.0, 200.0, 400.0), 50))

    def reports(oracle=False):
        out = []
        for q, ladder, trials in cases:
            d = sch.build_descriptor(scheme, q, scenario)
            if oracle:
                monkeypatch.setattr(mc, "_step_rates", _step_rates_oracle(d))
            out.append(mc.estimate_dof(d, q, scenario, ladder, trials, seed=11).to_json())
        return out

    got = reports()
    monkeypatch.setattr(ch, "_pairs_from_normals", _oracle_layout)
    monkeypatch.setattr(mc, "zf_direction", _zf_oracle)
    monkeypatch.setattr(mc, "unit", _unit_oracle)
    monkeypatch.setattr(mc, "_slopes", _slopes_oracle)
    assert got == reports(oracle=True)


@pytest.mark.parametrize("trials", [100, 1025])
def test_reports_equal_those_of_the_true_stack_walk_reading_the_error_on_nulled_rows(
        monkeypatch, trials):
    """Every scheme's report on a low, a high and a limit ladder is the report of
    the walk that gathered the true channel for every link, with only the nulled
    rows read from the error: the one change to the MC output."""
    cases = [(Q, (40.0, 50.0, 60.0)), (QualityPair(1, 1), _HIGH_LADDER),
             (QualityPair(0.95, 0.5), _LIMIT_LADDER)]

    def reports():
        return [mc.estimate_dof(sch.build_descriptor(scheme, q, scenario), q, scenario,
                                ladder, trials, seed=5).to_json()
                for scheme, scenario in _cli_pairs() for q, ladder in cases]

    got = reports()
    monkeypatch.setattr(mc, "_link_powers", true_stack_walk_reading_the_error_on_nulled_rows)
    assert got == reports()
