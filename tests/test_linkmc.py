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

Q = QualityPair(0.8, 0.5)

FDMA_ERGODIC_40DB = 12.456356


def _instance(d, sym_id, slot):
    return next(s for s in d.symbols if (s.id, s.slot) == (sym_id, slot))


def _steps(d):
    """(symbol, decoding user) of each decode step, read off its signal link."""
    table = d.table
    return [(d.symbols[table.symbol[n]].id, ch.CELLS[table.cell[n]][0]) for n in table.signal]


def _column(d, sym_id, user):
    return _steps(d).index((sym_id, user))


def _manual_realization():
    # One row per cell, in ch.CELLS order: (user1, A), (user2, A), (user1, B), (user2, B).
    true = np.array([[2.0, 1.0j], [0.5, 1.0], [1.0, -1.0], [1.0j, 2.0]])
    estimate = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0], [0.0, 2.0]], dtype=complex)
    return ch.ChannelPair(true=true, estimate=estimate, error=true - estimate)


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


def test_sic_rates_and_received_power_reject_an_infinite_snr():
    # Without the check, sic_rates gave nan rates and a numpy RuntimeWarning.
    d = sch.optimal_unmatched_descriptor(Q)
    r = ch.sample_realization(ch.trial_rng(0, 0), Q, UNMATCHED, 1e4)
    with pytest.raises(ValueError, match="linear SNR must be finite, got inf"):
        mc.sic_rates(d, r, float("inf"))
    with pytest.raises(ValueError, match="linear SNR must be finite, got inf"):
        mc.received_power(r, d.symbols[0], "user1", float("inf"))


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
        np.testing.assert_array_max_ulp(table[t], mc.sic_rates(d, r, p), maxulp=2)


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
    # numpy 2.4).  Each receiving cell has 4 of the 16 links; gathering
    # the directions and products of all 16 at once peaks at ~17.0 MB.
    assert peak <= 1.05 * 9_537_920, peak


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


def _link_powers_oracle(cells, symbols, index, ps):
    """The walk that looked up each receiving cell's links with flatnonzero."""
    w = mc._directions(cells.estimate, index)
    values = np.array([[sym.power.value(p) for p in ps] for sym in symbols])
    values = values.reshape(values.shape + (1,) * (w.ndim - 3))
    out = np.zeros((len(index.cell) + 1,) + w.shape[1:-1])
    for c, true in enumerate(cells.true):
        ns = np.flatnonzero(index.cell == c)
        if len(ns):
            products = true.conj() * w[index.precoder[ns]]
            out[ns] = np.abs(products[..., 0] + products[..., 1]) ** 2 * values[index.symbol[ns]]
    return out


@pytest.mark.parametrize("ps", [(1e4, 1e5, 1e6), (1e14, 1e16, 1e18), (3.0, 1e2, 1e3, 1e7)])
def test_slopes_equal_polyfit_and_polyval(ps):
    rng = np.random.default_rng(len(ps))
    for y in (rng.standard_normal(len(ps)) * 5.0, rng.standard_normal((len(ps), 3)) * 5.0 + 20.0):
        got, want = mc._slopes(ps, y), _slopes_oracle(ps, y)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w) and np.array_equal(g, w)


@pytest.mark.parametrize("trials", [1, 100, 4096])
def test_link_powers_equal_the_flatnonzero_walk(trials):
    ps = [ch.db_to_linear(v) for v in (40.0, 50.0, 60.0)]
    cells = ch.sample_ladder_cells(2, Q, UNMATCHED, ps, trials)
    for d in (sch.optimal_unmatched_descriptor(Q), sch.s3_descriptor(Q), sch.fdma_descriptor()):
        args = (cells, d.symbols, d.table, ps)
        assert np.array_equal(mc._link_powers(*args), _link_powers_oracle(*args))


@pytest.mark.parametrize("scheme,scenario", list(_cli_pairs()))
def test_reports_equal_the_reports_of_the_oracle_kernels(monkeypatch, scheme, scenario):
    from test_channel import _pairs_oracle, _unit_oracle, _zf_oracle

    cases = [(QualityPair(0.8, 0.5), (40.0, 50.0, 60.0), 100),
             (QualityPair(1.0, 0.3), (140.0, 160.0, 180.0), 7)]
    if scheme == "fdma":  # the others direct symbols along the zero estimates at 40 dB
        cases.append((QualityPair(0.5, 3e-18), (40.0, 200.0, 400.0), 50))

    def reports():
        return [mc.estimate_dof(sch.build_descriptor(scheme, q, scenario), q, scenario,
                                ladder, trials, seed=11).to_json()
                for q, ladder, trials in cases]

    got = reports()
    monkeypatch.setattr(ch, "_pairs_from_normals", _pairs_oracle)
    monkeypatch.setattr(mc, "zf_direction", _zf_oracle)
    monkeypatch.setattr(mc, "unit", _unit_oracle)
    monkeypatch.setattr(mc, "_link_powers", _link_powers_oracle)
    monkeypatch.setattr(mc, "_slopes", _slopes_oracle)
    assert got == reports()
