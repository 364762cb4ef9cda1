"""Monte Carlo link level: received powers, SIC walks, ergodic rates and
DoF slope estimation.

The FDMA ergodic reference values below come from the closed form
E log2(1 + |h|^2 p) = e^(1/p) E1(1/p) / ln 2 for |h|^2 ~ Exp(1), evaluated
independently (scipy.special.exp1 and numerical quadrature agree):
12.456356 bits at 40 dB, 15.777066 at 50 dB, 19.098843 at 60 dB.
"""

import json

import numpy as np
import pytest

from dofsim import channel as ch
from dofsim import linkmc as mc
from dofsim import schemes as sch
from dofsim.channel import MATCHED, UNMATCHED, QualityPair

Q = QualityPair(0.8, 0.5)

FDMA_ERGODIC_40DB = 12.456356


def _manual_realization():
    def pair(true, estimate):
        t = np.asarray(true, dtype=complex)
        e = np.asarray(estimate, dtype=complex)
        return ch.ChannelPair(true=t, estimate=e, error=t - e)

    return ch.ChannelRealization({
        ("user1", "A"): pair([2.0, 1.0j], [1.0, 0.0]),
        ("user2", "A"): pair([0.5, 1.0], [0.0, 1.0]),
        ("user1", "B"): pair([1.0, -1.0], [1.0, -1.0]),
        ("user2", "B"): pair([1.0j, 2.0], [0.0, 2.0]),
    })


# ---------------------------------------------------------------------------
# received power


def test_received_power_basis_symbol_exact():
    r = _manual_realization()
    x_a = sch.fdma_descriptor().instance("x_A", "A")
    p = 1e4
    # |h_A[0]|^2 * p with h_A = (2, i)
    assert mc.received_power(r, x_a, "user1", p) == pytest.approx(4.0 * p, rel=1e-12)
    assert mc.received_power(r, x_a, "user2", p) == pytest.approx(0.25 * p, rel=1e-12)


def test_received_power_zf_symbol_exact():
    r = _manual_realization()
    d = sch.zfbf_descriptor(Q, UNMATCHED)
    u_a = d.instance("u_A", "A")  # orthogonal to user2's estimate (0, 1)
    p = 100.0
    assert mc.received_power(r, u_a, "user1", p) == pytest.approx(4.0 * p / 2, rel=1e-12)
    assert mc.received_power(r, u_a, "user2", p) == pytest.approx(0.25 * p / 2, rel=1e-12)


def test_received_power_requires_snr_above_one():
    r = _manual_realization()
    x_a = sch.fdma_descriptor().instance("x_A", "A")
    with pytest.raises(ValueError):
        mc.received_power(r, x_a, "user1", 1.0)


def test_zf_leakage_mean_is_half():
    """E |g^H zf(g_est)|^2 * p^alpha / 2 = sigma2 * p^alpha / 2 = 1/2."""
    d = sch.optimal_unmatched_descriptor(Q)
    u_a = d.instance("u_A", "A")
    p = 1e4
    acc = 0.0
    n = 3000
    for t in range(n):
        r = ch.sample_realization(ch.trial_rng(31, t), Q, UNMATCHED, p)
        acc += mc.received_power(r, u_a, "user2", p)
    assert acc / n == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------------------
# SIC rate walks


def test_sic_fdma_rate_is_single_user_formula():
    r = _manual_realization()
    p = 1e4
    inst = mc.sic_rates(sch.fdma_descriptor(), r, p)
    assert inst.rates["x_A"]["user1"] == pytest.approx(np.log2(1 + 4.0 * p), rel=1e-12)
    assert inst.rates["x_B"]["user2"] == pytest.approx(np.log2(1 + 1.0 * p), rel=1e-12)
    assert inst.delivered("x_A") == inst.rates["x_A"]["user1"]


def test_sic_u0_step_matches_hand_computed_sinr():
    p = 10 ** 4.5
    realization = ch.sample_realization(ch.trial_rng(8, 0), Q, UNMATCHED, p)
    d = sch.optimal_unmatched_descriptor(Q)
    inst = mc.sic_rates(d, realization, p)

    h = realization.true("user1", "A")
    g_est = realization.estimate("user2", "A")
    h_est = realization.estimate("user1", "A")
    signal = abs(np.vdot(h, ch.unit(g_est))) ** 2 * (p**0.8 - p**0.5) / 2
    interference = (
        abs(np.vdot(h, ch.zf_direction(g_est))) ** 2 * p**0.5 / 2
        + abs(np.vdot(h, ch.zf_direction(h_est))) ** 2 * p**0.8 / 2
    )
    want = np.log2(1 + signal / (1 + interference))
    assert inst.rates["u_0"]["user1"] == pytest.approx(want, rel=1e-12)


def test_sic_cancellation_never_hurts():
    q = QualityPair(0.9, 0.4)
    base = sch.s3_descriptor(q)
    stripped = sch.SchemeDescriptor(
        name="s3-nocancel", scenario=base.scenario, quality=base.quality,
        slots=base.slots, symbols=base.symbols,
        decode_plan=tuple(
            sch.DecodeStep(s.user, s.slot, s.symbol) for s in base.decode_plan
        ),
    )
    p = 1e3
    for t in range(20):
        r = ch.sample_realization(ch.trial_rng(2, t), q, UNMATCHED, p)
        with_cancel = mc.sic_rates(base, r, p)
        without = mc.sic_rates(stripped, r, p)
        for sym_id, per_user in with_cancel.rates.items():
            for user, rate in per_user.items():
                assert rate >= without.rates[sym_id][user] - 1e-12


def test_delivered_rate_is_worst_decoder():
    inst = mc.InstantRates({"xc": {"user1": 3.0, "user2": 2.5}})
    assert inst.delivered("xc") == 2.5


def test_rate_cells_enumeration():
    assert mc.rate_cells(sch.fdma_descriptor()) == [("x_A", "user1"), ("x_B", "user2")]
    cells = mc.rate_cells(sch.optimal_unmatched_descriptor(Q))
    assert cells.count(("u_0", "user1")) == 1 and cells.count(("u_0", "user2")) == 1
    assert ("xc_A", "user1") in cells and ("xc_A", "user2") in cells
    assert ("u_A", "user2") not in cells


# ---------------------------------------------------------------------------
# trial tables and determinism


def test_trial_rates_partition_independence():
    d = sch.zfbf_descriptor(Q, UNMATCHED)
    p = 1e3
    full = mc.trial_rates(d, Q, UNMATCHED, p, trials=8, seed=9)
    head = mc.trial_rates(d, Q, UNMATCHED, p, trials=5, seed=9)
    tail = mc.trial_rates(d, Q, UNMATCHED, p, trials=3, seed=9, start=5)
    assert np.array_equal(full, np.vstack([head, tail]))


def test_trial_rates_validation():
    d = sch.zfbf_descriptor(Q, UNMATCHED)
    with pytest.raises(ValueError):
        mc.trial_rates(d, Q, UNMATCHED, 1e3, trials=0)
    with pytest.raises(ValueError, match="scenario"):
        mc.trial_rates(d, Q, MATCHED, 1e3, trials=1)
    with pytest.raises(ValueError, match="beta"):
        mc.trial_rates(d, QualityPair(0.9, 0.5), UNMATCHED, 1e3, trials=1)


def test_ergodic_rates_reproducible():
    d = sch.s3_descriptor(Q)
    a = mc.ergodic_rates(d, Q, UNMATCHED, 1e3, trials=40, seed=4)
    b = mc.ergodic_rates(d, Q, UNMATCHED, 1e3, trials=40, seed=4)
    assert a.rates == b.rates


def test_fdma_ergodic_matches_closed_form():
    d = sch.fdma_descriptor()
    erg = mc.ergodic_rates(d, Q, UNMATCHED, ch.db_to_linear(40.0), trials=20_000, seed=0)
    assert erg.rates["x_A"]["user1"] == pytest.approx(FDMA_ERGODIC_40DB, abs=0.05)
    assert erg.rates["x_B"]["user2"] == pytest.approx(FDMA_ERGODIC_40DB, abs=0.05)


def test_zfbf_perfect_csit_rate_offset():
    # With quality (1, 1) the leakage floor is O(1), so the per-symbol rate
    # sits within a constant of log2(p/2).
    q = QualityPair(1.0, 1.0)
    d = sch.zfbf_descriptor(q, UNMATCHED)
    p = 1e4
    erg = mc.ergodic_rates(d, q, UNMATCHED, p, trials=800, seed=3)
    for sym in ("u_A", "v_A", "u_B", "v_B"):
        assert abs(erg.delivered(sym) - np.log2(p / 2)) < 1.5, sym


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


def test_report_rates_are_duration_weighted_delivered_rates():
    d = sch.optimal_unmatched_descriptor(Q)
    trials = 30
    # Standalone ergodic run at 30 dB must reappear as the report's 30 dB
    # column (common random numbers: the ladder reuses the same substreams).
    erg = mc.ergodic_rates(d, Q, UNMATCHED, ch.db_to_linear(30.0), trials=trials, seed=12)
    per_use = {
        sym: erg.delivered(sym) * d.slot_duration(group[0].slot) / d.total_duration()
        for sym, group in d._by_id().items()
    }
    report = mc.estimate_dof(d, Q, UNMATCHED, (20.0, 30.0, 40.0), trials=trials, seed=12)
    for sym, value in per_use.items():
        assert report.rates[sym]["30"] == pytest.approx(value, rel=1e-12), sym
    # per-user split partitions the sum rate exactly
    total = sum(per_use.values())
    split = [0.0, 0.0]
    for sym, group in d._by_id().items():
        if group[0].owner == "common":
            share = d.common_split[sym]
            split[0] += share * per_use[sym]
            split[1] += (1 - share) * per_use[sym]
        else:
            split[0 if group[0].owner == "user1" else 1] += per_use[sym]
    assert split[0] + split[1] == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# batched walk against the per-trial walk


def _cli_pairs():
    from dofsim.cli import _SCHEME_SCENARIO

    for scheme in sch.SCHEME_NAMES:
        implied = _SCHEME_SCENARIO.get(scheme)
        for kind in [implied] if implied else ["unmatched", "matched"]:
            yield scheme, ch.Scenario(kind)


@pytest.mark.parametrize("scheme,scenario", list(_cli_pairs()))
def test_trial_rates_rows_match_per_trial_walk(scheme, scenario):
    q, p, seed, start, trials = QualityPair(0.9, 0.4), 1e5, 13, 3, 25
    d = sch.build_descriptor(scheme, q, scenario)
    table = mc.trial_rates(d, q, scenario, p, trials, seed=seed, start=start)
    cells = mc.rate_cells(d)
    for t in range(trials):
        r = ch.sample_realization(ch.trial_rng(seed, start + t), q, scenario, p)
        inst = mc.sic_rates(d, r, p)
        want = np.array([inst.rates[s][u] for s, u in cells])
        np.testing.assert_array_max_ulp(table[t], want, maxulp=2)


def test_estimate_dof_seeds_each_trial_once_for_the_ladder(monkeypatch):
    ch._check_seeding()
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


def test_estimate_dof_rejects_a_negative_seed(monkeypatch):
    monkeypatch.setattr(mc, "_ladder_rates", None)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
        mc.estimate_dof(sch.fdma_descriptor(), Q, UNMATCHED, (40.0, 50.0, 60.0),
                        trials=5, seed=-3)


def test_traced_functions_still_resolve(monkeypatch):
    """The benchmark's per-layer trace wraps functions by their module path
    (``linkmc.trial_rng``, ``linkmc.zf_direction``, ...); each must exist."""
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spec
    import tracing

    for _, targets, _ in spec.TRACED:
        for target in targets:
            owner, attr = tracing._resolve(target)
            assert callable(getattr(owner, attr)), target
