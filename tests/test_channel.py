"""Channel sampling, zero-forcing directions and error-scaling statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dofsim import channel as ch


def test_quality_pair_accepts_ordered_exponents():
    q = ch.QualityPair(0.8, 0.5)
    assert (q.beta, q.alpha) == (0.8, 0.5)


def test_quality_pair_preserves_fractions():
    from fractions import Fraction

    q = ch.QualityPair(Fraction(4, 5), Fraction(1, 2))
    assert isinstance(q.beta, Fraction) and isinstance(q.alpha, Fraction)


@pytest.mark.parametrize("beta,alpha", [(0.5, 0.8), (1.2, 0.1), (0.5, -0.1), (-0.2, -0.3)])
def test_quality_pair_rejects_bad_exponents(beta, alpha):
    with pytest.raises(ValueError):
        ch.QualityPair(beta, alpha)


def test_scenario_quality_table():
    q = ch.QualityPair(0.8, 0.5)
    u = ch.UNMATCHED
    assert u.quality("user1", "A", q) == 0.8
    assert u.quality("user1", "B", q) == 0.5
    assert u.quality("user2", "A", q) == 0.5
    assert u.quality("user2", "B", q) == 0.8
    m = ch.MATCHED
    assert m.quality("user1", "A", q) == m.quality("user2", "A", q) == 0.8
    assert m.quality("user1", "B", q) == m.quality("user2", "B", q) == 0.5


def test_scenario_validation():
    with pytest.raises(ValueError):
        ch.Scenario("mixed")
    with pytest.raises(ValueError):
        ch.UNMATCHED.quality("user3", "A", ch.QualityPair(1, 1))
    with pytest.raises(ValueError):
        ch.UNMATCHED.quality("user1", "C", ch.QualityPair(1, 1))


def test_db_conversions():
    assert ch.db_to_linear(40.0) == pytest.approx(1e4)
    assert ch.linear_to_db(1e4) == pytest.approx(40.0)


# ---------------------------------------------------------------------------
# sampling


def test_sample_pair_reconstruction_is_bitwise():
    rng = np.random.default_rng(3)
    for a in (0.0, 0.3, 1.0):
        pair = ch.sample_pair(rng, a, 1e4)
        assert np.array_equal(pair.true, pair.estimate + pair.error)


def test_sample_pair_zero_quality_estimate_is_zero():
    # sigma2 = p**0 = 1 leaves nothing for the estimate.
    pair = ch.sample_pair(np.random.default_rng(0), 0.0, 100.0)
    assert np.all(pair.estimate == 0)
    with pytest.raises(ValueError, match="degenerate"):
        ch.zf_direction(pair.estimate)


def test_sample_pair_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ch.sample_pair(rng, -0.1, 100.0)
    with pytest.raises(ValueError):
        ch.sample_pair(rng, 1.1, 100.0)
    with pytest.raises(ValueError):
        ch.sample_pair(rng, 0.5, 1.0)


def test_error_norm_mean_at_half_exponent():
    # a = 0.5, p = 1e4: E||error||^2 = 2 * p**-0.5 = 0.02.
    rng = np.random.default_rng(11)
    n = 100_000
    acc = 0.0
    for _ in range(n):
        pair = ch.sample_pair(rng, 0.5, 1e4)
        acc += np.vdot(pair.error, pair.error).real
    mean = acc / n
    assert 0.0196 <= mean <= 0.0204, f"mean ||error||^2 = {mean:.6f}"


def test_draw_layout_is_fixed():
    """The seeded stream contract, spelled out: per cell the estimate's two
    real parts, its two imaginary parts, then the error's; a zero-variance
    draw takes no normals."""
    p = 1e4
    z = ch.trial_rng(9, 0).standard_normal(24)
    pair = ch.sample_pair(ch.trial_rng(9, 0), 0.5, p)
    s2 = p ** -0.5
    assert np.array_equal(pair.estimate, np.sqrt((1 - s2) / 2) * (z[0:2] + 1j * z[2:4]))
    assert np.array_equal(pair.error, np.sqrt(s2 / 2) * (z[4:6] + 1j * z[6:8]))
    # matched (0.5, 0): cells (user1, A), (user2, A) take 8 normals each,
    # then (user1, B), (user2, B) draw only their error, 4 normals each.
    r = ch.sample_realization(ch.trial_rng(9, 0), ch.QualityPair(0.5, 0.0), ch.MATCHED, p)
    assert np.array_equal(r.pair("user2", "A").error, np.sqrt(s2 / 2) * (z[12:14] + 1j * z[14:16]))
    assert np.array_equal(r.pair("user1", "B").error, np.sqrt(0.5) * (z[16:18] + 1j * z[18:20]))
    assert np.array_equal(r.pair("user2", "B").error, np.sqrt(0.5) * (z[20:22] + 1j * z[22:24]))


def test_sample_realization_covers_all_cells():
    r = ch.sample_realization(ch.trial_rng(0, 0), ch.QualityPair(0.8, 0.5),
                              ch.UNMATCHED, 1e4)
    assert set(r.pairs) == {(u, s) for u in ch.USERS for s in ch.SUBBANDS}
    for u in ch.USERS:
        for s in ch.SUBBANDS:
            assert r.true(u, s).shape == (2,)
            assert np.array_equal(r.true(u, s), r.pair(u, s).estimate + r.pair(u, s).error)


# ---------------------------------------------------------------------------
# zero-forcing


def test_zf_direction_axis_examples():
    assert np.allclose(ch.zf_direction(np.array([1.0, 0.0])), [0.0, 1.0])
    assert np.allclose(ch.zf_direction(np.array([0.0, 1.0])), [-1.0, 0.0])


def test_zf_direction_complex_example():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    w = ch.zf_direction(v)
    assert abs(np.vdot(v, w)) < 1e-12
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12


def test_zf_direction_random_property():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = ch.zf_direction(v)
        assert abs(np.vdot(v, w)) < 1e-12
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12


def test_zf_direction_degenerate_inputs():
    with pytest.raises(ValueError, match="degenerate"):
        ch.zf_direction(np.zeros(2, dtype=complex))
    with pytest.raises(ValueError, match="degenerate"):
        ch.zf_direction(np.array([1e-13, 1e-13 + 0j]))
    with pytest.raises(ValueError):
        ch.zf_direction(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="degenerate"):
        ch.unit(np.zeros(2, dtype=complex))


def test_zf_residual_statistics():
    """Mean |true^H zf(estimate)|^2 equals sigma2 = p**-a.

    Estimate and error are independent, so the leakage along the forced
    direction comes from the error alone.  a = 0 cannot go through
    zf_direction (the estimate is the zero vector by construction), so the
    same statement is checked against a fixed unit direction, which the
    true channel is equally blind to when the estimate carries nothing.
    """
    p, n = 1e4, 100_000
    for a in (0.25, 0.5, 1.0):
        rng = np.random.default_rng(int(a * 1000))
        acc = 0.0
        for _ in range(n):
            pair = ch.sample_pair(rng, a, p)
            w = ch.zf_direction(pair.estimate)
            acc += abs(np.vdot(pair.true, w)) ** 2
        sigma2 = p ** -a
        assert abs(acc / n - sigma2) <= 0.05 * sigma2, (
            f"a={a}: residual mean {acc / n:.3e} vs sigma2 {sigma2:.3e}"
        )
    rng = np.random.default_rng(0)
    w = np.array([0.0, 1.0 + 0.0j])
    acc = 0.0
    for _ in range(n):
        acc += abs(np.vdot(ch.sample_pair(rng, 0.0, p).true, w)) ** 2
    assert abs(acc / n - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# trial substreams


def test_trial_rng_is_deterministic():
    a = ch.trial_rng(123, 7).standard_normal(4)
    b = ch.trial_rng(123, 7).standard_normal(4)
    assert np.array_equal(a, b)


def test_trial_rng_streams_differ_by_trial_and_seed():
    base = ch.trial_rng(123, 7).standard_normal(4)
    assert not np.array_equal(base, ch.trial_rng(123, 8).standard_normal(4))
    assert not np.array_equal(base, ch.trial_rng(124, 7).standard_normal(4))


def test_trial_rng_order_independent():
    q, s, p = ch.QualityPair(0.8, 0.5), ch.UNMATCHED, 1e4
    forward = [ch.sample_realization(ch.trial_rng(5, t), q, s, p) for t in range(4)]
    backward = [ch.sample_realization(ch.trial_rng(5, t), q, s, p) for t in (3, 2, 1, 0)]
    for t in range(4):
        want = forward[t]
        got = backward[3 - t]
        for key in want.pairs:
            assert np.array_equal(want.true(*key), got.true(*key))


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 1), st.floats(1.001, 1e6), st.integers(0, 2**32 - 1))
def test_sample_pair_always_reconstructs(a, p, seed):
    pair = ch.sample_pair(ch.trial_rng(seed, 0), a, p)
    assert np.array_equal(pair.true, pair.estimate + pair.error)
    assert np.all(np.isfinite(pair.true.view(float)))


# ---------------------------------------------------------------------------
# error exponent measurement


def test_measure_error_exponent_smoke():
    slope = ch.measure_error_exponent(0.5, [1e2, 1e3, 1e4], trials=2000, seed=1)
    assert slope == pytest.approx(0.5, abs=0.05)


def test_measure_error_exponent_zero_quality():
    slope = ch.measure_error_exponent(0.0, [1e2, 1e3, 1e4], trials=500, seed=1)
    assert slope == pytest.approx(0.0, abs=0.05)


def test_measure_error_exponent_validation():
    with pytest.raises(ValueError):
        ch.measure_error_exponent(0.5, [1e4], trials=10)
    with pytest.raises(ValueError):
        ch.measure_error_exponent(0.5, [1e4, 1e3], trials=10)
    with pytest.raises(ValueError):
        ch.measure_error_exponent(0.5, [0.5, 1e3], trials=10)
    with pytest.raises(ValueError):
        ch.measure_error_exponent(0.5, [1e3, 1e4], trials=0)


# ---------------------------------------------------------------------------
# batched sampling over an SNR ladder


def _assert_realizations_equal(batch, row, single):
    for key, pair in single.pairs.items():
        got = batch.pair(*key)
        for part in ("true", "estimate", "error"):
            assert np.array_equal(getattr(got, part)[row], getattr(pair, part)), (key, part)


@pytest.mark.parametrize("q,scenario,ladder", [
    (ch.QualityPair(0.8, 0.5), ch.UNMATCHED, (1e4, 1e5, 1e6)),
    (ch.QualityPair(1.0, 0.0), ch.MATCHED, (1e4, 1e5, 1e6)),
    (ch.QualityPair(0.6, 0.0), ch.UNMATCHED, (1.5, 1e3)),
    # 1 - p**-1e-18 rounds to 0 at p = 100 but not at p = 1e300, so the
    # estimate draw of the alpha cells is skipped at one point only.
    (ch.QualityPair(0.9, 1e-18), ch.UNMATCHED, (1e2, 1e300)),
])
def test_sample_ladder_rows_equal_per_trial_draws(q, scenario, ladder):
    seed, start, trials = 21, 5, 7
    batch = ch.sample_ladder(seed, q, scenario, ladder, trials, start)
    assert len(batch) == len(ladder)
    for realization, p in zip(batch, ladder):
        assert realization.true("user1", "A").shape == (trials, 2)
        for t in range(trials):
            single = ch.sample_realization(ch.trial_rng(seed, start + t), q, scenario, p)
            _assert_realizations_equal(realization, t, single)


def test_sample_ladder_skips_zero_variance_estimates():
    q = ch.QualityPair(0.8, 0.0)
    (r,) = ch.sample_ladder(3, q, ch.UNMATCHED, (1e4,), 4)
    assert np.all(r.estimate("user1", "B") == 0) and np.all(r.estimate("user2", "A") == 0)
    assert np.all(r.estimate("user1", "A") != 0)


def test_sample_ladder_seeds_each_trial_once(monkeypatch):
    ch._check_seeding()
    calls = []
    real = ch._trial_normals

    def counting(seed, start, trials, k):
        calls.append((seed, start, trials))
        return real(seed, start, trials, k)

    monkeypatch.setattr(ch, "_trial_normals", counting)
    ch.sample_ladder(0, ch.QualityPair(0.8, 0.5), ch.UNMATCHED, (1e3, 1e4, 1e5), 6, start=2)
    assert calls == [(0, 2, 6)]


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 + 5, 2**70 + 3])
@pytest.mark.parametrize("start", [0, 12345, 2**32 - 3, 2**64 - 3])
@pytest.mark.parametrize("trials", [1, 300])
def test_trial_normals_equal_trial_rng_streams(seed, start, trials):
    # With 300 trials, 2**32 - 3 crosses from one-word to two-word spawn
    # keys and 2**64 - 3 from two words to three.
    got = ch._trial_normals(seed, start, trials, 16)
    assert got.shape == (trials, 16)
    for t in range(trials):
        assert np.array_equal(got[t], ch.trial_rng(seed, start + t).standard_normal(16)), t


def test_trial_normals_reject_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        ch._trial_normals(-1, 0, 3, 16)


def test_seeding_check_raises_on_a_different_stream(monkeypatch):
    monkeypatch.setattr(ch, "trial_rng", lambda seed, trial: np.random.default_rng(seed + 1))
    with pytest.raises(RuntimeError, match="seeds SeedSequence/PCG64 differently"):
        ch._check_seeding.__wrapped__()


def test_batched_zf_direction_and_unit_match_rows():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    zf, u = ch.zf_direction(v), ch.unit(v)
    assert zf.shape == u.shape == (50, 2)
    for t in range(50):
        assert np.array_equal(zf[t], ch.zf_direction(v[t]))
        assert np.array_equal(u[t], ch.unit(v[t]))
    assert np.max(np.abs(np.sum(v.conj() * zf, axis=-1))) < 1e-12


def test_batched_direction_raises_on_one_zero_row():
    v = np.ones((4, 2), dtype=complex)
    v[2] = 0
    with pytest.raises(ValueError, match="cannot zero-force on a zero estimate"):
        ch.zf_direction(v)
    with pytest.raises(ValueError, match="degenerate"):
        ch.unit(v)
    with pytest.raises(ValueError):
        ch.zf_direction(np.ones((4, 3)))


def test_measure_error_exponent_matches_per_trial_loop():
    """The batched measurement against the loop it replaced: one sample_pair
    per (trial, ladder point) and a BLAS inner product per draw."""
    ladder, trials = [1e2, 1e3, 1e4], 300
    for a in (0.0, 0.5, 1.0):
        log_means = []
        for p in ladder:
            sq = [np.vdot(e, e).real for e in
                  (ch.sample_pair(ch.trial_rng(4, t), a, p).error for t in range(trials))]
            log_means.append(-np.log2(np.mean(sq) / 2.0))
        want = np.polyfit(np.log2(ladder), log_means, 1)[0]
        got = ch.measure_error_exponent(a, ladder, trials=trials, seed=4)
        assert got == pytest.approx(want, abs=1e-12), a


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_measure_error_exponent_rejects_non_finite_snr(bad):
    with pytest.raises(ValueError, match="finite"):
        ch.measure_error_exponent(0.5, [1e2, 1e3, bad], trials=10)


def test_measure_error_exponent_rejects_a_negative_seed(monkeypatch):
    monkeypatch.setattr(ch, "_sample_cells", None)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
        ch.measure_error_exponent(0.5, [1e2, 1e3], trials=10, seed=-3)
