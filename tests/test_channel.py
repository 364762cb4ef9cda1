"""Channel sampling, zero-forcing directions and error-scaling statistics."""

import sys
import threading

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
    assert ch.db_to_linear(-10.0) == pytest.approx(0.1)


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
    with pytest.raises(ValueError, match="linear SNR must exceed 1, got nan"):
        ch.sample_pair(rng, 0.5, float("nan"))


def _sample_pairs(rng, a, p, n):
    """n successive ``sample_pair(rng, a, p)`` draws in one array pass, one per row.

    One (n, k) normal draw gives the values of n draws of k, in order.
    """
    variances = [ch._variances(a, p)]
    (pair,) = ch._pairs_from_normals(
        rng.standard_normal((n, ch._normals_needed(variances))), variances)
    return pair


def _leakage(true, w):
    """|true^H w|^2 row by row."""
    return np.abs(np.sum(true.conj() * w, axis=-1)) ** 2


def test_sample_pairs_matches_successive_sample_pair_draws():
    for a in (0.5, 0.0):
        rng = np.random.default_rng(4)
        rows = [ch.sample_pair(rng, a, 1e4) for _ in range(5)]
        batch = _sample_pairs(np.random.default_rng(4), a, 1e4, 5)
        for t, pair in enumerate(rows):
            assert np.array_equal(batch.true[t], pair.true)
            assert np.array_equal(batch.estimate[t], pair.estimate)
            assert np.array_equal(batch.error[t], pair.error)


def test_error_norm_mean_at_half_exponent():
    # a = 0.5, p = 1e4: E||error||^2 = 2 * p**-0.5 = 0.02.
    rng = np.random.default_rng(11)
    n = 100_000
    error = _sample_pairs(rng, 0.5, 1e4, n).error
    mean = float(np.mean(np.sum(np.abs(error) ** 2, axis=-1)))
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
    error = r.error[[ch.cell_index(*cell) for cell in (("user2", "A"), ("user1", "B"),
                                                      ("user2", "B"))]]
    assert np.array_equal(error[0], np.sqrt(s2 / 2) * (z[12:14] + 1j * z[14:16]))
    assert np.array_equal(error[1], np.sqrt(0.5) * (z[16:18] + 1j * z[18:20]))
    assert np.array_equal(error[2], np.sqrt(0.5) * (z[20:22] + 1j * z[22:24]))


def test_sample_realization_covers_all_cells():
    r = ch.sample_realization(ch.trial_rng(0, 0), ch.QualityPair(0.8, 0.5),
                              ch.UNMATCHED, 1e4)
    assert set(ch.CELLS) == {(u, s) for u in ch.USERS for s in ch.SUBBANDS}
    assert r.true.shape == (len(ch.CELLS), 2)
    for u in ch.USERS:
        for s in ch.SUBBANDS:
            cell = r[ch.cell_index(u, s)]
            assert np.array_equal(cell.true, cell.estimate + cell.error)
    with pytest.raises(ValueError, match=r"unknown cell \('user3', 'A'\)"):
        ch.cell_index("user3", "A")


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
        pair = _sample_pairs(np.random.default_rng(int(a * 1000)), a, p, n)
        mean = float(np.mean(_leakage(pair.true, ch.zf_direction(pair.estimate))))
        sigma2 = p ** -a
        assert abs(mean - sigma2) <= 0.05 * sigma2, (
            f"a={a}: residual mean {mean:.3e} vs sigma2 {sigma2:.3e}"
        )
    pair = _sample_pairs(np.random.default_rng(0), 0.0, p, n)
    w = np.array([0.0, 1.0 + 0.0j])
    assert abs(float(np.mean(_leakage(pair.true, w))) - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# trial streams


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
        assert np.array_equal(want.true, got.true)


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


@pytest.mark.parametrize("ladder", [[10, 10, 10], [1e2, 1e3, 1e3]])
def test_measure_error_exponent_rejects_a_repeated_ladder_point(ladder):
    with pytest.raises(ValueError, match="strictly ascending"):
        ch.measure_error_exponent(0.5, ladder, trials=50, seed=1)


# ---------------------------------------------------------------------------
# batched sampling over an SNR ladder


def _assert_realizations_equal(batch, row, single):
    for key, pair, got in zip(ch.CELLS, single, batch):
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
    cells = ch.sample_ladder_cells(seed, q, scenario, ladder, trials, start)
    assert cells.true.shape == (len(ch.CELLS), len(ladder), trials, 2)
    for k, p in enumerate(ladder):
        for t in range(trials):
            single = ch.sample_realization(ch.trial_rng(seed, start + t), q, scenario, p)
            _assert_realizations_equal(cells, (k, t), single)


def test_sample_ladder_skips_zero_variance_estimates():
    q = ch.QualityPair(0.8, 0.0)
    r = ch.sample_ladder_cells(3, q, ch.UNMATCHED, (1e4,), 4)
    estimate = r.estimate[:, 0]
    assert np.all(estimate[ch.cell_index("user1", "B")] == 0)
    assert np.all(estimate[ch.cell_index("user2", "A")] == 0)
    assert np.all(estimate[ch.cell_index("user1", "A")] != 0)


def test_sample_ladder_seeds_each_trial_once(monkeypatch):
    calls = []
    real = ch._trial_normals

    def counting(seed, start, trials, k):
        calls.append((seed, start, trials))
        return real(seed, start, trials, k)

    monkeypatch.setattr(ch, "_trial_normals", counting)
    ch.sample_ladder_cells(0, ch.QualityPair(0.8, 0.5), ch.UNMATCHED, (1e3, 1e4, 1e5), 6,
                           start=2)
    assert calls == [(0, 2, 6)]


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 + 5, 2**70 + 3, 2**130 + 7, 2**300 - 1])
@pytest.mark.parametrize("start", [0, 12345, 2**32 - 3, 2**64 - 3])
@pytest.mark.parametrize("trials", [1, 300])
def test_trial_normals_equal_trial_rng_streams(seed, start, trials):
    # 2**32 and 2**64 are multiples of TRIAL_BLOCK, so with 300 trials the
    # starts 2**32 - 3 and 2**64 - 3 cross from one block's stream to the
    # next; 12345 starts 57 rows into block 3.
    for k in (4, 8, 16, 32):
        got = ch._trial_normals(seed, start, trials, k)
        assert got.shape == (trials, k)
        for t in range(trials):
            assert np.array_equal(got[t], ch.trial_rng(seed, start + t).standard_normal(k)), (k, t)


def test_trial_normals_equal_trial_rng_on_a_grid_of_20400_trials():
    # A positioned trial_rng that has drawn one row of ROW_WIDTH normals
    # stands at the next row, so one oracle per block covers its trials.
    seeds, starts, trials = (0, 11, 2**64 + 17, 2**130 + 5), (0, 2**32 - 3, 2**64 - 3), 1700
    for seed in seeds:
        for start in starts:
            got = ch._trial_normals(seed, start, trials, ch.ROW_WIDTH)
            oracle = None
            for t in range(start, start + trials):
                if oracle is None or t % ch.TRIAL_BLOCK == 0:
                    oracle = ch.trial_rng(seed, t)
                assert np.array_equal(got[t - start], oracle.standard_normal(ch.ROW_WIDTH)), (
                    seed, start, t)


@pytest.mark.parametrize("row", [4095, 4096, 4097])
def test_rows_at_the_block_boundary_equal_trial_rng(row):
    got = ch._trial_normals(7, row, 1, ch.ROW_WIDTH)
    assert np.array_equal(got[0], ch.trial_rng(7, row).standard_normal(ch.ROW_WIDTH))


def test_a_range_split_at_the_block_boundary_gives_the_same_rows():
    whole = ch._trial_normals(3, 4090, 12, ch.ROW_WIDTH)
    split = np.concatenate([ch._trial_normals(3, 4090, 6, ch.ROW_WIDTH),
                            ch._trial_normals(3, 4096, 6, ch.ROW_WIDTH)])
    assert np.array_equal(whole, split)
    # The two blocks are different streams.
    assert not np.array_equal(whole[5], whole[6])
    assert not np.array_equal(ch._trial_normals(3, 0, 1, ch.ROW_WIDTH)[0], whole[6])


@pytest.mark.parametrize("k", [4, 8, 16, 24, 32])
def test_a_draw_of_k_normals_reads_the_first_k_of_the_row(k):
    rows = ch._trial_normals(9, 4090, 12, ch.ROW_WIDTH)
    assert np.array_equal(ch._trial_normals(9, 4090, 12, k), rows[:, :k])
    for t in (0, 5, 6, 11):
        assert np.array_equal(ch.trial_rng(9, 4090 + t).standard_normal(k), rows[t, :k])


def test_trial_normals_are_unchanged_by_a_thread_sampling_at_once():
    # Each call seeds its own block generators, so threads share no state.
    serial = {seed: ch._trial_normals(seed, 0, 200, 32) for seed in (3, 4)}
    mismatches = []

    def sample(seed):
        for _ in range(30):
            if not np.array_equal(ch._trial_normals(seed, 0, 200, 32), serial[seed]):
                mismatches.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sample, args=(seed,)) for seed in serial]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []


def test_trial_normals_reject_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        ch._trial_normals(-1, 0, 3, 16)


def test_sample_ladder_cells_rejects_a_negative_start():
    with pytest.raises(ValueError, match="start must be a non-negative trial index, got -1"):
        ch.sample_ladder_cells(0, ch.QualityPair(0.8, 0.5), ch.UNMATCHED, (1e3, 1e4), 3,
                               start=-1)


@pytest.mark.parametrize("ps, message", [
    ((), "the SNR ladder needs at least one point"),
    ((1e3, float("inf")), "linear SNR must be finite, got inf"),
    ((1e3, 1.0), "linear SNR must exceed 1, got 1.0"),
    ((float("nan"),), "linear SNR must exceed 1, got nan"),
])
def test_sample_ladder_cells_rejects_a_bad_ladder(ps, message):
    with pytest.raises(ValueError, match=message):
        ch.sample_ladder_cells(0, ch.QualityPair(0.8, 0.5), ch.UNMATCHED, ps, 3)


@pytest.mark.parametrize("trials", [0, -1])
def test_sample_ladder_cells_rejects_a_trial_count_below_one(trials):
    with pytest.raises(ValueError, match=f"at least one trial is required, got {trials}"):
        ch.sample_ladder_cells(0, ch.QualityPair(0.8, 0.5), ch.UNMATCHED, (1e3,), trials)


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


def test_measure_error_exponent_where_the_ladder_points_skip_different_draws():
    # The estimate draw is skipped at 1e4 and 1e5 but not at 1e18 (see
    # test_sample_ladder_rows_equal_per_trial_draws); pinned to the value
    # of the per-point sampler.
    assert ch.measure_error_exponent(3e-18, [1e4, 1e5, 1e18], 200, 0) == -0.0008251917687561145


def test_measure_error_exponent_memory_does_not_grow_with_the_trial_count(monkeypatch):
    import tracemalloc

    block, ladder = 1024, [1e2, 1e3, 1e4]
    monkeypatch.setattr(ch, "TRIAL_BLOCK", block)
    ch.measure_error_exponent(0.5, ladder, trials=block, seed=0)  # warm caches
    peaks = []
    for blocks in (2, 8):
        tracemalloc.start()
        ch.measure_error_exponent(0.5, ladder, trials=block * blocks, seed=0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # Holding every draw's squared error would add a block's (points,
    # trials) buffer per block (24 KB here), 147 KB from 2 to 8 blocks.
    buffer_per_block = len(ladder) * block * 8
    assert abs(peaks[1] - peaks[0]) < buffer_per_block / 4, peaks


# ---------------------------------------------------------------------------
# bit-identity oracles: the array formulas that the long-loop kernels replaced


def _pairs_oracle(z, variances):
    """``_pairs_from_normals`` as one broadcast multiply over the (entry,
    part) tiles of a transposed view of z."""
    draws = np.asarray(variances, dtype=float)
    lead = draws.shape[2:]
    draws = draws.reshape((-1,) + lead)
    taken = draws.reshape(len(draws), -1)[:, 0] > 0.0
    scale = np.sqrt(draws[taken] / 2.0)
    m, trials = len(scale), z.shape[:-1]
    normals = np.moveaxis(z[..., :4 * m].reshape(trials + (m, 2, 2)), -3, 0).swapaxes(-1, -2)
    values = np.empty((m,) + lead + trials + (2,), dtype=complex)
    np.multiply(normals.reshape((m,) + (1,) * len(lead) + trials + (2, 2)),
                scale.reshape(scale.shape + (1,) * (len(trials) + 2)),
                out=values.view(float).reshape(values.shape + (2,)))
    drawn = values
    if not taken.all():
        drawn = np.zeros((len(draws),) + values.shape[1:], dtype=complex)
        drawn[taken] = values
    return ch.ChannelPair(true=drawn[0::2] + drawn[1::2], estimate=drawn[0::2], error=drawn[1::2])


def _zf_oracle(v):
    norm = np.sqrt(ch._sq_norm(v))[..., None]
    return np.stack([-np.conj(v[..., 1]), np.conj(v[..., 0])], axis=-1) / norm


def _unit_oracle(v):
    return v / np.sqrt(ch._sq_norm(v))[..., None]


def _assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(float), want.view(float))


def _assert_pairs_bits_equal(got, want):
    for part in ("true", "estimate", "error"):
        _assert_bits_equal(getattr(got, part), getattr(want, part))


#: Per-cell qualities in draw order: one a = 0 cell skips its estimate draw.
_ORACLE_QUALITIES = (0.8, 0.0, 1.0, 0.5)
_ORACLE_LADDER = (1e4, 1e5, 1e6)


@pytest.mark.parametrize("trials", [None, 1, 100, 4096])
def test_pairs_from_normals_without_a_ladder_axis_equals_the_oracle(trials):
    z = np.random.default_rng(8).standard_normal((() if trials is None else (trials,)) + (32,))
    for p in _ORACLE_LADDER:
        variances = [ch._variances(a, p) for a in _ORACLE_QUALITIES]
        _assert_pairs_bits_equal(ch._pairs_from_normals(z, variances), _pairs_oracle(z, variances))
        every = [ch._variances(a, p) for a in (0.8, 0.5, 0.3, 1.0)]  # no draw skipped
        _assert_pairs_bits_equal(ch._pairs_from_normals(z, every), _pairs_oracle(z, every))


@pytest.mark.parametrize("trials", [1, 100, 4096])
def test_pairs_from_normals_with_a_ladder_axis_equals_the_oracle(trials):
    z = np.random.default_rng(9).standard_normal((trials, 32))
    variances = np.array([[ch._variances(a, p) for a in _ORACLE_QUALITIES]
                          for p in _ORACLE_LADDER]).transpose(1, 2, 0)
    _assert_pairs_bits_equal(ch._pairs_from_normals(z, variances), _pairs_oracle(z, variances))


@pytest.mark.parametrize("trials", [1, 100, 4096])
def test_ladder_cells_with_mixed_skip_patterns_equal_the_oracle(monkeypatch, trials):
    # alpha = 3e-18 skips the alpha cells' estimate draw at 40 dB but not
    # at 400 dB, so the ladder's points are built in two groups.
    q, ps = ch.QualityPair(0.5, 3e-18), [ch.db_to_linear(v) for v in (40.0, 200.0, 400.0)]
    got = ch.sample_ladder_cells(7, q, ch.UNMATCHED, ps, trials)
    alpha_cell = ch.cell_index("user1", "B")
    assert np.all(got.estimate[alpha_cell, 0] == 0) and np.all(got.estimate[alpha_cell, 2] != 0)
    monkeypatch.setattr(ch, "_pairs_from_normals", _pairs_oracle)
    _assert_pairs_bits_equal(got, ch.sample_ladder_cells(7, q, ch.UNMATCHED, ps, trials))


@pytest.mark.parametrize("trials", [1, 100, 4096])
def test_zf_direction_and_unit_equal_the_oracles(trials):
    estimate = ch.sample_ladder_cells(4, ch.QualityPair(0.8, 0.5), ch.UNMATCHED,
                                      _ORACLE_LADDER, trials).estimate
    for v in (estimate, estimate[1], estimate[[0, 3, 2]], estimate[2, 1, 0]):
        _assert_bits_equal(ch.zf_direction(v), _zf_oracle(v))
        _assert_bits_equal(ch.unit(v), _unit_oracle(v))


def test_unit_keeps_its_input_s_result_dtype():
    v = np.array([[3.0 + 1.0j, -4.0], [0.5, 2.0j]])
    for x in (v.astype(np.complex64), v.real, v.real.astype(np.float32), np.array([3, 4])):
        got = ch.unit(x)
        assert got.dtype == _unit_oracle(x).dtype, x.dtype
        assert np.array_equal(got, _unit_oracle(x)), x.dtype
    assert ch.zf_direction(v.astype(np.complex64)).dtype == np.complex64


def test_zf_direction_and_unit_keep_their_error_messages():
    zero = np.zeros((3, 2), dtype=complex)
    with pytest.raises(ValueError, match="^degenerate direction: cannot zero-force on a zero "
                                         "estimate$"):
        ch.zf_direction(zero)
    with pytest.raises(ValueError, match="^degenerate direction: cannot normalise a zero "
                                         "estimate$"):
        ch.unit(zero)
    with pytest.raises(ValueError, match=r"^expected length-2 vectors, got shape \(4, 3\)$"):
        ch.zf_direction(np.ones((4, 3)))
    with pytest.raises(ValueError, match=r"^expected length-2 vectors, got shape \(\)$"):
        ch.zf_direction(1.0)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
@pytest.mark.parametrize("direction", [ch.zf_direction, ch.unit])
def test_directions_reject_vectors_that_are_not_2_long(direction, shape):
    # A 3-vector must not be normalised by the norm of its first two entries.
    v = np.arange(3.0, 3.0 + np.prod(shape, dtype=int)).reshape(shape)
    with pytest.raises(ValueError) as err:
        direction(v)
    assert str(err.value) == f"expected length-2 vectors, got shape {shape}"


@pytest.mark.parametrize("ps", [(1e4, 1e5, 1e6), (1e3, 1e8), (2.0, 10.0, 1e3, 1e9, 1e17)])
def test_ladder_fit_equals_polyfit(ps):
    rng = np.random.default_rng(len(ps))
    for y in (rng.standard_normal(len(ps)), rng.standard_normal((len(ps), 3)) * 10.0):
        x, slope, intercept = ch.ladder_fit(ps, y)
        want = np.polyfit(np.log2(ps), y, 1)
        assert np.array_equal(x, np.log2(ps))
        assert np.shape(slope) == np.shape(want[0])
        assert np.array_equal(slope, want[0]) and np.array_equal(intercept, want[1])


def test_ladder_fit_warns_where_polyfit_does():
    y = np.array([1.0, 2.0, 4.0])
    with pytest.warns(np.exceptions.RankWarning):
        want = np.polyfit(np.log2([8.0] * 3), y, 1)
    with pytest.warns(np.exceptions.RankWarning):
        _, slope, intercept = ch.ladder_fit([8.0] * 3, y)
    assert np.array_equal([slope, intercept], want)
