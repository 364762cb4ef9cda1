"""Release acceptance battery.

One test per release criterion.  Each test prints exactly one
``[PASS]``/``[FAIL]`` line on the real stdout (bypassing pytest's capture)
so the verdicts are visible in any run, then asserts the same condition.
Tolerances are pinned here and should not be loosened to make a run green.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from dofsim.channel import db_to_linear, measure_error_exponent
from dofsim.linkmc import SimReport, estimate_dof
from dofsim.model import MATCHED, UNMATCHED, QualityPair
from dofsim.regions import (
    compose_matched,
    compose_unmatched,
    components_unmatched,
    outer_bound,
    region_equal,
)
from dofsim.schemes import (
    SCHEME_NAMES,
    build_descriptor,
    power_ledger,
    static_achievability_check,
)
from dofsim.switcher import sweep


_CAPTURE = None


@pytest.fixture(autouse=True)
def _passthrough_capture(capfd):
    """Expose the capture fixture so verdict lines can skip pytest's capture."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


# ---------------------------------------------------------------------------
# 1. Composed region == clipped outer bound, everywhere.


def test_region_composition_identity():
    rng = np.random.default_rng(20250825)
    mismatches = []
    start = time.perf_counter()
    for name, compose in (("unmatched", compose_unmatched), ("matched", compose_matched)):
        for _ in range(1000):
            alpha, beta = np.sort(rng.uniform(0.0, 1.0, size=2))
            q = QualityPair(float(beta), float(alpha))
            if not region_equal(compose(q), outer_bound(q), tol=1e-9):
                mismatches.append((name, q.beta, q.alpha))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 5.0
    _report(
        "region-composition-identity",
        ok,
        f"2000 random quality pairs, {len(mismatches)} mismatches at tol 1e-9, "
        f"{elapsed:.2f}s (limit 5s)",
    )
    assert not mismatches, f"composition != outer bound at {mismatches[:5]}"
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Reference decomposition at (beta, alpha) = (0.8, 0.5).


def test_reference_decomposition():
    q = QualityPair(0.8, 0.5)
    failures = []

    expected = ((0.0, 0.0), (1.0, 0.0), (1.0, 0.65), (0.65, 1.0), (0.0, 1.0))
    got = compose_unmatched(q).vertices
    if len(got) != len(expected) or any(
        abs(gx - ex) > 1e-9 or abs(gy - ey) > 1e-9
        for (gx, gy), (ex, ey) in zip(got, expected)
    ):
        failures.append(f"composed vertices {got}")

    parts = {name: (weight, region) for name, weight, region in components_unmatched(q)}
    # A polymatroid's ranks (r1, r2, r12) are its supports along (1, 0), (0, 1) and (1, 1).
    w, r = parts["perfect"]
    r1, _, r12 = r.ranks
    if abs(w - 0.5) > 1e-9 or abs(r1 - 0.5) > 1e-9 or abs(r12 - 1.0) > 1e-9:
        failures.append("scaled perfect-CSIT square")
    w, r = parts["alternating"]
    if abs(w - 0.3) > 1e-9 or abs(r.ranks[2] - 0.45) > 1e-9:
        failures.append("scaled alternating pentagon")
    w, r = parts["no_csit"]
    r1, r2, _ = r.ranks
    if abs(w - 0.2) > 1e-9 or abs(r1 - 0.2) > 1e-9 or abs(r2 - 0.2) > 1e-9:
        failures.append("scaled no-CSIT triangle")

    ok = not failures
    _report(
        "reference-decomposition",
        ok,
        "vertices {(0,0),(1,0),(1,0.65),(0.65,1),(0,1)} and component supports "
        "0.5/0.45/0.2 at (0.8, 0.5)" if ok else "; ".join(failures),
    )
    assert ok, failures


# ---------------------------------------------------------------------------
# 3. Worst-case ratio of the best simple strategy to the optimal scheme.


def test_switching_worst_case():
    start = time.perf_counter()
    m_u, m_m = sweep(UNMATCHED, step=0.005, rho=1.0), sweep(MATCHED, step=0.005, rho=1.0)
    ratio_u, argmin_u = m_u.min_ratio(), m_u.argmin()
    ratio_m, argmin_m = m_m.min_ratio(), m_m.argmin()
    elapsed = time.perf_counter() - start

    third = 2.0 / 3.0
    ok_u = abs(ratio_u - 0.800) <= 1e-3 and argmin_u and all(
        abs(b - third) <= 0.0025 and abs(a - third) <= 0.0025 for b, a in argmin_u
    )
    ok_m = abs(ratio_m - 0.6667) <= 1e-3 and argmin_m and all(
        abs(b + a - 1.0) <= 1e-9 for b, a in argmin_m
    )
    ok = ok_u and ok_m and elapsed < 10.0
    _report(
        "switching-worst-case",
        ok,
        f"unmatched min ratio {ratio_u:.6f} at {argmin_u[:1]}, "
        f"matched {ratio_m:.6f} on the beta+alpha=1 edge "
        f"({len(argmin_m)} cells), {elapsed:.2f}s (limit 10s)",
    )
    assert ok_u, (ratio_u, argmin_u[:5])
    assert ok_m, (ratio_m, argmin_m[:5])
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 4. Share of the quality plane where no simple strategy reaches rho * optimal.


def test_switching_threshold_census():
    strict = sweep(UNMATCHED, step=0.01, rho=0.9)
    lax = sweep(UNMATCHED, step=0.01, rho=0.8)
    n = len(strict.mirror)
    needed_strict = strict.counts_by_strategy().get("optimal-needed", 0)
    needed_lax = lax.counts_by_strategy().get("optimal-needed", 0)
    share = needed_strict / n
    ok = needed_strict > 0 and 0.30 <= share <= 0.60 and needed_lax == 0
    _report(
        "switching-threshold-census",
        ok,
        f"rho=0.9 flags {needed_strict}/{n} cells ({share:.1%}, want 30-60%), "
        f"rho=0.8 flags {needed_lax} (want 0)",
    )
    assert ok, (needed_strict, n, needed_lax)


# ---------------------------------------------------------------------------
# 5. Monte-Carlo DoF estimates on the 40/50/60 dB ladder.

_LADDER_DB = (40.0, 50.0, 60.0)
_TRIALS = 20000
_REPORTS: dict = {}

_MC_CONFIGS = (
    ("fdma(0.8,0.5)", "fdma", QualityPair(0.8, 0.5), UNMATCHED, 1.00, 0.05),
    ("zfbf(1,1)", "zfbf", QualityPair(1.0, 1.0), UNMATCHED, 2.00, 0.05),
    ("zfbf(0.8,0.5)", "zfbf", QualityPair(0.8, 0.5), UNMATCHED, 1.30, 0.10),
    ("s3(1,0.5)", "s3", QualityPair(1.0, 0.5), UNMATCHED, 1.50, 0.10),
    ("optimal-unmatched(0.8,0.5)", "optimal-unmatched", QualityPair(0.8, 0.5),
     UNMATCHED, 1.65, 0.10),
    ("matched-optimal(0.8,0.5)", "matched-optimal", QualityPair(0.8, 0.5),
     MATCHED, 1.65, 0.10),
)


def test_monte_carlo_dof_ladder():
    failures = []
    notes = []
    for label, scheme, q, scenario, expected, tol in _MC_CONFIGS:
        descriptor = build_descriptor(scheme, q, scenario)
        t0 = time.perf_counter()
        report = estimate_dof(descriptor, q, scenario, _LADDER_DB, _TRIALS, seed=0)
        elapsed = time.perf_counter() - t0
        _REPORTS[label] = report
        measured = report.dof["sum"]
        notes.append(f"{label}={measured:.3f} (want {expected}+-{tol}, {elapsed:.0f}s)")
        if abs(measured - expected) > tol:
            failures.append(f"{label} measured {measured:.4f}, want {expected}+-{tol}")
        if elapsed >= 60.0:
            failures.append(f"{label} took {elapsed:.1f}s (limit 60s)")
    _report("monte-carlo-dof-ladder", not failures, "; ".join(notes))
    assert not failures, failures


# ---------------------------------------------------------------------------
# 6. Static achievability margins and per-slot power accounting.


def test_static_achievability():
    # The audit is exact, so it runs on the exact values of the grid's floats.
    grid = [Fraction(round(0.05 * i, 10)) for i in range(21)]
    full_power = {1.0: Fraction(1)}
    worst = float("inf")
    checked = 0
    failures = []
    for scheme in SCHEME_NAMES:
        scenarios = {
            "fdma": (UNMATCHED,),
            "zfbf": (UNMATCHED, MATCHED),
            "s3": (UNMATCHED,),
            "optimal-unmatched": (UNMATCHED,),
            "matched-optimal": (MATCHED,),
        }[scheme]
        for scenario in scenarios:
            for beta in grid:
                for alpha in grid:
                    if alpha > beta:
                        continue
                    d = build_descriptor(scheme, QualityPair(beta, alpha), scenario)
                    for slot in ("A", "B"):
                        if power_ledger(d, slot) != full_power:
                            failures.append(f"{scheme}@({beta},{alpha}) slot {slot} power")
                    for step in static_achievability_check(d):
                        worst = min(worst, step.margin)
                        if step.margin < 0:
                            failures.append(
                                f"{scheme}@({beta},{alpha}) {step.user}/{step.symbol}"
                                f" margin {step.margin}"
                            )
                    checked += 1
    ok = not failures
    _report(
        "static-achievability",
        ok,
        f"{checked} descriptors on the 0.05 grid, worst margin {worst}, "
        "every slot spends exactly P",
    )
    assert ok, failures[:10]


# ---------------------------------------------------------------------------
# 7. No measured sum slope beats the information-theoretic bound.


def test_measured_sum_within_bound():
    if not _REPORTS:
        pytest.skip("ladder measurements unavailable (run the full battery)")
    failures = []
    margins = []
    for label, report in _REPORTS.items():
        bound = 1.0 + (report.beta + report.alpha) / 2.0 + 0.1
        margins.append(f"{label} {report.dof['sum']:.3f}<={bound:.2f}")
        if report.dof["sum"] > bound:
            failures.append(f"{label} sum {report.dof['sum']:.4f} exceeds {bound:.4f}")
    _report("measured-sum-within-bound", not failures, "; ".join(margins))
    assert not failures, failures


_LIMIT_LADDER_DB = (1000.0, 1100.0, 1200.0)


def test_measured_sum_on_the_limit_ladder_meets_the_analytic_value_and_the_bound():
    """On 1000/1100/1200 dB the finite-SNR bias of the six configurations is
    gone: 64 trials meet the analytic sum DoF within 1e-12, and the outer bound."""
    failures = []
    notes = []
    for label, scheme, q, scenario, expected, _ in _MC_CONFIGS:
        descriptor = build_descriptor(scheme, q, scenario)
        measured = estimate_dof(descriptor, q, scenario, _LIMIT_LADDER_DB, 64, seed=0).dof["sum"]
        bound = 1.0 + (q.beta + q.alpha) / 2.0
        notes.append(f"{label} {measured - expected:+.1e}")
        if abs(measured - expected) > 1e-12 or measured > bound + 1e-12:
            failures.append(f"{label} measured {measured!r}, want {expected} within 1e-12 "
                            f"and at most {bound} + 1e-12")
    _report("measured-sum-at-the-limit-ladder", not failures, "; ".join(notes))
    assert not failures, failures


# ---------------------------------------------------------------------------
# 8. Private-loading diagnostic ratios, exact in rational arithmetic.


def private_loading(strategy: str, q: QualityPair):
    """Normalised private-loading ratio of icc-private or optimal-private at q.

    Exact when q carries Fraction entries; undefined at beta = 0.
    """
    beta, alpha = q.beta, q.alpha
    if beta == 0:
        raise ValueError(f"{strategy} is undefined at beta = 0")
    if strategy == "icc-private":
        return (2 * beta + 2 * alpha + 2 * (beta - alpha)) / (3 * beta - alpha)
    if strategy == "optimal-private":
        return (2 * beta + 2 * alpha + (beta - alpha)) / (2 * beta)
    raise ValueError(f"unsupported diagnostic {strategy!r}")


def test_private_loading_diagnostics():
    q = QualityPair(Fraction(4, 5), Fraction(1, 2))
    icc = private_loading("icc-private", q)
    opt = private_loading("optimal-private", q)
    failures = []
    if icc != Fraction(32, 19) or icc != Fraction("3.2") / Fraction("1.9"):
        failures.append(f"icc-private(4/5, 1/2) = {icc}, want 32/19")
    if opt != Fraction(29, 16) or opt != Fraction("2.9") / Fraction("1.6"):
        failures.append(f"optimal-private(4/5, 1/2) = {opt}, want 29/16")

    for i in range(1, 11):
        beta = Fraction(i, 10)
        for j in range(0, i + 1):
            alpha = Fraction(j, 10)
            qq = QualityPair(beta, alpha)
            a = private_loading("icc-private", qq)
            b = private_loading("optimal-private", qq)
            if a > b:
                failures.append(f"icc {a} > optimal {b} at ({beta}, {alpha})")
            if alpha == beta and not (a == b == 2):
                failures.append(f"no equality at beta=alpha={beta}: {a} vs {b}")
            if alpha < beta and a == b:
                failures.append(f"unexpected tie at ({beta}, {alpha})")
    ok = not failures
    _report(
        "private-loading-diagnostics",
        ok,
        "icc-private(0.8,0.5)=32/19, optimal-private=29/16, dominance strict "
        "for alpha<beta with equality only at alpha=beta",
    )
    assert ok, failures


# ---------------------------------------------------------------------------
# 9. Estimated CSIT error-scaling exponent recovers the configured one.


def test_csit_error_exponent():
    ladder = tuple(db_to_linear(v) for v in (30.0, 40.0, 50.0))
    failures = []
    notes = []
    for a in (0.0, 0.5, 1.0):
        measured = measure_error_exponent(a, ladder, trials=100000, seed=0)
        notes.append(f"a={a} -> {measured:.4f}")
        if abs(measured - a) > 0.02:
            failures.append(f"a={a} measured {measured:.4f} (tol 0.02)")
    _report("csit-error-exponent", not failures, ", ".join(notes) + " (tol 0.02)")
    assert not failures, failures
