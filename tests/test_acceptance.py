"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in failure
reports).  Runtime limits are asserted with perf_counter around the
computation itself, after a warmup call where steady-state cost is what
matters.
"""

import math
import time
from fractions import Fraction

from collisort import asymptotics, exact, sorters, verification
from collisort.montecarlo import exact_law_ks_vs_rayleigh
from oracles import all_permutations


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_headline_probabilities():
    # warmup, then steady-state timing of the three product-form values
    exact.collision_sf(365, 22)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        c365 = float(exact.collision_sf(365, 22))
        p365 = float(exact.pass_cdf(365, 22))
        c358 = float(exact.collision_sf(358, 22))
        best = min(best, time.perf_counter() - t0)
    ok = (
        abs(c365 - 0.4927028) <= 5e-8
        and abs(p365 - 0.4857848) <= 5e-8
        and abs(c358 - 0.4857834) <= 5e-8
        and best < 1e-3
    )
    _report(1, ok, f"{c365:.7f}/{p365:.7f}/{c358:.7f} in {best * 1e6:.0f}us")


def test_criterion_02_moment_values():
    exact.scaled_pass_moment.cache_clear()
    exact.scaled_collision_moment.cache_clear()
    t0 = time.perf_counter()
    e1 = float(exact.scaled_pass_moment(10**4, 1))
    e2 = float(exact.scaled_pass_moment(10**4, 2))
    var = float(exact.scaled_pass_variance(10**4))
    stats = asymptotics.scaled_pass_stats_approx(10**4)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(e1 - 1.23670494307038) <= 1e-12 * 1.23670494307038
        and abs(e2 - 1.950365345384) <= 1e-10 * 1.950365345384
        and abs(var - 0.4209262291695) <= 1e-9 * 0.4209262291695
        and abs(stats.mean_approx - 1.23670494307065) <= 1e-12 * 1.23670494307065
        and abs(stats.second_moment_approx - 1.950365345354) <= 1e-12 * 1.950365345354
        and abs(stats.variance_approx - 0.4209262291679) <= 1e-12 * 0.4209262291679
        and elapsed < 1.0
    )
    _report(2, ok, f"E={e1:.14f} E2={e2:.12f} V={var:.13f} in {elapsed:.3f}s")


def test_criterion_03_exhaustive_enumeration():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 8):
        law = sorters.enumerate_pass_distribution(n)
        for m in range(0, n):
            cdf = sum(p for passes, p in law.items() if passes <= n - m)
            if cdf != exact.pass_cdf_fraction(n, m):
                ok = False
    for n in range(1, 7):
        for m in range(0, n + 1):
            if sorters.enumerate_collision_survival(n, m) != exact.collision_sf_fraction(
                n, m
            ):
                ok = False
    # distinction identity on the inversion side: the first m+1 table
    # entries are all distinct exactly as often as P <= n - m
    from itertools import product as iproduct

    for n in range(2, 8):
        for m in range(0, n):
            ranges = [range(n - i + 1) for i in range(1, m + 2)]
            total = distinct = 0
            for prefix in iproduct(*ranges):
                total += 1
                if len(set(prefix)) == m + 1:
                    distinct += 1
            if Fraction(distinct, total) != exact.pass_cdf_fraction(n, m):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(3, ok, f"pass n<=7, birthday n<=6, distinction identities in {elapsed:.1f}s")


def test_criterion_04_pass_equals_max_inversion():
    t0 = time.perf_counter()
    bad = 0
    total = 0
    for n in range(1, 9):
        for p in all_permutations(n):
            total += 1
            if not sorters.passes_match_inversion_max(p):
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 5.0
    _report(4, ok, f"{total} permutations, {bad} mismatches, in {elapsed:.1f}s")


def test_criterion_05_opcount_lemmas():
    results = {c.claim_id: c for c in verification.suite_opcount_lemmas()}
    ok = (
        results["OPS-SORTED-N8"].status == "PASS"
        and results["OPS-REDUCTION-N8"].status == "PASS"
        and results["OPS-FLAGS-EARLY-N8"].status == "PASS"
        and results["OPS-FLAGS-VARIANT-N8"].status in ("NOTE", "PASS")
    )
    variant = results["OPS-FLAGS-VARIANT-N8"]
    _report(5, ok, f"identities exact; variant flag writes: {variant.observed} "
                   f"[{variant.status}]")


def test_criterion_06_stein_chen_bound():
    t0 = time.perf_counter()
    results = {c.claim_id: c for c in verification.suite_stein_chen()}
    elapsed = time.perf_counter() - t0
    ok = (
        results["SC-BOUND-ENUM"].status == "PASS"
        and results["SC-BOUND-MC-365-22"].status == "PASS"
        and elapsed < 120.0
    )
    _report(6, ok, f"{results['SC-BOUND-ENUM'].observed}; "
                   f"MC {results['SC-BOUND-MC-365-22'].observed} in {elapsed:.0f}s")


def test_criterion_07_rayleigh_convergence():
    t0 = time.perf_counter()
    details = []
    ok = True
    for kind in ("pass", "collision"):
        values = [exact_law_ks_vs_rayleigh(kind, n) for n in (100, 1000, 10000)]
        if not (values[0] > values[1] > values[2]):
            ok = False
        for v, n in zip(values, (100, 1000, 10000)):
            if v > 2.5 / math.sqrt(n):
                ok = False
        details.append(f"{kind}: " + "/".join(f"{v:.4f}" for v in values))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(7, ok, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_08_asymptotic_orders():
    t0 = time.perf_counter()
    results = {c.claim_id: c for c in verification.suite_asymptotic_orders()}
    elapsed = time.perf_counter() - t0
    ok = all(c.status == "PASS" for c in results.values()) and elapsed < 10.0
    _report(8, ok, "; ".join(f"{cid}: {c.observed}" for cid, c in sorted(results.items()))
            + f" in {elapsed:.1f}s")


def test_criterion_09_optimal_shift():
    exact.optimal_shift(365, 22)  # warmup
    t0 = time.perf_counter()
    shift_365 = exact.optimal_shift(365, 22)[0]
    shift_1000 = exact.optimal_shift(1000, 16)[0]
    shift_5000 = exact.optimal_shift(5000, 40)[0]
    elapsed = time.perf_counter() - t0
    ok = (
        shift_365 == 7
        and abs(shift_1000 - round(15 / 3)) <= 1
        and abs(shift_5000 - round(39 / 3)) <= 1
        and elapsed < 0.1
    )
    _report(9, ok, f"shifts {shift_365}/{shift_1000}/{shift_5000} in {elapsed * 1e3:.0f}ms")


def test_criterion_10_montecarlo_coherence():
    t0 = time.perf_counter()
    results = {c.claim_id: c for c in verification.suite_montecarlo()}
    elapsed = time.perf_counter() - t0
    ok = all(c.status == "PASS" for c in results.values()) and elapsed < 120.0
    _report(10, ok, f"KS {results['MC-PASS-LAW-KS'].observed}; "
                    f"opcounts {results['MC-OPCOUNT-MEANS'].observed} in {elapsed:.0f}s")
