"""Named verification claims with stable IDs, runnable as suites.

Each claim checks one reproducible numeric statement (an exact value, an
exhaustive identity, a bound, or a convergence rate) and reports PASS,
FAIL, or NOTE.  NOTE marks a measured discrepancy that is reported rather
than asserted: the flag-write count of the single-set early-exit variant
is 2P-1 per run, one below the commonly quoted 2P.

Only the suites that draw or enumerate with numpy load it, when they run:
stein-chen, rayleigh-ks and montecarlo import montecarlo and poisson_approx,
and inversion-lemma and opcount-lemmas walk the permutations of n <= 8 as
numpy batches through the batch forms of `sorters`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import asymptotics, exact, sorters


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    status: str  # PASS | FAIL | NOTE
    observed: str
    expected: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"


def _check(claim_id: str, ok: bool, observed, expected, detail: str = "") -> ClaimResult:
    return ClaimResult(claim_id, "PASS" if ok else "FAIL", str(observed), str(expected), detail)


# ---------------------------------------------------------------------------
# headline reproductions
# ---------------------------------------------------------------------------

PRINTED_COLLISION_365_22 = 0.4927028
PRINTED_PASS_365_22 = 0.4857848
PRINTED_COLLISION_358_22 = 0.4857834
PRINTED_MEAN_1E4 = 1.23670494307038
PRINTED_SECOND_1E4 = 1.950365345384
PRINTED_VARIANCE_1E4 = 0.4209262291695
PRINTED_MEAN_APPROX_1E4 = 1.23670494307065
PRINTED_SECOND_APPROX_1E4 = 1.950365345354
PRINTED_VARIANCE_APPROX_1E4 = 0.4209262291679


def suite_paper_values() -> list[ClaimResult]:
    out = []
    v = float(exact.collision_sf(365, 22))
    out.append(_check("P365-M22-COLLSF", abs(v - PRINTED_COLLISION_365_22) <= 5e-8,
                      f"{v:.10f}", PRINTED_COLLISION_365_22, "abs tol 5e-8"))
    v = float(exact.pass_cdf(365, 22))
    out.append(_check("P365-M22-PASSCDF", abs(v - PRINTED_PASS_365_22) <= 5e-8,
                      f"{v:.10f}", PRINTED_PASS_365_22, "abs tol 5e-8"))
    v = float(exact.collision_sf(358, 22))
    out.append(_check("N358-M22-COLLSF", abs(v - PRINTED_COLLISION_358_22) <= 5e-8,
                      f"{v:.10f}", PRINTED_COLLISION_358_22, "abs tol 5e-8"))

    n = 10**4
    e1 = float(exact.scaled_pass_moment(n, 1))
    out.append(_check("N1E4-EXN", abs(e1 - PRINTED_MEAN_1E4) <= 1e-12 * PRINTED_MEAN_1E4,
                      f"{e1:.15f}", PRINTED_MEAN_1E4, "rel tol 1e-12"))
    e2 = float(exact.scaled_pass_moment(n, 2))
    out.append(_check("N1E4-EX2N", abs(e2 - PRINTED_SECOND_1E4) <= 1e-10 * PRINTED_SECOND_1E4,
                      f"{e2:.15f}", PRINTED_SECOND_1E4, "rel tol 1e-10"))
    vv = float(exact.scaled_pass_variance(n))
    out.append(_check("N1E4-VXN", abs(vv - PRINTED_VARIANCE_1E4) <= 1e-9 * PRINTED_VARIANCE_1E4,
                      f"{vv:.15f}", PRINTED_VARIANCE_1E4, "rel tol 1e-9"))
    stats = asymptotics.scaled_pass_stats_approx(n)
    ok = (
        abs(stats.mean_approx - PRINTED_MEAN_APPROX_1E4) <= 1e-12 * PRINTED_MEAN_APPROX_1E4
        and abs(stats.second_moment_approx - PRINTED_SECOND_APPROX_1E4)
        <= 1e-12 * PRINTED_SECOND_APPROX_1E4
        and abs(stats.variance_approx - PRINTED_VARIANCE_APPROX_1E4)
        <= 1e-12 * PRINTED_VARIANCE_APPROX_1E4
    )
    out.append(_check(
        "N1E4-STATS",
        ok,
        f"({stats.mean_approx:.14f}, {stats.second_moment_approx:.12f}, {stats.variance_approx:.13f})",
        f"({PRINTED_MEAN_APPROX_1E4}, {PRINTED_SECOND_APPROX_1E4}, {PRINTED_VARIANCE_APPROX_1E4})",
        "rel tol 1e-12 each",
    ))
    return out


# ---------------------------------------------------------------------------
# exhaustive enumerations
# ---------------------------------------------------------------------------


def suite_enumeration() -> list[ClaimResult]:
    out = []
    for n in range(1, 8):
        law = sorters.enumerate_pass_distribution(n)
        ok = True
        for m in range(0, n):
            cdf_enum = sum(p for passes, p in law.items() if passes <= n - m)
            if cdf_enum != exact.pass_cdf_fraction(n, m):
                ok = False
                break
        out.append(_check(f"ENUM-PASS-N{n}", ok, "enumerated CDF", "product form",
                          "exact Fraction equality over all m"))
    for n in range(1, 7):
        ok = True
        for m in range(0, n + 1):
            if sorters.enumerate_collision_survival(n, m) != exact.collision_sf_fraction(n, m):
                ok = False
                break
        out.append(_check(f"ENUM-BDAY-N{n}", ok, "enumerated survival", "product form",
                          "exact Fraction equality over all m"))
    return out


@lru_cache(maxsize=1)
def _permutation_walk() -> tuple[int, int, int, int, int, int]:
    """One walk over the permutations of n <= 8 for three suites, one batch of rows
    per n: the count, then the runs breaking each lemma (max entry, sorted,
    `sorters.opcounts_from_stats` counts)."""
    import numpy as np

    def count(flags) -> int:
        return int(np.count_nonzero(flags))

    total = bad_maxv = bad_sorted = bad_reduction = bad_flags = bad_variant = 0
    for n in range(1, 9):
        rows = np.fromiter(sorters.all_permutations(n), np.dtype((np.int8, n)),
                           math.factorial(n))
        total += len(rows)
        passes = sorters.pass_counts(rows)
        tables = sorters.inversion_tables(rows)
        bad_maxv += count(passes != tables.max(axis=1) + 1)
        runs = [sorters.sort_rows(rows, v) for v in sorters.VARIANTS]
        outputs = np.stack([out for out, _ in runs])
        bad_sorted += count((outputs != np.arange(1, n + 1)).any(axis=(0, 2)))
        (_, plain), (_, early), (_, variant) = runs
        inversions = tables.sum(axis=1, dtype=passes.dtype)
        want_plain, want_early, want_var = [
            sorters.opcounts_from_stats(n, passes, inversions, v) for v in sorters.VARIANTS]
        for got, want in ((early, want_early), (variant, want_var)):
            bad_reduction += count(plain.comparisons - got.comparisons
                                   != want_plain.comparisons - want.comparisons)
        bad_flags += count(early.bool_assignments != want_early.bool_assignments)
        bad_variant += count(variant.bool_assignments != want_var.bool_assignments)
    return total, bad_maxv, bad_sorted, bad_reduction, bad_flags, bad_variant


def suite_inversion_lemma() -> list[ClaimResult]:
    total, bad, *_ = _permutation_walk()
    return [_check("LEMMA-MAXV-N8", bad == 0, f"{bad} mismatches of {total}", "0 mismatches",
                   "pass count equals max inversion-table entry + 1")]


def suite_opcount_lemmas() -> list[ClaimResult]:
    version_note = (
        "single-set variant writes its flag 2P-1 times per run (P inits, "
        "P-1 sets); the commonly quoted value is 2P"
    )
    _, _, bad_sorted, bad_reduction, bad_flags, bad_variant = _permutation_walk()
    out = [
        _check("OPS-SORTED-N8", bad_sorted == 0, f"{bad_sorted} wrong outputs", "0",
               "all variants sort correctly, exhaustive n <= 8"),
        _check("OPS-REDUCTION-N8", bad_reduction == 0, f"{bad_reduction} mismatches", "0",
               "comparison reduction equals (n-P-1)(n-P)/2 for both variants"),
        _check("OPS-FLAGS-EARLY-N8", bad_flags == 0, f"{bad_flags} mismatches", "0",
               "early-exit flag writes equal P + total inversions"),
    ]
    if bad_variant == 0:
        out.append(ClaimResult("OPS-FLAGS-VARIANT-N8", "NOTE", "2P-1 on all runs",
                               "2P quoted", version_note))
    else:
        out.append(_check("OPS-FLAGS-VARIANT-N8", False,
                          f"{bad_variant} runs off the 2P-1 rule", "0", version_note))
    return out


def suite_lemma_8_4() -> list[ClaimResult]:
    return [c for c in suite_opcount_lemmas() if c.claim_id == "OPS-FLAGS-VARIANT-N8"]


# ---------------------------------------------------------------------------
# Stein-Chen bound validity
# ---------------------------------------------------------------------------


def suite_stein_chen(mc_trials: int = 10**6) -> list[ClaimResult]:
    from . import montecarlo, poisson_approx

    # at m = 1 the family is a single indicator and the bound is exactly
    # tight (TV(Be(p), Poi(p)) = p(1 - e^-p) = the assembled bound), so the
    # comparison gets a rounding allowance
    def within(tv: float, bound: float) -> bool:
        return tv <= bound * (1.0 + 1e-9) + 1e-12

    out = []
    worst = None
    ok = True
    # m + 1 birthday draws need m <= n; m + 1 inversion-table entries need m < n
    instances = [("birthday", n, m)
                 for n in range(2, poisson_approx.ENUM_BIRTHDAY_N + 1) for m in range(1, n + 1)]
    instances += [("inversion", n, m)
                  for n in range(2, poisson_approx.ENUM_INVERSION_N + 1) for m in range(1, n)]
    for kind, n, m in instances:
        tv = poisson_approx.tv_exact_enumerated(kind, n, m)
        bound = poisson_approx.stein_chen_bound(poisson_approx.match_family(kind, n, m)).tv_bound
        if not within(tv, bound):
            ok = False
        if worst is None or tv / max(bound, 1e-300) > worst[0]:
            worst = (tv / max(bound, 1e-300), kind, n, m)
    out.append(_check("SC-BOUND-ENUM", ok,
                      f"worst tv/bound ratio {worst[0]:.4f} at {worst[1:]}", "<= 1",
                      "exact TV below the bound on every enumerable instance"))

    summary = montecarlo.empirical_pair_matches(
        "birthday", 365, 22, mc_trials, montecarlo.SeededStream(montecarlo.DEFAULT_SEED, 0)
    )
    bound = poisson_approx.stein_chen_bound(poisson_approx.birthday_family(365, 22)).tv_bound
    limit = montecarlo.tv_limit(bound, summary.tv_se)
    out.append(_check("SC-BOUND-MC-365-22", summary.tv_distance <= limit,
                      f"tv {summary.tv_distance:.6f}", f"<= {limit:.6f}",
                      f"{mc_trials} trials, bound {bound:.6f} + {montecarlo.TV_BOUND_SE:g} se"))
    return out


# ---------------------------------------------------------------------------
# Rayleigh convergence and asymptotic orders
# ---------------------------------------------------------------------------


def suite_rayleigh_ks() -> list[ClaimResult]:
    from . import montecarlo

    out = []
    for kind, tag in (("pass", "KS-PASS"), ("collision", "KS-COLL")):
        values = [montecarlo.exact_law_ks_vs_rayleigh(kind, n) for n in (100, 1000, 10000)]
        decreasing = values[0] > values[1] > values[2]
        enveloped = all(v <= 2.5 / math.sqrt(n) for v, n in zip(values, (100, 1000, 10000)))
        out.append(_check(tag, decreasing and enveloped,
                          "[" + ", ".join(f"{v:.5f}" for v in values) + "]",
                          "decreasing and <= 2.5/sqrt(n)",
                          "exact lattice law vs standard Rayleigh, n in {1e2,1e3,1e4}"))
    return out


def suite_asymptotic_orders() -> list[ClaimResult]:
    out = []
    errs = []
    for n in (100, 400, 1600):
        m = round(math.sqrt(n))
        exact_val = float(asymptotics.scaled_pass_survival(n, m / math.sqrt(n)))
        errs.append(abs(asymptotics.scaled_pass_survival_expansion(n, 1.0) - exact_val))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    out.append(_check("ORD-SURVIVAL", 16.0 <= r1 <= 64.0 and 16.0 <= r2 <= 64.0,
                      f"ratios {r1:.1f}, {r2:.1f}", "[16, 64]",
                      "survival expansion error per n quadrupling at x=1"))

    for kind, tag, cdf_approx in (("pass", "ORD-CDF-PASS", asymptotics.scaled_pass_cdf_approx),
                                  ("collision", "ORD-CDF-COLL",
                                   asymptotics.scaled_collision_cdf_approx)):
        ratios = []
        for pair in ((500, 1000), (1000, 2000)):
            errs = []
            for n in pair:
                v = round(math.sqrt(n))  # lattice value nearest x = 1
                truth = 1.0 - float(exact.lattice_sf(kind, n, v + 1))
                errs.append(abs(cdf_approx(n, v / math.sqrt(n)) - truth))
            ratios.append(errs[0] / errs[1])
        ok = all(1.5 <= r <= 3.0 for r in ratios)
        out.append(_check(tag, ok, f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}", "[1.5, 3]",
                          "CDF approximation error per n doubling at x ~ 1"))

    r100 = asymptotics.euler_maclaurin_residual(100, 0.15)
    r1 = asymptotics.euler_maclaurin_residual(10**4, 0.15)
    r2 = asymptotics.euler_maclaurin_residual(4 * 10**4, 0.15)
    ratio = r1 / r2
    out.append(_check("ORD-EM-RESIDUAL", 8.0 <= ratio <= 32.0 and r100 < 1e-3,
                      f"ratio {ratio:.1f}, residual(100)={r100:.2e}",
                      "ratio in [8, 32], residual(100) < 1e-3",
                      "Euler-Maclaurin residual per n quadrupling at eps=0.15"))
    return out


def suite_optimal_shift() -> list[ClaimResult]:
    out = []
    cases = ((365, 22), (1000, 16), (5000, 40))
    for n, m in cases:
        brute, asym = exact.optimal_shift(n, m)
        target = round((m - 1) / 3)
        ok = abs(brute - target) <= 1
        if (n, m) == (365, 22):
            ok = ok and brute == 7
        out.append(_check(f"SHIFT-{n}-{m}", ok, f"brute {brute}", f"round((m-1)/3) = {target} (+-1)",
                          f"asymptotic value {asym:.3f}"))
    return out


def suite_montecarlo(law_trials: int = 10**5, opcount_trials: int = 10**4) -> list[ClaimResult]:
    from . import montecarlo

    out = []
    n = 10**4
    seed = montecarlo.DEFAULT_SEED
    summary = montecarlo.empirical_law("pass", n, law_trials, montecarlo.SeededStream(seed, 0))
    crit = montecarlo.ks_critical_1pct(law_trials)
    out.append(_check("MC-PASS-LAW-KS", summary.ks_exact < crit,
                      f"{summary.ks_exact:.5f}", f"< {crit:.5f}",
                      "KS vs exact finite-n law, 1% critical value"))

    counters = montecarlo.empirical_opcounts(n, opcount_trials, montecarlo.SeededStream(seed, 1))
    deviations = montecarlo.opcount_deviations(n, counters)
    ok = not any(dev > montecarlo.OPCOUNT_SE for _, dev in deviations.values())
    details = [f"{name}: {dev:.2f} se" for name, (_, dev) in deviations.items()]
    out.append(_check("MC-OPCOUNT-MEANS", ok, "; ".join(details),
                      f"each within {montecarlo.OPCOUNT_SE:g} se",
                      f"n={n}, trials={opcount_trials}"))
    return out


SUITES = {
    "paper-values": suite_paper_values,
    "enumeration": suite_enumeration,
    "inversion-lemma": suite_inversion_lemma,
    "opcount-lemmas": suite_opcount_lemmas,
    "lemma-8-4": suite_lemma_8_4,
    "stein-chen": suite_stein_chen,
    "rayleigh-ks": suite_rayleigh_ks,
    "asymptotic-orders": suite_asymptotic_orders,
    "optimal-shift": suite_optimal_shift,
    "montecarlo": suite_montecarlo,
}


def run_suite(name: str) -> list[ClaimResult]:
    if name == "all":
        results = []
        for suite_name in sorted(SUITES):
            if suite_name == "lemma-8-4":  # subset of opcount-lemmas
                continue
            results.extend(SUITES[suite_name]())
        return sorted(results, key=lambda c: c.claim_id)
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return sorted(SUITES[name](), key=lambda c: c.claim_id)
