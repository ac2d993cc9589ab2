"""Named verification claims with stable IDs, runnable as suites.

Each claim checks one reproducible numeric statement (an exact value, an
exhaustive identity, a bound, or a convergence rate) and reports PASS,
FAIL, or NOTE.  NOTE marks a measured discrepancy that is reported rather
than asserted: the flag-write count of the single-set early-exit variant
is 2P-1 per run, one below the commonly quoted 2P.

Only the suites that draw or enumerate with numpy load it, when they run:
stein-chen, rayleigh-ks and montecarlo import montecarlo (stein-chen to
sample the match counts of SC-BOUND-MC-365-22; poisson_approx needs no numpy);
inversion-lemma, opcount-lemmas and its subset lemma-8-4 walk
the permutations of n <= 8 as numpy batches, built by
`sorters.permutation_rows`, through the batch forms of `sorters`.
paper-values, enumeration (whose birthday walk keeps its tuples in bytes),
asymptotic-orders and optimal-shift run without it.

`run_suite("all")` forks where it can: with os.fork, two or more usable
CPUs, numpy not yet imported and no other thread, as in a fresh `collisort
verify --suite all`.  The worker runs the claim groups of WORKER_GROUPS and
writes their claims as JSON to a pipe; the caller runs the other groups,
checks between them that the worker has not failed, and merges the claims.
Elsewhere, Windows among them, every group runs in the calling process.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
from collections import namedtuple
from functools import lru_cache

from . import asymptotics, exact, sorters


class ClaimResult(namedtuple("ClaimResult", "claim_id status observed expected detail",
                             defaults=("",))):
    """status is PASS, FAIL or NOTE; every field is a str."""

    __slots__ = ()

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"


def _check(claim_id: str, ok: bool, observed, expected, detail: str = "") -> ClaimResult:
    return ClaimResult(claim_id, "PASS" if ok else "FAIL", str(observed), str(expected), detail)


# ---------------------------------------------------------------------------
# headline reproductions
# ---------------------------------------------------------------------------

# (claim, value function and its arguments, printed value, tolerance kind and
# size, digits shown); N1E4-STATS checks three values at once and stands apart
_PAPER_VALUES = (
    ("P365-M22-COLLSF", exact.collision_sf, (365, 22), 0.4927028, "abs", "5e-8", 10),
    ("P365-M22-PASSCDF", exact.pass_cdf, (365, 22), 0.4857848, "abs", "5e-8", 10),
    ("N358-M22-COLLSF", exact.collision_sf, (358, 22), 0.4857834, "abs", "5e-8", 10),
    ("N1E4-EXN", exact.scaled_pass_moment, (10**4, 1), 1.23670494307038, "rel", "1e-12", 15),
    ("N1E4-EX2N", exact.scaled_pass_moment, (10**4, 2), 1.950365345384, "rel", "1e-10", 15),
    ("N1E4-VXN", exact.scaled_pass_variance, (10**4,), 0.4209262291695, "rel", "1e-9", 15),
)


def suite_paper_values() -> list[ClaimResult]:
    out = []
    for claim_id, value, args, printed, kind, tol, digits in _PAPER_VALUES:
        v = float(value(*args))
        limit = float(tol) * (printed if kind == "rel" else 1.0)
        out.append(_check(claim_id, abs(v - printed) <= limit, f"{v:.{digits}f}", printed,
                          f"{kind} tol {tol}"))
    stats = asymptotics.scaled_pass_stats_approx(10**4)
    # (expansion value, printed value, digits shown) of mean, second moment, variance
    values = ((stats.mean_approx, 1.23670494307065, 14),
              (stats.second_moment_approx, 1.950365345354, 12),
              (stats.variance_approx, 0.4209262291679, 13))
    out.append(_check(
        "N1E4-STATS",
        all(abs(v - printed) <= 1e-12 * printed for v, printed, _ in values),
        "(" + ", ".join(f"{v:.{digits}f}" for v, _, digits in values) + ")",
        "(" + ", ".join(str(printed) for _, printed, _ in values) + ")",
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
        ok = all(sum(p for passes, p in law.items() if passes <= n - m)
                 == exact.pass_cdf_fraction(n, m) for m in range(0, n))
        out.append(_check(f"ENUM-PASS-N{n}", ok, "enumerated CDF", "product form",
                          "exact Fraction equality over all m"))
    for n in range(1, 7):
        ok = all(sorters.enumerate_collision_survival(n, m) == exact.collision_sf_fraction(n, m)
                 for m in range(0, n + 1))
        out.append(_check(f"ENUM-BDAY-N{n}", ok, "enumerated survival", "product form",
                          "exact Fraction equality over all m"))
    return out


@lru_cache(maxsize=1)
def _permutation_walk() -> tuple[int, int, int, int, int, int]:
    """One walk over the permutations of n <= 8 for three suites, one batch of rows
    per n from `sorters.permutation_rows`: the count, then the runs breaking each
    lemma (max entry, sorted, `sorters.opcounts_from_stats` counts)."""
    import numpy as np

    def count(flags) -> int:
        return int(np.count_nonzero(flags))

    total = bad_maxv = bad_sorted = bad_reduction = bad_flags = bad_variant = 0
    for n in range(1, 9):
        rows = sorters.permutation_rows(n)
        total += len(rows)
        out, counts = sorters.sort_rows(rows)
        bad_sorted += count((out != np.arange(1, n + 1)).any(axis=1))
        plain, early, variant = (counts[v] for v in sorters.VARIANTS)
        passes = early.passes  # a swap-free pass leaves the row sorted
        tables = sorters.inversion_tables(rows)
        bad_maxv += count(passes != tables.max(axis=1) + 1)
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


def suite_stein_chen() -> list[ClaimResult]:
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
        ok &= within(tv, bound)
        if worst is None or tv / max(bound, 1e-300) > worst[0]:
            worst = (tv / max(bound, 1e-300), kind, n, m)
    out.append(_check("SC-BOUND-ENUM", ok,
                      f"worst tv/bound ratio {worst[0]:.4f} at {worst[1:]}", "<= 1",
                      "exact TV below the bound on every enumerable instance"))

    mc_trials = 10**6
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

    for kind, tag in (("pass", "ORD-CDF-PASS"), ("collision", "ORD-CDF-COLL")):
        # F = 1 - exp(E) by the generated exponent one lattice step up, through n^(-1/2)
        terms = asymptotics._floats(asymptotics._exponent, kind, 1 - exact.LATTICES[kind][1], 1)
        ratios = []
        for pair in ((500, 1000), (1000, 2000)):
            errs = []
            for n in pair:
                v = round(math.sqrt(n))  # lattice value nearest x = 1
                truth = 1.0 - float(exact.lattice_sf(kind, n, v + 1))
                errs.append(abs(-math.expm1(asymptotics._value(terms, n, v / math.sqrt(n)))
                                - truth))
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


def _mc_pass_law_ks() -> list[ClaimResult]:
    from . import montecarlo

    trials = 10**5
    summary = montecarlo.empirical_law("pass", 10**4, trials,
                                       montecarlo.SeededStream(montecarlo.DEFAULT_SEED, 0))
    crit = montecarlo.ks_critical_1pct(trials)
    return [_check("MC-PASS-LAW-KS", summary.ks_exact < crit, f"{summary.ks_exact:.5f}",
                   f"< {crit:.5f}", "KS vs exact finite-n law, 1% critical value")]


def _mc_opcount_means() -> list[ClaimResult]:
    from . import montecarlo

    n, trials = 10**4, 10**4
    counters = montecarlo.empirical_opcounts(
        n, trials, montecarlo.SeededStream(montecarlo.DEFAULT_SEED, 1))
    deviations = montecarlo.opcount_deviations(n, counters)
    ok = not any(dev > montecarlo.OPCOUNT_SE for _, dev in deviations.values())
    details = [f"{name}: {dev:.2f} se" for name, (_, dev) in deviations.items()]
    return [_check("MC-OPCOUNT-MEANS", ok, "; ".join(details),
                   f"each within {montecarlo.OPCOUNT_SE:g} se", f"n={n}, trials={trials}")]


def suite_montecarlo() -> list[ClaimResult]:
    return _mc_pass_law_ks() + _mc_opcount_means()


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


# The claim groups of run_suite("all"): the suites but lemma-8-4 (a subset of
# opcount-lemmas), with montecarlo's two separately seeded claims apart and
# MC-OPCOUNT-MEANS, the caller's longest, last.
_GROUPS = {**{name: suite for name, suite in SUITES.items()
              if name not in ("lemma-8-4", "montecarlo")},
           "MC-PASS-LAW-KS": _mc_pass_law_ks, "MC-OPCOUNT-MEANS": _mc_opcount_means}

# The groups run_suite("all") leaves to its forked worker, balanced on CPU times
# per group with numpy preloaded (four runs in one session, 2 CPUs): stein-chen
# 182-206 ms, MC-PASS-LAW-KS 66-70, inversion-lemma 24-42, rayleigh-ks 11-12 and
# opcount-lemmas under 1, 283-330 in all, against MC-OPCOUNT-MEANS 205-223,
# paper-values 48-50, enumeration 19-33, asymptotic-orders 13, optimal-shift 2,
# 287-321 in all; each lane imports numpy (107-168). Cache pairs share a lane:
# inversion-lemma and opcount-lemmas read _permutation_walk, paper-values and
# MC-OPCOUNT-MEANS scaled_pass_moment(10^4, .).
WORKER_GROUPS = ("stein-chen", "inversion-lemma", "opcount-lemmas", "rayleigh-ks",
                 "MC-PASS-LAW-KS")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _may_fork() -> bool:
    import threading

    # numpy's import starts the threads of its BLAS pool; a fork copies one thread
    return (hasattr(os, "fork") and _usable_cpus() >= 2 and "numpy" not in sys.modules
            and threading.active_count() == 1)


def _run_groups(names) -> list[ClaimResult]:
    return [c for name in names for c in _GROUPS[name]()]


def _worker_lane(pipe: int):
    """The forked worker, which never returns: the claims of WORKER_GROUPS as JSON
    on `pipe`, or a traceback on stderr and its last line on `pipe`."""
    code = 1
    try:
        with open(pipe, "w", encoding="utf-8") as out:
            try:
                out.write(json.dumps([list(c) for c in _run_groups(WORKER_GROUPS)]))
                code = 0
            except BaseException as exc:
                import traceback

                traceback.print_exc()
                out.write(traceback.format_exception_only(exc)[-1])
    finally:
        sys.stderr.flush()
        os._exit(code)


def _run_all() -> list[ClaimResult]:
    if not _may_fork():
        return _run_groups(_GROUPS)
    read, write = os.pipe()
    sys.stdout.flush()  # else the worker would write what this process buffered
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        _worker_lane(write)
    status = None  # the worker's wait status, once reaped
    try:
        os.close(write)
        with open(read, "rb") as lane:
            results = []
            for name in (g for g in _GROUPS if g not in WORKER_GROUPS):
                if status is None and (reaped := os.waitpid(pid, os.WNOHANG))[0]:
                    status = reaped[1]
                if status:  # the worker failed: report it before this lane runs on
                    break
                results += _GROUPS[name]()
            message = lane.read()
        if status is None:
            status = os.waitpid(pid, 0)[1]
    except BaseException:
        if status is None:  # no worker outlives the call
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    if code := os.waitstatus_to_exitcode(status):
        raise RuntimeError(f"verify lane {', '.join(WORKER_GROUPS)} exited {code}: "
                           f"{message.decode(errors='replace').strip() or 'no message'}")
    return results + [ClaimResult(*fields) for fields in json.loads(message)]


def run_suite(name: str) -> list[ClaimResult]:
    if name == "all":
        return sorted(_run_all(), key=lambda c: c.claim_id)
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return sorted(SUITES[name](), key=lambda c: c.claim_id)

