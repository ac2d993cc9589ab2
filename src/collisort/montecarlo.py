"""Seeded, reproducible samplers and empirical verification summaries.

Streams are PCG64 generators keyed by (seed, stream_id) through numpy's
SeedSequence spawn keys, so distinct stream ids give independent-quality
substreams and identical ids reproduce draws bit for bit.  Permutation
statistics are sampled through inversion tables (entry i uniform on
{0..n-i}), the same provenance used by the exact laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import asymptotics, exact
from .poisson_approx import match_family, stein_chen_bound, tv_distance_to_poisson
from .sorters import ResourceBoundError, opcounts_from_stats

DEFAULT_SEED = 0x5EED_B0B5
_KS_GRID_FACTOR = 7.5  # lattice scan reaches where exp(-x^2/2) < 1e-12
_CHUNK_BYTES = 8_000_000  # per-chunk occupancy bitmap or draw matrix

LAW_KINDS = ("pass", "collision")
MATCH_KINDS = ("birthday", "inversion")


@dataclass(frozen=True)
class SeededStream:
    seed: int = DEFAULT_SEED
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class EmpiricalSummary:
    kind: str
    n: int
    m: int | None
    sample_count: int
    mean: float
    variance: float
    se_mean: float
    ks_exact: float | None = None
    ks_rayleigh: float | None = None
    tv_distance: float | None = None
    tv_se: float | None = None
    reference_mu: float | None = None


# ---------------------------------------------------------------------------
# scalar samplers
# ---------------------------------------------------------------------------


def sample_first_collision(n: int, stream: SeededStream) -> int:
    """Persons drawn until the first repeated birthday (always >= 2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream.generator()
    seen: set[int] = set()
    count = 0
    while True:
        count += 1
        day = int(rng.integers(0, n))
        if day in seen:
            return count
        seen.add(day)


def sample_inversion_table(n: int, stream: SeededStream) -> tuple[int, ...]:
    """One inversion table: independent entries uniform on {0..n-i}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = stream.generator()
    return tuple(int(rng.integers(0, n - i + 1)) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# vectorized batch samplers
# ---------------------------------------------------------------------------


def sample_pass_counts(n: int, trials: int, stream: SeededStream) -> np.ndarray:
    """Pass counts of uniform random permutations, via inversion tables.

    The pass count is max(table entry) + 1.  Columns are drawn in index
    order, and column i (support {0..n-i}) only for the rows whose running
    maximum can still grow (max < n - i); a row is frozen as soon as it
    cannot, since every later support is smaller still.
    """
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    rng = stream.generator()
    maxes = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    current = np.zeros(trials, dtype=np.int64)  # running maxima of the active rows
    for i in range(1, n + 1):
        grows = current < n - i
        if not grows.all():
            maxes[active[~grows]] = current[~grows]
            active, current = active[grows], current[grows]
            if not active.size:
                break
        np.maximum(current, rng.integers(0, n - i + 1, size=active.size), out=current)
    return maxes + 1


def sample_collision_counts(n: int, trials: int, stream: SeededStream) -> np.ndarray:
    """First-collision counts for the birthday process on n days.

    Sequential occupancy: each chunk of rows keeps a rows x n bitmap, one
    bit per (row, day), of the days seen so far.  Every step draws one day
    for each unresolved row; a row whose day is already marked resolves at
    that step, the others mark their day.  Each row draws exactly its C
    values.
    """
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    rng = stream.generator()
    row_bytes = (n + 7) // 8
    # bitmap within _CHUNK_BYTES; at most _CHUNK_BYTES // 64 rows, which
    # keeps the per-step int64 arrays near that size as well
    chunk = max(1, _CHUNK_BYTES // max(row_bytes, 64))
    out = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, chunk):
        rows = min(chunk, trials - start)
        seen = np.zeros(rows * row_bytes, dtype=np.uint8)
        active = np.arange(rows)
        step = 0
        while active.size:  # pigeonhole: every row resolves by step n + 1
            step += 1
            days = rng.integers(0, n, size=active.size)
            at = active * row_bytes + (days >> 3)  # rows never share a byte
            bits = np.left_shift(1, days & 7).astype(np.uint8)
            hit = (seen[at] & bits) != 0
            out[start + active[hit]] = step
            fresh = ~hit
            active = active[fresh]
            seen[at[fresh]] |= bits[fresh]
    return out


# ---------------------------------------------------------------------------
# exact lattice CDFs and the discrete KS statistic
# ---------------------------------------------------------------------------


def _exact_lattice(kind: str, n: int, length: int):
    """At the first ``length`` lattice values v: the points v/sqrt(n), the exact
    CDF P{value <= v} = 1 - P{value >= v + 1} and the standard Rayleigh CDF."""
    survival, first = exact.LATTICES[kind]
    surv = np.zeros(length + 1)
    for m, s in survival(n):
        if m > length:
            break
        surv[m] = float(s)
    grid = np.arange(first, first + length) / math.sqrt(n)
    return grid, 1.0 - surv[1 : length + 1], -np.expm1(-grid * grid / 2.0)


def _ks_grid_length(n: int) -> int:
    return min(n, int(_KS_GRID_FACTOR * math.sqrt(n)) + 2)


def exact_law_ks_vs_rayleigh(kind: str, n: int) -> float:
    """Discrete KS distance between the exact finite-n law of the scaled
    statistic and the standard Rayleigh law, over the lattice jump points.

    No sampling: both CDFs are evaluated exactly on the lattice.
    """
    if kind not in LAW_KINDS:
        raise ValueError(f"kind must be one of {LAW_KINDS}")
    _, exact_cdf, rayleigh_cdf = _exact_lattice(kind, n, _ks_grid_length(n))
    return float(np.max(np.abs(exact_cdf - rayleigh_cdf)))


# ---------------------------------------------------------------------------
# empirical law summaries
# ---------------------------------------------------------------------------


def law_tally(kind: str, n: int, trials: int, stream: SeededStream) -> np.ndarray:
    """Tally of lattice values (deficit d for pass, j = C-1 for collision).

    Tallies from different streams add associatively, which is the merge
    rule for parallel runs.
    """
    if kind not in LAW_KINDS:
        raise ValueError(f"kind must be one of {LAW_KINDS}")
    if kind == "pass":
        values = n - sample_pass_counts(n, trials, stream)
        return np.bincount(values, minlength=n)
    values = sample_collision_counts(n, trials, stream) - 1
    return np.bincount(values, minlength=n + 1)


def merge_tallies(tallies: Iterable[np.ndarray]) -> np.ndarray:
    """Associative merge of per-stream tallies."""
    out: np.ndarray | None = None
    for t in tallies:
        out = t.copy() if out is None else out + t
    if out is None:
        raise ValueError("no tallies to merge")
    return out


def summarize_law_tally(kind: str, n: int, tally: np.ndarray) -> EmpiricalSummary:
    """Summary statistics plus KS distances computed from a lattice tally."""
    trials = int(tally.sum())
    first = exact.LATTICES[kind][1]
    length = max(_ks_grid_length(n), int(np.nonzero(tally)[0].max()) + 1 - first)
    length = min(length, tally.size - first)
    counts = tally[first : first + length].astype(np.float64)
    grid, exact_cdf, rayleigh_cdf = _exact_lattice(kind, n, length)
    leftover = trials - counts.sum()
    if leftover:  # values beyond the scan window (possible only for tiny n)
        counts[-1] += leftover
    ecdf = np.cumsum(counts) / trials
    ks_exact = float(np.max(np.abs(ecdf - exact_cdf)))
    ks_ray = float(np.max(np.abs(ecdf - rayleigh_cdf)))

    scaled = grid  # lattice values of the scaled statistic
    probs = counts / trials
    mean = float(scaled @ probs)
    var = float(((scaled - mean) ** 2) @ probs)
    se = math.sqrt(var / trials) if trials > 1 else 0.0
    return EmpiricalSummary(
        kind=kind,
        n=n,
        m=None,
        sample_count=trials,
        mean=mean,
        variance=var,
        se_mean=se,
        ks_exact=ks_exact,
        ks_rayleigh=ks_ray,
    )


def empirical_law(kind: str, n: int, trials: int, stream: SeededStream) -> EmpiricalSummary:
    """Sample the scaled pass or collision statistic and compare laws."""
    if trials < 1000:
        raise ValueError("need trials >= 1000 for a meaningful law comparison")
    return summarize_law_tally(kind, n, law_tally(kind, n, trials, stream))


# ---------------------------------------------------------------------------
# pairwise-match counts vs the Poisson law
# ---------------------------------------------------------------------------


def empirical_pair_matches(
    kind: str, n: int, m: int, trials: int, stream: SeededStream
) -> EmpiricalSummary:
    """Sample the pairwise equal-value count among the first m+1 variables
    and measure total variation against the matched-mean Poisson law.
    """
    if kind not in MATCH_KINDS:
        raise ValueError(f"kind must be one of {MATCH_KINDS}")
    if trials < 1000:
        raise ValueError("need trials >= 1000")
    if (m + 1) * trials > 2_000_000_000:
        raise ResourceBoundError(
            f"pair-match simulation of {(m + 1) * trials} draws exceeds the resource bound"
        )
    family = match_family(kind, n, m)
    mu = stein_chen_bound(family).mu
    cols = m + 1
    rng = stream.generator()
    chunk = max(1, _CHUNK_BYTES // (8 * cols))  # int64 draws
    tally = np.zeros(1 + cols * (cols - 1) // 2, dtype=np.int64)
    for start in range(0, trials, chunk):
        rows = min(chunk, trials - start)
        if kind == "birthday":
            draws = rng.integers(0, n, size=(rows, cols))
        else:
            draws = np.empty((rows, cols), dtype=np.int64)
            for col, size in enumerate(family.supports):
                draws[:, col] = rng.integers(0, size, size=rows)
        tally += np.bincount(_pair_match_counts(draws), minlength=tally.size)

    probs = tally / trials
    support = np.arange(tally.size)
    mean = float(support @ probs)
    var = float(((support - mean) ** 2) @ probs)
    tv = tv_distance_to_poisson({int(k): float(p) for k, p in zip(support, probs) if p}, mu)
    tv_se = 0.5 * math.sqrt(float(np.sum(probs * (1.0 - probs))) / trials)
    return EmpiricalSummary(
        kind=kind,
        n=n,
        m=m,
        sample_count=trials,
        mean=mean,
        variance=var,
        se_mean=math.sqrt(var / trials),
        tv_distance=tv,
        tv_se=tv_se,
        reference_mu=mu,
    )


def _pair_match_counts(draws: np.ndarray) -> np.ndarray:
    """Per row, the number of unordered column pairs holding equal values.

    Sorts ``draws`` in place along its rows; a run of c equal values then
    holds c(c-1)/2 pairs, summed as each member meets the earlier ones.
    """
    draws.sort(axis=1)
    equal = draws[:, 1:] == draws[:, :-1]
    run = np.zeros(draws.shape[0], dtype=np.int64)  # earlier members of the current run
    matches = np.zeros_like(run)
    for column in equal.T:
        run += 1
        run *= column
        matches += run
    return matches


# ---------------------------------------------------------------------------
# operation-count expectations
# ---------------------------------------------------------------------------


def empirical_opcounts(
    n: int, trials: int, stream: SeededStream
) -> dict[str, EmpiricalSummary]:
    """Mean operation-count deltas of the early-exit variants vs plain sort.

    Each run's counts follow from its (passes, inversions), the maximum + 1
    and the sum of its inversion table, through the per-permutation
    identities of `sorters.opcounts_from_stats`, which the exhaustive small-n
    suite verifies exactly.  Every row draws every column, unlike the
    frozen-row pass sampler, since the inversion sum needs all of them.
    """
    if n < 2 or trials < 1:
        raise ValueError("need n >= 2 and trials >= 1")
    rng = stream.generator()
    maxes = np.zeros(trials, dtype=np.int64)
    sums = np.zeros(trials, dtype=np.int64)
    for i in range(1, n + 1):
        draws = rng.integers(0, n - i + 1, size=trials)
        np.maximum(maxes, draws, out=maxes)
        sums += draws
    passes = maxes + 1
    plain = opcounts_from_stats(n, passes, sums, "plain")
    early = opcounts_from_stats(n, passes, sums, "early_exit")
    variant = opcounts_from_stats(n, passes, sums, "early_exit_variant")
    reductions = (plain.comparisons - early.comparisons).astype(np.float64)
    flags_opt = early.bool_assignments.astype(np.float64)
    flags_var = variant.bool_assignments.astype(np.float64)

    def summary(name: str, values: np.ndarray) -> EmpiricalSummary:
        mean = float(values.mean())
        var = float(values.var(ddof=1)) if trials > 1 else 0.0
        return EmpiricalSummary(
            kind=name,
            n=n,
            m=None,
            sample_count=trials,
            mean=mean,
            variance=var,
            se_mean=math.sqrt(var / trials) if trials > 1 else 0.0,
        )

    return {
        "comparison_reduction": summary("comparison_reduction", reductions),
        "flag_writes_early_exit": summary("flag_writes_early_exit", flags_opt),
        "flag_writes_variant": summary("flag_writes_variant", flags_var),
    }


# ---------------------------------------------------------------------------
# tolerances of the statistical checks
# ---------------------------------------------------------------------------

TV_BOUND_SE = 3.0  # sampled TV may exceed the Stein-Chen bound by this many se
OPCOUNT_SE = 4.0  # sampled opcount means may miss the exact means by this many se


def ks_critical_1pct(trials: int) -> float:
    """Asymptotic 1% critical value of the one-sample KS statistic."""
    return 1.63 / math.sqrt(trials)


def tv_limit(bound: float, tv_se: float) -> float:
    """Largest sampled TV distance consistent with a Stein-Chen ``bound``."""
    return bound + TV_BOUND_SE * tv_se


def opcount_deviations(n: int, counters: dict) -> dict[str, tuple[float, float]]:
    """Per counter of empirical_opcounts: (exact expected value, the column
    `approx opt-deltas` prints, from exact.scaled_pass_moment; |mean -
    expected| in standard errors).

    A counter with zero spread is off by 0 se when its mean is within the
    float rounding of the expected value, and by infinitely many otherwise.
    """
    deltas = asymptotics.ExpectedOpDeltas.from_moments(
        n, *(float(exact.scaled_pass_moment(n, k)) for k in (1, 2)))
    out = {}
    for name, s in counters.items():
        target = getattr(deltas, name)
        gap = abs(s.mean - target)
        if s.se_mean:
            out[name] = (target, gap / s.se_mean)
        else:
            out[name] = (target, 0.0 if gap <= 1e-12 * max(1.0, abs(target)) else math.inf)
    return out
