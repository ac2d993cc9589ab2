"""Seeded, reproducible samplers and empirical verification summaries.

Streams are PCG64 generators keyed by (seed, stream_id) through numpy's
SeedSequence spawn keys, so distinct stream ids give independent-quality
substreams and identical ids reproduce draws bit for bit.  Permutation
statistics are sampled through inversion tables (entry i uniform on
{0..n-i}), on the supports `exact.inversion_supports` gives the exact
laws.  First collisions are sampled with each row's days relabelled in
order of first appearance, so a step compares one uniform draw with the
count of days seen and no row keeps state that grows with n.

The numpy kernels spend as little arithmetic per table entry as they can
without changing a draw: table values are drawn as uint64 and split into
digits by unsigned division (`_draw_digits`); once `empirical_opcounts`
stops taking the maximum, a group's digit sum comes from its quotient
chain (`_digit_sums`) without forming the digits; each group is drawn for
at most 2^14 rows at a time (`_parts`), so its buffers stay small at any
trial count; and pair-match chunks are drawn as uint32 (or uint64 past
2^32) and kept in the narrowest unsigned dtype that holds their values.
The seeded output is the same, bit for bit, as with signed int64 kernels
drawn for every row at once.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import ResourceBoundError, asymptotics, exact
from .poisson_approx import MATCH_FAMILIES, match_family, stein_chen_bound, tv_distance_to_poisson
from .sorters import VARIANTS, opcounts_from_stats

DEFAULT_SEED = 0x5EED_B0B5
_KS_GRID_FACTOR = 7.5  # lattice scan reaches where exp(-x^2/2) < 1e-12
_CHUNK_BYTES = 8_000_000  # per-chunk draw matrix or row indices
# a quarter of the rows for birthday pair matches: uint32 draws carry a half-used word across
# calls, so chunk ends do not move the stream (inversion chunks draw per column, and stay)
_BIRTHDAY_CHUNK_BYTES = _CHUNK_BYTES // 4
_PACK_LIMIT = 1 << 53  # largest product of supports packed into one draw
_PART_ROWS = 1 << 14  # rows a packed group is drawn for at once: 128 KiB a uint64 buffer
_MAX_DRAWS = 2_000_000_000  # random values or tally cells per call

LAW_KINDS = tuple(exact.LATTICES)
MATCH_KINDS = tuple(MATCH_FAMILIES)


class SeededStream(namedtuple("SeededStream", "seed stream_id",
                              defaults=(DEFAULT_SEED, 0))):
    __slots__ = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


class EmpiricalSummary(namedtuple(
        "EmpiricalSummary", "kind n m sample_count mean variance se_mean ks_exact "
        "ks_rayleigh tv_distance tv_se reference_mu", defaults=(None,) * 5)):
    """m and the five trailing fields are None where the summary has none."""

    __slots__ = ()


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
    return tuple(int(rng.integers(0, s)) for s in exact.inversion_supports(n, n - 1))


# ---------------------------------------------------------------------------
# vectorized batch samplers
# ---------------------------------------------------------------------------


def _check_bound(what: str, n: int, trials: int, count: int, counted="random values") -> None:
    """Refuse a call that would use more than _MAX_DRAWS of what it counted,
    random values or tally cells, before it allocates."""
    if count > _MAX_DRAWS:
        raise ResourceBoundError(
            f"{what} at n={n} with trials={trials} needs about {count} {counted}, "
            f"over the bound of {_MAX_DRAWS}")


def _support_groups(n: int):
    """Cut the inversion-table supports n, n-1, ..., 1 into consecutive runs
    whose product stays at or below _PACK_LIMIT; yield (sizes, product)."""
    sizes, prod = [], 1
    for s in exact.inversion_supports(n, n - 1):
        if sizes and prod * s > _PACK_LIMIT:
            yield sizes, prod
            sizes, prod = [], 1
        sizes.append(s)
        prod *= s
    yield sizes, prod


def _parts(rows: int):
    """Consecutive slices of at most _PART_ROWS rows that cover ``rows`` rows.

    A part's draw continues the stream where the last one ended (a uint64
    draw past 2^32 takes whole 64-bit words; below, the bit generator keeps
    the half-used word of its 32-bit buffer), so a group drawn part by part
    sees the same values as in one call."""
    return (slice(lo, lo + _PART_ROWS) for lo in range(0, rows, _PART_ROWS))


def _draw_digits(rng: np.random.Generator, sizes, prod: int, rows: int):
    """One uniform value on {0..prod-1} per row, yielded as its mixed-radix
    digits from the last size to the first: independent and uniform on
    {0..s-1}, since the value and its digits are in bijection.

    The value is drawn as uint64, the same stream as an int64 draw for
    prod <= 2^53, and split by unsigned division; each divisor is a
    np.uint64, since numpy 1.x casts uint64 mixed with int64 to float64.
    The split runs in three buffers of ``rows`` values, one part of the
    caller's rows (`_parts`), so a yielded digit is overwritten once the
    next one is asked for."""
    v = rng.integers(0, prod, size=rows, dtype=np.uint64)
    q, digit = np.empty_like(v), np.empty_like(v)
    for s in sizes[:0:-1]:
        s = np.uint64(s)
        np.floor_divide(v, s, out=q)
        np.multiply(q, s, out=digit)
        np.subtract(v, digit, out=digit)
        yield digit
        v, q = q, v
    yield v


def _digit_sums(rng: np.random.Generator, sizes, prod: int, total: np.ndarray) -> None:
    """Add to each row of the uint64 ``total``, one part of the caller's
    rows, the digit sum of its value drawn as in `_draw_digits`, without
    forming the digits.

    With quotients q_0 = v and q_j = q_{j-1} // s_j for the sizes s_j
    taken from the last to the second, the digits sum to
    v - sum_j (s_j - 1) q_j; the total is exact modulo 2^64."""
    v = rng.integers(0, prod, size=total.size, dtype=np.uint64)
    total += v
    scratch = np.empty_like(v)
    for s in sizes[:0:-1]:
        np.floor_divide(v, np.uint64(s), out=v)
        np.multiply(v, np.uint64(s - 1), out=scratch)
        total -= scratch


def sample_pass_counts(n: int, trials: int, stream: SeededStream) -> np.ndarray:
    """Pass counts of uniform random permutations, via inversion tables.

    The pass count is max(table entry) + 1.  The entries are drawn in index
    order, several per random value (`_support_groups`), and a group only
    for the rows whose running maximum can still grow (max < its largest
    support - 1); a row is frozen as soon as it cannot, since every later
    support is smaller still.  A group is drawn part by part (`_parts`), so
    the digit buffers hold at most 2^14 rows whatever the trial count, and
    the rows still active are indexed in the narrowest signed dtype that
    holds them.
    """
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    # either law draws about sqrt(pi n / 2) values a trial, below sqrt(2n) + 1
    _check_bound("pass sampling", n, trials, trials * (math.isqrt(2 * n) + 1))
    rng = stream.generator()
    maxes = np.zeros(trials, dtype=np.uint64)  # uint64 like the digits: no cast copies
    active = np.arange(trials, dtype=np.min_scalar_type(-trials))  # narrowest signed indices
    current = np.zeros(trials, dtype=np.uint64)  # running maxima of the active rows
    for sizes, prod in _support_groups(n):
        grows = current < sizes[0] - 1
        if not grows.all():
            maxes[active[~grows]] = current[~grows]
            active, current = active[grows], current[grows]
            if not active.size:
                break
        for part in _parts(active.size):
            top = current[part]
            for digit in _draw_digits(rng, sizes, prod, top.size):
                np.maximum(top, digit, out=top)
    maxes[active] = current
    passes = maxes.view(np.int64)
    passes += 1
    return passes


def sample_collision_counts(n: int, trials: int, stream: SeededStream) -> np.ndarray:
    """First-collision counts for the birthday process on n days.

    Each row names its days in the order they first appear, so after k
    distinct days its seen set is {0..k-1} and step k + 1 repeats a day iff
    its draw is below k.  The relabelling is a bijection that depends only on
    the row's past, so every draw stays uniform and C keeps its law; no
    day identities are kept (`sample_first_collision` tracks them).  Every
    step draws one value for each unresolved row, and each row draws
    exactly its C values.
    """
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    _check_bound("collision sampling", n, trials, trials * (math.isqrt(2 * n) + 1))
    rng = stream.generator()
    chunk = _CHUNK_BYTES // 64  # each step's int64 draws and row indices stay near 1 MB
    out = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, chunk):
        active = np.arange(start, min(start + chunk, trials))
        step = 0
        while active.size:  # pigeonhole: every row resolves by step n + 1
            step += 1
            hit = rng.integers(0, n, size=active.size) < step - 1
            out[active[hit]] = step
            active = active[~hit]
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
    """Tally of lattice values (deficit d for pass, j = C-1 for collision)."""
    if kind not in LAW_KINDS:
        raise ValueError(f"kind must be one of {LAW_KINDS}")
    # n + 1 cells bound the lattice walk of the summary; the tally ends at the largest value drawn
    _check_bound(f"{kind} law tally", n, trials, n + 1, "tally cells")
    if kind == "pass":
        values = sample_pass_counts(n, trials, stream)
        np.subtract(n, values, out=values)
    else:
        values = sample_collision_counts(n, trials, stream)
        values -= 1
    return np.bincount(values)


def summarize_law_tally(kind: str, n: int, tally: np.ndarray) -> EmpiricalSummary:
    """Summary statistics plus KS distances computed from a lattice tally."""
    trials = int(tally.sum())
    first = exact.LATTICES[kind][1]
    length = max(_ks_grid_length(n), int(np.nonzero(tally)[0].max()) + 1 - first)
    length = min(length, n)  # a law has n lattice values
    counts = np.zeros(length)  # the tally may end before the KS grid does
    drawn = tally[first : first + length]
    counts[: drawn.size] = drawn
    grid, exact_cdf, rayleigh_cdf = _exact_lattice(kind, n, length)
    ecdf = np.cumsum(counts) / trials
    ks_exact = float(np.max(np.abs(ecdf - exact_cdf)))
    ks_ray = float(np.max(np.abs(ecdf - rayleigh_cdf)))

    mean, var = _mean_var(grid, counts / trials)  # grid: lattice values of the scaled statistic
    return _summary(kind, n, None, trials, mean, var, ks_exact=ks_exact, ks_rayleigh=ks_ray)


def _summary(kind: str, n: int, m: int | None, trials: int, mean: float, var: float,
             **extra) -> EmpiricalSummary:
    """The summary of ``trials`` samples; each caller's variance, so se, is 0 at one trial."""
    se = math.sqrt(var / trials)
    return EmpiricalSummary(kind=kind, n=n, m=m, sample_count=trials, mean=mean,
                            variance=var, se_mean=se, **extra)


def _mean_var(values: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """Mean and population variance of a law putting mass ``probs`` on ``values``."""
    mean = float(values @ probs)
    return mean, float(((values - mean) ** 2) @ probs)


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
    _check_bound("pair-match simulation", n, trials, (m + 1) * trials)
    _check_bound("pair-match simulation", n, trials, 1 + m * (m + 1) // 2, "tally cells")
    family = match_family(kind, n, m)
    mu = stein_chen_bound(family).mu
    cols = m + 1
    rng = stream.generator()
    budget = _BIRTHDAY_CHUNK_BYTES if kind == "birthday" else _CHUNK_BYTES
    chunk = max(1, budget // (8 * cols))  # rows a chunk, sized as for int64 values
    narrow = np.min_scalar_type(family.supports[0] - 1)  # holds every value drawn
    # below 2^32 a uint32 draw is the same stream as an int64 one, in half the bytes
    wide = np.promote_types(narrow, np.uint32)
    tally = np.zeros(1 + cols * (cols - 1) // 2, dtype=np.int64)
    for start in range(0, trials, chunk):
        rows = min(chunk, trials - start)
        if kind == "birthday":
            draws = rng.integers(0, n, size=(rows, cols), dtype=wide).astype(narrow, copy=False)
        else:
            draws = np.empty((rows, cols), dtype=narrow)
            for col, size in enumerate(family.supports):
                draws[:, col] = rng.integers(0, size, size=rows, dtype=wide)
        tally += np.bincount(_pair_match_counts(draws), minlength=tally.size)

    probs = tally / trials
    support = np.arange(tally.size)
    mean, var = _mean_var(support, probs)
    tv = tv_distance_to_poisson({int(k): float(p) for k, p in zip(support, probs) if p}, mu)
    tv_se = 0.5 * math.sqrt(float(np.sum(probs * (1.0 - probs))) / trials)
    return _summary(kind, n, m, trials, mean, var, tv_distance=tv, tv_se=tv_se, reference_mu=mu)


def _pair_match_counts(draws: np.ndarray) -> np.ndarray:
    """Per row, the number of unordered column pairs holding equal values.

    Sorts ``draws`` in place along its rows, in whatever integer dtype it
    comes (`empirical_pair_matches` passes the narrowest that holds its
    values); a run of c equal values then holds c(c-1)/2 pairs, summed as
    each member meets the earlier ones.  The neighbour equalities are laid
    out one contiguous row per column pair, and the counts are kept in the
    smallest unsigned dtype that holds cols(cols-1)/2.
    """
    rows, cols = draws.shape
    draws.sort(axis=1)
    equal = np.empty((cols - 1, rows), dtype=bool)
    np.equal(draws[:, 1:].T, draws[:, :-1].T, out=equal)
    # earlier members of the current run, and the matches so far
    run = np.zeros(rows, dtype=np.min_scalar_type(cols * (cols - 1) // 2))
    matches = np.zeros_like(run)
    for column in equal:
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
    suite verifies exactly.  The table is drawn several entries per random
    value and part by part, as in `sample_pass_counts`, and every row
    draws every entry, since the inversion sum needs all of them; the
    maximum stops being taken once every row has reached a group's largest
    value, which no later entry can pass, and from then on each group adds
    its digit sum through `_digit_sums`.
    """
    if n < 2 or trials < 1:
        raise ValueError("need n >= 2 and trials >= 1")
    _check_bound("opcount sampling", n, trials, n * trials)
    rng = stream.generator()
    maxes = np.zeros(trials, dtype=np.uint64)
    sums = np.zeros(trials, dtype=np.uint64)  # below n^2/2: the modulo-2^64 total is exact
    growing = True
    parts = [(sums[part], maxes[part]) for part in _parts(trials)]
    for sizes, prod in _support_groups(n):
        growing = growing and int(maxes.min()) < sizes[0] - 1
        for total, top in parts:
            if not growing:
                _digit_sums(rng, sizes, prod, total)
                continue
            for digit in _draw_digits(rng, sizes, prod, total.size):
                total += digit
                np.maximum(top, digit, out=top)
    passes = maxes.view(np.int64) + 1
    sums = sums.view(np.int64)
    plain, early, variant = (opcounts_from_stats(n, passes, sums, v) for v in VARIANTS)
    counters = {
        "comparison_reduction": plain.comparisons - early.comparisons,
        "flag_writes_early_exit": early.bool_assignments,
        "flag_writes_variant": variant.bool_assignments,
    }
    out = {}
    for name, counts in counters.items():
        values = counts.astype(np.float64)
        var = float(values.var(ddof=1)) if trials > 1 else 0.0
        out[name] = _summary(name, n, None, trials, float(values.mean()), var)
    return out


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
    deltas = asymptotics.ExpectedOpDeltas.exact(n)
    out = {}
    for name, s in counters.items():
        target = getattr(deltas, name)
        gap = abs(s.mean - target)
        if s.se_mean:
            out[name] = (target, gap / s.se_mean)
        else:
            out[name] = (target, 0.0 if gap <= 1e-12 * max(1.0, abs(target)) else math.inf)
    return out
