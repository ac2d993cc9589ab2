"""Seeded samplers: determinism, tallies, and agreement with exact laws."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from collisort import exact, montecarlo
from collisort.montecarlo import (
    DEFAULT_SEED,
    SeededStream,
    _digit_sums,
    _draw_digits,
    _pair_match_counts,
    _support_groups,
    empirical_law,
    empirical_opcounts,
    empirical_pair_matches,
    exact_law_ks_vs_rayleigh,
    ks_critical_1pct,
    law_tally,
    sample_collision_counts,
    sample_first_collision,
    sample_inversion_table,
    sample_pass_counts,
    summarize_law_tally,
    tv_limit,
)
from collisort.poisson_approx import birthday_family, stein_chen_bound
from collisort.sorters import (
    ResourceBoundError,
    check_inversion_table,
    opcounts_from_stats,
    pass_count,
)
from oracles import pair_match_counts_by_columns


# -- determinism ---------------------------------------------------------------


def test_scalar_samplers_deterministic():
    s = SeededStream(12345, 7)
    assert sample_first_collision(365, s) == sample_first_collision(365, s)
    assert sample_inversion_table(20, s) == sample_inversion_table(20, s)


def test_batch_samplers_deterministic():
    s = SeededStream(999, 3)
    a = sample_pass_counts(100, 5000, s)
    b = sample_pass_counts(100, 5000, s)
    assert np.array_equal(a, b)
    c = sample_collision_counts(365, 5000, s)
    d = sample_collision_counts(365, 5000, s)
    assert np.array_equal(c, d)


def test_summaries_deterministic():
    s = SeededStream(42, 0)
    assert empirical_law("pass", 400, 2000, s) == empirical_law("pass", 400, 2000, s)
    assert empirical_pair_matches("birthday", 365, 22, 2000, s) == empirical_pair_matches(
        "birthday", 365, 22, 2000, s
    )
    assert empirical_opcounts(50, 200, s) == empirical_opcounts(50, 200, s)


def test_distinct_streams_differ():
    a = sample_pass_counts(100, 2000, SeededStream(42, 0))
    b = sample_pass_counts(100, 2000, SeededStream(42, 1))
    assert not np.array_equal(a, b)


# -- scalar sampler contracts -----------------------------------------------------


def test_first_collision_one_day():
    for sid in range(5):
        assert sample_first_collision(1, SeededStream(7, sid)) == 2


def test_inversion_table_single():
    assert sample_inversion_table(1, SeededStream(0, 0)) == (0,)


def test_sampled_tables_are_valid():
    for sid in range(10):
        table = sample_inversion_table(12, SeededStream(5, sid))
        check_inversion_table(table)


# -- lattice tallies --------------------------------------------------------------


def test_law_tally_is_the_bincount_of_the_same_stream():
    n, trials = 200, 3000
    for sid in range(4):
        tally = law_tally("pass", n, trials, SeededStream(11, sid))
        values = n - sample_pass_counts(n, trials, SeededStream(11, sid))
        assert np.array_equal(tally, np.bincount(values))


# -- packed inversion-table draws -------------------------------------------------


class _CountingUp:
    """Stands in for a Generator whose draw of 0..high-1 is every value once."""

    def integers(self, low, high, size, dtype=np.int64):
        assert (low, size) == (0, high)
        return np.arange(high, dtype=dtype)


_DIGIT_SIZES = ([1], [2, 1], [3, 2], [4, 4, 4], [7, 1, 6], [5, 4, 3, 2, 1])


def test_digit_split_is_a_bijection():
    for sizes in _DIGIT_SIZES:
        prod = math.prod(sizes)
        digits = [d.copy() for d in _draw_digits(_CountingUp(), sizes, prod, prod)]
        assert len(digits) == len(sizes)
        # prod distinct tuples in the product set of prod tuples: one-to-one and onto
        tuples = set(zip(*(d.tolist() for d in reversed(digits))))
        assert tuples == set(itertools.product(*(range(s) for s in sizes)))


def test_digit_sums_follow_the_quotient_chain():
    for sizes in _DIGIT_SIZES:
        prod = math.prod(sizes)
        expected = sum(d.astype(np.int64) for d in _draw_digits(_CountingUp(), sizes, prod, prod))
        for start in (0, 2**64 - 3):  # from 2^64 - 3, a digit sum of 3 or more wraps past 2^64
            total = np.full(prod, start, dtype=np.uint64)
            _digit_sums(_CountingUp(), sizes, prod, total)
            assert total.tolist() == [(start + int(e)) % 2**64 for e in expected]


def test_table_samplers_draws_unchanged():
    # the packed digit kernels see the same draws as the signed int64 split did
    counters = empirical_opcounts(10**4, 10**4, SeededStream(DEFAULT_SEED, 1))
    assert {name: (s.mean, s.variance) for name, s in counters.items()} == {
        "comparison_reduction": (9815.0426, 93170951.18490373),
        "flag_writes_early_exit": (25007897.9899, 27107945729.07911),
        "flag_writes_variant": (19749.7448, 16892.38571153115),
    }
    passes = sample_pass_counts(10**4, 10**5, SeededStream(DEFAULT_SEED, 0))
    assert passes.dtype == np.int64
    assert hashlib.sha256(passes.astype("<i8").tobytes()).hexdigest() == (
        "31bf66dba386c67d6a4be1ebda89fd5c9a07ad63aa3672ca97e893eed1514379")
    # single-group tables: a product below 2^32 (n = 12, an odd row count) and above it (n = 13)
    for n, trials, digest in (
        (12, 4001, "6f94d0c28ef4d91622653d9e3459c38acdbad330af367114e720e169d3ad7848"),
        (13, 5000, "aaaedfee3de216bf94f28df39bcd1da6ce370fe0eda2a4e20c63e552fd34ec81"),
    ):
        passes = sample_pass_counts(n, trials, SeededStream(DEFAULT_SEED, 0))
        assert hashlib.sha256(passes.astype("<i8").tobytes()).hexdigest() == digest, n
    # the relabelled collision draws, pinned so that a change to them is seen
    collisions = sample_collision_counts(10**4, 10**5, SeededStream(DEFAULT_SEED, 0))
    assert hashlib.sha256(collisions.astype("<i8").tobytes()).hexdigest() == (
        "9f190dee45b22fe51f4c277045d43c7f791cf9d7983ee8095fec7aee067a4f38")


def test_support_groups_cover_the_table_in_order():
    for n in (1, 2, 7, 30, 10**4):
        groups = list(_support_groups(n))
        assert [s for sizes, _ in groups for s in sizes] == list(range(n, 0, -1))
        for (sizes, prod), after in itertools.zip_longest(groups, groups[1:]):
            assert prod == math.prod(sizes) <= 2**53
            if after:  # each group is as long as the limit allows
                assert prod * after[0][0] > 2**53
    assert len(list(_support_groups(10**4))) == 2421


def _table_stats(monkeypatch, n, trials, stream):
    """The (passes, inversions) arrays empirical_opcounts hands its identities."""
    seen = []

    def record(n, passes, inversions, variant):
        seen.append((passes, inversions))
        return opcounts_from_stats(n, passes, inversions, variant)

    monkeypatch.setattr(montecarlo, "opcounts_from_stats", record)
    empirical_opcounts(n, trials, stream)
    return seen[0]


def _assert_cells_within_5_sigma(counts, law, trials):
    # multinomial 5-sigma envelope per cell; a cell of probability 0 stays empty
    for cell, count in enumerate(counts.tolist()):
        prob = float(law.get(cell, 0))
        sigma = math.sqrt(prob * (1.0 - prob) * trials)
        assert abs(count - prob * trials) <= 5.0 * sigma, cell


def test_opcount_tables_match_enumeration_at_small_n(monkeypatch):
    # the joint law of (passes, inversions); sample_pass_counts at n <= 7 is
    # checked in test_pass_law_frequencies_vs_enumeration
    trials = 10**6
    for n in range(2, 8):
        cells = n * (n - 1) // 2 + 1  # inversion counts 0..n(n-1)/2
        joint = {}
        for perm in itertools.permutations(range(1, n + 1)):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            cell = pass_count(perm) * cells + inversions
            joint[cell] = joint.get(cell, 0) + 1 / math.factorial(n)
        passes, inversions = _table_stats(monkeypatch, n, trials, SeededStream(1105, n))
        codes = passes * cells + inversions
        _assert_cells_within_5_sigma(np.bincount(codes, minlength=(n + 1) * cells), joint, trials)


def test_packed_tables_match_exact_laws_across_groups(monkeypatch):
    # at n = 30 every pass-count cell has room for the 5-sigma envelope
    cdf = [0] + [exact.pass_cdf_fraction(30, 30 - p) for p in range(1, 31)]
    law_30 = {p: float(cdf[p] - cdf[p - 1]) for p in range(1, 31)}
    # DKW: a sample of the exact law fails the KS limit with probability below 1e-6
    for n, trials in ((30, 10**6), (10**4, 10**4)):
        assert len(list(_support_groups(n))) > 1
        passes, inversions = _table_stats(monkeypatch, n, trials, SeededStream(1107, n))
        mean, var = n * (n - 1) / 4, n * (n - 1) * (2 * n + 5) / 72
        assert abs(inversions.mean() - mean) <= 5.0 * math.sqrt(var / trials)
        assert abs(inversions.var(ddof=1) / var - 1.0) <= 5.0 * math.sqrt(2.0 / trials)
        for sample in (passes, sample_pass_counts(n, trials, SeededStream(1108, n))):
            summary = summarize_law_tally("pass", n, np.bincount(n - sample, minlength=n))
            assert summary.ks_exact < math.sqrt(math.log(2e6) / (2 * trials))
            if n == 30:
                _assert_cells_within_5_sigma(np.bincount(sample, minlength=n + 1), law_30, trials)


# -- agreement with exact laws -------------------------------------------------------


def test_collision_mean_within_three_se():
    n, trials = 365, 10**6
    c = sample_collision_counts(n, trials, SeededStream(2024, 0))
    z = (c - 1) / math.sqrt(n)
    se = z.std(ddof=1) / math.sqrt(trials)
    expected = float(exact.scaled_collision_moment(n, 1))
    assert abs(z.mean() - expected) <= 3.0 * se


def test_pass_sampler_tiny_probability():
    # P{max entry + 1 <= 1} = P{identity table} = 1/6 at n = 3
    trials = 10**5
    p = sample_pass_counts(3, trials, SeededStream(8, 0))
    freq = float(np.mean(p == 1))
    sigma = math.sqrt((1 / 6) * (5 / 6) / trials)
    assert abs(freq - 1 / 6) <= 3.0 * sigma


def test_pass_law_frequencies_vs_enumeration():
    # multinomial 5-sigma envelope at one million trials, n <= 7
    from collisort.sorters import enumerate_pass_distribution

    trials = 10**6
    for n in (1, 2, 3, 4, 5, 6, 7):
        law = enumerate_pass_distribution(n)
        samples = sample_pass_counts(n, trials, SeededStream(77, n))
        counts = np.bincount(samples, minlength=n + 1)
        for passes, prob in law.items():
            expected = float(prob) * trials
            sigma = math.sqrt(float(prob) * (1.0 - float(prob)) * trials)
            assert abs(counts[passes] - expected) <= 5.0 * sigma


def test_collision_law_frequencies_vs_exact():
    # multinomial 5-sigma envelope at one million trials:
    # P{C = k} = P{C > k-1} - P{C > k}, with P{C > m+1} = collision_sf(n, m)
    trials = 10**6
    for n in (1, 2, 3, 5):
        samples = sample_collision_counts(n, trials, SeededStream(78, n))
        counts = np.bincount(samples, minlength=n + 2)
        assert counts.sum() == trials and counts[:2].sum() == 0
        for k in range(2, n + 2):
            prob = float(exact.collision_sf_fraction(n, k - 2) - exact.collision_sf_fraction(n, k - 1))
            sigma = math.sqrt(prob * (1.0 - prob) * trials)
            assert abs(counts[k] - prob * trials) <= 5.0 * sigma


def test_empirical_law_ks_below_critical():
    summary = empirical_law("pass", 10**4, 10**5, SeededStream())
    assert summary.ks_exact < ks_critical_1pct(10**5)


def test_empirical_collision_law_ks_below_critical():
    summary = empirical_law("collision", 10**6, 10**5, SeededStream())
    assert summary.ks_exact < ks_critical_1pct(10**5)


def test_batch_collisions_agree_in_law_with_the_literal_process():
    # the relabelled batch sampler against the literal one that keeps the days
    trials = 5000
    critical = 1.63 * math.sqrt(2 / trials)  # two-sample KS at the 1 % level
    for n in (7, 50):
        literal = np.array([sample_first_collision(n, SeededStream(91, sid)) for sid in range(trials)])
        batch = sample_collision_counts(n, trials, SeededStream(92, n))
        grid = np.arange(2, n + 2)
        ks = np.max(np.abs(np.searchsorted(np.sort(literal), grid, side="right")
                           - np.searchsorted(np.sort(batch), grid, side="right"))) / trials
        assert ks < critical


def test_collision_sampler_memory_does_not_grow_with_n():
    import tracemalloc

    n = 10**8
    tracemalloc.start()
    try:
        c = sample_collision_counts(n, 20, SeededStream(5, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert c.size == 20 and c.min() >= 2 and c.max() <= n + 1


def _traced_peak(call) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pass_sampler_draws_groups_in_parts():
    # 10^6 rows: 8 MB each for the maxima and the running maxima, 4 MB of int32
    # row indices; the digit buffers hold one part of 2^14 rows, not every row
    peak = _traced_peak(lambda: sample_pass_counts(10**4, 10**6, SeededStream(5, 0)))
    assert peak < 40 * 2**20


def test_law_tally_grows_with_the_sample_not_with_n():
    n = 10**7
    tally = law_tally("collision", n, 1000, SeededStream(5, 0))
    assert tally.size == tally.nonzero()[0].max() + 1 < n
    assert _traced_peak(lambda: law_tally("collision", n, 1000, SeededStream(5, 0))) < 2**20


def test_summary_pads_a_short_tally():
    # a tally that ends at its largest value summarizes as one padded to the n lattice values
    for kind, n in (("pass", 2), ("pass", 365), ("collision", 100), ("collision", 10**4)):
        tally = law_tally(kind, n, 2000, SeededStream(6, n))
        padded = np.zeros(exact.LATTICES[kind][1] + n, dtype=tally.dtype)
        padded[: tally.size] = tally
        assert summarize_law_tally(kind, n, tally) == summarize_law_tally(kind, n, padded)


def test_groups_drawn_in_parts_see_the_same_values(monkeypatch):
    # one part of 1001 rows against parts of 7 (the last one short); the groups of
    # n = 7 and 12 pack products below 2^32, those of n = 13 and 30 above it
    runs = []
    for part_rows in (2**14, 7):
        monkeypatch.setattr(montecarlo, "_PART_ROWS", part_rows)
        runs.append([(sample_pass_counts(n, 1001, SeededStream(3, n)),
                      *_table_stats(monkeypatch, n, 1001, SeededStream(4, n)))
                     for n in (7, 12, 13, 30)])
    for whole, parted in zip(*runs):
        for a, b in zip(whole, parted):
            assert np.array_equal(a, b)


def test_empirical_law_rayleigh_bias_shrinks():
    s1 = empirical_law("pass", 100, 10**5, SeededStream(31, 0))
    s2 = empirical_law("pass", 10**4, 10**5, SeededStream(31, 0))
    assert s1.ks_rayleigh > s2.ks_rayleigh


def test_empirical_law_degenerate_n1():
    summary = empirical_law("pass", 1, 1000, SeededStream(1, 0))
    assert summary.mean == 0.0
    assert summary.variance == 0.0
    assert summary.ks_exact == 0.0
    assert summary.ks_rayleigh == 1.0  # point mass at 0 vs continuous law


def test_empirical_means_converge_to_rayleigh_mean():
    target = math.sqrt(math.pi / 2.0)
    trials = 10**6
    x_gaps = []
    z_gaps = []
    for n in (100, 1000, 10000):
        p = sample_pass_counts(n, trials, SeededStream(63, n))
        x_gaps.append(abs(((n - p) / math.sqrt(n)).mean() - target))
        c = sample_collision_counts(n, trials, SeededStream(64, n))
        z_gaps.append(abs(((c - 1) / math.sqrt(n)).mean() - target))
    assert x_gaps[0] > x_gaps[1] > x_gaps[2]
    assert z_gaps[0] > z_gaps[1] > z_gaps[2]


# -- pairwise-match summaries ---------------------------------------------------------


def test_pair_match_counts_equal_column_pair_oracle():
    fixed = np.array([
        [0, 1, 2, 3, 4],  # all distinct
        [7, 7, 7, 7, 7],  # all equal: 10 pairs
        [3, 1, 3, 2, 3],  # a triple: 3 pairs
        [5, 2, 5, 2, 9],  # two doubles
        [4, 4, 4, 1, 1],  # a triple and a double
    ])
    rng = np.random.default_rng(3)
    for draws in (fixed, rng.integers(0, 4, size=(500, 9)), rng.integers(0, 50, size=(500, 23)),
                  rng.integers(0, 3, size=(50, 1)),
                  rng.integers(0, 256, size=(500, 40)).astype(np.uint8),
                  rng.integers(0, 365, size=(500, 23)).astype(np.uint16)):
        expected = pair_match_counts_by_columns(draws)
        assert np.array_equal(_pair_match_counts(draws.copy()), expected)
    assert _pair_match_counts(fixed.copy()).tolist() == [0, 10, 3, 2, 4]


def test_pair_match_counts_hold_more_than_2_to_the_31_pairs():
    cols = 65_537
    counts = _pair_match_counts(np.zeros((1, cols), dtype=np.uint8))
    assert counts.tolist() == [cols * (cols - 1) // 2] == [2_147_516_416]


def test_pair_matches_birthday_draws_unchanged():
    # the sort-based counter sees the same draws as the column-pair loop did
    summary = empirical_pair_matches("birthday", 365, 22, 10**6, SeededStream(DEFAULT_SEED))
    assert summary.mean == 0.694491
    assert summary.tv_distance == 0.019017673134597898


def test_pair_matches_inversion_draws_unchanged():
    # one column per support size, over three chunks of rows
    summary = empirical_pair_matches("inversion", 365, 22, 10**5, SeededStream(DEFAULT_SEED))
    assert summary.mean == 0.70841
    assert summary.tv_distance == 0.01952316126937972


def test_pair_matches_birthday_ignore_chunk_size(monkeypatch):
    # uint32 draws carry a half-used 64-bit word from one call to the next, so
    # where a birthday chunk ends does not move the stream; 37-row chunks of 23
    # values, an odd count, end mid-word.  The inversion kind draws one column
    # per chunk, so its stream depends on the rows a chunk holds: it is not
    # chunk-invariant.
    stream = SeededStream(DEFAULT_SEED, 3)
    default = empirical_pair_matches("birthday", 365, 22, 123_457, stream)
    monkeypatch.setattr(montecarlo, "_BIRTHDAY_CHUNK_BYTES", 8 * 23 * 37)
    assert empirical_pair_matches("birthday", 365, 22, 123_457, stream) == default


def test_pair_matches_zero_depth():
    summary = empirical_pair_matches("birthday", 365, 0, 2000, SeededStream(5, 5))
    assert summary.mean == 0.0
    assert summary.tv_distance == 0.0


def test_pair_matches_tv_below_bound():
    summary = empirical_pair_matches("birthday", 365, 22, 10**5, SeededStream(17, 0))
    bound = stein_chen_bound(birthday_family(365, 22)).tv_bound
    assert summary.tv_distance <= tv_limit(bound, summary.tv_se)
    assert summary.reference_mu == pytest.approx(22 * 23 / 730.0, rel=1e-12)


def test_pair_matches_inversion_kind():
    summary = empirical_pair_matches("inversion", 365, 22, 10**4, SeededStream(18, 0))
    assert summary.tv_distance < 0.1
    assert summary.mean == pytest.approx(summary.reference_mu, abs=0.05)


def test_pair_matches_tv_below_bound_large_instance():
    summary = empirical_pair_matches("birthday", 10**4, 100, 10**5, SeededStream(19, 0))
    bound = stein_chen_bound(birthday_family(10**4, 100)).tv_bound
    assert summary.tv_distance <= tv_limit(bound, summary.tv_se)


def test_pair_matches_tv_shrinks_with_n():
    trials = 10**6
    t1 = empirical_pair_matches("birthday", 4000, 22, trials, SeededStream(9, 0))
    t2 = empirical_pair_matches("birthday", 16000, 22, trials, SeededStream(9, 1))
    assert t1.tv_distance / t2.tv_distance >= 2.0


def test_pair_matches_resource_guard():
    with pytest.raises(ResourceBoundError):
        empirical_pair_matches("birthday", 10**6, 10**5, 10**6, SeededStream())


def test_pair_match_tally_cells_count_toward_the_bound(monkeypatch):
    # (365, 2999) at 1000 trials: 3.0e6 draws, but 1 + C(3000, 2) = 4,498,501 tally cells
    monkeypatch.setattr(montecarlo, "_MAX_DRAWS", 4_000_000)
    with pytest.raises(ResourceBoundError,
                       match=r"n=365 with trials=1000 needs about 4498501 tally cells"):
        empirical_pair_matches("birthday", 365, 2999, 1000, SeededStream())
    # (365, 22) at 200,000 trials: 4.6e6 draws, but only 254 tally cells
    with pytest.raises(ResourceBoundError,
                       match=r"n=365 with trials=200000 needs about 4600000 random values"):
        empirical_pair_matches("birthday", 365, 22, 200_000, SeededStream())


def test_samplers_refuse_before_allocating():
    for call in (lambda: sample_pass_counts(10**11, 10**5, SeededStream()),
                 lambda: sample_collision_counts(10**11, 10**5, SeededStream()),
                 lambda: law_tally("pass", 10**11, 1, SeededStream()),
                 lambda: law_tally("collision", 10**11, 1, SeededStream()),
                 lambda: empirical_opcounts(10**11, 10, SeededStream())):
        with pytest.raises(ResourceBoundError, match=r"n=100000000000 with trials=\d+"):
            call()


# -- opcount expectations ----------------------------------------------------------


def test_opcounts_n2_zero_reduction():
    counters = empirical_opcounts(2, 100, SeededStream(3, 3))
    assert counters["comparison_reduction"].mean == 0.0


def test_opcounts_small_n_variant_flags_match_exact_passes():
    n, trials = 6, 2000
    counters = empirical_opcounts(n, trials, SeededStream(21, 0))
    assert counters["flag_writes_early_exit"].sample_count == trials
    # at small n the variant's mean flag writes agree with 2 E(P) - 1
    expected_passes = n - math.sqrt(n) * float(exact.scaled_pass_moment(n, 1))
    s = counters["flag_writes_variant"]
    assert abs(s.mean - (2.0 * expected_passes - 1.0)) <= 5.0 * s.se_mean


def test_opcounts_means_match_expansions_at_n30():
    # means stay consistent with the lemma-derived expectations
    from collisort.asymptotics import expected_opcount_deltas

    n, trials = 30, 4000
    counters = empirical_opcounts(n, trials, SeededStream(12, 0))
    deltas = expected_opcount_deltas(n)
    for name, ref in (
        ("comparison_reduction", deltas.comparison_reduction),
        ("flag_writes_variant", deltas.flag_writes_variant),
    ):
        s = counters[name]
        assert abs(s.mean - ref) <= 5.0 * s.se_mean + 1.0


def test_exact_ks_values_decrease():
    for kind in ("pass", "collision"):
        values = [exact_law_ks_vs_rayleigh(kind, n) for n in (100, 1000, 10000)]
        assert values[0] > values[1] > values[2]
        for v, n in zip(values, (100, 1000, 10000)):
            assert v <= 2.5 / math.sqrt(n)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: sample_first_collision(0, SeededStream()), id="first-collision-n0"),
    pytest.param(lambda: sample_inversion_table(0, SeededStream()), id="inversion-table-n0"),
    pytest.param(lambda: exact_law_ks_vs_rayleigh("birthday", 10), id="ks-kind"),
])
def test_montecarlo_refuses_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
