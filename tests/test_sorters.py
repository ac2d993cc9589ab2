"""Instrumented sorts, inversion tables, and exhaustive enumerations."""

import math
from dataclasses import fields
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisort.exact import collision_sf_fraction, pass_cdf_fraction
from collisort.sorters import (
    VARIANTS,
    OpCounts,
    ResourceBoundError,
    all_permutations,
    bubble_sort_instrumented,
    enumerate_collision_survival,
    enumerate_pass_distribution,
    equal_pair_count,
    inversion_table,
    inversion_tables,
    opcounts_from_stats,
    pass_count,
    pass_counts,
    pass_trace,
    passes_match_inversion_max,
    permutation_from_inversion_table,
    sort_rows,
)

RANDOM_CASES_N200 = 2000  # randomized correctness coverage beyond exhaustive n<=8


def small_permutations(max_n=8):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )


# -- pass counts and traces ----------------------------------------------------


def test_pass_count_examples():
    assert pass_count((1, 2, 3, 4, 5)) == 1
    assert pass_count((2, 3, 1)) == 3  # pass1 -> (2,1,3), pass2 -> (1,2,3)
    assert pass_count((3, 1, 2)) == 2  # pass1 -> (1,2,3)


def test_pass_trace_structure():
    trace = pass_trace((2, 3, 1))
    assert trace[0] == (2, 3, 1)
    assert trace[1] == (2, 1, 3)
    assert trace[2] == (1, 2, 3)
    assert trace[-1] == (1, 2, 3)
    assert len(trace) == pass_count((2, 3, 1))


def test_inversion_table_examples():
    assert inversion_table((1, 2, 3)) == (0, 0, 0)
    assert inversion_table((3, 2, 1)) == (2, 1, 0)
    assert inversion_table((2, 3, 1)) == (2, 0, 0)


def test_permutation_from_inversion_table_examples():
    assert permutation_from_inversion_table((0, 0, 0)) == (1, 2, 3)
    assert permutation_from_inversion_table((2, 1, 0)) == (3, 2, 1)
    assert permutation_from_inversion_table((2, 0, 0)) == (2, 3, 1)


def test_inversion_table_validation():
    with pytest.raises(ValueError):
        permutation_from_inversion_table((3, 0, 0))  # entry 1 exceeds n-1
    with pytest.raises(ValueError):
        inversion_table((1, 1, 2))


@settings(max_examples=200)
@given(small_permutations(9))
def test_inversion_table_roundtrip(p):
    p = tuple(p)
    assert permutation_from_inversion_table(inversion_table(p)) == p


def test_bijection_exhaustive_small():
    for n in range(1, 8):
        for p in all_permutations(n):
            assert permutation_from_inversion_table(inversion_table(p)) == p


def test_passes_match_inversion_max_examples():
    assert passes_match_inversion_max((1, 2, 3))
    assert passes_match_inversion_max((2, 3, 1))


def test_passes_match_inversion_max_exhaustive_n7():
    for n in range(1, 8):
        assert all(passes_match_inversion_max(p) for p in all_permutations(n))


# -- instrumented sorts ---------------------------------------------------------


def test_plain_identity_counts():
    out, counts = bubble_sort_instrumented((1, 2, 3, 4, 5), "plain")
    assert out == (1, 2, 3, 4, 5)
    assert counts.comparisons == 10
    assert counts.swaps == 0
    assert counts.bool_assignments == 0


def test_early_exit_example_231():
    out, counts = bubble_sort_instrumented((2, 3, 1), "early_exit")
    assert out == (1, 2, 3)
    assert counts.passes == 3
    assert counts.swaps == 2
    # flag writes: one init per pass plus one set per swap
    assert counts.bool_assignments == 3 + 2


def test_all_variants_sort_reverse():
    for variant in ("plain", "early_exit", "early_exit_variant"):
        out, _ = bubble_sort_instrumented((3, 2, 1), variant)
        assert out == (1, 2, 3)


def test_variant_validation():
    with pytest.raises(ValueError):
        bubble_sort_instrumented((1, 2, 3), "bogus")
    with pytest.raises(ValueError):
        bubble_sort_instrumented((1, 1, 2), "plain")


def test_permutation_entries_must_be_ints():
    # floats and bools compare and sort like ints, so they must be refused
    for seq in ((2.0, 1.0), (2, True), (1.0,), (True,)):
        for fn in (bubble_sort_instrumented, pass_count, inversion_table):
            with pytest.raises(ValueError, match="must be ints"):
                fn(seq)


def test_exhaustive_small_counts_match_stat_identities():
    for n in range(1, 9):
        for p in all_permutations(n):
            passes = pass_count(p)
            inversions = sum(inversion_table(p))
            for variant in ("plain", "early_exit", "early_exit_variant"):
                _, counts = bubble_sort_instrumented(p, variant)
                assert counts == opcounts_from_stats(n, passes, inversions, variant)


@pytest.mark.parametrize("n", [9, 16, 24])
def test_sampled_counts_match_stat_identities(n):
    # beyond exhaustive n: the (max + 1, sum) of a sampled inversion table give
    # exactly the counts the instrumented sorts make on its permutation
    rng = np.random.default_rng(n)
    for table in rng.integers(0, np.arange(n, 0, -1), size=(300, n)).tolist():
        p = permutation_from_inversion_table(table)
        for variant in ("plain", "early_exit", "early_exit_variant"):
            _, counts = bubble_sort_instrumented(p, variant)
            assert counts == opcounts_from_stats(n, max(table) + 1, sum(table), variant)


def test_random_large_correctness():
    rng = np.random.default_rng(20260808)
    target = tuple(range(1, 201))
    for _ in range(RANDOM_CASES_N200):
        p = tuple(int(v) for v in rng.permutation(200) + 1)
        for variant in ("plain", "early_exit", "early_exit_variant"):
            out, counts = bubble_sort_instrumented(p, variant)
            assert out == target
            assert counts.swaps <= counts.comparisons


# -- batch forms against the scalar reference -------------------------------------


def batch_rows(n):
    """Every permutation of n <= 7, or 300 seeded permutations of larger n."""
    if n <= 7:
        return np.array(list(all_permutations(n)))
    rng = np.random.default_rng(n)
    return np.array([rng.permutation(n) + 1 for _ in range(300)])


BATCH_SIZES = [1, 2, 3, 4, 5, 6, 7, 24]


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_sort_rows_matches_reference(n):
    rows = batch_rows(n)
    for variant in VARIANTS:
        out, counts = sort_rows(rows, variant)
        ref = [bubble_sort_instrumented(p, variant) for p in rows.tolist()]
        assert out.tolist() == [list(p) for p, _ in ref]
        for f in fields(OpCounts):
            assert getattr(counts, f.name).tolist() == [getattr(c, f.name) for _, c in ref]


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_pass_counts_and_inversion_tables_match_reference(n):
    rows = batch_rows(n)
    perms = rows.tolist()
    assert pass_counts(rows).tolist() == [pass_count(p) for p in perms]
    assert inversion_tables(rows).tolist() == [list(inversion_table(p)) for p in perms]


def test_batch_forms_reject_non_permutation_rows():
    not_integer = (np.array([[2.0, 1.0]]), np.array([[True, False]]))
    not_permutation = (np.array([[1, 2], [1, 1]]), np.array([[0, 1]]), np.array([[1, 3]]))
    not_rows = (np.array([1, 2]), np.zeros((1, 0), int))
    for fn in (sort_rows, pass_counts, inversion_tables):
        for rows in not_integer:
            with pytest.raises(ValueError, match="must be integers"):
                fn(rows)
        for rows in not_permutation:
            with pytest.raises(ValueError, match="not a permutation"):
                fn(rows)
        for rows in not_rows:
            with pytest.raises(ValueError, match="2-D array"):
                fn(rows)
    with pytest.raises(ValueError, match="unknown variant"):
        sort_rows(np.array([[1, 2]]), "bogus")


# -- enumeration oracles ---------------------------------------------------------


def test_enumerate_pass_distribution_tiny():
    assert enumerate_pass_distribution(1) == {1: Fraction(1)}
    assert enumerate_pass_distribution(3) == {
        1: Fraction(1, 6),
        2: Fraction(3, 6),
        3: Fraction(2, 6),
    }


def test_enumerate_pass_distribution_matches_cdf_n7():
    law = enumerate_pass_distribution(7)
    for m in range(0, 7):
        cdf = sum(p for passes, p in law.items() if passes <= 7 - m)
        assert cdf == pass_cdf_fraction(7, m)


def test_enumerate_pass_distribution_resource_bound():
    with pytest.raises(ResourceBoundError):
        enumerate_pass_distribution(11)


def test_enumerate_collision_survival_tiny():
    assert enumerate_collision_survival(2, 1) == Fraction(1, 2)
    assert enumerate_collision_survival(4, 0) == Fraction(1)
    assert enumerate_collision_survival(6, 3) == Fraction(60, 216)


def test_enumerate_collision_survival_matches_product():
    for n in range(1, 7):
        for m in range(0, n + 1):
            assert enumerate_collision_survival(n, m) == collision_sf_fraction(n, m)


def test_enumerate_collision_survival_resource_bound():
    with pytest.raises(ResourceBoundError):
        enumerate_collision_survival(7, 3)


# -- pairwise-match statistic -----------------------------------------------------


def test_equal_pair_count_examples():
    assert equal_pair_count((1, 2, 3)) == 0
    assert equal_pair_count((1, 1, 1)) == 3
    assert equal_pair_count((1, 2, 1, 2, 3)) == 2
    with pytest.raises(ValueError):
        equal_pair_count(())


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12))
def test_equal_pair_count_bruteforce(values):
    brute = sum(
        1
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if values[i] == values[j]
    )
    assert equal_pair_count(values) == brute


# -- uniformity transport and distinction identities -------------------------------


def test_uniform_tables_map_to_uniform_permutations():
    # each permutation of n is hit exactly once across the table product space
    for n in range(1, 7):
        seen = {}
        ranges = [range(n - i + 1) for i in range(1, n + 1)]
        for table in product(*ranges):
            p = permutation_from_inversion_table(table)
            seen[p] = seen.get(p, 0) + 1
        assert len(seen) == math.factorial(n)
        assert set(seen.values()) == {1}


def test_pass_distinction_identity():
    # P{P <= n-m} equals the fraction of inversion tables whose first m+1
    # entries are all distinct
    for n in range(2, 8):
        for m in range(0, n):
            ranges = [range(n - i + 1) for i in range(1, m + 2)]
            total = 0
            distinct = 0
            for prefix in product(*ranges):
                total += 1
                if len(set(prefix)) == m + 1:
                    distinct += 1
            assert Fraction(distinct, total) == pass_cdf_fraction(n, m)
