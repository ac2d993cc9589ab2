"""Stein-Chen bound machinery against enumeration and direct-summation oracles."""

import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from collisort import sorters
from collisort.exact import collision_sf_fraction, pass_cdf_fraction
from collisort.poisson_approx import (
    ENUM_BIRTHDAY_N,
    ENUM_INVERSION_N,
    DissociatedFamily,
    birthday_family,
    inversion_family,
    match_count_law,
    match_family,
    poisson_limit_functionals,
    stein_chen_bound,
    tv_distance_to_poisson,
    tv_exact_enumerated,
)
from collisort.sorters import ResourceBoundError
from oracles import (
    cross_means_direct,
    family_pairs,
    match_count_law_enumerated,
    ordered_triple_sum,
    pair_mean,
    triple_mean,
)


# -- family moments ---------------------------------------------------------------


def test_birthday_family_means():
    supports = birthday_family(365, 22).supports
    assert len(supports) == 23
    assert pair_mean(supports, 1, 5) == pytest.approx(1.0 / 365.0)
    assert triple_mean(supports, 1, 5, 9) == pytest.approx(1.0 / 365.0**2)


def test_birthday_family_empty():
    report = stein_chen_bound(birthday_family(365, 0))
    assert report.mu == 0.0
    assert report.tv_bound == 0.0


def test_birthday_means_by_enumeration():
    # independence oracle: average the indicator over every tuple
    for n in (2, 4, 6):
        supports = birthday_family(n, 2).supports
        pair_hits = sum(1 for t in product(range(n), repeat=2) if t[0] == t[1])
        assert pair_mean(supports, 1, 2) == pytest.approx(pair_hits / n**2)
        triple_hits = sum(
            1 for t in product(range(n), repeat=3) if t[0] == t[1] == t[2]
        )
        assert triple_mean(supports, 1, 2, 3) == pytest.approx(triple_hits / n**3)


def test_inversion_family_pair_mean():
    supports = inversion_family(3, 2).supports
    # direct summation: entries uniform on {0,1,2} and {0,1}
    assert pair_mean(supports, 1, 2) == pytest.approx(1.0 / 3.0)


def test_inversion_family_means_by_enumeration():
    n, m = 5, 3
    supports = inversion_family(n, m).supports
    sizes = [n - i + 1 for i in range(1, m + 2)]
    states = list(product(*[range(s) for s in sizes]))
    total = len(states)
    for i, j in ((1, 2), (1, 4), (2, 3)):
        hits = sum(1 for s in states if s[i - 1] == s[j - 1])
        assert pair_mean(supports, i, j) == pytest.approx(hits / total)
    for i, j, k in ((1, 2, 3), (2, 1, 4), (4, 2, 3)):
        hits = sum(1 for s in states if s[i - 1] == s[j - 1] and s[i - 1] == s[k - 1])
        assert triple_mean(supports, i, j, k) == pytest.approx(hits / total)


def test_family_supports_must_be_positive_and_non_increasing():
    for supports in ((3, 0), (0,), (2, 3), (5, 4, 4, 5), (-1, -2)):
        with pytest.raises(ValueError):
            DissociatedFamily(supports)
    assert DissociatedFamily((5, 5, 3, 1)).supports == (5, 5, 3, 1)
    assert birthday_family(7, 3).supports == (7, 7, 7, 7)
    assert inversion_family(7, 3).supports == (7, 6, 5, 4)


def test_inversion_family_validation():
    with pytest.raises(ValueError):
        inversion_family(4, 4)  # m+1 > n


# -- Stein-Chen bound ---------------------------------------------------------------


def _direct_bound_oracle(fam: DissociatedFamily) -> float:
    """Independent re-implementation of the bound display by direct loops."""
    s = fam.supports
    pairs = family_pairs(s)
    mu = sum(pair_mean(s, i, j) for i, j in pairs)
    if mu == 0.0:
        return 0.0
    total = 0.0
    for i, j in pairs:
        e = pair_mean(s, i, j)
        total += e * e
        for l, r in pairs:
            if (l, r) == (i, j) or not ({l, r} & {i, j}):
                continue
            total += e * pair_mean(s, l, r)
            # joint moment of the two overlapping indicators: shared index
            shared = ({i, j} & {l, r}).pop()
            others = ({i, j} | {l, r}) - {shared}
            a, b = sorted(others)
            total += triple_mean(s, shared, a, b)
    return (1.0 - math.exp(-mu)) / mu * total


def test_bound_matches_direct_oracle_birthday():
    fam = birthday_family(365, 22)
    report = stein_chen_bound(fam)
    assert report.mu == pytest.approx(22 * 23 / (2 * 365.0), rel=1e-12)
    assert report.tv_bound == pytest.approx(_direct_bound_oracle(fam), rel=1e-10)


def test_bound_matches_direct_oracle_inversion():
    fam = inversion_family(30, 6)
    report = stein_chen_bound(fam)
    assert report.tv_bound == pytest.approx(_direct_bound_oracle(fam), rel=1e-10)


def test_cross_means_rearrangement_identity():
    families = [birthday_family(7, 4)]
    families += [family(n, t - 1) for t in range(1, 41)
                 for family, n in ((birthday_family, 50), (inversion_family, 40))]
    for fam in families:
        report = stein_chen_bound(fam)
        assert report.cross_means_sum == pytest.approx(cross_means_direct(fam.supports), rel=1e-12)


@pytest.mark.parametrize("kind, n, m", [
    ("birthday", 2, 1), ("birthday", 365, 22), ("birthday", 1000, 1000),
    ("birthday", 10**4, 100), ("birthday", 10**4, 2000),
    ("inversion", 2, 1), ("inversion", 365, 22), ("inversion", 1000, 999),
    ("inversion", 2000, 1000), ("inversion", 2000, 1999),
])
def test_mu_within_32_ulp_of_fraction_sum(kind, n, m):
    # mu = sum_i (t-1-i)/s_i: the pairs {i, j}, j > i, each have mean 1/s_i
    supports = match_family(kind, n, m).supports
    t = len(supports)
    exact = sum(Fraction(t - 1 - i, s) for i, s in enumerate(supports))
    mu = stein_chen_bound(match_family(kind, n, m)).mu
    assert abs(Fraction(mu) - exact) <= 32 * Fraction(math.ulp(float(exact)))


def test_bound_shrinks_with_year_length():
    # at fixed m the squared-mean, cross-mean, and triple sums all scale
    # as 1/n^2 while the (1-e^-mu)/mu factor drifts to 1, so quadrupling
    # n shrinks the bound by slightly less than 16
    b1 = stein_chen_bound(birthday_family(1000, 22)).tv_bound
    b2 = stein_chen_bound(birthday_family(4000, 22)).tv_bound
    assert 12.0 <= b1 / b2 <= 18.0


def test_triple_sum_aggregates_match_literal_loop():
    for fam in (
        birthday_family(365, 10),
        birthday_family(6, 5),
        inversion_family(30, 9),
        inversion_family(8, 6),
    ):
        assert stein_chen_bound(fam).hypothesis_triple == pytest.approx(
            ordered_triple_sum(fam.supports), rel=1e-12)


# -- limit-hypothesis functionals -----------------------------------------------------


def test_functionals_empty_family():
    assert poisson_limit_functionals(birthday_family(10, 0)) == (0.0, 0.0)


def test_functionals_vanish_birthday():
    values = [
        poisson_limit_functionals(birthday_family(n, int(math.isqrt(n))))
        for n in (10**2, 10**4, 10**6)
    ]
    assert values[0][0] > values[1][0] > values[2][0]
    assert values[0][1] > values[1][1] > values[2][1]


def test_functionals_vanish_inversion():
    values = [
        poisson_limit_functionals(inversion_family(n, int(math.isqrt(n))))
        for n in (10**2, 10**3, 10**4)
    ]
    assert values[0][0] > values[1][0] > values[2][0]
    assert values[0][1] > values[1][1] > values[2][1]


def _match_count_variance(fam: DissociatedFamily) -> float:
    """Var of the indicator sum from the family moments.

    sum pm(1-pm) plus the ordered overlapping covariances, which equal
    the triple sum minus the ordered cross-mean sum; disjoint pairs are
    independent by dissociation.
    """
    report = stein_chen_bound(fam)
    s = fam.supports
    bernoulli_var = sum(pair_mean(s, i, j) * (1.0 - pair_mean(s, i, j)) for i, j in family_pairs(s))
    return bernoulli_var + report.hypothesis_triple - report.cross_means_sum


def test_moments_converge_to_poisson_limit():
    # with m chosen so the pair-mean sum tends to lambda = 1, both the mean
    # and the variance of the match count approach 1 for both families
    lam = 1.0
    for family_fn in (birthday_family, inversion_family):
        mean_gaps = []
        var_gaps = []
        for n in (10**2, 10**3, 10**4, 10**5):
            m = round((-1.0 + math.sqrt(1.0 + 8.0 * lam * n)) / 2.0)
            fam = family_fn(n, m)
            mean_gaps.append(abs(stein_chen_bound(fam).mu - lam))
            var_gaps.append(abs(_match_count_variance(fam) - lam))
        assert mean_gaps[0] < 0.1 and var_gaps[0] < 0.1
        assert mean_gaps[3] < mean_gaps[0] and var_gaps[3] < var_gaps[0]
        assert max(mean_gaps[3], var_gaps[3]) < 0.01


def test_match_count_variance_against_enumeration():
    # exact law oracle for the variance formula on a small instance
    for kind, fam in (("birthday", birthday_family(6, 4)), ("inversion", inversion_family(7, 4))):
        law = match_count_law(kind, 6 if kind == "birthday" else 7, 4)
        mean = sum(k * p for k, p in law.items())
        var = sum((k - mean) ** 2 * p for k, p in law.items())
        assert _match_count_variance(fam) == pytest.approx(var, rel=1e-10)


# -- exact TV on enumerable instances ---------------------------------------------------


def test_tv_exact_below_bound_birthday():
    tv = tv_exact_enumerated("birthday", 6, 3)
    bound = stein_chen_bound(birthday_family(6, 3)).tv_bound
    assert 0.0 < tv <= bound


def test_tv_exact_below_bound_inversion():
    tv = tv_exact_enumerated("inversion", 6, 3)
    bound = stein_chen_bound(inversion_family(6, 3)).tv_bound
    assert 0.0 < tv <= bound


def test_tv_exact_zero_matches():
    assert tv_exact_enumerated("birthday", 5, 0) == 0.0


def test_tv_resource_bounds():
    with pytest.raises(ResourceBoundError):
        match_count_law("birthday", 7, 3)
    with pytest.raises(ResourceBoundError):
        match_count_law("inversion", 9, 4)


def test_enumeration_limits_have_one_owner():
    # the birthday match law and the birthday survival oracle walk the same space
    assert ENUM_BIRTHDAY_N == sorters.ENUM_BIRTHDAY_LIMIT
    for kind, limit in (("birthday", ENUM_BIRTHDAY_N), ("inversion", ENUM_INVERSION_N)):
        match_count_law(kind, limit, 2)
        message = f"^{kind} enumeration bounded at n <= {limit}$"
        with pytest.raises(ResourceBoundError, match=message):
            match_count_law(kind, limit + 1, 2)
    with pytest.raises(ValueError, match="^unknown kind 'x'$"):
        match_count_law("x", 3, 1)


def test_match_count_law_is_probability():
    law = match_count_law("birthday", 5, 4)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(v > 0 for v in law.values())


def test_match_count_laws_put_the_no_match_product_at_zero():
    # P(W = 0) is the chance that the m + 1 entries are all distinct: the birthday
    # survival product, and for inversion-table entries the pass CDF; the tally
    # over the states is the same quotient, to the last bit
    for n in range(1, ENUM_BIRTHDAY_N + 1):
        for m in range(n + 1):
            law = match_count_law("birthday", n, m)
            assert law.get(0, 0.0) == float(collision_sf_fraction(n, m)), (n, m)
    for n in range(1, ENUM_INVERSION_N + 1):
        for m in range(n):
            law = match_count_law("inversion", n, m)
            assert law.get(0, 0.0) == float(pass_cdf_fraction(n, m)), (n, m)


def test_match_count_law_sweep_equals_enumeration():
    # every enumerable instance: the sweep's quotients against the np.indices
    # layout of the whole product space, key for key and bit for bit
    instances = [("birthday", n, m) for n in range(1, ENUM_BIRTHDAY_N + 1) for m in range(n + 1)]
    instances += [("inversion", n, m) for n in range(1, ENUM_INVERSION_N + 1) for m in range(n)]
    assert len(instances) == 63
    for kind, n, m in instances:
        law = match_count_law(kind, n, m)
        assert law == match_count_law_enumerated(match_family(kind, n, m).supports), (kind, n, m)
        assert list(law) == sorted(law)


@pytest.mark.parametrize("args, error, message", [
    (("birthday", 0, 3), ValueError, "need n >= 1, got n=0"),
    (("inversion", 0, 0), ValueError, "need n >= 1, got n=0"),
    (("birthday", ENUM_BIRTHDAY_N + 1, 2), ResourceBoundError,
     f"birthday enumeration bounded at n <= {ENUM_BIRTHDAY_N}"),
    (("inversion", ENUM_INVERSION_N + 1, 2), ResourceBoundError,
     f"inversion enumeration bounded at n <= {ENUM_INVERSION_N}"),
    (("birthday", 3, 5), ValueError, "need m <= n"),
    (("inversion", 4, 5), ValueError, "need m <= n"),
    (("inversion", 4, 4), ValueError, "inversion family needs m+1 <= n, got m=4, n=4"),
    (("birthday", 3, -1), ValueError, "need n >= 1 and m >= 0"),
    (("x", 3, 1), ValueError, "unknown kind 'x'"),
])
def test_match_count_law_refusals(args, error, message):
    with pytest.raises(error) as info:
        match_count_law(*args)
    assert type(info.value) is error and str(info.value) == message


def test_match_count_law_memory():
    # the sweep keeps one integer count per (entries valued, matches) state,
    # at most 8 x 22 of them for birthday (6, 6), and never lays out the
    # 6^7 = 279,936 states of the product space
    tracemalloc.start()
    try:
        match_count_law("birthday", 6, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_tv_distance_helper():
    assert tv_distance_to_poisson({0: 1.0}, 0.0) == 0.0
    # point mass at 0 vs Poisson(1): TV = 1 - e^-1
    assert tv_distance_to_poisson({0: 1.0}, 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-12
    )


@pytest.mark.parametrize("call", [
    pytest.param(lambda: match_family("x", 3, 1), id="family-kind"),
    pytest.param(lambda: match_count_law("x", 3, 1), id="law-kind"),
    pytest.param(lambda: match_count_law("birthday", 3, 5), id="law-m-over-n"),
    pytest.param(lambda: match_count_law("birthday", 0, 0), id="law-birthday-n-0"),
    pytest.param(lambda: match_count_law("inversion", 0, 0), id="law-inversion-n-0"),
    pytest.param(lambda: tv_distance_to_poisson({}, -1), id="tv-negative-mu"),
])
def test_poisson_approx_refuses_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
