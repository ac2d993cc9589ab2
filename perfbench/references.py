"""Independent reference values for checking collisort's outputs.

Nothing here imports collisort or shares code with it.  Short products are
exact ``fractions.Fraction`` values; exponentials of exact rationals go
through ``decimal`` at 60 digits; the long survival sequences (n up to
about 10^6) are floats built from ``math.log1p`` with a compensated running
sum, accurate to about 1e-13 relative.

Run ``python3 perfbench/references.py`` to test the references against
textbook and paper values and against brute-force enumeration.
"""

from __future__ import annotations

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations, product

SURVIVAL_FLOOR = 1e-40  # sequences stop once the survival drops below this
FLOAT_REL_TOL = 1e-11  # agreement of HPReal values with the float references
DEC_DIGITS_REL = Fraction(5, 10**25)  # rounding of a 25-digit decimal string


# ---------------------------------------------------------------------------
# exact products (Fraction)
# ---------------------------------------------------------------------------


def collision_sf_exact(n, m: int) -> Fraction:
    """prod_{k=1..m} (1 - k/n) for a rational year length n."""
    n = Fraction(n)
    prod = Fraction(1)
    for k in range(1, m + 1):
        prod *= 1 - k / n
    return prod


def pass_cdf_exact(n: int, m: int) -> Fraction:
    """P{P_n <= n-m} = prod_{k=1..m} (n-m)/(n-m+k)."""
    prod = Fraction(1)
    for k in range(1, m + 1):
        prod *= Fraction(n - m, n - m + k)
    return prod


def log_series_exact(n, m: int, depth: int, alternating: bool) -> Fraction:
    """The log series of the products truncated after ``depth`` terms.

    Collision side (base n): -sum_j S_j(m) / (j n^j).
    Pass side (base n - m):   sum_j (-1)^j S_j(m) / (j (n-m)^j).
    S_j(m) = 1^j + ... + m^j is summed directly.
    """
    base = Fraction(n) - m if alternating else Fraction(n)
    total = Fraction(0)
    for j in range(1, depth + 1):
        term = Fraction(sum(i**j for i in range(1, m + 1)), j) / base**j
        total += term if alternating and j % 2 == 0 else -term
    return total


def exp_exact(x: Fraction) -> Fraction:
    """exp of a rational to 60 significant digits, as a Fraction."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Fraction((Decimal(x.numerator) / Decimal(x.denominator)).exp())


def within_err(value_dec: str, err: float, ref: Fraction, extra_rel: float = 0.0) -> bool:
    """|value - ref| <= err plus the rounding of the 25-digit decimal string.

    ``extra_rel`` widens the allowance by a relative amount for values whose
    method has a documented truncation beyond ``err``.
    """
    value = Fraction(Decimal(value_dec))
    allowance = Fraction(err) + (DEC_DIGITS_REL + Fraction(extra_rel)) * abs(ref)
    return abs(value - ref) <= allowance


# ---------------------------------------------------------------------------
# long survival sequences (float)
# ---------------------------------------------------------------------------


def _survival(n: int, log_ratio, floor: float) -> list[float]:
    out = [1.0]
    s = c = 0.0  # Neumaier-compensated running log
    for m in range(n):
        t = log_ratio(m)
        if t == -math.inf:
            out.append(0.0)
            break
        u = s + t
        c += (s - u) + t if abs(s) >= abs(t) else (t - u) + s
        s = u
        r = math.exp(s + c)
        out.append(r)
        if r < floor:
            break
    return out


def pass_survival(n: int, floor: float = SURVIVAL_FLOOR) -> list[float]:
    """rho(m) = P{P_n <= n-m} = P{n - P_n >= m}, m = 0, 1, ...; stops below floor."""
    return _survival(n - 1, lambda m: (m + 1) * math.log1p(-1.0 / (n - m)), floor)


def collision_survival(n: int, floor: float = SURVIVAL_FLOOR) -> list[float]:
    """s(m) = P{C_n > m+1} = prod_{k<=m} (1 - k/n), m = 0, 1, ...; stops below floor."""
    return _survival(n, lambda m: math.log1p(-(m + 1) / n) if m + 1 < n else -math.inf, floor)


def _abel_moment(surv: list[float], k: int, n: int, first: int) -> float:
    """E[Y^k] / n^(k/2) for Y >= 0 with P{Y >= y} = surv[y - first], y >= 1."""
    terms = [(y**k - (y - 1) ** k) * surv[y - first] for y in range(1, len(surv) + first)]
    return math.fsum(terms) / n ** (k / 2.0)


def scaled_pass_moment(n: int, k: int, rho: list[float] | None = None) -> float:
    """E[((n - P_n)/sqrt n)^k]."""
    return _abel_moment(rho or pass_survival(n), k, n, first=0)


def scaled_collision_moment(n: int, k: int, sf: list[float] | None = None) -> float:
    """E[((C_n - 1)/sqrt n)^k]; P{C - 1 >= j} = s(j - 1)."""
    return _abel_moment(sf or collision_survival(n), k, n, first=1)


def expected_collision_count(n: int) -> float:
    """E[C_n] = 1 + sum_{m >= 0} P{C_n > m+1}."""
    return 1.0 + math.fsum(collision_survival(n))


def _rayleigh_cdf(x: float) -> float:
    return -math.expm1(-x * x / 2.0)


def pass_cdf_lattice(n: int, rho: list[float] | None = None) -> list[float]:
    """F(d) = P{n - P_n <= d} for d = 0, 1, ... (1.0 past the sequence)."""
    rho = rho or pass_survival(n)
    return [1.0 - r for r in rho[1:]]


def collision_cdf_lattice(n: int, sf: list[float] | None = None) -> list[float]:
    """F(j) = P{C_n - 1 <= j} at index j - 1 for j = 1, 2, ..."""
    sf = sf or collision_survival(n)
    return [1.0 - s for s in sf[1:]]


def ks_rayleigh(kind: str, n: int, seq: list[float] | None = None) -> float:
    """max over lattice jump points of |F_exact - F_Rayleigh| (right values).

    Pass: points x = d/sqrt n, d = 0, 1, ...; collision: z = j/sqrt n, j >= 1.
    """
    sq = math.sqrt(n)
    if kind == "pass":
        cdf, first = pass_cdf_lattice(n, seq), 0
    else:
        cdf, first = collision_cdf_lattice(n, seq), 1
    return max(abs(f - _rayleigh_cdf((i + first) / sq)) for i, f in enumerate(cdf))


def scaled_pass_charfn(n: int, t: float, rho: list[float] | None = None) -> complex:
    """E exp(i t X), X = (n - P_n)/sqrt n, from the lattice pmf; the last
    point keeps the remaining mass."""
    rho = rho or pass_survival(n)
    sq = math.sqrt(n)
    pmf = [rho[d] - rho[d + 1] for d in range(len(rho) - 1)] + [rho[-1]]
    re = math.fsum(p * math.cos(t * d / sq) for d, p in enumerate(pmf))
    im = math.fsum(p * math.sin(t * d / sq) for d, p in enumerate(pmf))
    return complex(re, im)


# ---------------------------------------------------------------------------
# pair-match laws, operation counts
# ---------------------------------------------------------------------------


def pair_match_law(kind: str, n: int, m: int) -> tuple[float, float]:
    """(mean, variance) of the equal-pair count among the first m+1 variables.

    Birthday: m+1 uniform draws on n days; the pair indicators are pairwise
    independent.  Inversion: entry i uniform on {0..n-i} (support
    s_i = n-i+1); pairs sharing one index are correlated through
    P{e_a = e_b = e_c} = min(s) / (s_a s_b s_c).
    """
    pairs = (m + 1) * m // 2
    if kind == "birthday":
        p = Fraction(1, n)
        return float(pairs * p), float(pairs * p * (1 - p))
    s = [n - i + 1 for i in range(1, m + 2)]
    mean = sum(Fraction(1, max(s[a], s[b])) for a in range(m + 1) for b in range(a + 1, m + 1))
    var = 0.0
    for a in range(m + 1):
        for b in range(m + 1):
            if b == a:
                continue
            p_ab = 1.0 / max(s[a], s[b])
            if b > a:
                var += p_ab * (1.0 - p_ab)
            for c in range(m + 1):
                if c in (a, b):
                    continue
                p_ac = 1.0 / max(s[a], s[c])
                var += min(s[a], s[b], s[c]) / (s[a] * s[b] * s[c]) - p_ab * p_ac
    return float(mean), var


def opcount_expectations(n: int) -> dict[str, tuple[float, float, float]]:
    """Exact mean and a variance interval of the early-exit operation deltas.

    With D = n - P: comparison reduction D(D-1)/2, early-exit flag writes
    P + I (I total inversions, mean n(n-1)/4), single-set variant flag
    writes 2P - 1.  Var(P + I) is bracketed by (sd_I -+ sd_P)^2.
    Returns name -> (mean, variance low, variance high).
    """
    if n <= 64:
        rho = [float(pass_cdf_exact(n, m)) for m in range(n)] + [0.0]
    else:
        rho = pass_survival(n) + [0.0]
    pmf = [rho[d] - rho[d + 1] for d in range(len(rho) - 1)]

    def moments(f):
        m1 = math.fsum(p * f(d) for d, p in enumerate(pmf))
        m2 = math.fsum(p * (f(d) - m1) ** 2 for d, p in enumerate(pmf))
        return m1, m2

    red_mean, red_var = moments(lambda d: d * (d - 1) / 2.0)
    d_mean, d_var = moments(float)
    var_i = n * (n - 1) * (2 * n + 5) / 72.0
    sd_i, sd_p = math.sqrt(var_i), math.sqrt(d_var)
    early_mean = n - d_mean + n * (n - 1) / 4.0
    variant_mean = 2.0 * (n - d_mean) - 1.0
    return {
        "comparison_reduction": (red_mean, red_var, red_var),
        "flag_writes_early_exit": (early_mean, (sd_i - sd_p) ** 2, (sd_i + sd_p) ** 2),
        "flag_writes_variant": (variant_mean, 4.0 * d_var, 4.0 * d_var),
    }


def optimal_shift_deviations(n: int, m: int) -> dict[int, Fraction]:
    """|collision_sf(n-k, m) / pass_cdf(n, m) - 1| for each admissible k < m."""
    target = pass_cdf_exact(n, m)
    return {
        k: abs(collision_sf_exact(n - k, m) / target - 1)
        for k in range(m)
        if n - k > m
    }


# ---------------------------------------------------------------------------
# self-test against textbook values and brute-force enumeration
# ---------------------------------------------------------------------------


def bubble_passes(p: list[int]) -> int:
    """Passes of the early-exit bubble sort, counting the final clean pass."""
    p = list(p)
    n = len(p)
    passes = 0
    while True:
        passes += 1
        swapped = False
        for j in range(n - passes):
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                swapped = True
        if not swapped:
            return passes


def inversions(p) -> int:
    """Number of pairs i < j with p[i] > p[j]."""
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def self_test() -> list[str]:
    """Return the list of failed reference checks (empty when all hold)."""
    bad = []

    def expect(label, ok):
        if not ok:
            bad.append(label)

    # textbook and paper values
    expect("E[C] at n=365 is 24.6166", abs(expected_collision_count(365) - 24.6166) < 5e-5)
    expect("collision_sf(365, 22) = 0.4927028",
           abs(float(collision_sf_exact(365, 22)) - 0.4927028) < 5e-8)
    expect("pass_cdf(365, 22) = 0.4857848", abs(float(pass_cdf_exact(365, 22)) - 0.4857848) < 5e-8)
    expect("collision_sf(358, 22) = 0.4857834",
           abs(float(collision_sf_exact(358, 22)) - 0.4857834) < 5e-8)
    e1 = scaled_pass_moment(10**4, 1)
    expect("E[(n-P)/sqrt n] at n=1e4 = 1.23670494307038", abs(e1 - 1.23670494307038) < 1e-13)

    # float sequences against exact products
    for n, m in ((100, 30), (9973, 150)):
        rho = pass_survival(n)
        sf = collision_survival(n)
        expect(f"pass_survival({n})[{m}]",
               abs(rho[m] / float(pass_cdf_exact(n, m)) - 1) < 1e-13)
        expect(f"collision_survival({n})[{m}]",
               abs(sf[m] / float(collision_sf_exact(n, m)) - 1) < 1e-13)
    # non-integer year length
    expect("collision_sf at n = 22.5", collision_sf_exact(Fraction(45, 2), 3)
           == Fraction(43, 45) * Fraction(41, 45) * Fraction(39, 45))

    # exact laws against enumeration over all permutations / tuples
    for n in range(1, 7):
        perms = list(permutations(range(1, n + 1)))
        passes = [bubble_passes(p) for p in perms]
        for m in range(n):
            share = Fraction(sum(1 for p in passes if p <= n - m), len(perms))
            expect(f"pass_cdf_exact({n}, {m}) by enumeration", share == pass_cdf_exact(n, m))
        d = [n - p for p in passes]
        e_d = Fraction(sum(d), len(d))
        expect(f"E[n-P] at n={n}", abs(scaled_pass_moment(n, 1) * math.sqrt(n) - float(e_d)) < 1e-12)
        if n >= 2:
            ops = opcount_expectations(n)
            red = Fraction(sum(x * (x - 1) // 2 for x in d), len(d))
            early = Fraction(sum(p + inversions(q) for p, q in zip(passes, perms)), len(d))
            variant = Fraction(sum(2 * p - 1 for p in passes), len(d))
            expect(f"comparison reduction mean at n={n}",
                   abs(ops["comparison_reduction"][0] - float(red)) < 1e-12)
            expect(f"early-exit flag mean at n={n}",
                   abs(ops["flag_writes_early_exit"][0] - float(early)) < 1e-12)
            expect(f"variant flag mean at n={n}",
                   abs(ops["flag_writes_variant"][0] - float(variant)) < 1e-12)
    for n in range(1, 6):
        tuples = list(product(range(n), repeat=3))
        for m in range(3):
            share = Fraction(sum(1 for t in tuples if len(set(t[: m + 1])) == m + 1), len(tuples))
            expect(f"collision_sf_exact({n}, {m}) by enumeration", share == collision_sf_exact(n, m))
    n = 5
    js = []  # C - 1 = 0-based index of the first repeated day; n+1 draws always repeat
    for t in product(range(n), repeat=n + 1):
        seen = set()
        for i, v in enumerate(t):
            if v in seen:
                js.append(i)
                break
            seen.add(v)
    for k in (1, 2):
        mean = math.fsum(j**k for j in js) / len(js) / n ** (k / 2.0)
        expect(f"collision moment k={k} at n={n} by enumeration",
               abs(scaled_collision_moment(n, k) - mean) < 1e-12)

    # pair-match laws against enumeration
    for kind, n, m in (("birthday", 4, 3), ("inversion", 5, 3)):
        radices = [n] * (m + 1) if kind == "birthday" else [n - i + 1 for i in range(1, m + 2)]
        counts = []
        for t in product(*(range(r) for r in radices)):
            counts.append(sum(1 for a in range(m + 1) for b in range(a + 1, m + 1) if t[a] == t[b]))
        mean = Fraction(sum(counts), len(counts))
        var = Fraction(sum(c * c for c in counts), len(counts)) - mean * mean
        ref_mean, ref_var = pair_match_law(kind, n, m)
        expect(f"{kind} pair-match mean by enumeration", abs(ref_mean - float(mean)) < 1e-12)
        expect(f"{kind} pair-match variance by enumeration", abs(ref_var - float(var)) < 1e-12)

    # lattice KS and charfn against exact products
    n = 100
    sq = math.sqrt(n)
    exact_ks = max(
        abs(float(1 - pass_cdf_exact(n, d + 1)) - _rayleigh_cdf(d / sq)) for d in range(n - 1)
    )
    expect("pass KS at n=100", abs(ks_rayleigh("pass", n) - exact_ks) < 1e-12)
    exact_ks = max(
        abs(float(1 - collision_sf_exact(n, j)) - _rayleigh_cdf(j / sq)) for j in range(1, n + 1)
    )
    expect("collision KS at n=100", abs(ks_rayleigh("collision", n) - exact_ks) < 1e-12)
    pmf = [float(pass_cdf_exact(n, d) - pass_cdf_exact(n, d + 1)) for d in range(n - 1)]
    pmf.append(float(pass_cdf_exact(n, n - 1)))
    phi = sum(p * cmath.exp(0.7j * d / sq) for d, p in enumerate(pmf))
    expect("charfn at n=100", abs(scaled_pass_charfn(n, 0.7) - phi) < 1e-12)

    # truncated log series: exp of the full series is the product
    v = exp_exact(log_series_exact(365, 22, 40, alternating=False))
    expect("collision log series", abs(v - collision_sf_exact(365, 22)) < Fraction(1, 10**40))
    v = exp_exact(log_series_exact(365, 22, 40, alternating=True))
    expect("pass log series", abs(v - pass_cdf_exact(365, 22)) < Fraction(1, 10**40))
    return bad


if __name__ == "__main__":
    failures = self_test()
    for f in failures:
        print("FAIL", f)
    print("reference self-test:", "ok" if not failures else f"{len(failures)} failed")
    raise SystemExit(1 if failures else 0)
