"""Exact and asymptotic laws of bubble-sort passes and birthday collisions.

The pass count of bubble sort on a uniform random permutation and the
first-collision count of the birthday process obey sibling product-form
laws; both scaled statistics converge to the standard Rayleigh law.  This
package computes the exact laws at double-double precision, their
asymptotic expansions, the cross-estimation error between them, Stein-Chen
Poisson bounds for the underlying match counts, and the expected
operation-count effects of early-exit bubble-sort optimizations, with
seeded Monte Carlo verification throughout.
"""

__version__ = "0.1.0"


class ResourceBoundError(Exception):
    """Raised when an enumeration, a sampler or an exact walk would exceed its size bound."""


# Every public name, and each module's own name, resolves on first access
# (PEP 562), so a process loads only the modules it uses: `collisort exact`
# loads hpreal and exact (plus powersums for `series`); exact owns the
# nested supports that poisson_approx and montecarlo read too.  numpy, which
# only montecarlo (and the batch forms of sorters) imports, stays out of
# every `exact` and `approx` command.
_LAZY = {name: module for module, names in {
    "distributions": """ExponentialLaw PoissonLaw RayleighLaw erfi exponential_sf
        normal_cdf_imag poisson_pmf rayleigh_charfn rayleigh_moment rayleigh_sf""",
    "exact": """EstimateReport ProblemSize collision_sf collision_sf_fraction
        collision_sf_series optimal_shift pass_cdf pass_cdf_fraction pass_cdf_series
        relative_error_common relative_error_shifted sandwich_bounds
        scaled_collision_moment scaled_pass_charfn_exact scaled_pass_moment
        scaled_pass_variance""",
    "asymptotics": """ApproxStats ExpectedOpDeltas euler_maclaurin_residual
        expected_opcount_deltas log_factorial_hp scaled_collision_cdf_approx
        scaled_collision_pmf_approx scaled_pass_cdf_approx scaled_pass_charfn_approx
        scaled_pass_moment_approx scaled_pass_pmf_approx scaled_pass_stats_approx
        scaled_pass_survival scaled_pass_survival_expansion""",
    "hpreal": "HPReal hp", "powersums": "", "quadrature": "",
    "sorters": """OpCounts bubble_sort_instrumented
        enumerate_collision_survival enumerate_pass_distribution equal_pair_count
        inversion_table pass_count pass_trace passes_match_inversion_max
        permutation_from_inversion_table""",
    "montecarlo": """EmpiricalSummary SeededStream empirical_law empirical_opcounts
        empirical_pair_matches exact_law_ks_vs_rayleigh sample_first_collision
        sample_inversion_table""",
    "poisson_approx": """DissociatedFamily SteinChenReport birthday_family
        inversion_family poisson_limit_functionals stein_chen_bound
        tv_exact_enumerated""",
}.items() for name in (module, *names.split())}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
