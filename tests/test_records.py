"""The value records: named, immutable, validated on construction.

Each record prints, refuses assignment and rejects bad fields as it did as a
frozen dataclass, and its `_asdict()` keys come in field order, which the CLI's
JSON and CSV columns follow.
"""

import re

import pytest

from collisort.asymptotics import ApproxStats, ExpectedOpDeltas
from collisort.distributions import ExponentialLaw, PoissonLaw, RayleighLaw
from collisort.exact import EstimateReport, ProblemSize
from collisort.hpreal import hp
from collisort.montecarlo import DEFAULT_SEED, EmpiricalSummary, SeededStream
from collisort.poisson_approx import DissociatedFamily, SteinChenReport
from collisort.sorters import OpCounts
from collisort.verification import ClaimResult

# (class, fields in order with a valid value each, defaults, [(bad fields, message)])
RECORDS = [
    (ProblemSize, {"n": 5, "m": 3}, {}, [
        ({"n": 0, "m": 0}, "n must be >= 1, got 0"),
        ({"n": 10, "m": 11}, "m must satisfy 0 <= m <= n, got m=11, n=10"),
    ]),
    (EstimateReport, {"exact_ratio": hp(1.5), "asymptotic_formula_value": 1.25,
                      "relative_error": 0.5}, {}, []),
    (PoissonLaw, {"lam": 2.0}, {}, [({"lam": -1.0}, "Poisson rate must be >= 0, got -1.0")]),
    (ExponentialLaw, {"lam": 2.0}, {}, [({"lam": 0.0}, "exponential rate must be > 0, got 0.0")]),
    (RayleighLaw, {"sigma": 1.0}, {}, [({"sigma": 0.0}, "Rayleigh scale must be > 0, got 0.0")]),
    (ApproxStats, {"mean_approx": 1.25, "second_moment_approx": 2.0,
                   "variance_approx": 0.4375, "n": 100}, {}, []),
    (ExpectedOpDeltas, {"comparison_reduction": 3.5, "flag_writes_early_exit": 30.0,
                        "flag_writes_variant": 15.0, "n": 10}, {}, []),
    (OpCounts, {"comparisons": 6, "swaps": 3, "bool_assignments": 4, "passes": 3}, {}, [
        ({"comparisons": -1, "swaps": 0, "bool_assignments": 0, "passes": 0},
         "operation counts must be nonnegative"),
        ({"comparisons": 6, "swaps": 7, "bool_assignments": 4, "passes": 3},
         "swaps cannot exceed comparisons"),
    ]),
    (DissociatedFamily, {"supports": (3, 2, 1)}, {}, [
        ({"supports": (1, 2)}, "supports must be positive and non-increasing, got (1, 2)"),
        ({"supports": (2, 0)}, "supports must be positive and non-increasing, got (2, 0)"),
    ]),
    (SteinChenReport, {"mu": 0.75, "tv_bound": 0.25, "hypothesis_sq": 0.125,
                       "hypothesis_triple": 0.0625, "squared_means_sum": 0.5,
                       "cross_means_sum": 1.5}, {}, []),
    (ClaimResult, {"claim_id": "X-1", "status": "PASS", "observed": "1", "expected": "1",
                   "detail": "d"}, {"detail": ""}, []),
    (SeededStream, {"seed": 1, "stream_id": 2}, {"seed": DEFAULT_SEED, "stream_id": 0}, []),
    (EmpiricalSummary, {"kind": "pass", "n": 10, "m": None, "sample_count": 100,
                        "mean": 1.5, "variance": 0.25, "se_mean": 0.05, "ks_exact": 0.01,
                        "ks_rayleigh": 0.02, "tv_distance": None, "tv_se": None,
                        "reference_mu": None},
     dict.fromkeys(("ks_exact", "ks_rayleigh", "tv_distance", "tv_se", "reference_mu")), []),
]


@pytest.mark.parametrize("cls, fields, defaults, bad", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_behaviour(cls, fields, defaults, bad):
    record = cls(**fields)
    assert record == cls(*fields.values())
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    assert list(record._asdict()) == list(cls._fields) == list(fields)
    assert record._asdict() == fields
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert cls(**required)._asdict() == {**fields, **required, **defaults}
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for bad_fields, message in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**bad_fields)
        with pytest.raises(ValueError, match=re.escape(message)):
            record._replace(**bad_fields)

