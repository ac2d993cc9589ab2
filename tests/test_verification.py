"""Verification suites: stable claim IDs and the shared permutation walk."""

import ast
from pathlib import Path

import pytest

from collisort import sorters, verification

STABLE_CLAIM_IDS = [
    "ENUM-BDAY-N1", "ENUM-BDAY-N2", "ENUM-BDAY-N3", "ENUM-BDAY-N4", "ENUM-BDAY-N5",
    "ENUM-BDAY-N6", "ENUM-PASS-N1", "ENUM-PASS-N2", "ENUM-PASS-N3", "ENUM-PASS-N4",
    "ENUM-PASS-N5", "ENUM-PASS-N6", "ENUM-PASS-N7", "KS-COLL", "KS-PASS", "LEMMA-MAXV-N8",
    "MC-OPCOUNT-MEANS", "MC-PASS-LAW-KS", "N1E4-EX2N", "N1E4-EXN", "N1E4-STATS", "N1E4-VXN",
    "N358-M22-COLLSF", "OPS-FLAGS-EARLY-N8", "OPS-FLAGS-VARIANT-N8", "OPS-REDUCTION-N8",
    "OPS-SORTED-N8", "ORD-CDF-COLL", "ORD-CDF-PASS", "ORD-EM-RESIDUAL", "ORD-SURVIVAL",
    "P365-M22-COLLSF", "P365-M22-PASSCDF", "SC-BOUND-ENUM", "SC-BOUND-MC-365-22",
    "SHIFT-1000-16", "SHIFT-365-22", "SHIFT-5000-40",
]


def test_permutation_suites_share_one_walk(monkeypatch):
    walked, sorted_batches = [], []
    original, original_sort = sorters.permutation_rows, sorters.sort_rows

    def counted(n):
        walked.append(n)
        return original(n)

    def counted_sort(*args):
        sorted_batches.append(args[0].shape[1])
        return original_sort(*args)

    monkeypatch.setattr(sorters, "permutation_rows", counted)
    monkeypatch.setattr(sorters, "sort_rows", counted_sort)
    verification._permutation_walk.cache_clear()
    lemma = verification.suite_lemma_8_4()
    opcounts = verification.suite_opcount_lemmas()
    maxv = verification.suite_inversion_lemma()
    assert walked == list(range(1, 9))
    assert sorted_batches == list(range(1, 9))  # one sort counts every variant
    assert lemma == [c for c in opcounts if c.claim_id == "OPS-FLAGS-VARIANT-N8"]
    assert lemma[0].status == "NOTE"
    assert [c.claim_id for c in maxv] == ["LEMMA-MAXV-N8"]
    assert maxv[0].observed == "0 mismatches of 46233"


def test_a_broken_distinctness_count_fails_the_birthday_claims(monkeypatch):
    # one more bit per byte: the walk counts the sums with m set bits, not m + 1
    monkeypatch.setattr(sorters, "_POPCOUNT", bytes(x.bit_count() + 1 for x in range(256)))
    birthday = [c for c in verification.suite_enumeration() if c.claim_id.startswith("ENUM-BDAY")]
    assert [c.claim_id for c in birthday] == [f"ENUM-BDAY-N{n}" for n in range(1, 7)]
    assert all(c.status == "FAIL" for c in birthday)


def test_run_all_returns_each_stable_claim_once():
    assert [c.claim_id for c in verification.run_suite("all")] == STABLE_CLAIM_IDS


def test_benchmark_pins_the_same_claim_ids():
    # the benchmark's verify-all check refuses a run whose claim IDs differ from
    # its own STABLE_CLAIM_IDS, so a new claim needs that set widened first;
    # read as source, since the bench's modules import each other by bare name
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    (pinned,) = [node.value for node in ast.parse(source.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["STABLE_CLAIM_IDS"]]
    words = " ".join(node.value for node in ast.walk(pinned)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)).split()
    assert sorted(words) == sorted(STABLE_CLAIM_IDS)
    assert len(set(words)) == len(words)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: verification.run_suite("nope"), id="unknown-suite"),
])
def test_verification_refuses_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
