"""Verification suites: stable claim IDs, the shared permutation walk, and the
two lanes of `run_suite("all")`."""

import ast
import json
import os
import signal
import subprocess
from pathlib import Path

import pytest

from collisort import cli, sorters, verification

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


def _serial_all():
    claims = [c for name in sorted(verification.SUITES) if name != "lemma-8-4"
              for c in verification.SUITES[name]()]
    return sorted(claims, key=lambda c: c.claim_id)


def _no_child(*args, **kwargs):
    raise AssertionError("started a child process")


def _record_children(monkeypatch) -> list:
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


def test_run_all_equals_the_serial_suites_on_both_paths(monkeypatch):
    serial = _serial_all()
    with monkeypatch.context() as patch:
        patch.setattr(verification, "_usable_cpus", lambda: 2)
        started = _record_children(patch)
        two_lanes = verification.run_suite("all")
    assert [worker.returncode for worker in started] == [0]
    assert started[0].args[-len(verification.WORKER_SUITES):] == list(verification.WORKER_SUITES)
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(subprocess, "Popen", _no_child)
    assert two_lanes == serial
    assert verification.run_suite("all") == serial


def test_verify_all_stdout_is_the_same_on_both_paths(capsys, monkeypatch):
    outputs = {}
    for lanes in (2, 1):
        with monkeypatch.context() as patch:
            patch.setattr(verification, "_usable_cpus", lambda: lanes)
            if lanes == 1:
                patch.setattr(subprocess, "Popen", _no_child)
            for fmt in ("json", "csv"):
                assert cli.main(["verify", "--suite", "all", "--output", fmt]) == cli.EXIT_OK
                outputs[lanes, fmt] = capsys.readouterr().out
    assert outputs[2, "json"] == outputs[1, "json"]
    assert outputs[2, "csv"] == outputs[1, "csv"]


def test_a_refused_worker_lane_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verification, "WORKER_SUITES", ("no-such-suite",))
    # the worker reads its own SUITES; this process runs one quick suite
    monkeypatch.setattr(verification, "SUITES",
                        {"optimal-shift": verification.suite_optimal_shift})
    assert cli.main(["verify", "--suite", "all"]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["kind"] == "internal"
    assert payload["error"].startswith("RuntimeError: verify lane no-such-suite exited 1: "
                                       "ValueError: unknown suite 'no-such-suite'")


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_a_failing_parent_lane_kills_and_reaps_the_worker(capsys, monkeypatch, exc):
    def fail():
        raise exc("parent lane")

    monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
    monkeypatch.setitem(verification.SUITES, "asymptotic-orders", fail)  # the first to run
    started = _record_children(monkeypatch)
    if exc is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            cli.main(["verify", "--suite", "all"])
    else:
        assert cli.main(["verify", "--suite", "all"]) == cli.EXIT_INTERNAL
        assert json.loads(capsys.readouterr().err)["error"] == "RuntimeError: parent lane"
    (worker,) = started
    assert worker.returncode == -signal.SIGKILL
    assert worker.stdout.closed and worker.stderr.closed
    with pytest.raises(ChildProcessError):  # reaped: no longer a child of this process
        os.waitpid(worker.pid, os.WNOHANG)


def test_single_suite_verify_starts_no_child(capsys, monkeypatch):
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(subprocess, "Popen", _no_child)
    for name in sorted(verification.SUITES):
        assert cli.main(["verify", "--suite", name]) == cli.EXIT_OK, name
    capsys.readouterr()
