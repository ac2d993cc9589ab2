"""Verification suites: stable claim IDs, the shared permutation walk, and the
two lanes of `run_suite("all")`."""

import ast
import json
import os
import signal
import subprocess
import sys
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


SRC = Path(__file__).resolve().parents[1] / "src"

# Once numpy is imported, as in this session, run_suite("all") runs serially.
# The fork path runs in fresh interpreters, after this prelude: two usable
# CPUs, and the pid of each fork run_suite("all") takes recorded in FORKS.
_PRELUDE = """
import json, os, sys
from collisort import cli, verification
verification._usable_cpus = lambda: 2
FORKS = []
_fork = os.fork

def fork():
    pid = _fork()
    if pid:
        FORKS.append(pid)
    return pid

os.fork = fork
"""


def _fresh(code: str, *flags: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *flags, "-c", _PRELUDE + code],
                          capture_output=True, env=env, timeout=120)


def _internal_error(proc) -> str:
    """The error of a verify that exited 4 with nothing on stdout; the worker's
    traceback, if any, precedes it on stderr."""
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INTERNAL, b"")
    payload = json.loads(proc.stderr.decode().splitlines()[-1])
    assert payload["kind"] == "internal"
    return payload["error"]


def test_run_all_equals_the_serial_suites_on_both_paths(monkeypatch):
    proc = _fresh("""
claims = verification.run_suite("all")
print(json.dumps([len(FORKS), [list(c) for c in claims]]))
""")
    assert (proc.returncode, proc.stderr) == (0, b"")
    forks, two_lanes = json.loads(proc.stdout)
    serial = _serial_all()
    assert forks == 1
    assert [verification.ClaimResult(*c) for c in two_lanes] == serial
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 1)
    assert verification.run_suite("all") == serial


def test_verify_all_forks_only_without_numpy_or_threads(monkeypatch):
    import numpy  # noqa: F401

    monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
    assert not verification._may_fork()
    proc = _fresh("""
import threading
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
try:
    claims = verification.run_suite("all")
finally:
    stop.set()
    thread.join()
print(json.dumps([len(FORKS), len(claims)]))
""")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout) == [0, len(STABLE_CLAIM_IDS)]


def test_verify_all_stdout_is_the_same_on_both_paths(capsys, monkeypatch):
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 1)  # serial in this process
    for fmt in ("json", "csv"):
        proc = _fresh(f"""
code = cli.main(["verify", "--suite", "all", "--output", "{fmt}"])
sys.stdout.flush()
sys.stderr.write(json.dumps([code, len(FORKS)]))
""")
        assert json.loads(proc.stderr) == [cli.EXIT_OK, 1]
        assert cli.main(["verify", "--suite", "all", "--output", fmt]) == cli.EXIT_OK
        assert proc.stdout.decode() == capsys.readouterr().out, fmt


def test_a_refused_worker_lane_is_an_internal_error():
    proc = _fresh("""
verification.WORKER_GROUPS = ("no-such-suite",)
sys.exit(cli.main(["verify", "--suite", "all"]))
""")
    assert _internal_error(proc) == ("RuntimeError: verify lane no-such-suite exited 1: "
                                     "KeyError: 'no-such-suite'")
    assert b"Traceback" in proc.stderr  # the worker's own


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
def test_a_failed_worker_is_reported_before_mc_opcount_means_runs():
    proc = _fresh("""
def fail():
    raise RuntimeError("worker lane")

def wait_for_the_worker():  # the caller's first group; WNOWAIT leaves the worker unreaped
    os.waitid(os.P_PID, FORKS[0], os.WEXITED | os.WNOWAIT)
    return []

def never():
    raise AssertionError("MC-OPCOUNT-MEANS ran")

verification._GROUPS.update({"stein-chen": fail, "paper-values": wait_for_the_worker,
                             "MC-OPCOUNT-MEANS": never})
sys.exit(cli.main(["verify", "--suite", "all"]))
""")
    lane = ", ".join(verification.WORKER_GROUPS)
    assert _internal_error(proc) == (f"RuntimeError: verify lane {lane} exited 1: "
                                     "RuntimeError: worker lane")


@pytest.mark.parametrize("cpus", [2, 1])
def test_a_warning_in_a_worker_claim_is_an_error_under_w_error(cpus):
    # the forked worker keeps the interpreter's -W error, as the serial path does
    proc = _fresh(f"""
import warnings
verification._usable_cpus = lambda: {cpus}

def warn():
    warnings.warn("worker claim")
    return []

verification._GROUPS["stein-chen"] = warn
code = cli.main(["verify", "--suite", "all"])
assert len(FORKS) == {cpus} - 1
sys.exit(code)
""", "-W", "error")
    lane = ", ".join(verification.WORKER_GROUPS)
    prefix = f"RuntimeError: verify lane {lane} exited 1: " if cpus == 2 else ""
    assert _internal_error(proc) == prefix + "UserWarning: worker claim"


@pytest.mark.parametrize("exc", ["RuntimeError", "KeyboardInterrupt"])
def test_a_failing_parent_lane_kills_and_reaps_the_worker(exc):
    proc = _fresh(f"""
import signal
STATUSES = []
_waitpid = os.waitpid

def waitpid(pid, options):
    reaped, status = _waitpid(pid, options)
    if reaped:
        STATUSES.append(status)
    return reaped, status

def fail():
    raise {exc}("parent lane")

os.waitpid = waitpid
verification._GROUPS["paper-values"] = fail  # the caller's first group
try:
    code = cli.main(["verify", "--suite", "all"])
except KeyboardInterrupt:
    code = "interrupted"
try:  # reaped: no longer a child of this process
    os.waitpid(FORKS[0], os.WNOHANG)
except ChildProcessError:
    print(json.dumps([code, [os.WIFSIGNALED(s) and os.WTERMSIG(s) for s in STATUSES]]))
""")
    code, statuses = json.loads(proc.stdout)
    assert statuses == [signal.SIGKILL]
    if exc == "KeyboardInterrupt":
        assert code == "interrupted"
    else:
        assert code == cli.EXIT_INTERNAL
        assert json.loads(proc.stderr)["error"] == "RuntimeError: parent lane"


def test_single_suite_verify_starts_no_child():
    proc = _fresh(f"""
import contextlib, io
codes = []
for name in {sorted(verification.SUITES)!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(["verify", "--suite", name]))
print(json.dumps([codes, len(FORKS)]))
""")
    assert json.loads(proc.stdout) == [[cli.EXIT_OK] * len(verification.SUITES), 0]
