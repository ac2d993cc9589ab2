"""CLI surface: formats, determinism, exit codes."""

import csv
import io
import itertools
import json
import math
import re

import pytest

from collisort import cli, montecarlo
from collisort.cli import EXIT_FAILURE, EXIT_INTERNAL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from collisort.montecarlo import EmpiricalSummary, tv_limit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_pass_cdf_json(capsys):
    code, out, _ = run_cli(capsys, "exact", "pass-cdf", "--n", "365", "--m", "22")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    row = payload["rows"][0]
    assert abs(row["value"] - 0.4857848) <= 5e-8
    assert row["value_dec"].startswith("0.485784751450999")
    assert row["value_err"] < 1e-25
    # JSON round-trips
    assert json.loads(json.dumps(payload)) == payload


def test_exact_collision_sf_trivial(capsys):
    code, out, _ = run_cli(capsys, "exact", "collision-sf", "--n", "365", "--m", "0")
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["value"] == 1.0


def test_exact_optimal_shift(capsys):
    code, out, _ = run_cli(capsys, "exact", "optimal-shift", "--n", "365", "--m", "22")
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["brute_force_shift"] == 7
    assert row["asymptotic_shift"] == 7.0


def test_approx_stats_values(capsys):
    code, out, _ = run_cli(capsys, "approx", "stats", "--n", "10000")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    by_target = {r["target"]: r["value"] for r in rows}
    assert by_target["mean"] == pytest.approx(1.23670494307065, rel=1e-12)
    assert by_target["second-moment"] == pytest.approx(1.950365345354, rel=1e-12)
    assert by_target["variance"] == pytest.approx(0.4209262291679, rel=1e-12)


def test_approx_varrho_trivial(capsys):
    code, out, _ = run_cli(capsys, "approx", "varrho", "--n", "10000", "--x", "0")
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["value"] == 1.0


def test_approx_em_check(capsys):
    code, out, _ = run_cli(
        capsys, "approx", "em-check", "--n", "10000", "--epsilon", "0.15"
    )
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["residual"] < 1e-6


def test_csv_and_json_payloads_match(capsys):
    _, json_out, _ = run_cli(capsys, "exact", "relerr", "--n", "365", "--m", "22")
    _, csv_out, _ = run_cli(
        capsys, "exact", "relerr", "--n", "365", "--m", "22", "--output", "csv"
    )
    json_rows = json.loads(json_out)["rows"]
    reader = csv.DictReader(io.StringIO(csv_out))
    csv_rows = list(reader)
    assert len(csv_rows) == len(json_rows)
    for jrow, crow in zip(json_rows, csv_rows):
        for key, value in jrow.items():
            if isinstance(value, float):
                assert float(crow[key]) == value  # repr round-trip, no loss
            else:
                assert crow[key] == str(value)


def test_output_path(tmp_path, capsys):
    target = tmp_path / "rows.json"
    code, out, _ = run_cli(
        capsys, "exact", "pass-cdf", "--n", "10", "--m", "3",
        "--output-path", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["rows"][0]["n"] == 10


def test_simulate_law_deterministic(capsys):
    args = ("simulate", "law", "--kind", "pass", "--n", "400", "--trials", "2000",
            "--seed", "42")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    row = json.loads(out1)["rows"][0]
    assert row["ks_exact"] >= 0.0
    assert row["seed"] == 42


def test_simulate_law_assert_flag(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "law", "--kind", "pass", "--n", "1000",
        "--trials", "2000", "--assert",
    )
    assert code == EXIT_OK  # KS vs the law's own samples passes at 1%


def test_simulate_delta_bound_column(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "delta", "--kind", "birthday", "--n", "365", "--m", "22",
        "--trials", "2000", "--assert",
    )
    assert code == EXIT_OK
    row = json.loads(out)["rows"][0]
    assert row["within_bound"] is True
    assert row["tv_distance"] <= tv_limit(row["tv_bound"], row["tv_se"])


def test_simulate_opcounts_rows(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "opcounts", "--n", "2", "--trials", "100",
    )
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    by_kind = {r["kind"]: r for r in rows}
    assert by_kind["comparison_reduction"]["mean"] == 0.0


def test_simulate_opcounts_assert_fails_on_zero_spread_miss(capsys, monkeypatch):
    # at n = 2 every run saves 0 comparisons, the exact expected value: a
    # zero-spread counter on target is 0 standard errors off
    argv = ("simulate", "opcounts", "--n", "2", "--trials", "100", "--assert")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    row = {r["kind"]: r for r in json.loads(out)["rows"]}["comparison_reduction"]
    assert row["se_mean"] == 0.0 and row["deviation_se"] == 0.0

    # a zero-spread counter off target is infinitely many standard errors off
    def off_target(n, trials, stream):
        summary = EmpiricalSummary("comparison_reduction", n, None, trials, 0.5, 0.0, 0.0)
        return {"comparison_reduction": summary}

    monkeypatch.setattr(montecarlo, "empirical_opcounts", off_target)
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_FAILURE
    (row,) = json.loads(out)["rows"]
    assert row["se_mean"] == 0.0 and row["deviation_se"] == math.inf


def test_usage_error_exit_code(capsys):
    for argv in (("exact", "pass-cdf", "--n", "5", "--m", "9"),
                 ("exact", "series", "--n", "22", "--m", "21"),
                 ("approx", "charfn", "--n", "10000", "--t", "nan")):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert json.loads(err)["kind"] == "usage"
    assert "t=nan" in json.loads(err)["error"]


def test_internal_error_exit_code(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._DISPATCH, "exact", crash)
    code, out, err = run_cli(capsys, "exact", "pass-cdf", "--n", "10", "--m", "3")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert json.loads(err) == {"error": "RuntimeError: boom", "kind": "internal"}

    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._DISPATCH, "exact", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["exact", "pass-cdf", "--n", "10", "--m", "3"])


_EXACT_TARGETS = ("collision-sf", "pass-cdf", "series", "sandwich", "relerr",
                  "optimal-shift", "moments")
_APPROX_TARGETS = ("varrho", "cdf", "pmf", "moments", "charfn", "stats", "opt-deltas",
                   "em-check")
_BOUNDARY_N = ("-1", "0", "1", "2", "3", "100")


def _boundary_argvs():
    for target, n, m in itertools.product(_EXACT_TARGETS, _BOUNDARY_N, ("-1", "0", "1", "2")):
        yield ("exact", target, "--n", n, "--m", m)
    for target, n, option, value in itertools.product(
            _APPROX_TARGETS, _BOUNDARY_N, ("--x", "--z", "--t", "--epsilon"),
            ("nan", "inf", "-1", "0")):
        yield ("approx", target, "--n", n, option, value)
    for target, kind, n, trials in itertools.product(
            ("law", "delta", "opcounts"), ("pass", "collision", "birthday", "inversion"),
            ("-1", "0", "1", "2"), ("-1", "0", "1", "1000")):
        for m in ("-1", "0", "1", "2") if target == "delta" else ("0",):
            yield ("simulate", target, "--kind", kind, "--n", n, "--m", m, "--trials", trials)


# a usage message names the argument at fault, as --name or as a bare name
_NAMES_ARGUMENT = re.compile(r"(?<![\w'])(n|m|k|x|z|t|epsilon|depth|trials|kind)(?![\w'])")


def test_boundary_argv_never_crash(capsys):
    # documented codes only: a failed claim (1) can come only from simulate's
    # statistical checks, and an internal error (4) never; and no usage error
    # leaks internal text such as "math domain error"
    allowed = {"exact": {0, 2, 3}, "approx": {0, 2, 3}, "simulate": {0, 1, 2, 3}}
    bad = []
    for argv in _boundary_argvs():
        code, out, err = run_cli(capsys, *argv)
        if code not in allowed[argv[0]] or "Traceback" in out + err or (
                code == EXIT_USAGE and not _NAMES_ARGUMENT.search(json.loads(err)["error"])):
            bad.append((argv, code, err[-200:]))
    assert not bad


def test_approx_varrho_without_x_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "approx", "varrho", "--n", "10000")
    assert code == EXIT_USAGE
    assert "Traceback" not in out + err
    payload = json.loads(err)
    assert payload["kind"] == "usage"
    assert "--x" in payload["error"]


def test_argparse_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "bogus-target", "--n", "10"])
    assert exc.value.code == EXIT_USAGE


def test_resource_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "delta", "--kind", "birthday", "--n", "1000000",
        "--m", "100000", "--trials", "1000000",
    )
    assert code == EXIT_RESOURCE
    assert json.loads(err)["kind"] == "resource"


def test_verify_paper_values(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "paper-values")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert len(rows) == 7
    assert all(r["status"] == "PASS" for r in rows)
    ids = [r["claim_id"] for r in rows]
    assert ids == sorted(ids)
    assert "P365-M22-PASSCDF" in ids and "N1E4-EXN" in ids


def test_verify_lemma_8_4_reports_note(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma-8-4")
    assert code == EXIT_OK  # NOTE is not a failure
    rows = json.loads(out)["rows"]
    assert rows[0]["status"] == "NOTE"
    assert "2P-1" in rows[0]["observed"]


def test_verify_optimal_shift_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "optimal-shift")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert {r["claim_id"] for r in rows} == {"SHIFT-365-22", "SHIFT-1000-16", "SHIFT-5000-40"}
