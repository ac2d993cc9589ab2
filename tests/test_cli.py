"""CLI surface: formats, determinism, exit codes."""

import csv
import io
import itertools
import json
import math
import re
import time

import numpy as np
import pytest

from collisort import cli, exact, montecarlo
from collisort.cli import EXIT_FAILURE, EXIT_INTERNAL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from collisort.exact import pass_cdf
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


def test_approx_varrho_shares_the_cdf_lattice_rule(capsys):
    # x*sqrt(n) = 10^4 + 2e-6 is within the relative lattice tolerance
    # approx cdf uses, so varrho reports the exact value there too
    code, out, _ = run_cli(capsys, "approx", "varrho", "--n", "100000000", "--x", "1.0000000002")
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["exact"] == float(pass_cdf(10**8, 10**4))


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


def test_unwritable_output_path_is_usage_error(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing" / "rows.json"):
        code, out, err = run_cli(capsys, "exact", "pass-cdf", "--n", "5", "--m", "1",
                                 "--output-path", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        payload = json.loads(err)
        assert payload["kind"] == "usage" and "--output-path" in payload["error"]


def test_unwritable_output_path_is_refused_before_the_command_runs(tmp_path, capsys,
                                                                   monkeypatch):
    calls = []
    monkeypatch.setitem(cli._DISPATCH, "verify", calls.append)
    for path, reason in ((tmp_path, "Is a directory"),
                         (tmp_path / "missing" / "rows.json", "No such file or directory")):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--output-path", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert json.loads(err) == {"error": f"--output-path {str(path)!r}: {reason}",
                                   "kind": "usage"}
    assert calls == [] and list(tmp_path.iterdir()) == []
    # a command that fails leaves an existing file as it was
    target = tmp_path / "rows.json"
    target.write_text("kept\n")
    code, out, _ = run_cli(capsys, "exact", "pass-cdf", "--n", "5", "--m", "9",
                           "--output-path", str(target))
    assert (code, out) == (EXIT_USAGE, "")
    assert target.read_text() == "kept\n"


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
    # a 1 %-level test on one seed may reject; --assert must report its verdict
    row = json.loads(out)["rows"][0]
    assert code == (EXIT_FAILURE if row["ks_exact"] >= row["ks_critical_1pct"] else EXIT_OK)


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


def test_simulate_law_and_delta_assert_fail_past_their_limits(capsys, monkeypatch):
    # a KS distance of 1 is past any critical value; a TV distance of 1 with
    # no spread is past any Stein-Chen bound below 1
    def far_law(kind, n, trials, stream):
        return EmpiricalSummary(kind, n, None, trials, 0.0, 0.0, 0.0, ks_exact=1.0)

    def far_matches(kind, n, m, trials, stream):
        return EmpiricalSummary(kind, n, m, trials, 0.0, 0.0, 0.0, tv_distance=1.0, tv_se=0.0)

    monkeypatch.setattr(montecarlo, "empirical_law", far_law)
    monkeypatch.setattr(montecarlo, "empirical_pair_matches", far_matches)
    code, out, _ = run_cli(capsys, "simulate", "law", "--kind", "pass", "--n", "1000",
                           "--trials", "2000", "--assert")
    assert code == EXIT_FAILURE
    assert json.loads(out)["rows"][0]["ks_exact"] == 1.0
    code, out, _ = run_cli(capsys, "simulate", "delta", "--kind", "birthday", "--n", "365",
                           "--m", "22", "--trials", "2000", "--assert")
    assert code == EXIT_FAILURE
    assert json.loads(out)["rows"][0]["within_bound"] is False


def test_simulate_randomize_replaces_the_default_seed(capsys):
    code, out, _ = run_cli(capsys, "simulate", "law", "--kind", "pass", "--n", "100",
                           "--trials", "1000", "--randomize")
    assert code == EXIT_OK
    seed = json.loads(out)["rows"][0]["seed"]
    assert isinstance(seed, int) and seed != montecarlo.DEFAULT_SEED


def test_simulate_seed_with_randomize_is_usage_error(capsys):
    # --randomize would drop the given seed without a word
    for flags in (("--seed", "7", "--randomize"), ("--randomize", "--seed", "0")):
        code, out, err = run_cli(capsys, "simulate", "law", "--n", "100", "--trials", "1000",
                                 *flags)
        assert (code, out) == (EXIT_USAGE, "")
        payload = json.loads(err)
        assert payload["kind"] == "usage"
        assert "--seed" in payload["error"] and "--randomize" in payload["error"]


@pytest.mark.parametrize("n", [2**53, 2**60])
@pytest.mark.parametrize("argv", [
    "stats", "moments --k 2", "opt-deltas", "charfn --t 0.5", "varrho --x 1.0",
    "cdf --x 1.0 --z 1.0", "pmf --x 1.0 --z 1.0",
])
def test_approx_past_the_exact_forms_prints_the_expansion_alone(capsys, argv, n):
    # the survival walks need n < 2^53 and the product walks m <= 10^6 factors; the
    # expansions are meant for large n, so their rows stay, without an exact column
    target, *options = argv.split()
    code, out, _ = run_cli(capsys, "approx", target, "--n", str(n), *options)
    assert code == EXIT_OK
    for row in json.loads(out)["rows"]:
        assert not {"exact", "exact_re", "abs_error", "rel_error"} & set(row), row
        assert all(math.isfinite(v) for k, v in row.items() if k.startswith("value")), row


def test_approx_varrho_off_lattice_has_no_exact_column(capsys):
    # x*sqrt(n) = 0.5 lies halfway between lattice points 0 and 1
    code, out, _ = run_cli(capsys, "approx", "varrho", "--n", "10000", "--x", "0.005")
    assert code == EXIT_OK
    (row,) = json.loads(out)["rows"]
    assert "exact" not in row and math.isfinite(row["value"])


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


def test_pair_match_tally_over_the_bound_is_a_resource_error(capsys, monkeypatch):
    monkeypatch.setattr(montecarlo, "_MAX_DRAWS", 4_000_000)  # below the 4.5e6 tally cells
    code, out, err = run_cli(capsys, "simulate", "delta", "--kind", "birthday", "--n", "365",
                             "--m", "2999", "--trials", "1000")
    assert (code, out) == (EXIT_RESOURCE, "")
    assert json.loads(err)["kind"] == "resource"


# Mutants of montecarlo for the verify exit code: each raises a ValueError deep
# inside a sampler, which no argument of `verify` can have caused.
def _pass_count_plus_two(sample_pass_counts):
    """Mutant A: the pass count is the table maximum + 2."""
    def mutant(n, trials, stream):
        return sample_pass_counts(n, trials, stream) + 1
    return mutant


def _digit_sum_dropping_a_quotient(rng, sizes, prod, total):
    """Mutant F: `montecarlo._digit_sums` without its last quotient term."""
    v = rng.integers(0, prod, size=total.size, dtype=np.uint64)
    total += v
    scratch = np.empty_like(v)
    for s in sizes[:1:-1]:
        np.floor_divide(v, np.uint64(s), out=v)
        np.multiply(v, np.uint64(s - 1), out=scratch)
        total -= scratch


@pytest.mark.parametrize("name, mutant, message", [
    ("sample_pass_counts", _pass_count_plus_two(montecarlo.sample_pass_counts),
     "ValueError: 'list' argument must have no negative elements"),
    ("_digit_sums", _digit_sum_dropping_a_quotient,
     "ValueError: swaps cannot exceed comparisons"),
], ids=["A-pass-count", "F-digit-sum"])
def test_verify_defect_is_internal_error_not_usage(capsys, monkeypatch, name, mutant, message):
    monkeypatch.setattr(montecarlo, name, mutant)
    code, out, err = run_cli(capsys, "verify", "--suite", "montecarlo")
    assert (code, out) == (EXIT_INTERNAL, "")
    payload = json.loads(err)
    assert payload["kind"] == "internal" and payload["error"].startswith(message)


def test_verify_resource_error_inside_a_suite_is_internal(capsys, monkeypatch):
    from collisort import sorters, verification

    def refuse():
        raise sorters.ResourceBoundError("too large")

    monkeypatch.setitem(verification.SUITES, "paper-values", refuse)
    code, out, err = run_cli(capsys, "verify", "--suite", "paper-values")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert json.loads(err) == {"error": "ResourceBoundError: too large", "kind": "internal"}


_EXACT_TARGETS = ("collision-sf", "pass-cdf", "series", "sandwich", "relerr",
                  "optimal-shift", "moments")
_APPROX_TARGETS = ("varrho", "cdf", "pmf", "moments", "charfn", "stats", "opt-deltas",
                   "em-check")
_BOUNDARY_N = ("-1", "0", "1", "2", "3", "100")


def _boundary_argvs():
    for target, n, m in itertools.product(_EXACT_TARGETS, _BOUNDARY_N, ("-1", "0", "1", "2")):
        yield ("exact", target, "--n", n, "--m", m)
    for target, n, option, value in itertools.product(
            _APPROX_TARGETS, _BOUNDARY_N + (str(2**512), str(2**1024)),
            ("--x", "--z", "--t", "--epsilon"), ("nan", "inf", "-1", "0", "1e308")):
        yield ("approx", target, "--n", n, option, value)
    for target, kind, n, trials in itertools.product(
            ("law", "delta", "opcounts"), ("pass", "collision", "birthday", "inversion"),
            ("-1", "0", "1", "2"), ("-1", "0", "1", "1000")):
        for m in ("-1", "0", "1", "2") if target == "delta" else ("0",):
            yield ("simulate", target, "--kind", kind, "--n", n, "--m", m, "--trials", trials)
    for option, value in itertools.product(("--seed", "--stream-id"), ("-1", "-5")):
        yield ("simulate", "law", "--n", "10", "--trials", "1000", option, value)


# a usage message names the argument at fault, as --name or as a bare name
_NAMES_ARGUMENT = re.compile(
    r"(?<![\w'])(n|m|k|x|z|t|epsilon|depth|trials|kind|seed|stream-id)(?![\w'])")


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


@pytest.mark.parametrize("depth", ["0", "65"])
def test_series_depth_is_checked_at_m_zero(capsys, depth):
    code, out, err = run_cli(capsys, "exact", "series", "--n", "10", "--m", "0", "--depth", depth)
    assert (code, out) == (EXIT_USAGE, "")
    assert json.loads(err) == {"error": "depth must be in 1..64", "kind": "usage"}


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


@pytest.mark.parametrize("argv", [
    ("law", "--kind", "pass", "--n", "100000000000", "--trials", "1000"),
    ("law", "--kind", "collision", "--n", "100000000000", "--trials", "1000"),
    ("opcounts", "--n", "100000000000", "--trials", "10"),
])
def test_huge_simulation_is_a_resource_error(capsys, argv):
    # refused before any allocation, with a message that names n and trials
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert code == EXIT_RESOURCE
    assert "Traceback" not in out + err
    payload = json.loads(err)
    assert payload["kind"] == "resource"
    assert "n=100000000000" in payload["error"] and "trials=" in payload["error"]


@pytest.mark.parametrize("argv", [
    ("exact", "pass-cdf", "--n", str(2**60), "--m", str(2**30)),  # m = 2^30 factors
    ("exact", "collision-sf", "--n", str(10**12), "--m", "2000000"),
    # 3000 shifts of 3000 factors each, each walk under the cap on one product form
    ("exact", "optimal-shift", "--n", str(10**12), "--m", "3000"),
])
def test_long_product_walk_is_a_resource_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_RESOURCE
    assert out == ""
    payload = json.loads(err)
    assert payload["kind"] == "resource"
    message = ("bounded at 1000000 factors in all" if argv[1] == "optimal-shift"
               else "factors one by one; bounded at m <= 1000000")
    assert message in payload["error"]


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


# `*_dec` digits and `*_err` bounds of the exact commands, recorded when each
# err was last reworked: the digits may not move and no err may grow
PINNED_EXACT = {
    "exact collision-sf --n 365 --m 22": [
        ("value", "0.4927027656760145927745828", 1.5551526682703676e-30),
    ],
    "exact pass-cdf --n 365 --m 22": [
        ("value", "0.4857847514509997698473887", 1.5335985586371133e-30),
    ],
    "exact series --n 365 --m 22 --depth 12": [
        ("value", "0.4927027656760146045386732", 3.805790103895872e-29),
        ("value", "0.4857847514509997931632335", 3.7830214836810603e-29),
    ],
    "exact sandwich --n 365 --m 22": [
        ("lower", "0.4714012682588789977172875", 1.487700001313203e-30),
        ("pass_cdf", "0.4857847514509997698473887", 1.5335985586371133e-30),
        ("upper", "0.4927027656760145927745828", 1.5551526682703676e-30),
    ],
    "exact relerr --n 365 --m 22": [
        ("exact_ratio", "1.014240904442453728444080", 9.667641384224227e-30),
        ("exact_ratio", "0.9999971800367087022883810", 1.4657146511140084e-28),
    ],
    "exact moments --n 10000 --k 2": [
        ("value", "1.950365345384212138806458", 2.3422940896549538e-27),
        ("value", "1.987500087813191883854096", 2.3966276733033266e-28),
        ("value", "0.4209262291695097744933799", 4.295784871583101e-27),
    ],
    "exact moments --n 1000000 --k 8": [
        ("value", "379.8110302239801762855055", 1.0000016838613392e-16),
        ("value", "382.4235416529381225842273", 1.0000000043110648e-16),
        ("value", "0.4283689125240732966415071", 3.982625856574495e-25),
    ],
}


@pytest.mark.parametrize("argv", list(PINNED_EXACT))
def test_exact_digits_pinned_and_err_no_larger(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == EXIT_OK
    got = [(key[:-4], row[key], row[key[:-4] + "_err"])
           for row in json.loads(out)["rows"] for key in row if key.endswith("_dec")]
    pinned = PINNED_EXACT[argv]
    assert [g[:2] for g in got] == [p[:2] for p in pinned]
    assert all(g[2] <= p[2] for g, p in zip(got, pinned))


@pytest.mark.parametrize("argv", [
    "exact moments --n 100 --k 9",
    "exact moments --n 9007199254740993",
    "exact relerr --n 200 --m 199",
    "exact relerr --n 10 --m 9",
    "approx moments --n 100 --k 9",
])
def test_refused_arguments_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_USAGE
    assert out == ""
    assert json.loads(err)["kind"] == "usage"


def test_exact_moments_of_order_zero_are_one(capsys):
    code, out, _ = run_cli(capsys, "exact", "moments", "--n", "100", "--k", "0")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [r["value"] for r in rows[:2]] == [1.0, 1.0]


def test_csv_leaves_missing_columns_empty(capsys):
    code, out, _ = run_cli(capsys, "approx", "cdf", "--n", "10000", "--x", "1.0", "--z", "1.0",
                           "--output", "csv")
    assert code == EXIT_OK
    header, pass_row, collision_row = csv.reader(io.StringIO(out))
    assert pass_row[header.index("z")] == ""
    assert collision_row[header.index("x")] == ""


def test_delta_tv_is_a_distance_at_a_large_poisson_mean(capsys):
    # mu = 992.5: every Poisson term of the upward recurrence underflowed to 0
    code, out, _ = run_cli(capsys, "simulate", "delta", "--kind", "inversion", "--n", "1000",
                           "--m", "999", "--trials", "1000")
    assert code == EXIT_OK
    assert 0.0 <= json.loads(out)["rows"][0]["tv_distance"] <= 1.0


# (value, exact) of each row of `approx cdf`/`pmf`, pass side then collision
# side, pinned: the lattice value of each point comes from `_lattice_index`
PINNED_APPROX = {
    "approx cdf --n 4 --x 0.5 --z 1.0": [
        (0.6638185270206666, 0.6666666666666666),
        (0.6264732379869098, 0.625),
    ],
    "approx cdf --n 100 --x 1.0 --z 1.0": [
        (0.5091132989628522, 0.5091150707485513),
        (0.43465915417811957, 0.43465914140023476),
    ],
    "approx cdf --n 100 --x 2.5 --z 0.1": [
        (0.9858656824274051, 0.9858885539747445),
        (0.009999993756233557, 0.01),
    ],
    "approx cdf --n 100 --x 9.9 --z 10.0": [
        (1.0, 1.0),
        (1.0, 1.0),
    ],
    "approx cdf --n 10000 --x 1.0 --z 1.0": [
        (0.40463829718172145, 0.404638297192068),
        (0.39751969469190546, 0.39751969469229476),
    ],
    "approx cdf --n 10000 --x 0.37 --z 2.0": [
        (0.07159481240468361, 0.07159481240434654),
        (0.8678172457420049, 0.8678172457493822),
    ],
    "approx pmf --n 4 --x 0.5 --z 1.0": [
        (0.4136621289186804, 0.4166666666666667),
        (0.3770006026478678, 0.375),
    ],
    "approx pmf --n 100 --x 1.0 --z 1.0": [
        (0.0641963693848893, 0.06419717973894914),
        (0.06281572101715545, 0.06281565095552948),
    ],
    "approx pmf --n 100 --x 2.5 --z 0.1": [
        (0.005895226836303873, 0.005893604572262813),
        (0.009999994502900223, 0.01),
    ],
    "approx pmf --n 100 --x 9.9 --z 10.0": [
        (5.252076755818138e-62, 1.071510288125467e-158),
        (1.63685724738926e-36, 9.332621544394415e-43),
    ],
    "approx pmf --n 10000 --x 1.0 --z 1.0": [
        (0.006105290665017148, 0.0061052906656931406),
        (0.006085659649629108, 0.00608565964957278),
    ],
    "approx pmf --n 10000 --x 0.37 --z 2.0": [
        (0.0035479815259988993, 0.003547981525979114),
        (0.0026976072292418806, 0.0026976072296044447),
    ],
}


@pytest.mark.parametrize("argv", list(PINNED_APPROX))
def test_approx_cdf_pmf_grid_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    t = argv.split()[1]
    assert [r["target"] for r in rows] == [f"scaled-pass-{t}", f"scaled-collision-{t}"]
    assert [(r["value"], r["exact"]) for r in rows] == PINNED_APPROX[argv]


@pytest.mark.parametrize("argv", [
    "approx pmf --n 1000000000000000000 --x 0 --z 1e-9",
    "approx cdf --n 1000000000000000000 --x 0 --z 1e-9",
    "approx cdf --n 1000000000000 --x 2e-6 --z 2e-6",
    "approx pmf --n 1000000000000 --x 2e-6 --z 2e-6",
])
def test_approx_cdf_pmf_exact_column_is_the_fraction_law(capsys, argv):
    # at the lattice's foot both survivals are near 1; their float difference read 0.0
    # for 1e-18 and kept five digits of 6e-12
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == EXIT_OK
    t, n = argv.split()[1], int(argv.split()[3])
    for row, (kind, point) in zip(json.loads(out)["rows"], (("pass", "x"), ("collision", "z"))):
        fraction_law = exact.pass_cdf_fraction if kind == "pass" else exact.collision_sf_fraction
        m = round(row[point] * math.sqrt(n)) - exact.LATTICES[kind][1]  # P{value >= v} index
        sf, sf_next = (fraction_law(n, w) if w < n else 0 for w in (m, m + 1))
        ref = float(1 - sf_next if t == "cdf" else sf - sf_next)
        assert row["exact"] == pytest.approx(ref, rel=1e-14, abs=0.0), row


def test_approx_pmf_at_the_lowest_pass_value(capsys):
    code, out, _ = run_cli(capsys, "approx", "pmf", "--n", "100", "--x", "0")
    assert code == EXIT_OK
    (row,) = json.loads(out)["rows"]
    assert row["value"] == pytest.approx(row["exact"], rel=1e-6)


@pytest.mark.parametrize("argv", [
    "exact moments --n 100 --k 9",
    "approx moments --n 100 --k 9",
    "exact moments --n 100 --k -1",
    "approx moments --n 100 --k -1",
])
def test_moment_order_limit_message_unchanged(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (EXIT_USAGE, "")
    assert err == '{"error": "moment order supported for 0 <= k <= 8", "kind": "usage"}\n'


def test_simulate_kind_choices_are_both_kind_lists():
    # the literal keeps `simulate --help` from importing numpy; it must stay
    # the law kinds followed by the match kinds
    simulate = cli.build_parser()._subparsers._group_actions[0].choices["simulate"]
    kind = next(a for a in simulate._actions if a.dest == "kind")
    assert tuple(kind.choices) == (*montecarlo.LAW_KINDS, *montecarlo.MATCH_KINDS)
