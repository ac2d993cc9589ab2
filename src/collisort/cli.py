"""Command-line surface: exact values, approximations, simulation, verification.

Output is machine readable: JSON ({"schema_version": 1, "rows": [...]}) or
RFC-4180 CSV with identical numeric payloads.  High-precision values are
printed as 25-significant-digit decimal strings next to an explicit err
column.  All commands are deterministic given their flags; simulation
seeds default to a fixed constant (pass --randomize for entropy seeding).

Exit codes: 0 ok, 1 assertion or claim failure, 2 usage error,
3 resource-bound error, 4 internal error (an unexpected exception; it is
reported as {"error": ..., "kind": "internal"} and never as a failed claim).
`verify` reads no number, so any exception raised inside a suite, a
ValueError or a ResourceBoundError too, is an internal error; only its
--suite and --output-path checks give a usage error.

Each command imports only the modules it uses: `exact` loads hpreal and
exact, plus powersums for `series`; `approx` adds asymptotics and
powersums, and distributions or quadrature only for `charfn` or
`em-check`.  Only `simulate` and the `verify` suites that the
`verification` docstring names import numpy.  `verify --suite all` on two
or more usable CPUs forks one worker, before numpy is imported, for part of
its claims (`verification.WORKER_GROUPS`); each process imports numpy for
the sampling claims it runs.  No command imports subprocess.

Of the standard library, `import collisort.cli` loads argparse and json,
with gettext, collections, re, functools and enum beneath them.  An `exact`
or `approx` command adds fractions, with the decimal and numbers it
imports, for hpreal and exact; importlib (which resolves the lazy names of
`collisort`); and the shutil and locale that argparse imports while it
builds the parser.  Only `approx charfn` adds cmath.  No module
imports dataclasses, which would bring inspect, ast, dis and tokenize
(about 6 ms in a fresh interpreter): the value records are
`collections.namedtuple` classes, and annotations take `collections.abc`,
not typing.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _hp_columns(value: HPReal, prefix: str = "value") -> dict:
    return {
        prefix: float(value),
        f"{prefix}_dec": value.decimal_string(25),
        f"{prefix}_err": value.err,
    }


def _summary_row(summary) -> dict:
    return {k: v for k, v in summary._asdict().items() if v is not None}


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def _cmd_exact(args) -> tuple[list[dict], int]:
    from . import exact

    t = args.target
    rows: list[dict] = []
    if t in ("collision-sf", "pass-cdf"):
        rows.append({"target": t, "n": args.n, "m": args.m,
                     **_hp_columns(getattr(exact, t.replace("-", "_"))(args.n, args.m))})
    elif t == "series":
        for target, series in (("collision-sf-series", exact.collision_sf_series),
                               ("pass-cdf-series", exact.pass_cdf_series)):
            rows.append({"target": target, "n": args.n, "m": args.m, "depth": args.depth,
                         **_hp_columns(series(args.n, args.m, args.depth))})
    elif t == "sandwich":
        lower, upper = exact.sandwich_bounds(args.n, args.m)
        mid = exact.pass_cdf(args.n, args.m)
        rows.append({
            "target": t, "n": args.n, "m": args.m,
            **_hp_columns(lower, "lower"),
            **_hp_columns(mid, "pass_cdf"),
            **_hp_columns(upper, "upper"),
            "bracketed": bool(lower <= mid <= upper),
        })
    elif t == "relerr":
        for kind, report in (
            ("common", exact.relative_error_common(args.n, args.m)),
            ("shifted", exact.relative_error_shifted(args.n, args.m)),
        ):
            rows.append({
                "target": t, "kind": kind, "n": args.n, "m": args.m,
                **_hp_columns(report.exact_ratio, "exact_ratio"),
                "relative_error": report.relative_error,
                "asymptotic_formula_value": report.asymptotic_formula_value,
            })
    elif t == "optimal-shift":
        brute, asym = exact.optimal_shift(args.n, args.m)
        rows.append({"target": t, "n": args.n, "m": args.m,
                     "brute_force_shift": brute, "asymptotic_shift": asym})
    elif t == "moments":
        for kind in ("pass", "collision"):
            rows.append({"target": f"scaled-{kind}-moment", "n": args.n, "k": args.k,
                         **_hp_columns(getattr(exact, f"scaled_{kind}_moment")(args.n, args.k))})
        rows.append({"target": "scaled-pass-variance", "n": args.n,
                     **_hp_columns(exact.scaled_pass_variance(args.n))})
    return rows, EXIT_OK


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------


def _with_reference(value: float, reference: float) -> dict:
    return {
        "value": value,
        "exact": reference,
        "abs_error": abs(value - reference),
        "rel_error": abs(value - reference) / abs(reference) if reference else math.inf,
    }


def _cmd_approx(args) -> tuple[list[dict], int]:
    from . import asymptotics, exact

    t = args.target
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")
    for name in ("x", "z", "t", "epsilon"):
        if not math.isfinite(getattr(args, name) or 0.0):
            raise ValueError(f"--{name} must be finite, got {name}={getattr(args, name)}")
    if n > sys.float_info.max:  # every expansion takes sqrt(n) in doubles
        raise ValueError(f"--n must be at most {sys.float_info.max!r}, the double range, got {n}")
    rows: list[dict] = []
    if t == "varrho":
        if args.x is None:
            raise ValueError("varrho target needs --x")
        value = asymptotics.scaled_pass_survival_expansion(n, args.x)
        rows.append({"target": t, "n": n, "x": args.x, "value": value})
        try:  # an exact column only where x*sqrt(n) is a lattice point 0..n-1
            rows[0].update(_with_reference(
                value, float(asymptotics.scaled_pass_survival(n, args.x))))
        except ValueError:
            pass
    elif t in ("cdf", "pmf"):
        for kind, arg in (("pass", "x"), ("collision", "z")):  # each side's lattice and option
            point = getattr(args, arg)
            if point is None:
                continue
            # scaled_pass_cdf_approx and its siblings reject points off the lattice
            what = f"scaled_{kind}_{t}_approx"
            value = getattr(asymptotics, what)(n, point)
            v = asymptotics._lattice_index(kind, n, point, what)  # n - P or C - 1
            sf, sf_next = (exact.lattice_sf(kind, n, w) for w in (v, v + 1))
            # differenced in HPReal: both survivals are near 1 at the lattice's foot
            reference = float(1.0 - sf_next if t == "cdf" else sf - sf_next)
            rows.append({"target": f"scaled-{kind}-{t}", "n": n, arg: point,
                         **_with_reference(value, reference)})
        if not rows:
            raise ValueError(f"{t} target needs --x (pass side) and/or --z (collision side)")
    elif t == "moments":
        rows.append({
            "target": t, "n": n, "k": args.k,
            **_with_reference(asymptotics.scaled_pass_moment_approx(n, args.k),
                              float(exact.scaled_pass_moment(n, args.k))),
        })
    elif t == "charfn":
        value = asymptotics.scaled_pass_charfn_approx(n, args.t)
        ref = exact.scaled_pass_charfn_exact(n, args.t)
        rows.append({
            "target": t, "n": n, "t": args.t,
            "value_re": value.real, "value_im": value.imag,
            "exact_re": ref.real, "exact_im": ref.imag,
            "abs_error": abs(value - ref),
        })
    elif t == "stats":
        stats = asymptotics.scaled_pass_stats_approx(n)
        references = (exact.scaled_pass_moment(n, 1), exact.scaled_pass_moment(n, 2),
                      exact.scaled_pass_variance(n))
        for target, value, reference in zip(("mean", "second-moment", "variance"), stats,
                                            references):
            rows.append({"target": target, "n": n, **_with_reference(value, float(reference))})
    elif t == "opt-deltas":
        deltas = asymptotics.expected_opcount_deltas(n)
        exact_deltas = asymptotics.ExpectedOpDeltas.exact(n)
        rows.append({
            "target": "comparison-reduction", "n": n,
            **_with_reference(deltas.comparison_reduction, exact_deltas.comparison_reduction),
        })
        for name in ("flag_writes_early_exit", "flag_writes_variant"):
            rows.append({"target": name.replace("_", "-"), "n": n, "value": getattr(deltas, name)})
    elif t == "em-check":
        rows.append({
            "target": t, "n": n, "epsilon": args.epsilon,
            "residual": asymptotics.euler_maclaurin_residual(n, args.epsilon),
        })
    return rows, EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> tuple[list[dict], int]:
    from . import montecarlo, poisson_approx

    if args.randomize:
        if args.seed is not None:
            raise ValueError(f"--seed {args.seed} and --randomize exclude each other: "
                             "--randomize replaces the seed with OS entropy")
        import secrets

        args.seed = secrets.randbits(63)
    elif args.seed is None:
        args.seed = montecarlo.DEFAULT_SEED
    for option, value in (("--seed", args.seed), ("--stream-id", args.stream_id)):
        if value < 0:
            raise ValueError(f"{option} must be >= 0, got {value}")
    stream = montecarlo.SeededStream(args.seed, args.stream_id)
    code = EXIT_OK
    rows: list[dict] = []
    if args.target == "law":
        summary = montecarlo.empirical_law(args.kind, args.n, args.trials, stream)
        row = _summary_row(summary)
        crit = montecarlo.ks_critical_1pct(args.trials)
        row["ks_critical_1pct"] = crit
        rows.append(row)
        if args.check and summary.ks_exact >= crit:
            code = EXIT_FAILURE
    elif args.target == "delta":
        summary = montecarlo.empirical_pair_matches(args.kind, args.n, args.m, args.trials, stream)
        family = poisson_approx.match_family(args.kind, args.n, args.m)
        bound = poisson_approx.stein_chen_bound(family).tv_bound
        row = _summary_row(summary)
        row["tv_bound"] = bound
        row["within_bound"] = bool(summary.tv_distance <= montecarlo.tv_limit(bound, summary.tv_se))
        rows.append(row)
        if args.check and not row["within_bound"]:
            code = EXIT_FAILURE
    elif args.target == "opcounts":
        counters = montecarlo.empirical_opcounts(args.n, args.trials, stream)
        deviations = montecarlo.opcount_deviations(args.n, counters)
        for name in sorted(deviations):
            row = _summary_row(counters[name])
            row["expected"], row["deviation_se"] = deviations[name]
            rows.append(row)
            if args.check and row["deviation_se"] > montecarlo.OPCOUNT_SE:
                code = EXIT_FAILURE
    return [{**row, "seed": args.seed} for row in rows], code


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class _Defect(Exception):
    """Wraps an exception that no argument can have caused, so it exits 4 whatever its type."""


def _cmd_verify(args) -> tuple[list[dict], int]:
    from . import verification

    try:
        results = verification.run_suite(args.suite)
    except Exception as exc:  # the suites are fixed: no error inside one is the caller's
        raise _Defect from exc
    code = EXIT_FAILURE if any(c.failed for c in results) else EXIT_OK
    return [c._asdict() for c in results], code


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def emit_rows(rows: list[dict], fmt: str, path: str | None) -> None:
    if fmt == "json":
        text = json.dumps({"schema_version": 1, "rows": rows}, indent=2)
    elif fmt == "csv":
        import csv
        import io

        buf = io.StringIO()  # csv writes None as an empty cell and a float by its repr
        writer = csv.DictWriter(buf, dict.fromkeys(key for row in rows for key in row))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue().rstrip("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _output_path_error(path, exc) from exc
    else:
        print(text)


def _refuse_output_path(path: str) -> None:
    """Before the command runs, refuse as open() would an --output-path that is
    a directory or whose directory cannot be reached; touches no file."""
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        os.stat(os.path.dirname(path.rstrip(os.sep)) or os.curdir)  # "new/" names new
    except OSError as exc:
        raise _output_path_error(path, exc) from exc


def _output_path_error(path: str, exc: OSError) -> ValueError:
    return ValueError(f"--output-path {path!r}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collisort",
        description="Exact and asymptotic bubble-sort pass / birthday collision laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--output-path", default=None)

    p_exact = sub.add_parser("exact", help="high-precision exact values")
    p_exact.add_argument("target", choices=(
        "collision-sf", "pass-cdf", "series", "sandwich", "relerr",
        "optimal-shift", "moments"))
    p_exact.add_argument("--n", type=int, required=True)
    p_exact.add_argument("--m", type=int, default=0)
    p_exact.add_argument("--k", type=int, default=1)
    p_exact.add_argument("--depth", type=int, default=None)
    add_common(p_exact)

    p_approx = sub.add_parser("approx", help="asymptotic approximations")
    p_approx.add_argument("target", choices=(
        "varrho", "cdf", "pmf", "moments", "charfn", "stats", "opt-deltas", "em-check"))
    p_approx.add_argument("--n", type=int, required=True)
    p_approx.add_argument("--x", type=float, default=None)
    p_approx.add_argument("--z", type=float, default=None)
    p_approx.add_argument("--t", type=float, default=0.0)
    p_approx.add_argument("--k", type=int, default=1)
    p_approx.add_argument("--epsilon", type=float, default=0.15)
    add_common(p_approx)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo")
    p_sim.add_argument("target", choices=("law", "delta", "opcounts"))
    p_sim.add_argument("--kind", choices=("pass", "collision", "birthday", "inversion"),
                       default="pass")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--m", type=int, default=0)
    p_sim.add_argument("--trials", type=int, default=10**5)
    p_sim.add_argument("--seed", type=int, default=None)  # None: montecarlo.DEFAULT_SEED
    p_sim.add_argument("--stream-id", type=int, default=0)
    p_sim.add_argument("--randomize", action="store_true",
                       help="replace the fixed default seed with OS entropy")
    p_sim.add_argument("--assert", dest="check", action="store_true",
                       help="exit 1 when the built-in tolerance check fails")
    add_common(p_sim)

    p_verify = sub.add_parser("verify", help="named verification suites")
    # set after add_argument, which would list them and so import verification
    p_verify.add_argument("--suite", default="all").choices = _SuiteNames()
    add_common(p_verify)
    return parser


class _SuiteNames:
    """sorted(verification.SUITES) + ["all"], read only to check or print --suite."""

    def __iter__(self):  # `in` falls back to iteration
        from .verification import SUITES

        return iter(sorted(SUITES) + ["all"])


_DISPATCH = {
    "exact": _cmd_exact,
    "approx": _cmd_approx,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output_path:
            _refuse_output_path(args.output_path)
        rows, code = _DISPATCH[args.command](args)
        emit_rows(rows, args.output, args.output_path)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(json.dumps({"error": str(exc), "kind": "usage"}), file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a module raises ResourceBoundError only after importing sorters
        from .sorters import ResourceBoundError

        if isinstance(exc, ResourceBoundError):
            print(json.dumps({"error": str(exc), "kind": "resource"}), file=sys.stderr)
            return EXIT_RESOURCE
        if isinstance(exc, _Defect):
            exc = exc.__cause__
        # a crash must not read as a failed claim (exit 1)
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}", "kind": "internal"}),
              file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
