"""The traced run's layer sweep: one pass over every layer with fixed,
seeded inputs, giving the per-layer metrics named in BENCHMARK.json.

The sweep runs one round of each in-process workload, each verification
suite, every cli-cold command through a warm in-process ``cli.main``, and
short loops over single calls into hpreal, sorters, poisson_approx and
asymptotics.  A second pass repeats the exact-lattice round under the
HPReal counting wrappers; draws are counted during the mc-sampling round.
"""

from __future__ import annotations

import io
import json
import random
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stdout
from fractions import Fraction

import references as R
import workloads as W
from tracer import NullTracer, Tracer, count_draws, count_hpreal_ops

SWEEP_INDEX = 1 << 20  # round index of the sweep's inputs, apart from timed rounds
PROBE_REPEATS = 5

VERIFY_SUITES = ("paper-values", "enumeration", "inversion-lemma", "opcount-lemmas",
                 "stein-chen", "rayleigh-ks", "asymptotic-orders", "optimal-shift", "montecarlo")


def _timed_loop(tr: Tracer, name: str, reps: int, fn, *args) -> None:
    """PROBE_REPEATS spans, each around ``reps`` calls of fn(*args)."""
    def loop():
        for _ in range(reps):
            fn(*args)
    for _ in range(PROBE_REPEATS):
        tr.call(name, loop)


def _per_call(tr: Tracer, name: str, reps: int, scale: float) -> float:
    return statistics.median(tr.durations(name)) / reps * scale


def interpreter_wall_s() -> float:
    """Wall time of one bare ``python -c pass``: the floor of every CLI call."""
    import time

    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=W.ROOT, env=W.child_env(),
                   check=True, timeout=W.SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - t


def sweep(seed: int, problems: list[str]) -> tuple[dict, Tracer, list]:
    """Run every layer once; returns (metric values, tracer with the spans,
    the outcome of each operation: workload-round outputs, verification
    suites and warm CLI commands, a Failed for each that failed)."""
    from collisort import asymptotics, cli, poisson_approx, sorters, verification
    from collisort.hpreal import HPReal, hp

    tr = Tracer()
    v: dict[str, float] = {}
    outcomes: list = []
    rng = random.Random(f"sweep:{seed}")

    # hpreal: fixed operands
    a, b = hp(Fraction(1, 3)), hp(Fraction(7, 11))
    c = hp(Fraction(37, 100))
    q = Fraction(355, 113)
    for name, reps, fn, args, key in (
        ("hpreal.mul", 20_000, HPReal.__mul__, (a, b), "mul_us"),
        ("hpreal.div", 5_000, HPReal.__truediv__, (a, b), "div_us"),
        ("hpreal.pow_int", 2_000, HPReal.pow_int, (b, 1001), "pow_int_us"),
        ("hpreal.exp", 200, HPReal.exp, (c,), "exp_us"),
        ("hpreal.from_fraction", 5_000, HPReal.from_fraction, (q,), "from_fraction_us"),
    ):
        _timed_loop(tr, name, reps, fn, *args)
        v[f"hpreal.{key}"] = _per_call(tr, name, reps, 1e6)
    if not R.within_err(HPReal.from_fraction(q).decimal_string(25), HPReal.from_fraction(q).err, q):
        problems.append("HPReal.from_fraction(355/113) outside err")

    # workload rounds: exact-lattice and mc-sampling, draws counted per span
    for wl in (W.EXACT_LATTICE, W.WORKLOADS["mc-sampling"]):
        inp = wl.inputs(seed, SWEEP_INDEX)
        draws: dict = defaultdict(int)
        with tr.span(f"round.{wl.name}"), count_draws(tr, draws):
            out = wl.run(inp, tr)
        outcomes += out
        problems += wl.check(inp, out)
        if wl.name == "mc-sampling":
            coll = [x for (name, _, _), x in zip(W.MC_OPS, out) if name.startswith(
                "montecarlo.collision_counts")]
            coll_draws = draws["montecarlo.collision_counts_n365"] + draws[
                "montecarlo.collision_counts_n1e4"]
            trials = sum(len(x) for x in coll if not isinstance(x, W.Failed))
            v["montecarlo.collision_draws_per_trial"] = coll_draws / trials
            v["montecarlo.collision_draw_efficiency"] = sum(
                int(x.sum()) for x in coll if not isinstance(x, W.Failed)) / coll_draws
            v["montecarlo.pass_draws_per_trial"] = draws["montecarlo.pass_counts"] / 100_000

    sums = {
        "exact.pass_moment_s": "exact.pass_moment",
        "exact.collision_moment_s": "exact.collision_moment",
        "exact.charfn_s": "exact.charfn",
        "montecarlo.ks_pass_s": "montecarlo.ks_pass",
        "montecarlo.ks_collision_s": "montecarlo.ks_collision",
        **{f"{name}_s": name for name, _, _ in W.MC_OPS},
    }
    for metric, name in sums.items():
        v[metric] = sum(tr.durations(name))
    for metric, name, scale in (
        ("exact.point_query_us", "exact.point_query", 1e6),
        ("exact.series_ms", "exact.series", 1e3),
        ("exact.sandwich_us", "exact.sandwich", 1e6),
        ("exact.optimal_shift_ms", "exact.optimal_shift", 1e3),
        ("exact.relerr_ms", "exact.relerr", 1e3),
    ):
        v[metric] = statistics.fmean(tr.durations(name)) * scale

    # sorters: permutations of n = 8 drawn from the seed
    perms = []
    for _ in range(500):
        p = list(range(1, 9))
        rng.shuffle(p)
        perms.append(tuple(p))

    def sort_all():
        return [[sorters.bubble_sort_instrumented(p, var) for var in sorters.VARIANTS]
                for p in perms]

    sorted_runs = tr.call("sorters.sort_instrumented", sort_all)
    tables = tr.call("sorters.inversion_table", lambda: [sorters.inversion_table(p) for p in perms])
    v["sorters.sort_instrumented_us"] = tr.durations("sorters.sort_instrumented")[0] / len(perms) * 1e6
    v["sorters.inversion_table_us"] = tr.durations("sorters.inversion_table")[0] / len(perms) * 1e6
    for p, runs, table in zip(perms, sorted_runs, tables):
        inversions = R.inversions(p)
        passes = R.bubble_passes(p)
        early = runs[1][1]
        if any(out != tuple(range(1, 9)) for out, _ in runs) or early.passes != passes \
                or early.bool_assignments != passes + inversions \
                or sum(table) != inversions or max(table) + 1 != passes:
            problems.append(f"sorters disagree with the reference sort on {p}")
    law = tr.call("sorters.enumerate_pass", sorters.enumerate_pass_distribution, 8)
    v["sorters.enumerate_pass_s"] = tr.durations("sorters.enumerate_pass")[0]
    for m in range(8):
        if sum(pr for k, pr in law.items() if k <= 8 - m) != R.pass_cdf_exact(8, m):
            problems.append(f"enumerate_pass_distribution(8) at m={m}")

    # poisson_approx: every instance SC-BOUND-ENUM covers
    instances = [("birthday", n, m) for n in range(2, poisson_approx.ENUM_BIRTHDAY_N + 1)
                 for m in range(1, n + 1)]
    instances += [("inversion", n, m) for n in range(2, poisson_approx.ENUM_INVERSION_N + 1)
                  for m in range(1, n)]
    tvs = tr.call("poisson_approx.tv_enumerated", lambda: [
        poisson_approx.tv_exact_enumerated(*inst) for inst in instances])
    v["poisson_approx.tv_enumerated_s"] = tr.durations("poisson_approx.tv_enumerated")[0]
    if not all(0.0 <= tv <= 1.0 for tv in tvs):
        problems.append("tv_exact_enumerated outside [0, 1]")
    families = (("birthday", 10_000, 100), ("inversion", 365, 22))
    for kind, n, m in families:
        family = (poisson_approx.birthday_family(n, m) if kind == "birthday"
                  else poisson_approx.inversion_family(n, m))
        _timed_loop(tr, "poisson_approx.stein_chen_bound", 1, poisson_approx.stein_chen_bound, family)
        mu = poisson_approx.stein_chen_bound(family).mu
        if abs(mu - R.pair_match_law(kind, n, m)[0]) > 1e-9 * mu:
            problems.append(f"stein_chen_bound mu for {kind}({n}, {m}): {mu!r}")
    v["poisson_approx.stein_chen_bound_ms"] = statistics.median(
        tr.durations("poisson_approx.stein_chen_bound")) * 1e3

    # asymptotics
    _timed_loop(tr, "asymptotics.stats_approx", 200, asymptotics.scaled_pass_stats_approx, 10_000)
    v["asymptotics.stats_approx_ms"] = _per_call(tr, "asymptotics.stats_approx", 200, 1e3)
    _timed_loop(tr, "asymptotics.em_residual", 1, asymptotics.euler_maclaurin_residual, 10_000, 0.15)
    v["asymptotics.em_residual_ms"] = _per_call(tr, "asymptotics.em_residual", 1, 1e3)
    stats = asymptotics.scaled_pass_stats_approx(10_000)
    if abs(stats.mean_approx - R.scaled_pass_moment(10_000, 1)) > 1e-9:
        problems.append(f"scaled_pass_stats_approx(10^4) mean {stats.mean_approx!r}")

    # verification: each suite `verify --suite all` runs
    for suite in VERIFY_SUITES:
        claims = W.attempt(tr, f"verification.{suite}", verification.run_suite, suite)
        outcomes.append(claims)
        v[f"verification.{suite}_s"] = tr.durations(f"verification.{suite}")[0]
        if not isinstance(claims, W.Failed):
            problems += [f"claim {c.claim_id} {c.status}" for c in claims
                         if c.status not in ("PASS", "NOTE")]

    # cli: interpreter floor, fresh import, warm main and emit per cli-cold command
    v["cli.interpreter_s"] = statistics.median(
        tr.call("cli.interpreter", interpreter_wall_s) for _ in range(PROBE_REPEATS))
    v["cli.import_s"] = W.fresh_import_s(PROBE_REPEATS, tr)
    cold = W.WORKLOADS["cli-cold"]
    emitted = []
    for argv in cold.inputs(seed, SWEEP_INDEX)["commands"]:
        try:
            text = W.warm_cli_main(argv, tr)
        except Exception as exc:  # the failure is the program's; keep sweeping
            text = W.Failed(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
        outcomes.append(text)
        if isinstance(text, W.Failed):
            continue
        payload = json.loads(text)
        problems += [f"warm {' '.join(argv)}: {b}" for b in W.check_cli_rows(argv, payload["rows"])]
        emitted.append(payload["rows"])
    v["cli.main_ms"] = statistics.fmean(tr.durations("cli.main")) * 1e3
    with redirect_stdout(io.StringIO()):
        for rows in emitted:
            tr.call("cli.emit", cli.emit_rows, rows, "json", None)
    v["cli.emit_ms"] = statistics.fmean(tr.durations("cli.emit")) * 1e3

    for layer, t in tr.self_times().items():
        v[f"{layer}.self_s"] = t

    # HPReal operations in one exact-lattice round, counted apart from the timing
    wl = W.EXACT_LATTICE
    counts = {"mul": 0, "div": 0}
    inp = wl.inputs(seed, SWEEP_INDEX)
    with count_hpreal_ops(counts):
        out = wl.run(inp, NullTracer())
    outcomes += out
    problems += wl.check(inp, out)
    v["hpreal.mul_calls"] = counts["mul"]
    v["hpreal.div_calls"] = counts["div"]
    return v, tr, outcomes
