"""The workloads: inputs made from the seed, one round of calls into
collisort, and the checks of that round's outputs.

Every workload is a closed loop: one caller, each call sent after the
previous one returned.  A round is a fixed list of operations; an
operation that raises or exits non-zero counts as failed, and every other
output is checked against ``references`` or against a property the method
must have.  Checks run outside the timed part of a round.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import references as R
from tracer import NullTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUBPROCESS_TIMEOUT_S = 60  # one call; a run must end within 180 s
# prints the seconds a fresh interpreter spends importing the whole package
_IMPORT_PROBE = ("import time; t = time.perf_counter()\nimport collisort.cli\n"
                "print(time.perf_counter() - t)")

# one thread everywhere: numpy's BLAS pools stay single-threaded
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# statistical thresholds: a correct sampler fails one of these with
# probability below about 1e-8 (mean, variance) or 1e-6 (KS) per check
MEAN_SE = 6.0
KS_COEFF = math.sqrt(math.log(2.0 / 1e-6) / 2.0)  # D_crit = KS_COEFF / sqrt(N)

STABLE_CLAIM_IDS = frozenset("""
ENUM-BDAY-N1 ENUM-BDAY-N2 ENUM-BDAY-N3 ENUM-BDAY-N4 ENUM-BDAY-N5 ENUM-BDAY-N6
ENUM-PASS-N1 ENUM-PASS-N2 ENUM-PASS-N3 ENUM-PASS-N4 ENUM-PASS-N5 ENUM-PASS-N6
ENUM-PASS-N7 KS-COLL KS-PASS LEMMA-MAXV-N8 MC-OPCOUNT-MEANS MC-PASS-LAW-KS
N1E4-EX2N N1E4-EXN N1E4-STATS N1E4-VXN N358-M22-COLLSF OPS-FLAGS-EARLY-N8
OPS-FLAGS-VARIANT-N8 OPS-REDUCTION-N8 OPS-SORTED-N8 ORD-CDF-COLL ORD-CDF-PASS
ORD-EM-RESIDUAL ORD-SURVIVAL P365-M22-COLLSF P365-M22-PASSCDF SC-BOUND-ENUM
SC-BOUND-MC-365-22 SHIFT-1000-16 SHIFT-365-22 SHIFT-5000-40
""".split())


class Failed:
    """Outcome of an operation that raised or exited non-zero."""

    def __init__(self, why: str):
        self.why = why

    def __repr__(self):
        return f"Failed({self.why})"


def attempt(tr, name, fn, *args):
    """Call one operation; an exception becomes a Failed outcome."""
    try:
        return tr.call(name, fn, *args)
    except Exception as exc:  # the round goes on; the failure is counted
        return Failed(f"{name}: {type(exc).__name__}: {exc}")


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str]):
    """One fresh ``python -m collisort.cli`` process; parsed JSON or Failed."""
    proc = subprocess.run(
        [sys.executable, "-m", "collisort.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return Failed(f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def fresh_import_s(repeats: int, tr=NullTracer()) -> float:
    """Median over ``repeats`` fresh interpreters of ``import collisort.cli``."""
    times = []
    for _ in range(repeats):
        proc = tr.call("cli.import", subprocess.run, [sys.executable, "-c", _IMPORT_PROBE],
                       cwd=ROOT, env=child_env(), capture_output=True, text=True,
                       timeout=SUBPROCESS_TIMEOUT_S, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


# ---------------------------------------------------------------------------
# exact-lattice
# ---------------------------------------------------------------------------


class ExactLattice:
    """In-process exact laws: moments, KS and charfn at n near 10^6, plus
    point queries, series forms, sandwich, optimal shift and relative
    errors at n <= 10^4.  Each round draws fresh n.

    Not a timed workload: the traced run's layer sweep uses its round for
    the exact, lattice-KS and HPReal-count metrics (see README.md for why
    it was dropped from BENCHMARK.json)."""

    name = "exact-lattice"
    in_process = True

    def inputs(self, seed: int, index: int) -> dict:
        rng = round_rng(self.name, seed, index)
        big = lambda: rng.randrange(990_000, 1_010_001)  # noqa: E731

        def small_pair(lo, hi, mult):
            n = rng.randrange(lo, hi + 1)
            return n, rng.randrange(1, min(n - 1, int(mult * math.sqrt(n))) + 1)

        series = []
        for _ in range(2):
            n, m = small_pair(100, 10_000, 2.0)
            series.append(("collision", n - rng.uniform(0.05, 0.95), m))
            n, m = small_pair(100, 10_000, 2.0)
            series.append(("pass", n, m))
        return {
            "n_pass": big(), "n_coll": big(), "t": rng.uniform(0.2, 2.0),
            "points": [small_pair(50, 10_000, 3.0) for _ in range(6)],
            "series": series,
            "sandwich": [small_pair(50, 10_000, 2.0) for _ in range(2)],
            "shift": (rng.randrange(300, 5001), rng.randrange(10, 41)),
            "relerr": small_pair(300, 10_000, 2.0),
        }

    def run(self, inp: dict, tr) -> list:
        from collisort import exact, montecarlo

        # a fresh process pays the uncached cost; keep the caches out of it
        exact.scaled_pass_moment.cache_clear()
        exact.scaled_collision_moment.cache_clear()
        n_p, n_c = inp["n_pass"], inp["n_coll"]
        out = [attempt(tr, "exact.pass_moment", exact.scaled_pass_moment, n_p, k) for k in (1, 2)]
        out += [attempt(tr, "exact.collision_moment", exact.scaled_collision_moment, n_c, k)
                for k in (1, 2)]
        out.append(attempt(tr, "montecarlo.ks_pass", montecarlo.exact_law_ks_vs_rayleigh, "pass", n_p))
        out.append(attempt(tr, "montecarlo.ks_collision", montecarlo.exact_law_ks_vs_rayleigh,
                           "collision", n_c))
        out.append(attempt(tr, "exact.charfn", exact.scaled_pass_charfn_exact, n_p, inp["t"]))
        for n, m in inp["points"]:
            out.append(attempt(tr, "exact.point_query", exact.pass_cdf, n, m))
            out.append(attempt(tr, "exact.point_query", exact.collision_sf, n, m))
        for kind, n, m in inp["series"]:
            fn = exact.collision_sf_series if kind == "collision" else exact.pass_cdf_series
            out.append(attempt(tr, "exact.series", fn, n, m))
        for n, m in inp["sandwich"]:
            out.append(attempt(tr, "exact.sandwich", exact.sandwich_bounds, n, m))
        out.append(attempt(tr, "exact.optimal_shift", exact.optimal_shift, *inp["shift"]))
        out.append(attempt(tr, "exact.relerr", exact.relative_error_common, *inp["relerr"]))
        out.append(attempt(tr, "exact.relerr", exact.relative_error_shifted, *inp["relerr"]))
        return out

    def check(self, inp: dict, out: list) -> list[str]:
        bad: list[str] = []
        n_p, n_c = inp["n_pass"], inp["n_coll"]
        rho, sf = R.pass_survival(n_p), R.collision_survival(n_c)
        outs = iter(out)

        def take():
            return next(outs)

        def hp_near(label, v, ref, rel=R.FLOAT_REL_TOL):
            if isinstance(v, Failed):
                return
            if not abs(float(v) - ref) <= v.err + rel * abs(ref):
                bad.append(f"{label}: {float(v)!r} vs reference {ref!r}")

        def hp_exact(label, v, ref: Fraction, extra_rel=0.0):
            if isinstance(v, Failed):
                return
            if not R.within_err(v.decimal_string(25), v.err, ref, extra_rel):
                bad.append(f"{label}: {v!r} vs exact {float(ref)!r}")

        for k in (1, 2):
            hp_near(f"scaled_pass_moment({n_p}, {k})", take(), R.scaled_pass_moment(n_p, k, rho))
        for k in (1, 2):
            hp_near(f"scaled_collision_moment({n_c}, {k})", take(),
                    R.scaled_collision_moment(n_c, k, sf))
        for kind, n, seq in (("pass", n_p, rho), ("collision", n_c, sf)):
            v = take()
            if not isinstance(v, Failed) and not abs(v - R.ks_rayleigh(kind, n, seq)) <= 1e-10:
                bad.append(f"KS {kind} at n={n}: {v!r}")
        v = take()
        if not isinstance(v, Failed) and not abs(v - R.scaled_pass_charfn(n_p, inp["t"], rho)) <= 1e-10:
            bad.append(f"charfn at n={n_p}: {v!r}")
        for n, m in inp["points"]:
            hp_exact(f"pass_cdf({n}, {m})", take(), R.pass_cdf_exact(n, m))
            hp_exact(f"collision_sf({n}, {m})", take(), R.collision_sf_exact(n, m))
        for kind, n, m in inp["series"]:
            # err covers rounding only; the log series stops once the next
            # term is below 1e-16 of the sum, so allow 1e-15 relative
            ref = R.collision_sf_exact(n, m) if kind == "collision" else R.pass_cdf_exact(n, m)
            hp_exact(f"{kind} series({n}, {m})", take(), ref, extra_rel=1e-15)
        for n, m in inp["sandwich"]:
            v = take()
            if isinstance(v, Failed):
                continue
            lower, upper = v
            hp_exact(f"sandwich lower({n}, {m})", lower, R.collision_sf_exact(n - (m - 1), m))
            hp_exact(f"sandwich upper({n}, {m})", upper, R.collision_sf_exact(n, m))
            mid = R.pass_cdf_exact(n, m)
            if not (lower.to_fraction() - Fraction(lower.err) <= mid
                    <= upper.to_fraction() + Fraction(upper.err)):
                bad.append(f"sandwich({n}, {m}) does not bracket pass_cdf within err")
        v = take()
        if not isinstance(v, Failed):
            bad += _check_shift(*inp["shift"], *v)
        n, m = inp["relerr"]
        pass_ref = R.pass_cdf_exact(n, m)
        for kind, ref, extra in (
            ("common", R.collision_sf_exact(n, m) / pass_ref, 0.0),
            ("shifted", R.collision_sf_exact(n - (m - 1) / 3.0, m) / pass_ref, 1e-15),
        ):
            v = take()
            if isinstance(v, Failed):
                continue
            hp_exact(f"relerr {kind}({n}, {m})", v.exact_ratio, ref, extra)
            if not abs(v.relative_error - (float(ref) - 1.0)) <= 1e-12:
                bad.append(f"relerr {kind}({n}, {m}) relative_error {v.relative_error!r}")
        return bad


def _check_shift(n: int, m: int, brute: int, asym: float) -> list[str]:
    devs = R.optimal_shift_deviations(n, m)
    bad = []
    if brute not in devs or devs[brute] > min(devs.values()) + Fraction(1, 10**12):
        bad.append(f"optimal_shift({n}, {m}) = {brute} is not the argmin")
    if asym != (m - 1) / 3.0:
        bad.append(f"optimal_shift({n}, {m}) asymptotic value {asym!r}")
    return bad


# ---------------------------------------------------------------------------
# mc-sampling
# ---------------------------------------------------------------------------

# (span name, sampler, arguments before the stream)
MC_OPS = (
    ("montecarlo.collision_counts_n365", "sample_collision_counts", (365, 50_000)),
    ("montecarlo.collision_counts_n1e4", "sample_collision_counts", (10_000, 10_000)),
    ("montecarlo.pass_counts", "sample_pass_counts", (10_000, 100_000)),
    ("montecarlo.pair_matches_birthday", "empirical_pair_matches", ("birthday", 10_000, 100, 10_000)),
    ("montecarlo.pair_matches_inversion", "empirical_pair_matches", ("inversion", 365, 22, 50_000)),
    ("montecarlo.opcounts_direct", "empirical_opcounts", (24, 2_000)),
    ("montecarlo.opcounts_identity", "empirical_opcounts", (10_000, 10_000)),
    ("montecarlo.summarize", "empirical_law", ("pass", 10_000, 20_000)),
    ("montecarlo.summarize", "empirical_law", ("collision", 365, 20_000)),
)


class McSampling:
    """In-process calls to the public samplers at the ROADMAP sizes; each
    round samples with fresh stream seeds."""

    name = "mc-sampling"
    in_process = True

    def __init__(self):
        self._refs: dict = {}

    def inputs(self, seed: int, index: int) -> dict:
        rng = round_rng(self.name, seed, index)
        return {"seeds": [(rng.getrandbits(63), rng.randrange(1 << 16)) for _ in MC_OPS]}

    def run(self, inp: dict, tr) -> list:
        from collisort import montecarlo

        return [
            attempt(tr, name, getattr(montecarlo, fn), *args, montecarlo.SeededStream(*s))
            for (name, fn, args), s in zip(MC_OPS, inp["seeds"])
        ]

    def _law(self, kind: str, n: int) -> dict:
        key = (kind, n)
        if key not in self._refs:
            if kind == "pass":
                seq = R.pass_survival(n)
                cdf = R.pass_cdf_lattice(n, seq)
                m1, m2 = R.scaled_pass_moment(n, 1, seq), R.scaled_pass_moment(n, 2, seq)
            else:
                seq = R.collision_survival(n)
                cdf = [0.0] + R.collision_cdf_lattice(n, seq)  # index j = C - 1
                m1, m2 = R.scaled_collision_moment(n, 1, seq), R.scaled_collision_moment(n, 2, seq)
            self._refs[key] = {"cdf": cdf, "mean": m1, "var": m2 - m1 * m1}
        return self._refs[key]

    def _check_sample(self, label, kind, n, lattice, bad):
        """lattice: sampled values of n - P (pass) or C - 1 (collision)."""
        import numpy as np

        ref = self._law(kind, n)
        trials = lattice.size
        scaled = lattice / math.sqrt(n)
        mean, var = float(scaled.mean()), float(scaled.var(ddof=1))
        if abs(mean - ref["mean"]) > MEAN_SE * math.sqrt(ref["var"] / trials):
            bad.append(f"{label}: mean {mean!r} vs exact {ref['mean']!r}")
        if not 0.8 <= var / ref["var"] <= 1.25:
            bad.append(f"{label}: variance {var!r} vs exact {ref['var']!r}")
        ecdf = np.cumsum(np.bincount(lattice)) / trials
        exact_cdf = np.ones(ecdf.size)
        k = min(ecdf.size, len(ref["cdf"]))
        exact_cdf[:k] = ref["cdf"][:k]
        ks = float(np.max(np.abs(ecdf - exact_cdf)))
        if ks >= KS_COEFF / math.sqrt(trials):
            bad.append(f"{label}: KS to the exact law {ks!r}")

    def _check_summary(self, label, s, trials, mean, var_lo, var_hi, bad):
        if s.sample_count != trials:
            bad.append(f"{label}: sample_count {s.sample_count}")
        if abs(s.mean - mean) > MEAN_SE * math.sqrt(var_hi / trials):
            bad.append(f"{label}: mean {s.mean!r} vs exact {mean!r}")
        if not 0.7 * var_lo <= s.variance <= 1.4 * var_hi:
            bad.append(f"{label}: variance {s.variance!r} outside [{var_lo!r}, {var_hi!r}]")

    def check(self, inp: dict, out: list) -> list[str]:
        import numpy as np

        bad: list[str] = []
        for (name, fn, args), v in zip(MC_OPS, out):
            if isinstance(v, Failed):
                continue
            label = f"{fn}{args}"
            if fn == "sample_collision_counts":
                n, trials = args
                v = np.asarray(v)
                if v.size != trials or v.min() < 2 or v.max() > n + 1:
                    bad.append(f"{label}: values outside 2..n+1 or wrong count")
                    continue
                self._check_sample(label, "collision", n, v - 1, bad)
            elif fn == "sample_pass_counts":
                n, trials = args
                v = np.asarray(v)
                if v.size != trials or v.min() < 1 or v.max() > n:
                    bad.append(f"{label}: values outside 1..n or wrong count")
                    continue
                self._check_sample(label, "pass", n, n - v, bad)
            elif fn == "empirical_pair_matches":
                kind, n, m, trials = args
                mean, var = R.pair_match_law(kind, n, m)
                self._check_summary(label, v, trials, mean, var, var, bad)
                if not _close(v.reference_mu, mean, 1e-9) or not 0.0 <= v.tv_distance <= 1.0:
                    bad.append(f"{label}: mu {v.reference_mu!r} or tv {v.tv_distance!r}")
            elif fn == "empirical_opcounts":
                n, trials = args
                for key, (mean, var_lo, var_hi) in R.opcount_expectations(n).items():
                    self._check_summary(f"{label}[{key}]", v[key], trials, mean, var_lo, var_hi, bad)
            else:  # empirical_law
                kind, n, trials = args
                ref = self._law(kind, n)
                self._check_summary(label, v, trials, ref["mean"], ref["var"], ref["var"], bad)
                if not v.ks_exact < KS_COEFF / math.sqrt(trials):
                    bad.append(f"{label}: ks_exact {v.ks_exact!r}")
        return bad


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


class VerifyAll:
    """One fresh-process ``collisort verify --suite all`` per round.  The
    claims are fixed by the program, so the seed selects nothing here."""

    name = "verify-all"
    in_process = False
    ARGV = ["verify", "--suite", "all"]

    def __init__(self):
        self._refs = None

    def inputs(self, seed: int, index: int) -> dict:
        return {"argv": list(self.ARGV)}

    def run(self, inp: dict, tr) -> list:
        return [attempt(tr, "cli.verify", run_cli, inp["argv"])]

    def references(self) -> dict:
        if self._refs is None:
            rho = R.pass_survival(10**4)
            e1, e2 = R.scaled_pass_moment(10**4, 1, rho), R.scaled_pass_moment(10**4, 2, rho)
            self._refs = {
                "P365-M22-COLLSF": (float(R.collision_sf_exact(365, 22)), 1e-10),
                "P365-M22-PASSCDF": (float(R.pass_cdf_exact(365, 22)), 1e-10),
                "N358-M22-COLLSF": (float(R.collision_sf_exact(358, 22)), 1e-10),
                "N1E4-EXN": (e1, 1e-12),
                "N1E4-EX2N": (e2, 1e-12),
                "N1E4-VXN": (e2 - e1 * e1, 1e-12),
                "KS-PASS": ([R.ks_rayleigh("pass", n) for n in (100, 1000, 10**4)], 1e-5),
                "KS-COLL": ([R.ks_rayleigh("collision", n) for n in (100, 1000, 10**4)], 1e-5),
            }
        return self._refs

    def check(self, inp: dict, out: list) -> list[str]:
        (text,) = out
        if isinstance(text, Failed):
            return []
        bad = []
        payload = json.loads(text)
        rows = payload["rows"]
        ids = [r["claim_id"] for r in rows]
        if len(set(ids)) != len(ids) or set(ids) != STABLE_CLAIM_IDS:
            bad.append(f"claim ids differ from the stable set: {sorted(set(ids) ^ STABLE_CLAIM_IDS)}")
        for r in rows:
            if r["status"] not in ("PASS", "NOTE"):
                bad.append(f"claim {r['claim_id']} {r['status']}: {r['observed']}")
        observed = {r["claim_id"]: r["observed"] for r in rows}
        for cid, (ref, tol) in self.references().items():
            if cid not in observed:
                continue
            text_v = observed[cid]
            if isinstance(ref, list):
                vals = [float(x) for x in text_v.strip("[]").split(",")]
                ok = len(vals) == len(ref) and all(abs(a - b) <= tol for a, b in zip(vals, ref))
            else:
                ok = abs(float(text_v) - ref) <= tol
            if not ok:
                bad.append(f"claim {cid} printed {text_v} vs reference {ref}")
        return bad


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


class CliCold:
    """One fresh process per README exact/approx command, inputs drawn from
    the seed, plus ``exact relerr --n 4 --m 3``, which fails every time
    today (the log series needs more than the 64 power-sum orders)."""

    name = "cli-cold"
    in_process = False

    def inputs(self, seed: int, index: int) -> dict:
        rng = round_rng(self.name, seed, index)
        n1, m1 = rng.randrange(300, 401), rng.randrange(15, 30)
        n1b = n1 - rng.randrange(1, 10)
        n2, k = rng.randrange(9_500, 10_501), rng.choice((1, 2))
        s = rng.randrange(90, 111)
        j, jz = rng.randrange(s // 2, 2 * s), rng.randrange(s // 2, 2 * s)
        x, z = repr(j / s), repr(jz / s)
        nm = ["--n", str(n1), "--m", str(m1)]
        return {"commands": [
            ["exact", "pass-cdf", *nm],
            ["exact", "collision-sf", "--n", str(n1b), "--m", str(m1)],
            ["exact", "series", *nm, "--depth", "12"],
            ["exact", "sandwich", *nm],
            ["exact", "relerr", *nm],
            ["exact", "optimal-shift", *nm],
            ["exact", "moments", "--n", str(n2), "--k", str(k)],
            ["approx", "stats", "--n", str(n2)],
            ["approx", "cdf", "--n", str(s * s), "--x", x, "--z", z],
            ["approx", "varrho", "--n", str(s * s), "--x", x],
            ["exact", "relerr", "--n", "4", "--m", "3"],
        ]}

    def run(self, inp: dict, tr) -> list:
        return [attempt(tr, "cli.command", run_cli, argv) for argv in inp["commands"]]

    def check(self, inp: dict, out: list) -> list[str]:
        bad: list[str] = []
        for argv, text in zip(inp["commands"], out):
            if isinstance(text, Failed):
                continue
            payload = json.loads(text)
            if payload.get("schema_version") != 1:
                bad.append(f"{' '.join(argv)}: schema_version {payload.get('schema_version')}")
                continue
            bad += [f"{' '.join(argv)}: {b}" for b in check_cli_rows(argv, payload["rows"])]
        return bad


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_cli_rows(argv: list[str], rows: list[dict]) -> list[str]:
    """Check the rows one README command printed against the references."""
    bad: list[str] = []
    target = argv[1]
    n = int(_opt(argv, "--n"))

    def exact_cols(row, prefix, ref: Fraction, extra_rel=0.0):
        if not R.within_err(row[f"{prefix}_dec"], row[f"{prefix}_err"], ref, extra_rel):
            bad.append(f"{prefix} {row[f'{prefix}_dec']} vs exact {float(ref)!r}")

    if argv[0] == "exact":
        m = int(_opt(argv, "--m")) if "--m" in argv else 0
        if target == "pass-cdf":
            exact_cols(rows[0], "value", R.pass_cdf_exact(n, m))
        elif target == "collision-sf":
            exact_cols(rows[0], "value", R.collision_sf_exact(n, m))
        elif target == "series":
            depth = int(_opt(argv, "--depth"))
            for row, alternating in zip(rows, (False, True)):
                exact_cols(row, "value", R.exp_exact(R.log_series_exact(n, m, depth, alternating)))
        elif target == "sandwich":
            row = rows[0]
            exact_cols(row, "lower", R.collision_sf_exact(n - (m - 1), m))
            exact_cols(row, "pass_cdf", R.pass_cdf_exact(n, m))
            exact_cols(row, "upper", R.collision_sf_exact(n, m))
            if row["bracketed"] is not True:
                bad.append("not bracketed")
        elif target == "relerr":
            if (n, m) == (4, 3):  # computable by hand: 9/4 and 0.672
                refs = (Fraction(9, 4), Fraction(672, 1000))
            else:
                pass_ref = R.pass_cdf_exact(n, m)
                refs = (R.collision_sf_exact(n, m) / pass_ref,
                        R.collision_sf_exact(n - (m - 1) / 3.0, m) / pass_ref)
            for row, ref, extra in zip(rows, refs, (0.0, 1e-15)):
                exact_cols(row, "exact_ratio", ref, extra)
        elif target == "optimal-shift":
            row = rows[0]
            bad += _check_shift(n, m, row["brute_force_shift"], row["asymptotic_shift"])
        elif target == "moments":
            k = int(_opt(argv, "--k"))
            rho = R.pass_survival(n)
            e1, e2 = R.scaled_pass_moment(n, 1, rho), R.scaled_pass_moment(n, 2, rho)
            refs = (R.scaled_pass_moment(n, k, rho), R.scaled_collision_moment(n, k), e2 - e1 * e1)
            for row, ref in zip(rows, refs):
                if not abs(row["value"] - ref) <= row["value_err"] + R.FLOAT_REL_TOL * abs(ref):
                    bad.append(f"{row['target']} {row['value']!r} vs reference {ref!r}")
    else:
        bad += _check_approx_rows(argv, target, n, rows)
    return bad


def _check_approx_rows(argv, target, n, rows) -> list[str]:
    bad = []
    sq = math.sqrt(n)
    if target == "stats":
        rho = R.pass_survival(n)
        e1, e2 = R.scaled_pass_moment(n, 1, rho), R.scaled_pass_moment(n, 2, rho)
        for row, ref in zip(rows, (e1, e2, e2 - e1 * e1)):
            # five-term expansions: error ~ n^-2.5, far below 1e-9 at n ~ 1e4
            if not _close(row["exact"], ref, R.FLOAT_REL_TOL) or not _close(row["value"], ref, 1e-9):
                bad.append(f"{row['target']}: value {row['value']!r}, exact {row['exact']!r}, "
                           f"reference {ref!r}")
        return bad
    if target == "cdf":
        x, z = float(_opt(argv, "--x")), float(_opt(argv, "--z"))
        m, j = round(x * sq), round(z * sq)
        refs = (1 - R.pass_cdf_exact(n, m + 1), 1 - R.collision_sf_exact(n, j))
        # the CDF expansions leave a remainder of order x^4 / n
        tols = (4.0 * (x**4 + 1.0) / n, 4.0 * (z**4 + 1.0) / n)
    else:  # varrho
        x = float(_opt(argv, "--x"))
        refs = (R.pass_cdf_exact(n, round(x * sq)),)
        tols = ((x**7 + 1.0) / n**2.5,)  # exact through 1/n^2; remainder ~ x^7 / n^2.5
    for row, ref, tol in zip(rows, refs, tols):
        ref = float(ref)
        if not abs(row["exact"] - ref) <= 1e-15:
            bad.append(f"{row['target']}: exact {row['exact']!r} vs reference {ref!r}")
        if not abs(row["value"] - ref) <= tol:
            bad.append(f"{row['target']}: value {row['value']!r} vs reference {ref!r}")
    return bad


# the timed workloads, as BENCHMARK.json lists them
WORKLOADS = {w.name: w for w in (VerifyAll(), McSampling(), CliCold())}
EXACT_LATTICE = ExactLattice()


def warm_cli_main(argv: list[str], tr):
    """In-process ``cli.main`` with its stdout captured; rows or Failed."""
    from collisort import cli, exact

    exact.scaled_pass_moment.cache_clear()
    exact.scaled_collision_moment.cache_clear()
    buf, err = io.StringIO(), io.StringIO()
    with redirect_stdout(buf), redirect_stderr(err):
        code = tr.call("cli.main", cli.main, list(argv))
    if code != 0:
        return Failed(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    return buf.getvalue()
