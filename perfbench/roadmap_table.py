"""Re-measure the rows of the ROADMAP baseline table, one timing each.

    python3 perfbench/roadmap_table.py

Single wall-clock timings on whatever machine runs it; the Monte Carlo rows
use the ROADMAP's full trial counts and take about two minutes together.
The Tier-1 suite rows are timed separately with
``python -m pytest -q --durations=3``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import workloads as W


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def main() -> int:
    sys.path.insert(0, str(W.SRC))
    from collisort import exact, montecarlo
    from collisort.hpreal import hp
    from collisort.montecarlo import DEFAULT_SEED, SeededStream

    rows = []

    def fresh(cmd: list[str]) -> float:
        start = time.perf_counter()
        subprocess.run(cmd, cwd=W.ROOT, env=W.child_env(), check=True, capture_output=True,
                       timeout=W.SUBPROCESS_TIMEOUT_S)
        return time.perf_counter() - start

    rows.append(("collisort verify --suite all",
                 fresh([sys.executable, "-m", "collisort.cli", "verify", "--suite", "all"])))
    cold = [fresh([sys.executable, "-m", "collisort.cli", "exact", "pass-cdf", "--n", "365",
                   "--m", "22"]) for _ in range(5)]
    numpy = [fresh([sys.executable, "-c", "import numpy"]) - fresh([sys.executable, "-c", "pass"])
             for _ in range(5)]
    rows.append(("cold start: exact pass-cdf --n 365 --m 22 (median of 5)", statistics.median(cold)))
    rows.append(("  of which numpy import (median of 5)", statistics.median(numpy)))
    a, b = hp(1) / 3, hp(7) / 11
    for label, op in (("HPReal mul, us", lambda: a * b), ("HPReal div, us", lambda: a / b)):
        reps = 20_000
        rows.append((label, _timed(lambda: [op() for _ in range(reps)]) / reps * 1e6))
    for n in (10**4, 10**6):
        exact.scaled_pass_moment.cache_clear()
        rows.append((f"scaled_pass_moment(n, 1) at n = {n}", _timed(exact.scaled_pass_moment, n, 1)))
    rows.append(('exact_law_ks_vs_rayleigh("pass", 10^6)',
                 _timed(montecarlo.exact_law_ks_vs_rayleigh, "pass", 10**6)))
    stream = SeededStream(DEFAULT_SEED, 0)
    mc = [
        ("sample_collision_counts, n = 10^4, 10^6 trials",
         montecarlo.sample_collision_counts, (10**4, 10**6, stream)),
        ("sample_collision_counts, n = 365, 10^6 trials",
         montecarlo.sample_collision_counts, (365, 10**6, stream)),
        ("sample_pass_counts, n = 10^4, 10^6 trials",
         montecarlo.sample_pass_counts, (10**4, 10**6, stream)),
        ('empirical_pair_matches("birthday", 10^4, 100), 10^5 trials',
         montecarlo.empirical_pair_matches, ("birthday", 10**4, 100, 10**5, stream)),
        ("empirical_opcounts, n = 24, 10^4 trials", montecarlo.empirical_opcounts, (24, 10**4, stream)),
        ("empirical_opcounts, n = 10^4, 10^4 trials",
         montecarlo.empirical_opcounts, (10**4, 10**4, stream)),
    ]
    for label, fn, args in mc:
        rows.append((label, _timed(fn, *args)))
    for label, value in rows:
        print(f"| {label} | {value:.3g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
