#!/usr/bin/env python3
"""Net unit-cost effect of the early-exit bubble-sort optimizations.

In a model where one adjacent comparison and one boolean assignment cost
the same, the early-exit check saves E[(n-P-1)(n-P)/2] comparisons but
spends extra flag writes.  This script tabulates both sides over an
n-grid and confirms the expectations against seeded simulation.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from collisort.asymptotics import expected_opcount_deltas  # noqa: E402
from collisort.montecarlo import (  # noqa: E402
    DEFAULT_SEED,
    SeededStream,
    empirical_opcounts,
    opcount_deviations,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-grid", type=int, nargs="+",
                        default=[16, 64, 256, 1024, 4096, 10000])
    parser.add_argument("--trials", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()

    print(f"{'n':>7}{'saved cmps':>14}{'flag cost':>16}{'variant cost':>14}"
          f"{'net':>14}{'variant net':>14}")
    for n in args.n_grid:
        d = expected_opcount_deltas(n)
        net = d.flag_writes_early_exit - d.comparison_reduction
        net_variant = d.flag_writes_variant - d.comparison_reduction
        print(f"{n:>7}{d.comparison_reduction:>14.1f}{d.flag_writes_early_exit:>16.1f}"
              f"{d.flag_writes_variant:>14.1f}{net:>14.1f}{net_variant:>14.1f}")

    n = args.n_grid[-1]
    print(f"\nsimulation check at n={n}, {args.trials} trials:")
    counters = empirical_opcounts(n, args.trials, SeededStream(args.seed, 0))
    for name, (expected, dev) in opcount_deviations(n, counters).items():
        print(f"  {name:<24} mean {counters[name].mean:>16.2f}  expected {expected:>16.2f}"
              f"  ({dev:.2f} se)")


if __name__ == "__main__":
    main()
