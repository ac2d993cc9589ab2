"""Run one collisort benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-all, mc-sampling, cli-cold (see perfbench/README.md).  The run repeats whole rounds of the workload for
about S seconds, one round after another from one thread, checks every
output, and prints as the last line of standard output one JSON object
with "correct", "attempted", "failed" and "metrics".

--trace 0 reports the end-to-end metrics: wall_s (one round, each
operation at its least time across the run's rounds), setup_s (median of
several set-ups) and peak_rss_mb.  --trace 1 runs a fixed number of
untraced and traced rounds for the tracing overhead, whatever S is, then
sweeps every layer once and reports the per-layer metrics; its spans are
written to .perfbench/ at the end of the run.  The metric names and units
are those BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
# untraced/traced round pairs in a traced run: a fixed number, so that its
# attempted and failed operations are the same in every traced run
TRACE_CYCLES = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-all", "mc-sampling", "cli-cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(wl, seed: int) -> float:
    """Median fresh-process import of collisort plus median time to make the inputs."""
    import workloads as W

    make = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.inputs(seed, 0)
        make.append(time.perf_counter() - start)
    return W.fresh_import_s(SETUP_REPEATS) + statistics.median(make)


def round_wall(rounds: list[list[float]]) -> float:
    """Wall time of one round, each operation at its least time across the rounds.

    Contention from outside the process only ever adds time, and on a shared
    machine it comes and goes in phases of seconds; the per-operation minimum
    over a run's rounds tracks the code's own cost where the median over a
    few rounds tracks the phases.
    """
    return sum(min(r[k] for r in rounds) for k in range(len(rounds[0])))


def tally(res: dict, outcomes: list) -> None:
    """Add outcomes to res["attempted"] and res["failed"]; name each new failure once."""
    import workloads as W

    res["attempted"] += len(outcomes)
    for o in outcomes:
        if isinstance(o, W.Failed):
            res["failed"] += 1
            if o.why not in res["seen_failures"]:
                res["seen_failures"].add(o.why)
                print(f"failed operation: {o.why}", file=sys.stderr)


def run_rounds(wl, seed: int, traced: list[bool], seconds: float = 0.0, cycles: int = 1) -> dict:
    """Whole rounds, cycling through ``traced`` (untraced/traced per round):
    at least ``cycles`` cycles, and more while less than ``seconds`` have
    passed.  Returns per kind the per-operation wall times of each round."""
    from tracer import OpTimer, Tracer

    tracer = Tracer()
    op_times: list[list[list[float]]] = [[] for _ in traced]
    res = {"attempted": 0, "failed": 0, "problems": [], "seen_failures": set()}
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(traced)
        inp = wl.inputs(seed, i)
        if traced[k]:
            first = len(tracer.spans)
            out = wl.run(inp, tracer)
            op_times[k].append([e - s for _, parent, s, e in tracer.spans[first:] if parent < 0])
        else:
            timer = OpTimer()
            out = wl.run(inp, timer)
            op_times[k].append(timer.times)
        tally(res, out)
        res["problems"] += wl.check(inp, out)
        i += 1
        if i >= cycles * len(traced) and time.perf_counter() - start >= seconds:
            break
    return {**res, "op_times": op_times, "tracer": tracer}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "collisort" / "__init__.py").is_file():
        print(f"collisort sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads as W

    os.environ.update(W.SINGLE_THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import references

    bad_refs = references.self_test()
    if bad_refs:
        print(f"reference self-test failed: {bad_refs}", file=sys.stderr)
        return 1
    import collisort

    if Path(collisort.__file__).resolve().parent != (SRC / "collisort").resolve():
        print(f"imported collisort from {collisort.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = W.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import layers

        res = run_rounds(wl, args.seed, [False, True], cycles=TRACE_CYCLES)
        values, sweep_tracer, outcomes = layers.sweep(args.seed, res["problems"])
        tally(res, outcomes)
        untraced, traced = res["op_times"]
        values["trace.overhead_s"] = round_wall(traced) - round_wall(untraced)
        kind = "per_layer"
        with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"],
                       "rounds": res["tracer"].spans, "sweep": sweep_tracer.spans}, fh)
    else:
        setup_s = measure_setup(wl, args.seed)
        res = run_rounds(wl, args.seed, [False], seconds=args.seconds)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        values = {"wall_s": round_wall(res["op_times"][0]), "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    for p in res["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    line = json.dumps(result)
    (OUT_DIR / f"{stem}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
