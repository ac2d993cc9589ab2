"""Spans around the benchmark's calls into collisort, and counting wrappers.

A span is [name, parent index, start, end]; the layer is the part of the
name before the first dot ("exact.pass_moment" -> "exact").  Spans stay in
memory; run.py writes them out once, when the run ends.  The counting
wrappers patch HPReal's arithmetic and the generator a SeededStream hands
out; they are installed only inside a traced run and always restored.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

LAYERS = ("hpreal", "exact", "montecarlo", "sorters", "poisson_approx",
          "asymptotics", "verification", "cli")


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class OpTimer(NullTracer):
    """Untraced timed rounds: keeps only each call's wall time, in call order."""

    def __init__(self):
        self.times: list[float] = []

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times.append(time.perf_counter() - start)


class Tracer(NullTracer):
    """Records one span per call; nested calls record their parent."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def current(self) -> str:
        return self.spans[self._open[-1]][0] if self._open else ""

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1, 0.0, 0.0])
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx][2] = start
            self.spans[idx][3] = end

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name.split(".")[0]] += (end - start) - covered[i]
        return {layer: out.get(layer, 0.0) for layer in LAYERS}


@contextlib.contextmanager
def count_hpreal_ops(counts: dict):
    """Count HPReal multiplications and divisions (including reflected ones)."""
    from collisort.hpreal import HPReal

    mul, div = HPReal.__mul__, HPReal.__truediv__

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_div(self, other):
        counts["div"] += 1
        return div(self, other)

    HPReal.__mul__ = HPReal.__rmul__ = counted_mul
    HPReal.__truediv__ = counted_div
    try:
        yield counts
    finally:
        HPReal.__mul__ = HPReal.__rmul__ = mul
        HPReal.__truediv__ = div


class _CountingGenerator:
    """Forwards to a numpy Generator and reports the values each call draws."""

    def __init__(self, gen, record):
        self._gen = gen
        self._record = record

    def integers(self, low, high=None, size=None, **kwargs):
        if size is None:
            self._record(1)
        else:
            total = 1
            for dim in (size if isinstance(size, tuple) else (size,)):
                total *= int(dim)
            self._record(total)
        return self._gen.integers(low, high, size=size, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


@contextlib.contextmanager
def count_draws(tracer: Tracer, counts: dict):
    """Count random values drawn, keyed by the span open at the time."""
    from collisort.montecarlo import SeededStream

    original = SeededStream.generator

    def record(k):
        counts[tracer.current()] += k

    def generator(self):
        return _CountingGenerator(original(self), record)

    SeededStream.generator = generator
    try:
        yield counts
    finally:
        SeededStream.generator = original
