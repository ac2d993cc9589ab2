"""Instrumented bubble-sort variants and inversion-table combinatorics.

Three variants are instrumented: the plain fixed-pass sort, the early-exit
sort that stops after the first swap-free pass, and a variant of the
early-exit sort that sets its flag at most once per pass.  Pseudocode for
the early-exit sorts is sometimes rendered with the termination test
inverted (returning once a swap HAS occurred, which would abort unsorted
runs); both variants here use the standard semantics and terminate when a
pass completes with no swap.

Counting conventions: the per-pass flag initialization counts as one
boolean assignment and so does each flag set; comparisons count one per
adjacent pair inspected; swaps count element exchanges.

The scalar functions (``bubble_sort_instrumented``, ``pass_count``,
``inversion_table``) are the reference.  Their batch forms ``sort_rows``,
``pass_counts`` and ``inversion_tables`` take a 2-D integer array with one
permutation per row and step every row in lockstep, one column pair at a
time in the scalar pass and pair order.  They import numpy when called and
return arrays of the smallest signed integer types that hold their values.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as _permutations, product as _product
from typing import Iterable, Sequence

ENUM_PASS_LIMIT = 10
ENUM_BIRTHDAY_LIMIT = 6

VARIANTS = ("plain", "early_exit", "early_exit_variant")


class ResourceBoundError(Exception):
    """Raised when an exhaustive enumeration exceeds its size bound."""


@dataclass(frozen=True)
class OpCounts:
    """Counts of one run; fields may also be equal-shape integer arrays of
    many runs, as ``opcounts_from_stats`` gives for array arguments."""

    comparisons: int
    swaps: int
    bool_assignments: int
    passes: int

    def __post_init__(self):
        c, s, b, p = self.comparisons, self.swaps, self.bool_assignments, self.passes
        if _any((c < 0) | (s < 0) | (b < 0) | (p < 0)):
            raise ValueError("operation counts must be nonnegative")
        if _any(s > c):
            raise ValueError("swaps cannot exceed comparisons")


def _any(flags) -> bool:
    """A comparison's truth: a bool, or any element of a boolean array."""
    return flags if flags.__class__ is bool else bool(flags.any())


def check_permutation(seq: Sequence[int]) -> tuple[int, ...]:
    """Validate that seq is a permutation of 1..n and return it as a tuple."""
    p = tuple(seq)
    n = len(p)
    if n == 0:
        raise ValueError("permutation must be nonempty")
    if any(v.__class__ is bool or not isinstance(v, int) for v in p):
        raise ValueError(f"permutation entries must be ints: {p!r}")
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p!r}")
    return p


# ---------------------------------------------------------------------------
# passes and inversion tables
# ---------------------------------------------------------------------------


def pass_trace(seq: Sequence[int]) -> list[tuple[int, ...]]:
    """States after each pass, starting with the input (pass 0).

    snapshot[i] is the sequence at the end of the i-th pass; the trace
    stops at the first sorted snapshot.
    """
    p = list(check_permutation(seq))
    n = len(p)
    target = tuple(range(1, n + 1))
    trace = [tuple(p)]
    i = 1
    while trace[-1] != target:
        for j in range(n - i):
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
        trace.append(tuple(p))
        i += 1
    return trace


def pass_count(seq: Sequence[int]) -> int:
    """Number of passes the early-exit sort executes: first sorted pass index + 1."""
    return len(pass_trace(seq))


def inversion_table(seq: Sequence[int]) -> tuple[int, ...]:
    """Entry i (1-based) counts elements larger than value i placed before it."""
    p = check_permutation(seq)
    n = len(p)
    pos = {v: idx for idx, v in enumerate(p)}
    table = []
    for value in range(1, n + 1):
        at = pos[value]
        table.append(sum(1 for j in range(at) if p[j] > value))
    return tuple(table)


def check_inversion_table(table: Sequence[int]) -> tuple[int, ...]:
    t = tuple(table)
    n = len(t)
    if n == 0:
        raise ValueError("inversion table must be nonempty")
    for i, v in enumerate(t, start=1):
        if not 0 <= v <= n - i:
            raise ValueError(f"entry {i} = {v} outside 0..{n - i}")
    return t


def permutation_from_inversion_table(table: Sequence[int]) -> tuple[int, ...]:
    """Inverse bijection: place values n..1, inserting value i at index table[i-1]."""
    t = check_inversion_table(table)
    n = len(t)
    out: list[int] = []
    for value in range(n, 0, -1):
        out.insert(t[value - 1], value)
    return tuple(out)


def passes_match_inversion_max(seq: Sequence[int]) -> bool:
    """Whether pass_count equals max(inversion table) + 1."""
    return pass_count(seq) == max(inversion_table(seq)) + 1


def equal_pair_count(values: Sequence[int]) -> int:
    """Number of unordered index pairs holding equal values."""
    if len(values) == 0:
        raise ValueError("need a nonempty sequence")
    return sum(c * (c - 1) // 2 for c in Counter(values).values())


# ---------------------------------------------------------------------------
# instrumented sorts
# ---------------------------------------------------------------------------


def _sort_plain(p: list[int]) -> OpCounts:
    n = len(p)
    comparisons = swaps = 0
    for i in range(1, n + 1):
        for j in range(n - i):
            comparisons += 1
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                swaps += 1
    return OpCounts(comparisons, swaps, 0, n)


def _sort_early_exit(p: list[int]) -> OpCounts:
    n = len(p)
    comparisons = swaps = bools = 0
    for i in range(1, n + 1):
        swapped = False
        bools += 1
        for j in range(n - i):
            comparisons += 1
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                swaps += 1
                swapped = True
                bools += 1
        if not swapped:
            return OpCounts(comparisons, swaps, bools, i)
    return OpCounts(comparisons, swaps, bools, n)


def _sort_early_exit_variant(p: list[int]) -> OpCounts:
    n = len(p)
    comparisons = swaps = bools = 0
    for i in range(1, n + 1):
        bools += 1  # flag reset
        first_swap_at = None
        for j in range(n - i):
            comparisons += 1
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                swaps += 1
                bools += 1  # single flag set per pass
                first_swap_at = j
                break
        if first_swap_at is None:
            return OpCounts(comparisons, swaps, bools, i)
        for j in range(first_swap_at + 1, n - i):
            comparisons += 1
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                swaps += 1
    return OpCounts(comparisons, swaps, bools, n)


_SORTERS = {
    "plain": _sort_plain,
    "early_exit": _sort_early_exit,
    "early_exit_variant": _sort_early_exit_variant,
}


def bubble_sort_instrumented(
    seq: Sequence[int], variant: str = "plain"
) -> tuple[tuple[int, ...], OpCounts]:
    """Sort a copy of seq with the chosen variant and return exact counts."""
    if variant not in _SORTERS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    p = list(check_permutation(seq))
    counts = _SORTERS[variant](p)
    return tuple(p), counts


def opcounts_from_stats(n: int, passes: int, inversions: int, variant: str) -> OpCounts:
    """Operation counts implied by (passes, total inversions) alone.

    Per-permutation identities, verified exhaustively against the
    instrumented sorts for n <= 8:
      plain:              comparisons n(n-1)/2, no flag writes, n passes
      early_exit:         comparisons n*P - P(P+1)/2, flag writes P + I
      early_exit_variant: same comparisons, flag writes 2P - 1
    """
    if variant == "plain":
        return OpCounts(n * (n - 1) // 2, inversions, 0, n)
    comparisons = n * passes - passes * (passes + 1) // 2
    if variant == "early_exit":
        return OpCounts(comparisons, inversions, passes + inversions, passes)
    if variant == "early_exit_variant":
        return OpCounts(comparisons, inversions, 2 * passes - 1, passes)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# batch forms: one permutation per row, every row in lockstep
# ---------------------------------------------------------------------------


def _columns(rows):
    """Validated permutation rows, transposed to an (n, rows) array of the
    smallest signed type holding n, so that each position is one contiguous
    column."""
    import numpy as np

    a = np.asarray(rows)
    if a.ndim != 2 or a.shape[1] == 0:
        raise ValueError(f"need a 2-D array of nonempty permutation rows, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"permutation entries must be integers, got dtype {a.dtype}")
    n = a.shape[1]
    bad = np.flatnonzero((np.sort(a, axis=1) != np.arange(1, n + 1)).any(axis=1))
    if bad.size:
        raise ValueError(f"not a permutation of 1..{n}: row {bad[0]} = {a[bad[0]].tolist()!r}")
    return np.array(a.T, dtype=np.min_scalar_type(-n), order="C")


def _counter_type(n: int):
    """Signed counters, int16 or wider, holding n(n+1): the largest
    intermediate of opcounts_from_stats on per-row arrays."""
    import numpy as np

    return np.promote_types(np.int16, np.min_scalar_type(-n * (n + 1)))


def _swap_where(a, j: int, swap) -> None:
    """Exchange positions j and j+1 of the rows (columns of a) where swap holds."""
    import numpy as np

    a[j], a[j + 1] = np.where(swap, a[j + 1], a[j]), np.where(swap, a[j], a[j + 1])


def sort_rows(rows, variant: str = "plain"):
    """Batch form of bubble_sort_instrumented: (sorted rows, OpCounts of
    per-row arrays).  The early-exit variants keep a per-row running mask,
    cleared after a swap-free pass; the single-set variant also flags the
    first swap of each pass."""
    import numpy as np

    if variant not in _SORTERS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    a = _columns(rows)
    n, r = a.shape
    counter = _counter_type(n)
    comparisons, swaps, bools = (np.zeros(r, counter) for _ in range(3))
    passes = np.full(r, n, counter)
    running = np.ones(r, bool)
    for i in range(1, n + 1):
        if variant != "plain":
            bools += running  # flag reset
        swapped = np.zeros(r, bool)
        for j in range(n - i):
            comparisons += running
            swap = running & (a[j] > a[j + 1])
            swaps += swap
            if variant == "early_exit":
                bools += swap
            elif variant == "early_exit_variant":
                bools += swap & ~swapped  # the pass's single flag set
            swapped |= swap
            _swap_where(a, j, swap)
        if variant != "plain":
            passes[running & ~swapped] = i
            running &= swapped
            if not running.any():
                break
    return np.ascontiguousarray(a.T), OpCounts(comparisons, swaps, bools, passes)


def pass_counts(rows):
    """Batch form of pass_count: the index of each row's first sorted state,
    plus one, found by running bubble-sort passes on all rows."""
    import numpy as np

    a = _columns(rows)
    n, r = a.shape
    passes = np.zeros(r, _counter_type(n))
    for i in range(n):  # i passes done
        passes[(passes == 0) & (a[:-1] <= a[1:]).all(axis=0)] = i + 1
        if passes.all():
            break
        for j in range(n - i - 1):
            _swap_where(a, j, a[j] > a[j + 1])
    return passes


def inversion_tables(rows):
    """Batch form of inversion_table: entry i (1-based) of a row counts the
    elements larger than value i placed before it."""
    import numpy as np

    a = _columns(rows)
    n, r = a.shape
    tables = np.zeros((n, r), a.dtype)
    every = np.arange(r)
    for k in range(1, n):
        tables[a[k] - 1, every] = np.count_nonzero(a[:k] > a[k], axis=0)
    return np.ascontiguousarray(tables.T)


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


def enumerate_pass_distribution(n: int) -> dict[int, Fraction]:
    """Exact law of the pass count over all n! permutations, n <= 10.

    Tallies the definitional pass count (run passes until sorted), not
    the inversion-table shortcut, so it stays independent of the
    identities it is used to verify.
    """
    if not 1 <= n <= ENUM_PASS_LIMIT:
        raise ResourceBoundError(f"pass enumeration bounded at n <= {ENUM_PASS_LIMIT}")
    tally: Counter[int] = Counter()
    target = list(range(1, n + 1))
    for perm in _permutations(target):
        p = list(perm)
        i = 0  # passes run so far; input counts as the state after pass 0
        while p != target:
            i += 1
            for j in range(n - i):
                if p[j] > p[j + 1]:
                    p[j], p[j + 1] = p[j + 1], p[j]
        tally[i + 1] += 1
    total = math.factorial(n)
    return {passes: Fraction(c, total) for passes, c in sorted(tally.items())}


def enumerate_collision_survival(n: int, m: int) -> Fraction:
    """Exact fraction of the n^(m+1) birthday tuples whose m+1 values are
    all distinct, by walking every tuple.

    Deliberately does no combinatorial shortcut: this is the independent
    oracle the product formula is tested against.
    """
    if not 1 <= n <= ENUM_BIRTHDAY_LIMIT:
        raise ResourceBoundError(
            f"birthday enumeration bounded at n <= {ENUM_BIRTHDAY_LIMIT}"
        )
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    count = 0
    for tup in _product(range(n), repeat=m + 1):
        if len(set(tup)) == m + 1:
            count += 1
    return Fraction(count, n ** (m + 1))


def all_permutations(n: int) -> Iterable[tuple[int, ...]]:
    """All permutations of 1..n."""
    return _permutations(range(1, n + 1))
