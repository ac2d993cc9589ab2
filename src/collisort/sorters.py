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
``inversion_table``) are the reference.  Their passes are one loop,
``_bubble_pass``, and the sorts count per pass, from its length and swaps.
The batch forms ``sort_rows`` and ``inversion_tables`` take a 2-D integer
array with one permutation per row and step every row in lockstep, one
column pair at a time in the scalar pass and pair order.  The variants
make the same swaps, so one ``sort_rows`` run counts all three, per
comparison through a per-row running mask, a count independent of the
scalar one; its early-exit counts give the batch pass counts in their
``passes``.  They import numpy when called and return arrays of the
smallest signed integer types that hold their values; so does
``permutation_rows``, which builds their input, every permutation of 1..n.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import permutations as _permutations

ENUM_PASS_LIMIT = 10
# the birthday walk keeps each tuple of m + 1 <= n + 1 values as one byte, the
# sum of 2^v over its values v < n: (n + 1) 2^(n - 1) = 224 < 256 at n = 6
ENUM_BIRTHDAY_LIMIT = 6
_POPCOUNT = bytes(x.bit_count() for x in range(256))  # a translate table

VARIANTS = ("plain", "early_exit", "early_exit_variant")


class ResourceBoundError(Exception):
    """Raised when an exhaustive enumeration exceeds its size bound."""


def check_enumeration_n(what: str, n: int, limit: int) -> None:
    """Refuse n < 1 as a bad argument and n > limit as over the size bound."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if n > limit:
        raise ResourceBoundError(f"{what} enumeration bounded at n <= {limit}")


class OpCounts(namedtuple("OpCounts", "comparisons swaps bool_assignments passes")):
    """Counts of one run; fields may also be equal-shape integer arrays of
    many runs, as ``opcounts_from_stats`` gives for array arguments."""

    __slots__ = ()

    def __new__(cls, comparisons, swaps, bool_assignments, passes):
        c, s, b, p = comparisons, swaps, bool_assignments, passes
        if _any((c < 0) | (s < 0) | (b < 0) | (p < 0)):
            raise ValueError("operation counts must be nonnegative")
        if _any(s > c):
            raise ValueError("swaps cannot exceed comparisons")
        return super().__new__(cls, c, s, b, p)

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too


def _any(flags) -> bool:
    """A comparison's truth: a bool, or any element of a boolean array."""
    return flags if flags.__class__ is bool else bool(flags.any())


def _int_entries(seq: Iterable[int], what: str) -> tuple[int, ...]:
    """seq as a tuple, refused unless nonempty with int (not bool) entries."""
    t = tuple(seq)
    if not t:
        raise ValueError(f"{what} must be nonempty")
    if any(v.__class__ is bool or not isinstance(v, int) for v in t):
        raise ValueError(f"{what} entries must be ints: {t!r}")
    return t


def check_permutation(seq: Sequence[int]) -> tuple[int, ...]:
    """Validate that seq is a permutation of 1..n and return it as a tuple."""
    p = _int_entries(seq, "permutation")
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p!r}")
    return p


# ---------------------------------------------------------------------------
# passes and inversion tables
# ---------------------------------------------------------------------------


def _bubble_pass(p: list[int], end: int) -> int:
    """One pass of ``end`` comparisons: for j < end, swap p[j] and p[j + 1]
    in place when p[j] > p[j + 1].  Returns the number of swaps."""
    swaps = 0
    for j in range(end):
        a, b = p[j], p[j + 1]
        if a > b:
            p[j], p[j + 1] = b, a
            swaps += 1
    return swaps


def _unsorted_after_n_passes(n: int) -> RuntimeError:
    """The error for a permutation of n still unsorted after n passes;
    a correct pass sorts every permutation of n in at most n - 1."""
    return RuntimeError(f"{n} bubble passes left a permutation of n={n} unsorted")


def pass_trace(seq: Sequence[int]) -> list[tuple[int, ...]]:
    """States after each pass, starting with the input (pass 0).

    snapshot[i] is the sequence at the end of the i-th pass; the trace
    stops at the first sorted snapshot, and a RuntimeError ends a trace
    still unsorted after n passes, which only a broken pass can leave.
    """
    p = list(check_permutation(seq))
    n = len(p)
    target = list(range(1, n + 1))
    trace = [tuple(p)]
    while p != target:
        if len(trace) > n:
            raise _unsorted_after_n_passes(n)
        _bubble_pass(p, n - len(trace))  # pass i = len(trace) spans n - i pairs
        trace.append(tuple(p))
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
    t = _int_entries(table, "inversion table")
    n = len(t)
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


def _sort(p: list[int], variant: str) -> tuple[tuple[int, ...], OpCounts]:
    """Sort p in place; return it as a tuple and its counts, added per pass: an
    early-exit pass resets its flag, then sets it per swap or (variant) once."""
    n = len(p)
    comparisons = swaps = bools = 0
    for i in range(1, n + 1):
        s = _bubble_pass(p, n - i)
        comparisons += n - i
        swaps += s
        if variant != "plain":
            bools += 1 + (s if variant == "early_exit" else s > 0)
            if not s:
                break
    return tuple(p), OpCounts(comparisons, swaps, bools, i)


def bubble_sort_instrumented(
    seq: Sequence[int], variant: str = "plain"
) -> tuple[tuple[int, ...], OpCounts]:
    """Sort a copy of seq with the chosen variant and return exact counts."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return _sort(list(check_permutation(seq)), variant)


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


def sort_rows(rows):
    """Batch form of bubble_sort_instrumented: (sorted rows, {variant: OpCounts
    of per-row arrays} for every name in VARIANTS).  Plain counts all n passes;
    the early-exit variants count through a per-row running mask, cleared after
    a swap-free pass, and the single-set one flags a pass's first swap only."""
    import numpy as np

    a = _columns(rows)
    n, r = a.shape
    # signed counters, int16 or wider, holding n(n+1): the largest
    # intermediate of opcounts_from_stats on per-row arrays
    counter = np.promote_types(np.int16, np.min_scalar_type(-n * (n + 1)))
    comparisons, swaps, flags, single_flags, no_flags = (np.zeros(r, counter) for _ in range(5))
    passes = np.full(r, n, counter)
    running = np.ones(r, bool)
    compared = 0  # the plain sort's comparisons, the same in every row
    for i in range(1, n + 1):
        flags += running  # flag reset
        single_flags += running
        swapped = np.zeros(r, bool)
        for j in range(n - i):
            compared += 1
            comparisons += running
            swap = a[j] > a[j + 1]  # a stopped row is sorted, so it never swaps
            swaps += swap
            flags += swap
            single_flags += swap & ~swapped  # the pass's single flag set
            swapped |= swap
            a[j], a[j + 1] = np.minimum(a[j], a[j + 1]), np.maximum(a[j], a[j + 1])
        passes[running & ~swapped] = i
        running &= swapped
    plain = OpCounts(np.full(r, compared, counter), swaps, no_flags, np.full(r, n, counter))
    return np.ascontiguousarray(a.T), dict(zip(VARIANTS, (
        plain, OpCounts(comparisons, swaps, flags, passes),
        OpCounts(comparisons, swaps, single_flags, passes))))


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
    check_enumeration_n("pass", n, ENUM_PASS_LIMIT)
    tally: Counter[int] = Counter()
    target = list(range(1, n + 1))
    for perm in _permutations(target):
        p = list(perm)
        passes = 1  # the input counts as the state after pass 0
        while p != target:
            if passes > n:
                raise _unsorted_after_n_passes(n)
            _bubble_pass(p, n - passes)
            passes += 1
        tally[passes] += 1
    total = math.factorial(n)
    return {passes: Fraction(c, total) for passes, c in sorted(tally.items())}


def enumerate_collision_survival(n: int, m: int) -> Fraction:
    """Exact fraction of the n^(m+1) birthday tuples whose m+1 values are
    all distinct, by walking every tuple.

    Deliberately does no combinatorial shortcut: this is the independent
    oracle the product formula is tested against.  Each tuple is one byte,
    the sum of 2^v over its values v; each level appends every value v to
    every tuple through the table x -> x + 2^v.  The values are distinct
    iff the sum has m+1 bits set, since a repeated value carries a bit away.
    """
    check_enumeration_n("birthday", n, ENUM_BIRTHDAY_LIMIT)
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    add = [bytes(range(1 << v, 256)) + bytes(range(1 << v)) for v in range(n)]
    sums = b"\0"  # the empty tuple
    for _ in range(m + 1):
        sums = b"".join(sums.translate(t) for t in add)
    return Fraction(sums.translate(_POPCOUNT).count(m + 1), n ** (m + 1))


def permutation_rows(n: int):
    """All n! permutations of 1..n, n <= 10, as the rows of an (n!, n) int8
    array: the rows for n - 1 with n inserted at each of the n positions."""
    import numpy as np

    check_enumeration_n("permutation", n, ENUM_PASS_LIMIT)
    rows = np.ones((1, 1), np.int8)
    for k in range(2, n + 1):
        grown = np.empty((k, len(rows), k), np.int8)
        for i in range(k):  # k at position i
            grown[i, :, :i], grown[i, :, i], grown[i, :, i + 1:] = rows[:, :i], k, rows[:, i:]
        rows = grown.reshape(-1, k)
    return rows
