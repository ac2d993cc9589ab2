"""Adaptive quadrature from an embedded pair of Gauss-Legendre rules.

Nodes and weights are computed at import time by Newton iteration on the
Legendre recurrence, so no tabulated constants need trusting.  Intervals
are bisected until the 10- vs 21-point estimates agree within the local
tolerance budget.
"""

from __future__ import annotations

import math
from collections.abc import Callable


def _legendre(k: int, x: float) -> tuple[float, float]:
    """P_k(x) and P_k'(x), by the three-term recurrence."""
    p0, p1 = 1.0, x
    for j in range(2, k + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, k * (x * p1 - p0) / (x * x - 1.0)


def gauss_legendre(k: int) -> tuple[list[float], list[float]]:
    """Nodes and weights of the k-point Gauss-Legendre rule on [-1, 1]."""
    nodes: list[float] = []
    weights: list[float] = []
    for i in range(1, k + 1):
        # Tricomi initial guess, then Newton on P_k
        x = math.cos(math.pi * (i - 0.25) / (k + 0.5))
        for _ in range(60):
            p, dp = _legendre(k, x)
            dx = p / dp
            x -= dx
            if abs(dx) < 1e-16:
                break
        dp = _legendre(k, x)[1]
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return nodes, weights


_N10, _W10 = gauss_legendre(10)
_N21, _W21 = gauss_legendre(21)


def _pair(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    coarse = h * sum(w * f(c + h * x) for x, w in zip(_N10, _W10))
    fine = h * sum(w * f(c + h * x) for x, w in zip(_N21, _W21))
    return fine, abs(fine - coarse)


_NOISE = 30.0 * 2.220446049250313e-16  # rounding floor of the pair difference
_MAX_DEPTH = 30  # bisections before an interval is accepted as it stands
_ABS_TOL = 1e-14  # absolute tolerance of adaptive_quad unless a caller sets one


def adaptive_quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = _ABS_TOL,
) -> float:
    """Integrate f over [a, b] to absolute tolerance ``abs_tol``.

    Each interval is accepted once the embedded-pair difference drops
    under its width-proportional share of the budget or under the
    rounding floor of the estimates themselves.
    """
    if not b > a:
        if b == a:
            return 0.0
        raise ValueError("adaptive_quad needs b >= a")

    total = 0.0
    stack = [(a, b, abs_tol, 0)]
    while stack:
        lo, hi, tol, depth = stack.pop()
        est, err = _pair(f, lo, hi)
        if err <= tol or err <= _NOISE * abs(est) or depth >= _MAX_DEPTH:
            total += est
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, tol / 2.0, depth + 1))
            stack.append((mid, hi, tol / 2.0, depth + 1))
    return total
