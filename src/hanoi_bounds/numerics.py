"""Exact integer combinatorics: simplex counts and the greedy disk-count split.

Everything here runs on unbounded Python integers; no floating point is
used anywhere in the package's formula arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Decomposition", "binomial", "delta", "nabla", "decompose"]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 when k > n."""
    return math.comb(n, k)


def _check_peg_count(p: int) -> None:
    if p < 3:
        raise ValueError(f"peg count must be at least 3, got {p}")


def delta(p: int, n: int) -> int:
    """Simplex count delta(p, n) = C(n + p - 3, p - 2).

    delta(3, n) = n and delta(4, n) is the n-th triangular number.
    """
    _check_peg_count(p)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _delta(p, n)


def _delta(p: int, n: int) -> int:
    # delta without the argument checks, for nabla's search
    return math.comb(n + p - 3, p - 2)


def nabla(p: int, n: int) -> int:
    """Bracket inverse of delta: the largest k >= 0 with delta(p, k) <= n.

    Well defined because delta(p, 0) = 0.  p = 3 and p = 4 invert delta
    directly: delta(3, k) = k, and delta(4, k) = k(k + 1)/2 <= n exactly
    when 2k + 1 <= sqrt(8n + 1), so nabla(4, n) = (isqrt(8n + 1) - 1) // 2.
    Larger p use exponential-then-binary search, so no precomputed tables
    and no linear scans for large n.
    """
    _check_peg_count(p)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if p == 3:
        return n  # delta(3, k) = k
    if p == 4:
        return (math.isqrt(8 * n + 1) - 1) // 2
    hi = 1
    while _delta(p, hi) <= n:
        hi *= 2
    lo = hi // 2  # delta(p, lo) <= n < delta(p, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _delta(p, mid) <= n:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class Decomposition:
    """The unique greedy split N - 1 = delta(p, m) + delta(p-1, t) + r.

    Satisfies t <= m and 0 <= r < delta(p-2, t+1).
    """

    p: int
    N: int
    m: int
    t: int
    r: int

    def recompose(self) -> int:
        """The value delta(p, m) + delta(p-1, t) + r; always equals N - 1."""
        return delta(self.p, self.m) + delta(self.p - 1, self.t) + self.r


def decompose(p: int, N: int) -> Decomposition:
    """Greedy (m, t, r) split of N - 1: m maximal with delta(p, m) <= N - 1,
    then t maximal with delta(p-1, t) <= the remainder, then r what is left.

    Defined for p >= 4 and N >= 1.  The resulting triple always satisfies
    the Decomposition invariants; a violation would be an implementation
    bug, so it raises AssertionError.
    """
    if p < 4:
        raise ValueError(f"decompose requires at least 4 pegs, got {p}")
    if N < 1:
        raise ValueError(f"disk count must be at least 1, got {N}")
    m = nabla(p, N - 1)
    rest = N - 1 - delta(p, m)
    t = nabla(p - 1, rest)
    r = rest - delta(p - 1, t)
    # r < delta(p-2, t+1); the p = 4 case needs C(t, 0), hence raw binomial.
    r_bound = binomial(t + 1 + p - 5, p - 4)
    if t > m or r < 0 or r >= r_bound:
        raise AssertionError(
            f"greedy split of N-1={N - 1} produced invalid (m={m}, t={t}, r={r})"
        )
    result = Decomposition(p=p, N=N, m=m, t=t, r=r)
    if result.recompose() != N - 1:
        raise AssertionError(f"split {result} does not recompose to {N - 1}")
    return result
