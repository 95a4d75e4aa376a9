"""Lower and upper bounds on Hanoi transfer counts and essential-path lengths.

H(p, N) is the minimum number of moves to transfer N disks between two pegs
with p pegs available.  Gamma(p, N) is the minimum length of a move
sequence (from any start) that moves every disk at least once; it lower
bounds H.  This module holds every closed-form bound the package knows,
plus a dynamic program that chains them through the recursive halving
inequality Gamma(p, N) >= 2 * min(Gamma(p, N - l), Gamma(p - 1, l)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .dyadic import DyadicRational
from .frame_stewart import phi_closed
from .numerics import decompose, delta, nabla

__all__ = [
    "BoundReport",
    "MAX_DP_DISKS",
    "bound_report_from_json_dict",
    "build_report",
    "chen_shen_bound",
    "dp_lower_bound",
    "dp_lower_bounds",
    "gamma_above_proven_upper",
    "gamma_formula",
    "main2_bound",
]

# The largest n_max dp_lower_bounds builds rows for: at 10**6 disks its two
# rows of bigints take about 250 MB, and 10**12 would exhaust memory.
MAX_DP_DISKS = 10**6


def chen_shen_bound(p: int, n: int) -> DyadicRational:
    """Chen-Shen lower bound on H(p, n): exactly 2**(m-1), where m is the
    largest integer with C(m + p - 3, p - 2) < n.  Fractional when m = 0."""
    if p < 3:
        raise ValueError(f"peg count must be at least 3, got {p}")
    if n < 1:
        raise ValueError(f"disk count must be at least 1, got {n}")
    m = nabla(p, n - 1)
    return DyadicRational(1, m - 1)


def main2_bound(p: int, n: int) -> DyadicRational:
    """Lower bound (m + t) * 2**(m - 2(p-2)) from the greedy (m, t, r)
    split of n - 1; exact, and fractional when m < 2(p-2)."""
    if p < 4:
        raise ValueError(f"main2_bound needs at least 4 pegs, got {p}")
    d = decompose(p, n)
    return DyadicRational(d.m + d.t, d.m - 2 * (p - 2))


def gamma_formula(p: int, n: int) -> tuple[int, Literal["exact", "conjectured"]]:
    """Gamma(p, n) from the closed formula, with its status: n for
    n <= p - 2, otherwise p - 1 + (Phi(p, n) - (2(p-2) + 1)) / 4.

    Proven for p = 3 (Szegedy: 1 + 2**(n-2)) and p = 4 (3 + (Phi(4, n) - 5)
    / 4), so "exact" there; for p >= 5 it is the paper's conjecture.  For
    n >= p - 1 the same value is a proven upper bound for every p.
    """
    if p < 3:
        raise ValueError(f"peg count must be at least 3, got {p}")
    if n < 0:
        raise ValueError(f"disk count must be nonnegative, got {n}")
    status = "exact" if p <= 4 else "conjectured"
    if n <= p - 2:
        return n, status
    quotient, remainder = divmod(phi_closed(p, n) - (2 * (p - 2) + 1), 4)
    if remainder:
        raise AssertionError(f"Phi({p}, {n}) - {2 * (p - 2) + 1} is not divisible by 4")
    return p - 1 + quotient, status


def gamma_above_proven_upper(p: int, n: int, value: int) -> bool:
    """Whether ``value`` as Gamma(p, n) contradicts a theorem by exceeding
    ``gamma_formula``, which from n = p - 1 on is a proven upper bound for
    every p: the one test of a searched value against it."""
    return n >= p - 1 and value > gamma_formula(p, n)[0]


def gamma3_formula(n: int) -> int:
    """Gamma(3, n): n for n <= 1, otherwise 1 + 2**(n-2) (Szegedy).  Kept
    by name because ``perfbench/tracing.py`` wraps it; the package reads
    Gamma's closed form only through gamma_formula."""
    return gamma_formula(3, n)[0]


def gamma4_formula(n: int) -> int:
    """Gamma(4, n): n for n <= 2, otherwise 3 + (Phi(4, n) - 5) / 4.  Kept
    by name because ``perfbench/tracing.py`` wraps it; the package reads
    Gamma's closed form only through gamma_formula."""
    return gamma_formula(4, n)[0]


def gamma_conjecture(p: int, n: int) -> int:
    """Conjectured Gamma(p, n); equal to the proven formulas for p <= 4.
    Kept by name because ``perfbench/tracing.py`` wraps it; the package
    reads Gamma's closed form only through gamma_formula."""
    return gamma_formula(p, n)[0]


def gamma_upper_general(p: int, n: int) -> int:
    """Upper bound on Gamma(p, n) for n >= p - 1: the gamma_formula value.
    Kept by name because ``perfbench/tracing.py`` wraps it; the package
    reads Gamma's closed form only through gamma_formula."""
    if n < p - 1:
        raise ValueError(f"defined for at least {p - 1} disks, got {n}")
    return gamma_formula(p, n)[0]


def dp_lower_bounds(p: int, n_max: int) -> list[int]:
    """Dynamic-program lower bounds on Gamma(p, n) for all n <= n_max.

    Base row: the exact 4-peg values, filled by additions rather than one
    formula call per n: for n >= 3, Gamma(4, n + 1) = Gamma(4, n) +
    2**(nabla(4, n) - 2), a quarter of Phi(4, .)'s step, and nabla(4, n)
    is constant on each block [delta(4, j), delta(4, j + 1)), so each
    block needs one shift.  Each row q >= 5 takes the best of the
    trivial bound n (every disk moves once), monotone restriction
    (dropping the largest disk cannot lengthen an essential path), and the
    recursive halving bound 2 * min(row[n - l], prev[l]) over every split l.

    Every row is nondecreasing in n, so in l the term row[n - l] falls and
    prev[l] rises, and the halving bound is largest at their crossing: l*,
    the smallest l in [1, n - 1] with prev[l] >= row[n - l] (n if none),
    gives row[n - l*] and l* - 1 gives prev[l* - 1].  As n grows row[n - l]
    only grows, so l* never moves left and one pointer walks it: O(n_max)
    per row and O(p * n_max) in all.  ``tests/test_bounds.py`` keeps the
    loop over every split as the reference.

    Row q + 1 is computed from row q alone, so once a row equals the row
    before it every later row is the same, and the loop stops there: at
    q = 5, 8 and 11 for n_max = 5, 50 and 300, so a billion pegs build only
    those rows.

    Raises ValueError, before building any row, when n_max exceeds
    MAX_DP_DISKS.
    """
    if p < 4:
        raise ValueError(f"dp lower bound needs at least 4 pegs, got {p}")
    if n_max < 0:
        raise ValueError(f"disk count must be nonnegative, got {n_max}")
    if n_max > MAX_DP_DISKS:
        raise ValueError(f"dp lower bounds need at most MAX_DP_DISKS = {MAX_DP_DISKS} disks, got {n_max}")
    row = [gamma_formula(4, n)[0] for n in range(min(n_max, 3) + 1)]
    j = 2  # nabla(4, 3); block j adds 2**(j - 2) per disk
    while len(row) <= n_max:
        step = 1 << (j - 2)
        for _ in range(len(row), min(delta(4, j + 1), n_max) + 1):
            row.append(row[-1] + step)
        j += 1
    for q in range(5, p + 1):
        prev = row
        row = [0] * (n_max + 1)
        split = 1
        for n in range(1, n_max + 1):
            while split < n and prev[split] < row[n - split]:
                split += 1
            best = max(n, row[n - 1])
            if split < n:
                best = max(best, 2 * row[n - split])
            if split > 1:
                best = max(best, 2 * prev[split - 1])
            row[n] = best
        if row == prev:
            break
    return row


def dp_lower_bound(p: int, n: int) -> int:
    """Dynamic-program lower bound on Gamma(p, n); see dp_lower_bounds.

    Row 4 of the program is the exact 4-peg formula, so p = 4 reads it
    directly instead of building a row of n + 1 values.
    """
    if p == 4:
        return gamma_formula(4, n)[0]
    return dp_lower_bounds(p, n)[n]


@dataclass(frozen=True)
class BoundReport:
    """Everything the closed forms say about one (p, N) pair.

    ``gamma_formula`` is exact for p <= 4 and conjectured for p >= 5, as
    recorded in ``gamma_formula_status``.  ``main2`` and ``dp_lower`` need
    p >= 4, ``gamma_upper_general`` needs N >= p - 1; absent values are
    None and serialize as JSON null.
    """

    p: int
    N: int
    chen_shen: DyadicRational
    main2: DyadicRational | None
    trivial_n: int
    dp_lower: int | None
    gamma_formula: int
    gamma_formula_status: Literal["exact", "conjectured"]
    phi_upper: int
    gamma_upper_general: DyadicRational | None

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "N": self.N,
            "chen_shen": self.chen_shen.to_json_dict(),
            "main2": None if self.main2 is None else self.main2.to_json_dict(),
            "trivial_n": self.trivial_n,
            "dp_lower": self.dp_lower,
            "gamma_formula": self.gamma_formula,
            "gamma_formula_status": self.gamma_formula_status,
            "phi_upper": self.phi_upper,
            "gamma_upper_general": None
            if self.gamma_upper_general is None
            else self.gamma_upper_general.to_json_dict(),
        }


def bound_report_from_json_dict(data: dict) -> BoundReport:
    def dyadic(value):
        return None if value is None else DyadicRational.from_json_dict(value)

    return BoundReport(
        p=int(data["p"]),
        N=int(data["N"]),
        chen_shen=DyadicRational.from_json_dict(data["chen_shen"]),
        main2=dyadic(data["main2"]),
        trivial_n=int(data["trivial_n"]),
        dp_lower=None if data["dp_lower"] is None else int(data["dp_lower"]),
        gamma_formula=int(data["gamma_formula"]),
        gamma_formula_status=data["gamma_formula_status"],
        phi_upper=int(data["phi_upper"]),
        gamma_upper_general=dyadic(data["gamma_upper_general"]),
    )


def build_report(p: int, n: int) -> BoundReport:
    """Assemble the full report for (p, n)."""
    if p < 3:
        raise ValueError(f"peg count must be at least 3, got {p}")
    if n < 1:
        raise ValueError(f"disk count must be at least 1, got {n}")
    gamma_value, status = gamma_formula(p, n)
    upper = DyadicRational.from_int(gamma_value) if n >= p - 1 else None
    return BoundReport(
        p=p,
        N=n,
        chen_shen=chen_shen_bound(p, n),
        main2=main2_bound(p, n) if p >= 4 else None,
        trivial_n=n,
        dp_lower=dp_lower_bound(p, n) if p >= 4 else None,
        gamma_formula=gamma_value,
        gamma_formula_status=status,
        phi_upper=phi_closed(p, n),
        gamma_upper_general=upper,
    )
