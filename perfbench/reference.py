"""Reference answers the benchmark checks every operation against.

Nothing here imports hanoi_bounds: each value comes from a formula written
out afresh below, or from ``pinned.json`` (values recorded from the
library's own search at a known-good commit, regenerated by ``pin.py``),
so a reference never shares the code path being timed.

Sources:
- Phi(p, n) for every p from the closed form
  Phi(p, n) = 2**m * F(m) - F(0) + (n - delta(p, m)) * 2**m, m = nabla(p, n),
  F(j) = sum_{i=0}^{p-3} (-2)**i * C(j + p - 3, p - 3 - i);
  checked against the minimization recurrence by ``self_check``.
- H(3, n) = 2**n - 1, H(4, n) = Phi(4, n) (Bousch 2014); H(p, n) for p >= 5
  is pinned and must also equal Phi(p, n).
- Gamma(3, n) (Szegedy) and Gamma(4, n) as closed forms; Gamma(p, n) for
  p >= 5 is pinned and must also equal the conjectured
  p - 1 + (Phi(p, n) - 2p + 3) / 4.
- Bousch's potential psi as the maximum over truncation levels.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text(encoding="utf-8"))


def delta(p: int, k: int) -> int:
    return math.comb(k + p - 3, p - 2)


def nabla(p: int, n: int) -> int:
    """Largest k with delta(p, k) <= n."""
    if p == 3:
        return n
    if p == 4:
        return (math.isqrt(8 * n + 1) - 1) // 2
    lo, hi = 0, 1
    while delta(p, hi) <= n:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if delta(p, mid) <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _f(p: int, j: int) -> int:
    return sum((-2) ** i * math.comb(j + p - 3, p - 3 - i) for i in range(p - 2))


def phi(p: int, n: int) -> int:
    """Frame-Stewart transfer count Phi(p, n) in closed form."""
    m = nabla(p, n)
    return (_f(p, m) << m) - _f(p, 0) + ((n - delta(p, m)) << m)


def gamma_formula(p: int, n: int) -> int:
    """Szegedy (p = 3), Main-1 (p = 4) and the conjectured value (p >= 5)."""
    if n <= max(1, p - 2):
        return n
    if p == 3:
        return 1 + (1 << (n - 2))
    quotient, remainder = divmod(phi(p, n) - (2 * p - 3), 4)
    if remainder:
        raise AssertionError(f"Phi({p}, {n}) - {2 * p - 3} is not divisible by 4")
    return p - 1 + quotient


def gamma(p: int, n: int) -> int:
    """Exact Gamma(p, n): proven formulas for p <= 4, pinned search values beyond."""
    if p <= 4:
        return gamma_formula(p, n)
    return PINNED["gamma"][f"{p},{n}"]


def transfer(p: int, n: int) -> int:
    """Exact H(p, n): 2**n - 1 and Phi(4, n) are proven; p >= 5 is pinned."""
    if p == 3:
        return (1 << n) - 1
    if p == 4:
        return phi(4, n)
    return PINNED["H"][f"{p},{n}"]


def psi(members) -> int:
    """Bousch's potential: max over levels L of
    (1 - L) * 2**L - 1 + sum over members of 2**min(nabla(4, x), L)."""
    grades = sorted(nabla(4, x) for x in members)
    top = grades[-1] + 1 if grades else 1
    return max(
        (1 - level) * (1 << level) - 1 + sum(1 << min(g, level) for g in grades)
        for level in range(top + 1)
    )


def removal_holds(members, s: int, a: int) -> bool:
    drop = psi(members) - psi([x for x in members if x != a])
    return drop <= Fraction(2) ** (s - 1)


def union_holds(a_set, b_set) -> bool:
    n = len(set(a_set) | set(b_set))
    return 4 * (psi(a_set) + psi(b_set)) >= phi(4, n + 3) - 5


def decomposition(p: int, n: int) -> tuple[int, int, int]:
    """The greedy split n - 1 = delta(p, m) + delta(p - 1, t) + r."""
    m = nabla(p, n - 1)
    rest = n - 1 - delta(p, m)
    t = nabla(p - 1, rest)
    return m, t, rest - delta(p - 1, t)


def dyadic_value(mantissa: int, exponent: int) -> Fraction:
    return Fraction(mantissa) * Fraction(2) ** exponent


def report(p: int, n: int) -> dict:
    """The bound report for (p, n) as exact numbers; ``dp_lower`` is pinned."""
    m, t, _ = decomposition(p, n)
    gamma_value = gamma_formula(p, n)
    return {
        "chen_shen": Fraction(2) ** (nabla(p, n - 1) - 1),
        "main2": Fraction(m + t) * Fraction(2) ** (m - 2 * (p - 2)),
        "dp_lower": PINNED["dp_lower"][f"{p},{n}"],
        "gamma_formula": gamma_value,
        "gamma_formula_status": "exact" if p <= 4 else "conjectured",
        "phi_upper": phi(p, n),
        "gamma_upper_general": gamma_value,
    }


def replay(p: int, start: tuple[int, ...], moves) -> tuple[int, ...]:
    """Final configuration after ``moves`` (disk, src, dst); raises on an
    illegal move.  A move is legal when the disk is alone on top of src
    and every disk on dst is larger."""
    pegs = list(start)
    for disk, src, dst in moves:
        if pegs[disk] != src or src == dst or not 0 <= dst < p:
            raise AssertionError(f"illegal move {(disk, src, dst)}")
        if any(pegs[smaller] in (src, dst) for smaller in range(disk)):
            raise AssertionError(f"move {(disk, src, dst)} is blocked by a smaller disk")
        pegs[disk] = dst
    return tuple(pegs)


@lru_cache(maxsize=None)
def self_check() -> None:
    """Cross-check the closed forms and pins against a plain recurrence."""
    rec: dict[tuple[int, int], int] = {}
    for p in range(3, 11):
        for n in range(0, 80):
            if n <= 1 or p == 3:
                rec[p, n] = (1 << n) - 1
            else:
                rec[p, n] = min(2 * rec[p, k] + rec[p - 1, n - k] for k in range(1, n))
            if phi(p, n) != rec[p, n]:
                raise AssertionError(f"closed form Phi({p}, {n}) disagrees with the recurrence")
    for key, value in PINNED["gamma"].items():
        p, n = map(int, key.split(","))
        if gamma_formula(p, n) != value:
            raise AssertionError(f"pinned Gamma({key}) disagrees with the conjectured formula")
    for key, value in PINNED["H"].items():
        p, n = map(int, key.split(","))
        if phi(p, n) != value:
            raise AssertionError(f"pinned H({key}) disagrees with Phi")
