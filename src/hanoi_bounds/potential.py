"""Bousch's potential function on finite disk sets.

psi(E) lower-bounds the distance from any configuration whose peg ``a``
holds exactly the disks in E to any configuration with peg ``a`` and one
other peg empty (4 pegs).  The removal and union inequalities it satisfies
are exposed as checkable predicates so they can be swept against the
brute-force search.
"""

from __future__ import annotations

from typing import Iterable

from .bounds import gamma_formula
from .dyadic import DyadicRational
from .numerics import delta, nabla

__all__ = [
    "DiskSet",
    "NotApplicableError",
    "check_removal_bound",
    "check_union_bound",
    "disk_set",
    "psi",
    "psi_L",
]

DiskSet = tuple[int, ...]


class NotApplicableError(ValueError):
    """The inputs fail the side condition of the requested inequality."""


def disk_set(elements: Iterable[int]) -> DiskSet:
    """Normalize to a strictly increasing tuple of disk labels."""
    items = sorted(elements)
    for label in items:
        if label < 0:
            raise ValueError(f"disk labels must be nonnegative, got {label}")
    for a, b in zip(items, items[1:]):
        if a == b:
            raise ValueError(f"duplicate disk label {a}")
    return tuple(items)


def _psi_level(grades: list[int], level: int) -> int:
    """psi_L for the set whose members have grades nabla(4, n) in ``grades``:
    (1 - L) * 2**L - 1 + sum over the grades g of 2**min(g, L)."""
    return (1 - level) * (1 << level) - 1 + sum(1 << min(g, level) for g in grades)


def psi_L(elements: Iterable[int], level: int) -> int:
    """The truncated potential at ``level``:
    (1 - L) * 2**L - 1 + sum over n in E of 2**min(nabla(4, n), L)."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return _psi_level([nabla(4, n) for n in disk_set(elements)], level)


def psi(elements: Iterable[int]) -> int:
    """The potential: the supremum of psi_L over all levels L >= 0.

    The supremum is attained within L in [0, M + 1] for M = nabla(4, max E)
    (with M + 1 read as 1 for the empty set): beyond M the member sum is
    constant while (1 - L) * 2**L strictly decreases, so a finite exact
    scan suffices.
    """
    grades = [nabla(4, n) for n in disk_set(elements)]
    top = 1 if not grades else max(grades) + 1
    return max(_psi_level(grades, level) for level in range(top + 1))


def check_removal_bound(elements: Iterable[int], s: int, a: int) -> bool:
    """Whether psi(A) - psi(A - {a}) <= 2**(s-1), exactly (1/2 when s = 0).

    Applicable only when at most s members of A are >= delta(4, s); other
    inputs raise NotApplicableError.
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    members = disk_set(elements)
    if a not in members:
        raise ValueError(f"element {a} is not in the set")
    cutoff = delta(4, s)
    overflow = sum(1 for n in members if n >= cutoff)
    if overflow > s:
        raise NotApplicableError(
            f"{overflow} members are >= delta(4, {s}) = {cutoff}; at most {s} allowed"
        )
    drop = psi(members) - psi(n for n in members if n != a)
    return DyadicRational.from_int(drop) <= DyadicRational(1, s - 1)


def check_union_bound(a_elements: Iterable[int], b_elements: Iterable[int]) -> bool:
    """Whether psi(A) + psi(B) >= (Phi(4, N + 3) - 5) / 4 for N = |A u B|.

    The right side is Gamma(4, N + 3) - 3, an integer.
    """
    a_set = disk_set(a_elements)
    b_set = disk_set(b_elements)
    n = len(set(a_set) | set(b_set))
    return psi(a_set) + psi(b_set) >= gamma_formula(4, n + 3)[0] - 3
