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


def psi_L(elements: Iterable[int], level: int) -> int:
    """The truncated potential at ``level``:
    (1 - L) * 2**L - 1 + sum over n in E of 2**min(nabla(4, n), L)."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    terms = sum(1 << min(nabla(4, n), level) for n in disk_set(elements))
    return (1 - level) * (1 << level) - 1 + terms


def psi(elements: Iterable[int]) -> int:
    """The potential: the supremum of psi_L over all levels L >= 0.

    With grades g = nabla(4, n) for the members n, one level up adds
    psi_{L+1} - psi_L = 2**L * (#{g > L} - L - 1).  The bracket strictly
    falls as L grows, so psi_L rises, then falls, and the supremum is
    psi_{L*} for L* the first L >= 0 with #{g > L} <= L + 1.  The grades
    come in nondecreasing order (``disk_set`` sorts and nabla is
    monotone), so one pointer over them counts #{g > L} and sums 2**g over
    the grades at or below L while L climbs to L*: O(|E| + L*) steps.
    ``psi_L`` keeps the literal definition, and the tests compare the two.
    """
    grades = [nabla(4, n) for n in disk_set(elements)]
    level = below = low_sum = 0  # low_sum: 2**g summed over grades[:below]
    while True:
        while below < len(grades) and grades[below] <= level:
            low_sum += 1 << grades[below]
            below += 1
        if len(grades) - below <= level + 1:
            break
        level += 1
    return (1 - level) * (1 << level) - 1 + low_sum + ((len(grades) - below) << level)


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
