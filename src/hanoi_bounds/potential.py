"""Bousch's potential function on finite disk sets.

psi(E) lower-bounds the distance from any configuration whose peg ``a``
holds exactly the disks in E to any configuration with peg ``a`` and one
other peg empty (4 pegs).  The removal and union inequalities it satisfies
are exposed as checkable predicates so they can be swept against the
brute-force search.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import index
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


def _labels(elements: Iterable[int]) -> list[int]:
    """``disk_set`` as a list of Python ints: sorted, validated, and each
    label passed through ``operator.index``, so a label that is not an
    integer (1.5, say) raises TypeError, as ``nabla`` does.  The checks
    run over the converted list; on a failure ``disk_set`` is called, so
    the errors and their order are its own."""
    items = list(elements)
    try:
        labels = sorted(map(index, items))
    except TypeError:
        disk_set(items)  # a negative or duplicate label is reported first
        # a numpy bool has no __index__ but is an integer under arithmetic,
        # as in nabla; a float still raises here
        labels = sorted(index(label + 0) for label in items)
    if labels and labels[0] < 0 or len(set(labels)) < len(labels):
        disk_set(items)  # raises, naming the label as it was given
    return labels


def _psi(labels: list[int]) -> int:
    """``psi`` of a list from ``_labels``."""
    size = len(labels)
    level = 0
    below = bisect_left(labels, 1)  # grade 0 is the label 0 alone
    low_sum = below  # 2**g summed over the members of grade <= level
    while size - below > level + 1:
        level += 1
        top = bisect_left(labels, (level + 1) * (level + 2) // 2, below)
        low_sum += (top - below) << level
        below = top
    return (1 - level) * (1 << level) - 1 + low_sum + ((size - below) << level)


def psi(elements: Iterable[int]) -> int:
    """The potential: the supremum of psi_L over all levels L >= 0.

    With grades g = nabla(4, n) for the members n, one level up adds
    psi_{L+1} - psi_L = 2**L * (#{g > L} - L - 1).  The bracket strictly
    falls as L grows, so psi_L rises, then falls, and the supremum is
    psi_{L*} for L* the first L >= 0 with #{g > L} <= L + 1.

    No grade is computed.  The members of grade g are exactly those in
    [T(g), T(g + 1)) for T(g) = delta(4, g) = g(g + 1)/2, so in the sorted
    members those of grade <= L are the first bisect_left(E, T(L + 1)).
    As L climbs to L*, one bisect per level, from where the last stopped,
    gives #{g > L} and adds 2**L per member of grade L.  After one sort
    and a validation pass in C, that is O(L* log |E|) steps, where
    L* <= |E| and L* <= nabla(4, max E) + 1 (L* <= 20 for labels below
    200).  ``psi_L`` keeps the literal definition, and the tests compare
    the two.
    """
    return _psi(_labels(elements))


def check_removal_bound(elements: Iterable[int], s: int, a: int) -> bool:
    """Whether psi(A) - psi(A - {a}) <= 2**(s-1), exactly (1/2 when s = 0).

    Applicable only when at most s members of A are >= delta(4, s); other
    inputs raise NotApplicableError.
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    labels = _labels(elements)
    if a not in labels:
        raise ValueError(f"element {a} is not in the set")
    cutoff = delta(4, s)
    overflow = len(labels) - bisect_left(labels, cutoff)
    if overflow > s:
        raise NotApplicableError(
            f"{overflow} members are >= delta(4, {s}) = {cutoff}; at most {s} allowed"
        )
    drop = _psi(labels)
    labels.remove(a)
    drop -= _psi(labels)
    return DyadicRational.from_int(drop) <= DyadicRational(1, s - 1)


def check_union_bound(a_elements: Iterable[int], b_elements: Iterable[int]) -> bool:
    """Whether psi(A) + psi(B) >= (Phi(4, N + 3) - 5) / 4 for N = |A u B|.

    The right side is Gamma(4, N + 3) - 3, an integer.
    """
    a_labels = _labels(a_elements)
    b_labels = _labels(b_elements)
    n = len(set(a_labels).union(b_labels))
    return _psi(a_labels) + _psi(b_labels) >= gamma_formula(4, n + 3)[0] - 3
