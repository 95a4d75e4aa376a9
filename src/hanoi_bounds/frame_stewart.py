"""Frame-Stewart transfer counts and explicit transfer move sequences.

Phi(p, N) is the move count of the Frame-Stewart algorithm: split off the
top l disks, park them using all p pegs, move the rest with p-1 pegs, then
unpark.  ``phi_closed`` is the closed form for every p >= 3 and the only
route the rest of the package calls.  The minimization recurrence
(``phi_recursive``) and the spectrum sum over bracket-inverse values
(``phi_spectrum``) are kept only as independent cross-checks: the ``phi``
verification suite, the ``lemmas`` identities, ``phi --method
recursive|spectrum|all`` and the tests compare them with the closed form.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable

from .core import Configuration, Move, MovePath
from .numerics import delta, nabla

__all__ = [
    "best_split",
    "frame_stewart_path",
    "phi4_closed",
    "phi_closed",
    "phi_recursive",
    "phi_spectrum",
    "transfer_moves",
]


def _check_args(p: int, n: int) -> None:
    if p < 3:
        raise ValueError(f"peg count must be at least 3, got {p}")
    if n < 0:
        raise ValueError(f"disk count must be nonnegative, got {n}")


@lru_cache(maxsize=None)
def _phi_rec(p: int, n: int) -> int:
    if n <= 1:
        return n
    if p == 3:
        return (1 << n) - 1
    best = None
    for split in range(1, n):
        value = 2 * _phi_rec(p, split) + _phi_rec(p - 1, n - split)
        if best is None or value < best:
            best = value
    return best


def phi_recursive(p: int, n: int) -> int:
    """Phi(p, n) straight from the minimization recurrence, memoized.

    Base data: Phi(p, 0) = 0, Phi(p, 1) = 1, Phi(3, n) = 2**n - 1.
    """
    _check_args(p, n)
    return _phi_rec(p, n)


def phi_spectrum(p: int, n: int) -> int:
    """Phi(p, n) as the sum of 2**nabla(p, k) over k < n.

    Consecutive k share the same bracket-inverse value, so the sum is taken
    block by block: all k with nabla(p, k) = j form the interval
    [delta(p, j), delta(p, j+1)).  Cost is O(nabla(p, n)) big-int terms.
    """
    _check_args(p, n)
    total = 0
    j = 0
    while delta(p, j) < n:
        low = delta(p, j)
        high = min(delta(p, j + 1), n)
        total += (high - low) << j
        j += 1
    return total


def phi_closed(p: int, n: int) -> int:
    """Phi(p, n) in closed form: with m = nabla(p, n) and
    F(j) = sum over i in [0, p-3] of (-2)**i * C(j + p - 3, p - 3 - i),
    the value is (F(m) + n - delta(p, m)) * 2**m - F(0).

    F(0) = (-1)**(p-3), so the cost is p - 2 binomials whatever n is.
    """
    _check_args(p, n)
    m = nabla(p, n)
    f_m = 0
    for k in range(p - 2):  # Horner: the C(., k) term ends up times (-2)**(p-3-k)
        f_m = comb(m + p - 3, k) - 2 * f_m
    return ((f_m + n - delta(p, m)) << m) - (-1) ** (p - 3)


def phi4_closed(n: int) -> int:
    """Phi(4, n) for n >= 1.  Kept by name because ``perfbench/tracing.py``
    wraps it; the formula lives in phi_closed."""
    if n < 1:
        raise ValueError(f"disk count must be at least 1, got {n}")
    return phi_closed(4, n)


def best_split(p: int, n: int) -> int:
    """The smallest l in [1, n-1] minimizing 2*Phi(p, l) + Phi(p-1, n-l)."""
    if p < 4:
        raise ValueError(f"best_split needs at least 4 pegs, got {p}")
    if n < 2:
        raise ValueError(f"best_split needs at least 2 disks, got {n}")
    return min(range(1, n), key=lambda split: 2 * phi_closed(p, split) + phi_closed(p - 1, n - split))


def transfer_moves(
    first_disk: int, count: int, pegs: tuple[int, ...], src: int, dst: int
) -> list[Move]:
    """Moves relocating the stack of disks first_disk..first_disk+count-1
    from ``src`` to ``dst`` using only the pegs in ``pegs``.

    The caller guarantees those disks sit on top of ``src`` and that every
    other disk present anywhere is larger.  The sequence has length exactly
    Phi(len(pegs), count).
    """
    out: list[Move] = []
    _emit(first_disk, count, tuple(pegs), src, dst, out)
    return out


def _emit(first: int, count: int, pegs: tuple[int, ...], src: int, dst: int, out: list[Move]) -> None:
    if count == 0:
        return
    if count == 1:
        out.append(Move(first, src, dst))
        return
    if len(pegs) == 3:
        spare = next(x for x in pegs if x != src and x != dst)
        _emit(first, count - 1, pegs, src, spare, out)
        out.append(Move(first + count - 1, src, dst))
        _emit(first, count - 1, pegs, spare, dst, out)
        return
    split = best_split(len(pegs), count)
    parking = next(x for x in pegs if x != src and x != dst)
    _emit(first, split, pegs, src, parking, out)
    remaining = tuple(x for x in pegs if x != parking)
    _emit(first + split, count - split, remaining, src, dst, out)
    _emit(first, split, pegs, parking, dst, out)


def frame_stewart_path(n: int, pegs: Iterable[int], src: int, dst: int) -> MovePath:
    """A legal path moving disks 0..n-1 from ``src`` to ``dst`` over ``pegs``.

    Length is exactly Phi(q, n) for q = len(pegs).
    """
    peg_tuple = tuple(pegs)
    q = len(peg_tuple)
    if q < 3:
        raise ValueError(f"need at least 3 pegs, got {q}")
    if len(set(peg_tuple)) != q:
        raise ValueError(f"peg labels must be distinct, got {peg_tuple}")
    if src == dst:
        raise ValueError("source and destination pegs must differ")
    if src not in peg_tuple or dst not in peg_tuple:
        raise ValueError(f"src={src} and dst={dst} must both be in {peg_tuple}")
    moves = transfer_moves(0, n, peg_tuple, src, dst)
    start = Configuration.all_on(max(peg_tuple) + 1, n, src)
    return MovePath(start, tuple(moves))
