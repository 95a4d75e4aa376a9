"""Frame-Stewart transfer counts and explicit transfer move sequences.

Phi(p, N) is the move count of the Frame-Stewart algorithm: split off the
top l disks, park them using all p pegs, move the rest with p-1 pegs, then
unpark.  The rest of the package calls only ``phi_closed``, min(p - 2,
nabla(p, N)) Horner steps at any peg count.  The recurrence
(``phi_recursive``, a crossing walk) and the spectrum sum (``phi_spectrum``,
by parts, one binomial per block) are independent cross-checks for the
verify suites and the tests.
"""

from __future__ import annotations

from itertools import repeat
from math import comb
from typing import Iterable

from .core import Configuration, Move, MovePath
from .numerics import delta, nabla

__all__ = [
    "MAX_PATH_MOVES",
    "MAX_PHI_EXPONENT",
    "MAX_RECURSIVE_DISKS",
    "best_split",
    "check_path_length",
    "frame_stewart_path",
    "phi_closed",
    "phi_recursive",
    "phi_spectrum",
    "transfer_moves",
]

# The largest m = nabla(p, n), about Phi(p, n)'s bit count, that phi_closed
# and phi_spectrum build: a longer Phi takes over 2 MB and minutes to print
# in decimal, and n = 10**100 at 8 pegs would exhaust memory.
# Phi(4, 10**9) has m = 44,720.
MAX_PHI_EXPONENT = 1 << 24

# The most disks phi_recursive takes, and the most entries its rows below the
# top one may hold together.  At 10**6 disks the walk takes about 2 s at 4 or
# 8 pegs, and 180 MB at 4 pegs, where the top row holds the largest values.
MAX_RECURSIVE_DISKS = 10**6

# The longest move sequence any construction emits.  Paths hold one Move
# object per move: main1_essential_path(203), 4.06 million moves, takes 27 s
# and 0.9 GB, and a few hundred disks more would exhaust memory.
MAX_PATH_MOVES = 1 << 22


def _check_args(p: int, n: int) -> None:
    if p < 3:
        raise ValueError(f"peg count must be at least 3, got {p}")
    if n < 0:
        raise ValueError(f"disk count must be nonnegative, got {n}")


def _exponent(p: int, n: int) -> int:
    """m = nabla(p, n), Phi(p, n)'s top exponent; ValueError past
    MAX_PHI_EXPONENT, before any route builds a number that long."""
    m = nabla(p, n)
    if m > MAX_PHI_EXPONENT:
        raise ValueError(
            f"Phi({p}, n) has about nabla({p}, n) = {m} bits, "
            f"more than MAX_PHI_EXPONENT = {MAX_PHI_EXPONENT}"
        )
    return m


def phi_recursive(p: int, n: int) -> int:
    """Phi(p, n) straight from the minimization recurrence
    Phi(q, m) = min over k in [1, m - 1] of 2 * Phi(q, k) + Phi(q - 1, m - k),
    with Phi(q, 0) = 0, Phi(q, 1) = 1 and Phi(3, m) = 2**m - 1.

    Each call builds the rows Phi(q, 0..) for q = low..p as local lists,
    reading the row below ``low`` as 2**j - 1.  Row q's entry m reads row
    q - 1 at m - k <= m - 1, so row q is read at most n - (p - q) far; with
    low = max(4, p - n + 2) the row below is row 3 or is read only at
    j <= 1, where every row holds j = 2**j - 1.  A row is extended only as
    far as the row above it asks, one entry at a time, by a loop that
    climbs down to the row that is short and back up.

    Each entry comes from a split pointer that only moves right, as in
    ``bounds.dp_lower_bounds``.  Both rows have nondecreasing increments,
    so f_m(k) = 2 * Phi(q, k) + Phi(q - 1, m - k) is convex in k.  Its
    increment f_m(k + 1) - f_m(k) subtracts Phi(q - 1, .)'s increment at
    m - k, which grows with m, so f_m falls wherever f_(m-1) falls and its
    minimizers never lie left of those of f_(m-1).  The pointer starts at
    the previous m's split and advances while the next candidate is not
    larger: O(n) per row where trying every split costs O(n**2).  The
    argument needs convex rows, so each appended entry's increment is
    compared with the one before it, and a smaller one raises RuntimeError
    rather than returning a value the argument does not cover.
    ``tests/test_frame_stewart.py`` keeps the loop over every split as the
    reference.

    Raises ValueError, before building any row, when n exceeds
    MAX_RECURSIVE_DISKS, and while building when the rows below the top
    one would hold more than MAX_RECURSIVE_DISKS entries together: with p
    near n each split is 1 and the rows hold about n**2 / 2 entries.
    """
    _check_args(p, n)
    if n > MAX_RECURSIVE_DISKS:
        raise ValueError(
            f"phi_recursive needs at most MAX_RECURSIVE_DISKS = "
            f"{MAX_RECURSIVE_DISKS} disks, got {n}"
        )
    if n <= 1:
        return n
    if p == 3:
        return (1 << n) - 1
    low = max(4, p - n + 2)
    # rows[0] is the row below low, rows[-1] is row p; splits[i] is the split
    # of rows[i]'s last entry
    rows = [[0, 1] for _ in range(low - 1, p + 1)]
    splits = [1] * len(rows)
    last = len(rows) - 1
    top = rows[last]
    below_entries = 0
    i = last
    while len(top) <= n:
        row, below, k = rows[i], rows[i - 1], splits[i]
        m = len(row)
        if len(below) <= m - k:  # the first candidate reads below[m - k]
            below_entries += 1
            if below_entries > MAX_RECURSIVE_DISKS:
                raise ValueError(
                    f"phi_recursive({p}, {n}) needs more than MAX_RECURSIVE_DISKS = "
                    f"{MAX_RECURSIVE_DISKS} entries in the rows below its top one"
                )
            if i == 1:
                below.append((1 << len(below)) - 1)
            else:
                i -= 1
            continue
        best = 2 * row[k] + below[m - k]
        while k + 1 < m:
            candidate = 2 * row[k + 1] + below[m - k - 1]
            if candidate > best:
                break
            best, k = candidate, k + 1
        if best - row[-1] < row[-1] - row[-2]:
            raise RuntimeError(f"Phi({low + i - 1}, .) lost convexity at {m} disks")
        row.append(best)
        splits[i] = k
        if i < last:
            i += 1
    return top[n]


def phi_spectrum(p: int, n: int) -> int:
    """Phi(p, n) as the sum of 2**nabla(p, k) over k < n, summed by parts.

    With m = nabla(p, n), block j = {k : nabla(p, k) = j} holds
    delta(p, j + 1) - delta(p, j) values of k for j < m and n - delta(p, m)
    for j = m, so each delta(p, j) enters the sum times 2**(j - 1) - 2**j:

        sum over k < n of 2**nabla(p, k) = n * 2**m - sum over j in [1, m] of delta(p, j) * 2**(j - 1).

    ``_spectrum_sum`` adds the delta terms, one binomial per block, never
    calling ``phi_closed`` or its F(m).  ValueError when m > MAX_PHI_EXPONENT.
    """
    _check_args(p, n)
    m = _exponent(p, n)
    return (n << m) - _spectrum_sum(p, 1, m + 1)


# Blocks per _spectrum_sum leaf: of 128 to 4,096, fastest at 4-8 pegs on 2-core x86.
_SPECTRUM_LEAF = 1024


def _spectrum_sum(p: int, lo: int, hi: int) -> int:
    """The sum over j in [lo, hi) of delta(p, j) * 2**(j - lo), by halving down
    to leaves that add their row of C(j + p - 3, p - 2) by Horner's rule."""
    if hi - lo > _SPECTRUM_LEAF:
        mid = (lo + hi) // 2
        return _spectrum_sum(p, lo, mid) + (_spectrum_sum(p, mid, hi) << (mid - lo))
    total = 0
    for d in map(comb, reversed(range(lo + p - 3, hi + p - 3)), repeat(p - 2)):
        total = (total << 1) + d
    return total


def phi_closed(p: int, n: int) -> int:
    """Phi(p, n) in closed form: with m = nabla(p, n) and
    F(j) = sum over i in [0, p-3] of (-2)**i * C(j + p - 3, p - 3 - i),
    the value is (F(m) + n - delta(p, m)) * 2**m - F(0).

    F(0) = (-1)**(p-3).  By the symmetry of the row C(m + p - 3, .),
    F(m) * (-2)**m is the part from k = m on of the sum of
    C(m + p - 3, k) * (-2)**k over the row, which is (-1)**(m + p - 3).  So
    F(m) * 2**m - F(0) = -(-1)**m * T, with T the part before k = m.  The
    shorter of the two sums is taken, F(m) in p - 2 Horner steps or T in m,
    each binomial from the one before it, so any peg count is answered in
    min(p - 2, m) steps.  Raises ValueError before any binomial when m >
    MAX_PHI_EXPONENT.
    """
    _check_args(p, n)
    m = _exponent(p, n)
    top = m + p - 3
    if m < p - 2:
        t, c = 0, comb(top, m)
        for k in reversed(range(m)):  # Horner: the C(top, k) term ends up times (-2)**k
            c = c * (k + 1) // (top - k)  # C(top, k) from C(top, k + 1)
            t = c - 2 * t
        return ((n - delta(p, m)) << m) - (-1) ** m * t
    f_m, c = 0, 1  # c = C(top, k)
    for k in range(p - 2):  # Horner: the C(., k) term ends up times (-2)**(p-3-k)
        f_m = c - 2 * f_m
        c = c * (top - k) // (k + 1)
    return ((f_m + n - delta(p, m)) << m) - (-1) ** (p - 3)


def phi4_closed(n: int) -> int:
    """Phi(4, n) for n >= 1.  Kept by name because ``perfbench/tracing.py``
    wraps it; the formula lives in phi_closed."""
    if n < 1:
        raise ValueError(f"disk count must be at least 1, got {n}")
    return phi_closed(4, n)


def check_path_length(length: int, what: str) -> None:
    """Raise ValueError when ``what`` would emit more than MAX_PATH_MOVES
    moves; constructions call it with their closed-form length before
    emitting any move."""
    if length > MAX_PATH_MOVES:
        raise ValueError(f"{what} takes {length} moves, more than MAX_PATH_MOVES = {MAX_PATH_MOVES}")


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

    Length is exactly Phi(q, n) for q = len(pegs); raises ValueError,
    before emitting a move, when that exceeds MAX_PATH_MOVES.
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
    check_path_length(phi_closed(q, n), f"a {q}-peg transfer of {n} disks")
    moves = transfer_moves(0, n, peg_tuple, src, dst)
    start = Configuration.all_on(max(peg_tuple) + 1, n, src)
    return MovePath(start, tuple(moves))
