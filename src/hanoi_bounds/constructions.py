"""Explicit 4-peg configurations and move sequences with exact lengths.

Three constructions live here.  A midpoint transfer splits a stack between
two target pegs in exactly (Phi(4, N+1) - 1) / 2 moves.  The tight pair
realizes the minimum distance between a configuration confined to pegs
{0, 1} and one confined to pegs {2, 3}.  The essential-path construction
moves every disk at least once in exactly 3 + (Phi(4, N) - 5) / 4 moves,
the least possible.  The last two share one core: small disks spread over
{0, 1} are gathered onto peg 3, a large disk crosses from peg 1 to peg 2,
and a run of middle disks follows it from peg 0.

Every path is emitted once, in order, with no reversal.  Every returned
path is replayed once at construction time, so an illegal move or a
length mismatch surfaces immediately as an error.  Each construction
checks its closed-form length against MAX_PATH_MOVES before emitting any
move, and raises ValueError past it.
"""

from __future__ import annotations

from bisect import bisect_left

from .bounds import gamma_formula
from .core import Configuration, MovePath, is_essential
from .frame_stewart import MoveWriter, check_path_length, phi_closed
from .numerics import nabla

__all__ = ["main1_essential_path", "midpoint_path", "two1_tight_pair"]

_ALL_PEGS = (0, 1, 2, 3)


def _cheapest_split(offset: int, count: int) -> int:
    """The smallest a in [0, count) minimizing
    Phi(4, a + offset) + Phi(3, count - a); 0 when count is 0.

    Phi(q, k + 1) - Phi(q, k) = 2**nabla(q, k), so the sum steps by
    2**nabla(4, a + offset) - 2**(count - a - 1) from a to a + 1.  The step
    grows with a, so the sum is convex, and the smallest minimizer is the
    first a whose step is not negative, or count - 1: a bisection.
    """
    return bisect_left(range(count - 1), True, key=lambda a: nabla(4, a + offset) >= count - a - 1)


def midpoint_path(
    n: int, src: int, targets: tuple[int, int], spare: int
) -> MovePath:
    """Move n disks from ``src`` so they occupy exactly the two target pegs,
    in exactly (Phi(4, n+1) - 1) / 2 moves.

    Scans splits a + b = n with b >= 1 for the smallest a minimizing
    Phi(4, a) + Phi(3, b): the a smallest disks travel to targets[0] over
    all four pegs, the rest to targets[1] over {src, spare, targets[1]}.
    """
    if n < 1:
        raise ValueError(f"need at least one disk, got {n}")
    pegs = (src, targets[0], targets[1], spare)
    if sorted(pegs) != [0, 1, 2, 3]:
        raise ValueError(f"pegs must be 0..3, all distinct, got src={src} targets={targets} spare={spare}")
    expected = (phi_closed(4, n + 1) - 1) // 2
    check_path_length(expected, f"a midpoint transfer of {n} disks")
    a = _cheapest_split(0, n)
    out = MoveWriter()
    out.transfer(0, a, _ALL_PEGS, src, targets[0])
    out.transfer(a, n - a, tuple(sorted((src, spare, targets[1]))), src, targets[1])
    path = MovePath(Configuration.all_on(4, n, src), out.moves())
    final = path.replay()
    if path.length != expected:
        raise AssertionError(f"midpoint transfer of {n} disks took {path.length} moves, expected {expected}")
    for peg in (src, spare):
        if final.disks_on(peg):
            raise AssertionError(f"midpoint transfer left disks on peg {peg}")
    return path


def _tight_core(k: int, big: int, out: MoveWriter) -> list[int]:
    """The pegs of disks 0..k-2; appends to ``out`` the moves that gather
    the a smallest onto peg 3, move disk ``big`` (on peg 1, larger than
    them all) to peg 2, then bring disks a..k-2 after it from peg 0 over
    {0, 1, 2}.

    a is the smallest minimizing Phi(4, a+1) + Phi(3, k-a).  The gather,
    (Phi(4, a+1) - 1) / 2 moves, is ``midpoint_path(a, 3, (0, 1), 2)``
    walked backwards: its two transfers in the opposite order, each with
    its ends swapped (see ``transfer_moves``), starting from where the
    midpoint transfer ends, the b smallest disks on peg 0 and the rest
    on peg 1.
    """
    a = _cheapest_split(1, k)
    b = _cheapest_split(0, a)
    pegs = [0] * b + [1] * (a - b) + [0] * (k - 1 - a)
    out.transfer(b, a - b, (1, 2, 3), 1, 3)
    out.transfer(0, b, _ALL_PEGS, 0, 3)
    out.move(big, 1, 2)
    out.transfer(a, k - 1 - a, (0, 1, 2), 0, 2)
    return pegs


def two1_tight_pair(n: int) -> tuple[Configuration, Configuration, MovePath]:
    """A pair (u, v) with u confined to pegs {0, 1} and v to pegs {2, 3},
    joined by a path of exactly 1 + (Phi(4, n+2) - 5) / 4 moves, the least
    any such pair allows.

    For the smallest a minimizing Phi(4, a+1) + Phi(3, b) over a + b = n,
    b >= 1: u holds disk n-1 on peg 1, disks a..n-2 on peg 0, and the a
    smallest disks spread over {0, 1}.  The path gathers the small disks
    onto peg 3, moves disk n-1 to peg 2, then brings disks a..n-2 after it.
    """
    if n < 2:
        raise ValueError(f"need at least two disks, got {n}")
    expected = gamma_formula(4, n + 2)[0] - 2  # 1 + (Phi(4, n+2) - 5) / 4
    check_path_length(expected, f"a tight pair for {n} disks")
    out = MoveWriter()
    pegs = _tight_core(n, n - 1, out)
    u = Configuration(4, tuple(pegs + [1]))
    path = MovePath(u, out.moves())
    v = path.replay()
    if path.length != expected:
        raise AssertionError(f"tight pair for {n} disks took {path.length} moves, expected {expected}")
    if u.disks_on(2) or u.disks_on(3):
        raise AssertionError("start configuration must leave pegs 2 and 3 empty")
    if v.disks_on(0) or v.disks_on(1):
        raise AssertionError("end configuration must leave pegs 0 and 1 empty")
    return u, v, path


def main1_essential_path(n: int) -> MovePath:
    """A shortest essential path on 4 pegs: every disk moves at least once
    and the length is exactly 3 + (Phi(4, n) - 5) / 4.

    For the smallest a minimizing Phi(4, a+1) + Phi(3, b+1) over
    a + b = n - 3: the start holds disk n-1 on peg 2, disk n-2 on peg 1,
    disk n-3 under disks a..n-4 on peg 0, and the a smallest disks spread
    over {0, 1}.  The path moves disk n-1 aside, then runs the tight core
    of n-2 disks with disk n-2 as its large disk: it gathers the small
    disks onto disk n-1, frees peg 2 for disk n-2 and the run a..n-4.  It
    finishes by moving disk n-3.
    """
    if n < 3:
        raise ValueError(f"need at least three disks, got {n}")
    expected = gamma_formula(4, n)[0]
    check_path_length(expected, f"an essential path for {n} disks")
    out = MoveWriter()
    out.move(n - 1, 2, 3)
    pegs = _tight_core(n - 2, n - 2, out)
    out.move(n - 3, 0, 1)
    u = Configuration(4, tuple(pegs + [0, 1, 2]))
    path = MovePath(u, out.moves())
    path.replay()
    if path.length != expected:
        raise AssertionError(f"essential path for {n} disks took {path.length} moves, expected {expected}")
    if not is_essential(path):
        raise AssertionError("constructed path must move every disk")
    return path
