"""Explicit 4-peg configurations and move sequences with exact lengths.

Three constructions live here.  A midpoint transfer splits a stack between
two target pegs in exactly (Phi(4, N+1) - 1) / 2 moves.  The tight pair
realizes the minimum distance between a configuration confined to pegs
{0, 1} and one confined to pegs {2, 3}.  The essential-path construction
moves every disk at least once in exactly 3 + (Phi(4, N) - 5) / 4 moves,
the least possible.

Every returned path is replayed at construction time, so an illegal move
or a length mismatch surfaces immediately as an error.  Each construction
checks its closed-form length against MAX_PATH_MOVES before emitting any
move, and raises ValueError past it.
"""

from __future__ import annotations

from .bounds import gamma_formula
from .core import Configuration, Move, MovePath, is_essential
from .frame_stewart import check_path_length, phi_closed, transfer_moves

__all__ = ["main1_essential_path", "midpoint_path", "two1_tight_pair"]

_ALL_PEGS = (0, 1, 2, 3)


def _cheapest_split(offset: int, count: int) -> int:
    """The smallest a in [0, count) minimizing
    Phi(4, a + offset) + Phi(3, count - a)."""
    return min(range(count), key=lambda a: phi_closed(4, a + offset) + phi_closed(3, count - a))


def midpoint_path(
    n: int, src: int, targets: tuple[int, int], spare: int
) -> MovePath:
    """Move n disks from ``src`` so they occupy exactly the two target pegs,
    in exactly (Phi(4, n+1) - 1) / 2 moves.

    Scans splits a + b = n with b >= 1 for the smallest a minimizing
    Phi(4, a) + Phi(3, b): the a smallest disks travel to targets[0] over
    all four pegs, the rest to targets[1] over {src, spare, targets[1]}.
    """
    return _midpoint(n, src, targets, spare)[0]


def _midpoint(
    n: int, src: int, targets: tuple[int, int], spare: int
) -> tuple[MovePath, Configuration]:
    """``midpoint_path`` together with the configuration it ends in, read
    off its one replay."""
    if n < 1:
        raise ValueError(f"need at least one disk, got {n}")
    pegs = (src, targets[0], targets[1], spare)
    if sorted(pegs) != [0, 1, 2, 3]:
        raise ValueError(f"pegs must be 0..3, all distinct, got src={src} targets={targets} spare={spare}")
    expected = (phi_closed(4, n + 1) - 1) // 2
    check_path_length(expected, f"a midpoint transfer of {n} disks")
    a = _cheapest_split(0, n)
    moves = transfer_moves(0, a, _ALL_PEGS, src, targets[0])
    moves += transfer_moves(a, n - a, tuple(sorted((src, spare, targets[1]))), src, targets[1])
    path = MovePath(Configuration.all_on(4, n, src), tuple(moves))
    final = path.replay()
    if path.length != expected:
        raise AssertionError(f"midpoint transfer of {n} disks took {path.length} moves, expected {expected}")
    for peg in (src, spare):
        if final.disks_on(peg):
            raise AssertionError(f"midpoint transfer left disks on peg {peg}")
    return path, final


def _spread_and_regather(a: int) -> tuple[tuple[int, ...], list[Move]]:
    """A placement of the a smallest disks over pegs {0, 1} together with
    moves gathering them all onto peg 3 in (Phi(4, a+1) - 1) / 2 steps.

    Built by reversing a midpoint transfer out of peg 3; path reversal
    preserves legality, and larger foreign disks below the placement do
    not interfere.  The reversed path starts where the transfer ended, so
    no second replay is needed to find its start.
    """
    if a == 0:
        return (), []
    path, final = _midpoint(a, src=3, targets=(0, 1), spare=2)
    return final.pegs, [m.reverse() for m in reversed(path.moves)]


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
    a = _cheapest_split(1, n)
    b = n - a
    placement, gather = _spread_and_regather(a)
    pegs = list(placement) + [0] * (b - 1) + [1]
    u = Configuration(4, tuple(pegs))
    moves = gather + [Move(n - 1, 1, 2)]
    moves += transfer_moves(a, b - 1, (0, 1, 2), 0, 2)
    path = MovePath(u, tuple(moves))
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
    over {0, 1}.  The path moves disk n-1 aside, gathers the small disks
    onto it, frees peg 2 for disk n-2 and the run a..n-4, and finishes by
    moving disk n-3.
    """
    if n < 3:
        raise ValueError(f"need at least three disks, got {n}")
    expected = gamma_formula(4, n)[0]
    check_path_length(expected, f"an essential path for {n} disks")
    a = _cheapest_split(1, n - 2)
    b = n - 3 - a
    placement, gather = _spread_and_regather(a)
    pegs = list(placement) + [0] * b + [0, 1, 2]
    u = Configuration(4, tuple(pegs))
    moves = [Move(n - 1, 2, 3)]
    moves += gather
    moves += [Move(n - 2, 1, 2)]
    moves += transfer_moves(a, b, (0, 1, 2), 0, 2)
    moves += [Move(n - 3, 0, 1)]
    path = MovePath(u, tuple(moves))
    path.replay()
    if path.length != expected:
        raise AssertionError(f"essential path for {n} disks took {path.length} moves, expected {expected}")
    if not is_essential(path):
        raise AssertionError("constructed path must move every disk")
    return path
