"""Brute-force oracle over explicit Hanoi state spaces.

Configurations are ranked as integers (rank = sum of peg * p**disk) and
searched with level-synchronous breadth-first sweeps over numpy arrays:
frontiers are flat rank arrays, visit tables are dense per-state arrays
(one byte or one int32 per state).  Results are deterministic functions of
the inputs regardless of expansion order, because each sweep finishes a
whole level before testing for termination.

``distance`` expands each frontier with ``_edges``, which reads digits and
top disks off the ranks.  ``exact_gamma`` instead builds the whole
configuration graph once as a padded adjacency table (neighbour rank and
moved-disk bit per slot), so each level is one gather.  Its byte per
product state reads 0 (unseen), 1 (seen) or 2 (new this level); a level's
new states are collected by scanning their rank window for 2s when the
window is narrow against their count, and by sorting them otherwise.

Caps bound the state counts a search may touch.  Exceeding a cap raises
CapExceededError, never a silent truncation.  Defaults can be overridden
per call or through HANOI_STATE_CAP / HANOI_PRODUCT_CAP; no cap exceeds
2**62, so ranks stay inside int64.  A search whose tables would exceed
the machine's physical memory raises CapExceededError as well, before it
allocates them.  Searches also refuse more than
MAX_PEGS pegs or MAX_DISKS disks with ValueError; those limits belong to
the search alone, not to configurations or paths.
"""

from __future__ import annotations

import os

import numpy as np

from .core import MIN_PEGS, Configuration
from .potential import psi

__all__ = [
    "CapExceededError",
    "DEFAULT_PRODUCT_CAP",
    "DEFAULT_STATE_CAP",
    "MAX_DISKS",
    "MAX_PEGS",
    "PreconditionError",
    "check_bousch_inequality",
    "distance",
    "exact_H",
    "exact_gamma",
]

MAX_PEGS = 8
MAX_DISKS = 30
DEFAULT_STATE_CAP = 1 << 26
DEFAULT_PRODUCT_CAP = 1 << 28
_MAX_SUPPORTED_CAP = 1 << 62


class CapExceededError(RuntimeError):
    """A search would touch more states than the configured cap allows."""


class PreconditionError(ValueError):
    """Inputs do not satisfy the side conditions of the requested check."""


def _cap_from_env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if not 0 < value <= _MAX_SUPPORTED_CAP:
        raise ValueError(f"{name} must be in (0, 2**62], got {value}")
    return value


def _cap(cap: int | None, env_name: str, default: int) -> int:
    """The per-call cap, else the environment's, else the default, clamped
    to 2**62 so larger searches are refused before anything is allocated."""
    value = cap if cap is not None else _cap_from_env(env_name, default)
    return min(value, _MAX_SUPPORTED_CAP)


def _check_limits(p: int, n: int) -> None:
    if not MIN_PEGS <= p <= MAX_PEGS:
        raise ValueError(f"peg count must be in [{MIN_PEGS}, {MAX_PEGS}], got {p}")
    if not 0 <= n <= MAX_DISKS:
        raise ValueError(f"disk count must be in [0, {MAX_DISKS}], got {n}")


def _check_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating, a search whose tables alone exceed the
    machine's physical memory; a legal cap can still ask for more."""
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf (Windows) or no such name
        return
    if nbytes > physical:
        raise CapExceededError(
            f"{what} needs {nbytes} bytes of tables, more than the {physical} bytes "
            "of physical memory"
        )


def _powers(p: int, n: int) -> np.ndarray:
    return np.array([p**i for i in range(n)], dtype=np.int64)


def _digit_matrix(ranks: np.ndarray, p: int, n: int) -> np.ndarray:
    """Peg of every disk for each rank; shape (len(ranks), n)."""
    out = np.empty((ranks.size, n), dtype=np.uint8)
    rest = ranks.copy()
    for disk in range(n):
        out[:, disk] = rest % p
        rest //= p
    return out


def _top_disks(digits: np.ndarray, p: int, n: int) -> np.ndarray:
    """Topmost (smallest) disk per peg; the sentinel n marks an empty peg."""
    tops = np.full((digits.shape[0], p), n, dtype=np.int8)
    for peg in range(p):
        on_peg = digits == peg
        occupied = on_peg.any(axis=1)
        firsts = on_peg.argmax(axis=1)
        tops[occupied, peg] = firsts[occupied].astype(np.int8)
    return tops


def _edges(
    cfg_ranks: np.ndarray, p: int, n: int, pow_p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All single-move edges out of the given configuration ranks.

    Returns (pos, nbr, disk): for each edge, the index of its source within
    ``cfg_ranks``, the neighbor's configuration rank, and the moved disk.
    A move of the top disk d from peg x to peg y is legal exactly when
    d is smaller than the top of y (the sentinel makes empty pegs accept
    everything), and it changes the rank by (y - x) * p**d.
    """
    digits = _digit_matrix(cfg_ranks, p, n)
    tops = _top_disks(digits, p, n)
    pos_parts: list[np.ndarray] = []
    nbr_parts: list[np.ndarray] = []
    disk_parts: list[np.ndarray] = []
    for x in range(p):
        top_x = tops[:, x]
        for y in range(p):
            if y == x:
                continue
            idx = np.nonzero(top_x < tops[:, y])[0]
            if idx.size == 0:
                continue
            moved = top_x[idx].astype(np.int64)
            pos_parts.append(idx)
            nbr_parts.append(cfg_ranks[idx] + (y - x) * pow_p[moved])
            disk_parts.append(moved)
    if not pos_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return (
        np.concatenate(pos_parts),
        np.concatenate(nbr_parts),
        np.concatenate(disk_parts),
    )


def _advance(
    frontier: np.ndarray,
    depth: int,
    dist_mine: np.ndarray,
    dist_other: np.ndarray,
    best: int | None,
    p: int,
    n: int,
    pow_p: np.ndarray,
) -> tuple[np.ndarray, int, int | None]:
    """Expand one side of the bidirectional search by a single level."""
    _, nbrs, _ = _edges(frontier, p, n, pow_p)
    fresh = nbrs[dist_mine[nbrs] < 0]
    if fresh.size:
        fresh = np.unique(fresh)
        dist_mine[fresh] = depth + 1
        other = dist_other[fresh]
        met = other >= 0
        if met.any():
            candidate = depth + 1 + int(other[met].min())
            if best is None or candidate < best:
                best = candidate
    return fresh, depth + 1, best


def distance(u: Configuration, v: Configuration, cap: int | None = None) -> int:
    """Exact shortest-move distance between two configurations.

    Bidirectional level-synchronous BFS over integer-ranked states; the
    two sweeps alternate, always growing the smaller frontier.
    """
    if (u.p, u.n) != (v.p, v.n):
        raise ValueError("configurations must share peg and disk counts")
    p, n = u.p, u.n
    _check_limits(p, n)
    if u.pegs == v.pegs:
        return 0
    size = p**n
    cap_value = _cap(cap, "HANOI_STATE_CAP", DEFAULT_STATE_CAP)
    if size > cap_value:
        raise CapExceededError(f"distance over {size} states exceeds the cap {cap_value}")
    _check_memory(2 * size * 4, "distance search")
    pow_p = _powers(p, n)
    dist_a = np.full(size, -1, dtype=np.int32)
    dist_b = np.full(size, -1, dtype=np.int32)
    frontier_a = np.array([u.rank()], dtype=np.int64)
    frontier_b = np.array([v.rank()], dtype=np.int64)
    dist_a[frontier_a] = 0
    dist_b[frontier_b] = 0
    depth_a = depth_b = 0
    best: int | None = None
    while True:
        # Once best <= depth_a + depth_b + 1, any undiscovered path would
        # need a node beyond both explored balls and be strictly longer.
        if best is not None and best <= depth_a + depth_b + 1:
            return best
        if frontier_a.size == 0 or frontier_b.size == 0:
            if best is not None:
                return best
            raise RuntimeError("frontier died before the sweeps met; the graph should be connected")
        if frontier_a.size <= frontier_b.size:
            frontier_a, depth_a, best = _advance(
                frontier_a, depth_a, dist_a, dist_b, best, p, n, pow_p
            )
        else:
            frontier_b, depth_b, best = _advance(
                frontier_b, depth_b, dist_b, dist_a, best, p, n, pow_p
            )


def exact_H(p: int, n: int, cap: int | None = None) -> int:
    """Exact minimum move count for the full transfer of n disks from
    peg 0 to peg p-1."""
    if n == 0:
        return 0
    return distance(
        Configuration.all_on(p, n, 0), Configuration.all_on(p, n, p - 1), cap=cap
    )


def _adjacency(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The configuration graph as two padded ``(p**n, D)`` tables, built by
    one ``_edges`` call over every configuration rank.

    Row c holds c's neighbour ranks and, in the same slots, the bit of the
    disk each move moves.  D is the largest degree; shorter rows are padded
    with self-loops that move nothing (bit 0).
    """
    size = p**n
    pos, nbr, disk = _edges(np.arange(size, dtype=np.int64), p, n, _powers(p, n))
    degree = np.bincount(pos, minlength=size)
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    slot = np.arange(pos.size) - (np.cumsum(degree) - degree)[pos]
    width = int(degree.max())
    nbr_table = np.repeat(np.arange(size, dtype=np.int64)[:, None], width, axis=1)
    bit_table = np.zeros((size, width), dtype=np.int64)
    nbr_table[pos, slot] = nbr[order]
    bit_table[pos, slot] = np.int64(1) << disk[order]
    return nbr_table, bit_table


# Scan a level's rank window when it has under this many slots per new state,
# else sort; at 32, exact_gamma(4, 9) sorted every level and took 3.6x longer.
_SCAN_FACTOR = 128
_SEEN, _NEW = 1, 2


def exact_gamma(p: int, n: int, cap: int | None = None) -> int:
    """Exact minimum length of a move sequence that moves every disk at
    least once, over all starting configurations.

    Multi-source BFS over (configuration, moved-mask) product states with
    rank mask * p**n + configuration rank.  Every configuration starts at
    distance 0 with mask 0; each edge sets the moved disk's bit; the answer
    is the first level containing a full mask.  Masks only grow along
    edges, so plain BFS is level-exact.

    Successors come from one adjacency table per call (see ``_adjacency``):
    a level is a single gather, with no per-state digit extraction.  One
    byte per product state marks it unseen (0), seen (1) or new this
    level (2).  A level's unseen successors are deduplicated by marking
    them 2 and scanning their rank window for 2s when that window is under
    ``_SCAN_FACTOR`` slots per new state, and by ``np.unique`` otherwise;
    either way the next frontier comes out sorted and marked 1.
    """
    _check_limits(p, n)
    if n == 0:
        return 0
    size = p**n
    product = size << n
    cap_value = _cap(cap, "HANOI_PRODUCT_CAP", DEFAULT_PRODUCT_CAP)
    if product > cap_value:
        raise CapExceededError(
            f"essential-path search over {product} product states exceeds the cap {cap_value}"
        )
    adjacency_bytes = 2 * size * (p * (p - 1) // 2) * 8  # two int64 tables, at most D slots
    _check_memory(product + adjacency_bytes, "essential-path search")
    nbr_table, bit_table = _adjacency(p, n)
    full_floor = ((1 << n) - 1) * size  # states at or above this have every bit set
    marks = np.zeros(product, dtype=np.uint8)
    marks[:size] = _SEEN
    frontier = np.arange(size, dtype=np.int64)
    depth = 0
    while frontier.size:
        mask, cfg = np.divmod(frontier, size)
        states = ((mask[:, None] | bit_table[cfg]) * size + nbr_table[cfg]).ravel()
        states = states[marks[states] == 0]
        depth += 1
        if not states.size:
            break
        lo, hi = int(states.min()), int(states.max())
        if hi >= full_floor:
            return depth
        if hi - lo < _SCAN_FACTOR * states.size:
            marks[states] = _NEW
            window = marks[lo : hi + 1]
            frontier = lo + np.flatnonzero(window == _NEW)
            np.minimum(window, _SEEN, out=window)
        else:
            frontier = np.unique(states)
            marks[frontier] = _SEEN
    raise RuntimeError("search exhausted without moving every disk; this cannot happen")


def check_bousch_inequality(
    u: Configuration, v: Configuration, a: int, cap: int | None = None
) -> bool:
    """Whether distance(u, v) >= psi(disks on peg ``a`` in u).

    Requires 4 pegs and that peg ``a`` plus at least one other peg are
    empty in v; violations raise PreconditionError (distinct from the cap
    error a too-large search raises).
    """
    if u.p != 4 or v.p != 4:
        raise PreconditionError("the potential inequality is defined for 4 pegs")
    if u.n != v.n:
        raise PreconditionError("configurations must have the same disk count")
    if not 0 <= a < 4:
        raise PreconditionError(f"peg {a} is outside [0, 4)")
    if v.disks_on(a):
        raise PreconditionError(f"peg {a} must be empty in the target configuration")
    if all(v.disks_on(b) for b in range(4) if b != a):
        raise PreconditionError("some second peg must be empty in the target configuration")
    return distance(u, v, cap=cap) >= psi(u.disks_on(a))
