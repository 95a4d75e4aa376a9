"""Brute-force oracle over explicit Hanoi state spaces.

Configurations are ranked as integers (rank = sum of peg * p**disk) and
searched with level-synchronous breadth-first sweeps over numpy arrays:
frontiers are flat arrays of ranks (or of ``exact_gamma``'s keys), and
each sweep's seen table is a bool table indexed by them
(``_seen_table``).  From 4 MiB on, it is a private anonymous map in
4 KiB pages, so only the pages holding entries a sweep marks become
resident, not a whole 2 MiB huge page around each, and a page it only
reads stays the kernel's shared zero page.  Results are deterministic
functions of the inputs regardless of expansion order, because each
sweep finishes a whole level before testing for termination.

Both searches take their moves from one rule: each unordered peg pair
{x, y} has exactly one move, the smaller of its two top disks onto the
other peg, and none (a self-loop) when both pegs are empty.  Every table
is one fold over the disks, and holds each move as its step, the change
in rank.  ``_disk_moves`` tabulates each pair's step for one disk over
its p placements, and ``_join`` joins the tables of a block of smaller
disks and a block of larger ones; the rule, and why a pair's move undoes
itself, are argued once, in its docstring.  ``_move_tables`` folds
``_join`` over a block of disks.  A search reads a rank's steps through
the tables of its two halves, the n // 2 smallest disks and the rest
(p**(n // 2) and p**(n - n // 2) columns), built once per call, with one
reader (``_pair_steps``); ``exact_gamma`` reads them once per class and
each move's disk off its step.  ``_mirror_tables`` folds a peg
relabeling over the disks the same way, as an outer sum.
``_class_tables`` canonicalises a rank under the relabelings of a group
of pegs, once for both searches: the pegs empty at both ends of
``distance``, every peg for ``exact_gamma``.

``distance`` expands a level one peg pair at a time, dropping the
neighbours its seen table holds (self-loops among them) and marking the
rest at once.  Marking before the next pair keeps a pair's new states
out of the others, and no pair repeats one, so a level over plain states
needs no sort and no dedupe pass.  The sweeps stop at their first
meeting, which is exact, so no table holds depths.  When v is u with its
pegs relabeled by an involution sigma (exact_H's all-on-0 and
all-on-(p-1) are), v's sweep is u's mirrored, so only u's runs, over one
table.  When two or more pegs are empty at both ends, the sweeps hold
one canonical configuration per class under relabelings of those pegs,
up to (p - 2)! times fewer for exact_H: each neighbour is canonicalised
through two per-call tables over the blocks of its rank, and since two
states can reach one class, each level is sorted and deduplicated once.
Frontiers, their temporaries and the written part of each seen table
shrink with the number of classes.

``exact_gamma`` searches the graph of peg-relabeling classes: a state
is a moved-disk mask and a class of configurations equal up to
relabeling the pegs, keyed mask << s | i over the K canonical
configurations (``_canonical_starts``), where s = (K - 1).bit_length()
is the fewest bits that hold every class position i.  The graph is one
int64 table built once per call, so each class is canonicalised once,
not once per visit: per class and peg pair, bit << s | j, where j is the
neighbour class's position and bit the moved disk's bit.  Since bit << s
has no bits below s and j < 2**s, a key's successor (mask | bit) << s |
j is (mask << s) | that entry: a level splits its keys into i and
mask << s once, then takes one gather and one OR per pair, with no
division by K.  It marks each pair's keys in a bool seen table of
2**(n + s) entries, under 2 * K * 2**n and about p! times fewer than
configurations times masks, then sorts and deduplicates the level once,
since two classes can reach one state.

Caps bound the state counts a search may touch: configurations for
``distance``, (mask, class) states for ``exact_gamma``.  Exceeding a cap
raises CapExceededError, never a silent truncation.  Defaults can be
overridden per call or through HANOI_STATE_CAP / HANOI_PRODUCT_CAP; no
cap exceeds 2**62, so ranks and keys stay inside int64 (``exact_gamma``
argues why for its keys, n + s <= 62, and its ranks).  A cap counts
states, not bytes: ``exact_gamma``'s K * 2**n states take a table of
2**(n + s) bytes, and it is the bytes of every table that
``_check_memory`` weighs.  A search whose tables would exceed
the machine's physical memory or its cgroup's memory limit, both read
once per process, raises CapExceededError as well, before it allocates
them.  Searches also
refuse more than MAX_PEGS pegs or MAX_DISKS disks with ValueError; those
limits belong to the search alone, not to configurations or paths.
"""

from __future__ import annotations

import functools
import math
import mmap
import os

import numpy as np

from .core import MIN_PEGS, CapExceededError, Configuration
from .potential import psi

__all__ = [
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


class PreconditionError(ValueError):
    """Inputs do not satisfy the side conditions of the requested check."""


def _cap_from_env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def _cap(cap: int | None, env_name: str, default: int) -> int:
    """The per-call cap, else the environment's, else the default, clamped
    to 2**62 so larger searches are refused before anything is allocated.
    One below 1 is a usage error that names its source."""
    source = "a cap" if cap is not None else env_name
    value = cap if cap is not None else _cap_from_env(env_name, default)
    if value < 1:
        raise ValueError(f"{source} must be at least 1, got {value}")
    return min(value, _MAX_SUPPORTED_CAP)


def _check_limits(p: int, n: int) -> None:
    if not MIN_PEGS <= p <= MAX_PEGS:
        raise ValueError(f"peg count must be in [{MIN_PEGS}, {MAX_PEGS}], got {p}")
    if not 0 <= n <= MAX_DISKS:
        raise ValueError(f"disk count must be in [0, {MAX_DISKS}], got {n}")


# This process's cgroups, one "id:controllers:path" line each, and the
# mount root of the cgroup file systems: v2 at the root, v1's memory
# controller under memory/
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _read_small(path: str) -> bytes:
    """The bytes of a small file, empty where it is unreadable.  Through
    os.open: a third of the cost of open() on each search's few reads."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return b""
    try:
        return os.read(fd, 1 << 16)
    except OSError:
        return b""
    finally:
        os.close(fd)


def _cgroup_limit() -> int | None:
    """The lowest memory limit in bytes of this process's cgroups and
    their ancestors up to the mount root, or None where none is set.

    ``_PROC_CGROUP`` names the v2 cgroup on its ``0::`` line and the v1
    memory cgroup on the line whose controllers include memory; each is
    read from its directory up to the root (memory.max for v2,
    memory/.../memory.limit_in_bytes for v1), since a limit on an
    ancestor bounds every cgroup below it.  Where ``_PROC_CGROUP`` is
    unreadable, or names neither, the root files are read alone."""
    chains = {"": "/", "memory": "/"}  # controller directory -> cgroup path
    try:
        for line in _read_small(_PROC_CGROUP).decode().splitlines():
            hierarchy, controllers, path = line.split(":", 2)
            if hierarchy == "0" and not controllers:
                chains[""] = path
            elif "memory" in controllers.split(","):
                chains["memory"] = path
    except ValueError:  # a malformed line; UnicodeDecodeError is a ValueError
        pass
    limits = []
    for controller, name in (("", "memory.max"), ("memory", "memory.limit_in_bytes")):
        parts = [part for part in chains[controller].split("/") if part]
        for depth in range(len(parts), -1, -1):
            try:  # "max", or an empty read of a missing file, sets no limit
                limits.append(int(_read_small(os.path.join(_CGROUP_ROOT, controller, *parts[:depth], name))))
            except ValueError:
                pass
    return min(limits, default=None)


@functools.cache
def _memory_limit() -> int | None:
    """The lower of the machine's physical memory and the cgroup memory
    limit (``_cgroup_limit``) in bytes, or None where neither is known.
    Read once per process: the cgroup files cost a small search about 5%
    of its time when read on every call."""
    limits = []
    try:
        limits.append(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):  # no sysconf (Windows) or no such name
        pass
    cgroup = _cgroup_limit()
    if cgroup is not None:
        limits.append(cgroup)
    return min(limits, default=None)


def _check_memory(nbytes: int, what: str) -> None:
    """Refuse, before allocating, a search whose tables alone exceed the
    lower of the machine's physical memory and the cgroup memory limit; a
    legal cap can still ask for more."""
    limit = _memory_limit()
    if limit is not None and nbytes > limit:
        raise CapExceededError(
            f"{what} needs {nbytes} bytes of tables, more than the {limit} bytes "
            "allowed (the lower of physical memory and the cgroup memory limit)"
        )


# numpy advises transparent huge pages (MADV_HUGEPAGE) for arrays of this
# many bytes and up
_HUGE_PAGE_BYTES = 1 << 22


def _seen_table(size: int) -> np.ndarray:
    """A zeroed, writable bool seen table of ``size`` entries.

    A sweep often marks entries far apart and leaves most of its table
    untouched.  Below 4 MiB the table is ``np.zeros``, from the heap: a
    new map for each of the many small searches' tables costs them more
    time than it saves memory.  From 4 MiB, where numpy would advise
    transparent huge pages, so that the first touch in each 2 MiB makes
    all of it resident, it is an anonymous map advised MADV_NOHUGEPAGE
    (where ``mmap`` has it), which the kernel zero-fills 4 KiB at a time
    on first write.  The map is private where ``mmap`` can ask for one: a
    read of an unwritten page then maps the shared zero page, where a
    shared map would make that page resident too."""
    if size < _HUGE_PAGE_BYTES:
        return np.zeros(size, dtype=bool)
    if hasattr(mmap, "MAP_PRIVATE"):
        region = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    else:
        region = mmap.mmap(-1, size)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        try:
            region.madvise(mmap.MADV_NOHUGEPAGE)
        except OSError:  # EINVAL from a kernel without transparent huge pages
            pass
    return np.frombuffer(region, dtype=bool)


def _disk_moves(p: int, disk: int) -> np.ndarray:
    """Each peg pair's step for a move of ``disk`` alone over its p
    placements, int64 with one row per unordered pair {x, y}, in the order
    (0, 1), (0, 2), ..., (p-2, p-1): (y - x) * p**disk on peg x, the
    opposite on peg y and 0 elsewhere."""
    pegs = np.arange(p)
    xs, ys = np.nonzero(pegs[:, None] < pegs)  # np.triu_indices(p, 1), in a fifth of the time
    sign = (pegs == xs[:, None]).astype(np.int64) - (pegs == ys[:, None])  # 1 on x, -1 on y
    return sign * ((ys - xs) * p**disk)[:, None]


def _join(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The step table of two blocks of disks together, from the tables of
    each, where every disk of ``low`` is smaller than every disk of
    ``high`` and disks keep their numbers in the whole rank.  Column
    hi * cols(low) + lo, placing low's disks as low's column lo and high's
    as high's column hi, takes low's step where it is nonzero and high's
    elsewhere.

    A pair moves the smaller of its two top disks.  Where low's step is
    nonzero, a peg of the pair holds a low disk, so the pair's smaller top
    is low's and any high disk on the pair is larger: low's move is the
    pair's move.  Where it is 0, neither peg holds a low disk, and high's
    tops decide, none (step 0, a self-loop) when both pegs are empty.

    After a pair's move, the moved disk tops its new peg and is smaller
    than the top it left, so the same pair moves it back: each pair's move
    is an involution on ranks, and no pair maps two ranks onto one
    neighbour.
    """
    wide = low[:, None, :]  # low's columns against each high column
    return np.where(wide != 0, wide, high[:, :, None]).reshape(len(low), -1)


def _move_tables(p: int, first: int, last: int) -> np.ndarray:
    """Each peg pair's step among disks first, ..., last - 1 alone, over
    every placement of them: ``_join`` folded over the disks from the
    smallest up, starting from one column that moves nothing (no disks).
    A table holds steps only; ``_class_graph`` reads each move's disk off
    its step."""
    zero = np.zeros((p * (p - 1) // 2, 1), dtype=np.int64)
    return functools.reduce(_join, (_disk_moves(p, disk) for disk in range(first, last)), zero)


def _mirror_tables(sigma: list[int], p: int, first: int, last: int) -> np.ndarray:
    """The rank of sigma applied to disks first, ..., last - 1 alone, over
    every placement of them.  A relabeling moves each disk on its own, so
    the table is the outer sum sigma(peg) * p**disk folded over the disks
    from the smallest up, in ``_join``'s column order."""
    table = np.zeros(1, dtype=np.int64)
    for disk in range(first, last):
        table = np.add.outer(np.array(sigma, dtype=np.int64) * p**disk, table).ravel()
    return table


def _class_split(count: int, p: int, n: int) -> tuple[int, int, int]:
    """(entries, high, states) of ``_class_tables`` for ``count`` pegs
    empty at both ends: how many of the largest disks its high block
    takes, how many appearance states that block can reach, and the
    tables' int64 entries, 2 * p**high for the high block and
    states * p**(n - high) for the low one.  With h high disks the states
    reached are the sequences of at most min(h, count) distinct empty
    pegs; high is the h with the fewest entries."""
    reach = [sum(math.perm(count, k) for k in range(min(h, count) + 1)) for h in range(n + 1)]
    return min((2 * p**h + reach[h] * p ** (n - h), h, reach[h]) for h in range(n + 1))


def _appearance_moves(empty: list[int], p: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(nexts, digits) of ``_class_tables``' appearance states of at most
    ``length`` pegs, int64 of shape (states, p): reading a disk on peg x
    in state s leads to state nexts[s, x] and gives the disk the canonical
    peg digits[s, x].  A peg outside ``empty`` keeps its label and the
    state; a peg already in the sequence takes the label of its place in
    it; a new peg takes the next label and extends the sequence.

    The sequences are built one length at a time, each as the place of
    every peg of ``empty`` in it (-1 where absent): those of length k + 1,
    in ``itertools.permutations`` order, are those of length k in order,
    each followed by its absent pegs in increasing order.  So s, of length
    k, extended by its r-th absent peg is state start(k + 1) + (|empty| -
    k) * (s - start(k)) + r, whether or not those are built."""
    size = len(empty)
    pegs = np.array(empty, dtype=np.int64)
    block = np.full((1, size), -1, dtype=np.int64)
    blocks = [block]
    for k in range(length):
        rows, new = np.nonzero(block < 0)
        block = block[rows]
        block[np.arange(rows.size), new] = k
        blocks.append(block)
    place = np.concatenate(blocks)
    counts = [len(block) for block in blocks]
    starts = np.cumsum([0] + counts)
    lengths = np.repeat(np.arange(length + 1), counts)
    own = np.arange(len(place), dtype=np.int64)
    seen = place >= 0
    first = starts[lengths + 1] + (size - lengths) * (own - starts[lengths])  # first extension
    grown = np.cumsum(~seen, axis=1)
    grown += (first - 1)[:, None]
    nexts = np.empty((len(place), p), dtype=np.int64)
    nexts[:] = own[:, None]
    nexts[:, pegs] = np.where(seen, own[:, None], grown)
    digits = np.empty((len(place), p), dtype=np.int64)
    digits[:] = np.arange(p)
    digits[:, pegs] = np.where(seen, pegs[place], pegs[np.minimum(lengths, size - 1)][:, None])
    return nexts, digits


def _class_tables(empty: list[int], p: int, n: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Tables that map a rank to the canonical rank of its class under the
    relabelings of the pegs ``empty`` (sorted), as (split, high_canon,
    high_state, low_canon): for high, low = divmod(rank, split), the
    canonical rank is high_canon[high] + low_canon[high_state[high] + low].

    A configuration is canonical when, reading from the largest disk down,
    the pegs of ``empty`` first appear in increasing order; relabeling
    them by first appearance gives the one canonical member of a class.
    The appearance state is the sequence of those pegs seen so far; states
    are numbered shortest first, so the states a block of h disks can
    reach come first.  A fold over n disks reads the states of fewer than
    n pegs only, so only those are built (``_appearance_moves``).  The
    high block, the largest disks as many as ``_class_split`` picks, has
    a table of its canonical digits times split and one of its final
    state times split; the low block's table holds its canonical digits
    per reachable state and low placement.  Both fold the disks from the
    largest down, whose Horner order is rank order."""
    nexts, digits = _appearance_moves(empty, p, min(max(n - 1, 0), len(empty)))
    _, high, reach = _class_split(len(empty), p, n)

    def fold(state: np.ndarray, disks: int) -> tuple[np.ndarray, np.ndarray]:
        canon = np.zeros(state.size, dtype=np.int64)
        for _ in range(disks):
            canon = (canon[:, None] * p + digits[state]).ravel()
            state = nexts[state].ravel()
        return canon, state

    split = p ** (n - high)
    high_canon, high_state = fold(np.zeros(1, dtype=np.int64), high)
    low_canon, _ = fold(np.arange(reach, dtype=np.int64), n - high)
    return split, high_canon * split, high_state * split, low_canon


def _canonical(ranks: np.ndarray, classes: tuple) -> np.ndarray:
    """The canonical rank of each rank's class, from ``_class_tables``."""
    split, high_canon, high_state, low_canon = classes
    high, low = np.divmod(ranks, split)
    out = high_state.take(high)
    out += low
    out = low_canon.take(out)
    out += high_canon.take(high)
    return out


def _sorted_once(level: np.ndarray) -> np.ndarray:
    """``level`` sorted, each run of equal entries kept once: a sort and
    one comparison of neighbours, not ``np.unique``, whose hash path is
    slower on numpy 2.4."""
    if level.size > 1:
        level.sort()
        level = level[np.concatenate(([True], level[1:] != level[:-1]))]
    return level


def _pair_steps(
    low_row: np.ndarray, high_row: np.ndarray, low_ranks: np.ndarray, high_ranks: np.ndarray
) -> np.ndarray:
    """One peg pair's int64 step from each rank, read through its rows of
    the two half step tables (``_move_tables``) at the rank's halves: the
    low half's entry where it is nonzero, else the high half's (``_join``)."""
    steps = low_row.take(low_ranks)
    rest = steps == 0
    steps[rest] = high_row.take(high_ranks[rest])
    return steps


def _expand(
    frontier: np.ndarray,
    halves: tuple,
    seen: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    classes: tuple | None = None,
) -> np.ndarray:
    """The states one move from ``frontier`` that ``seen`` has not seen,
    each once, marked in ``seen``.  ``halves`` is the frontier's (high,
    low) split, ``np.divmod`` by p**(n // 2), through which each pair's
    steps are read (``_pair_steps``).  No pair emits a state twice, and
    marking a pair's states before the next pair keeps them out of later
    pairs; self-loops land on the frontier, which is seen.

    With ``classes`` (``_class_tables``), ``seen`` holds canonical ranks
    only, so a neighbour it holds belongs to a class already reached and
    is dropped at once; each one left is replaced by its class's
    canonical rank (``_canonical``) and tested again.  Two states of one
    pair's batch can then reach one class, so the level is sorted and
    each run of equal ranks kept once: it comes out sorted, each unseen
    class once."""
    high_ranks, low_ranks = halves
    parts = []
    for low_row, high_row in zip(low, high):
        nbrs = _pair_steps(low_row, high_row, low_ranks, high_ranks)
        nbrs += frontier
        nbrs = nbrs[~seen[nbrs]]
        if classes is not None:
            nbrs = _canonical(nbrs, classes)
            nbrs = nbrs[~seen[nbrs]]
        seen[nbrs] = True
        parts.append(nbrs)
    del halves, high_ranks, low_ranks  # before the concatenation copies the new level
    level = np.concatenate(parts)
    return level if classes is None else _sorted_once(level)


def _involution(u: tuple[int, ...], v: tuple[int, ...], p: int) -> list[int] | None:
    """A peg permutation sigma with sigma(sigma(x)) = x that maps u onto v
    disk by disk, or None when there is none."""
    sigma: list[int | None] = [None] * p
    for a, b in zip(u, v):
        if sigma[a] not in (None, b) or sigma[b] not in (None, a):
            return None
        sigma[a], sigma[b] = b, a
    return [x if image is None else image for x, image in enumerate(sigma)]


def distance(u: Configuration, v: Configuration, cap: int | None = None) -> int:
    """Exact shortest-move distance between two configurations.

    Bidirectional level-synchronous BFS, one bool seen table per sweep,
    always growing the smaller frontier; it returns depth_u + depth_v at
    the first level whose fresh states the other sweep has seen.  No level
    met before, so the balls of radius depth_u - 1 around u and depth_v
    around v are disjoint, and the meeting state joins a path that long.
    Each level is one ``_expand`` over the step tables of the two halves
    of a rank (``_move_tables``), built once per call.

    When v is u with its pegs relabeled by an involution sigma, d(v, s) =
    d(u, sigma(s)): only u's sweep runs, and v's is it read through sigma,
    strictly alternating.  Once u's reaches level k, v's level k - 1 meets
    it if any of its states is seen (2k - 1 moves); else v's reaches level
    k, sigma of u's, and meets it if any of those is seen (2k).  Each of
    u's levels is split into its halves once, for its images through the
    halves' sigma tables (``_mirror_tables``) and for its expansion.

    Let E be the pegs that hold no disk in u or in v (pegs 1..p-2 for
    exact_H).  When E has two pegs or more, both branches sweep one
    canonical configuration per class of configurations equal up to
    relabeling E (``_class_tables``, ``_canonical``):

    - Every relabeling pi of E fixes u and v, and it maps legal moves to
      legal moves, since a move's legality depends only on which disks
      share a peg.  So d(u, s) = d(u, pi(s)) and d(v, s) = d(v, pi(s)):
      a level is a union of classes, and a breadth-first search over the
      classes, where a class's neighbours are the classes of its members'
      neighbours, meets at depth d(u, v) by the argument above.
    - Both endpoints are canonical, because no disk is on E.
    - ``_involution`` leaves the pegs in neither endpoint where they are,
      so sigma fixes E pointwise and maps the other pegs among themselves.
      Each disk of sigma(s) is then on E exactly where it is in s, and on
      the same peg of E, so sigma of a canonical state is canonical and
      the images need no canonicalisation.
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
    sigma = _involution(u.pegs, v.pegs, p)
    mirrored = sigma is not None
    ends = [u] if mirrored else [u, v]
    empty = sorted(set(range(p)) - set(u.pegs) - set(v.pegs))
    half = n // 2
    split = p**half
    # bool seen tables; int64 steps per pair and half row, int64 mirror
    # ranks; int64 class tables where two or more pegs are empty at both ends
    half_bytes = 8 * (p * (p - 1) // 2 + mirrored) * (split + p ** (n - half))
    class_bytes = 8 * _class_split(len(empty), p, n)[0] if len(empty) >= 2 else 0
    _check_memory(len(ends) * size + half_bytes + class_bytes, "distance search")
    low, high = _move_tables(p, 0, half), _move_tables(p, half, n)
    classes = _class_tables(empty, p, n) if len(empty) >= 2 else None
    seens = [_seen_table(size) for _ in ends]
    frontiers = [np.array([end.rank()], dtype=np.int64) for end in ends]
    for seen, frontier in zip(seens, frontiers):
        seen[frontier] = True
    if mirrored:
        mirror_low = _mirror_tables(sigma, p, 0, half)
        mirror_high = _mirror_tables(sigma, p, half, n)
        images = np.array([v.rank()], dtype=np.int64)  # sigma of u's previous level
        halves = np.divmod(frontiers[0], split)
        for depth in range(1, size):
            frontiers[0] = _expand(frontiers[0], halves, seens[0], low, high, classes)
            if seens[0][images].any():
                return 2 * depth - 1
            halves = np.divmod(frontiers[0], split)  # for the images and the next level
            images = mirror_low[halves[1]] + mirror_high[halves[0]]
            if seens[0][images].any():
                return 2 * depth
    else:
        for depth in range(1, size):  # depth_u + depth_v: each step grows one
            side = 0 if frontiers[0].size <= frontiers[1].size else 1
            frontiers[side] = _expand(
                frontiers[side], np.divmod(frontiers[side], split), seens[side], low, high, classes
            )
            if seens[1 - side][frontiers[side]].any():
                return depth
    raise RuntimeError("the sweeps never met; the graph should be connected")


def exact_H(p: int, n: int, cap: int | None = None) -> int:
    """Exact minimum move count for the full transfer of n disks from
    peg 0 to peg p-1."""
    if n == 0:
        return 0
    return distance(
        Configuration.all_on(p, n, 0), Configuration.all_on(p, n, p - 1), cap=cap
    )


def _canonical_starts(p: int, n: int) -> np.ndarray:
    """The sorted ranks of the canonical configurations: those whose pegs,
    read from the largest disk down, are numbered by first appearance
    (restricted growth strings with at most p values), one per class of
    configurations equal up to relabeling the pegs.

    Built one disk at a time from the largest: each prefix, in rank order,
    puts the next disk on a peg already used or on the first unused one.
    Horner's rule keeps the prefixes in rank order, since a configuration's
    rank orders it by its pegs read from the largest disk down.
    """
    ranks = np.zeros(1, dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)  # pegs 0..used-1 hold the placed disks
    labels = np.arange(p, dtype=np.int64)
    for _ in range(n):
        keep = (labels <= used[:, None]).ravel()  # an old peg or the first new one
        ranks = (ranks[:, None] * p + labels).ravel()[keep]
        used = np.maximum(used[:, None], labels + 1).ravel()[keep]
    return ranks


def _class_count(p: int, n: int) -> int:
    """K, the number of configurations of n disks on p pegs up to
    relabeling the pegs: the set partitions of the disks into at most p
    blocks, the sum of the Stirling numbers S(n, k) for k <= p, in Python
    ints, so it sizes a search before anything is allocated."""
    counts = [1] + [0] * p  # S(0, k) for k <= p
    for _ in range(n):
        counts = [0] + [k * counts[k] + counts[k - 1] for k in range(1, p + 1)]
    return sum(counts)


def _class_graph(
    p: int, n: int, starts: np.ndarray, low: np.ndarray, high: np.ndarray, classes: tuple, shift: int
) -> np.ndarray:
    """The class graph as one int64 table ``edges`` of shape (pairs, K):
    for the class whose canonical rank is starts[i]
    (``_canonical_starts``), edges[k][i] is bit << shift | j, where j is
    the position in ``starts`` of its neighbour's class through peg pair
    k and bit the moved disk's bit, 0 (and j = i) where the pair moves
    nothing; 2**shift must exceed every j.  Each pair's step is read
    through the half step tables ``low`` and ``high`` (``_pair_steps``),
    its target canonicalised through ``classes`` (``_class_tables`` over
    every peg) and located by one ``np.searchsorted`` over the sorted
    starts.

    A step names its disk d: it is (y - x) * p**d with 0 < |y - x| < p,
    so p**d <= |step| < p**(d + 1), and d + 1 of the powers p**0, ...,
    p**(n - 1) are at most |step|, none for a self-loop's step 0.  The bit
    is 1 << that count, halved: 1 << d, or 0 for a self-loop.  The powers
    fit int64, since p**n does for every search a cap allows
    (``exact_gamma``)."""
    high_ranks, low_ranks = np.divmod(starts, p ** (n // 2))
    powers = p ** np.arange(n, dtype=np.int64)
    edges = np.empty((len(low), starts.size), dtype=np.int64)
    for row, low_row, high_row in zip(edges, low, high):
        steps = _pair_steps(low_row, high_row, low_ranks, high_ranks)
        counts = np.searchsorted(powers, np.abs(steps), side="right")
        steps += starts
        row[:] = np.searchsorted(starts, _canonical(steps, classes))
        row |= (np.left_shift(1, counts, dtype=np.int64) >> 1) << shift
    return edges


def _expand_classes(frontier: np.ndarray, seen: np.ndarray, edges: np.ndarray, shift: int) -> np.ndarray:
    """The (mask, class) keys one move from ``frontier`` that ``seen`` has
    not seen, each once and sorted, marked in ``seen``.  A key is mask <<
    shift | i, and pair k leads it to (mask << shift) | edges[k][i]
    (``_class_graph``); self-loops land on the frontier, which is seen.
    Two classes can reach one key through one pair, so after each pair's
    unseen keys are marked, the level is sorted and each run of equal keys
    kept once (``_sorted_once``)."""
    index = frontier & ((1 << shift) - 1)
    high = frontier ^ index  # mask << shift
    parts = []
    for row in edges:
        keys = row.take(index)
        keys |= high
        keys = keys[~seen[keys]]
        seen[keys] = True
        parts.append(keys)
    del index, high  # before the concatenation copies the new level
    return _sorted_once(np.concatenate(parts))


def exact_gamma(p: int, n: int, cap: int | None = None) -> int:
    """Exact minimum length of a move sequence that moves every disk at
    least once, over all starting configurations.

    Breadth-first search over the class graph (``_class_graph``): a state
    is a moved-disk mask and a class of configurations equal up to
    relabeling the pegs, keyed mask << s | i, where i is the position of
    the class's canonical configuration in ``_canonical_starts``, K
    (``_class_count``) the number of classes and s = (K - 1).bit_length()
    the fewest bits that hold every i (0 when K = 1).  Level 0 is every
    class at mask 0; each edge sets the moved disk's bit; the answer is
    the first level holding a full mask, whose last key, the level being
    sorted, is then at least (2**n - 1) << s.  It is exact:

    - A relabeling pi of the pegs maps legal moves to legal moves of the
      same disk, since a move's legality depends only on which disks
      share a peg.  So (mask, c) and (mask, pi(c)) need equally many
      moves to reach the full mask, and the minimum over every start is
      the minimum over one start per class.
    - The neighbours of pi(c) are pi applied to the neighbours of c,
      through the relabeled pair, with the same moved disk.  So the rows
      of one representative give the neighbour classes, and bits, of the
      whole class, and each level of the search over every (mask,
      configuration) state, which starts from every configuration, is a
      union of classes: level k here holds exactly its classes.
    - Masks only grow along edges, so the search is level-exact, and
      mask 0 occurs only at depth 0.

    The graph holds bit << s | j per class and pair, j the neighbour's
    position, so a key's successor is (mask | bit) << s | j = (mask << s)
    | edges[k][i]: bit << s has no bits below s, and j < 2**s.  A level is
    then a gather and an OR per pair, with no division by K.  The seen
    table has 2**(n + s) entries, under 2 * K * 2**n, about p! times fewer
    than configurations times masks; the last 2**s - K entries of each
    mask's row are never written.  Each class is canonicalised once per
    call, when the graph is built.

    ``cap`` (else HANOI_PRODUCT_CAP) bounds the K * 2**n (mask, class)
    states, computed before anything is allocated; ``_check_memory``
    weighs the table's 2**(n + s) bytes.  Keys stay inside int64: K *
    2**n <= 2**62 and 2**(s - 1) < K give 2**(n + s - 1) < 2**62, so n + s
    <= 62.  Ranks do too: a class has at most p! members, so p**n <= p! *
    K, below K * 2**n where n >= 16 since p! <= 8! < 2**16, and p**n <=
    8**15 = 2**45 where n <= 15.
    """
    _check_limits(p, n)
    if n == 0:
        return 0
    count = _class_count(p, n)
    states = count << n
    cap_value = _cap(cap, "HANOI_PRODUCT_CAP", DEFAULT_PRODUCT_CAP)
    if states > cap_value:
        raise CapExceededError(
            f"essential-path search over {states} (mask, class) states exceeds the cap {cap_value}"
        )
    shift = (count - 1).bit_length()
    size = 1 << (n + shift)
    half = n // 2
    pairs = p * (p - 1) // 2
    # bool seen table; int64 class graph (one row per pair) and starts;
    # int64 half step tables (one row per pair); int64 class tables
    graph_bytes = 8 * (pairs + 1) * count
    half_bytes = 8 * pairs * (p**half + p ** (n - half))
    class_bytes = 8 * _class_split(p, p, n)[0]
    _check_memory(size + graph_bytes + half_bytes + class_bytes, "essential-path search")
    starts = _canonical_starts(p, n)
    low, high = _move_tables(p, 0, half), _move_tables(p, half, n)
    edges = _class_graph(p, n, starts, low, high, _class_tables(list(range(p)), p, n), shift)
    del starts, low, high
    seen = _seen_table(size)
    seen[:count] = True
    frontier = np.arange(count, dtype=np.int64)
    full = ((1 << n) - 1) << shift
    depth = 0
    while frontier.size:
        frontier = _expand_classes(frontier, seen, edges, shift)
        depth += 1
        if frontier.size and frontier[-1] >= full:
            return depth
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
