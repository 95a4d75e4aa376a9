"""Hanoi configurations, moves, and move paths.

A configuration assigns every disk to a peg.  Stacking order on a peg is
forced by size (smaller disks always sit on top), so the peg assignment is
the entire state and every assignment vector is a valid configuration.
Disk 0 is the smallest disk; pegs and disks are numbered from 0.

A path is a start configuration and its moves.  The moves are held as
three stdlib arrays of 4-byte labels (``Moves``), 12 bytes a move, so the
constructions' paths of millions of moves fit in tens of MB; a ``Move``
object exists only while a caller looks at one move.  Nothing here
imports numpy.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, count
from operator import eq

__all__ = [
    "MIN_PEGS",
    "CapExceededError",
    "Configuration",
    "IllegalMoveError",
    "Move",
    "MovePath",
    "Moves",
    "apply_move",
    "is_essential",
    "legal_moves",
    "path_from_json_dict",
    "path_to_json_dict",
    "path_to_text",
]

MIN_PEGS = 3


class CapExceededError(RuntimeError):
    """A search would touch more states than the configured cap allows.

    Defined here rather than in ``state_space`` so that callers can catch
    it without importing the search engine, and with it numpy."""


class IllegalMoveError(ValueError):
    """A move broke the rules: R2 means the moved disk was not the topmost
    disk on its source peg, R3 means it was placed on a smaller disk."""

    def __init__(self, message: str, rule: str):
        super().__init__(message)
        self.rule = rule


@dataclass(frozen=True)
class Configuration:
    """Placement of disks on pegs; ``pegs[i]`` is the peg holding disk i."""

    p: int
    pegs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < MIN_PEGS:
            raise ValueError(f"peg count must be at least {MIN_PEGS}, got {self.p}")
        for disk, peg in enumerate(self.pegs):
            if not 0 <= peg < self.p:
                raise ValueError(f"disk {disk} placed on peg {peg}, outside [0, {self.p})")

    @property
    def n(self) -> int:
        return len(self.pegs)

    @classmethod
    def all_on(cls, p: int, n: int, peg: int) -> Configuration:
        return cls(p, (peg,) * n)

    @classmethod
    def from_text(cls, text: str, p: int) -> Configuration:
        """Parse the comma-separated peg list, e.g. "0,0,1,3" (disk 0 first)."""
        text = text.strip()
        if not text:
            return cls(p, ())
        return cls(p, tuple(int(part) for part in text.split(",")))

    def to_text(self) -> str:
        return ",".join(str(peg) for peg in self.pegs)

    def disks_on(self, peg: int) -> tuple[int, ...]:
        """Disks on ``peg``, listed from the top of the stack down."""
        return tuple(d for d, x in enumerate(self.pegs) if x == peg)

    def rank(self) -> int:
        """Integer rank: sum over disks of peg * p**disk."""
        total = 0
        for disk in range(self.n - 1, -1, -1):
            total = total * self.p + self.pegs[disk]
        return total

    @classmethod
    def from_rank(cls, p: int, n: int, rank: int) -> Configuration:
        pegs = []
        for _ in range(n):
            rank, peg = divmod(rank, p)
            pegs.append(peg)
        return cls(p, tuple(pegs))

    def restrict(self, k: int) -> Configuration:
        """Keep only the k smallest disks (labels below k)."""
        return Configuration(self.p, self.pegs[:k])


@dataclass(frozen=True)
class Move:
    """Move ``disk`` from peg ``src`` to peg ``dst``."""

    disk: int
    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"move of disk {self.disk} must change peg, got {self.src} twice")
        if self.disk < 0 or self.src < 0 or self.dst < 0:
            raise ValueError("disk and peg labels must be nonnegative")

    def reverse(self) -> Move:
        return Move(self.disk, self.dst, self.src)


def legal_moves(c: Configuration) -> list[Move]:
    """All single-disk moves available from ``c``.

    Deterministic order: by moved disk, then by target peg.
    """
    tops: dict[int, int] = {}
    for disk, peg in enumerate(c.pegs):
        if peg not in tops:
            tops[peg] = disk
    moves = []
    for peg, disk in sorted(tops.items(), key=lambda item: item[1]):
        for target in range(c.p):
            if target == peg:
                continue
            resident = tops.get(target)
            if resident is None or resident > disk:
                moves.append(Move(disk, peg, target))
    return moves


def apply_move(c: Configuration, m: Move) -> Configuration:
    """Apply a single move, validating it fully."""
    if not 0 <= m.disk < c.n:
        raise IllegalMoveError(f"no disk {m.disk} in a {c.n}-disk configuration", rule="R2")
    if not (0 <= m.src < c.p and 0 <= m.dst < c.p):
        raise IllegalMoveError(f"move {m} uses a peg outside [0, {c.p})", rule="R2")
    if c.pegs[m.disk] != m.src:
        raise IllegalMoveError(
            f"disk {m.disk} is on peg {c.pegs[m.disk]}, not on peg {m.src}", rule="R2"
        )
    for smaller in range(m.disk):
        if c.pegs[smaller] == m.src:
            raise IllegalMoveError(
                f"disk {m.disk} is buried under disk {smaller} on peg {m.src}", rule="R2"
            )
        if c.pegs[smaller] == m.dst:
            raise IllegalMoveError(
                f"disk {m.disk} cannot rest on smaller disk {smaller} on peg {m.dst}",
                rule="R3",
            )
    pegs = list(c.pegs)
    pegs[m.disk] = m.dst
    return Configuration(c.p, tuple(pegs))


class Moves(Sequence):
    """A read-only move sequence held as three arrays of labels: the moved
    disks, the source pegs and the target pegs, move i at index i.

    ``len`` reads the arrays' length; a ``Move`` is built only for an index
    or while iterating.  Two sequences are equal exactly when their arrays
    are, and hash alike then, so paths can be compared, hashed and kept in
    sets.

    ``Moves(disks, srcs, dsts)`` copies three iterables of labels into
    arrays and keeps the checks ``Move`` makes: ValueError when a label is
    negative or past 2**32 - 1, when a move's source and target agree, or
    when the three lengths differ.  The emitters in ``frame_stewart`` hand
    over arrays they filled themselves, unchecked and uncopied.
    """

    __slots__ = ("_disks", "_srcs", "_dsts")

    # 4-byte unsigned labels, 12 bytes a move: frame_stewart_path reaches
    # about 2**21 disks under MAX_PATH_MOVES, past 2 bytes
    typecode = "I"

    def __init__(self, disks: Iterable[int] = (), srcs: Iterable[int] = (), dsts: Iterable[int] = ()):
        try:
            columns = [array(Moves.typecode, labels) for labels in (disks, srcs, dsts)]
        except OverflowError as exc:
            raise ValueError(f"move labels must lie in [0, 2**32), got one outside: {exc}") from None
        if len({len(column) for column in columns}) > 1:
            raise ValueError(f"disk, source and target arrays differ in length: {[len(c) for c in columns]}")
        disks, srcs, dsts = columns
        for index in compress(count(), map(eq, srcs, dsts)):
            raise ValueError(f"move {index} of disk {disks[index]} must change peg, got {srcs[index]} twice")
        self._disks, self._srcs, self._dsts = columns

    @classmethod
    def _wrap(cls, disks: array, srcs: array, dsts: array) -> Moves:
        """Moves over arrays of ``typecode`` that hold legal moves, taken as they are."""
        moves = cls.__new__(cls)
        moves._disks, moves._srcs, moves._dsts = disks, srcs, dsts
        return moves

    def __len__(self) -> int:
        return len(self._disks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Moves._wrap(self._disks[index], self._srcs[index], self._dsts[index])
        return Move(self._disks[index], self._srcs[index], self._dsts[index])

    def __iter__(self) -> Iterator[Move]:
        return map(Move, self._disks, self._srcs, self._dsts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Moves):
            return NotImplemented
        return self._disks == other._disks and self._srcs == other._srcs and self._dsts == other._dsts

    def __hash__(self) -> int:
        return hash((self._disks.tobytes(), self._srcs.tobytes(), self._dsts.tobytes()))

    def __repr__(self) -> str:
        return f"<Moves: {len(self)} moves>"


@dataclass(frozen=True)
class MovePath:
    """A start configuration plus a move sequence replayable from it.

    ``moves`` may be given as any iterable of ``Move``; it is held as
    ``Moves``.  Paths are values: equal exactly when their starts and moves
    are, with a hash that agrees.
    """

    start: Configuration
    moves: Moves

    def __post_init__(self) -> None:
        if not isinstance(self.moves, Moves):
            moves = tuple(self.moves)
            columns = ([m.disk for m in moves], [m.src for m in moves], [m.dst for m in moves])
            object.__setattr__(self, "moves", Moves(*columns))

    @property
    def length(self) -> int:
        return len(self.moves)

    def replay(self) -> Configuration:
        """Validate every move and return the final configuration.

        Uses explicit per-peg stacks so each move costs O(1).  Each stack
        starts with n, below every disk, so an empty peg needs no test.
        """
        p, n = self.start.p, self.start.n
        stacks = [[n] for _ in range(p)]
        for disk in range(n - 1, -1, -1):  # bottom (largest) first
            stacks[self.start.pegs[disk]].append(disk)
        moves = self.moves
        for index, (disk, src, dst) in enumerate(zip(moves._disks, moves._srcs, moves._dsts)):
            if disk >= n or src >= p or dst >= p or src == dst:
                raise IllegalMoveError(
                    f"move {index}: disk {disk} from peg {src} to peg {dst} is not a move "
                    f"of one of {n} disks between two pegs of [0, {p})",
                    rule="R2",
                )
            source = stacks[src]
            if source[-1] != disk:
                raise IllegalMoveError(
                    f"move {index}: disk {disk} is not the topmost disk on peg {src}",
                    rule="R2",
                )
            target = stacks[dst]
            if target[-1] < disk:
                raise IllegalMoveError(
                    f"move {index}: disk {disk} placed on smaller disk {target[-1]}",
                    rule="R3",
                )
            source.pop()
            target.append(disk)
        pegs = [0] * n
        for peg, stack in enumerate(stacks):
            for disk in stack[1:]:
                pegs[disk] = peg
        return Configuration(p, tuple(pegs))

    def reversed(self) -> MovePath:
        """The same walk backwards; legal whenever this path is legal.

        The moves are the arrays read backwards with the two peg arrays
        swapped; the start is this path's replayed end."""
        moves = self.moves
        backwards = Moves._wrap(moves._disks[::-1], moves._dsts[::-1], moves._srcs[::-1])
        return MovePath(self.replay(), backwards)

    def restrict(self, k: int) -> MovePath:
        """Drop disks with labels >= k from the start and the move list."""
        moves = self.moves
        kept = list(map(k.__gt__, moves._disks))
        columns = (array(Moves.typecode, compress(c, kept)) for c in (moves._disks, moves._srcs, moves._dsts))
        return MovePath(self.start.restrict(k), Moves._wrap(*columns))


def is_essential(path: MovePath) -> bool:
    """True when every disk of the start configuration moves at least once."""
    return set(path.moves._disks).issuperset(range(path.start.n))


def path_to_text(path: MovePath) -> str:
    """One move per line, as "disk from to"."""
    moves = path.moves
    return "\n".join(map("{} {} {}".format, moves._disks, moves._srcs, moves._dsts))


def path_to_json_dict(path: MovePath) -> dict:
    moves = path.moves
    return {
        "p": path.start.p,
        "start": path.start.to_text(),
        "moves": [{"disk": d, "from": s, "to": t} for d, s, t in zip(moves._disks, moves._srcs, moves._dsts)],
        "length": path.length,
        "essential": is_essential(path),
    }


def path_from_json_dict(data: dict) -> MovePath:
    start = Configuration.from_text(data["start"], int(data["p"]))
    moves = data["moves"]
    columns = ([int(m[key]) for m in moves] for key in ("disk", "from", "to"))
    return MovePath(start, Moves(*columns))
