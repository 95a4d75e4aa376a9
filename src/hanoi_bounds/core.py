"""Hanoi configurations, moves, and move paths.

A configuration assigns every disk to a peg.  Stacking order on a peg is
forced by size (smaller disks always sit on top), so the peg assignment is
the entire state and every assignment vector is a valid configuration.
Disk 0 is the smallest disk; pegs and disks are numbered from 0.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MIN_PEGS",
    "Configuration",
    "IllegalMoveError",
    "Move",
    "MovePath",
    "apply_move",
    "is_essential",
    "legal_moves",
    "path_from_json_dict",
    "path_to_json_dict",
    "path_to_text",
]

MIN_PEGS = 3


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

    def top(self, peg: int) -> int | None:
        """The topmost (smallest) disk on ``peg``, or None if it is empty."""
        for d, x in enumerate(self.pegs):
            if x == peg:
                return d
        return None

    def empty_pegs(self) -> tuple[int, ...]:
        used = set(self.pegs)
        return tuple(x for x in range(self.p) if x not in used)

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


@dataclass(frozen=True)
class MovePath:
    """A start configuration plus a move sequence replayable from it."""

    start: Configuration
    moves: tuple[Move, ...]

    @property
    def length(self) -> int:
        return len(self.moves)

    def replay(self) -> Configuration:
        """Validate every move and return the final configuration.

        Uses explicit per-peg stacks so each move costs O(1).
        """
        p, n = self.start.p, self.start.n
        stacks: list[list[int]] = [[] for _ in range(p)]
        for disk in range(n - 1, -1, -1):  # bottom (largest) first
            stacks[self.start.pegs[disk]].append(disk)
        peg_of = list(self.start.pegs)
        for index, m in enumerate(self.moves):
            if not 0 <= m.disk < n:
                raise IllegalMoveError(f"move {index}: no disk {m.disk}", rule="R2")
            if not (0 <= m.src < p and 0 <= m.dst < p):
                raise IllegalMoveError(f"move {index}: peg outside [0, {p})", rule="R2")
            source = stacks[m.src]
            if not source or source[-1] != m.disk:
                raise IllegalMoveError(
                    f"move {index}: disk {m.disk} is not the topmost disk on peg {m.src}",
                    rule="R2",
                )
            target = stacks[m.dst]
            if target and target[-1] < m.disk:
                raise IllegalMoveError(
                    f"move {index}: disk {m.disk} placed on smaller disk {target[-1]}",
                    rule="R3",
                )
            source.pop()
            target.append(m.disk)
            peg_of[m.disk] = m.dst
        return Configuration(p, tuple(peg_of))

    def reversed(self) -> MovePath:
        """The same walk backwards; legal whenever this path is legal."""
        return MovePath(self.replay(), tuple(m.reverse() for m in reversed(self.moves)))

    def restrict(self, k: int) -> MovePath:
        """Drop disks with labels >= k from the start and the move list."""
        return MovePath(
            self.start.restrict(k), tuple(m for m in self.moves if m.disk < k)
        )


def is_essential(path: MovePath) -> bool:
    """True when every disk of the start configuration moves at least once."""
    moved = {m.disk for m in path.moves}
    return moved.issuperset(range(path.start.n))


def path_to_text(path: MovePath) -> str:
    """One move per line, as "disk from to"."""
    return "\n".join(f"{m.disk} {m.src} {m.dst}" for m in path.moves)


def path_to_json_dict(path: MovePath) -> dict:
    return {
        "p": path.start.p,
        "start": path.start.to_text(),
        "moves": [{"disk": m.disk, "from": m.src, "to": m.dst} for m in path.moves],
        "length": path.length,
        "essential": is_essential(path),
    }


def path_from_json_dict(data: dict) -> MovePath:
    start = Configuration.from_text(data["start"], int(data["p"]))
    moves = tuple(Move(int(m["disk"]), int(m["from"]), int(m["to"])) for m in data["moves"])
    return MovePath(start, moves)
