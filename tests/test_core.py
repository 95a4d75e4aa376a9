from array import array
from itertools import permutations

import pytest

from hanoi_bounds.constructions import main1_essential_path, midpoint_path, two1_tight_pair
from hanoi_bounds.core import (
    Configuration,
    IllegalMoveError,
    Move,
    MovePath,
    Moves,
    path_from_json_dict,
    path_to_json_dict,
)
from hanoi_bounds.frame_stewart import frame_stewart_path


def _paths():
    # a grid of constructions, with the empty path and a bare transfer
    yield MovePath(Configuration(4, ()), ())
    for n in range(3, 16):
        yield main1_essential_path(n)
    for n in range(2, 16):
        yield two1_tight_pair(n)[2]
    for src, first, second, spare in permutations(range(4)):
        yield midpoint_path(7, src, (first, second), spare)
    for q in range(3, 7):
        for n in range(0, 9):
            yield frame_stewart_path(n, range(q), 0, q - 1)


# ---------------------------------------------------------------------------
# the checks Move makes, on moves given as raw label arrays


@pytest.mark.parametrize(
    "disks, srcs, dsts",
    [
        ([0, 1], [0, 2], [1, 2]),  # move 1 leaves disk 1 where it is
        ([0], [-1], [1]),
        ([-1], [0], [1]),
        ([0], [0], [-2]),
        (array("i", [0]), array("i", [1]), array("i", [1])),
        (array("i", [-1]), array("i", [0]), array("i", [1])),
        ([2**32], [0], [1]),
        ([0, 1], [0], [1]),  # lengths differ
    ],
)
def test_moves_from_raw_arrays_keep_the_checks_of_move(disks, srcs, dsts):
    with pytest.raises(ValueError):
        MovePath(Configuration(3, (0, 0)), Moves(disks, srcs, dsts))


def test_moves_from_raw_arrays_read_back_as_moves():
    moves = Moves(array("i", [0, 1, 0]), [0, 0, 2], (2, 1, 1))
    assert len(moves) == 3
    assert list(moves) == [Move(0, 0, 2), Move(1, 0, 1), Move(0, 2, 1)]
    assert moves[1] == Move(1, 0, 1) and moves[-1] == Move(0, 2, 1)
    assert list(reversed(moves)) == list(moves)[::-1]
    assert moves[1:] == Moves([1, 0], [0, 2], [1, 1])
    path = MovePath(Configuration(3, (0, 0)), moves)
    assert path.replay() == Configuration(3, (1, 1))
    assert path == MovePath(Configuration(3, (0, 0)), list(moves))


def test_replay_rejects_a_move_that_stays_on_its_peg():
    # arrays handed over unchecked, as the emitters do: replay still refuses
    start = Configuration(3, (0,))
    stay = MovePath(start, Moves._wrap(*(array(Moves.typecode, [0]) for _ in range(3))))
    with pytest.raises(IllegalMoveError) as err:
        stay.replay()
    assert err.value.rule == "R2"
    for disk, src, dst in ((1, 0, 1), (0, 0, 3), (0, 3, 0)):
        with pytest.raises(IllegalMoveError):
            MovePath(start, (Move(disk, src, dst),)).replay()


# ---------------------------------------------------------------------------
# paths as values


def test_paths_are_equal_exactly_when_starts_and_moves_are():
    paths = list(_paths())
    for path in paths:
        twin = MovePath(Configuration(path.start.p, path.start.pegs), list(path.moves))
        assert twin == path and hash(twin) == hash(path)
    distinct = {(path.start, tuple(path.moves)) for path in paths}
    assert len(set(paths)) == len(distinct)
    for left, right in zip(paths, paths[1:]):
        same = left.start == right.start and list(left.moves) == list(right.moves)
        assert (left == right) == same
    base = main1_essential_path(6)
    assert base != MovePath(base.start, list(base.moves)[:-1])
    assert base != MovePath(Configuration(5, base.start.pegs), base.moves)
    assert base.moves != tuple(base.moves)  # Moves equal only Moves


def test_reversed_twice_is_the_path():
    for path in _paths():
        back = path.reversed()
        assert back.start == path.replay() and back.replay() == path.start
        assert list(back.moves) == [m.reverse() for m in reversed(path.moves)]
        assert back.reversed() == path


def test_json_round_trip_is_the_path():
    for path in _paths():
        again = path_from_json_dict(path_to_json_dict(path))
        assert again == path and hash(again) == hash(path)
