import time

import pytest

from hanoi_bounds.bounds import gamma_formula
from hanoi_bounds.constructions import (
    _cheapest_split,
    main1_essential_path,
    midpoint_path,
    two1_tight_pair,
)
from hanoi_bounds.core import Configuration, Move, MovePath, is_essential
from hanoi_bounds.frame_stewart import MAX_PATH_MOVES, phi_closed, transfer_moves
from hanoi_bounds.state_space import distance, exact_gamma


def test_midpoint_single_disk():
    path = midpoint_path(1, 0, (3, 2), 1)
    assert path.length == 1


@pytest.mark.parametrize("n, expected", [(4, 6), (6, 12)])
def test_midpoint_lengths(n, expected):
    # expected = (phi_closed(4, n + 1) - 1) / 2, with phi_closed cross-checked
    # against the recursion in test_frame_stewart
    path = midpoint_path(n, 0, (3, 2), 1)
    assert path.length == expected == (phi_closed(4, n + 1) - 1) // 2


def test_midpoint_final_occupies_only_targets():
    for n in range(1, 16):
        path = midpoint_path(n, 0, (2, 3), 1)
        assert path.length == (phi_closed(4, n + 1) - 1) // 2
        final = path.replay()
        assert final.disks_on(0) == ()
        assert final.disks_on(1) == ()
        assert set(final.pegs) <= {2, 3}


def test_midpoint_final_sits_at_exact_search_distance():
    # the searched distance from the gathered stack to the split stack
    # matches the emitted length, so the construction is a geodesic
    for n in range(1, 7):
        path = midpoint_path(n, 0, (2, 3), 1)
        assert distance(path.start, path.replay()) == path.length


def test_midpoint_peg_arguments():
    path = midpoint_path(3, 2, (0, 1), 3)
    final = path.replay()
    assert set(final.pegs) <= {0, 1}
    with pytest.raises(ValueError):
        midpoint_path(3, 0, (0, 2), 1)
    with pytest.raises(ValueError):
        midpoint_path(0, 0, (2, 3), 1)


@pytest.mark.parametrize("n, expected", [(2, 2), (4, 4)])
def test_two1_lengths(n, expected):
    _, _, path = two1_tight_pair(n)
    assert path.length == expected == 1 + (phi_closed(4, n + 2) - 5) // 4


def test_two1_endpoints_confined_to_half_planes():
    for n in range(2, 12):
        u, v, path = two1_tight_pair(n)
        assert u.disks_on(2) == () and u.disks_on(3) == ()
        assert v.disks_on(0) == () and v.disks_on(1) == ()
        assert path.start == u
        assert path.replay() == v


def test_two1_distance_is_tight():
    for n in range(2, 7):
        u, v, path = two1_tight_pair(n)
        assert distance(u, v) == path.length == 1 + (phi_closed(4, n + 2) - 5) // 4


def test_main1_three_disks():
    path = main1_essential_path(3)
    assert path.length == 3
    assert is_essential(path)


def test_main1_matches_formula_up_to_twenty():
    for n in range(3, 21):
        path = main1_essential_path(n)
        assert path.length == gamma_formula(4, n)[0]
        assert is_essential(path)
        path.replay()


def test_main1_twenty_disk_length():
    # phi_closed(4, 20) = 289, so the length is 3 + (289 - 5) / 4
    assert main1_essential_path(20).length == 74


def test_main1_past_the_search_limit():
    path = main1_essential_path(60)
    path.replay()
    assert path.length == gamma_formula(4, 60)[0]
    assert is_essential(path)


def test_main1_matches_search_at_small_sizes():
    for n in range(3, 8):
        assert main1_essential_path(n).length == exact_gamma(4, n)


def test_main1_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        main1_essential_path(2)
    with pytest.raises(ValueError):
        two1_tight_pair(1)


def test_cheapest_split_matches_the_scan():
    # the bisection against the scan over every split it replaced
    for offset in (0, 1):
        for count in range(301):
            scan = min(
                range(count),
                key=lambda a: phi_closed(4, a + offset) + phi_closed(3, count - a),
                default=0,
            )
            assert _cheapest_split(offset, count) == scan, (offset, count)


def _reference_tight_core(k, big):
    # the gather built by replaying a midpoint transfer out of peg 3 and
    # walking it backwards, move by move
    a = min(range(k), key=lambda a: phi_closed(4, a + 1) + phi_closed(3, k - a))
    gather = midpoint_path(a, 3, (0, 1), 2).reversed() if a else MovePath(Configuration(4, ()), ())
    pegs = list(gather.start.pegs) + [0] * (k - 1 - a)
    moves = [*gather.moves, Move(big, 1, 2), *transfer_moves(a, k - 1 - a, (0, 1, 2), 0, 2)]
    return pegs, moves


def test_tight_pair_and_essential_path_match_the_reversed_midpoint_transfer():
    for n in range(2, 61):
        pegs, moves = _reference_tight_core(n, n - 1)
        u, _, path = two1_tight_pair(n)
        assert u == path.start == Configuration(4, tuple(pegs + [1]))
        assert list(path.moves) == moves
        if n >= 3:
            pegs, moves = _reference_tight_core(n - 2, n - 2)
            path = main1_essential_path(n)
            assert path.start == Configuration(4, tuple(pegs + [0, 1, 2]))
            assert list(path.moves) == [Move(n - 1, 2, 3), *moves, Move(n - 3, 0, 1)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: midpoint_path(9, 0, (2, 3), 1),
        lambda: two1_tight_pair(9),
        lambda: main1_essential_path(11),
    ],
    ids=["midpoint_path", "two1_tight_pair", "main1_essential_path"],
)
def test_constructions_replay_once_and_reverse_nothing(build, monkeypatch):
    calls = {"replay": 0, "reverse": 0}
    replay, reverse = MovePath.replay, Move.reverse

    def counted_replay(self):
        calls["replay"] += 1
        return replay(self)

    def counted_reverse(self):
        calls["reverse"] += 1
        return reverse(self)

    monkeypatch.setattr(MovePath, "replay", counted_replay)
    monkeypatch.setattr(Move, "reverse", counted_reverse)
    build()
    assert calls == {"replay": 1, "reverse": 0}


@pytest.mark.parametrize(
    "build, length",
    [
        pytest.param(
            main1_essential_path,
            lambda n: gamma_formula(4, n)[0],
            id="main1_essential_path-gamma_formula",
        ),
        (two1_tight_pair, lambda n: 1 + (phi_closed(4, n + 2) - 5) // 4),
        (lambda n: midpoint_path(n, 0, (2, 3), 1), lambda n: (phi_closed(4, n + 1) - 1) // 2),
    ],
)
def test_constructions_refuse_paths_past_the_move_limit(build, length):
    # refused from the closed-form length before any move is emitted: at the
    # first disk count past the limit, and at 10**5 disks, which would run
    # until the machine runs out of memory
    first = 3
    while length(first) <= MAX_PATH_MOVES:
        first += 1
    start = time.perf_counter()
    for n in (first, 10**5):
        with pytest.raises(ValueError, match="MAX_PATH_MOVES"):
            build(n)
    assert time.perf_counter() - start < 1.0
