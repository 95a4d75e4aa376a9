import pytest

from hanoi_bounds.core import Configuration, is_essential
from hanoi_bounds.frame_stewart import (
    best_split,
    frame_stewart_path,
    phi4_closed,
    phi_closed,
    phi_recursive,
    phi_spectrum,
)


@pytest.mark.parametrize(
    "p, n, expected",
    [
        (3, 5, 31),  # 2**5 - 1
        (4, 3, 5),
        (4, 4, 9),  # min over splits: l=1 gives 2*1 + 7 = 9, l=2 gives 2*3 + 3 = 9
        (4, 0, 0),
        (5, 1, 1),
        (5, 5, 11),  # spectrum blocks for p=5: 1 + 3*2 + 4
    ],
)
def test_phi_recursive_values(p, n, expected):
    assert phi_recursive(p, n) == expected


def test_phi_recursive_rejects_bad_arguments():
    with pytest.raises(ValueError):
        phi_recursive(2, 4)
    with pytest.raises(ValueError):
        phi_recursive(4, -1)
    with pytest.raises(ValueError):
        phi_closed(2, 3)
    with pytest.raises(ValueError):
        phi_closed(4, -1)


@pytest.mark.parametrize("p, n, expected", [(4, 4, 9), (3, 5, 31), (4, 1, 1), (4, 0, 0)])
def test_phi_spectrum_values(p, n, expected):
    assert phi_spectrum(p, n) == expected


@pytest.mark.parametrize("n, expected", [(1, 1), (3, 5), (5, 13), (10, 49)])
def test_phi4_closed_values(n, expected):
    # oracle: phi_recursive, asserted equal below on the whole grid
    assert phi4_closed(n) == expected


def test_three_routes_agree_on_a_grid():
    for p in range(3, 11):
        for n in range(0, 120):
            assert phi_recursive(p, n) == phi_spectrum(p, n)
    for p in range(3, 11):
        for n in range(0, 400):
            assert phi_closed(p, n) == phi_spectrum(p, n)
    for p in range(5, 9):
        # the spectrum sum takes at most tens of milliseconds here
        assert phi_closed(p, 10**12 + 12345) == phi_spectrum(p, 10**12 + 12345)
    for n in range(1, 500):
        assert phi_spectrum(4, n) == phi4_closed(n)


def test_phi_monotone_in_disks_and_pegs():
    for p in range(3, 11):
        for n in range(0, 400):
            assert phi_spectrum(p, n) < phi_spectrum(p, n + 1)
            assert phi_spectrum(p + 1, n) <= phi_spectrum(p, n)


@pytest.mark.parametrize(
    "p, n, expected",
    [
        (4, 2, 1),
        # both l=1 and l=2 reach the minimum 9; the smallest wins
        (4, 4, 1),
        (4, 10, 6),
    ],
)
def test_best_split_returns_smallest_minimizer(p, n, expected):
    assert best_split(p, n) == expected


def test_best_split_value_matches_phi():
    for n in range(2, 60):
        l = best_split(4, n)
        assert 2 * phi_spectrum(4, l) + phi_spectrum(3, n - l) == phi_spectrum(4, n)
        for other in range(1, l):
            assert (
                2 * phi_spectrum(4, other) + phi_spectrum(3, n - other)
                > phi_spectrum(4, n)
            )


def test_frame_stewart_path_trivial_cases():
    assert frame_stewart_path(0, (0, 1, 2), 0, 2).moves == ()
    classic = frame_stewart_path(3, (0, 1, 2), 0, 2)
    assert classic.length == 7
    assert classic.replay() == Configuration.all_on(3, 3, 2)


def test_frame_stewart_path_four_pegs():
    path = frame_stewart_path(4, (0, 1, 2, 3), 0, 3)
    assert path.length == 9
    assert path.replay() == Configuration.all_on(4, 4, 3)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_frame_stewart_path_realizable_up_to_fifteen_disks(q):
    pegs = tuple(range(q))
    for n in range(0, 16):
        path = frame_stewart_path(n, pegs, 0, q - 1)
        assert path.length == phi_spectrum(q, n)
        assert path.replay() == Configuration.all_on(q, n, q - 1)
        if n > 0:
            assert is_essential(path)


def test_frame_stewart_path_past_the_search_limit():
    # configurations carry no search limit, so long paths replay
    path = frame_stewart_path(40, range(4), 0, 3)
    assert path.length == phi4_closed(40)
    assert path.replay() == Configuration.all_on(4, 40, 3)


def test_frame_stewart_path_rejects_bad_pegs():
    with pytest.raises(ValueError):
        frame_stewart_path(2, (0, 1), 0, 1)
    with pytest.raises(ValueError):
        frame_stewart_path(2, (0, 1, 2), 0, 0)
    with pytest.raises(ValueError):
        frame_stewart_path(2, (0, 1, 1), 0, 1)
    with pytest.raises(ValueError):
        frame_stewart_path(2, (0, 1, 2), 0, 3)
