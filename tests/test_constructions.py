import pytest

from hanoi_bounds.bounds import gamma4_formula
from hanoi_bounds.constructions import (
    main1_essential_path,
    midpoint_path,
    two1_tight_pair,
)
from hanoi_bounds.core import is_essential
from hanoi_bounds.frame_stewart import phi4_closed
from hanoi_bounds.state_space import distance, exact_gamma


def test_midpoint_single_disk():
    path = midpoint_path(1, 0, (3, 2), 1)
    assert path.length == 1


@pytest.mark.parametrize("n, expected", [(4, 6), (6, 12)])
def test_midpoint_lengths(n, expected):
    # expected = (phi4_closed(n + 1) - 1) / 2, with phi4_closed cross-checked
    # against the recursion in test_frame_stewart
    path = midpoint_path(n, 0, (3, 2), 1)
    assert path.length == expected == (phi4_closed(n + 1) - 1) // 2


def test_midpoint_final_occupies_only_targets():
    for n in range(1, 16):
        path = midpoint_path(n, 0, (2, 3), 1)
        assert path.length == (phi4_closed(n + 1) - 1) // 2
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
    assert path.length == expected == 1 + (phi4_closed(n + 2) - 5) // 4


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
        assert distance(u, v) == path.length == 1 + (phi4_closed(n + 2) - 5) // 4


def test_main1_three_disks():
    path = main1_essential_path(3)
    assert path.length == 3
    assert is_essential(path)


def test_main1_matches_formula_up_to_twenty():
    for n in range(3, 21):
        path = main1_essential_path(n)
        assert path.length == gamma4_formula(n)
        assert is_essential(path)
        path.replay()


def test_main1_twenty_disk_length():
    # phi4_closed(20) = 289, so the length is 3 + (289 - 5) / 4
    assert main1_essential_path(20).length == 74


def test_main1_past_the_search_limit():
    path = main1_essential_path(60)
    path.replay()
    assert path.length == gamma4_formula(60)
    assert is_essential(path)


def test_main1_matches_search_at_small_sizes():
    for n in range(3, 8):
        assert main1_essential_path(n).length == exact_gamma(4, n)


def test_main1_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        main1_essential_path(2)
    with pytest.raises(ValueError):
        two1_tight_pair(1)
