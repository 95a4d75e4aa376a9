import random

import pytest
from hypothesis import given, strategies as st

from hanoi_bounds.frame_stewart import phi_closed, phi_spectrum
from hanoi_bounds.numerics import nabla
from hanoi_bounds.potential import (
    NotApplicableError,
    check_removal_bound,
    check_union_bound,
    disk_set,
    psi,
    psi_L,
)

disk_sets = st.frozensets(st.integers(0, 300), max_size=40)


def test_disk_set_normalizes_and_validates():
    assert disk_set([3, 1, 2]) == (1, 2, 3)
    assert disk_set([]) == ()
    with pytest.raises(ValueError):
        disk_set([1, 1])
    with pytest.raises(ValueError):
        disk_set([-2])


@pytest.mark.parametrize(
    "elements, level, expected",
    [
        ((), 0, 0),
        ((4,), 0, 1),
        ((0, 1, 2, 3), 0, 4),  # at level 0 the potential is the set size
        # (1-2)*4 - 1 + 2**0 + 2**1 + 2**1 = -5 + 5
        ((0, 1, 2), 2, 0),
        ((0, 1, 2), 1, 4),
        ((0, 1, 2), 0, 3),
    ],
)
def test_psi_L_values(elements, level, expected):
    assert psi_L(elements, level) == expected


def test_psi_L_at_level_zero_is_cardinality():
    rng = random.Random(7)
    for _ in range(50):
        members = sorted(rng.sample(range(400), rng.randint(0, 30)))
        assert psi_L(members, 0) == len(members)


@pytest.mark.parametrize(
    "elements, expected",
    [
        ((), 0),
        ((0,), 1),
        ((0, 1, 2), 4),
        ((0, 1, 2, 3), 6),  # equals (phi_closed(4, 5) - 1) / 2
    ],
)
def test_psi_values(elements, expected):
    assert psi(elements) == expected


def test_psi_matches_brute_force_scan():
    # independent oracle: scan far beyond the provable cutoff
    rng = random.Random(11)
    for _ in range(60):
        members = sorted(rng.sample(range(200), rng.randint(0, 20)))
        wide = max(psi_L(members, level) for level in range(40))
        assert psi(members) == wide


def test_psi_is_the_largest_truncation_on_large_sets():
    # psi stops at the first level whose increment is not positive; the
    # literal maximum scans every level up to nabla(4, max E) + 1, past
    # which psi_L only falls
    rng = random.Random(17)
    for size in [0, 1, 2, 3, 50, 100, 200, 400] * 4:
        members = rng.sample(range(10**4), size)
        top = nabla(4, max(members)) + 1 if members else 1
        assert psi(members) == max(psi_L(members, level) for level in range(top + 1))


def test_psi_L_strictly_decreasing_beyond_cutoff():
    rng = random.Random(13)
    for _ in range(40):
        members = sorted(rng.sample(range(500), rng.randint(1, 25)))
        cutoff = max(1, nabla(4, members[-1]))
        values = [psi_L(members, level) for level in range(cutoff, cutoff + 20)]
        assert all(a > b for a, b in zip(values, values[1:]))


@given(disk_sets, disk_sets)
def test_psi_monotone_under_inclusion(a, b):
    small = tuple(sorted(a))
    large = tuple(sorted(a | b))
    assert psi(small) <= psi(large)


def test_gathered_set_identity():
    # psi({0..N-1}) = (phi_closed(4, N+1) - 1) / 2
    for n in range(2, 201):
        assert 2 * psi(range(n)) == phi_closed(4, n + 1) - 1


def test_split_minimum_identity():
    # (phi_closed(4, N+1) - 1) / 2 = min over a + b = N, a, b >= 1
    # of phi(4, a) + phi(3, b)
    for n in range(2, 201):
        best = min(
            phi_spectrum(4, a) + ((1 << (n - a)) - 1) for a in range(1, n)
        )
        assert 2 * best == phi_closed(4, n + 1) - 1


@pytest.mark.parametrize(
    "elements, s, a, expected",
    [
        ((0, 1, 2, 3), 2, 3, True),  # psi drop 6 - 4 = 2 <= 2**1
        ((0,), 1, 0, True),  # 1 - 0 <= 2**0
    ],
)
def test_check_removal_bound_examples(elements, s, a, expected):
    assert check_removal_bound(elements, s, a) is expected


def test_check_removal_bound_not_applicable():
    # |{0} - [delta(4, 0)]| = 1 > 0
    with pytest.raises(NotApplicableError):
        check_removal_bound((0,), 0, 0)


def test_check_removal_bound_random_applicable_instances():
    from hanoi_bounds.verify import random_removal_instance

    rng = random.Random(101)
    for _ in range(1000):
        members, s, a = random_removal_instance(rng)
        assert check_removal_bound(members, s, a)


def test_check_union_bound_examples():
    assert check_union_bound((), ()) is True  # 0 >= (phi_closed(4, 3) - 5) / 4 = 0
    assert check_union_bound((0, 1, 2), ()) is True  # 4 >= (17 - 5) / 4 = 3


def test_check_union_bound_random_instances():
    rng = random.Random(103)
    for _ in range(1000):
        a = tuple(sorted(rng.sample(range(200), rng.randint(0, 60))))
        b = tuple(sorted(rng.sample(range(200), rng.randint(0, 60))))
        assert check_union_bound(a, b)


def test_union_numerator_always_divisible_by_four():
    for n in range(0, 400):
        assert (phi_closed(4, n + 3) - 5) % 4 == 0
