import random
import time
from fractions import Fraction

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


def _literal_psi(members):
    # the maximum of psi_L over every level up to nabla(4, max E) + 1, past
    # which psi_L only falls
    top = nabla(4, max(members)) + 1 if members else 1
    return max(psi_L(members, level) for level in range(top + 1))


def test_psi_at_grade_boundaries():
    # grade g holds [T(g), T(g + 1)) for T(g) = g(g + 1)/2: members on
    # either side of a boundary must land in the right grade
    rng = random.Random(19)
    for g in range(1, 40):
        t = g * (g + 1) // 2
        members = [t - 1, t, t + 1]
        assert psi(members) == _literal_psi(members), g
        members = sorted(set(rng.sample(range(t + 2), min(t + 2, 12))) | {t - 1, t, t + 1})
        assert psi(members) == _literal_psi(members), g


def test_psi_with_labels_up_to_a_million():
    rng = random.Random(23)
    for size in (1, 2, 5, 20, 40):
        members = rng.sample(range(10**6 + 1), size)
        assert psi(members) == _literal_psi(members)
    assert psi([10**6]) == _literal_psi([10**6])


def test_psi_on_sets_whose_top_level_passes_twenty():
    rng = random.Random(29)
    for size in (400, 800, 1200):
        members = sorted(rng.sample(range(2000), size))
        top = nabla(4, members[-1]) + 1
        values = [psi_L(members, level) for level in range(top + 1)]
        assert values.index(max(values)) > 20
        assert psi(members) == max(values)


@pytest.mark.parametrize("n", [1, 2, 1000, 4095, 12345, 10**5])
def test_gathered_set_identity_at_large_n(n):
    assert 2 * psi(range(n)) == phi_closed(4, n + 1) - 1


def test_psi_rejects_non_integer_labels():
    with pytest.raises(TypeError):
        psi([1.5])
    with pytest.raises(TypeError):
        psi([0, 2, 7.0])


@pytest.mark.parametrize(
    "elements, message",
    [
        ([3, -2, -5], "disk labels must be nonnegative, got -5"),
        ([4, 2, 4], "duplicate disk label 4"),
        ([True, 1], "duplicate disk label True"),
        # a negative or duplicate label is reported before a non-integer one
        ([-1.5, 2], "disk labels must be nonnegative, got -1.5"),
        ([1.5, 1.5], "duplicate disk label 1.5"),
    ],
)
def test_psi_invalid_labels_keep_their_messages(elements, message):
    with pytest.raises(ValueError) as excinfo:
        psi(elements)
    assert str(excinfo.value) == message


def test_psi_of_bools_and_numpy_ints():
    import numpy as np

    assert psi([False, True]) == psi([0, 1]) == _literal_psi([False, True])
    assert psi([np.True_, np.int8(3)]) == psi([1, 3]) == _literal_psi([np.True_, np.int8(3)])
    for dtype in (np.int32, np.int64, np.uint16):
        members = np.array([0, 3, 4, 10, 11, 45, 200], dtype=dtype)
        assert psi(members) == psi(members.tolist()) == _literal_psi(list(members))
    assert psi(np.arange(300)) == psi(range(300))


def test_check_removal_bound_at_a_huge_s():
    # 2**(s - 1) is never built: the comparison goes by bit lengths
    start = time.perf_counter()
    assert check_removal_bound(range(5), 10**12, 0) is True
    assert time.perf_counter() - start < 1.0


def test_check_removal_bound_of_the_first_and_last_member():
    members = (0, 1, 2, 3, 5, 6, 9, 14)
    for a in (members[0], members[-1]):
        drop = _literal_psi(members) - _literal_psi([x for x in members if x != a])
        for s in range(4, 8):
            assert check_removal_bound(members, s, a) is (drop <= Fraction(2) ** (s - 1))
    assert check_removal_bound((0, 1, 2, 3), 2, 0) is True  # psi drops by 6 - 4 = 2


def test_check_removal_bound_rejects_a_non_member():
    with pytest.raises(ValueError, match="element 4 is not in the set"):
        check_removal_bound((0, 1, 2, 3), 2, 4)


def test_checks_match_the_literal_potential():
    from hanoi_bounds.verify import random_removal_instance

    rng = random.Random(107)
    for _ in range(300):
        members, s, a = random_removal_instance(rng)
        drop = _literal_psi(members) - _literal_psi([x for x in members if x != a])
        assert check_removal_bound(members, s, a) is (drop <= Fraction(2) ** (s - 1))
    for _ in range(300):
        a_set = rng.sample(range(200), rng.randint(0, 60))
        b_set = rng.sample(range(200), rng.randint(0, 60))
        n = len(set(a_set) | set(b_set))
        literal = 4 * (_literal_psi(a_set) + _literal_psi(b_set)) >= phi_closed(4, n + 3) - 5
        assert check_union_bound(a_set, b_set) is literal
