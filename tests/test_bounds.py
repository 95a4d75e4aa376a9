import json
import time

import pytest

from hanoi_bounds.bounds import (
    MAX_DP_DISKS,
    bound_report_from_json_dict,
    build_report,
    chen_shen_bound,
    dp_lower_bound,
    dp_lower_bounds,
    gamma3_formula,
    gamma4_formula,
    gamma_conjecture,
    gamma_formula,
    gamma_upper_general,
    main2_bound,
)
from hanoi_bounds.dyadic import DyadicRational
from hanoi_bounds.frame_stewart import phi4_closed, phi_spectrum


@pytest.mark.parametrize(
    "p, n, expected",
    [
        (4, 10, DyadicRational(1, 2)),  # m = 3
        (3, 5, DyadicRational(1, 3)),  # m = 4
        (4, 1, DyadicRational(1, -1)),
        (7, 1, DyadicRational(1, -1)),
    ],
)
def test_chen_shen_values(p, n, expected):
    assert chen_shen_bound(p, n) == expected


def test_chen_shen_m_is_largest_strict_bound():
    # brute-force oracle for the defining property of m
    from hanoi_bounds.numerics import delta

    for p in (3, 4, 5):
        for n in range(1, 200):
            value = chen_shen_bound(p, n)
            m = value.exponent + 1  # value is 2**(m-1)
            assert delta(p, m) < n
            assert delta(p, m + 1) >= n


@pytest.mark.parametrize(
    "p, n, expected",
    [
        (5, 121, DyadicRational(1, 5)),  # (8 + 0) * 2**(8 - 6) = 32
        (5, 17, DyadicRational(3, -2)),  # (3 + 3) * 2**(3 - 6) = 3/4
    ],
)
def test_main2_values(p, n, expected):
    assert main2_bound(p, n) == expected


def test_main2_below_gamma4_formula():
    for n in range(1, 501):
        assert main2_bound(4, n) <= gamma4_formula(n)


@pytest.mark.parametrize("n, expected", [(0, 0), (1, 1), (2, 2), (5, 9), (10, 257)])
def test_gamma3_values(n, expected):
    assert gamma3_formula(n) == expected


@pytest.mark.parametrize("n, expected", [(0, 0), (2, 2), (3, 3), (4, 4), (7, 8), (10, 14)])
def test_gamma4_values(n, expected):
    # 3 + (phi4_closed(n) - 5) / 4 for n >= 3; phi4_closed(10) = 49
    assert gamma4_formula(n) == expected


def test_gamma_conjecture_specializes_to_proven_formulas():
    for n in range(0, 300):
        assert gamma_conjecture(3, n) == gamma3_formula(n)
        assert gamma_conjecture(4, n) == gamma4_formula(n)


def test_gamma_formula_matches_the_proven_spellings():
    # oracles written independently of gamma_formula: Szegedy's 3-peg value
    # and Main-1's 4-peg value over the spectrum sum
    for n in range(300):
        szegedy = n if n <= 1 else 1 + 2 ** (n - 2)
        main1 = n if n <= 2 else 3 + (phi_spectrum(4, n) - 5) // 4
        assert gamma_formula(3, n) == (szegedy, "exact")
        assert gamma_formula(4, n) == (main1, "exact")
        assert gamma3_formula(n) == szegedy
        assert gamma4_formula(n) == main1


@pytest.mark.parametrize(
    "p, n, expected",
    [(4, 7, (8, "exact")), (3, 5, (9, "exact")), (5, 4, (4, "conjectured")), (8, 1, (1, "conjectured"))],
)
def test_gamma_formula_values_and_status(p, n, expected):
    assert gamma_formula(p, n) == expected


def test_gamma_formula_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gamma_formula(2, 3)
    with pytest.raises(ValueError):
        gamma_formula(4, -1)


@pytest.mark.parametrize("p, n, expected", [(5, 3, 3), (6, 4, 4), (5, 5, 5)])
def test_gamma_conjecture_values(p, n, expected):
    assert gamma_conjecture(p, n) == expected


@pytest.mark.parametrize(
    "p, n, expected",
    [
        (4, 7, 8),
        (3, 5, 9),
        (5, 4, 4),  # phi(5, 4) = 7, so 4 + 0
        (5, 5, 5),  # phi(5, 5) = 11, so 4 + 1
    ],
)
def test_gamma_upper_general_values(p, n, expected):
    assert gamma_upper_general(p, n) == expected


def test_gamma_upper_general_rejects_small_n():
    with pytest.raises(ValueError):
        gamma_upper_general(5, 3)


def test_upper_numerator_divisible_for_valid_range():
    # the spectrum sum is 1 + 2(p-2) plus a multiple of 4 once n >= p - 1
    for p in range(3, 9):
        for n in range(p - 1, 400):
            assert (phi_spectrum(p, n) - (2 * (p - 2) + 1)) % 4 == 0
            assert isinstance(gamma_upper_general(p, n), int)


def test_upper_matches_formulas_where_proven():
    for n in range(2, 200):
        assert gamma_upper_general(3, n) == gamma3_formula(n)
    for n in range(3, 200):
        assert gamma_upper_general(4, n) == gamma4_formula(n)


@pytest.mark.parametrize("p, n, expected", [(4, 7, 8), (5, 3, 3)])
def test_dp_lower_values(p, n, expected):
    assert dp_lower_bound(p, n) == expected


def test_dp_lower_bounds_row_consistency():
    row = dp_lower_bounds(6, 50)
    for n in range(51):
        assert row[n] == dp_lower_bound(6, n)


def test_dp_lower_bound_at_four_pegs_reads_the_formula_row():
    # dp_lower_bounds fills row 4 by additions, dp_lower_bound reads the formula
    row = dp_lower_bounds(4, 3000)
    for n in range(3001):
        assert dp_lower_bound(4, n) == row[n]
    # no row of 10**8 values: this used to take minutes and run out of memory
    start = time.perf_counter()
    report = build_report(4, 10**8)
    assert time.perf_counter() - start < 1.0
    assert report.dp_lower == report.gamma_formula


def _dp_lower_bounds_every_split(p, n_max):
    # the reference for dp_lower_bounds: the same recurrence, trying every
    # split l instead of walking the crossing, O(p * n_max**2)
    row = [gamma4_formula(n) for n in range(n_max + 1)]
    for q in range(5, p + 1):
        prev = row
        row = [0] * (n_max + 1)
        for n in range(1, n_max + 1):
            best = max(n, row[n - 1])
            for split in range(1, n):
                candidate = 2 * min(row[n - split], prev[split])
                if candidate > best:
                    best = candidate
            row[n] = best
    return row


def test_dp_crossing_walk_matches_every_split():
    for p in range(5, 9):
        assert dp_lower_bounds(p, 400) == _dp_lower_bounds_every_split(p, 400)
    assert dp_lower_bounds(5, 1500) == _dp_lower_bounds_every_split(5, 1500)
    # at 200 disks row 10 equals row 9, so p = 11..14 stop at that fixed
    # point and p = 9, 10 end where it starts
    for p in range(9, 15):
        assert dp_lower_bounds(p, 200) == _dp_lower_bounds_every_split(p, 200)


def test_dp_stops_at_its_fixed_point():
    start = time.perf_counter()
    assert dp_lower_bounds(10**9, 300) == dp_lower_bounds(40, 300)
    assert time.perf_counter() - start < 2.0


def test_dp_nondecreasing_and_above_trivial():
    for p in range(5, 9):
        row = dp_lower_bounds(p, 2000)
        for n in range(1, 2001):
            assert row[n] >= row[n - 1]
            assert row[n] >= n


def test_dp_dominates_main2():
    for p in range(5, 9):
        row = dp_lower_bounds(p, 2000)
        for n in range(1, 2001):
            assert main2_bound(p, n) <= row[n]


def test_dp_report_at_a_hundred_thousand_disks():
    start = time.perf_counter()
    report = build_report(5, 10**5)
    assert time.perf_counter() - start < 5.0
    assert report.main2 <= report.dp_lower <= report.gamma_formula


def test_dp_refuses_rows_past_the_limit():
    # refused before any row is built: 10**12 disks would exhaust memory
    start = time.perf_counter()
    for n in (MAX_DP_DISKS + 1, 10**12):
        with pytest.raises(ValueError, match="MAX_DP_DISKS"):
            dp_lower_bounds(5, n)
        with pytest.raises(ValueError, match="MAX_DP_DISKS"):
            build_report(8, n)
    assert time.perf_counter() - start < 1.0
    assert dp_lower_bound(4, 10**12) == gamma4_formula(10**12)


def test_dp_at_five_pegs_121_disks():
    assert dp_lower_bound(5, 121) >= 32
    assert main2_bound(5, 121) == 32


def test_halving_inequality():
    # 2 * phi(4, N+1) - 2 >= phi(4, N+2) - 1
    for n in range(1, 501):
        assert 2 * phi4_closed(n + 1) - 2 >= phi4_closed(n + 2) - 1


@pytest.mark.parametrize("p, n", [(5, 121), (4, 10), (4, 1), (3, 5)])
def test_bound_report_round_trip(p, n):
    report = build_report(p, n)
    parsed = bound_report_from_json_dict(json.loads(json.dumps(report.to_json_dict())))
    assert parsed == report


def test_bound_report_fields():
    report = build_report(5, 121)
    assert report.main2 == 32
    assert report.gamma_formula_status == "conjectured"
    assert report.trivial_n == 121
    small = build_report(4, 10)
    assert small.chen_shen == 4
    assert small.gamma_formula == 14
    assert small.gamma_formula_status == "exact"
    tiny = build_report(4, 1)
    assert tiny.chen_shen == DyadicRational(1, -1)
    assert tiny.chen_shen.ceil() == 1
    assert build_report(3, 5).main2 is None


def test_bound_report_internal_order():
    for p in (3, 4, 5, 6):
        for n in range(1, 60):
            report = build_report(p, n)
            assert report.chen_shen <= report.phi_upper
            if report.dp_lower is not None:
                assert report.main2 <= report.dp_lower
                assert report.dp_lower <= report.gamma_formula
            if report.gamma_upper_general is not None:
                assert report.gamma_formula <= report.gamma_upper_general.ceil()
