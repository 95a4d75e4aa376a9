import pytest

from hanoi_bounds.dyadic import DyadicRational


def test_canonical_form():
    assert DyadicRational(6, -3) == DyadicRational(3, -2)
    assert DyadicRational(6, -3).mantissa == 3
    assert DyadicRational(0, 17) == DyadicRational(0, 0)
    assert DyadicRational(8, 0) == DyadicRational(1, 3)


def test_comparisons_against_integers():
    half = DyadicRational(1, -1)
    assert half < 1
    assert half <= 1
    assert half > 0
    assert DyadicRational(1, 2) == 4
    assert DyadicRational(3, -2) < DyadicRational(1, 0)
    assert not DyadicRational(3, -2) < DyadicRational(3, -2)


@pytest.mark.parametrize(
    "mantissa, exponent, expected",
    [(1, -1, 1), (3, -2, 1), (5, -2, 2), (1, 2, 4), (0, 0, 0), (-3, -1, -1), (-1, -1, 0)],
)
def test_ceil(mantissa, exponent, expected):
    assert DyadicRational(mantissa, exponent).ceil() == expected


def test_json_round_trip():
    value = DyadicRational(7, -4)
    data = value.to_json_dict()
    assert data == {"mantissa": "7", "exponent": -4, "ceil": "1"}
    assert DyadicRational.from_json_dict(data) == value


def test_str_format():
    assert str(DyadicRational(3, -2)) == "3*2^-2"


@pytest.mark.parametrize(
    "mantissa, exponent",
    [(0, 0), (0, 5), (3, 0), (-3, 0), (1, 70), (-5, 64), (-1, 0), (1, -1), (-1, -1), (3, -2), (-7, -80), (2**61 - 1, -3)],
)
def test_hash_matches_int_and_fraction(mantissa, exponent):
    from fractions import Fraction

    value = DyadicRational(mantissa, exponent)
    exact = Fraction(mantissa) * Fraction(2) ** exponent
    assert hash(value) == hash(exact)
    if exact.denominator == 1:
        assert hash(value) == hash(int(exact))
        assert value in {int(exact)}
        assert int(exact) in {value}


def test_huge_values_compare_and_hash_without_expanding():
    import time

    huge = DyadicRational(1, 10**10)
    half = DyadicRational(1, -1)
    start = time.perf_counter()
    assert half < huge and not huge < half
    assert huge > 1 and DyadicRational(-1, 10**10) < half
    assert huge != half and huge == DyadicRational(4, 10**10 - 2)
    assert DyadicRational(3, 10**10) > huge > DyadicRational(3, 10**10 - 2)
    assert DyadicRational(-3, 10**10) < DyadicRational(-1, 10**10) < -1
    assert hash(huge) == hash(DyadicRational(1, 10**10))
    # each step used to shift a mantissa by 10**10 bits (seconds, about 1 GB)
    assert time.perf_counter() - start < 0.5


def test_ordering_matches_fraction_on_mixed_signs_and_scales():
    import itertools
    from fractions import Fraction

    values = [DyadicRational(m, e) for m in (-5, -3, -1, 0, 1, 3, 7) for e in (-4, -1, 0, 2, 3)]
    for x, y in itertools.product(values, repeat=2):
        fx = Fraction(x.mantissa) * Fraction(2) ** x.exponent
        fy = Fraction(y.mantissa) * Fraction(2) ** y.exponent
        assert (x < y) == (fx < fy), (x, y)
        assert (x == y) == (fx == fy), (x, y)
