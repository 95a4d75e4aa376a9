import pytest
from hypothesis import given, strategies as st

from hanoi_bounds.numerics import Decomposition, binomial, decompose, delta, nabla


@pytest.mark.parametrize(
    "n, k, expected",
    [(4, 2, 6), (3, 0, 1), (2, 5, 0), (0, 0, 1), (10, 10, 1)],
)
def test_binomial_values(n, k, expected):
    assert binomial(n, k) == expected


@pytest.mark.parametrize("n, k", [(-1, 0), (3, -2)])
def test_binomial_rejects_negative(n, k):
    with pytest.raises(ValueError):
        binomial(n, k)


@pytest.mark.parametrize("p, n, expected", [(4, 3, 6), (5, 3, 10), (3, 7, 7), (4, 1, 1)])
def test_delta_values(p, n, expected):
    assert delta(p, n) == expected


def test_delta_of_zero_is_zero_for_every_peg_count():
    for p in range(3, 11):
        assert delta(p, 0) == 0


@pytest.mark.parametrize("func", [delta, nabla])
def test_operators_reject_small_peg_counts(func):
    with pytest.raises(ValueError):
        func(2, 5)


@pytest.mark.parametrize("p, n, expected", [(4, 0, 0), (4, 5, 2), (4, 6, 3), (3, 12, 12)])
def test_nabla_values(p, n, expected):
    assert nabla(p, n) == expected


def test_delta_recurrence():
    # delta(p, n) = delta(p, n-1) + delta(p-1, n)
    for p in range(4, 11):
        for n in range(1, 501):
            assert delta(p, n) == delta(p, n - 1) + delta(p - 1, n)


def test_delta_strictly_increasing_from_one():
    for p in range(3, 11):
        for n in range(1, 200):
            assert delta(p, n) < delta(p, n + 1)


def test_nabla_nondecreasing():
    for p in range(3, 8):
        values = [nabla(p, n) for n in range(300)]
        assert values == sorted(values)


@given(p=st.integers(3, 10), n=st.integers(0, 10**9))
def test_nabla_brackets_delta(p, n):
    k = nabla(p, n)
    assert delta(p, k) <= n < delta(p, k + 1)


def test_nabla4_inverts_delta4_at_every_block_edge():
    # nabla(4, .) is an integer square root: check it on both sides of each
    # edge delta(4, k), for small k and for k near delta(4, k) = 10**20
    far = nabla(4, 10**20)
    for k in list(range(5001)) + list(range(far - 100, far + 101)):
        edge = delta(4, k)
        for n in (edge - 1, edge, edge + 1):
            if n >= 0:
                m = nabla(4, n)
                assert delta(4, m) <= n < delta(4, m + 1)
        assert nabla(4, edge) == k
        if k:
            assert nabla(4, edge - 1) == k - 1


@pytest.mark.parametrize(
    "p, n, expected",
    [
        (4, 7, (3, 0, 0)),  # N-1 = 6 = delta(4, 3)
        (5, 17, (3, 3, 0)),  # N-1 = 16 = delta(5, 3) + delta(4, 3)
        (4, 10, (3, 3, 0)),
        (5, 121, (8, 0, 0)),
    ],
)
def test_decompose_values(p, n, expected):
    d = decompose(p, n)
    assert (d.m, d.t, d.r) == expected


def test_decompose_one_disk_is_zero_triple():
    for p in range(4, 11):
        assert decompose(p, 1) == Decomposition(p=p, N=1, m=0, t=0, r=0)


def test_decompose_rejects_bad_arguments():
    with pytest.raises(ValueError):
        decompose(3, 5)
    with pytest.raises(ValueError):
        decompose(4, 0)


def test_decompose_round_trip_and_uniqueness():
    # The invariants pin the triple uniquely: scan every candidate with
    # m' <= m + 1 and count the solutions.
    for p in range(4, 8):
        delta_p = [delta(p, i) for i in range(80)]
        delta_q = [delta(p - 1, i) for i in range(80)]
        r_bound = [binomial(i + 1 + p - 5, p - 4) for i in range(80)]
        for n in range(1, 2001):
            d = decompose(p, n)
            assert d.recompose() == n - 1
            assert d.t <= d.m
            assert 0 <= d.r < r_bound[d.t]
            solutions = []
            for m2 in range(d.m + 2):
                if delta_p[m2] > n - 1:
                    break
                for t2 in range(m2 + 1):
                    r2 = n - 1 - delta_p[m2] - delta_q[t2]
                    if 0 <= r2 < r_bound[t2]:
                        solutions.append((m2, t2, r2))
            assert solutions == [(d.m, d.t, d.r)]
