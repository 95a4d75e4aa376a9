import time
from functools import cache
from itertools import permutations

import pytest

from hanoi_bounds import frame_stewart
from hanoi_bounds.core import Configuration, Moves, is_essential
from hanoi_bounds.frame_stewart import (
    MAX_PATH_MOVES,
    MAX_PHI_EXPONENT,
    MAX_RECURSIVE_DISKS,
    _SPECTRUM_LEAF,
    MoveWriter,
    _split,
    best_split,
    frame_stewart_path,
    phi_closed,
    phi_recursive,
    phi_spectrum,
    transfer_moves,
)
from hanoi_bounds.numerics import delta, nabla


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


def _phi_rows_every_split(p_max, n_max):
    # the reference for phi_recursive: the same recurrence, trying every
    # split k instead of walking the pointer; yields the rows Phi(q, 0..n_max)
    # for q = 3..p_max, O(p_max * n_max**2)
    row = [(1 << n) - 1 for n in range(n_max + 1)]
    yield row
    for _ in range(4, p_max + 1):
        prev = row
        row = list(range(min(n_max, 1) + 1))
        for n in range(2, n_max + 1):
            row.append(min(2 * row[k] + prev[n - k] for k in range(1, n)))
        yield row


def test_phi_recursive_matches_every_split():
    for p, row in enumerate(_phi_rows_every_split(8, 60), start=3):
        assert [phi_recursive(p, n) for n in range(61)] == row


def test_phi_recursive_matches_closed():
    for p in range(3, 11):
        for n in range(401):
            assert phi_recursive(p, n) == phi_closed(p, n)


def test_phi_recursive_at_a_hundred_thousand_disks():
    # the walk builds O(p * N) entries; the memoized loop over every split
    # ran for minutes here
    start = time.perf_counter()
    for p in (4, 8):
        assert phi_recursive(p, 10**5) == phi_closed(p, 10**5)
    assert time.perf_counter() - start < 5.0


def test_phi_recursive_with_more_pegs_than_disks():
    # the rows start at p - n + 2, so a billion pegs build four short rows
    assert phi_recursive(10**9, 5) == 9


def test_phi_recursive_refuses_past_the_disk_limit(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_RECURSIVE_DISKS"):
        phi_recursive(4, MAX_RECURSIVE_DISKS + 1)
    assert time.perf_counter() - start < 1.0
    # with p near n every split is 1 and the rows below the top hold about
    # n**2 / 2 entries; the walk refuses once they pass the same limit
    monkeypatch.setattr(frame_stewart, "MAX_RECURSIVE_DISKS", 1000)
    assert phi_recursive(8, 1000) == phi_closed(8, 1000)
    with pytest.raises(ValueError, match="entries in the rows below"):
        phi_recursive(100, 100)


def test_phi_closed_matches_the_recurrence_at_every_peg_count():
    # m = nabla(p, n) falls below, on and above p - 2 on this grid, so
    # phi_closed takes both of its sums; the recurrence by every split is
    # phi_recursive's own reference, and a phi_recursive call per point
    # would take about 17 s on a 2-core x86
    sides = set()
    for p, row in enumerate(_phi_rows_every_split(60, 399), start=3):
        assert [phi_closed(p, n) for n in range(400)] == row, p
        assert phi_recursive(p, 399) == row[399]
        sides |= {(nabla(p, n) > p - 2) - (nabla(p, n) < p - 2) for n in range(400)}
    assert sides == {-1, 0, 1}


def test_phi_closed_at_many_pegs():
    # min(p - 2, m) Horner steps: at many pegs m is small, so there is no
    # peg limit; p - 2 steps took 1.5 s at 2**16 pegs on a 2-core x86
    start = time.perf_counter()
    assert phi_closed(20000, 5) == phi_recursive(20000, 5) == 9
    for p in (2**15 + 1, 10**6, 10**9):
        for n in (5, 10**10):
            assert phi_closed(p, n) == phi_spectrum(p, n)
    assert time.perf_counter() - start < 5.0


def test_phi_closed_refuses_past_the_exponent_limit():
    with pytest.raises(ValueError, match="MAX_PHI_EXPONENT"):
        phi_closed(8, 10**100)
    # at 3 pegs m = n, so the limit falls exactly between these two
    assert phi_closed(3, MAX_PHI_EXPONENT) == (1 << MAX_PHI_EXPONENT) - 1
    with pytest.raises(ValueError, match="MAX_PHI_EXPONENT"):
        phi_closed(3, MAX_PHI_EXPONENT + 1)


@pytest.mark.parametrize("p, n, expected", [(4, 4, 9), (3, 5, 31), (4, 1, 1), (4, 0, 0)])
def test_phi_spectrum_values(p, n, expected):
    assert phi_spectrum(p, n) == expected


@pytest.mark.parametrize("n, expected", [(1, 1), (3, 5), (5, 13), (10, 49)])
def test_phi4_closed_values(n, expected):
    # oracle: phi_recursive, asserted equal below on the whole grid
    assert phi_closed(4, n) == expected


def test_three_routes_agree_on_a_grid():
    for p in range(3, 11):
        for n in range(0, 120):
            assert phi_recursive(p, n) == phi_spectrum(p, n)
    for p in range(3, 11):
        for n in range(0, 400):
            assert phi_closed(p, n) == phi_spectrum(p, n)
    for p in range(5, 9):
        # the spectrum sum takes a few milliseconds here
        assert phi_closed(p, 10**12 + 12345) == phi_spectrum(p, 10**12 + 12345)
    for n in range(1, 500):
        assert phi_spectrum(4, n) == phi_closed(4, n)
    for n in (10**9, 10**10):
        for offset in (0, 1, 99, 12345):
            assert phi_closed(4, n + offset) == phi_spectrum(4, n + offset)


def _spectrum_blocks(p, n):
    # the reference for phi_spectrum: the spectrum sum block by block, block
    # j (the k < n with nabla(p, k) = j) adding c_j * 2**j, O(m**2) bit operations
    return sum(
        (min(delta(p, j + 1), n) - min(delta(p, j), n)) << j for j in range(nabla(p, n) + 1)
    )


def test_phi_spectrum_matches_the_block_sum():
    for p in range(3, 11):
        for n in range(400):
            assert phi_spectrum(p, n) == _spectrum_blocks(p, n)


def test_phi_spectrum_across_leaf_edges():
    # n = delta(p, m) - 1, delta(p, m), delta(p, m) + 1 give nabla(p, n) = m - 1
    # or m, the number of blocks the halving sum adds, so m around the leaf
    # size, its double and its quadruple crosses each edge where a first,
    # second and third halving level starts
    leaf = _SPECTRUM_LEAF
    for p in range(4, 9):
        for m in (leaf * k + d for k in (1, 2, 4) for d in (-1, 0, 1)):
            for n in (delta(p, m) - 1, delta(p, m), delta(p, m) + 1):
                assert phi_spectrum(p, n) == _spectrum_blocks(p, n) == phi_closed(p, n)


def test_phi_spectrum_stays_independent_of_the_closed_form(monkeypatch):
    def closed(p, n):
        raise AssertionError("phi_spectrum called phi_closed")

    expected = phi_closed(4, 10**10 + 99)
    monkeypatch.setattr(frame_stewart, "phi_closed", closed)
    start = time.perf_counter()
    assert phi_spectrum(4, 10**10 + 99) == expected
    # many pegs: few blocks, and each binomial C(j + p - 3, p - 2) is cheap
    assert phi_spectrum(10**9, 5) == 9
    assert phi_spectrum(10**6, 10**12) == _spectrum_blocks(10**6, 10**12)
    assert time.perf_counter() - start < 2.0


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
    assert list(frame_stewart_path(0, (0, 1, 2), 0, 2).moves) == []
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


@pytest.mark.parametrize("q, most", [(3, 12), (4, 30), (5, 30), (6, 30)])
def test_transfer_walked_backwards_is_the_transfer_with_its_ends_swapped(q, most):
    # the constructions emit reversed transfers forwards on this identity
    pegs = tuple(range(q))
    for first in (0, 2):
        for count in range(most + 1):
            moves = {(x, y): transfer_moves(first, count, pegs, x, y) for x, y in permutations(pegs, 2)}
            for (x, y), forwards in moves.items():
                backwards = [m.reverse() for m in reversed(forwards)]
                assert backwards == list(moves[y, x]), (x, y, first, count)


def test_split_table_matches_the_scan():
    # _split answers without a scan; best_split tries every split
    for q in range(4, 11):
        for count in range(2, 301):
            assert _split(q, count) == best_split(q, count), (q, count)
    writer = MoveWriter()
    writer.transfer(0, 40, tuple(range(6)), 0, 5)
    assert writer._splits and all(split == best_split(*key) for key, split in writer._splits.items())


def _reference_transfer(first, count, pegs, src, dst, out, split):
    # the recursion transfer_moves replaced: a split from best_split at every
    # node of four or more pegs, and every 3-peg stretch by recursion
    if count == 0:
        return
    if count == 1:
        out.append((first, src, dst))
        return
    if len(pegs) == 3:
        spare = next(x for x in pegs if x != src and x != dst)
        _reference_transfer(first, count - 1, pegs, src, spare, out, split)
        out.append((first + count - 1, src, dst))
        _reference_transfer(first, count - 1, pegs, spare, dst, out, split)
        return
    l = split(len(pegs), count)
    parking = next(x for x in pegs if x != src and x != dst)
    _reference_transfer(first, l, pegs, src, parking, out, split)
    remaining = tuple(x for x in pegs if x != parking)
    _reference_transfer(first + l, count - l, remaining, src, dst, out, split)
    _reference_transfer(first, l, pegs, parking, dst, out, split)


@pytest.mark.parametrize("q, most", [(3, 14), (4, 40), (5, 40), (6, 40), (7, 40), (8, 40)])
def test_transfer_matches_the_recursive_reference(q, most):
    split = cache(best_split)  # the same splits, each scanned once
    pegs = tuple(range(q))
    for first in (0, 3):
        for count in range(most + 1):
            for src, dst in permutations(pegs, 2):
                reference = []
                _reference_transfer(first, count, pegs, src, dst, reference, split)
                moves = transfer_moves(first, count, pegs, src, dst)
                assert moves == Moves(*zip(*reference)), (first, count, src, dst)


def test_frame_stewart_path_past_the_search_limit():
    # configurations carry no search limit, so long paths replay
    path = frame_stewart_path(40, range(4), 0, 3)
    assert path.length == phi_closed(4, 40)
    assert path.replay() == Configuration.all_on(4, 40, 3)


def test_frame_stewart_path_refuses_paths_past_the_move_limit():
    # Phi(3, 23) = 2**23 - 1 and Phi(4, 169) are the first lengths past
    # MAX_PATH_MOVES = 2**22; refused before any move is emitted
    assert phi_closed(3, 22) <= MAX_PATH_MOVES < phi_closed(3, 23)
    assert phi_closed(4, 168) <= MAX_PATH_MOVES < phi_closed(4, 169)
    start = time.perf_counter()
    for n, pegs in ((23, range(3)), (169, range(4)), (10**5, range(4))):
        with pytest.raises(ValueError, match="MAX_PATH_MOVES"):
            frame_stewart_path(n, pegs, 0, 2)
    assert time.perf_counter() - start < 1.0


def test_frame_stewart_path_rejects_bad_pegs():
    with pytest.raises(ValueError):
        frame_stewart_path(2, (0, 1), 0, 1)
    with pytest.raises(ValueError):
        frame_stewart_path(2, (0, 1, 2), 0, 0)
    with pytest.raises(ValueError):
        frame_stewart_path(2, (0, 1, 1), 0, 1)
    with pytest.raises(ValueError):
        frame_stewart_path(2, (0, 1, 2), 0, 3)
    # labels the move arrays cannot hold: ValueError, not OverflowError
    with pytest.raises(ValueError):
        frame_stewart_path(2, (0, 1, 2**32), 0, 1)
    with pytest.raises(ValueError):
        transfer_moves(2**32, 2, (0, 1, 2), 0, 1)
    with pytest.raises(ValueError):
        transfer_moves(0, 2, (-1, 0, 1), 0, 1)
    with pytest.raises(ValueError):
        transfer_moves(0, -1, (0, 1, 2), 0, 1)
