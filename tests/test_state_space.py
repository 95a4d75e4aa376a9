import random

import pytest

from hanoi_bounds.core import (
    Configuration,
    IllegalMoveError,
    Move,
    MovePath,
    apply_move,
    is_essential,
    legal_moves,
)
from hanoi_bounds.frame_stewart import frame_stewart_path, phi4_closed
from hanoi_bounds.potential import psi
from hanoi_bounds.state_space import (
    CapExceededError,
    PreconditionError,
    check_bousch_inequality,
    distance,
    exact_H,
    exact_gamma,
)


def random_config(rng, p, n, pegs=None):
    pool = list(range(p)) if pegs is None else list(pegs)
    return Configuration(p, tuple(rng.choice(pool) for _ in range(n)))


def random_walk(rng, p, n, steps):
    c = random_config(rng, p, n)
    moves = []
    current = c
    for _ in range(steps):
        options = legal_moves(current)
        m = rng.choice(options)
        moves.append(m)
        current = apply_move(current, m)
    return MovePath(c, tuple(moves))


# ---------------------------------------------------------------------------
# configurations and moves


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(2, ())
    with pytest.raises(ValueError):
        Configuration(4, (0, 4))
    # the search limits belong to the search, not to the value type
    with pytest.raises(ValueError):
        distance(Configuration(9, (0,)), Configuration(9, (1,)))
    with pytest.raises(ValueError):
        distance(Configuration(4, (0,) * 31), Configuration(4, (3,) * 31))
    with pytest.raises(ValueError):
        distance(Configuration(4, (0,) * 31), Configuration(4, (0,) * 31))
    with pytest.raises(ValueError):
        exact_H(9, 2)


def test_configuration_text_round_trip():
    c = Configuration(4, (0, 0, 1, 3))
    assert c.to_text() == "0,0,1,3"
    assert Configuration.from_text("0,0,1,3", 4) == c
    assert Configuration.from_text("", 4) == Configuration(4, ())


def test_configuration_rank_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.randint(3, 8)
        n = rng.randint(0, 10)
        c = random_config(rng, p, n)
        assert Configuration.from_rank(p, n, c.rank()) == c


def test_legal_moves_empty_and_single():
    assert legal_moves(Configuration(4, ())) == []
    moves = legal_moves(Configuration(4, (0,)))
    assert moves == [Move(0, 0, 1), Move(0, 0, 2), Move(0, 0, 3)]


def test_legal_moves_buried_disk():
    moves = legal_moves(Configuration(3, (0, 0)))
    assert moves == [Move(0, 0, 1), Move(0, 0, 2)]


def test_legal_moves_ordering_and_count():
    # disk 0 on peg 1, disk 1 on peg 0: disk 0 goes anywhere, disk 1 only to peg 2
    moves = legal_moves(Configuration(3, (1, 0)))
    assert moves == [Move(0, 1, 0), Move(0, 1, 2), Move(1, 0, 2)]


def test_apply_move_changes_one_entry():
    c = Configuration(4, (0, 0, 2))
    out = apply_move(c, Move(0, 0, 1))
    assert out.pegs == (1, 0, 2)


def test_apply_move_rule_errors():
    c = Configuration(4, (0, 0, 1))
    with pytest.raises(IllegalMoveError) as err:
        apply_move(c, Move(1, 0, 3))  # buried under disk 0
    assert err.value.rule == "R2"
    with pytest.raises(IllegalMoveError) as err:
        apply_move(c, Move(2, 1, 0))  # peg 0 top is disk 0, smaller
    assert err.value.rule == "R3"
    with pytest.raises(IllegalMoveError) as err:
        apply_move(c, Move(2, 0, 3))  # disk 2 is not on peg 0
    assert err.value.rule == "R2"


def test_replay_matches_stepwise_application():
    rng = random.Random(17)
    for _ in range(30):
        path = random_walk(rng, rng.randint(3, 5), rng.randint(1, 6), rng.randint(0, 40))
        stepwise = path.start
        for m in path.moves:
            stepwise = apply_move(stepwise, m)
        assert path.replay() == stepwise


# ---------------------------------------------------------------------------
# distances


def test_distance_zero_for_equal():
    c = Configuration(4, (1, 2, 3))
    assert distance(c, c) == 0


def test_distance_classic_three_pegs():
    assert distance(Configuration.all_on(3, 3, 0), Configuration.all_on(3, 3, 2)) == 7


def test_distance_four_pegs_four_disks():
    assert distance(Configuration.all_on(4, 4, 0), Configuration.all_on(4, 4, 3)) == 9


def test_distance_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        distance(Configuration(3, (0,)), Configuration(4, (0,)))
    with pytest.raises(ValueError):
        distance(Configuration(3, (0,)), Configuration(3, (0, 0)))


def test_distance_symmetric_on_samples():
    rng = random.Random(23)
    for _ in range(20):
        p = rng.randint(3, 5)
        n = rng.randint(1, 5)
        u = random_config(rng, p, n)
        v = random_config(rng, p, n)
        assert distance(u, v) == distance(v, u)


def test_distance_agrees_with_pure_python_bfs():
    # independent oracle: dictionary BFS over explicitly applied moves
    from collections import deque

    def plain_bfs(u, v):
        seen = {u.pegs}
        queue = deque([(u, 0)])
        while queue:
            c, d = queue.popleft()
            if c.pegs == v.pegs:
                return d
            for m in legal_moves(c):
                nxt = apply_move(c, m)
                if nxt.pegs not in seen:
                    seen.add(nxt.pegs)
                    queue.append((nxt, d + 1))
        raise AssertionError("unreachable")

    rng = random.Random(29)
    for _ in range(15):
        p = rng.randint(3, 4)
        n = rng.randint(1, 4)
        u = random_config(rng, p, n)
        v = random_config(rng, p, n)
        assert distance(u, v) == plain_bfs(u, v)


def test_vectorized_neighbors_match_legal_moves():
    import numpy as np

    from hanoi_bounds.state_space import _edges, _powers

    rng = random.Random(31)
    for _ in range(40):
        p = rng.randint(3, 8)
        n = rng.randint(1, 6)
        c = random_config(rng, p, n)
        ranks = np.array([c.rank()], dtype=np.int64)
        _, nbrs, disks = _edges(ranks, p, n, _powers(p, n))
        via_moves = sorted(
            (apply_move(c, m).rank(), m.disk) for m in legal_moves(c)
        )
        assert sorted(zip(nbrs.tolist(), disks.tolist())) == via_moves


def test_distance_cap():
    u = Configuration.all_on(4, 8, 0)
    v = Configuration.all_on(4, 8, 3)
    with pytest.raises(CapExceededError):
        distance(u, v, cap=1000)


def test_state_cap_env(monkeypatch):
    monkeypatch.setenv("HANOI_STATE_CAP", "10")
    with pytest.raises(CapExceededError):
        exact_H(3, 3)
    monkeypatch.setenv("HANOI_STATE_CAP", "not-a-number")
    with pytest.raises(ValueError):
        exact_H(3, 3)


# ---------------------------------------------------------------------------
# exact transfer counts and essential-path lengths


@pytest.mark.parametrize("p, n, expected", [(3, 3, 7), (4, 4, 9), (4, 1, 1), (3, 0, 0)])
def test_exact_H_values(p, n, expected):
    assert exact_H(p, n) == expected


@pytest.mark.parametrize(
    "p, n, expected",
    [(3, 4, 5), (4, 4, 4), (3, 1, 1), (4, 1, 1), (5, 1, 1), (4, 0, 0)],
)
def test_exact_gamma_values(p, n, expected):
    assert exact_gamma(p, n) == expected


def test_exact_gamma_agrees_with_pure_python_product_bfs():
    # independent oracle: dictionary BFS over (configuration, moved-mask)
    # pairs, expanded with the pure-Python move rules
    from collections import deque
    from itertools import product

    def plain_gamma(p, n):
        if n == 0:
            return 0
        full = (1 << n) - 1
        queue = deque()
        seen = set()
        for pegs in product(range(p), repeat=n):
            queue.append((Configuration(p, pegs), 0, 0))
            seen.add((pegs, 0))
        while queue:
            c, mask, depth = queue.popleft()
            if mask == full:
                return depth
            for m in legal_moves(c):
                nxt = apply_move(c, m)
                key = (nxt.pegs, mask | (1 << m.disk))
                if key not in seen:
                    seen.add(key)
                    queue.append((nxt, key[1], depth + 1))
        raise AssertionError("unreachable")

    for p in (3, 4):
        for n in range(4):
            assert exact_gamma(p, n) == plain_gamma(p, n), (p, n)
    assert exact_gamma(3, 4) == plain_gamma(3, 4) == 5


def test_full_transfer_paths_are_geodesics_at_small_sizes():
    # frame_stewart_path length equals the searched distance for p <= 4,
    # where the transfer count is known to be exact
    from hanoi_bounds.frame_stewart import frame_stewart_path as build

    for q in (3, 4):
        for n in range(1, 7):
            path = build(n, tuple(range(q)), 0, q - 1)
            assert path.length == distance(path.start, path.replay())


def test_exact_gamma_cap():
    with pytest.raises(CapExceededError):
        exact_gamma(4, 6, cap=100)


def test_caps_above_two_to_the_62_are_clamped():
    # 8**22 states and 8**20 * 2**20 product states do not fit int64 ranks;
    # the refusal must come before any table is sized or allocated
    with pytest.raises(CapExceededError):
        exact_H(8, 22, cap=2**70)
    with pytest.raises(CapExceededError):
        exact_gamma(8, 20, cap=2**90)


def test_exact_gamma_monotone_in_disks():
    for p in (3, 4):
        values = [exact_gamma(p, n) for n in range(7)]
        assert values == sorted(values)
        assert all(v >= n for n, v in enumerate(values))


def test_recursive_halving_inequality_on_search_values():
    # gamma(p, n) >= 2 * min(gamma(p, n - l), gamma(p - 1, l))
    gamma = {}
    for p in (3, 4, 5):
        for n in range(7 if p < 5 else 5):
            gamma[p, n] = exact_gamma(p, n)
    for p in (4, 5):
        for n in range(2, 7 if p == 4 else 5):
            for split in range(1, n):
                bound = 2 * min(gamma[p, n - split], gamma[p - 1, split])
                assert gamma[p, n] >= bound


def test_half_plane_distance_lower_bound_sampled():
    # configurations confined to pegs {0,1} vs pegs {2,3} sit at distance
    # at least 1 + (phi4_closed(N+2) - 5) / 4
    rng = random.Random(37)
    for n in range(1, 7):
        floor = 1 + (phi4_closed(n + 2) - 5) // 4
        for _ in range(25):
            u = random_config(rng, 4, n, pegs=(0, 1))
            v = random_config(rng, 4, n, pegs=(2, 3))
            assert distance(u, v) >= floor


# ---------------------------------------------------------------------------
# paths: reversal, restriction, essentiality


def test_is_essential_examples():
    assert is_essential(MovePath(Configuration(4, ()), ()))
    single = MovePath(Configuration(4, (0,)), (Move(0, 0, 1),))
    assert is_essential(single)
    assert not is_essential(MovePath(Configuration(4, (0, 0)), (Move(0, 0, 1),)))
    transfer = frame_stewart_path(5, (0, 1, 2, 3), 0, 3)
    assert is_essential(transfer)


def test_path_reversal_legal_equal_length_same_essentiality():
    rng = random.Random(41)
    for _ in range(30):
        path = random_walk(rng, rng.randint(3, 5), rng.randint(1, 6), rng.randint(0, 30))
        back = path.reversed()
        assert back.length == path.length
        assert back.replay() == path.start
        assert is_essential(back) == is_essential(path)


def test_restriction_drops_largest_disk_and_preserves_essentiality():
    rng = random.Random(43)
    kept = 0
    while kept < 20:
        path = random_walk(rng, 4, rng.randint(2, 6), rng.randint(10, 60))
        if not is_essential(path):
            continue
        kept += 1
        n = path.start.n
        shorter = path.restrict(n - 1)
        assert shorter.length <= path.length
        shorter.replay()
        assert is_essential(shorter)


# ---------------------------------------------------------------------------
# the potential inequality


def test_bousch_inequality_trivial_cases():
    u = Configuration.all_on(4, 3, 0)
    v = Configuration.all_on(4, 3, 2)
    assert check_bousch_inequality(u, v, a=3)  # psi of the empty set is 0


def test_bousch_inequality_random_instances():
    from hanoi_bounds.verify import random_bousch_instance

    rng = random.Random(47)
    for _ in range(100):
        u, v, a = random_bousch_instance(rng, 6)
        assert check_bousch_inequality(u, v, a)


def test_bousch_inequality_preconditions():
    u5 = Configuration.all_on(5, 2, 0)
    with pytest.raises(PreconditionError):
        check_bousch_inequality(u5, u5, 0)
    u = Configuration.all_on(4, 2, 0)
    busy = Configuration(4, (1, 2))  # only one peg besides 0 and 3 is empty
    with pytest.raises(PreconditionError):
        check_bousch_inequality(u, Configuration(4, (0, 0)), a=0)
    assert check_bousch_inequality(u, busy, a=0)
    with pytest.raises(PreconditionError):
        check_bousch_inequality(u, Configuration(4, (1, 2)), a=1)
    # cap violations stay distinct from precondition violations
    with pytest.raises(CapExceededError):
        check_bousch_inequality(
            Configuration.all_on(4, 6, 0), Configuration.all_on(4, 6, 2), a=3, cap=10
        )


def test_bousch_inequality_binds_psi_to_distance():
    # all disks on peg a in u forces distance >= psi({0..n-1})
    for n in range(1, 6):
        u = Configuration.all_on(4, n, 0)
        v = Configuration.all_on(4, n, 2)
        assert distance(u, v) >= psi(range(n))
        assert check_bousch_inequality(u, v, a=0)
