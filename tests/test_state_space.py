import os
import random
import sys
from collections import deque
from itertools import combinations, permutations, product

import pytest

from hanoi_bounds import state_space
from hanoi_bounds.core import (
    Configuration,
    IllegalMoveError,
    Move,
    MovePath,
    apply_move,
    is_essential,
    legal_moves,
)
from hanoi_bounds.frame_stewart import frame_stewart_path, phi_closed
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


def plain_bfs(u, v):
    """Independent oracle: dictionary BFS over explicitly applied moves."""
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


def random_involution(rng, pegs):
    """A peg relabeling that swaps random disjoint pairs of ``pegs``."""
    pegs = rng.sample(list(pegs), len(pegs))
    sigma = {x: x for x in pegs}
    for k in range(0, 2 * rng.randint(0, len(pegs) // 2), 2):
        sigma[pegs[k]], sigma[pegs[k + 1]] = pegs[k + 1], pegs[k]
    return sigma


def canonical_rank(top_down, p, empty):
    """The rank of the canonical member of a configuration's class under
    relabelings of the sorted pegs ``empty``, the configuration given as its
    pegs from the largest disk down: each peg of ``empty`` is renamed, in
    order of first appearance, to the next of ``empty``."""
    names = {}
    rank = 0
    for peg in top_down:
        if peg in empty:
            if peg not in names:
                names[peg] = empty[len(names)]
            peg = names[peg]
        rank = rank * p + peg
    return rank


def test_distance_agrees_with_pure_python_bfs():
    from hanoi_bounds.state_space import _involution

    rng = random.Random(29)
    for _ in range(15):
        p = rng.randint(3, 4)
        n = rng.randint(1, 4)
        u = random_config(rng, p, n)
        v = random_config(rng, p, n)
        assert distance(u, v) == plain_bfs(u, v)

    # v = sigma(u) for a peg involution sigma takes the one-sided search,
    # an unrelated v the two-sided one
    rng = random.Random(59)
    two_sided = 0
    mirrored_parities = set()
    for _ in range(60):
        p = rng.randint(3, 5)
        n = rng.randint(0, 5)
        u = random_config(rng, p, n)
        pegs = rng.sample(range(p), p)
        sigma = list(range(p))
        for k in range(0, 2 * rng.randint(0, p // 2), 2):
            sigma[pegs[k]], sigma[pegs[k + 1]] = pegs[k + 1], pegs[k]
        mirrored = Configuration(p, tuple(sigma[x] for x in u.pegs))
        assert _involution(u.pegs, mirrored.pegs, p) is not None
        expected = plain_bfs(u, mirrored)
        assert distance(u, mirrored) == expected, (u, mirrored)
        if expected:  # 0 returns before any search
            mirrored_parities.add(expected % 2)
        v = random_config(rng, p, n)
        two_sided += _involution(u.pegs, v.pegs, p) is None
        assert distance(u, v) == plain_bfs(u, v), (u, v)
    assert two_sided > 20
    # the mirrored search stops on an odd level meeting or an even one
    assert mirrored_parities == {0, 1}


def test_class_tables_match_a_pure_python_canonicaliser():
    import numpy as np

    from hanoi_bounds.state_space import _canonical, _class_split, _class_tables

    # every rank, every set of at least two pegs that leaves a peg occupied
    for p in range(4, 8):
        for size in range(2, p):
            for empty in combinations(range(p), size):
                for n in range(6):
                    classes = _class_tables(list(empty), p, n)
                    got = _canonical(np.arange(p**n, dtype=np.int64), classes).tolist()
                    want = [canonical_rank(c, p, empty) for c in product(range(p), repeat=n)]
                    assert got == want, (p, empty, n)
    # exact_H(8, 8): the split with the fewest entries takes 6 high disks,
    # where the move tables' n // 2 split with all 1957 appearance states
    # would take 2 * 8**4 + 1957 * 8**4 entries
    entries = 2 * 8**6 + 1957 * 8**2
    assert _class_split(6, 8, 8) == (entries, 6, 1957)
    assert entries < 1959 * 8**4
    empty = list(range(1, 7))
    split, *tables = _class_tables(empty, 8, 8)
    assert split == 8**2
    assert sum(table.size for table in tables) == entries
    rng = random.Random(73)
    ranks = [rng.randrange(8**8) for _ in range(2000)]
    got = _canonical(np.array(ranks, dtype=np.int64), (split, *tables)).tolist()
    digits = [Configuration.from_rank(8, 8, r).pegs[::-1] for r in ranks]
    assert got == [canonical_rank(c, 8, empty) for c in digits]


def python_class_tables(empty, p, n):
    """``_class_tables`` built with a Python loop over the appearance
    states, one ``read`` per state and peg: the reference for the
    vectorized builder.  States are numbered shortest first, so building
    those of at most min(n, |empty|) pegs numbers them as building every
    one would."""
    import numpy as np

    from hanoi_bounds.state_space import _class_split

    states = [seq for k in range(min(n, len(empty)) + 1) for seq in permutations(empty, k)]
    index = {seq: i for i, seq in enumerate(states)}

    def read(seq, peg):  # (next state, canonical peg)
        if peg not in empty:
            return index[seq], peg
        if peg in seq:
            return index[seq], empty[seq.index(peg)]
        return index.get(seq + (peg,), 0), empty[len(seq)]  # the longest read no further disk

    moves = np.array([[read(seq, peg) for peg in range(p)] for seq in states], dtype=np.int64)
    nexts, digits = moves[..., 0], moves[..., 1]
    _, high, reach = _class_split(len(empty), p, n)

    def fold(state, disks):
        canon = np.zeros(state.size, dtype=np.int64)
        for _ in range(disks):
            canon = (canon[:, None] * p + digits[state]).ravel()
            state = nexts[state].ravel()
        return canon, state

    split = p ** (n - high)
    high_canon, high_state = fold(np.zeros(1, dtype=np.int64), high)
    low_canon, _ = fold(np.arange(reach, dtype=np.int64), n - high)
    return split, high_canon * split, high_state * split, low_canon


def test_vectorized_class_tables_equal_the_python_builder():
    # byte for byte, so distance's canonical ranks cannot move: every set
    # of at least two pegs, all of them included (exact_gamma's tables)
    import numpy as np

    from hanoi_bounds.state_space import _class_tables

    for p in range(3, 9):
        for n in range(7 if p < 7 else 5):
            for size in range(2, p + 1):
                for empty in combinations(range(p), size):
                    split, *tables = _class_tables(list(empty), p, n)
                    want_split, *want = python_class_tables(list(empty), p, n)
                    assert split == want_split, (p, n, empty)
                    for got, expected in zip(tables, want):
                        assert got.dtype == expected.dtype == np.int64, (p, n, empty)
                        assert np.array_equal(got, expected), (p, n, empty)


def test_class_search_agrees_with_pure_python_bfs(monkeypatch):
    # endpoints with at least two pegs empty at both ends search one
    # configuration per class, mirrored or two-sided
    from hanoi_bounds.state_space import _involution

    built = []
    class_tables = state_space._class_tables
    monkeypatch.setattr(
        state_space, "_class_tables", lambda *args: built.append(args) or class_tables(*args)
    )
    rng = random.Random(79)
    two_sided = 0
    mirrored_parities = set()
    for _ in range(60):
        p = rng.randint(4, 6)
        n = rng.randint(1, 5)
        empty = rng.sample(range(p), rng.randint(2, p - 1))
        pool = [x for x in range(p) if x not in empty]
        u = random_config(rng, p, n, pegs=pool)
        sigma = random_involution(rng, pool)
        mirrored = Configuration(p, tuple(sigma[x] for x in u.pegs))
        assert _involution(u.pegs, mirrored.pegs, p) is not None
        expected = plain_bfs(u, mirrored)
        built.clear()
        assert distance(u, mirrored) == expected, (u, mirrored)
        if expected:
            assert len(built) == 1, (u, mirrored)
            mirrored_parities.add(expected % 2)
        v = random_config(rng, p, n, pegs=pool)
        expected = plain_bfs(u, v)
        built.clear()
        assert distance(u, v) == expected, (u, v)
        if _involution(u.pegs, v.pegs, p) is None:
            two_sided += 1
            assert len(built) == 1, (u, v)
    assert two_sided > 20
    assert mirrored_parities == {0, 1}


def half_table_moves(ranks, p, n):
    """Each pair's steps for ``ranks``, read from the half step tables as
    the searches read them: the low half's entry where it is nonzero, the
    high half's elsewhere."""
    import numpy as np

    from hanoi_bounds.state_space import _move_tables

    low_steps, high_steps = _move_tables(p, 0, n // 2), _move_tables(p, n // 2, n)
    high, low = np.divmod(ranks, p ** (n // 2))
    return np.where(low_steps[:, low] != 0, low_steps[:, low], high_steps[:, high])


def step_disk(step, p):
    """The disk a nonzero step moves: the largest d with p**d <= |step|."""
    return max(d for d in range(abs(step).bit_length()) if p**d <= abs(step))


def test_move_tables_match_legal_moves():
    # n = 0 and 1 leave the low half empty, odd n give the high half the
    # extra disk, and p = 8 at n = 12 puts 28 pairs over 8**6 high ranks,
    # with steps up to 7 * 8**11; every sampled rank's moves, and the disk
    # read off each step, must be the pure-Python rule's
    import numpy as np

    rng = random.Random(61)
    for p in range(3, 9):
        for n in range(13):
            ranks = np.array([rng.randrange(p**n) for _ in range(50)], dtype=np.int64)
            steps = half_table_moves(ranks, p, n)
            assert steps.shape == (p * (p - 1) // 2, ranks.size)
            assert steps.dtype == np.int64
            for column, rank in enumerate(ranks.tolist()):
                c = Configuration.from_rank(p, n, rank)
                emitted = sorted(
                    (rank + int(step), step_disk(int(step), p)) for step in steps[:, column] if step
                )
                assert emitted == sorted(
                    (apply_move(c, m).rank(), m.disk) for m in legal_moves(c)
                ), (p, n, rank)


def test_tables_over_a_block_join_its_sub_blocks():
    # the fold is associative: any split of a block into smaller and larger
    # disks joins back into the block's table, for moves and relabelings
    import numpy as np

    from hanoi_bounds.state_space import _join, _mirror_tables, _move_tables

    rng = random.Random(71)
    for p in range(3, 7):
        for n in range(6):
            moves = _move_tables(p, 0, n)
            sigma = list(range(p))
            pegs = rng.sample(range(p), 2)
            sigma[pegs[0]], sigma[pegs[1]] = pegs[1], pegs[0]
            mirror = _mirror_tables(sigma, p, 0, n)
            assert mirror.shape == (p**n,)
            assert mirror.tolist() == [
                Configuration(p, tuple(sigma[x] for x in c.pegs)).rank()
                for c in (Configuration.from_rank(p, n, r) for r in range(p**n))
            ]
            for k in range(n + 1):
                joined = _join(_move_tables(p, 0, k), _move_tables(p, k, n))
                assert joined.dtype == moves.dtype and np.array_equal(joined, moves), (p, n, k)
                low, high = _mirror_tables(sigma, p, 0, k), _mirror_tables(sigma, p, k, n)
                assert np.array_equal(np.add.outer(high, low).ravel(), mirror), (p, n, k)


def test_vectorized_neighbors_match_legal_moves():
    import numpy as np

    rng = random.Random(31)
    for _ in range(40):
        p = rng.randint(3, 8)
        n = rng.randint(1, 6)
        c = random_config(rng, p, n)
        steps = half_table_moves(np.array([c.rank()], dtype=np.int64), p, n)[:, 0].tolist()
        assert len(steps) == p * (p - 1) // 2
        # a pair moves nothing exactly when both its pegs are empty
        assert [step == 0 for step in steps] == [
            not (c.disks_on(x) or c.disks_on(y)) for x, y in combinations(range(p), 2)
        ]
        emitted = sorted((c.rank() + step, step_disk(step, p)) for step in steps if step)
        via_moves = sorted(
            (apply_move(c, m).rank(), m.disk) for m in legal_moves(c)
        )
        assert emitted == via_moves


def test_pair_moves_undo_themselves():
    import numpy as np

    rng = random.Random(37)
    for p in range(3, 9):
        for n in range(1, 7):
            ranks = np.array([rng.randrange(p**n) for _ in range(60)], dtype=np.int64)
            steps = half_table_moves(ranks, p, n)
            for k in range(len(steps)):
                nbrs = ranks + steps[k]
                back_steps = half_table_moves(nbrs, p, n)
                assert np.array_equal(nbrs + back_steps[k], ranks), (p, n, k)


def class_graph(p, n):
    """exact_gamma's canonical starts, class graph and key shift s."""
    from hanoi_bounds.state_space import (
        _canonical_starts,
        _class_graph,
        _class_tables,
        _move_tables,
    )

    starts = _canonical_starts(p, n)
    halves = _move_tables(p, 0, n // 2), _move_tables(p, n // 2, n)
    shift = (starts.size - 1).bit_length()
    return starts, _class_graph(p, n, starts, *halves, _class_tables(list(range(p)), p, n), shift), shift


def class_index(p, starts):
    """The position in ``starts`` of a configuration's class."""
    index = {rank: i for i, rank in enumerate(starts.tolist())}
    return lambda c: index[canonical_rank(c.pegs[::-1], p, list(range(p)))]


def test_adjacency_rows_match_legal_moves():
    # exact_gamma's class graph: row k of class i is peg pair k's move from
    # the class's canonical configuration, bit << s | j for its target's
    # class j and the moved disk's bit, or the class itself and 0 where the
    # pair moves nothing
    import numpy as np

    cases = [(p, n) for p in range(3, 7) for n in range(6)] + [(8, n) for n in range(4)]
    for p, n in cases:
        starts, edges, s = class_graph(p, n)
        pairs = list(combinations(range(p), 2))
        assert edges.shape == (len(pairs), starts.size)
        assert edges.dtype == np.int64
        assert 2**s >= starts.size and (s == 0 or 2 ** (s - 1) < starts.size)
        nbrs, bits = edges & (2**s - 1), edges >> s
        index = class_index(p, starts)
        for i, rank in enumerate(starts.tolist()):
            c = Configuration.from_rank(p, n, rank)
            moves = {frozenset((m.src, m.dst)): m for m in legal_moves(c)}
            for k, pair in enumerate(pairs):
                m = moves.get(frozenset(pair))
                want = (i, 0) if m is None else (index(apply_move(c, m)), 1 << m.disk)
                assert (nbrs[k, i], bits[k, i]) == want, (p, n, rank, pair)


def test_one_level_emits_every_unseen_neighbour_once():
    # repeats only cost time, so the differential tests cannot see them:
    # distance's level step must emit each unseen successor exactly once,
    # and both class steps each unseen class exactly once, sorted
    import numpy as np

    from hanoi_bounds.state_space import _class_tables, _expand, _expand_classes, _move_tables

    rng = random.Random(67)
    for _ in range(60):
        p = rng.randint(3, 5)
        n = rng.randint(1, 4)
        size = p**n
        # distance: frontier states are seen, as in a sweep
        frontier = rng.sample(range(size), rng.randint(1, size))
        seen = set(frontier) | set(rng.sample(range(size), rng.randint(0, size)))
        table = np.zeros(size, dtype=bool)
        table[sorted(seen)] = True
        low, high = _move_tables(p, 0, n // 2), _move_tables(p, n // 2, n)
        ranks = np.array(frontier, dtype=np.int64)
        fresh = _expand(ranks, np.divmod(ranks, p ** (n // 2)), table, low, high)
        expected = set()
        for r in frontier:
            c = Configuration.from_rank(p, n, r)
            expected |= {apply_move(c, m).rank() for m in legal_moves(c)}
        expected -= seen
        assert len(fresh) == len(set(fresh.tolist())), (p, n)
        assert set(fresh.tolist()) == expected, (p, n)
        assert set(np.flatnonzero(table).tolist()) == seen | expected
        # distance over classes: the frontier and the seen states are
        # canonical, and the step emits canonical ranks, sorted
        if p >= 4:
            empty = sorted(rng.sample(range(p), rng.randint(2, p - 1)))

            def canonical(rank):
                return canonical_rank(Configuration.from_rank(p, n, rank).pegs[::-1], p, empty)

            classes = sorted({canonical(r) for r in range(size)})
            frontier = rng.sample(classes, rng.randint(1, len(classes)))
            seen = set(frontier) | set(rng.sample(classes, rng.randint(0, len(classes))))
            table = np.zeros(size, dtype=bool)
            table[sorted(seen)] = True
            ranks = np.array(frontier, dtype=np.int64)
            fresh = _expand(
                ranks, np.divmod(ranks, p ** (n // 2)), table, low, high, _class_tables(empty, p, n)
            )
            expected = set()
            for r in frontier:
                c = Configuration.from_rank(p, n, r)
                expected |= {canonical(apply_move(c, m).rank()) for m in legal_moves(c)}
            expected -= seen
            assert fresh.tolist() == sorted(expected), (p, n, empty)
            assert set(np.flatnonzero(table).tolist()) == seen | expected
        # exact_gamma: random (mask, class) frontiers and seen sets; keys are
        # mask << s | the class's position among the canonical starts
        starts, edges, s = class_graph(p, n)
        keys = [mask << s | i for mask in range(1 << n) for i in range(starts.size)]
        frontier = rng.sample(keys, rng.randint(1, len(keys)))
        seen = set(frontier) | set(rng.sample(keys, rng.randint(0, len(keys))))
        table = np.zeros(1 << (n + s), dtype=bool)
        table[sorted(seen)] = True
        fresh = _expand_classes(np.array(frontier, dtype=np.int64), table, edges, s)
        index = class_index(p, starts)
        expected = set()
        for key in frontier:
            mask, i = key >> s, key & (2**s - 1)
            c = Configuration.from_rank(p, n, int(starts[i]))
            for m in legal_moves(c):
                expected.add((mask | 1 << m.disk) << s | index(apply_move(c, m)))
        expected -= seen
        assert fresh.tolist() == sorted(expected), (p, n)
        assert set(np.flatnonzero(table).tolist()) == seen | expected


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


def test_exact_H_matches_phi_closed():
    # 2**n - 1 at 3 pegs; Bousch's theorem at 4; from 5 pegs the Frame-Stewart
    # value, which exhaustive searches match at these sizes.  The grid puts a
    # 4-disk high half and up to 28 peg pairs under a closed-form check.
    for p, top in ((3, 12), (4, 10), (5, 8), (6, 7), (7, 6), (8, 6)):
        for n in range(top + 1):
            assert exact_H(p, n) == phi_closed(p, n), (p, n)


@pytest.mark.parametrize(
    "p, n, expected",
    [(3, 4, 5), (4, 4, 4), (3, 1, 1), (4, 1, 1), (5, 1, 1), (4, 0, 0), (4, 9, 12)],
)
def test_exact_gamma_values(p, n, expected):
    assert exact_gamma(p, n) == expected


def test_canonical_starts_are_one_configuration_per_relabeling_class():
    # independent of the vectorized builder: relabel every configuration's
    # pegs by first appearance from the largest disk, in pure Python
    from itertools import product

    from hanoi_bounds.state_space import _canonical_starts

    def canonical(c):
        labels = {}
        pegs = [labels.setdefault(peg, len(labels)) for peg in reversed(c.pegs)]
        return Configuration(c.p, tuple(reversed(pegs))).rank()

    stirling = [[1]]  # stirling[n][k] = S(n, k), set partitions of n into k blocks
    for n in range(1, 7):
        prev = stirling[-1] + [0]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    for p in range(3, 7):
        for n in range(7):
            starts = _canonical_starts(p, n).tolist()
            classes = {canonical(Configuration(p, pegs)) for pegs in product(range(p), repeat=n)}
            assert starts == sorted(classes), (p, n)  # each class once, in rank order
            assert len(starts) == sum(stirling[n][: p + 1]), (p, n)


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

    cases = [(3, n) for n in range(7)] + [(4, n) for n in range(6)] + [(5, n) for n in range(4)]
    cases += [(6, n) for n in range(4)] + [(7, n) for n in range(4)]
    for p, n in cases:
        assert exact_gamma(p, n) == plain_gamma(p, n), (p, n)
    assert plain_gamma(3, 4) == 5


def test_class_search_levels_match_a_pure_python_bfs(monkeypatch):
    # the level sizes, not just the answer: a dictionary BFS over (mask,
    # canonical configuration) pairs from every configuration at mask 0,
    # each neighbour replaced by its class's canonical member
    sizes = []
    expand = state_space._expand_classes

    def recording(*args):
        level = expand(*args)
        sizes.append(level.size)
        return level

    monkeypatch.setattr(state_space, "_expand_classes", recording)

    def python_levels(p, n):
        def canonical(pegs):
            return canonical_rank(pegs[::-1], p, list(range(p)))

        full = (1 << n) - 1
        level = {(0, canonical(pegs)) for pegs in product(range(p), repeat=n)}
        seen, levels = set(level), [len(level)]
        while all(mask != full for mask, _ in level):
            fresh = set()
            for mask, rank in level:
                c = Configuration.from_rank(p, n, rank)
                for m in legal_moves(c):
                    key = (mask | 1 << m.disk, canonical(apply_move(c, m).pegs))
                    if key not in seen:
                        seen.add(key)
                        fresh.add(key)
            level = fresh
            levels.append(len(level))
        return levels

    cases = [(3, n) for n in range(1, 8)] + [(4, n) for n in range(1, 7)]
    cases += [(5, n) for n in range(1, 6)] + [(6, n) for n in range(1, 5)]
    for p, n in cases:
        sizes.clear()
        depth = exact_gamma(p, n)
        levels = python_levels(p, n)
        assert [state_space._class_count(p, n)] + sizes == levels, (p, n)
        assert depth == len(levels) - 1, (p, n)


@pytest.mark.parametrize("n", range(2, 11))
def test_exact_gamma_three_pegs_closed_form(n):
    # Gamma(3, n) = 2**(n-2) + 1; n = 10 is 257 levels, past any uint8 counter
    assert exact_gamma(3, n) == 2 ** (n - 2) + 1


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


def test_exact_gamma_five_pegs_nine_disks_under_the_default_cap(monkeypatch):
    # 18,002 classes times 2**9 masks, where the product search needed
    # 5**9 * 2**9 states, past the default cap of 2**28
    monkeypatch.delenv("HANOI_PRODUCT_CAP", raising=False)
    assert state_space._class_count(5, 9) << 9 <= state_space.DEFAULT_PRODUCT_CAP < 5**9 << 9
    assert exact_gamma(5, 9) == 9


def test_caps_above_two_to_the_62_are_clamped():
    # 8**22 states do not fit int64 ranks, and the (mask, class) states of
    # (8, 20) number about 2**64.8; the refusal must come before any table
    # is sized or allocated
    with pytest.raises(CapExceededError):
        exact_H(8, 22, cap=2**70)
    with pytest.raises(CapExceededError):
        exact_gamma(8, 20, cap=2**90)


def test_environment_caps_above_two_to_the_62_are_clamped(monkeypatch):
    # as a per-call cap is: the largest int64 allows a small search, and
    # 2**70 still refuses one whose ranks do not fit int64
    monkeypatch.setenv("HANOI_PRODUCT_CAP", str(2**63 - 1))
    assert exact_gamma(3, 3) == 3
    monkeypatch.setenv("HANOI_STATE_CAP", str(2**70))
    with pytest.raises(CapExceededError):
        exact_H(8, 22)


def test_gamma_keys_fit_int64_under_every_cap():
    # exact_gamma keys mask << s | i with s = (K - 1).bit_length(): every
    # search a cap of 2**62 allows has keys below 2**(n + s) <= 2**62
    for p in range(3, 9):
        for n in range(31):
            count = state_space._class_count(p, n)
            if count << n <= 2**62:
                assert n + (count - 1).bit_length() <= 62, (p, n)


@pytest.mark.parametrize("p", range(3, 9))
def test_exact_gamma_with_one_or_two_classes(p):
    # K = 1 (s = 0, keys are bare masks) at n <= 1 and K = 2 (s = 1) at
    # n = 2: moving each disk once is a shortest essential path
    for n in range(3):
        assert state_space._class_count(p, n) == max(1, n)
        assert exact_gamma(p, n) == n


def test_caps_below_one_are_usage_errors(monkeypatch):
    # as HANOI_STATE_CAP=0 is; before any search, not a cap exceeded
    u, v = Configuration.all_on(3, 2, 0), Configuration(3, (1, 2))
    for cap in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            distance(u, v, cap=cap)
        with pytest.raises(ValueError, match="at least 1"):
            exact_gamma(3, 2, cap=cap)
    monkeypatch.setenv("HANOI_STATE_CAP", "0")
    with pytest.raises(ValueError, match="HANOI_STATE_CAP"):
        exact_H(3, 2)


def test_tables_larger_than_physical_memory_are_refused():
    # a (mask, class) seen table of 2**60 bytes (K = 795,019,337,135 classes,
    # so s = 40, times 2**20 masks) and a distance seen table of 8**20 =
    # 2**60 bytes, both legal under the 2**62 cap and larger than any
    # host's memory: refused from the byte count before anything is
    # allocated
    with pytest.raises(CapExceededError, match="physical memory"):
        exact_gamma(5, 20, cap=2**62)
    with pytest.raises(CapExceededError, match="physical memory"):
        distance(Configuration.all_on(8, 20, 0), Configuration.all_on(8, 20, 7), cap=2**62)


@pytest.fixture
def fresh_memory_limit():
    # the limit is read once per process: a test that patches its reader
    # reads it anew, and leaves no patched value behind
    state_space._memory_limit.cache_clear()
    yield
    state_space._memory_limit.cache_clear()


def test_memory_check_counts_the_tables_searched_and_the_cgroup_limit(monkeypatch, fresh_memory_limit):
    # one bool table of 4**8 states fits under the limit, two do not: the
    # mirrored endpoints of exact_H search one table, an unrelated pair two
    monkeypatch.setattr(state_space, "_cgroup_limit", lambda: 2 * 4**8)
    assert exact_H(4, 8) == 33
    with pytest.raises(CapExceededError, match="cgroup memory limit"):
        distance(Configuration.all_on(4, 8, 0), Configuration(4, (1,) + (2,) * 7))
    monkeypatch.setattr(state_space, "_cgroup_limit", lambda: 4**8)
    state_space._memory_limit.cache_clear()
    with pytest.raises(CapExceededError, match="cgroup memory limit"):
        exact_H(4, 8)


def test_memory_limit_is_read_once_per_process(monkeypatch, fresh_memory_limit):
    reads = []
    monkeypatch.setattr(state_space, "_cgroup_limit", lambda: reads.append(1) or 1 << 40)
    for n in range(1, 5):
        exact_H(4, n)
        exact_gamma(4, n)
    assert len(reads) == 1


def test_memory_check_counts_every_table_a_search_builds(monkeypatch):
    # the bytes _check_memory weighs must be the tables the search then
    # builds: half move tables, mirror tables, class tables, canonical
    # starts, the class graph, seen tables;
    # a builder's own folds are its temporaries, so only the tables an
    # outermost builder call returns count
    import numpy as np

    counted, built = [], []
    monkeypatch.setattr(state_space, "_check_memory", lambda nbytes, what: counted.append(nbytes))

    def collect(value):
        if isinstance(value, np.ndarray):
            built.append(value)
        elif isinstance(value, tuple):
            for item in value:
                collect(item)

    depth = [0]

    def recording(builder):
        def wrapped(*args):
            depth[0] += 1
            try:
                tables = builder(*args)
            finally:
                depth[0] -= 1
            if not depth[0]:
                collect(tables)
            return tables

        return wrapped

    for name in (
        "_move_tables", "_mirror_tables", "_class_tables", "_canonical_starts", "_class_graph", "_seen_table"
    ):
        monkeypatch.setattr(state_space, name, recording(getattr(state_space, name)))
    # (search, tables built): distance builds two half step tables, with
    # one seen table and two mirror tables for exact_H's mirrored endpoints
    # and two seen tables for an unrelated pair, and three class tables
    # where at least two pegs are empty at both ends (not at one); exact_gamma
    # builds two half step tables, three class tables
    # over every peg, the canonical starts, the one table of the class graph
    # and one seen table of 2**(n + s) entries
    searches = (
        (lambda: exact_H(5, 7), 8),
        (lambda: distance(Configuration.all_on(4, 7, 0), Configuration(4, (1,) + (2,) * 6)), 4),
        (lambda: distance(Configuration.all_on(5, 7, 0), Configuration(5, (1,) + (0,) * 6)), 7),
        (lambda: exact_gamma(4, 5), 8),
        (lambda: exact_gamma(6, 3), 8),
    )
    for search, tables in searches:
        counted.clear()
        built.clear()
        search()
        assert len(built) == tables
        assert counted == [sum(table.nbytes for table in built)]


def test_cgroup_limit_reader(monkeypatch, tmp_path):
    # the root limit files, read where /proc/self/cgroup cannot be
    monkeypatch.setattr(state_space, "_PROC_CGROUP", str(tmp_path / "missing"))
    monkeypatch.setattr(state_space, "_CGROUP_ROOT", str(tmp_path))
    v2, v1 = tmp_path / "memory.max", tmp_path / "memory" / "memory.limit_in_bytes"
    assert state_space._cgroup_limit() is None  # neither file exists
    v1.parent.mkdir()
    v1.write_text("12345\n")
    assert state_space._cgroup_limit() == 12345
    v2.write_text("max\n")
    assert state_space._cgroup_limit() == 12345
    v2.write_text("67890\n")
    assert state_space._cgroup_limit() == 12345
    v1.write_text("not a number\n")
    assert state_space._cgroup_limit() == 67890


def test_cgroup_limit_is_the_lowest_from_the_process_cgroup_up(monkeypatch, tmp_path):
    # /proc/self/cgroup names the v2 cgroup on its 0:: line and the v1
    # memory cgroup on the line whose controllers include memory; the
    # limit is the lowest of that cgroup and its ancestors up to the root
    proc = tmp_path / "cgroup"
    root = tmp_path / "fs"
    monkeypatch.setattr(state_space, "_PROC_CGROUP", str(proc))
    monkeypatch.setattr(state_space, "_CGROUP_ROOT", str(root))
    proc.write_text("5:cpu,cpuacct:/other\n4:memory:/jobs/job7\n0::/user/session3\n")
    v2 = root / "user" / "session3"
    v1 = root / "memory" / "jobs" / "job7"
    v2.mkdir(parents=True)
    v1.mkdir(parents=True)
    (root / "memory" / "memory.limit_in_bytes").write_text("9223372036854771712\n")
    assert state_space._cgroup_limit() == 9223372036854771712  # only the root's
    (v1 / "memory.limit_in_bytes").write_text("5000\n")
    assert state_space._cgroup_limit() == 5000  # the process's own v1 cgroup
    (root / "memory" / "jobs" / "memory.limit_in_bytes").write_text("3000\n")
    assert state_space._cgroup_limit() == 3000  # a lower limit on an ancestor
    (v2 / "memory.max").write_text("max\n")
    (root / "user" / "memory.max").write_text("2000\n")
    assert state_space._cgroup_limit() == 2000  # v2's ancestor, lowest of all
    proc.write_text("0::/user/session3\n")  # a v2-only host
    assert state_space._cgroup_limit() == 2000
    (root / "user" / "memory.max").write_text("max\n")
    assert state_space._cgroup_limit() == 9223372036854771712  # the v1 root file still
    (root / "memory" / "memory.limit_in_bytes").unlink()
    assert state_space._cgroup_limit() is None


def test_seen_table_is_zeroed_writable_and_sized():
    import numpy as np

    threshold = state_space._HUGE_PAGE_BYTES
    for size in (1, 1000, threshold - 1, threshold, threshold + 1, 3 * threshold + 5):
        table = state_space._seen_table(size)
        assert table.dtype == np.bool_
        assert table.shape == (size,)
        assert table.flags.writeable
        assert not table.any()
        table[[0, size - 1]] = True
        assert table.sum() == min(size, 2)


def test_seen_table_without_huge_page_advice(monkeypatch):
    # a kernel built without transparent huge pages refuses MADV_NOHUGEPAGE
    # with EINVAL; the table is made all the same
    import mmap

    refused = []

    class Refusing(mmap.mmap):
        def madvise(self, *args):
            refused.append(args)
            raise OSError(22, "Invalid argument")

    monkeypatch.setattr(mmap, "mmap", Refusing)
    monkeypatch.setattr(mmap, "MADV_NOHUGEPAGE", 15, raising=False)
    table = state_space._seen_table(state_space._HUGE_PAGE_BYTES)
    assert refused == [(15,)]
    assert table.size == state_space._HUGE_PAGE_BYTES and not table.any()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_large_seen_tables_hold_only_the_pages_a_sweep_marks():
    # one entry per 2 MiB of a 64 MiB table: numpy's huge-page advice would
    # make all 64 MiB resident, 4 KiB pages make 32 of them; reading every
    # entry back maps the other pages to the zero page, where a shared map
    # would make them resident
    page = os.sysconf("SC_PAGE_SIZE")

    def resident():
        with open("/proc/self/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * page

    table = state_space._seen_table(1 << 26)
    before = resident()
    table[:: 1 << 21] = True
    assert table.sum() == 32
    assert resident() - before < 1 << 20


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
    # at least 1 + (phi_closed(4, N+2) - 5) / 4
    rng = random.Random(37)
    for n in range(1, 7):
        floor = 1 + (phi_closed(4, n + 2) - 5) // 4
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


def test_package_resolves_every_public_name():
    # the search names come from state_space on first use (PEP 562), and
    # CapExceededError, defined in core, is the class state_space raises
    import hanoi_bounds as hb
    from hanoi_bounds import core

    for name in hb.__all__:
        assert getattr(hb, name) is not None, name
    for name in ("PreconditionError", "check_bousch_inequality", "distance", "exact_H", "exact_gamma"):
        assert getattr(hb, name) is getattr(state_space, name)
    assert hb.CapExceededError is state_space.CapExceededError is core.CapExceededError
    with pytest.raises(AttributeError):
        getattr(hb, "no_such_name")
