"""Verification suites: the paper's exit criteria as named lists of cases.

``SUITES`` maps each suite name to a function of (max_disks, cache) that
returns the suite's cases in a fixed order.  ``max_disks`` replaces the
suite's default disk grid (bounds-sandwich clamps its grid to it instead);
None keeps the default.  The CLI's ``verify`` command and the acceptance
tests both run these functions, so the criteria are written once.

The library is called through module attributes (``state_space.exact_gamma``,
never a function imported by name): the benchmark's tracer
(``perfbench/tracing.py``) rebinds names only in the modules it lists, and
this way it still sees every call made from here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Literal

from . import bounds, constructions, core, frame_stewart, numerics, potential, state_space
from .cache import ResultCache
from .core import Configuration
from .state_space import CapExceededError

__all__ = ["SUITES", "Case", "cached", "random_bousch_instance", "random_removal_instance"]

_SEED = 20260811


@dataclass(frozen=True)
class Case:
    """One checked claim of a suite, with a human-readable detail."""

    name: str
    status: Literal["PASS", "FAIL", "FINDING", "SKIP"]
    detail: str

    def to_json_dict(self) -> dict:
        return {"case": self.name, "status": self.status, "detail": self.detail}


def _case(name: str, ok: bool, detail: str) -> Case:
    return Case(name, "PASS" if ok else "FAIL", detail)


def cached(
    kind: str, search: Callable[[int, int], int], p: int, n: int, cache: ResultCache
) -> int:
    """``search(p, n)``, memoized in ``cache`` under ``kind``."""
    value = cache.get(kind, p, n)
    if value is None:
        value = search(p, n)
        cache.put(kind, p, n, value)
    return value


def _gamma(p: int, n: int, cache: ResultCache) -> int:
    return cached("gamma", state_space.exact_gamma, p, n, cache)


def _H(p: int, n: int, cache: ResultCache) -> int:
    return cached("H", state_space.exact_H, p, n, cache)


def _suite_phi(max_disks: int | None, cache: ResultCache) -> list[Case]:
    del cache  # no searches
    rec_limit = max_disks if max_disks is not None else 300
    closed_limit = max_disks if max_disks is not None else 2000
    routes = (frame_stewart.phi_recursive, frame_stewart.phi_spectrum, frame_stewart.phi_closed)
    cases = []
    for p in range(3, 11):
        bad = [n for n in range(rec_limit + 1) if len({route(p, n) for route in routes}) != 1]
        cases.append(
            _case(
                f"phi recursive=spectrum=closed p={p} N<={rec_limit}",
                not bad,
                f"first mismatch at N={bad[0]}" if bad else "",
            )
        )
    bad = [
        n
        for n in range(closed_limit + 1)
        if frame_stewart.phi_spectrum(4, n) != frame_stewart.phi_closed(4, n)
    ]
    cases.append(
        _case(
            f"phi spectrum=closed p=4 N<={closed_limit}",
            not bad,
            f"first mismatch at N={bad[0]}" if bad else "",
        )
    )
    return cases


def _formula_vs_search(
    p: int, n_max: int, formula: Callable[[int], int], cache: ResultCache
) -> list[Case]:
    cases = []
    for n in range(n_max + 1):
        name = f"gamma({p},{n})"
        try:
            measured = _gamma(p, n, cache)
        except CapExceededError as exc:
            cases.append(Case(name, "SKIP", str(exc)))
            continue
        wanted = formula(n)
        cases.append(_case(name, measured == wanted, f"search={measured} formula={wanted}"))
    return cases


def _suite_szegedy(max_disks: int | None, cache: ResultCache) -> list[Case]:
    limit = max_disks if max_disks is not None else 9
    return _formula_vs_search(3, limit, bounds.gamma3_formula, cache)


def _suite_main1(max_disks: int | None, cache: ResultCache) -> list[Case]:
    limit = max_disks if max_disks is not None else 7
    cases = _formula_vs_search(4, limit, bounds.gamma4_formula, cache)
    for n in range(3, limit + 1):
        path = constructions.main1_essential_path(n)
        ok = path.length == bounds.gamma4_formula(n) and core.is_essential(path)
        cases.append(_case(f"construction({n})", ok, f"length={path.length}"))
    return cases


def _suite_bousch_h4(max_disks: int | None, cache: ResultCache) -> list[Case]:
    limit = max_disks if max_disks is not None else 10
    cases = []
    for n in range(1, limit + 1):
        name = f"H(4,{n})"
        try:
            measured = _H(4, n, cache)
        except CapExceededError as exc:
            cases.append(Case(name, "SKIP", str(exc)))
            continue
        wanted = frame_stewart.phi_closed(4, n)
        cases.append(_case(name, measured == wanted, f"search={measured} formula={wanted}"))
    return cases


def _suite_conjecture5(max_disks: int | None, cache: ResultCache) -> list[Case]:
    limit = max_disks if max_disks is not None else 5
    cases = []
    for n in range(limit + 1):
        base = f"gamma(5,{n})"
        try:
            measured = _gamma(5, n, cache)
        except CapExceededError as exc:
            cases.append(Case(base, "SKIP", str(exc)))
            continue
        conjectured = bounds.gamma_conjecture(5, n)
        if measured == conjectured:
            cases.append(_case(f"{base} vs conjecture", True, f"both {measured}"))
        else:
            cases.append(
                Case(
                    f"{base} vs conjecture",
                    "FINDING",
                    f"search={measured} conjectured={conjectured}",
                )
            )
        cases.append(_case(f"{base} >= N", measured >= n, f"search={measured}"))
        if n <= 3:
            cases.append(_case(f"{base} == N (tiny)", measured == n, f"search={measured}"))
        if n >= 1:
            lower = bounds.main2_bound(5, n)
            dp = bounds.dp_lower_bound(5, n)
            cases.append(
                _case(
                    f"{base} >= closed and dp lower bounds",
                    lower <= measured and dp <= measured,
                    f"main2={lower} dp={dp} search={measured}",
                )
            )
    return cases


def _random_config(rng: random.Random, p: int, n: int, pegs=None) -> Configuration:
    pool = list(range(p)) if pegs is None else list(pegs)
    return Configuration(p, tuple(rng.choice(pool) for _ in range(n)))


def random_removal_instance(rng: random.Random, top: int = 200) -> tuple[tuple[int, ...], int, int]:
    """A nonempty set A, a bound s, and a member a with at most s elements
    of A at or above delta(4, s): always applicable to the removal check."""
    while True:
        s = rng.randint(0, 10)
        cutoff = min(numerics.delta(4, s), top)
        low_pool = range(cutoff)
        high_pool = range(cutoff, top)
        members = rng.sample(low_pool, rng.randint(0, len(low_pool)))
        members += rng.sample(high_pool, min(rng.randint(0, s), len(high_pool)))
        if members:
            return tuple(sorted(members)), s, rng.choice(members)


def random_bousch_instance(
    rng: random.Random, max_disks: int
) -> tuple[Configuration, Configuration, int]:
    """A random (u, v, a) with peg a plus one other peg empty in v."""
    n = rng.randint(1, max_disks)
    u = _random_config(rng, 4, n)
    a = rng.randrange(4)
    b = rng.choice([x for x in range(4) if x != a])
    occupied = [x for x in range(4) if x not in (a, b)]
    v = _random_config(rng, 4, n, pegs=occupied)
    return u, v, a


def _suite_lemmas(max_disks: int | None, cache: ResultCache) -> list[Case]:
    del cache  # distance instances here are keyed by configurations, not (p, N)
    limit = max_disks if max_disks is not None else 6
    rng = random.Random(_SEED)
    phi = frame_stewart.phi_closed
    cases = []

    bad = [n for n in range(2, 201) if 2 * potential.psi(range(n)) != phi(4, n + 1) - 1]
    cases.append(
        _case(
            "gathered-set potential identity N<=200",
            not bad,
            f"first mismatch at N={bad[0]}" if bad else "",
        )
    )

    bad = []
    for n in range(2, 201):
        split_min = min(
            frame_stewart.phi_spectrum(4, a) + ((1 << (n - a)) - 1) for a in range(1, n)
        )
        if 2 * split_min != phi(4, n + 1) - 1:
            bad.append(n)
    cases.append(
        _case(
            "split-minimum identity N<=200",
            not bad,
            f"first mismatch at N={bad[0]}" if bad else "",
        )
    )

    removal_failures = 0
    for _ in range(1000):
        members, s, a = random_removal_instance(rng)
        if not potential.check_removal_bound(members, s, a):
            removal_failures += 1
    cases.append(
        _case("removal-bound sweep (1000 instances)", removal_failures == 0, f"failures={removal_failures}")
    )

    union_failures = 0
    for _ in range(1000):
        a_set = tuple(sorted(rng.sample(range(200), rng.randint(0, 60))))
        b_set = tuple(sorted(rng.sample(range(200), rng.randint(0, 60))))
        if not potential.check_union_bound(a_set, b_set):
            union_failures += 1
    cases.append(
        _case("union-bound sweep (1000 instances)", union_failures == 0, f"failures={union_failures}")
    )

    bousch_failures = 0
    skipped = 0
    for _ in range(100):
        u, v, a = random_bousch_instance(rng, limit)
        try:
            if not state_space.check_bousch_inequality(u, v, a):
                bousch_failures += 1
        except CapExceededError:
            skipped += 1
    name = "potential-vs-distance sweep (100 instances)"
    if skipped:
        cases.append(Case(name, "SKIP", f"{skipped} instances over the cap"))
    else:
        cases.append(_case(name, bousch_failures == 0, f"failures={bousch_failures}"))
    return cases


def _suite_bounds_sandwich(max_disks: int | None, cache: ResultCache) -> list[Case]:
    # gamma's product search for p=4 stays under the default cap through N=9
    h_grid = {3: 9, 4: 10, 5: 5}
    gamma_grid = {3: 9, 4: 9, 5: 5}
    if max_disks is not None:
        h_grid = {p: min(v, max_disks) for p, v in h_grid.items()}
        gamma_grid = {p: min(v, max_disks) for p, v in gamma_grid.items()}
    cases = []
    for p in sorted(h_grid):
        for n in range(1, h_grid[p] + 1):
            name = f"sandwich p={p} N={n}"
            try:
                h_value = _H(p, n, cache)
                gamma_value = _gamma(p, n, cache) if n <= gamma_grid[p] else None
            except CapExceededError as exc:
                cases.append(Case(name, "SKIP", str(exc)))
                continue
            checks = []
            checks.append(("chen_shen<=H", bounds.chen_shen_bound(p, n) <= h_value))
            if gamma_value is not None:
                checks.append(("gamma<=H", gamma_value <= h_value))
                checks.append(("N<=gamma", n <= gamma_value))
                if p >= 4:
                    main2 = bounds.main2_bound(p, n)
                    dp = bounds.dp_lower_bound(p, n)
                    checks.append(("main2<=dp", main2 <= dp))
                    checks.append(("dp<=gamma", dp <= gamma_value))
                if n >= p - 1:
                    upper = bounds.gamma_upper_general(p, n)
                    checks.append(("gamma<=upper", gamma_value <= upper))
            failed = [label for label, ok in checks if not ok]
            cases.append(
                _case(name, not failed, f"violated: {','.join(failed)}" if failed else f"H={h_value} gamma={gamma_value}")
            )

    phi = frame_stewart.phi_closed
    bad = [n for n in range(1, 501) if 2 * (phi(4, n + 1) - 1) < phi(4, n + 2) - 1]
    cases.append(
        _case(
            "halving inequality N<=500",
            not bad,
            f"first violation at N={bad[0]}" if bad else "",
        )
    )

    bad_pairs = []
    for p in range(5, 8):
        dp_row = bounds.dp_lower_bounds(p, 300)
        for n in range(1, 301):
            if not (bounds.main2_bound(p, n) <= dp_row[n]):
                bad_pairs.append((p, n))
    cases.append(
        _case(
            "dp dominates the closed lower bound p=5..7 N<=300",
            not bad_pairs,
            f"first violation at {bad_pairs[0]}" if bad_pairs else "",
        )
    )
    return cases


SUITES: dict[str, Callable[[int | None, ResultCache], list[Case]]] = {
    "phi": _suite_phi,
    "szegedy": _suite_szegedy,
    "main1": _suite_main1,
    "bousch-h4": _suite_bousch_h4,
    "conjecture5": _suite_conjecture5,
    "lemmas": _suite_lemmas,
    "bounds-sandwich": _suite_bounds_sandwich,
}
