"""Verification suites: the paper's exit criteria as named lists of cases.

``SUITES`` maps each suite name to a function of (max_disks, cache) that
returns the suite's cases in a fixed order.  ``max_disks`` replaces the
suite's default disk grid (bounds-sandwich clamps its grid to it instead);
None keeps the default.  The CLI's ``verify`` command and the acceptance
tests both run these functions, so the criteria are written once.

``cached`` is the one path to a searched value: the suites here, the CLI's
``gamma --exact`` and the acceptance tests all fetch Gamma and H through
it, and Gamma's closed form is read only through ``bounds.gamma_formula``.

The library is called through module attributes (``state_space.exact_gamma``,
never a function imported by name): the benchmark's tracer
(``perfbench/tracing.py``) rebinds names only in the modules it lists, and
this way it still sees every call made from here.

``state_space``, and numpy with it, is imported only where a search runs:
on a cache miss in ``cached``, and in the ``lemmas`` suite's
potential-versus-distance sweep.  Suites answered by formulas or by the
cache never load the search engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Literal

from . import bounds, constructions, core, frame_stewart, numerics, potential
from .cache import ResultCache
from .core import CapExceededError, Configuration

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


def cached(kind: str, p: int, n: int, cache: ResultCache, cap: int | None = None) -> int:
    """The searched value of ``kind`` at (p, n), memoized in ``cache``:
    ``"gamma"`` is ``state_space.exact_gamma`` and ``"H"`` is
    ``state_space.exact_H``, each run with ``cap`` on a cache miss only."""
    value = cache.get(kind, p, n)
    if value is None:
        from . import state_space

        search = {"gamma": state_space.exact_gamma, "H": state_space.exact_H}[kind]
        value = search(p, n, cap=cap)
        cache.put(kind, p, n, value)
    return value


def _none_bad(name: str, bad: list, detail: str) -> Case:
    """PASS when ``bad`` is empty, else FAIL with ``detail`` formatted by
    the first bad value."""
    return _case(name, not bad, detail.format(bad[0]) if bad else "")


def _suite_phi(max_disks: int | None, cache: ResultCache) -> list[Case]:
    del cache  # no searches
    rec_limit = max_disks if max_disks is not None else 300
    closed_limit = max_disks if max_disks is not None else 2000
    routes = (frame_stewart.phi_recursive, frame_stewart.phi_spectrum, frame_stewart.phi_closed)
    cases = []
    for p in range(3, 11):
        bad = [n for n in range(rec_limit + 1) if len({route(p, n) for route in routes}) != 1]
        cases.append(_none_bad(f"phi recursive=spectrum=closed p={p} N<={rec_limit}", bad, "first mismatch at N={}"))
    bad = [
        n
        for n in range(closed_limit + 1)
        if frame_stewart.phi_spectrum(4, n) != frame_stewart.phi_closed(4, n)
    ]
    cases.append(_none_bad(f"phi spectrum=closed p=4 N<={closed_limit}", bad, "first mismatch at N={}"))
    return cases


def _formula_vs_search(
    kind: str, p: int, ns: range, formula: Callable[[int, int], int], cache: ResultCache
) -> list[Case]:
    """One case per n in ``ns``: the searched ``kind`` against ``formula(p, n)``,
    SKIP where the search exceeds its cap."""
    cases = []
    for n in ns:
        name = f"{kind}({p},{n})"
        try:
            measured = cached(kind, p, n, cache)
        except CapExceededError as exc:
            cases.append(Case(name, "SKIP", str(exc)))
            continue
        wanted = formula(p, n)
        cases.append(_case(name, measured == wanted, f"search={measured} formula={wanted}"))
    return cases


def _suite_szegedy(max_disks: int | None, cache: ResultCache) -> list[Case]:
    limit = max_disks if max_disks is not None else 9
    formula = lambda p, n: bounds.gamma_formula(p, n)[0]
    return _formula_vs_search("gamma", 3, range(limit + 1), formula, cache)


def _suite_main1(max_disks: int | None, cache: ResultCache) -> list[Case]:
    limit = max_disks if max_disks is not None else 7
    formula = lambda p, n: bounds.gamma_formula(p, n)[0]
    cases = _formula_vs_search("gamma", 4, range(limit + 1), formula, cache)
    for n in range(3, limit + 1):
        path = constructions.main1_essential_path(n)
        ok = path.length == formula(4, n) and core.is_essential(path)
        cases.append(_case(f"construction({n})", ok, f"length={path.length}"))
    return cases


def _suite_bousch_h4(max_disks: int | None, cache: ResultCache) -> list[Case]:
    limit = max_disks if max_disks is not None else 10
    return _formula_vs_search("H", 4, range(1, limit + 1), frame_stewart.phi_closed, cache)


def _suite_conjecture5(max_disks: int | None, cache: ResultCache) -> list[Case]:
    limit = max_disks if max_disks is not None else 5
    cases = []
    for n in range(limit + 1):
        base = f"gamma(5,{n})"
        try:
            measured = cached("gamma", 5, n, cache)
        except CapExceededError as exc:
            cases.append(Case(base, "SKIP", str(exc)))
            continue
        conjectured = bounds.gamma_formula(5, n)[0]
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
    from . import state_space

    del cache  # distance instances here are keyed by configurations, not (p, N)
    limit = max_disks if max_disks is not None else 6
    rng = random.Random(_SEED)
    phi = frame_stewart.phi_closed
    cases = []

    bad = [n for n in range(2, 201) if 2 * potential.psi(range(n)) != phi(4, n + 1) - 1]
    cases.append(_none_bad("gathered-set potential identity N<=200", bad, "first mismatch at N={}"))

    bad = []
    spectrum = {a: frame_stewart.phi_spectrum(4, a) for a in range(1, 200)}
    for n in range(2, 201):
        split_min = min(spectrum[a] + ((1 << (n - a)) - 1) for a in range(1, n))
        if 2 * split_min != phi(4, n + 1) - 1:
            bad.append(n)
    cases.append(_none_bad("split-minimum identity N<=200", bad, "first mismatch at N={}"))

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
                h_value = cached("H", p, n, cache)
                gamma_value = cached("gamma", p, n, cache) if n <= gamma_grid[p] else None
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
                    upper = bounds.gamma_formula(p, n)[0]
                    checks.append(("gamma<=upper", gamma_value <= upper))
            failed = [label for label, ok in checks if not ok]
            cases.append(
                _case(name, not failed, f"violated: {','.join(failed)}" if failed else f"H={h_value} gamma={gamma_value}")
            )

    phi = frame_stewart.phi_closed
    bad = [n for n in range(1, 501) if 2 * (phi(4, n + 1) - 1) < phi(4, n + 2) - 1]
    cases.append(_none_bad("halving inequality N<=500", bad, "first violation at N={}"))

    bad_pairs = []
    for p in range(5, 9):
        dp_row = bounds.dp_lower_bounds(p, 1000)
        for n in range(1, 1001):
            if not (bounds.main2_bound(p, n) <= dp_row[n]):
                bad_pairs.append((p, n))
    cases.append(_none_bad("dp dominates the closed lower bound p=5..8 N<=1000", bad_pairs, "first violation at {}"))
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
