"""Acceptance suite: every exit criterion, each printing a pass/fail line.

Criteria run through the same verification suites as ``hanoi-bounds
verify`` (``hanoi_bounds.verify.SUITES``) at their default grids.  All
comparisons are exact (tolerance zero).  One module-scoped result cache
shares search results between criteria, so each (p, N) search runs once.
"""

import pytest

from hanoi_bounds.bounds import gamma_formula
from hanoi_bounds.cache import ResultCache
from hanoi_bounds.constructions import (
    main1_essential_path,
    midpoint_path,
    two1_tight_pair,
)
from hanoi_bounds.core import is_essential
from hanoi_bounds.frame_stewart import phi_closed
from hanoi_bounds.state_space import distance
from hanoi_bounds.verify import SUITES, cached


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return ResultCache(directory=tmp_path_factory.mktemp("results"))


def run_suite(suite, cache):
    """The suite's cases by name, after asserting none failed or skipped."""
    cases = SUITES[suite](None, cache)
    bad = [case for case in cases if case.status in ("FAIL", "SKIP")]
    assert not bad, bad
    return {case.name: case for case in cases}


def report(criterion: int, summary: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS ({summary})")


def test_criterion_1_exact_h4_matches_phi4(cache):
    cases = run_suite("bousch-h4", cache)
    assert list(cases) == [f"H(4,{n})" for n in range(1, 11)]
    report(1, "exact H(4,N) equals the 4-peg transfer count for N <= 10")


def test_criterion_2_three_peg_essential_lengths(cache):
    cases = run_suite("szegedy", cache)
    assert list(cases) == [f"gamma(3,{n})" for n in range(10)]
    report(2, "exact gamma(3,N) equals 1 + 2**(N-2) (N for N <= 1) for N <= 9")


def test_criterion_3_four_peg_essential_lengths(cache):
    cases = run_suite("main1", cache)
    assert list(cases)[:8] == [f"gamma(4,{n})" for n in range(8)]
    assert cases["gamma(4,3)"].detail == "search=3 formula=3"
    assert cases["gamma(4,7)"].detail == "search=8 formula=8"
    report(3, "exact gamma(4,N) equals 3 + (Phi(4,N) - 5)/4 for N <= 7")


def test_criterion_4_five_peg_probe(cache):
    cases = run_suite("conjecture5", cache)
    # N <= 5: each N against the conjecture and N, tiny N equal to N, and
    # every N >= 1 above the closed and dp lower bounds
    assert len(cases) == 6 + 6 + 4 + 5
    findings = [case for case in cases.values() if case.status == "FINDING"]
    for finding in findings:
        print(f"[acceptance] criterion 4 FINDING: {finding.name}: {finding.detail}")
    report(4, f"five-peg probe, {len(findings)} conjecture findings, hard checks hold")


def test_criterion_5_phi_triple_agreement(cache):
    cases = run_suite("phi", cache)
    assert list(cases) == [f"phi recursive=spectrum=closed p={p} N<=300" for p in range(3, 11)] + [
        "phi spectrum=closed p=4 N<=2000"
    ]
    report(5, "recursion = spectrum = closed form (p <= 10, N <= 300); spectrum = closed form (p=4, N <= 2000)")


def test_criterion_6_construction_exactness(cache):
    for n in range(3, 21):
        path = main1_essential_path(n)
        path.replay()
        assert is_essential(path)
        assert path.length == gamma_formula(4, n)[0], f"main1({n})"
    for n in range(3, 8):
        assert main1_essential_path(n).length == cached("gamma", 4, n, cache)
    for n in range(2, 7):
        u, v, path = two1_tight_pair(n)
        assert distance(u, v) == path.length == 1 + (phi_closed(4, n + 2) - 5) // 4
    for n in range(1, 16):
        assert midpoint_path(n, 0, (2, 3), 1).length == (phi_closed(4, n + 1) - 1) // 2
    report(6, "constructed paths replay legally at their exact optimal lengths")


def test_criterion_7_potential_suite(cache):
    cases = run_suite("lemmas", cache)
    assert len(cases) == 5
    report(7, "potential identities, removal/union sweeps, and 100 distance checks hold")


def test_criterion_8_bounds_sandwich(cache):
    cases = run_suite("bounds-sandwich", cache)
    # H at p = 3, 4, 5 for N <= 9, 10, 5; Gamma at each of them but (4, 10)
    sandwiches = [case.detail for name, case in cases.items() if name.startswith("sandwich")]
    assert len(sandwiches) == 9 + 10 + 5
    assert sum(detail.endswith("gamma=None") for detail in sandwiches) == 1
    assert len(cases) == len(sandwiches) + 2
    report(8, "lower bounds sit under search values, which sit under upper bounds")


def test_criterion_9_frame_stewart_numbers(cache):
    cases = run_suite("frame-stewart", cache)
    limits = {5: 11, 6: 10, 7: 9}
    assert list(cases) == [f"H({p},{n})" for p, top in limits.items() for n in range(1, top + 1)]
    findings = [case for case in cases.values() if case.status == "FINDING"]
    for finding in findings:
        print(f"[acceptance] criterion 9 FINDING: {finding.name}: {finding.detail}")
    report(9, f"exact H(p,N) against Phi for p = 5..7, {len(findings)} findings")
