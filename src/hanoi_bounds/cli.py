"""Command-line front end: compute, construct, verify, export.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage error, 3 search cap exceeded.

The search engine (``state_space``, and numpy with it) is imported only by
the commands that run a search: ``distance``, ``gamma --exact`` and the
``verify`` suites that search.  ``gamma --exact`` and the suites fetch
searched values through ``verify.cached``, the one search path, which
imports the engine on a cache miss only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import bounds as bounds_mod
from . import constructions
from .cache import ResultCache
from .core import (
    CapExceededError,
    Configuration,
    is_essential,
    path_to_json_dict,
    path_to_text,
)
from .dyadic import DyadicRational
from .frame_stewart import phi_closed, phi_recursive, phi_spectrum
from .numerics import decompose
from .potential import NotApplicableError, psi
from .verify import SUITES, cached

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


# ---------------------------------------------------------------------------
# simple subcommands


def cmd_phi(args: argparse.Namespace) -> int:
    p, n = args.pegs, args.disks
    routes = {"recursive": phi_recursive, "spectrum": phi_spectrum, "closed": phi_closed}
    if args.method != "all":
        print(routes[args.method](p, n))
        return EXIT_OK
    values = {name: route(p, n) for name, route in routes.items()}
    for name, value in values.items():
        print(f"{name} {value}")
    if len(set(values.values())) != 1:
        print("method disagreement: the implementations diverge", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("agreement ok")
    return EXIT_OK


def cmd_gamma(args: argparse.Namespace) -> int:
    p, n = args.pegs, args.disks
    formula, status = bounds_mod.gamma_formula(p, n)
    marker = "" if status == "exact" else " (conjectured)"
    if not args.exact:
        print(f"{formula}{marker}")
        return EXIT_OK
    cache = ResultCache(enabled=not args.no_cache)
    try:
        measured = cached("gamma", p, n, cache, cap=args.product_cap)
    finally:
        cache.save()
    print(f"formula {formula}{marker}")
    print(f"exact   {measured}")
    if measured == formula:
        print("match")
        return EXIT_OK
    if status == "conjectured":
        # Gamma(p, n) is open here, but bounded: every disk moves, the dp
        # bound is proven, and from n = p - 1 the formula is a proven upper bound
        floor = max(n, bounds_mod.dp_lower_bound(p, n))
        if measured < floor:
            print(f"mismatch: exact search is below the proven lower bound {floor}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        if bounds_mod.gamma_above_proven_upper(p, n, measured):
            print(f"mismatch: exact search is above the proven upper bound {formula}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        print("finding: conjectured value differs from the search result")
        return EXIT_OK
    print("mismatch: exact search contradicts a proven formula", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def cmd_bounds(args: argparse.Namespace) -> int:
    report = bounds_mod.build_report(args.pegs, args.disks)
    if args.json:
        print(json.dumps(report.to_json_dict()))
        return EXIT_OK
    def fmt(value):
        if value is None:
            return "n/a"
        if isinstance(value, DyadicRational):
            return f"{value} (ceil {value.ceil()})"
        return str(value)

    print(f"p={report.p} N={report.N}")
    print(f"chen_shen           {fmt(report.chen_shen)}")
    print(f"main2               {fmt(report.main2)}")
    print(f"trivial_n           {report.trivial_n}")
    print(f"dp_lower            {fmt(report.dp_lower)}")
    print(f"gamma_formula       {report.gamma_formula} ({report.gamma_formula_status})")
    print(f"phi_upper           {report.phi_upper}")
    print(f"gamma_upper_general {fmt(report.gamma_upper_general)}")
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    d = decompose(args.pegs, args.disks)
    if args.json:
        print(json.dumps({"p": d.p, "N": d.N, "m": d.m, "t": d.t, "r": d.r}))
    else:
        print(f"m={d.m} t={d.t} r={d.r}")
    return EXIT_OK


def _parse_disk_set(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def cmd_psi(args: argparse.Namespace) -> int:
    print(psi(_parse_disk_set(args.set)))
    return EXIT_OK


def cmd_distance(args: argparse.Namespace) -> int:
    from . import state_space

    u = Configuration.from_text(args.start, args.pegs)
    v = Configuration.from_text(args.end, args.pegs)
    print(state_space.distance(u, v, cap=args.state_cap))
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    n = args.disks
    if args.kind == "midpoint":
        targets = _parse_disk_set(args.targets)
        if len(targets) != 2:
            print("--targets must name exactly two pegs", file=sys.stderr)
            return EXIT_USAGE
        path = constructions.midpoint_path(n, args.src, (targets[0], targets[1]), args.spare)
    elif args.kind == "two1":
        _, _, path = constructions.two1_tight_pair(n)
    else:
        path = constructions.main1_essential_path(n)
    if args.json:
        print(json.dumps(path_to_json_dict(path)))
    else:
        text = path_to_text(path)
        if text:
            print(text)
    if args.verify:
        final = path.replay()
        print(
            f"verified: legal, length {path.length}, "
            f"essential {is_essential(path)}, final {final.to_text()}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cache = ResultCache(enabled=not args.no_cache)
    try:
        cases = SUITES[args.suite](args.max_disks, cache)
    finally:
        cache.save()
    counts = {"PASS": 0, "FAIL": 0, "FINDING": 0, "SKIP": 0}
    for case in cases:
        counts[case.status] += 1
    ok = counts["FAIL"] == 0
    if args.json:
        json_cases = [case.to_json_dict() for case in cases]
        print(json.dumps({"suite": args.suite, "ok": ok, "cases": json_cases, "counts": counts}))
    else:
        for case in cases:
            line = f"{case.status} {case.name}"
            if case.detail:
                line += f" | {case.detail}"
            print(line)
        print(
            f"suite={args.suite} total={len(cases)} pass={counts['PASS']} "
            f"fail={counts['FAIL']} finding={counts['FINDING']} skip={counts['SKIP']}"
        )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def _disk_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hanoi-bounds",
        description="Exact multi-peg Tower of Hanoi combinatorics with a brute-force search oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    phi = sub.add_parser("phi", help="Frame-Stewart transfer count")
    phi.add_argument("--pegs", type=int, required=True)
    phi.add_argument("--disks", type=int, required=True)
    phi.add_argument(
        "--method",
        choices=["recursive", "spectrum", "closed", "all"],
        default="closed",
    )
    phi.set_defaults(func=cmd_phi)

    gamma = sub.add_parser("gamma", help="shortest essential-path length")
    gamma.add_argument("--pegs", type=int, required=True)
    gamma.add_argument("--disks", type=int, required=True)
    gamma.add_argument("--exact", action="store_true", help="also run the search oracle")
    gamma.add_argument("--no-cache", action="store_true")
    gamma.add_argument("--product-cap", type=int, default=None)
    gamma.set_defaults(func=cmd_gamma)

    bounds_cmd = sub.add_parser("bounds", help="full bound report for (pegs, disks)")
    bounds_cmd.add_argument("--pegs", type=int, required=True)
    bounds_cmd.add_argument("--disks", type=int, required=True)
    bounds_cmd.add_argument("--json", action="store_true")
    bounds_cmd.set_defaults(func=cmd_bounds)

    dec = sub.add_parser("decompose", help="greedy (m, t, r) split of disks-1")
    dec.add_argument("--pegs", type=int, required=True)
    dec.add_argument("--disks", type=int, required=True)
    dec.add_argument("--json", action="store_true")
    dec.set_defaults(func=cmd_decompose)

    psi_cmd = sub.add_parser("psi", help="potential of a disk set")
    psi_cmd.add_argument("--set", required=True, help="comma-separated disk labels, empty for the empty set")
    psi_cmd.set_defaults(func=cmd_psi)

    dist = sub.add_parser("distance", help="exact distance between two configurations")
    dist.add_argument("--pegs", type=int, required=True)
    dist.add_argument("--start", required=True, help='peg per disk, e.g. "0,0,1,3"')
    dist.add_argument("--end", required=True)
    dist.add_argument("--state-cap", type=int, default=None)
    dist.set_defaults(func=cmd_distance)

    cons = sub.add_parser("construct", help="emit an explicit move sequence")
    cons.add_argument("--kind", choices=["midpoint", "two1", "main1"], required=True)
    cons.add_argument("--disks", type=int, required=True)
    cons.add_argument("--src", type=int, default=0)
    cons.add_argument("--targets", default="2,3")
    cons.add_argument("--spare", type=int, default=1)
    cons.add_argument("--json", action="store_true")
    cons.add_argument("--verify", action="store_true")
    cons.set_defaults(func=cmd_construct)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", choices=list(SUITES), required=True)
    verify.add_argument("--max-disks", type=_disk_count, default=None)
    verify.add_argument("--no-cache", action="store_true")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    return parser


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int/str digit limit (Phi(4, 10**9) has 13,467 digits)
    and restore it on exit, since callers of main() may keep running in
    this interpreter.  Interpreters before 3.10.7 have no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _unlimited_int_digits():
            return args.func(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, NotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
