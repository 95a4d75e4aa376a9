"""The benchmark's four workloads: seeded inputs, the call each operation
makes, and the check each answer must pass.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  ``plan`` builds the inputs from the
seed alone and needs no hanoi_bounds import; ``run`` makes the call;
``check`` compares the answer with ``reference`` without calling the
library, so checks add no spans to a traced run.

Why these workloads (each measured run is kept near five seconds, so
several fit in one benchmark run and their median absorbs scheduler noise):
- gamma-product: the multi-source product BFS of ``exact_gamma``, which
  dominates the test suite's time.  Computed visit tables of 0.25-2 MiB
  (within a 2 MiB L2) and of 10-17 MB for (3,9) and (4,8), past L2 but
  inside the last-level cache of the host it was tuned on (300 MiB): no
  case here has a table past the LLC, so gains that only pay off there
  will not show.
- h-bidirectional: ``exact_H`` and many ``distance`` calls; two int32
  tables of p**n entries per call (8 MB for each 4-peg pair, 134 MB for
  ``exact_H(4,12)``), shallow bidirectional sweeps.  The many small
  searches make per-call table allocation visible.
- formulas: exact big-integer arithmetic only (Phi routes, bound reports,
  Bousch's potential, constructions with replay).  It never enters
  ``state_space``, so a search optimisation should not move it.
- cli-session: a scripted user session of separate CLI processes with a
  fresh result cache: every verify suite cold then warm, then one-shot
  commands.  The only workload that exercises ``cli``, ``cache`` and
  process start-up.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import reference as ref
import tracing

WORKLOADS = ("gamma-product", "h-bidirectional", "formulas", "cli-session")

GAMMA_CASES = ((3, 9), (4, 7), (5, 6), (6, 5), (4, 8))
H_CASES = ((3, 12), (4, 12), (5, 10), (6, 9))
DISTANCE_PAIRS = ((4, 10, 40), (5, 8, 40))  # pegs, disks, pairs per run
PHI4_SPECTRUM = ((10**9, "1e9"), (2 * 10**9, "2e9"), (5 * 10**9, "5e9"), (10**10, "1e10"))
REPORT_CASES = ((4, 1000), (4, 2000), (5, 1000), (5, 2000), (6, 1000), (8, 1000))
VERIFY_SUITES = ("phi", "szegedy", "main1", "bousch-h4", "conjecture5", "lemmas", "bounds-sandwich")
# bounds-sandwich clamps its grid with min() but the other suites replace
# theirs, so --max-disks 8 would push conjecture5 to 80 s and 3.8 GB.
VERIFY_MAX_DISKS = 6
PHI_DEFECT_DISKS = 10**9

CLI_MODULE = ("-m", "hanoi_bounds.cli")
LAUNCHER = Path(__file__).with_name("cli_launcher.py")


@dataclass(frozen=True)
class Op:
    """One operation: ``key`` names the call for per-op timing tables;
    ``meta`` carries what only the check needs."""

    key: str
    kind: str
    args: tuple
    meta: tuple = ()


@dataclass
class Context:
    """What ``run`` needs besides the op: the package, where CLI processes
    write spans (None when untraced), and the run's time limit."""

    hb: object
    spans_dir: Path | None
    deadline: float


def _bousch_pair(rng: random.Random, p: int, n: int):
    """A start anywhere, and a target with peg ``a`` and one more peg empty."""
    start = tuple(rng.randrange(p) for _ in range(n))
    a = rng.randrange(p)
    b = rng.choice([x for x in range(p) if x != a])
    occupied = [x for x in range(p) if x not in (a, b)]
    return start, tuple(rng.choice(occupied) for _ in range(n)), a


def _removal_instance(rng: random.Random, top: int = 200):
    """A set A, a bound s and a member a, with at most s members of A at or
    above delta(4, s), so the removal bound applies."""
    while True:
        s = rng.randint(0, 10)
        cutoff = min(ref.delta(4, s), top)
        members = rng.sample(range(cutoff), rng.randint(0, cutoff))
        members += rng.sample(range(cutoff, top), min(rng.randint(0, s), top - cutoff))
        if members:
            return tuple(sorted(members)), s, rng.choice(members)


def _relabeled(rng: random.Random, p: int, start, end, a: int):
    """The pair under a seeded relabeling of the pegs.

    Relabeling preserves distances, so each seed gets other configurations
    of the same difficulty: the latency percentiles do not jump with the
    seed, and the pinned distances hold for every seed."""
    perm = rng.sample(range(p), p)
    return tuple(perm[x] for x in start), tuple(perm[x] for x in end), perm[a]


def _distance_ops(rng: random.Random) -> list[Op]:
    base = random.Random("distance-pairs")
    ops = []
    for p, n, count in DISTANCE_PAIRS:
        for index in range(count):
            start, end, a = _relabeled(rng, p, *_bousch_pair(base, p, n))
            ops.append(Op(f"distance({p},{n})", "distance", (p, start, end, a, index)))
    return ops


def _formula_ops(rng: random.Random) -> list[Op]:
    ops = [
        Op(f"phi_spectrum(4,{label})", "phi_spectrum", (4, n + rng.randrange(10**6)))
        for n, label in PHI4_SPECTRUM
    ]
    ops += [
        Op(f"phi_spectrum({p},1e12)", "phi_spectrum", (p, 10**12 + rng.randrange(10**6)))
        for p in range(5, 9)
    ]
    # ascending p from a cold memo: each call fills one more row of the table
    ops += [Op(f"phi_recursive({p},600)", "phi_recursive", (p, 600)) for p in range(3, 11)]
    ops += [Op(f"build_report({p},{n})", "build_report", (p, n)) for p, n in REPORT_CASES]
    ops += [
        Op("psi", "psi", (tuple(sorted(rng.sample(range(200), rng.randint(1, 200)))),))
        for _ in range(200)
    ]
    ops += [Op("check_removal_bound", "removal", _removal_instance(rng)) for _ in range(150)]
    ops += [
        Op(
            "check_union_bound",
            "union",
            tuple(tuple(sorted(rng.sample(range(200), rng.randint(0, 60)))) for _ in range(2)),
        )
        for _ in range(150)
    ]
    for _ in range(3):
        ops.append(Op("main1_essential_path", "main1", (rng.randint(20, 30),)))
        ops.append(Op("two1_tight_pair", "two1", (rng.randint(20, 30),)))
        src, first, second, spare = rng.sample(range(4), 4)
        ops.append(Op("midpoint_path", "midpoint", (rng.randint(20, 30), src, (first, second), spare)))
        q = rng.randint(4, 8)
        src, dst = rng.sample(range(q), 2)
        ops.append(Op(f"frame_stewart_path(q={q})", "frame_stewart", (rng.randint(15, 30), q, src, dst)))
    return ops


def _cli_ops(rng: random.Random) -> list[Op]:
    ops = [
        Op(f"verify {suite} {state}", "cli", ("verify", "--suite", suite, "--max-disks", str(VERIFY_MAX_DISKS), "--json"))
        for state in ("cold", "warm")
        for suite in VERIFY_SUITES
    ]
    ops.append(Op("bounds 5 1500", "cli", ("bounds", "--pegs", "5", "--disks", "1500", "--json")))
    for state in ("miss", "hit"):
        ops.append(Op(f"gamma 4 7 exact {state}", "cli", ("gamma", "--pegs", "4", "--disks", "7", "--exact")))
    ops.append(Op("construct main1 20", "cli", ("construct", "--kind", "main1", "--disks", "20", "--json", "--verify")))
    start, end, a = _relabeled(rng, 4, *_bousch_pair(random.Random("cli-distance"), 4, 10))
    ops.append(
        Op(
            "distance 4x10",
            "cli",
            ("distance", "--pegs", "4", "--start", ",".join(map(str, start)), "--end", ",".join(map(str, end))),
            meta=(a,),
        )
    )
    p, n = rng.randint(4, 8), rng.randint(10**5, 10**6)
    ops.append(Op("decompose", "cli", ("decompose", "--pegs", str(p), "--disks", str(n), "--json")))
    members = sorted(rng.sample(range(200), rng.randint(1, 60)))
    ops.append(Op("psi", "cli", ("psi", "--set", ",".join(map(str, members)))))
    ops.append(Op("phi 4 1e6", "cli", ("phi", "--pegs", "4", "--disks", str(10**6))))
    return ops


def plan(workload: str, seed: int) -> list[Op]:
    """The operations of one measured run; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "gamma-product":
        ops = [Op(f"exact_gamma({p},{n})", "exact_gamma", (p, n)) for p, n in GAMMA_CASES]
    elif workload == "h-bidirectional":
        ops = [Op(f"exact_H({p},{n})", "exact_H", (p, n)) for p, n in H_CASES]
        ops += _distance_ops(rng)
    elif workload == "formulas":
        return _formula_ops(rng)
    elif workload == "cli-session":
        return _cli_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(ops)
    return ops


def table_bytes(op: Op) -> int:
    """Computed size of the dense visit tables the op allocates."""
    if op.kind == "exact_gamma":
        return tracing.table_bytes("gamma", *op.args)
    if op.kind == "exact_H":
        return tracing.table_bytes("distance", *op.args)
    if op.kind == "distance":
        return tracing.table_bytes("distance", op.args[0], len(op.args[1]))
    return 0


# ---------------------------------------------------------------------------
# running


def run_cli(ctx: Context, argv: tuple, spans_name: str):
    """One CLI process from spawn to exit; (exit code, stdout, stderr)."""
    if ctx.spans_dir is None:
        command = [sys.executable, *CLI_MODULE, *argv]
    else:
        command = [sys.executable, str(LAUNCHER), str(ctx.spans_dir / f"{spans_name}.json"), *argv]
    timeout = max(1.0, ctx.deadline - time.monotonic())
    proc = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def run(ctx: Context, index: int, op: Op):
    """Make the op's call and return what its check needs."""
    hb = ctx.hb
    kind, args = op.kind, op.args
    if kind == "exact_gamma":
        return hb.exact_gamma(*args)
    if kind == "exact_H":
        return hb.exact_H(*args)
    if kind == "distance":
        p, start, end = args[:3]
        return hb.distance(hb.Configuration(p, start), hb.Configuration(p, end))
    if kind == "phi_spectrum":
        return hb.phi_spectrum(*args)
    if kind == "phi_recursive":
        return hb.phi_recursive(*args)
    if kind == "build_report":
        return hb.build_report(*args)
    if kind == "psi":
        return hb.psi(args[0])
    if kind == "removal":
        return hb.check_removal_bound(*args)
    if kind == "union":
        return hb.check_union_bound(*args)
    if kind == "main1":
        path = hb.main1_essential_path(*args)
        return path, path.replay()
    if kind == "two1":
        u, v, path = hb.two1_tight_pair(*args)
        return (u, v, path), path.replay()
    if kind == "midpoint":
        path = hb.midpoint_path(*args)
        return path, path.replay()
    if kind == "frame_stewart":
        n, q, src, dst = args
        path = hb.frame_stewart_path(n, range(q), src, dst)
        return path, path.replay()
    if kind == "cli":
        return run_cli(ctx, args, f"op-{index:03d}")
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# checking


class Mismatch(AssertionError):
    """An answer that differs from its reference."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _moves(path) -> list[tuple[int, int, int]]:
    return [(m.disk, m.src, m.dst) for m in path.moves]


def _check_path(path, final, length: int) -> tuple[int, ...]:
    """Replay independently; the library's replay must agree; length exact."""
    start = path.start.pegs
    end = ref.replay(path.start.p, start, _moves(path))
    _expect(tuple(final.pegs) == end, f"replay ends at {final.pegs}, reference replay at {end}")
    _expect(len(path.moves) == length, f"path has {len(path.moves)} moves, expected {length}")
    return end


def _dyadic(value) -> object:
    return ref.dyadic_value(value.mantissa, value.exponent)


def _check_report(report, p: int, n: int) -> None:
    want = ref.report(p, n)
    got = {
        "chen_shen": _dyadic(report.chen_shen),
        "main2": _dyadic(report.main2),
        "dp_lower": report.dp_lower,
        "gamma_formula": report.gamma_formula,
        "gamma_formula_status": report.gamma_formula_status,
        "phi_upper": report.phi_upper,
        "gamma_upper_general": _dyadic(report.gamma_upper_general),
    }
    for field, value in want.items():
        _expect(got[field] == value, f"build_report({p},{n}).{field} differs from the reference")
    _expect(report.trivial_n == n, "trivial_n differs")
    _expect(want["main2"] <= want["dp_lower"] <= want["gamma_formula"], "dp bound out of its sandwich")


def _check_report_json(data: dict, p: int, n: int) -> None:
    want = ref.report(p, n)
    for field, value in want.items():
        got = data[field]
        if isinstance(got, dict):
            got = ref.dyadic_value(int(got["mantissa"]), int(got["exponent"]))
        _expect(got == value, f"bounds --pegs {p} --disks {n}: {field} differs from the reference")


def _check_distance(value: int, p: int, start, end, a: int, pinned: int) -> None:
    """The pinned answer, and Bousch's psi bound on peg ``a``'s disks for
    4 pegs; for more pegs, every misplaced disk must move."""
    if p == 4:
        lower = ref.psi([d for d, peg in enumerate(start) if peg == a])
    else:
        lower = sum(1 for x, y in zip(start, end) if x != y)
    _expect(value >= lower, f"distance {value} is below the lower bound {lower}")
    _expect(value == pinned, f"distance {value} differs from pinned {pinned}")


@contextmanager
def _any_digits():
    """Lift Python's int/str digit limit while CLI output is parsed, and
    only then: the library calls being timed keep the default limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _check_cli(op: Op, result) -> None:
    rc, out, err = result
    _expect(rc == 0, f"exit code {rc}: {err.strip()[-200:]}")
    command = op.args[0]
    if command == "verify":
        data = json.loads(out)
        suite = op.args[2]
        _expect(data["suite"] == suite and data["ok"] is True, f"suite {suite} did not pass")
        _expect(data["counts"] == ref.PINNED["verify_counts"][suite], f"suite {suite} counts {data['counts']}")
    elif command == "bounds":
        _check_report_json(json.loads(out), int(op.args[2]), int(op.args[4]))
    elif command == "gamma":
        lines = dict(line.split(None, 1) for line in out.splitlines() if " " in line)
        want = ref.gamma(int(op.args[2]), int(op.args[4]))
        _expect(int(lines["exact"]) == want and int(lines["formula"]) == want, f"gamma output {out!r}")
    elif command == "construct":
        data = json.loads(out)
        n = len(data["start"].split(","))
        start = tuple(int(x) for x in data["start"].split(","))
        moves = [(m["disk"], m["from"], m["to"]) for m in data["moves"]]
        ref.replay(int(data["p"]), start, moves)
        length = 3 + (ref.phi(4, n) - 5) // 4
        _expect(len(moves) == length == data["length"], f"main1 path has {len(moves)} moves, expected {length}")
        _expect({m[0] for m in moves} == set(range(n)) and data["essential"] is True, "path is not essential")
        _expect("essential True" in err, "construct --verify did not report an essential path")
    elif command == "distance":
        start, end = (tuple(int(x) for x in op.args[i].split(",")) for i in (4, 6))
        _check_distance(int(out), int(op.args[2]), start, end, op.meta[0], ref.PINNED["cli_distance"])
    elif command == "decompose":
        data = json.loads(out)
        want = ref.decomposition(int(op.args[2]), int(op.args[4]))
        _expect((data["m"], data["t"], data["r"]) == want, f"decompose gave {data}, expected {want}")
    elif command == "psi":
        members = [int(x) for x in op.args[2].split(",")]
        _expect(int(out) == ref.psi(members), "psi differs from the reference")
    elif command == "phi":
        _expect(int(out) == ref.phi(int(op.args[2]), int(op.args[4])), "phi differs from the reference")


def check(op: Op, result) -> None:
    """Raise Mismatch unless ``result`` is the right answer for ``op``."""
    kind, args = op.kind, op.args
    if kind == "exact_gamma":
        _expect(result == ref.gamma(*args), f"{op.key} = {result}, expected {ref.gamma(*args)}")
    elif kind == "exact_H":
        _expect(result == ref.transfer(*args), f"{op.key} = {result}, expected {ref.transfer(*args)}")
    elif kind == "distance":
        p, start, end, a, index = args
        _check_distance(result, p, start, end, a, ref.PINNED["distance"][f"{p},{len(start)}"][index])
    elif kind in ("phi_spectrum", "phi_recursive"):
        _expect(result == ref.phi(*args), f"{kind}{args} differs from the closed form")
    elif kind == "build_report":
        _check_report(result, *args)
    elif kind == "psi":
        _expect(result == ref.psi(args[0]), "psi differs from the reference")
    elif kind == "removal":
        _expect(result is True and ref.removal_holds(*args), f"removal bound gave {result}")
    elif kind == "union":
        _expect(result is True and ref.union_holds(*args), f"union bound gave {result}")
    elif kind == "main1":
        path, final = result
        n = args[0]
        _check_path(path, final, 3 + (ref.phi(4, n) - 5) // 4)
        _expect({d for d, _, _ in _moves(path)} == set(range(n)), "main1 path is not essential")
    elif kind == "two1":
        (u, v, path), final = result
        n = args[0]
        end = _check_path(path, final, 1 + (ref.phi(4, n + 2) - 5) // 4)
        _expect(tuple(v.pegs) == end, "two1 end configuration differs from the replay")
        _expect(set(u.pegs) <= {0, 1} and set(end) <= {2, 3}, "two1 pair is not confined to its pegs")
    elif kind == "midpoint":
        path, final = result
        n, src, targets, _ = args
        end = _check_path(path, final, (ref.phi(4, n + 1) - 1) // 2)
        _expect(tuple(path.start.pegs) == (src,) * n, "midpoint path does not start gathered on src")
        _expect(set(end) == set(targets), "midpoint path does not end on its two targets")
    elif kind == "frame_stewart":
        path, final = result
        n, q, src, dst = args
        end = _check_path(path, final, ref.phi(q, n))
        _expect(tuple(path.start.pegs) == (src,) * n and end == (dst,) * n, "transfer endpoints differ")
    elif kind == "cli":
        with _any_digits():
            _check_cli(op, result)
    else:
        raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# known-defect probes


def probes(ctx: Context, workload: str) -> list[dict]:
    """Commands that fail at the time of writing; not ops, so they never
    count as failed, but each outcome is reported.  ``known`` means the
    recorded defect is still there, ``fixed`` means the right answer came
    back, ``wrong`` means anything else and makes the run incorrect."""
    if workload != "cli-session":
        return []
    rc, out, err = run_cli(ctx, ("phi", "--pegs", "4", "--disks", str(PHI_DEFECT_DISKS)), "probe-phi")
    if rc == 2 and "integer string conversion" in err:
        state = "known"
    else:
        with _any_digits():
            fixed = rc == 0 and out.strip().isdigit() and int(out) == ref.phi(4, PHI_DEFECT_DISKS)
        state = "fixed" if fixed else "wrong"
    return [{"probe": f"phi --pegs 4 --disks {PHI_DEFECT_DISKS}", "rc": rc, "state": state}]
