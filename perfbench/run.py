"""Benchmark for the hanoi-bounds oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and writes only under ``.perfbench_tmp/`` there, which it removes
when it ends.

Each measured run is one child interpreter (``child.py``) doing the
workload's fixed list of operations, so memo caches and numpy warm-up never
leak from one run to the next, and an OOM kill turns into failed ops, not a
dead harness.  Runs repeat while another fits in ``--seconds``.

``setup_s`` comes from at least eight extra children that stop after
set-up, spread over the run, each paired with a control interpreter that
only imports numpy; see CONTROL below.

With ``--trace 0`` it reports the end-to-end metrics (tracing off).  With
``--trace 1`` it alternates untraced and traced children and reports the
per-layer metrics from the traced ones, plus the tracing overhead.

The last line of standard output is the result object; the line before it
holds the details (per-op times keyed by call, probes, machine, regime).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

import workloads  # noqa: E402  (lives beside this file)

HARD_LIMIT_S = 170.0  # a run must end well inside 180 s
# Set-up is timed on set-up-only children, each paired with a control: a
# bare interpreter that imports numpy, set-up work of the same kind that the
# program does not control.  The host's speed at such work drifts by up to
# a third from minute to minute; the pair's ratio drifts far less, so
# ``setup_s`` is the set-up time on a host where the control takes
# CONTROL_REF_S.
CONTROL = "import time, numpy; print(time.monotonic())"
CONTROL_REF_S = 0.2
SETUP_PAIRS_PER_ROUND = 1
MIN_SETUP_PAIRS = 8
# Settings that would change what the program does or where it writes.
CLEARED_ENV = ("HANOI_STATE_CAP", "HANOI_PRODUCT_CAP", "HANOI_CACHE_DIR", "PYTHONPATH", "PYTHONINTMAXSTRDIGITS")

END_TO_END_UNITS = {
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env(tmp: Path, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(
        PYTHONPATH=str(SRC),
        # one client thread: the oracle makes no BLAS calls, and starting
        # OpenBLAS's thread pool in every interpreter only adds noise
        OPENBLAS_NUM_THREADS="1",
        HANOI_CACHE_DIR=str(tmp / "cache"),
        PERFBENCH_DEADLINE=repr(deadline),
    )
    return env


def control(tmp: Path, deadline: float) -> float | None:
    """Seconds from spawning the control to the end of its imports, timed
    like a child's set-up; None if it failed."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CONTROL],
            cwd=ROOT,
            env=child_env(tmp, deadline),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
        return float(proc.stdout) - t0 if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError):
        return None


def spawn(workload: str, seed: int, mode: str, tmp: Path, deadline: float) -> dict:
    """Run one child to completion (or kill its process group at the
    deadline) and parse what it printed."""
    (tmp / "spans").mkdir(parents=True)
    t0 = time.monotonic()
    command = [sys.executable, str(HERE / "child.py"), workload, str(seed), repr(t0), str(tmp), mode]
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_env(tmp, deadline),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    wall = time.monotonic() - t0
    child = {"mode": mode, "rc": proc.returncode, "wall": wall, "ops": {}, "closing": None, "setup": None}
    for line in out.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if "setup_s" in record:
            child["setup"] = record
        elif "op" in record:
            child["ops"][record["op"]] = (record["ms"], record["error"])
        elif "done_s" in record:
            child["closing"] = record
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-3:]
        print(f"# child ({mode}) exited {proc.returncode}: {' | '.join(tail)}", file=sys.stderr)
    return child


def run_children(args, modes: tuple[str, ...]) -> tuple[list[tuple], list[dict]]:
    """Rounds of ``modes`` while another round fits in the measuring time.
    Untraced runs also make set-up pairs (control, set-up-only child):
    a few before each round, so they spread over the run, after one
    discarded warm-up control."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    run_dir = SCRATCH / f"run-{os.getpid()}"
    counter = 0

    def one(mode: str) -> dict:
        nonlocal counter
        counter += 1
        return spawn(args.workload, args.seed, mode, run_dir / f"{counter:03d}-{mode}", deadline)

    pairs: list[tuple] = []

    def setup_pair() -> None:
        # alternate which one goes first, so neither gains from going second
        if len(pairs) % 2:
            child = one("setup")
            pairs.append((control(run_dir, deadline), child))
        else:
            pairs.append((control(run_dir, deadline), one("setup")))

    timing_setup = "traced" not in modes
    children: list[dict] = []
    try:
        run_dir.mkdir(parents=True)
        if timing_setup:
            control(run_dir, deadline)
        last_round = 0.0
        while True:
            elapsed = time.monotonic() - start
            # the first round always runs; later ones only if they fit, and
            # never past 0.6 of the hard limit, so the last one ends in time
            if children and elapsed + last_round > min(args.seconds, 0.6 * HARD_LIMIT_S):
                break
            round_start = time.monotonic()
            for _ in range(SETUP_PAIRS_PER_ROUND if timing_setup else 0):
                setup_pair()
            children += [one(mode) for mode in modes]
            last_round = time.monotonic() - round_start
        while timing_setup and len(pairs) < MIN_SETUP_PAIRS:
            setup_pair()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    return pairs, children


def run_time(child: dict) -> float:
    """Spawn to the end of the run's work; the wall time if it was killed."""
    return child["closing"]["done_s"] if child["closing"] else child["wall"]


def median_or_none(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(pairs: list[tuple], measured: list[dict]) -> tuple[dict, dict]:
    latencies = [ms for child in measured for ms, _ in child["ops"].values()]
    rss = [child["closing"]["rss_mb"] for child in measured if child["closing"]]
    setup = [
        CONTROL_REF_S * child["setup"]["setup_s"] / control_s
        for control_s, child in pairs
        if control_s and child["setup"]
    ]
    samples = {
        "run_s": [run_time(child) for child in measured],
        "op_p50_ms": latencies,
        "op_p95_ms": latencies,
        "peak_rss_mb": rss,
        "setup_s": setup,
    }
    values = {
        "run_s": statistics.median(samples["run_s"]),
        "op_p50_ms": statistics.median(latencies) if latencies else float("nan"),
        "op_p95_ms": percentile(latencies, 95) if latencies else float("nan"),
        "peak_rss_mb": statistics.median(rss) if rss else float("nan"),
        "setup_s": statistics.median(setup) if setup else float("nan"),
    }
    return values, {name: len(v) for name, v in samples.items()}


def per_layer(traced: dict, plain_run_s: float, traced_run_s: float, rss_mb: float) -> dict:
    """Per-layer metrics of one traced child as {name: (value, unit)}."""
    trace = traced["closing"]["trace"]
    calls, self_s, layer, counters = (trace[k] for k in ("calls", "self_s", "layer_self_s", "counters"))

    def n(name: str) -> int:
        return calls.get(name, 0)

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    table = counters.get("state_space.table_bytes", 0)
    search_s = layer.get("state_space", 0.0)
    op_total_s = sum(ms for ms, _ in traced["ops"].values()) / 1000.0
    gets, hits = counters.get("cache.gets", 0), counters.get("cache.hits", 0)
    cli_import_s = trace["cli_import_s"]
    return {
        "state_space.exact_gamma.self_s": (s("state_space.exact_gamma"), "s"),
        "state_space.exact_gamma.calls": (n("state_space.exact_gamma"), "count"),
        "state_space.distance.self_s": (s("state_space.distance"), "s"),
        "state_space.distance.calls": (n("state_space.distance"), "count"),
        "state_space.exact_H.self_s": (s("state_space.exact_H"), "s"),
        "state_space.self_share": (search_s / op_total_s if op_total_s else 0.0, "ratio"),
        "state_space.table_bytes": (table, "B"),
        "state_space.table_states_per_s": (
            counters.get("state_space.table_states", 0) / search_s if search_s else 0.0,
            "1/s",
        ),
        "state_space.rss_over_table": (rss_mb * 2**20 / table if table else 0.0, "ratio"),
        "state_space.cap_exceeded": (counters.get("state_space.cap_exceeded", 0), "count"),
        "cache.get.calls": (n("cache.ResultCache.get"), "count"),
        "cache.hit_ratio": (hits / gets if gets else 0.0, "ratio"),
        "cache.warm_hit_ratio": (
            trace["warm_hits"] / trace["warm_gets"] if trace["warm_gets"] else 0.0,
            "ratio",
        ),
        "cache.load_s": (s("cache.ResultCache._load"), "s"),
        "cache.save_s": (s("cache.ResultCache.save"), "s"),
        "cache.file_bytes": (traced["closing"]["cache_file_bytes"], "B"),
        "cli.import_s": (cli_import_s if cli_import_s is not None else traced["setup"]["import_s"], "s"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "cli.exit_nonzero": (trace["exit_nonzero"], "count"),
        "frame_stewart.phi_spectrum.self_s": (s("frame_stewart.phi_spectrum"), "s"),
        "frame_stewart.phi_spectrum.calls": (n("frame_stewart.phi_spectrum"), "count"),
        "frame_stewart.phi_recursive.self_s": (s("frame_stewart.phi_recursive"), "s"),
        "frame_stewart.phi_recursive.calls": (n("frame_stewart.phi_recursive"), "count"),
        "frame_stewart.frame_stewart_path.self_s": (s("frame_stewart.frame_stewart_path"), "s"),
        "numerics.delta.calls": (n("numerics.delta"), "count"),
        "numerics.nabla.calls": (n("numerics.nabla"), "count"),
        "numerics.nabla.self_s": (s("numerics.nabla"), "s"),
        "bounds.build_report.self_s": (s("bounds.build_report"), "s"),
        "bounds.dp_lower_bounds.self_s": (s("bounds.dp_lower_bounds"), "s"),
        "bounds.dp_lower_bounds.calls": (n("bounds.dp_lower_bounds"), "count"),
        "potential.psi.self_s": (s("potential.psi"), "s"),
        "potential.psi.calls": (n("potential.psi"), "count"),
        "potential.check_removal_bound.calls": (n("potential.check_removal_bound"), "count"),
        "potential.check_union_bound.calls": (n("potential.check_union_bound"), "count"),
        "constructions.self_s": (layer.get("constructions", 0.0), "s"),
        "constructions.moves_emitted": (counters.get("constructions.moves_emitted", 0), "count"),
        "core.MovePath.replay.self_s": (s("core.MovePath.replay"), "s"),
        "core.moves_replayed": (counters.get("core.moves_replayed", 0), "count"),
        "dyadic.compare.calls": (
            n("dyadic.DyadicRational.__eq__") + n("dyadic.DyadicRational.__lt__"),
            "count",
        ),
        "trace.overhead_s": (traced_run_s - plain_run_s, "s"),
        "trace.spans": (trace["spans"], "count"),
    }


def cache_sizes() -> dict:
    """L2 and L3 sizes in bytes as the kernel reports them for cpu0."""
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        sizes[f"l{level}_bytes"] = int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
    return {key: sizes.get(key) for key in ("l2_bytes", "l3_bytes")}


def machine(children: list[dict]) -> dict:
    def conf(name: str):
        try:
            return os.sysconf(name)
        except (ValueError, OSError):
            return None

    setup = next((c["setup"] for c in children if c["setup"]), {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": setup.get("python"),
        "numpy": setup.get("numpy"),
        "mem_total_bytes": (conf("SC_PHYS_PAGES") or 0) * (conf("SC_PAGE_SIZE") or 0),
        **cache_sizes(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hanoi_bounds" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hanoi_bounds'}; run from a checkout root", file=sys.stderr)
        return 2

    ops = workloads.plan(args.workload, args.seed)
    modes = ("plain", "traced") if args.trace else ("plain",)
    pairs, children = run_children(args, modes)
    setups = [child for _, child in pairs]
    plain = [c for c in children if c["mode"] == "plain"]
    traced = [c for c in children if c["mode"] == "traced"]

    attempted = len(ops) * len(children)
    failed = sum(len(ops) - sum(1 for _, error in c["ops"].values() if error is None) for c in children)
    probes = [probe for c in children if c["closing"] for probe in c["closing"]["probes"]]
    correct = (
        failed == 0
        and all(c["rc"] == 0 and c["closing"] for c in children)
        and all(control_s and c["rc"] == 0 and c["setup"] for control_s, c in pairs)
        and all(probe["state"] in ("known", "fixed") for probe in probes)
    )

    values, counts = end_to_end(pairs, plain)
    if args.trace:
        traced_run_s = statistics.median(run_time(c) for c in traced)
        rows = [
            per_layer(c, values["run_s"], traced_run_s, values["peak_rss_mb"])
            for c in traced
            if c["closing"]
        ]
        metrics = {
            name: {"value": statistics.median(row[name][0] for row in rows), "unit": unit}
            for name, (_, unit) in (rows[0].items() if rows else ())
        }
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    print(f"# workload {args.workload}  seed {args.seed}  runs {len(plain)} untraced, {len(traced)} traced, "
          f"{len(pairs)} set-up pairs  ops/run {len(ops)}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"# {name:<12} {values[name]:>12.4f} {unit:<3} n={counts[name]}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"# {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    failures = {}
    by_key: dict[str, list[float]] = {}
    for child in children:
        for index, (ms, error) in child["ops"].items():
            if child["mode"] == "plain":
                by_key.setdefault(ops[index].key, []).append(ms)
            if error is not None:
                failures.setdefault(ops[index].key, error)
    for key, error in failures.items():
        print(f"# FAILED {key}: {error}")
    for probe in probes[:1]:
        print(f"# probe {probe['probe']}: {probe['state']} (exit {probe['rc']})")

    table_bytes = {op.key: workloads.table_bytes(op) for op in ops}
    host = machine(setups + children)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "samples": counts,
        "ops": {
            key: {"median_ms": statistics.median(ms), "count": len(ms), "table_bytes": table_bytes[key]}
            for key, ms in by_key.items()
        },
        # the two medians setup_s is made from, for checking the host's drift
        "setup_raw_s": median_or_none([c["setup"]["setup_s"] for c in setups if c["setup"]]),
        "control_s": median_or_none([control_s for control_s, _ in pairs if control_s]),
        "probes": probes[:1],
        "machine": host,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
