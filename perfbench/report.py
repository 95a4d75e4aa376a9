"""Run every workload once and print all metrics side by side.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Prints each end-to-end metric per workload with its unit and sample count,
the correctness tally and known-defect probes, per-op median times keyed
by call (the rows of the ROADMAP baseline that fall inside the workloads),
each search's computed table size next to the host's L2 and L3, and,
with --trace, the per-layer metrics.  The last line repeats everything as
one JSON object, for saving and diffing between commits.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

import workloads  # noqa: E402  (lives beside this file)


def run(workload: str, args, trace: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    lines = subprocess.run(command, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true", help="also make a traced run of each workload")
    args = parser.parse_args()

    results = {}
    for workload in workloads.WORKLOADS:
        detail, result = run(workload, args, 0)
        results[workload] = {"detail": detail, "result": result}
        if args.trace:
            results[workload]["layers"] = run(workload, args, 1)[1]["metrics"]

    host = next(iter(results.values()))["detail"]["machine"]
    print("machine: " + "  ".join(f"{k}={v}" for k, v in host.items()))
    print(f"\n{'workload':<16} {'metric':<12} {'value':>12} {'unit':<5} {'n':>5}")
    for workload, entry in results.items():
        samples = entry["detail"]["samples"]
        for name, metric in entry["result"]["metrics"].items():
            print(f"{workload:<16} {name:<12} {metric['value']:>12.4f} {metric['unit']:<5} {samples[name]:>5}")
    print(f"\n{'workload':<16} {'correct':<8} {'attempted':>9} {'failed':>7}  probes")
    for workload, entry in results.items():
        result = entry["result"]
        probes = ", ".join(f"{p['probe']}: {p['state']} (exit {p['rc']})" for p in entry["detail"]["probes"])
        print(f"{workload:<16} {str(result['correct']):<8} {result['attempted']:>9} {result['failed']:>7}  {probes}")

    l2, l3 = host.get("l2_bytes"), host.get("l3_bytes")
    print(f"\n{'call':<32} {'median ms':>11} {'n':>5} {'table MiB':>9} {'vs L2':>7} {'vs L3':>7}")
    for entry in results.values():
        for key, op in entry["detail"]["ops"].items():
            table = op["table_bytes"]
            ratios = [f"{table / c:7.2f}" if table and c else f"{'':>7}" for c in (l2, l3)]
            size = f"{table / 2**20:9.2f}" if table else f"{'':>9}"
            print(f"{key:<32} {op['median_ms']:>11.2f} {op['count']:>5} {size} {ratios[0]} {ratios[1]}")

    if args.trace:
        names = list(next(iter(results.values()))["layers"])
        print(f"\n{'per-layer metric':<42}" + "".join(f"{w:>17}" for w in results))
        for name in names:
            row = "".join(f"{entry['layers'][name]['value']:>17.6g}" for entry in results.values())
            print(f"{name:<42}{row}")
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "machine": host, "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
