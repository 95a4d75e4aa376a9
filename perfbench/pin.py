"""Regenerate ``pinned.json``, the recorded answers ``reference`` cannot
derive from a formula.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only at a commit whose answers are trusted: each value it writes
becomes a reference that later commits are checked against.  Every pinned
search value for p >= 5 must also agree with the conjectured formulas,
which ``reference.self_check`` verifies.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import hanoi_bounds as hb

import reference
import workloads


def main() -> int:
    pinned = {
        "gamma": {f"{p},{n}": hb.exact_gamma(p, n) for p, n in workloads.GAMMA_CASES if p >= 5},
        "H": {f"{p},{n}": hb.exact_H(p, n) for p, n in workloads.H_CASES if p >= 5},
        "dp_lower": {
            f"{p},{n}": hb.dp_lower_bound(p, n) for p, n in workloads.REPORT_CASES + ((5, 1500),)
        },
        "verify_counts": {},
        "distance": {},
    }
    for suite in workloads.VERIFY_SUITES:
        out = subprocess.run(
            [sys.executable, "-m", "hanoi_bounds.cli", "verify", "--suite", suite,
             "--max-disks", str(workloads.VERIFY_MAX_DISKS), "--json", "--no-cache"],
            capture_output=True, text=True, check=True,
        ).stdout
        pinned["verify_counts"][suite] = json.loads(out)["counts"]
    pairs = [op.args for op in workloads.plan("h-bidirectional", 0) if op.kind == "distance"]
    for p, start, end, _, index in sorted(pairs, key=lambda args: args[4]):
        row = pinned["distance"].setdefault(f"{p},{len(start)}", [])
        row.append(hb.distance(hb.Configuration(p, start), hb.Configuration(p, end)))
    (op,) = [op for op in workloads.plan("cli-session", 0) if op.key == "distance 4x10"]
    start, end = (tuple(int(x) for x in op.args[i].split(",")) for i in (4, 6))
    pinned["cli_distance"] = hb.distance(hb.Configuration(4, start), hb.Configuration(4, end))
    path = Path(reference.__file__).with_name("pinned.json")
    path.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    reference.PINNED.update(pinned)
    reference.self_check()
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
