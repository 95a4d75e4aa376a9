"""One measured run of a workload, in a fresh interpreter.

    python3 child.py WORKLOAD SEED T0 TMPDIR MODE

T0 is the parent's ``time.monotonic()`` just before the spawn, so set-up
time includes interpreter start.  MODE is ``setup`` (stop once the inputs
exist), ``plain`` or ``traced``.  Output is one JSON object per line: the
set-up record, one record per op as it completes (so a killed run still
reports what it did), and a closing record.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

t_import = time.perf_counter()
import numpy  # noqa: E402  (part of the measured import)
import hanoi_bounds as hb  # noqa: E402

IMPORT_S = time.perf_counter() - t_import

import tracing  # noqa: E402
import workloads  # noqa: E402


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def summarize(spans_dir: Path, ops: list) -> dict:
    """Calls, self times and counters added up over the span summaries
    that each process of the run wrote."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    counters: dict[str, float] = {}
    cli_imports, exit_nonzero, spans = [], 0, 0
    warm_gets = warm_hits = 0
    for path in sorted(spans_dir.glob("*.json")):
        summary = json.loads(path.read_text(encoding="utf-8"))
        spans += summary["spans"]
        for total, part in ((calls, summary["calls"]), (self_s, summary["self_s"]), (layer_self, summary["layer_self_s"])):
            for name, value in part.items():
                total[name] = total.get(name, 0) + value
        for name, value in summary["counters"].items():
            if name == "state_space.table_bytes":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        meta = summary["meta"]
        if "rc" in meta:  # a CLI process
            cli_imports.append(meta["import_s"])
            exit_nonzero += meta["rc"] != 0
            if path.stem.startswith("op-") and ops[int(path.stem[3:])].key.endswith(" warm"):
                warm_gets += summary["counters"].get("cache.gets", 0)
                warm_hits += summary["counters"].get("cache.hits", 0)
    return {
        "calls": calls,
        "self_s": self_s,
        "layer_self_s": layer_self,
        "counters": counters,
        "cli_import_s": sorted(cli_imports)[len(cli_imports) // 2] if cli_imports else None,
        "exit_nonzero": exit_nonzero,
        "warm_gets": warm_gets,
        "warm_hits": warm_hits,
        "spans": spans,
    }


def main() -> int:
    workload, seed, t0, tmp, mode = sys.argv[1:6]
    seed, t0, tmp = int(seed), float(t0), Path(tmp)
    ops = workloads.plan(workload, seed)
    traced = mode == "traced"
    spans_dir = tmp / "spans"
    ctx = workloads.Context(hb, spans_dir if traced else None, deadline=float(os.environ["PERFBENCH_DEADLINE"]))
    run = workloads.run
    recorder = None
    if traced:
        recorder = tracing.Recorder()
        tracing.install(recorder)
        run = recorder.wrap(workloads.run, "bench.op")
    emit(
        {
            "setup_s": time.monotonic() - t0,
            "import_s": IMPORT_S,
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
        }
    )
    if mode == "setup":
        return 0
    for index, op in enumerate(ops):
        start = time.perf_counter()
        error = None
        # every failure is an op outcome, never a harness crash
        try:
            result = run(ctx, index, op)
        except Exception as exc:
            error = exc
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                workloads.check(op, result)
            except Exception as exc:
                error = exc
        emit({"op": index, "ms": elapsed * 1000.0, "error": error and f"{type(error).__name__}: {error}"[:300]})
    probes = workloads.probes(ctx, workload)
    done = time.monotonic() - t0
    cache_file = tmp / "cache" / "results.json"
    closing = {
        "done_s": done,
        "rss_mb": peak_rss_mb(),
        "probes": probes,
        "cache_file_bytes": cache_file.stat().st_size if cache_file.exists() else 0,
    }
    if recorder is not None:
        recorder.dump(spans_dir / "client.json", {"import_s": IMPORT_S})
        closing["trace"] = summarize(spans_dir, ops)
    emit(closing)
    return 0


if __name__ == "__main__":
    sys.exit(main())
