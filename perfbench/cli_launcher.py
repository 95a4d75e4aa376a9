"""Run the hanoi-bounds CLI with spans installed, for traced sessions.

    python3 cli_launcher.py SPANS_PATH CLI_ARGS...

Behaves like ``python -m hanoi_bounds.cli CLI_ARGS...`` (same output, same
exit code) and writes the summary of the process's spans to SPANS_PATH
(JSON) on exit.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import tracing


def main() -> int:
    spans_path = Path(sys.argv[1])
    start = time.perf_counter()
    import hanoi_bounds.cli as cli

    import_s = time.perf_counter() - start
    recorder = tracing.Recorder()
    tracing.install(recorder)
    rc = 1
    try:
        rc = cli.main(sys.argv[2:])
    except SystemExit as exc:  # argparse exits on usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.dump(spans_path, {"import_s": import_s, "rc": rc})
    return rc


if __name__ == "__main__":
    sys.exit(main())
