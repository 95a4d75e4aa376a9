"""What the benchmark in ``perfbench/`` relies on, checked without running it.

The benchmark wraps library functions by name and pins the case counts of
every verification suite; a change that breaks either would only show when
the benchmark runs.  Nothing under ``perfbench/`` is modified here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hanoi_bounds import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_tracer_installs():
    # every function the tracer wraps must still exist under its name
    paths = [str(PERFBENCH), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import tracing; tracing.install(tracing.Recorder())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


PINNED_COUNTS = json.loads((PERFBENCH / "pinned.json").read_text())["verify_counts"]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    # one cache for the module, so each search runs once across the suites
    return tmp_path_factory.mktemp("results")


@pytest.mark.parametrize("suite", list(PINNED_COUNTS))
def test_verify_counts_match_the_pinned_ones(suite, cache_dir, capsys, monkeypatch):
    monkeypatch.setenv("HANOI_CACHE_DIR", str(cache_dir))
    code = cli.main(["verify", "--suite", suite, "--max-disks", "6", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["counts"] == PINNED_COUNTS[suite]
