import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import hanoi_bounds
from hanoi_bounds import cli
from hanoi_bounds.cache import ENGINE_VERSION, ResultCache
from hanoi_bounds.core import path_from_json_dict
from hanoi_bounds.frame_stewart import phi_spectrum


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HANOI_CACHE_DIR", str(tmp_path))
    return tmp_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_single_value(capsys):
    code, out, _ = run(capsys, "phi", "--pegs", "4", "--disks", "3")
    assert code == 0
    assert out.strip() == "5"


def test_phi_all_methods_agree(capsys):
    code, out, _ = run(capsys, "phi", "--pegs", "4", "--disks", "10", "--method", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:3] == ["recursive 49", "spectrum 49", "closed 49"]
    assert lines[-1] == "agreement ok"


def test_phi_prints_past_the_int_digit_limit(capsys):
    # Phi(4, 2e8) has about 6,000 digits, past Python's default limit of
    # 4,300; main() lifts the limit only while the command runs
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "phi", "--pegs", "4", "--disks", "200000000")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    assert len(out.strip()) > 4300
    sys.set_int_max_str_digits(0)
    try:
        assert out.strip() == str(phi_spectrum(4, 200_000_000))
    finally:
        sys.set_int_max_str_digits(limit)


def test_phi_recursive_past_the_recursion_limit(capsys):
    # min(p, n) above the default recursion limit of 1000: the rows are
    # built by a loop, where a recursion over pegs ended in RecursionError
    outputs = {}
    for method in ("recursive", "closed"):
        code, outputs[method], _ = run(
            capsys, "phi", "--pegs", "1100", "--disks", "1100", "--method", method
        )
        assert code == 0, method
    assert outputs["recursive"] == outputs["closed"] == "2201\n"


def test_phi_recursive_past_the_disk_limit_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "phi", "--pegs", "4", "--disks", "1000001", "--method", "recursive"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "MAX_RECURSIVE_DISKS" in err


def test_phi_too_large_to_build_is_a_usage_error(capsys):
    # every route refuses before building: recursive's rows would exhaust
    # memory, spectrum's sum would run for ever; all runs recursive first
    for method in ("closed", "recursive", "spectrum", "all"):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "phi", "--pegs", "8", "--disks", str(10**100), "--method", method
        )
        assert time.perf_counter() - start < 1, method
        assert code == 2, method
        assert out == ""
        limit = "MAX_RECURSIVE_DISKS" if method in ("recursive", "all") else "MAX_PHI_EXPONENT"
        assert err.startswith("error: ") and limit in err, method
    # the largest Phi the benchmark asks for, 13,467 digits, still prints
    code, out, _ = run(capsys, "phi", "--pegs", "4", "--disks", str(10**9))
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert out.strip() == str(phi_spectrum(4, 10**9))
    finally:
        sys.set_int_max_str_digits(limit)


def test_phi_closed_any_peg_count(capsys):
    code, out, _ = run(capsys, "phi", "--pegs", "5", "--disks", "5", "--method", "closed")
    assert code == 0
    assert out.strip() == "11"


def test_phi_at_any_peg_count(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "phi", "--pegs", "20000", "--disks", "5")
    assert (code, out) == (0, "9\n")
    assert time.perf_counter() - start < 5
    # past 2**15 pegs, where closed once refused, every route answers
    for method in ("closed", "recursive", "spectrum"):
        code, out, _ = run(capsys, "phi", "--pegs", "32769", "--disks", "5", "--method", method)
        assert (code, out) == (0, "9\n"), method


def test_phi_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["phi", "--pegs", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_gamma_formula_only(capsys):
    code, out, _ = run(capsys, "gamma", "--pegs", "3", "--disks", "5")
    assert code == 0
    assert out.strip() == "9"


def test_gamma_conjectured_marker(capsys):
    code, out, _ = run(capsys, "gamma", "--pegs", "5", "--disks", "4")
    assert code == 0
    assert out.strip() == "4 (conjectured)"


def test_gamma_exact(capsys, cache_dir):
    code, out, _ = run(capsys, "gamma", "--pegs", "4", "--disks", "7", "--exact")
    assert code == 0
    assert "formula 8" in out
    assert "exact   8" in out
    assert "match" in out


def test_gamma_exact_cap_exit_code(capsys, monkeypatch, cache_dir):
    monkeypatch.setenv("HANOI_PRODUCT_CAP", "10")
    code, _, err = run(capsys, "gamma", "--pegs", "4", "--disks", "5", "--exact", "--no-cache")
    assert code == 3
    assert "cap" in err.lower()


def test_gamma_exact_beyond_physical_memory_exit_code(capsys, cache_dir):
    # a cap of 2**62 allows the 10 TB table; the byte count refuses it
    code, _, err = run(
        capsys, "gamma", "--pegs", "5", "--disks", "13", "--exact", "--no-cache",
        "--product-cap", str(2**62),
    )
    assert code == 3
    assert "physical memory" in err


def test_bounds_json_round_trip(capsys):
    code, out, _ = run(capsys, "bounds", "--pegs", "5", "--disks", "121", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["main2"] == {"mantissa": "1", "exponent": 5, "ceil": "32"}
    assert data["gamma_formula_status"] == "conjectured"
    from hanoi_bounds.bounds import bound_report_from_json_dict, build_report

    assert bound_report_from_json_dict(data) == build_report(5, 121)


def test_bounds_table_mentions_ceil(capsys):
    code, out, _ = run(capsys, "bounds", "--pegs", "4", "--disks", "1")
    assert code == 0
    assert "1*2^-1 (ceil 1)" in out


def test_bounds_past_the_dp_limit_is_a_usage_error(capsys):
    # the dp row is refused before it is built, so this exits at once
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "--pegs", "5", "--disks", str(10**12))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "MAX_DP_DISKS" in err


def test_decompose_text_and_json(capsys):
    code, out, _ = run(capsys, "decompose", "--pegs", "5", "--disks", "17")
    assert code == 0
    assert out.strip() == "m=3 t=3 r=0"
    code, out, _ = run(capsys, "decompose", "--pegs", "5", "--disks", "17", "--json")
    assert json.loads(out) == {"p": 5, "N": 17, "m": 3, "t": 3, "r": 0}


def test_decompose_rejects_three_pegs(capsys):
    code, _, err = run(capsys, "decompose", "--pegs", "3", "--disks", "5")
    assert code == 2
    assert "error" in err


def test_psi_value(capsys):
    code, out, _ = run(capsys, "psi", "--set", "0")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "psi", "--set", "")
    assert out.strip() == "0"


def test_distance(capsys):
    code, out, _ = run(
        capsys, "distance", "--pegs", "4", "--start", "0,0,0,0", "--end", "3,3,3,3"
    )
    assert code == 0
    assert out.strip() == "9"


def test_distance_cap_exit_code(capsys):
    code, _, err = run(
        capsys,
        "distance",
        "--pegs", "4",
        "--start", "0,0,0,0,0,0",
        "--end", "3,3,3,3,3,3",
        "--state-cap", "10",
    )
    assert code == 3
    assert "cap" in err.lower()


def test_caps_below_one_are_usage_errors(capsys, cache_dir):
    for cap in ("0", "-5"):
        code, _, err = run(
            capsys, "distance", "--pegs", "4", "--start", "0,0", "--end", "3,3",
            "--state-cap", cap,
        )
        assert code == 2
        assert "at least 1" in err
    code, _, err = run(
        capsys, "gamma", "--pegs", "4", "--disks", "3", "--exact", "--no-cache",
        "--product-cap", "-1",
    )
    assert code == 2
    assert "at least 1" in err


def test_distance_past_the_search_limit_is_usage_error(capsys):
    code, _, err = run(capsys, "distance", "--pegs", "9", "--start", "0", "--end", "8")
    assert code == 2
    assert "peg count" in err


def test_construct_main1_move_lines(capsys):
    code, out, _ = run(capsys, "construct", "--kind", "main1", "--disks", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    for line in lines:
        disk, src, dst = line.split()
        assert 0 <= int(disk) < 7
        assert src != dst


def test_construct_json_envelope_round_trip(capsys):
    code, out, _ = run(capsys, "construct", "--kind", "two1", "--disks", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"p", "start", "moves", "length", "essential"}
    path = path_from_json_dict(data)
    assert path.length == data["length"] == 4
    path.replay()


def test_construct_verify_reports(capsys):
    code, out, err = run(
        capsys, "construct", "--kind", "midpoint", "--disks", "4", "--verify"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 6
    assert "verified: legal, length 6" in err


def test_construct_past_the_move_limit_is_a_usage_error(capsys):
    # the closed-form length is checked before any move is emitted; two1 at
    # 10**5 disks used to run until the machine ran out of memory
    for kind, disks in (("two1", 10**5), ("main1", 204), ("midpoint", 186)):
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "--kind", kind, "--disks", str(disks))
        assert time.perf_counter() - start < 1.0, kind
        assert code == 2, kind
        assert out == ""
        assert "MAX_PATH_MOVES" in err


# hanoi_bounds.cli.main in a fresh interpreter where importing numpy fails,
# so a command passes only if it never imports the search engine
_WITHOUT_NUMPY = (
    "import sys; sys.modules['numpy'] = None; "
    "from hanoi_bounds.cli import main; sys.exit(main(sys.argv[1:]))"
)


def _run_without_numpy(cache_dir, *argv):
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(hanoi_bounds.__file__).resolve().parents[1]),
        HANOI_CACHE_DIR=str(cache_dir),
    )
    return subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--pegs", "5", "--disks", "1000"),
        ("psi", "--set", "0,1,4,90"),
        ("decompose", "--pegs", "5", "--disks", "17"),
        ("bounds", "--pegs", "5", "--disks", "121", "--json"),
        ("construct", "--kind", "main1", "--disks", "7", "--verify"),
        ("verify", "--suite", "phi", "--max-disks", "20"),
    ],
)
def test_commands_without_a_search_run_without_numpy(capsys, cache_dir, argv):
    blocked = _run_without_numpy(cache_dir, *argv)
    assert blocked.returncode == 0, blocked.stderr
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, blocked.stdout, blocked.stderr)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "szegedy", "--max-disks", "5"),
        ("gamma", "--pegs", "4", "--disks", "6", "--exact"),
        ("verify", "--suite", "bousch-h4", "--max-disks", "5"),
    ],
)
def test_warm_cache_hits_run_without_numpy(capsys, cache_dir, argv):
    # the cold run searches and fills the cache; the warm run, answered
    # from the cache, never imports the search engine
    code, cold, _ = run(capsys, *argv)
    assert code == 0
    warm = _run_without_numpy(cache_dir, *argv)
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold


def test_verify_suite_json(capsys, cache_dir):
    code, out, _ = run(
        capsys, "verify", "--suite", "bousch-h4", "--max-disks", "5", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["counts"]["PASS"] == 5
    assert all(case["status"] == "PASS" for case in data["cases"])


def test_verify_suite_text_summary(capsys, cache_dir):
    code, out, _ = run(capsys, "verify", "--suite", "szegedy", "--max-disks", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS gamma(3,0)")
    assert lines[-1] == "suite=szegedy total=6 pass=6 fail=0 finding=0 skip=0"


def test_verify_populates_and_reuses_cache(capsys, cache_dir):
    code, _, _ = run(capsys, "verify", "--suite", "main1", "--max-disks", "4")
    assert code == 0
    cache_file = cache_dir / "results.json"
    assert cache_file.exists()
    entries = json.loads(cache_file.read_text())["entries"]
    key = f"gamma:p4:n4:e{ENGINE_VERSION}"
    assert entries[key] == 4
    # a poisoned cache value is trusted (advisory store, bypassed by --no-cache)
    entries[key] = 999
    cache_file.write_text(json.dumps({"engine": ENGINE_VERSION, "entries": entries}))
    code, out, _ = run(capsys, "verify", "--suite", "main1", "--max-disks", "4")
    assert code == 1
    assert "FAIL gamma(4,4)" in out
    code, out, _ = run(capsys, "verify", "--suite", "main1", "--max-disks", "4", "--no-cache")
    assert code == 0


def test_result_cache_survives_corrupt_file(tmp_path):
    target = tmp_path / "results.json"
    target.write_text("{ not json")
    cache = ResultCache(directory=tmp_path)
    assert cache.get("H", 4, 4) is None
    cache.put("H", 4, 4, 9)
    cache.save()
    assert json.loads(target.read_text())["entries"] == {f"H:p4:n4:e{ENGINE_VERSION}": 9}


def test_result_cache_save_prunes_other_engine_versions(tmp_path):
    target = tmp_path / "results.json"
    stale = {"gamma:p4:n9:e1": 12, "H:p4:n4:e2": 9}
    target.write_text(json.dumps({"engine": 2, "entries": stale}))
    cache = ResultCache(directory=tmp_path)
    assert cache.get("H", 4, 4) is None
    cache.put("gamma", 4, 4, 4)
    cache.save()
    assert json.loads(target.read_text())["entries"] == {f"gamma:p4:n4:e{ENGINE_VERSION}": 4}


def test_result_cache_save_merges_concurrent_writers(tmp_path):
    first = ResultCache(directory=tmp_path)
    second = ResultCache(directory=tmp_path)
    first.put("H", 4, 4, 9)
    second.put("gamma", 4, 4, 5)
    first.save()
    second.save()
    third = ResultCache(directory=tmp_path)
    assert third.get("H", 4, 4) == 9
    assert third.get("gamma", 4, 4) == 5


def test_result_cache_concurrent_saves_lose_no_entry(tmp_path):
    # more savers than cores, switching often: an unlocked read-merge-replace
    # would drop entries written between another saver's read and replace
    def saver(worker):
        for n in range(20):
            cache = ResultCache(directory=tmp_path)
            cache.put("H", worker, n, n)
            cache.save()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=saver, args=(worker,)) for worker in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    merged = ResultCache(directory=tmp_path)
    assert all(merged.get("H", worker, n) == n for worker in range(6) for n in range(20))


def test_verify_conjecture5_suite(capsys, cache_dir):
    code, out, _ = run(capsys, "verify", "--suite", "conjecture5", "--max-disks", "3")
    assert code == 0
    assert "fail=0" in out


@pytest.mark.parametrize("suite, limit", [("main1", "-3"), ("phi", "-3"), ("lemmas", "0")])
def test_verify_max_disks_below_one_is_usage_error(capsys, suite, limit):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", suite, "--max-disks", limit, "--json"])
    assert exc.value.code == 2
    assert "--max-disks" in capsys.readouterr().err


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
