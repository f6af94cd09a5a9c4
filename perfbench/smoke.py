"""Smoke test of the benchmark at reduced size (a few seconds).

    python3 perfbench/smoke.py

Checks that run.py, for every workload traced and untraced,
  - exits 0 and ends its output with a result object of exactly the keys
    correct, attempted, failed and metrics, with correct true;
  - reports exactly the metrics BENCHMARK.json names (end_to_end untraced,
    per_layer traced), each with the unit BENCHMARK.json gives it;
  - prints every one of them, plus fail_frac and the stream's rates, as a
    "name = value unit" line;
that a tampered expected value is counted in fail_frac and makes the
result incorrect; and that run.py fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's files.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.SPEC
SECONDS = "0.1"


def _printed(out: str) -> dict[str, str]:
    """name -> unit of every "name = value unit" line."""
    return dict(re.findall(r"^\s+(\S+) = \S+ (\S+)", out, re.M))


def check_run(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace), "--size", "small"],
        capture_output=True, text=True, timeout=170,
    )
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, where
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{where}: metrics {got} != {wanted}"
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)), where
    printed = _printed(proc.stdout)
    wanted["fail_frac"] = "frac"
    if workload == "stream" and not trace:
        wanted.update({name: "1/s" for name in run.STREAM_RATES})
    for name, unit in wanted.items():
        assert printed.get(name) == unit, f"{where}: {name} not printed with unit {unit}"


def check_tampering() -> None:
    """A wrong frozen answer must surface as failed operations."""
    key = ("search-deepening", "small")
    argv, value, witness = workloads.SEARCH[key]
    hyper_point = workloads.HYPER_POINTS["small"][0]
    workloads.SEARCH[key] = (argv, value + 1, witness)
    workloads.HYPER[hyper_point] += 1
    try:
        for workload in ("search-deepening", "stream"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                result = run.measure(workload, 7, float(SECONDS), False, "small")
            assert result["correct"] is False and result["failed"] >= 1, workload
            fail_frac = float(re.search(r"fail_frac = (\S+)", out.getvalue()).group(1))
            # printed to 6 significant digits
            assert math.isclose(fail_frac, result["failed"] / result["attempted"], rel_tol=1e-5), workload
    finally:
        workloads.SEARCH[key] = (argv, value, witness)
        workloads.HYPER[hyper_point] -= 1


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail, not report."""
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable] + SPEC["command"][1:] + ["--workload", "stream", "--seed", "1",
                                                      "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok  {workload} --trace {trace}")
    check_tampering()
    print("ok  tampered expectations are counted in fail_frac")
    check_bare_directory()
    print("ok  no result without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
