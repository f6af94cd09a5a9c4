"""satgraph benchmark: exact search and CLI stream workloads, end to end
and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the reasons are in BENCHMARK.json):
  search-deepening     `satgraph search --n 9 --p 3 --t 2`
  search-single-level  `satgraph search --n 10 --p 4 --t 5 --mode semi`
  stream               verify (small graphs), verify and certify (large
                       relabelled constructions), then `hyper saturated`
  all                  the three above in turn, with a combined result line

Each repetition runs in a fresh interpreter (worker.py) that imports the
package from ./src, generates the seed's inputs and calls
`satgraph.cli.main` in process with the CLI's default flags.  Repetitions
run until --seconds is used up (at least MIN_REPS); each metric is the
median over repetitions.  Every output is checked: a mismatch, a non-zero
exit the input does not call for, or an exception counts as a failed
operation and makes `correct` false.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics of the traced
ones; in that run `verify` is pinned to --threads 1 so that every span
lands in one process, and the spans of the last traced repetition are
written to .perfbench-out/.  The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
# A run must end within 180 s; no repetition may start past this point.
HARD_LIMIT_S = 150.0

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Printed for the stream workload only, so not in BENCHMARK.json, which
# holds metrics every workload reports.
STREAM_RATES = {
    "verify_small_lines_per_s": "verify_small",
    "verify_large_lines_per_s": "verify_large",
    "certify_lines_per_s": "certify",
    "hyper_builds_per_s": "hyper",
}


# -- checking ---------------------------------------------------------------

class Checker:
    """Counts checked operations and failures across the repetitions of a run.

    Expected values are read from `workloads` at check time, so a test can
    tamper with them.  Small-graph verdicts come from the reference oracle
    and are cached by line, since every repetition of a run sees the same
    inputs.
    """

    def __init__(self, workload: str, size: str):
        self.workload, self.size = workload, size
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[tuple[str, int], bool] = {}

    def rep(self, record: dict | None, ops_if_lost: int = 1) -> None:
        if record is None:
            self.attempted += ops_if_lost
            self._fail(ops_if_lost, "repetition produced no record")
            return
        for call in record["calls"]:
            self.attempted += call["ops"]
            bad = self._check_call(call)
            if bad:
                self._fail(bad, f"{' '.join(call['argv'])}: {bad} of {call['ops']} operations failed")

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def _verdict(self, line: str, p: int) -> bool:
        key = (line, p)
        if key not in self._verdicts:
            n, edges = oracle.decode(line)
            self._verdicts[key] = oracle.is_saturated(n, edges, p)
        return self._verdicts[key]

    def _check_call(self, call: dict) -> int:
        """Number of the call's operations that failed."""
        if call["error"] is not None:
            return call["ops"]
        try:
            return getattr(self, "_check_" + call["stage"])(call)
        except (ValueError, KeyError, TypeError, IndexError):
            # output that does not even parse fails every operation
            return call["ops"]

    def _check_search(self, call: dict) -> int:
        _, value, witness = workloads.SEARCH[(self.workload, self.size)]
        out = json.loads(call["stdout"])
        return int(call["rc"] != 0 or out["value"] != value or out["witness_graph6"] != witness)

    def _reports(self, call: dict) -> list[dict]:
        reports = [json.loads(x) for x in call["stdout"].splitlines()]
        if len(reports) != len(call["lines"]):
            raise ValueError("one report per input line expected")
        return reports

    def _check_verify_small(self, call: dict) -> int:
        want = [self._verdict(line, call["p"]) for line in call["lines"]]
        if call["rc"] != (0 if all(want) else 1):
            return call["ops"]
        reports = self._reports(call)
        return sum(rep["subject"] != line or rep["saturated"] is not ok
                   for rep, line, ok in zip(reports, call["lines"], want))

    def _check_verify_large(self, call: dict) -> int:
        if call["rc"] != 0:
            return call["ops"]
        reports = self._reports(call)
        return sum(rep["subject"] != line or rep["saturated"] is not True
                   for rep, line in zip(reports, call["lines"]))

    def _check_certify(self, call: dict) -> int:
        if call["rc"] != 0:
            return call["ops"]
        certs = self._reports(call)
        return sum(c["graph6"] != line or c["verified"] is not True or not c["bound"] <= c["edges"]
                   for c, line in zip(certs, call["lines"]))

    def _check_hyper(self, call: dict) -> int:
        want = workloads.HYPER[tuple(call["point"])]
        lines = call["stdout"].splitlines()
        header_m = int(lines[0].split()[2])
        meta = json.loads(lines[-1])
        return int(call["rc"] != 0 or header_m != want or meta["edges"] != want
                   or len(lines) != want + 2)


# -- repetitions --------------------------------------------------------------

def spawn(cfg: dict, timeout: float) -> dict | None:
    """Run worker.py in a fresh interpreter; return its record, or None if it
    failed or ran out of time (its whole process group is then killed)."""
    cfg = dict(cfg, launch=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    try:
        if proc.returncode == 0:
            return json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        pass
    sys.stderr.write(f"worker exited {proc.returncode}\n{err[-4000:]}")
    return None


def _stage_secs(record: dict, stage: str) -> tuple[float, int]:
    calls = [c for c in record["calls"] if c["stage"] == stage]
    return sum(c["secs"] for c in calls), sum(c["ops"] for c in calls)


def _wall(record: dict) -> float:
    return sum(c["secs"] for c in record["calls"])


def _nodes(call: dict) -> int:
    if call["stage"] != "search":
        return 0
    try:
        return json.loads(call["stdout"])["nodes"]
    except (ValueError, KeyError, TypeError):
        return 0  # the checker has already counted the broken output


def _slim(record: dict) -> dict:
    """The record without the outputs, which are checked and no longer needed."""
    calls = [{"stage": c["stage"], "ops": c["ops"], "secs": c["secs"], "nodes": _nodes(c)}
             for c in record["calls"]]
    return dict(record, calls=calls)


def _layers(record: dict) -> dict[str, float]:
    layers = dict(record["layers"])
    nodes = sum(c["nodes"] for c in record["calls"])
    layers["search.nodes"] = nodes
    layers["search.nodes_per_s"] = nodes / layers["search.s"] if layers["search.s"] else 0.0
    layers["trace.wall_s"] = _wall(record)
    return layers


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload; print its report and return the result object."""
    os.makedirs(OUT_DIR, exist_ok=True)
    checker = Checker(workload, size)
    cfg = {
        "root": ROOT, "workload": workload, "seed": seed, "size": size,
        "trace": False, "threads": 1 if trace and workload == "stream" else None,
        "spans_path": os.path.join(OUT_DIR, f"spans-{workload}-{size}.csv"),
    }
    start = time.monotonic()
    plain, traced, durations = [], [], []
    while True:
        # in a traced run, odd repetitions are traced and even ones are not
        is_traced = trace and len(durations) % 2 == 1
        t0 = time.monotonic()
        remaining = HARD_LIMIT_S + 20 - (t0 - start)
        record = spawn(dict(cfg, trace=is_traced), timeout=max(remaining, 5.0))
        durations.append(time.monotonic() - t0)
        checker.rep(record, ops_if_lost=max(
            [sum(c["ops"] for c in r["calls"]) for r in plain + traced] or [1]))
        if record is not None:
            (traced if is_traced else plain).append(_slim(record))
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_REPS or (trace and traced)
        if elapsed + statistics.median(durations) > (seconds if enough else HARD_LIMIT_S):
            break
    if not plain or (trace and not traced):
        print("no repetition completed; see stderr", file=sys.stderr)
        return {}

    reps = traced if trace else plain
    env = environment(seed, plain[0]["sizes"])
    print(f"workload {workload} (size {size}, seed {seed}): {len(plain)} untraced"
          + (f" and {len(traced)} traced" if trace else "") + " repetitions, each in a fresh interpreter")
    if trace and workload == "stream":
        print("traced run: verify pinned to --threads 1 in every repetition so all spans land in one process")
    metrics: dict[str, dict] = {}
    if trace:
        table = [_layers(r) for r in traced]
        untraced_wall = statistics.median([_wall(r) for r in plain])
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                value = statistics.median([t["trace.wall_s"] for t in table]) / untraced_wall - 1
            elif name == "trace.untraced_wall_s":
                value = untraced_wall
            else:
                value = statistics.median([t[name] for t in table])
            metrics[name] = {"value": value, "unit": unit}
        if traced[-1].get("unwrapped"):
            print(f"names not found, so not traced: {traced[-1]['unwrapped']}")
        print(f"spans of the last traced repetition: {os.path.relpath(cfg['spans_path'], ROOT)}")
        bases = {"canon.repeat_frac": "canon.calls", "graphs.clique_hit_frac": "graphs.clique_calls",
                 "verify.leaf_hit_frac": "verify.leaf_checks", "trace.overhead_frac": "trace.untraced_wall_s"}
    else:
        columns = {
            "setup_s": [r["setup_s"] for r in reps],
            "wall_s": [_wall(r) for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(columns[name]), "unit": unit}
        bases = {}
        if workload == "stream":
            for name, stage in STREAM_RATES.items():
                rates = [ops / secs for secs, ops in (_stage_secs(r, stage) for r in reps)]
                columns[name] = rates
                _print_metric(name, statistics.median(rates), "1/s", rates)
        for name in END_TO_END:
            _print_metric(name, metrics[name]["value"], END_TO_END[name], columns[name])
    fail_frac = checker.failed / max(checker.attempted, 1)
    _print_metric("fail_frac", fail_frac, "frac", None,
                  f"{checker.failed} failed of {checker.attempted} checked operations")
    if trace:
        for name, m in metrics.items():
            base = f"base {bases[name]} = {metrics[bases[name]]['value']:.6g}" if name in bases else None
            _print_metric(name, m["value"], m["unit"], None, base)
    for why in checker.problems:
        print(f"FAILED: {why}")
    print("env " + json.dumps(env))
    return {
        "correct": checker.failed == 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": metrics,
    }


def _print_metric(name, value, unit, samples=None, note=None) -> None:
    line = f"  {name} = {value:.6g} {unit}"
    if samples:
        line += f"  (median of {len(samples)}; min {min(samples):.6g}, max {max(samples):.6g})"
    if note:
        line += f"  ({note})"
    print(line)


# -- environment ----------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    sha = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "satgraph")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                sha.update(name.encode() + b"\0" + fh.read())
    return sha.hexdigest()[:16]


def environment(seed: int, sizes: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "inputs": sizes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of one workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="'small' runs reduced inputs, for the smoke test")
    a = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "satgraph", "cli.py")):
        print(f"no satgraph sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if a.workload == "all" else (a.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, a.seed, a.seconds, bool(a.trace), a.size)
        if not results[name]:
            return 1
    if a.workload == "all":
        for name, res in results.items():
            print(f"{name} " + json.dumps(res))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[a.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
