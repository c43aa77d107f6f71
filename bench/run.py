"""teleport-sr benchmark: real CLI commands, timed end to end and by layer.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-gauss --seed 1 --seconds 20 --trace 0

Each operation is one fresh ``python3 bench/child.py`` process that imports
``teleport_sr`` from ``src``, validates the config (set-up) and then runs the
workload's CLI commands through ``teleport_sr.cli.main``.  Operations run one
at a time until ``--seconds`` have passed.  Every output is checked against
the scipy oracle in ``oracle.py`` outside the timed region.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` operations alternate between untraced and traced, and it
reports the per-layer metrics of the traced ones plus the tracing overhead.
The line before it holds the provenance and sample counts.  Exit code 2
means the package is missing or the arguments are wrong; 1 means the program
could not run a single operation.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import spans as span_tools

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CHANNEL = {"amplitude": 1.1, "threshold": 1.6}
GAUSS = {"kind": "gaussian", "mean": 0.0, "sigma": 1.0}
STABLE = {"kind": "alpha_stable", "alpha": 1.5, "skew": 0.5, "gamma": 1.0, "location": 0.0}
# (alpha, skew) of the optimum-stable families.
FAMILIES = ((1.5, 0.5), (1.8, -0.3), (1.2, 0.0), (0.8, 0.0))
SWEEP_SCALES = [0.01 + (3.0 - 0.01) * i / 60 for i in range(1, 61)]  # the CLI default grid
SIMULATE_SIGMA = 1.45
SIMULATE_TRIALS = 10_000_000
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Op:
    """One operation: a config, the CLI commands run on it, and the check."""

    config: dict
    commands: list
    check: object  # command records -> list of problems
    env: dict = field(default_factory=dict)


class Workload:
    name = ""

    def prepare(self, ask) -> None:
        """Get the oracle values through ``ask``; runs before timing starts."""

    def op(self, k: int, seed: int, out_dir: Path) -> Op:
        raise NotImplementedError


def _config(noise: dict, seed: int, **sweep) -> dict:
    cfg = {"state": "plus", "channel": dict(CHANNEL), "noise": dict(noise), "seed": seed}
    if sweep:
        cfg["sweep"] = sweep
    return cfg


def _stdout_json(record) -> dict:
    return json.loads(record["stdout"])


class SweepWorkload(Workload):
    def __init__(self, name: str, noise: dict, workers: int, check_peak: bool):
        self.name, self.noise, self.workers, self.check_peak = name, noise, workers, check_peak

    def prepare(self, ask):
        self.oracle_p = ask({"p": [[self.noise, s] for s in SWEEP_SCALES]})["p"]

    def op(self, k, seed, out_dir):
        def check(records):
            with open(out_dir / "sweep.json", encoding="utf-8") as handle:
                doc = json.load(handle)
            problems = [f"scale grid differs at row {i}" for i, (row, s) in
                        enumerate(zip(doc["rows"], SWEEP_SCALES)) if abs(row["scale"] - s) > 1e-9]
            csv_rows = (out_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
            if len(csv_rows) != len(SWEEP_SCALES) + 1:
                problems.append(f"sweep.csv has {len(csv_rows)} lines")
            if not (out_dir / "sweep.svg").read_text(encoding="utf-8").startswith("<?xml"):
                problems.append("sweep.svg is not an SVG document")
            return problems + oracle.check_sweep(doc, self.oracle_p, self.check_peak)

        env = {"TELEPORT_SR_THREADS": str(self.workers)} if self.workers > 1 else {}
        return Op(_config(self.noise, seed), [["sweep", "--out", str(out_dir)]], check, env)


class OptimumWorkload(Workload):
    name = "optimum-stable"

    def prepare(self, ask):
        self.families = [dict(STABLE, alpha=a, skew=s) for a, s in FAMILIES]
        self.f_max = ask({"max": [[f, 0.01, 3.0] for f in self.families]})["max"]

    def op(self, k, seed, out_dir):
        i = k % len(self.families)

        def check(records):
            return (oracle.check_optimum(_stdout_json(records[0]), self.f_max[i])
                    + oracle.check_theorem(_stdout_json(records[1])))

        return Op(_config(self.families[i], seed), [["optimum"], ["theorem-check"]], check)


class SimulateWorkload(Workload):
    name = "simulate-large"

    noise = dict(GAUSS, sigma=SIMULATE_SIGMA)

    def prepare(self, ask):
        self.p = ask({"p": [[self.noise, SIMULATE_SIGMA]]})["p"][0]

    def op(self, k, seed, out_dir):
        def check(records):
            return oracle.check_simulate(_stdout_json(records[0]), self.p, SIMULATE_TRIALS)

        return Op(_config(self.noise, seed, trials=SIMULATE_TRIALS), [["simulate"]], check)


def workloads() -> dict[str, Workload]:
    return {w.name: w for w in (
        SweepWorkload("sweep-gauss", GAUSS, 1, check_peak=True),
        SweepWorkload("sweep-stable", STABLE, nproc(), check_peak=False),
        OptimumWorkload(),
        SimulateWorkload(),
    )}


# --- child processes -------------------------------------------------------

def _wait(pid: int, timeout: float):
    """Reap ``pid``; kill it after ``timeout`` s.  Returns (status, rusage)."""
    deadline = time.monotonic() + timeout
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return status, usage
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, _, usage = os.wait4(pid, 0)
            return None, usage
        time.sleep(0.005)


def spawn(spec: dict, work: Path, env_extra: dict, timeout: float) -> dict:
    """Run one child to completion; returns its result plus rusage figures."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "TELEPORT_SR_THREADS"}
    env.update(PYTHONPATH=str(SRC), **env_extra)
    log = work / "child.log"
    actions = [(os.POSIX_SPAWN_OPEN, 2, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 2, 1)]
    argv = [sys.executable, str(BENCH / "child.py"), str(spec_path)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        status, usage = _wait(pid, timeout)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if status is None or os.waitstatus_to_exitcode(status) != 0:
        return {"error": f"child exit {status}: {log.read_text(encoding='utf-8')[-2000:]}"}
    with open(spec["result"], encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = result["ready"] - start
    result["cpu_s"] = usage.ru_utime + usage.ru_stime - result["cpu_ready_s"]
    result["peak_rss_kib"] = usage.ru_maxrss
    return result


# --- the run ---------------------------------------------------------------

def percentile_summary(values) -> dict:
    """Median plus the highest whole percentile with >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "median": statistics.median(ordered), "tail": None, "values": list(values)}
    for q in range(99, 49, -1):
        value = ordered[min(n - 1, math.ceil(q / 100 * n) - 1)]
        if sum(v > value for v in ordered) >= 10:
            summary["tail"] = {"q": q, "value": value}
            break
    return summary


def provenance(seed: int) -> dict:
    head = None
    git_head = ROOT / ".git" / "HEAD"
    if git_head.is_file():
        ref = git_head.read_text(encoding="utf-8").strip()
        head = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            head = ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "git_head": head,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "l3_cache": l3.read_text(encoding="utf-8").strip() if l3.is_file() else None,
        "seed": seed,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    began = time.monotonic()
    work = OUT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        def ask(request):
            path = work / "oracle.json"
            path.write_text(json.dumps(request), encoding="utf-8")
            subprocess.run([sys.executable, str(BENCH / "oracle.py"), str(path), str(path)],
                           check=True, timeout=120)
            return json.loads(path.read_text(encoding="utf-8"))

        workload.prepare(ask)
        rng = random.Random(seed)
        cfg_path = work / "config.json"
        base = {"config": str(cfg_path), "result": str(work / "result.json"),
                "trace_out": str(work / "trace.jsonl")}

        def timeout():
            return max(1.0, min(CHILD_TIMEOUT_S, 170.0 - (time.monotonic() - began)))

        def child(op: Op, k: int, traced: bool, setup_only: bool = False):
            cfg_path.write_text(json.dumps(op.config), encoding="utf-8")
            commands = [argv[:1] + ["--config", str(cfg_path)] + argv[1:] for argv in op.commands]
            spec = dict(base, commands=commands, trace=traced, op=k, setup_only=setup_only)
            return spawn(spec, work, op.env, timeout())

        probe = workload.op(0, 0, work)
        setup = []
        for i in range(SETUP_PROBES + 1):  # the first also compiles and caches
            result = child(probe, 0, False, setup_only=True)
            if "error" in result:
                raise RuntimeError(result["error"])
            if i:
                setup.append(result["setup_s"])

        samples = {"op_s": [], "cpu_s": [], "peak_rss_mib": []}
        traced_op_s, untraced_op_s, layers = [], [], []
        attempted = failed = 0
        problems_seen = []
        start = time.monotonic()
        k = 0
        while k < (2 if trace else 1) or time.monotonic() - start < seconds:
            traced = trace and k % 2 == 1
            op = workload.op(k // 2 if trace else k, rng.getrandbits(63), work)
            result = child(op, k, traced)
            attempted += 1
            k += 1
            if "error" in result:
                failed += 1
                problems_seen.append(result["error"])
                continue
            records = result["commands"]
            problems = [f"{r['argv'][0]} exited {r['exit']}" for r in records if r["exit"] != 0]
            if not problems:
                try:
                    problems = op.check(records)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            if problems:
                failed += 1
                problems_seen.extend(problems)
            op_s = sum(r["wall_s"] for r in records)
            setup.append(result["setup_s"])
            if traced:
                traced_op_s.append(op_s)
                with open(base["trace_out"], encoding="utf-8") as handle:
                    op_spans = [json.loads(line) for line in handle]
                workers = int(op.env.get("TELEPORT_SR_THREADS", 1))
                layers.append(span_tools.layer_metrics(op_spans, {
                    "workers": workers,
                    "table_hits": result["table"]["hits"],
                    "table_misses": result["table"]["misses"],
                    "rss_ready_kib": result["rss_ready_kib"],
                    "peak_rss_kib": result["peak_rss_kib"],
                }))
                shutil.copyfile(base["trace_out"], OUT / f"trace-{workload.name}.jsonl")
                continue
            untraced_op_s.append(op_s)
            samples["op_s"].append(op_s)
            samples["cpu_s"].append(result["cpu_s"])
            samples["peak_rss_mib"].append(result["peak_rss_kib"] / 1024.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not samples["op_s"] or (trace and not layers):
        raise RuntimeError("no operation completed: " + "; ".join(problems_seen[:5]))
    summary = {name: percentile_summary(values) for name, values in samples.items()}
    summary["setup_s"] = percentile_summary(setup)
    if trace:
        metrics = {name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
                   for name, unit in span_tools.LAYER_UNITS.items() if name in layers[0]}
        overhead = statistics.median(traced_op_s) / statistics.median(untraced_op_s) - 1.0
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    else:
        metrics = {
            "op_s": {"value": summary["op_s"]["median"], "unit": "s"},
            "cpu_s": {"value": summary["cpu_s"]["median"], "unit": "s"},
            "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
            "peak_rss_mib": {"value": summary["peak_rss_mib"]["median"], "unit": "MiB"},
            "ops_ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }
    return {
        "details": {"workload": workload.name, "provenance": provenance(seed),
                    "samples": summary, "problems": problems_seen[:20]},
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def main(argv=None) -> int:
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "teleport_sr" / "cli.py").is_file():
        print(f"benchmark error: no teleport_sr package under {SRC}", file=sys.stderr)
        return 2
    try:
        report = run(table[args.workload], args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report["details"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
