#!/usr/bin/env python3
"""The repo benchmark: Cao–Singhal on the simulator and on real threads.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Builds the measuring binary (perfbench/CMakeLists.txt, which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset, then runs one workload (or all four). It prints
provenance, every metric with its unit and sample counts, the failed checks,
and as its last line one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the traced composition and reports the per-layer metrics, writing the span
log to <build dir>/spans/<workload>.txt. Metric names, units and workloads
come from BENCHMARK.json at the checkout root; a result whose metric names
differ from it is refused.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures and builds the binary; returns its path or None."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (out / "Makefile").exists():  # no completed configure yet
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("perfbench: build failed:", " ".join(cmd))
                return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def commit():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Runs one workload; returns (result line dict, raw record) or None."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}.txt")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S}s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited with {proc.returncode}")
        return None
    rec = json.loads(lines[-1])

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if list(rec["metrics"]) != list(units):
        log(f"perfbench: {workload} printed metrics {sorted(rec['metrics'])}, "
            f"BENCHMARK.json lists {sorted(units)}")
        return None

    failures = list(rec["failures"])
    info = dict(rec["info"])
    if trace and "run_free_cs_per_s" in info:
        # Fidelity: the benchmark's rt client against rt::run_free on the
        # same configuration, within the cs_per_s bound.
        bound = next(m["bound"] for m in spec["end_to_end"]
                     if m["name"] == "cs_per_s")
        client = float(info["client_cs_per_s"])
        free = float(info["run_free_cs_per_s"])
        if abs(client / free - 1) > bound:
            failures.append(f"client {client:.0f} CS/s differs from "
                            f"rt::run_free's {free:.0f} CS/s by more than "
                            f"{bound:.0%}")
    rec["failures"] = failures
    correct = rec["correct"] and not failures
    result = {
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in rec["metrics"].items()},
    }
    return result, rec


def print_report(workload, trace, result, rec):
    prov = dict(rec["provenance"], commit=commit())
    info = rec["info"]
    oversub = ("oversubscribed", "true") in [tuple(i) for i in info]
    tag = " [oversubscribed: fewer cores than pump threads]" if oversub else ""
    print(f"== {workload} ({'traced, per-layer' if trace else 'end-to-end'}){tag}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    width = max(len(n) for n in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:>16.6g} {m['unit']}")
    for what, n in rec["samples"].items():
        print(f"  samples {what}: {n}")
    for key, value in info:
        print(f"  {key}: {value}")
    attempted = result["attempted"]
    print(f"  failed_frac: {result['failed'] / attempted if attempted else 0:.6g}"
          f" ({result['failed']} of {attempted} requests)")
    for f in rec["failures"]:
        print(f"  FAILED CHECK: {f}")
    print(f"  correct: {str(result['correct']).lower()}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 2
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log(f"perfbench: unknown workload {args.workload}; one of {names} or all")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    binary = build()
    if binary is None:
        return 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        out = run_workload(binary, spec, w, args.seed, seconds, args.trace)
        if out is None:
            return 1
        result, rec = out
        print_report(w, args.trace, result, rec)
        if len(workloads) == 1:
            print(json.dumps(result))
            return 0
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
