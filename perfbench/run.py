"""Benchmark entry point for ucont.

    python3 perfbench/run.py --workload frontier|samples|symbolic|flow
        --seed N --seconds S --trace 0|1

Run from the root of a ucont checkout (the benchmark imports ``src/ucont``
of the current directory).  Every pass is a fresh interpreter (sympy's
caches make warm repeats faster).  Passes repeat, at least ``MIN_PASSES``
times, until one more pass of the median length so far would end after
``--seconds``, so a run ends close to ``--seconds`` rather than up to a
pass later.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end medians over the passes
(setup_s, wall_s, cpu_s, peak_rss_mb).  With ``--trace 1`` untraced and
traced passes alternate; the metrics are the layer metrics of the traced
passes plus ``trace.overhead_s``, the traced minus the untraced median
wall_s.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("frontier", "samples", "symbolic", "flow")
MIN_PASSES = 5
PASS_TIMEOUT_S = 150.0
# no new pass starts once this much time has gone, so a run ends well
# within three minutes even when passes are slower than expected
LAST_START_S = 110.0
HASH_SEED = "0"

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: bool, workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    passdir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--workdir", passdir]
    try:
        launched = time.monotonic()
        proc = subprocess.run(cmd + ["--launched", repr(launched)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") \
            from exc
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with {proc.returncode}")
    result = json.loads(lines[-1])
    print(f"{workload} pass (trace {int(trace)}): " + ", ".join(
        f"{name}={result[name]:.4f}" for name in END_TO_END), file=sys.stderr)
    return result


def tally(passes: list[dict]) -> tuple[bool, int, int]:
    attempted = failed = 0
    correct = True
    for p in passes:
        for chk in p["checks"]:
            attempted += 1
            if chk["failed"]:
                failed += 1
            elif not chk["ok"]:
                correct = False
                print(f"CHECK FAILED {chk['name']}: {chk['detail']}",
                      file=sys.stderr)
    return correct, attempted, failed


def end_to_end(passes: list[dict]) -> dict:
    return {name: {"value": statistics.median(p[name] for p in passes),
                   "unit": unit}
            for name, unit in END_TO_END.items()}


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    import layers
    out = {}
    for name in layers.LAYER_METRICS:
        values = [p["layers"][name] for p in traced]
        if name in layers.EXACT_METRICS and len(set(values)) > 1:
            print(f"layer count {name} differs between passes: {values}",
                  file=sys.stderr)
        unit = "s" if name.endswith("_s") else (
            "bytes" if name.endswith(".bytes") else "count")
        out[name] = {"value": statistics.median(values), "unit": unit}
    points = traced[0]["frontier_points"]
    sides = statistics.median(p["frontier_sides"] for p in traced)
    out["carleman.sides_per_point"] = {
        "value": sides / points if points else 0.0, "unit": "count"}
    out["trace.overhead_s"] = {
        "value": statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain), "unit": "s"}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "ucont", "__init__.py")):
        print("run from the root of a ucont checkout: src/ucont is missing",
              file=sys.stderr)
        return 2

    outroot = os.path.join(HERE, "out")
    os.makedirs(outroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=outroot)
    plain, traced, lengths = [], [], []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            done = len(plain) + len(traced)
            typical = statistics.median(lengths) if lengths else 0.0
            enough = elapsed + typical > args.seconds and done >= MIN_PASSES \
                and (not args.trace or len(plain) == len(traced))
            if enough or (elapsed >= LAST_START_S and done
                          and (not args.trace or traced)):
                break
            began = time.monotonic()
            if args.trace and len(plain) > len(traced):
                traced.append(run_pass(args.workload, args.seed, True,
                                       workdir))
            else:
                plain.append(run_pass(args.workload, args.seed, False,
                                      workdir))
            lengths.append(time.monotonic() - began)
    except PassError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, attempted, failed = tally(plain + traced)
    metrics = layer_metrics(plain, traced) if args.trace \
        else end_to_end(plain)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
