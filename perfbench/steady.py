"""Steadiness check: two interleaved sets of benchmark runs per workload.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]
        [--seed0 1]

Run from the root of a ucont checkout.  For each workload, run i of set A
and run i of set B both use seed ``seed0 + i``; the order of A and B
alternates from one i to the next.  For every end-to-end metric the
command prints each set's median and quartiles, the spread (quartile
distance over median) and the drift of B's median from A's, and whether
they stay within the bound in BENCHMARK.json.  The two sets must also fail
the same share of operations.  Exit status 0 when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    all_ok = True
    for workload in names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for label in ("AB" if i % 2 == 0 else "BA"):
                res = run_once(bench, workload, args.seed0 + i)
                sets[label].append(res)
                print(f"{workload} set {label} seed {args.seed0 + i}: "
                      + ", ".join(f"{k}={v['value']:.4f}"
                                  for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
        for metric, bound in bounds.items():
            a = summary([r["metrics"][metric]["value"] for r in sets["A"]])
            b = summary([r["metrics"][metric]["value"] for r in sets["B"]])
            drift = (b["median"] - a["median"]) / a["median"]
            ok = abs(drift) <= bound and a["spread"] <= bound \
                and b["spread"] <= bound
            all_ok &= ok
            print(f"{workload:9s} {metric:12s} "
                  f"A {a['median']:10.4f} [{a['q1']:.4f}, {a['q3']:.4f}] "
                  f"spread {a['spread']:.3f} | "
                  f"B {b['median']:10.4f} [{b['q1']:.4f}, {b['q3']:.4f}] "
                  f"spread {b['spread']:.3f} | drift {drift:+.3f} "
                  f"bound {bound} {'ok' if ok else 'OUT'}", flush=True)
        shares = {k: sum(r["failed"] for r in v) / sum(r["attempted"]
                                                        for r in v)
                  for k, v in sets.items()}
        correct = all(r["correct"] for v in sets.values() for r in v)
        same = shares["A"] == shares["B"]
        all_ok &= same and correct
        print(f"{workload:9s} failed share A {shares['A']} B {shares['B']} "
              f"({'same' if same else 'DIFFERENT'}); all correct: {correct}",
              flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
