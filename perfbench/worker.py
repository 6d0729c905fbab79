"""One cold pass of one workload, in a fresh interpreter.

Usage (started by run.py, not by hand):

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --launched MONOTONIC --workdir DIR

Prints one JSON line: setup_s (launch to inputs ready), wall_s and cpu_s
(the program's operations), peak_rss_mb, the check outcomes and, when
traced, the layer metrics of this pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path[:0] = [src, HERE]
    import ucont
    if not os.path.abspath(ucont.__file__).startswith(src + os.sep):
        print(f"ucont imported from {ucont.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    # numpy generators take only non-negative seeds; seeds 0 .. 2^31 - 1
    # pass through unchanged
    inputs = wl.setup(args.seed % 2 ** 31, args.workdir)
    setup_s = time.monotonic() - args.launched

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)
        tracer.active = True

    results, errors = {}, {}
    frontier_sides = 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for name, op in wl.operations(inputs):
        first = len(tracer.spans) if tracer else 0
        try:
            results[name] = op(results)
        except Exception:
            errors[name] = traceback.format_exc()
        if tracer and name in wl.FRONTIER_OPS:
            frontier_sides += sum(s.name == "carleman.sides"
                                  for s in tracer.spans[first:])
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer_values = None
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()
        layer_values = layers.summarise(tracer.spans)

    outcomes = []
    for name, needs, check in wl.checks(inputs):
        missing = [n for n in needs if n in errors]
        if missing:
            outcomes.append({"name": name, "failed": True,
                             "detail": f"operation raised: {missing}"})
            continue
        try:
            ok, detail = check(results)
        except Exception:
            # a result the oracle cannot even read is a wrong result
            ok, detail = False, traceback.format_exc()
        outcomes.append({"name": name, "failed": False, "ok": bool(ok),
                         "detail": detail})
    for name, tb in errors.items():
        print(f"operation {name} raised:\n{tb}", file=sys.stderr)

    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "checks": outcomes, "layers": layer_values,
        "frontier_points": wl.FRONTIER_POINTS,
        "frontier_sides": frontier_sides}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
