"""One cold repetition of a workload, in the interpreter that runs this file.

Started by ``run.py`` as a fresh process with the checkout's ``src`` on
``PYTHONPATH``; prints one JSON object as its last line of output.  The
canonical-form cache must be empty when timing starts: every command-line
invocation pays the cold cost, so a warm cache would fake a gain.

    python3 bench/rep.py --workload NAME --seed N [--cpu C] [--trace-file PATH | --setup-only]
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpu", type=int, help="run on this processor only")
    args = ap.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    import rainbowsat
    from rainbowsat import graphs

    src = Path.cwd().resolve() / "src"
    if src not in Path(rainbowsat.__file__).resolve().parents:
        sys.exit(f"rainbowsat imported from {rainbowsat.__file__}, not from {src}")
    import workloads
    import tracer as tracing

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    if graphs.canonical_form.cache_info().currsize != 0:
        sys.exit("canonical-form cache is not cold after setup")
    if args.setup_only:
        print(json.dumps({"first_call": time.monotonic()}))
        return 0

    tracer = canonical_form = None
    if args.trace_file:
        tracer = tracing.Tracer()
        canonical_form = tracing.install(tracer)

    walls, cpus = [], []

    def mark():
        walls.append(time.perf_counter())
        cpus.append(_cpu_s())

    first_call = time.monotonic()
    mark()
    outcomes = workload.run(inputs, mark)
    mark()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracing.layer_metrics(tracer, canonical_form) if tracer else None

    attempted, failed, problems = workload.check(outcomes)
    for problem in problems:
        print(f"{args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    if tracer:
        tracer.write(args.trace_file)
    print(json.dumps({
        "first_call": first_call,
        "wall_s": walls[-1] - walls[0],
        "cpu_s": cpus[-1] - cpus[0],
        # time of each step between two marks, the same steps in every repetition
        "step_wall_s": [b - a for a, b in zip(walls, walls[1:])],
        "step_cpu_s": [b - a for a, b in zip(cpus, cpus[1:])],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
