"""rainbowsat benchmark: cold-start time to exact verdicts, with layer traces.

Run from the repository root:

    python3 bench/run.py --workload satstar-n7 --seed 1 --seconds 40 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):

* ``satstar-n7``: ``sat_star_exact(7, ...)`` for C4, then K4, in one
  process, pinned to 11 and 17 and their witnesses; canonical form, the
  level enumeration and the saturation solver cache do the work.
* ``certify-families``: build and certify four explicit saturated hosts,
  each relabeled by a seeded permutation; all exceed the 12-vertex
  canonical limit, so the exact search and embedding collection dominate.
* ``verify-paper``: ``run_report`` on every claim but engine-oracle,
  checked claim by claim against the pinned statuses, then the engine
  against the naive oracle on 100 random graphs drawn from the seed.

The client is one closed loop: a single process at a time, threads=1.  Each
repetition is a fresh interpreter (``rep.py``), because the command line
pays the cold canonical-form cache on every invocation.  After the first
two repetitions, another starts only if it should end within ``--seconds``.
The last line of output is one JSON object:

* ``--trace 0``: ``wall_s`` (first library call to last verdict), ``cpu_s``
  (user plus system time over that span, children included), ``setup_s``
  (process start to the first timed call, median over every start in the
  run, including two set-up-only starts per repetition) and
  ``peak_rss_mb`` (median ``ru_maxrss`` of the repetitions' processes).

  A shared host slows a CPU-bound process by up to twofold, in phases
  from milliseconds to tens of seconds, so the median of a few
  seven-second repetitions moved by a quarter from run to run.  So each
  repetition is short (two to four seconds), a run holds a dozen or more,
  and the figures are taken per step: every repetition does the same work
  in the same order, and the workload marks fixed points of it (see
  ``workloads.py``).  The marked intervals are joined, in order, into
  steps of at least ``STEP_S`` seconds; each step counts with its fastest
  time over the repetitions, and ``wall_s`` and ``cpu_s`` are the sums.
  That is the time to the last verdict with each step measured when the
  host let it run at full speed.  The processes started take the
  processors in turn.  Should the marks not repeat (another number of
  steps in some repetition), the metrics fall back to medians of whole
  repetitions, with a note on standard error.
* ``--trace 1``: the per-layer metrics of BENCHMARK.json from traced
  repetitions, alternating with untraced ones (at least two of each);
  ``trace.wall_s`` is the traced median ``wall_s`` and ``trace.overhead_s``
  that minus the untraced median.  Each metric is printed to standard error
  with the end-to-end metric it should move.  Every count must repeat
  exactly across the traced repetitions; a count that drifts is reported in
  ``trace.counter_drift`` and makes the run incorrect.

``attempted`` and ``failed`` count operations over all repetitions: one per
``sat*`` call, per certified host, and per pinned ``verify-paper`` check,
its overall status and each engine-oracle comparison.  An operation fails if it raises, ends INDETERMINATE or
aborted, or differs from the pinned answer; ``failed / attempted`` is the
failed fraction.  Span files of traced repetitions go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
MIN_REPS = 2
SETUP_ONLY_STARTS = 2  # per timed repetition
STEP_S = 0.01  # shortest step whose fastest time counts (see the docstring)
RUN_LIMIT_S = 170  # the whole run, every process included, ends before this


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root = root
        self.args = ["--workload", workload, "--seed", str(seed)]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.started = time.monotonic()
        self.cpus = sorted(os.sched_getaffinity(0))
        self.spawned = 0
        self.deadline = self.started + seconds
        self.attempted = self.failed = 0

    def rep(self, *extra) -> dict:
        """One fresh interpreter; adds its set-up time to the result."""
        remaining = self.started + RUN_LIMIT_S - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("run limit reached")
        # the processor in turn: left alone, every process started here ran
        # on the same one, and one processor of a shared host can stay slow
        # for minutes while the other is not
        cpu = self.cpus[self.spawned % len(self.cpus)]
        self.spawned += 1
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), *self.args, "--cpu", str(cpu), *extra],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True,
            timeout=remaining,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"repetition exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["first_call"] - spawned
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        return result

    def more(self, done: list) -> bool:
        """Start another timed repetition only if it should end in time."""
        if len(done) < MIN_REPS:
            return True
        typical = statistics.median(r["rep_s"] for r in done)
        return time.monotonic() + typical <= self.deadline

    def timed(self, *extra, setup_starts: int = 0) -> dict:
        """A timed repetition, after ``setup_starts`` starts that only set up.

        Spreading the set-up-only starts over the run samples set-up time
        across the run's whole span, not in one burst.
        """
        t0 = time.monotonic()
        setups = [self.rep("--setup-only")["setup_s"] for _ in range(setup_starts)]
        result = self.rep(*extra)
        result["setups"] = setups + [result["setup_s"]]
        result["rep_s"] = time.monotonic() - t0
        return result


def fastest_steps(reps: list) -> dict:
    """``wall_s`` and ``cpu_s`` as sums over steps of each step's fastest time."""
    walls = [r["step_wall_s"] for r in reps]
    if len({len(w) for w in walls}) > 1:
        print(f"bench: repetitions marked {sorted({len(w) for w in walls})} "
              "intervals; using medians of whole repetitions", file=sys.stderr)
        return {name: statistics.median(r[name] for r in reps)
                for name in ("wall_s", "cpu_s")}
    cpus = [r["step_cpu_s"] for r in reps]
    typical = [statistics.median(column) for column in zip(*walls)]
    # join consecutive intervals into steps of at least STEP_S, by the
    # median interval, so that every repetition is cut at the same marks
    cuts, elapsed = [0], 0.0
    for i, seconds in enumerate(typical, 1):
        elapsed += seconds
        if elapsed >= STEP_S:
            cuts.append(i)
            elapsed = 0.0
    if cuts[-1] != len(typical):
        cuts.append(len(typical))

    def total(columns):
        return sum(min(sum(rep[a:b]) for rep in columns)
                   for a, b in zip(cuts, cuts[1:]))
    return {"wall_s": total(walls), "cpu_s": total(cpus)}


def end_to_end(runner: Runner) -> tuple:
    reps = []
    while runner.more(reps):
        reps.append(runner.timed(setup_starts=SETUP_ONLY_STARTS))
    metrics = fastest_steps(reps)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
    metrics["setup_s"] = statistics.median(s for r in reps for s in r["setups"])
    return metrics, True


def traced(runner: Runner, counted: list, workload: str) -> tuple:
    out = runner.root / "bench" / "out"
    out.mkdir(exist_ok=True)
    plain, traces = [], []
    while runner.more(plain + traces) or len(plain) < 2 or len(traces) < 2:
        if len(plain) <= len(traces):
            plain.append(runner.timed())
        else:
            path = out / f"trace-{workload}-{len(traces)}.json"
            traces.append(runner.timed("--trace-file", str(path)))
    layers = [t["layers"] for t in traces]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        metrics[name] = (statistics.median_low if name in counted else statistics.median)(values)
    drifted = [name for name in counted
               if name in layers[0] and len({layer[name] for layer in layers}) > 1]
    for name in drifted:
        print(f"bench: {name} drifted across traced repetitions: "
              f"{[layer[name] for layer in layers]}", file=sys.stderr)
    metrics["trace.counter_drift"] = len(drifted)
    metrics["trace.wall_s"] = statistics.median(t["wall_s"] for t in traces)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(p["wall_s"] for p in plain))
    return metrics, not drifted


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        return _fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
    if not (root / "src" / "rainbowsat" / "__init__.py").is_file():
        return _fail(f"no rainbowsat sources under {root / 'src'}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(root, args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            counted = [m["name"] for m in wanted if m["unit"] == "count"]
            metrics, counts_repeat = traced(runner, counted, args.workload)
        else:
            metrics, counts_repeat = end_to_end(runner)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(f"metrics not measured: {', '.join(missing)}")
    if args.trace:
        for m in wanted:
            print(f"{m['name']:42} {metrics[m['name']]:>14.6g} {m['unit']:>5}  "
                  f"moves {tracing.moves(m['name'])}", file=sys.stderr)
    print(json.dumps({
        "correct": counts_repeat and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
