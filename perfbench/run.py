"""fredkinlab benchmark: end-to-end and per-layer figures of one workload.

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Workloads (see ``worker.py``):

* ``verify-catalog``: ``analysis.gate_report`` on all 8 catalog gates, what
  ``fredkinlab verify <gate>`` does after start-up.  Large states, term
  expansion in ``engine.apply_unitary`` and heralded feed-forward.
* ``sweep-cnot``: 600 single runs of random full-superposition inputs through
  ``cnot-pittman``, ``cnot-ralph`` and ``cnot-sanaka``.  Small states, so
  per-call overhead (``elements.compose``, ``circuits.run``) dominates.
* ``mesh-evaluate``: 200 operations of 5 calls each of the
  ``simplified-cnot`` optimizer's evaluator at random parameters, the inner
  loop of ``fredkinlab optimize simplified-cnot``.  Compose-based mesh
  figures; the engine never runs.
* ``optimize-mesh``: ``fredkinlab optimize simplified-cnot --seed s`` in
  process, with the CLI's default restarts, then the re-simulation of its
  outcome.  Not in ``BENCHMARK.json``: most of its operations fail their
  check (the outcome's re-simulated p misses 1/6 by a few 1e-9 because the
  optimizer throws away its exact root polish), and each takes 10-25 s.

The run is a closed loop of passes, one at a time, until ``--seconds`` have
passed.  Each pass is a fresh interpreter that imports ``fredkinlab.cli``,
builds the workload's circuits (set-up) and then times the workload's fixed
list of operations with no warm-up, as a ``fredkinlab`` command would.  Every
operation's result is checked after it is timed; an operation that fails is
timed and counted, never dropped.

With ``--trace 0`` the last line holds the end-to-end metrics.  Each time
is the 75th percentile over the passes of the pass's own figure:

* ``setup_s``: interpreter start, ``import fredkinlab.cli`` and the builds.
* ``wall_s``: the time of the pass's operations.
* ``op_p50_ms``: the median latency of the pass's operations.
* ``op_p99_ms``: the 99th-percentile latency of the pass's operations.
* ``peak_rss_mb``: peak RSS, the median over the passes.

Times are taken per pass and then over passes, not pooled, and at the 75th
percentile, because on a shared 2-core virtual machine the speed of a pass
swings by up to 1.8x with the load of other tenants, in phases of seconds to
minutes, and now and then a few passes stall for milliseconds at a time.
Pooled or median figures follow how much of a run fell into which phase; the
75th percentile over passes does so least.  Over two sets of 6 to 10 runs
of 40 to 50 s per workload there, the worst run-to-run spread (quartile distance over
median) of any time metric on any workload was 0.19 at the 75th percentile
over passes, against 0.26 at the 90th, 0.25 at the median and 0.25 for the
99th percentile of all the run's operations pooled.

With ``--trace 1`` untraced and traced passes alternate over the same inputs.
The traced passes give the per-layer figures (each a median over the traced
passes of its value in one pass) and ``trace.overhead_s``, the median over
pass pairs of traced minus untraced wall time.  The lines before the last
give each metric by name and unit, the optimizer-only layers, ``fail_frac``
and the run's context (versions, core count, seed, pass and sample counts).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from tracer import LAYER_METRICS, OPTIMIZER_METRICS
from worker import WORKLOADS, clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

#: A run must end within 180 s; no pass is started or allowed past this.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
IMPORT_PACKAGES = ("numpy", "scipy", "fredkinlab")
#: Keeps numeric libraries to the one thread the benchmark runs on.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, input_index: int, traced: bool,
             timeout: float) -> dict:
    """Run one pass in a fresh interpreter and return its parsed record."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE, env.get("PYTHONPATH")]))
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), WORKER,
           "--workload", workload, "--seed", str(seed), "--pass-index", str(input_index),
           "--trace", str(int(traced))]
    spawn = clock()
    try:
        proc = subprocess.run(cmd + ["--spawn-time", repr(spawn)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {input_index} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = [l for l in proc.stderr.splitlines() if not l.startswith("import time:")]
        raise PassError(f"pass {input_index} exited {proc.returncode}: "
                        + " | ".join(tail[-3:]))
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise PassError(f"pass {input_index} printed no record") from exc
    record["traced"] = traced
    if traced:
        record["imports"] = import_times(proc.stderr)
    return record


def import_times(stderr: str) -> dict[str, float]:
    """Self import time per package from ``-X importtime`` output, in seconds."""
    us = dict.fromkeys(IMPORT_PACKAGES, 0)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        if top in us:
            us[top] += int(fields[0])
    return {f"import.{pkg}_s": v / 1e6 for pkg, v in us.items()}


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes one after another until `seconds` have passed.

    Traced runs alternate untraced and traced passes over the same inputs.
    """
    start = clock()
    passes: list[dict] = []
    longest = 0.0
    i = 0
    while True:
        elapsed = clock() - start
        done = elapsed >= seconds and (not trace or i % 2 == 0)
        if len(passes) >= 1 + trace and (done or elapsed + longest > HARD_LIMIT_S):
            break
        t0 = clock()
        passes.append(run_pass(workload, seed, i // 2 if trace else i,
                               traced=trace and i % 2 == 1,
                               timeout=max(1.0, HARD_LIMIT_S - elapsed)))
        longest = max(longest, clock() - t0)
        i += 1
    return passes


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(workload: str, seed: int, seconds: float, trace: bool,
              passes: list[dict]) -> tuple[dict, dict]:
    """(context, result object) of a run."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    p99s = [percentile(p["op_s"], 99) for p in plain]
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    end_to_end = {
        "setup_s": percentile([p["setup_s"] for p in plain], 75),
        "wall_s": percentile([p["wall_s"] for p in plain], 75),
        "op_p50_ms": percentile([statistics.median(p["op_s"]) * 1e3 for p in plain], 75),
        "op_p99_ms": percentile(p99s, 75) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        **passes[0]["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(plain), "traced_passes": len(traced),
        "ops_per_pass": len(passes[0]["op_s"]),
        "samples": {"setup_s": len(plain), "wall_s": len(plain), "op_p50_ms": len(plain),
                    "op_p99_ms": len(plain), "peak_rss_mb": len(plain)},
        "op_samples_beyond_p99": min(sum(1 for t in p["op_s"] if t > p99)
                                     for p, p99 in zip(plain, p99s)),
        "fail_frac": failed / attempted,
        "errors": [e for p in passes for e in p["errors"]][:5],
    }
    if trace:
        units = {**LAYER_METRICS, **{f"import.{pkg}_s": "s" for pkg in IMPORT_PACKAGES},
                 "trace.overhead_s": "s"}
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in (*LAYER_METRICS, *OPTIMIZER_METRICS)}
        values.update({name: statistics.median(p["imports"][name] for p in traced)
                       for name in units if name.startswith("import.")})
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced))
    else:
        units, values = END_TO_END, end_to_end
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    if trace:
        context["optimizer_layers"] = {name: {"value": values[name], "unit": unit}
                                       for name, unit in OPTIMIZER_METRICS.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return context, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "fredkinlab", "__init__.py")):
        print(f"error: no fredkinlab package under {SOURCE}", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    context, result = summarize(args.workload, args.seed, args.seconds,
                                bool(args.trace), passes)
    print(json.dumps({"context": context}))
    for name, m in {**result["metrics"], **context.get("optimizer_layers", {})}.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {context['fail_frac']:.6g} ({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
