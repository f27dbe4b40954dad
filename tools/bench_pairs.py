"""Alternating parent/change pairs of one benchmark workload.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload verify-catalog \
        --pairs 10 --seconds 40 --seed-base 2101 --out BENCH.json

Each tree is a source checkout with its own ``perfbench/run.py``.  Pair i runs
both trees on seed ``seed-base + i``, the parent first in even pairs and the
change first in odd ones, each as ``python3 perfbench/run.py --workload W
--seed s --seconds S --trace 0`` from the tree's root.  The output file holds
every run and, for each end-to-end metric, each side's median and quartiles,
the number of pairs the change wins (a tie counts for neither side), and
whether the gap between the medians exceeds the distance between the
parent's quartiles.  A metric's direction ("better": "lower" or "higher")
comes from the parent's ``BENCHMARK.json``; a metric it does not list counts
as lower-is-better.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in `tree`: its last output line, parsed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def directions(tree: str) -> dict[str, str]:
    """Each end-to-end metric's "better" direction from `tree`'s BENCHMARK.json."""
    path = os.path.join(tree, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m.get("better", "lower") for m in spec.get("end_to_end", [])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, the change's pair wins and whether
    the gap between the medians exceeds the parent's quartile spread.

    `runs` holds one record per run with keys ``pair``, ``tree`` ("parent" or
    "change"), ``attempted``, ``failed`` and ``metrics`` (name to value).
    Only pairs with a run of each side count.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["tree"]] = run
    pairs = [p for _, p in sorted(by_pair.items()) if all(s in p for s in SIDES)]
    names = sorted({name for p in pairs for s in SIDES for name in p[s]["metrics"]})
    out: dict = {"pairs": len(pairs)}
    for side in SIDES:
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        out[f"{side}_fail_frac"] = failed / attempted if attempted else 0.0
    metrics = {}
    for name in names:
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        values = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        q = {s: quartiles(values[s]) for s in SIDES}
        wins = sum(1 for a, b in zip(values["parent"], values["change"]) if sign * (b - a) < 0)
        losses = sum(1 for a, b in zip(values["parent"], values["change"]) if sign * (b - a) > 0)
        gap = q["change"][1] - q["parent"][1]
        spread = q["parent"][2] - q["parent"][0]
        metrics[name] = {
            "better": "higher" if sign < 0 else "lower",
            **{f"{s}_{k}": v for s in SIDES for k, v in zip(("q1", "median", "q3"), q[s])},
            "change_vs_parent": gap / q["parent"][1] if q["parent"][1] else None,
            "change_wins": wins,
            "change_losses": losses,
            "gap_exceeds_parent_spread": abs(gap) > spread,
            "improved": sign * gap < 0 and abs(gap) > spread,
        }
    out["metrics"] = metrics
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            record = run_once(trees[side], args.workload, seed, args.seconds)
            runs.append({"pair": i, "seed": seed, "tree": side, "first": order[0], **record})
            print(f"pair {i} seed {seed} {side}: " + " ".join(
                f"{k}={v:.6g}" for k, v in record["metrics"].items()), file=sys.stderr)
    summary = summarize(runs, directions(trees["parent"]))
    about = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
             "seed_base": args.seed_base}
    with open(args.out, "w") as f:
        json.dump({"about": about, "runs": runs, "summary": summary}, f, indent=1)
        f.write("\n")
    for name, m in summary["metrics"].items():
        print(f"{name}: parent {m['parent_median']:.6g} change {m['change_median']:.6g} "
              f"wins {m['change_wins']}/{summary['pairs']} "
              f"beyond spread {m['gap_exceeds_parent_spread']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
