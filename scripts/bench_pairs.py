"""Run the benchmark in alternating pairs between two source trees.

    python scripts/bench_pairs.py --parent ../parent --change ../change \\
        --workload eval-T224 --pairs 10 --seed0 2401 --out BENCH.json

Each pair runs ``perfbench/run.py --trace 0`` once in each tree, as a
separate process from that tree's root, on one seed: pair ``i`` uses seed
``seed0 + i``, and the parent runs first in even pairs, the change in odd
ones. The end-to-end metrics, their units and which way is better come from
``BENCHMARK.json`` beside this script. For each side and metric it prints
the median and quartiles, and how many pairs the change won (ties count for
neither side). Every run's result goes to ``--out``; workloads already in
that file and not run again are kept.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``tree``: its result object and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         timeout=max(600.0, 20 * seconds))
    if res.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {res.returncode}: {res.stderr[-2000:]}")
    lines = res.stdout.strip().splitlines()
    env = next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), None)
    return {"result": json.loads(lines[-1]), "env": env}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the change's pair wins
    and the median gap over the parent's interquartile distance.

    ``runs[side]`` lists one result object per pair, in pair order.
    """
    out = {}
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        stats = {s: quartiles(vals[s]) for s in SIDES}
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gap = stats["change"]["median"] - stats["parent"]["median"]
        worse = -sign * gap / abs(stats["parent"]["median"]) if stats["parent"]["median"] else 0.0
        out[name] = {
            "unit": m["unit"], "better": m["better"], **stats,
            "change_wins": f"{wins}/{len(vals['parent'])}",
            "median_gap_over_parent_iqr": abs(gap) / iqr if iqr else None,
            "change_worse_by": worse, "bound": m["bound"],
            "parent_runs": vals["parent"], "change_runs": vals["change"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="source tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent, "change": args.change}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"--{side} {tree}: no perfbench/run.py in that tree")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    seconds = spec["run_seconds"]
    runs = {s: [] for s in SIDES}
    envs = {}
    seeds = [args.seed0 + i for i in range(args.pairs)]
    first = [SIDES[i % 2] for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = SIDES if first[i] == "parent" else SIDES[::-1]
        for side in order:
            run = run_once(trees[side], args.workload, seed, seconds)
            runs[side].append(run["result"])
            envs.setdefault(side, run["env"])
            m = run["result"]["metrics"]
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in m.items()), flush=True)

    summary = summarize(runs, spec["end_to_end"])
    for name, s in summary.items():
        print(f"{args.workload} {name} [{s['unit']}, {s['better']} is better]: "
              + "; ".join(f"{side} median {s[side]['median']:.5g} "
                          f"(q1 {s[side]['q1']:.5g}, q3 {s[side]['q3']:.5g})" for side in SIDES)
              + f"; change wins {s['change_wins']}")

    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record.setdefault("workloads", {})[args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed <s> "
                   f"--seconds {seconds} --trace 0",
        "pairs": args.pairs, "seeds": seeds, "first": first,
        "ops_attempted": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
        "ops_failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
        "all_correct": all(r["correct"] for s in SIDES for r in runs[s]),
        "env": envs,
        **summary,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
