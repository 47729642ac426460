"""Count minor page faults per operation of each perfbench workload.

    python scripts/fault_count.py --out faults.json
    python scripts/fault_count.py --tree ../parent --workload tokens-3136 --out faults.json

Each workload is measured in two fresh processes, both running the
workloads of ``perfbench/workloads.py`` in ``--tree`` (this checkout by
default), imported as ``perfbench/run.py`` imports them, at its thread
count:

- ``warmed`` follows perfbench's order: ``setup``, ``prepare``, a full
  collection and ``--warmup-s`` seconds of operations, then ``--ops``
  counted operations. This is the loop the benchmark times.
- ``fresh`` runs ``setup`` and then ``--ops`` operations with no
  ``prepare`` and no warm-up, as the CLI or any new process would. The
  check references that ``prepare`` computes (a few floats) come from the
  ``warmed`` process, so every operation is still checked, but the heap
  never holds ``prepare``'s f64 pass. ``first_op`` is the first
  operation's count; ``faults_per_op`` and ``max_op`` are the mean and the
  largest over the rest.

A count is the process's ``ru_minflt`` (all threads) across whole
``op(i)`` calls, checks included. A full garbage collection hands free heap
pages back to the OS (``dualformer._trim_heap``), and the operation after
it faults them in again, so ``max_op`` shows whether the counted operations
held one. One JSON object, keyed by workload, goes
to ``--out`` and to stdout.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = ("warmed", "fresh")


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _faults(wl, first: int, ops: int) -> list[int]:
    """Minor faults of each of ``ops`` operations, from operation ``first``."""
    counts = []
    for i in range(first, first + ops):
        before = _minflt()
        wl.op(i)
        counts.append(_minflt() - before)
    return counts


def child(tree: Path, workload: str, mode: str, seed: int, ops: int, warmup_s: float,
          refs: dict) -> dict:
    """One measurement in this process; returns the mode's counts, and for
    ``warmed`` the attributes ``prepare`` set, as the references."""
    sys.path.insert(0, str(tree / "perfbench"))
    import run

    run._import_program()  # pins the thread pools, imports the program from ``tree``
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    wl.setup(seed)
    if mode == "fresh":
        vars(wl).update(refs)
        first, *counts = _faults(wl, 0, ops + 1)
        return {"first_op": first, "faults_per_op": sum(counts) / ops, "max_op": max(counts),
                "ops": ops}
    before = set(vars(wl))
    wl.prepare()
    refs = {k: v for k, v in vars(wl).items() if k not in before}
    gc.collect()
    i, deadline = 0, time.perf_counter() + warmup_s
    while time.perf_counter() < deadline:
        wl.op(i)
        i += 1
    counts = _faults(wl, i, ops)
    return {"faults_per_op": sum(counts) / ops, "max_op": max(counts), "ops": ops,
            "warmup_ops": i, "refs": refs, "env": run.environment()}


def measure(tree: Path, workload: str, mode: str, seed: int, ops: int, warmup_s: float,
            refs: dict) -> dict:
    """:func:`child` in a new process, run from ``tree``'s root."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode, "--tree", str(tree),
           "--workload", workload, "--seed", str(seed), "--ops", str(ops),
           "--warmup-s", str(warmup_s)]
    res = subprocess.run(cmd, cwd=tree, input=json.dumps(refs), capture_output=True, text=True,
                         timeout=1800)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}: {res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="source checkout whose perfbench/ and src/ to run (default: this one)")
    ap.add_argument("--workload", action="append",
                    help="workload to measure; repeat for several (default: BENCHMARK.json's)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=60, help="counted operations per mode")
    ap.add_argument("--warmup-s", type=float, default=None,
                    help="warm-up seconds of the warmed mode (default: perfbench's)")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", choices=MODES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    if not (tree / "perfbench" / "workloads.py").is_file():
        ap.error(f"--tree {tree}: no perfbench/workloads.py in that tree")
    if args.ops < 1:
        ap.error("--ops must be at least 1")

    if args.child:
        refs = json.loads(sys.stdin.read() or "{}")
        print(json.dumps(child(tree, args.workload[0], args.child, args.seed, args.ops,
                               args.warmup_s, refs)))
        return 0

    if args.warmup_s is None:
        sys.path.insert(0, str(tree / "perfbench"))
        from run import WARMUP_S

        args.warmup_s = WARMUP_S
    names = args.workload or [
        w["name"] for w in json.loads((tree / "BENCHMARK.json").read_text())["workloads"]]
    record = {}
    for name in names:
        warmed = measure(tree, name, "warmed", args.seed, args.ops, args.warmup_s, {})
        refs, env = warmed.pop("refs"), warmed.pop("env")
        fresh = measure(tree, name, "fresh", args.seed, args.ops, args.warmup_s, refs)
        record[name] = {"warmed": warmed, "fresh": fresh, "env": env}
        print(f"{name}: warmed {warmed['faults_per_op']:.1f} faults/op, fresh "
              f"{fresh['faults_per_op']:.1f} (first op {fresh['first_op']})",
              file=sys.stderr, flush=True)
    text = json.dumps({"seed": args.seed, "workloads": record}, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
