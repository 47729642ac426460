"""Run one dualformer benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload eval-T224 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. Load is a closed loop with one client: each operation
starts when the previous one has returned. BLAS/OpenMP pools are pinned to
``THREADS`` threads through the variables the CLI's ``--threads`` sets.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` spends half
the run untraced and half traced, then replays the model's layer sites, and
reports the per-layer metrics instead. Lines before the last are
informational; the last line is the result object. A record of the run
(environment, the workload's metrics under their own names, errors) and,
when traced, every span, are written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path

THREADS = 2
WARMUP_S = 3.0
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def _import_program():
    """Pin thread pools, then import the program from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "dualformer" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'dualformer'}")
    sys.path.insert(0, str(src))
    from dualformer.cli import _THREAD_VARS  # numpy is not loaded yet

    if "numpy" in sys.modules:
        raise SystemExit("error: numpy was imported before the thread pools were pinned")
    for var in _THREAD_VARS:
        os.environ[var] = str(THREADS)
    import dualformer

    if Path(dualformer.__file__).resolve().parent != (src / "dualformer").resolve():
        raise SystemExit(f"error: imported dualformer from {dualformer.__file__}, not {src}")


class RssSampler:
    """Peak resident set size over an interval, sampled from /proc/self/statm."""

    PERIOD_S = 0.01

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        with open("/proc/self/statm") as fh:
            rss = int(fh.read().split()[1]) * self._page
        self.peak = max(self.peak, rss)

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()
        return False


class Loop:
    """Closed loop over a workload's operations; counts attempts and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def one(self, tracer=None):
        """One operation; returns (items, seconds, per-call seconds), or None if it failed."""
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        if tracer is not None:
            tracer.op = i
        try:
            return self.wl.op(i)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            return None

    def run(self, seconds: float, tracer=None):
        """Operations until ``seconds`` pass; returns (seconds per op, items per op, calls)."""
        times, items, calls = [], 0, {}
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            done = self.one(tracer)
            if done is None:
                continue
            items, dt, op_calls = done
            times.append(dt)
            for name, secs in op_calls.items():
                calls.setdefault(name, []).append(secs)
        return times, items, calls


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs: the host's share of this VM's time."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dualformer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def _rate(items: int, seconds: list) -> float:
    """Items completed per second of operation time."""
    return items * len(seconds) / sum(seconds)


def _named(wl, times, items, calls, setup_s, failed_share, peak_mb) -> dict:
    """The workload's end-to-end metrics under the workload's own names."""
    import numpy as np

    rate_name, tail_name = wl.named
    named = {
        "setup_s": setup_s,
        "ops_failed_share": failed_share,
        "peak_rss_mb": peak_mb,
        rate_name: _rate(items, times),
        tail_name: float(np.percentile(times, wl.tail_pct)) * 1e3,
    }
    for call, secs in calls.items():
        named[f"{call}_{wl.items}_per_s"] = _rate(items, secs)
    named["tail_percentile"] = wl.tail_pct
    named["samples"] = len(times)
    return named


def _end_to_end(wl, loop, seconds, setup_s, record) -> dict:
    """Untraced closed loop: the end-to-end metrics BENCHMARK.json declares."""
    steal0, total0 = _cpu_ticks()
    with RssSampler() as rss:
        times, items, calls = loop.run(seconds)
    steal1, total1 = _cpu_ticks()
    if not times:
        raise SystemExit(f"error: no operation succeeded: {loop.errors[:3]}")
    peak_mb = rss.peak / 2**20
    named = _named(wl, times, items, calls, setup_s, loop.failed / loop.attempted, peak_mb)
    print("# " + json.dumps(named), flush=True)
    record.update(named=named, op_seconds=times,
                  steal_share=(steal1 - steal0) / max(1, total1 - total0))
    return {
        "items_per_s": (named[wl.named[0]], "items/s"),
        "op_ms_tail": (named[wl.named[1]], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _per_layer(wl, loop, seconds, seed) -> dict:
    """Half the run untraced, half traced, then site replay: per-layer metrics."""
    import sites
    from tracer import Tracer

    plain, _, _ = loop.run(seconds / 2)
    tracer = Tracer()
    tracer.install()
    first_traced = loop.attempted
    try:
        traced, _, _ = loop.run(seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    if not plain or not traced:
        raise SystemExit(f"error: no operation succeeded: {loop.errors[:3]}")
    ops = loop.attempted - first_traced
    metrics = tracer.per_op(ops)
    if wl.is_model:
        metrics.update(sites.replay(tracer.sites, wl.cfg, wl.image_hw, seed))
    else:
        metrics.update(sites.absent())
    empty = tracer.empty_buckets / tracer.buckets if tracer.buckets else 0.0
    metrics["tensor.eval_graph_nodes"] = (tracer.eval_graph_nodes / ops, "count")
    metrics["mhpa.empty_bucket_share"] = (empty, "share")
    metrics["trace.overhead_share"] = (_rate(1, plain) / _rate(1, traced) - 1.0, "share")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(str(OUT_DIR / f"{wl.name}-s{seed}-spans.csv"))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    env = environment()
    print("# env " + json.dumps(env), flush=True)

    setup_times = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    t0 = time.perf_counter()
    wl.prepare()
    prepare_s = time.perf_counter() - t0
    gc.collect()

    loop = Loop(wl)
    # warm-up, checked and counted but not timed: the allocator and caches
    # settle over the first few operations
    loop.run(WARMUP_S)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "prepare_s": prepare_s}

    if args.trace == 0:
        metrics = _end_to_end(wl, loop, args.seconds, setup_s, record)
    else:
        metrics = _per_layer(wl, loop, args.seconds, args.seed)

    if loop.errors:
        print("# errors " + json.dumps(loop.errors), file=sys.stderr, flush=True)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(errors=loop.errors, result=result)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{wl.name}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
