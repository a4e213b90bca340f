"""One workload process: set up, say so, then measure for the given time.

Started by ``run.py``, which times set-up from process start to the
``ready`` line this script prints.  With ``--probe`` the process exits there;
otherwise it runs passes and prints one JSON line with its samples.

Run from a checkout: ringlab is imported from ``src/`` next to this
directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_ringlab() -> None:
    sys.path.insert(0, str(SRC))
    import ringlab
    if Path(ringlab.__file__).resolve().parent != (SRC / "ringlab").resolve():
        raise SystemExit(f"ringlab imported from {ringlab.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (pool worker)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def run_passes(workload, around, budget: float) -> dict:
    """Passes until another one would overrun ``budget`` seconds; at least one.

    Peak memory is read after the first pass, so it does not depend on how
    many passes fit in the budget.
    """
    out = {"samples": [], "attempted": 0, "failed": 0}
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        res = workload.run_pass(around)
        longest = max(longest, perf_counter() - t0)
        out["samples"].append(res.seconds)
        out["attempted"] += res.attempted
        out["failed"] += res.failed
        out.setdefault("peak_rss_mb", peak_rss_mb())
        if perf_counter() - start + longest > budget:
            return out


def measure_traced(workload, seconds: float) -> dict:
    """Untraced passes for half the time, then traced passes for the rest."""
    import spans

    start = perf_counter()
    plain = run_passes(workload, lambda fn: fn(), seconds / 2)
    spool = OUT / f"spool-{os.getpid()}"
    spool.mkdir(parents=True, exist_ok=True)
    try:
        tracer = spans.Tracer(spool)
        spans.install(tracer)
        counts = getattr(workload, "verify_counts", {})
        for key in counts:
            counts[key] = 0
        traced = run_passes(workload, lambda fn: tracer.span(spans.ROOT_SPAN, fn),
                            max(seconds - (perf_counter() - start), 0.0))
        tracer.merge_spool()
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    tracer.write(OUT / f"trace-{workload.name}.jsonl")
    overhead = statistics.median(traced["samples"]) - statistics.median(plain["samples"])
    return {"layers": spans.layer_metrics(tracer, len(traced["samples"]), counts, overhead),
            "samples": traced["samples"], "untraced_samples": plain["samples"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit once set up")
    args = parser.parse_args(argv)

    import_ringlab()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        workload.setup(args.seed, workdir)
        print("ready", flush=True)
        if args.probe:
            return 0
        if args.trace:
            result = measure_traced(workload, args.seconds)
        else:
            result = run_passes(workload, lambda fn: fn(), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
