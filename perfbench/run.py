"""ringlab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload catalog-verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ringlab is loaded from its ``src/``.  Each
workload runs in a fresh process (``child.py``), after a few processes that
only set up, so that set-up time is a median over several starts.

With ``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer ones.  Human-readable lines come first; the last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog-verify", "ladder-analyze", "file-accept", "file-reject")
SETUPS = 5          # set-ups per run: SETUPS - 1 probes, then the measured process
PROBE_LIMIT_S = 60
RUN_LIMIT_S = 150


class BenchError(Exception):
    pass


def _start(name: str, args, probe: bool):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_LIMIT_S if probe else RUN_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"{name} process exited {code} "
                         f"({'before set-up finished' if line.strip() != 'ready' else 'after set-up'})")
    return setup_s, rest


def run_workload(name: str, args) -> dict:
    setups = []
    for i in range(SETUPS):
        setup_s, rest = _start(name, args, probe=i < SETUPS - 1)
        setups.append(setup_s)
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{name} printed no result")
    result = json.loads(lines[-1])
    result["setups"] = setups
    return result


def _percentile_line(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if past the median."""
    n = len(samples)
    pct = (100 * (n - 10)) // n if n > 10 else 0
    if pct <= 50:
        return ""
    value = sorted(samples)[(pct * n) // 100]
    return f", p{pct} {value:.6g}"


def end_to_end(result: dict) -> dict:
    samples, setups = result["samples"], result["setups"]
    metrics = {
        "pass_s": {"value": statistics.median(samples), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    notes = {
        "pass_s": f"median of {len(samples)} passes{_percentile_line(samples)}",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "after set-up and the first pass: process plus largest pool worker",
    }
    for metric, m in metrics.items():
        print(f"  {metric:<14} {m['value']:>12.6g} {m['unit']:<5} {notes[metric]}")
    return metrics


def per_layer(result: dict) -> dict:
    from spans import PER_LAYER

    layers = result["layers"]
    print(f"  traced passes {len(result['samples'])}, untraced passes "
          f"{len(result['untraced_samples'])}; values are per traced pass")
    metrics = {}
    for metric, (unit, _) in PER_LAYER.items():
        metrics[metric] = {"value": layers[metric], "unit": unit}
        print(f"  {metric:<48} {layers[metric]:>14.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ringlab" / "__init__.py").is_file():
        print(f"no ringlab sources under {ROOT / 'src'}: run from a ringlab checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args)
        except (BenchError, ValueError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        ratio = result["failed"] / result["attempted"]
        print(f"{name} seed {args.seed}: {result['attempted']} operations attempted, "
              f"{result['failed']} failed (failed_ratio {ratio:g})")
        metrics = (per_layer if args.trace else end_to_end)(result)
        combined["correct"] &= result["failed"] == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        if args.workload == "all":
            metrics = {f"{name}:{k}": v for k, v in metrics.items()}
        combined["metrics"].update(metrics)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
