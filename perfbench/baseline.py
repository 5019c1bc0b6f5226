"""Run every workload, check that work counts repeat, and record the baseline.

Usage (from the root of a checkout)::

    python3 perfbench/baseline.py --seed 1 --seconds 20 [--write]

Each workload runs in its own single-threaded process three times with the
same seed: untraced twice, traced once.  The work counts of all three must
be equal.  Every metric is printed by name with its unit; ``--write`` also
stores them, with the machine they were measured on, in
``perfbench/baseline.json`` with ``"claim": null`` (a baseline claims no
gain).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=run.ROOT,
    )
    lines = done.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, payload = line.partition(" ")
        if key in ("work-counts", "per-op", "wall"):
            out[key] = json.loads(payload)
    if done.stderr.strip():
        print(done.stderr.strip(), file=sys.stderr)
    return out


def machine() -> dict:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    import numpy

    return {
        "nproc": os.cpu_count(),
        "ram_mb": pages // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def show(title: str, metrics: dict) -> None:
    print(f"  {title}")
    for name, entry in metrics.items():
        extra = {k: v for k, v in entry.items() if k not in ("value", "unit")}
        print(f"    {name:32s} {entry['value']:<14.6g} {entry['unit']:6s} {extra or ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--write", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args(argv)

    results, ok = {}, True
    for workload in run.WORKLOADS:
        first = invoke(workload, args.seed, args.seconds, 0)
        second = invoke(workload, args.seed, args.seconds, 0)
        traced = invoke(workload, args.seed, args.seconds, 1)
        repeat = first["work-counts"] == second["work-counts"] == traced["work-counts"]
        correct = first["correct"] and second["correct"] and traced["correct"]
        ok = ok and repeat and correct
        print(f"{workload}: correct={correct} counts_repeat={repeat}")
        show("end to end", first["metrics"])
        show("per op", first["per-op"])
        print(f"  raw wall: {first['wall']}")
        show("per layer (traced run)", traced["metrics"])
        results[workload] = {
            "correct": correct,
            "counts_repeat": repeat,
            "end_to_end": first["metrics"],
            "end_to_end_rerun": second["metrics"],
            "per_op": first["per-op"],
            "wall": first["wall"],
            "per_layer": traced["metrics"],
        }
    if args.write:
        baseline = {
            "claim": None,
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": machine(),
            "workloads": results,
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
