"""Benchmark one workload of the advot program, with or without tracing.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  Inputs are generated
from ``--seed``; each op is a call into a public entry point, made in this
process in a closed loop with one caller: ``advot.cli.main([...])`` for the
four subcommands and ``replay(MessageLog.from_text(...))`` on the log the
preceding ``distributed-sim`` call wrote.  Every output is checked.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported, here and in children.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import generate  # noqa: E402
from clock import ScaledClock  # noqa: E402
from tracer import COUNT_METRICS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 20  # spread evenly over the timed loop; any left over follow it
TAIL_MIN_CALLS = 20
TAIL_BEYOND = 10

SETUP_PROGRAM = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import advot
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as handle:
        advot.parse_scenario(handle.read())
print(repr(time.perf_counter() - start))
"""


@dataclass(frozen=True)
class Workload:
    ops: tuple[str, ...]
    # Seed -> generated scenarios; None runs the paper's 2x3 scenario file.
    pool: Callable[[int], list[dict]] | None = None

    def scenarios(self, name: str, seed: int, work_dir: Path) -> list[Path]:
        if self.pool is None:
            return [ROOT / "scenarios" / "paper_2x3.json"]
        return generate.write_pool(self.pool(seed), work_dir / "scenarios", name)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "paper": Workload(("solve-ot", "static-eq", "dynamic-sim", "distributed-sim", "replay")),
    "dense-20x50": Workload(
        ("solve-ot", "static-eq", "dynamic-sim"),
        lambda seed: generate.dense_pool(20, 50, seed, count=4),
    ),
    "distributed-5x10": Workload(
        ("distributed-sim", "replay"),
        lambda seed: generate.dense_pool(5, 10, seed, count=4),
    ),
    "sparse-10k": Workload(("static-eq",), lambda seed: generate.sparse_pool(seed, count=4)),
}


def import_program():
    """Import advot from this checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "advot"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import advot
    import advot.cli

    if Path(advot.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported advot from {advot.__file__}, not {package}")
    return advot


class SetupSampler:
    """Scaled times, each in a fresh interpreter, to import advot and parse every scenario.

    The samples are spread evenly over the timed loop (``due``, called
    between calls), so they meet the same machine load as the calls.
    """

    def __init__(self, scenarios: list[Path], seconds: float, clock: ScaledClock):
        self.argv = [sys.executable, "-c", SETUP_PROGRAM, str(ROOT / "src"), *map(str, scenarios)]
        self.interval = seconds / SETUP_SAMPLES
        self.clock = clock
        self.walls: list[float] = []
        self.times: list[float] = []

    def _sample(self) -> None:
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        self.walls.append(float(done.stdout.strip().splitlines()[-1]))
        self.times.append(self.clock.scale(self.walls[-1]))

    def due(self, elapsed: float) -> None:
        """Take the samples due ``elapsed`` seconds into the loop."""
        while len(self.times) < SETUP_SAMPLES and elapsed >= len(self.times) * self.interval:
            self._sample()

    def median(self) -> float:
        """Take the samples not taken yet; return the median."""
        while len(self.times) < SETUP_SAMPLES:
            self._sample()
        return statistics.median(self.times)


def work_signature(op: str, out_dir: Path) -> tuple:
    """Work counts read back from a subcommand's outputs."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    size = check.output_bytes(out_dir)
    if op == "solve-ot":
        return report["iterations"], size
    if op == "static-eq":
        return report["rounds"], size
    if op == "dynamic-sim":
        return tuple(s["rounds"] for s in report["stages"]), size
    return report["ticks"], report["messages"], size


@dataclass
class Call:
    wall_s: float | None  # None when the call raised
    scaled_s: float | None
    signature: tuple | None


class Runner:
    """Makes, times and checks op calls; tallies attempts and failures."""

    def __init__(self, advot, workload: Workload, scenarios: list[Path], seed: int,
                 work_dir: Path, clock: ScaledClock):
        self.advot = advot
        self.workload = workload
        self.scenarios = scenarios
        self.checked = [check.Scenario.load(path) for path in scenarios]
        self.seed = seed
        self.work_dir = work_dir
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def extra_args(self, op: str, pass_index: int) -> list[str]:
        """The paper scenario's schedule seed is drawn per pass from the workload seed."""
        if op != "distributed-sim" or self.workload.pool is not None:
            return []
        rng = np.random.default_rng([self.seed, pass_index])
        return ["--seed", str(int(rng.integers(0, 2**31)))]

    def call(self, op: str, pass_index: int, lane: str, tracer: Tracer | None = None) -> Call:
        """One op on the pass's instance, timed, then checked."""
        instance = pass_index % len(self.scenarios)
        out_dir = self.work_dir / "out" / lane / op
        log_dir = out_dir.parent / "distributed-sim"
        argv = [op, "--config", str(self.scenarios[instance]), "--out", str(out_dir)]
        argv += self.extra_args(op, pass_index)
        installed = tracer.installed(self.attempted) if tracer else contextlib.nullcontext()
        wall = scaled = signature = None
        start = perf_counter()
        try:
            with installed:
                if op == "replay":
                    distributed = self.advot.distributed
                    rebuilt = distributed.replay(
                        distributed.MessageLog.from_text(
                            (log_dir / "messages.log").read_text(encoding="utf-8")
                        )
                    )
                else:
                    status = self.advot.cli.main(argv)
            wall = perf_counter() - start
        except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
            failures = [f"raised {type(exc).__name__}: {exc}"]
        else:
            scaled = self.clock.scale(wall)
            if op == "replay":
                failures = check.check_replay(rebuilt, log_dir)
                signature = (rebuilt.iterations, len(rebuilt.trace))
            else:
                failures = check.check_cli(op, status, out_dir, self.checked[instance])
                signature = work_signature(op, out_dir)
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.append(f"{op} on instance {instance}: {'; '.join(failures)}")
        return Call(wall, scaled, signature)


def reference_pass(runner: Runner, timed: bool) -> dict[str, int]:
    """Untimed warm-up: each op once on instance 0, counting work as it goes.

    The counts repeat exactly for a given seed, with tracing on or off.
    """
    tracer = Tracer(runner.advot, timed=timed)
    out_bytes = 0
    for op in runner.workload.ops:
        runner.call(op, 0, "reference", tracer)
        if op != "replay":
            out_bytes += check.output_bytes(runner.work_dir / "out" / "reference" / op)
    counts = {name: int(tracer.counts[name]) for name in COUNT_METRICS}
    counts["scenario.out_bytes"] = out_bytes
    return counts


def timed_cycles(runner: Runner, seconds: float, tracer: Tracer | None,
                 after_call: Callable[[float], None] | None = None):
    """Closed loop of passes over the instance pool within ``seconds``.

    Untraced, the loop runs whole cycles, one pass (each op once) per pool
    instance, so the bounded metrics weigh the instances equally; another
    cycle starts only if it is expected to end within ``seconds``, and the
    first always runs.  With a tracer, each op runs once untraced and once
    traced on the same instance (alternating which goes first), both must do
    exactly the same work, and the loop may stop after any pass.

    ``after_call`` runs after every call, given the loop's seconds so far;
    its own time does not count against ``seconds``.  Returns the calls per
    lane and op, and the number of passes.
    """
    lanes = ("untraced",) if tracer is None else ("untraced", "traced")
    calls = {lane: {op: [] for op in runner.workload.ops} for lane in lanes}
    step = len(runner.scenarios) if tracer is None else 1
    start = perf_counter()
    paused = 0.0
    passes = 0
    while True:
        order = lanes if passes % 2 == 0 else lanes[::-1]
        for op in runner.workload.ops:
            made = {}
            for lane in order:
                made[lane] = runner.call(op, passes, lane, tracer if lane == "traced" else None)
                calls[lane][op].append(made[lane])
                if after_call:
                    now = perf_counter()
                    after_call(now - start - paused)
                    paused += perf_counter() - now
            if tracer is not None and made["untraced"].signature != made["traced"].signature:
                runner.failed += 1
                runner.reasons.append(f"{op}: traced and untraced calls did different work")
        passes += 1
        if passes % step == 0:
            elapsed = perf_counter() - start - paused
            if elapsed * (passes + step) / passes > seconds:
                return calls, passes


def tail(times: list[float]) -> tuple[float, int] | None:
    """(time, percentile) of the highest percentile with ten calls beyond it."""
    if len(times) < TAIL_MIN_CALLS:
        return None
    ordered = sorted(times)
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], int(100 * (index + 1) / len(ordered))


def medians(calls: dict[str, list[Call]]) -> dict[str, float]:
    """Median wall time per op, over the calls that did not raise."""
    out = {}
    for op, made in calls.items():
        times = [c.wall_s for c in made if c.wall_s is not None]
        if times:
            out[op] = statistics.median(times)
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_op(runner: Runner, calls: dict[str, list[Call]]) -> dict:
    """Median and tail per op, and failed_frac: printed, not bounded."""
    out = {}
    for op, made in calls.items():
        name = op.replace("-", "_")
        times = [c.wall_s for c in made if c.wall_s is not None]
        if not times:
            continue
        out[f"{name}_p50_s"] = {"value": statistics.median(times), "unit": "s", "calls": len(times)}
        tail_stat = tail(times)
        if tail_stat:
            out[f"{name}_tail_s"] = {
                "value": tail_stat[0], "unit": "s", "percentile": tail_stat[1], "calls": len(times),
            }
    out["failed_frac"] = {
        "value": runner.failed / runner.attempted, "unit": "ratio",
        "failed": runner.failed, "attempted": runner.attempted,
    }
    return out


def pass_time(calls: dict[str, list[Call]], per_cycle: int, scaled: bool = True) -> float:
    """Median over cycles of a cycle's mean pass time (each op once), scaled or wall.

    A cycle is one pass per pool instance, so the mean weighs the instances
    equally and a seed's instance mix moves it little.  Passes with a call
    that raised are left out.
    """
    passes = [
        sum(c.scaled_s if scaled else c.wall_s for c in made)
        for made in zip(*calls.values())
        if all(c.wall_s is not None for c in made)
    ]
    cycles = [passes[i:i + per_cycle] for i in range(0, len(passes), per_cycle)]
    return statistics.median(statistics.fmean(cycle) for cycle in cycles) if passes else 0.0


def end_to_end(calls: dict[str, list[Call]], per_cycle: int, setup_s: float,
               peak_rss_mb: float) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "pass_s": metric(pass_time(calls, per_cycle), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, counts: dict, calls, passes: int) -> dict:
    """Counts from the reference pass; self times per pass; rates; overhead."""
    out = {name: metric(counts[name], "count") for name in (*COUNT_METRICS, "scenario.out_bytes")}
    for name, total in tracer.layer_times().items():
        out[name] = metric(total / passes, "s")
    run_seconds = tracer.span_seconds("distributed.run")
    for name in ("ticks", "messages"):
        rate = tracer.counts[f"distributed.{name}"] / run_seconds if run_seconds else 0.0
        out[f"distributed.{name}_per_s"] = metric(rate, "1/s")
    plain = sum(medians(calls["untraced"]).values())
    traced = sum(medians(calls["traced"]).values())
    out["trace.overhead_frac"] = metric(traced / plain - 1.0 if plain else 0.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one advot workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seed = args.seed % 2**64  # the generators take non-negative seeds
    advot = import_program()
    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    clock = ScaledClock()
    try:
        problems = check.self_test(advot.cli.main, work_dir / "self-test")
        scenarios = workload.scenarios(args.workload, seed, work_dir)
        runner = Runner(advot, workload, scenarios, seed, work_dir, clock)
        counts = reference_pass(runner, timed=bool(args.trace))
        print("work-counts " + json.dumps(counts, sort_keys=True))
        tracer = Tracer(advot, timed=True) if args.trace else None
        setup = SetupSampler(scenarios, args.seconds, clock)
        calls, passes = timed_cycles(runner, args.seconds, tracer, None if args.trace else setup.due)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{args.workload}: {passes} passes over {len(scenarios)} scenario(s), "
              f"ops {', '.join(workload.ops)}")
        if args.trace:
            metrics = per_layer(tracer, counts, calls, passes)
        else:
            setup_s = setup.median()
            print("per-op " + json.dumps(per_op(runner, calls["untraced"])))
            print("wall " + json.dumps({
                "pass_s": pass_time(calls["untraced"], len(scenarios), scaled=False),
                "setup_s": statistics.median(setup.walls),
            }))
            metrics = end_to_end(calls["untraced"], len(scenarios), setup_s, peak_rss_mb)
    finally:
        clock.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    for reason in problems + runner.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
