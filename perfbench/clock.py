"""Wall times scaled to a reference machine speed, call by call.

On a small machine shared with other tenants the same call can take 25% to
70% longer for seconds at a time, so raw medians from two runs of identical
code disagree by more than a useful regression bound.  A fixed calibration
kernel, written only against the standard library and numpy, slows down with
the machine.  It runs in a child process of its own that never imports the
program, so neither a program change nor the heap, allocator and cache state
a call leaves behind can change its speed.  Before each batch the child is
moved to the CPU the benchmark process last ran on, so it meets the same
load as the call.

Every timed call is followed by a batch of kernel runs lasting about
``KERNEL_SHARE`` of the call (at least one kernel), and the call's wall time
is scaled by ``KERNEL_REF_S / median(kernel times of the batches before and
after it)``: seconds as the call would have taken at the reference speed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Median kernel time on the machine that recorded the baseline
# (2 vCPUs at 2.0 GHz, Python 3.11.7, numpy 2.4.6).  Only a scale factor:
# any fixed value would do, as long as it never changes.
KERNEL_REF_S = 0.0085
KERNEL_SHARE = 0.05

_KERNEL_INPUT = np.random.default_rng(0).random(1000)


def kernel() -> float:
    """Run the calibration kernel once and return its wall time in seconds.

    It mixes what the program does: small numpy array ops, float boxing,
    dict and string allocation, and JSON encoding and decoding.
    """
    start = perf_counter()
    rows = []
    total = 0.0
    for i in range(600):
        values = np.exp(_KERNEL_INPUT / 3.0 - 1.0)
        total += float(values.sum())
        rows.append({"i": i, "v": float(values[i % 1000]), "s": str(i)})
    json.loads(json.dumps(rows))
    return perf_counter() - start


def serve() -> None:
    """Child side: for each count read from stdin, run the kernel that often
    and answer with the times as one JSON line; stop at end of input."""
    for line in iter(sys.stdin.readline, ""):
        print(json.dumps([kernel() for _ in range(int(line))]), flush=True)


def _current_cpu() -> int | None:
    """The CPU this process last ran on (Linux), or None."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class ScaledClock:
    """Scales call times by kernel batches run in a child process; each
    batch serves the calls before and after it.  ``close`` stops the child."""

    def __init__(self):
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._batch(3)  # warm-up
        self._last = self._batch(3)

    def _batch(self, runs: int) -> list[float]:
        cpu = _current_cpu()
        if cpu is not None:
            os.sched_setaffinity(self._child.pid, {cpu})
        self._child.stdin.write(f"{runs}\n")
        self._child.stdin.flush()
        return json.loads(self._child.stdout.readline())

    def scale(self, wall: float) -> float:
        """Scale a wall time measured since the last batch; runs the next batch."""
        batch = self._batch(max(1, round(KERNEL_SHARE * wall / KERNEL_REF_S)))
        speed = statistics.median(self._last + batch)
        self._last = batch
        return wall * KERNEL_REF_S / speed

    def close(self) -> None:
        if self._child.poll() is None:
            self._child.stdin.close()
            self._child.wait(timeout=60)
        self._child.stdout.close()


if __name__ == "__main__":
    serve()
