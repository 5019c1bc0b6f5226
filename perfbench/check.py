"""Output checks for every benchmark op, and the checker's own self-test.

Each check returns a list of failure reasons; an empty list means the output
is correct.  The checks read the scenario the benchmark generated, not the
program's echo of it, and recompute what they can independently:

* the report lists the scenario's edges, in the scenario's order;
* every plan is finite, nonnegative and within capacity;
* ``solve-ot``: prices are finite and nonnegative and the KKT residual of
  the reported plan and prices (stationarity ``x = exp((m - p)/lam - 1)``
  and complementary slackness ``min(p, c - Bx) = 0``) is within tolerance;
* ``static-eq``: ``deviation_gap <= 1e-4``;
* ``dynamic-sim``: every configured stage is present and converged;
* ``distributed-sim``: the log holds as many records as the report says;
* ``replay``: the rebuilt report equals ``report.json`` bit-exactly.

Every subcommand must also exit 0 and report ``converged: true``.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

FEASIBILITY_TOL = 1e-6
KKT_TOL = 1e-6
DEVIATION_TOL = 1e-4

# Known overflow input: m/lam is about 1000, so a naive exp overflows.
# max_iter is lowered from the default only to keep the self-test cheap.
OVERFLOW_SCENARIO = {
    "network": {
        "sources": ["j"],
        "targets": ["a", "b"],
        "edges": [["j", "a"], ["j", "b"]],
        "capacities": [1],
    },
    "weights": [3000, 2990],
    "adversary": {
        "lower_caps": [4, 4],
        "upper_caps": [6, 6],
        "punishment_coeff": [1, 1],
        "beta1": 0.5,
        "beta2": 0.5,
    },
    "solver": {"lambda": 3.0, "max_iter": 200},
}


class Scenario:
    """The parts of a scenario file the checks need, keyed by node id."""

    def __init__(self, data: dict):
        net = data["network"]
        self.edges = [tuple(e) for e in net["edges"]]
        self.capacity = dict(zip(net["sources"], (float(c) for c in net["capacities"])))
        self.lam = float(data.get("solver", {}).get("lambda", 3.0))
        self.stages = int(data.get("dynamic", {}).get("stages", 5))
        weights = data["weights"]
        if weights and isinstance(weights[0], list):
            src = {s: i for i, s in enumerate(net["sources"])}
            tgt = {t: i for i, t in enumerate(net["targets"])}
            self.weight = {(s, t): float(weights[src[s]][tgt[t]]) for s, t in self.edges}
        else:
            self.weight = dict(zip(self.edges, (float(w) for w in weights)))

    @classmethod
    def load(cls, path: Path) -> "Scenario":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))


def _plan_failures(scenario: Scenario, plan: list) -> list[str]:
    x = np.asarray(plan, dtype=float)
    if x.shape != (len(scenario.edges),) or not np.all(np.isfinite(x)):
        return ["plan is not a finite per-edge vector"]
    failures = []
    if np.any(x < -FEASIBILITY_TOL):
        failures.append(f"plan has a negative rate {x.min():.3e}")
    rows: dict = {}
    for (s, _), v in zip(scenario.edges, x):
        rows[s] = rows.get(s, 0.0) + v
    for s, total in rows.items():
        cap = scenario.capacity[s]
        if total > cap + FEASIBILITY_TOL * max(1.0, cap):
            failures.append(f"source {s!r} ships {total:.9g} over capacity {cap:.9g}")
    return failures


def _kkt_residual(scenario: Scenario, report: dict) -> float:
    edges = scenario.edges
    x = np.asarray(report["plan"], dtype=float)
    prices = dict(zip(report["sources"], (float(p) for p in report["prices"])))
    weight = np.array([scenario.weight[e] for e in edges])
    price = np.array([prices[s] for s, _ in edges])
    with np.errstate(all="ignore"):
        stationarity = float(np.max(np.abs(x - np.exp((weight - price) / scenario.lam - 1.0))))
    rows = {s: 0.0 for s in prices}
    for (s, _), v in zip(edges, x):
        rows[s] += v
    slackness = max(
        abs(min(p, scenario.capacity[s] - rows[s])) for s, p in prices.items()
    )
    return max(stationarity, slackness)


def check_cli(op: str, status, out_dir: Path, scenario: Scenario) -> list[str]:
    """Check one subcommand call from its exit status and output directory."""
    failures = [] if status == 0 else [f"exit status {status}"]
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return failures + [f"report.json unreadable: {exc}"]
    if report.get("converged") is not True:
        failures.append("report says converged: false")
    if [tuple(e) for e in report.get("edges", [])] != scenario.edges:
        return failures + ["report's edges differ from the scenario's"]
    if op == "dynamic-sim":
        stages = report.get("stages", [])
        if len(stages) != scenario.stages:
            failures.append(f"{len(stages)} of {scenario.stages} stages reported")
        for stage in stages:
            if stage["converged"] is not True:
                failures.append(f"stage {stage['stage']} did not converge")
            failures += _plan_failures(scenario, stage["plan"])
        return failures
    failures += _plan_failures(scenario, report["plan"])
    if op in ("solve-ot", "distributed-sim"):
        prices = np.asarray(report["prices"], dtype=float)
        if not np.all(np.isfinite(prices)) or np.any(prices < 0):
            failures.append("prices are not finite and nonnegative")
    if op == "solve-ot":
        residual = _kkt_residual(scenario, report)
        if not residual <= KKT_TOL:
            failures.append(f"KKT residual {residual:.3e} above {KKT_TOL:g}")
    elif op == "static-eq":
        gap = report.get("deviation_gap")
        if not (isinstance(gap, float) and gap <= DEVIATION_TOL):
            failures.append(f"deviation_gap {gap!r} above {DEVIATION_TOL:g}")
    elif op == "distributed-sim":
        with open(out_dir / "messages.log", "rb") as handle:
            lines = sum(1 for _ in handle)
        if lines != report.get("messages"):
            failures.append(f"messages.log has {lines} records, report says {report.get('messages')}")
    return failures


def check_replay(rebuilt, out_dir: Path) -> list[str]:
    """``rebuilt`` is the SolveReport from replay; compare with report.json bit-exactly."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    pairs = {
        "plan": ([float(v) for v in rebuilt.plan], report["plan"]),
        "prices": ([float(v) for v in rebuilt.prices], report["prices"]),
        "ticks": (rebuilt.iterations, report["ticks"]),
        "residual": (rebuilt.residual, report["residual"]),
        "converged": (rebuilt.converged, report["converged"]),
    }
    return [f"replayed {key} differs from report.json" for key, (a, b) in pairs.items() if a != b]


def output_bytes(out_dir: Path) -> int:
    return sum(entry.stat().st_size for entry in out_dir.iterdir() if entry.is_file())


# Failed outputs of the overflow input, fixed here so the self-test proves the
# checker whatever the program does with that input: (op, exit status,
# report.json, the failure the checker must name on the report alone).
_OVERFLOW_EDGES = OVERFLOW_SCENARIO["network"]["edges"]
FAILED_OUTPUTS = [
    ("solve-ot", 2, {"converged": True, "edges": _OVERFLOW_EDGES, "sources": ["j"],
                     "plan": [0.5, 0.5], "prices": [float("inf")]}, "prices are not finite"),
    ("static-eq", 2, {"converged": True, "edges": _OVERFLOW_EDGES, "plan": [0.5, 0.5],
                      "deviation_gap": 3e3}, "deviation_gap"),
]


def _plainly_bad(op: str, status, out_dir: Path) -> bool:
    """Whether an output is unusable on its face: a non-zero exit, no report,
    non-finite prices (``solve-ot``) or a gap above tolerance (``static-eq``)."""
    if status != 0:
        return True
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        if op == "solve-ot":
            return not np.all(np.isfinite(np.asarray(report["prices"], dtype=float)))
        return not float(report["deviation_gap"]) <= DEVIATION_TOL
    except (OSError, ValueError, TypeError, KeyError):
        return True


def self_test(cli_main, work_dir: Path) -> list[str]:
    """Prove the checker on failed outputs; cross-check it on the program.

    Returns the problems found with the checker itself (empty when it works).
    Each fixed failed output must be rejected with its exit status, and on
    its content alone (status taken as 0) for the expected reason.  Then the
    overflow input runs through ``solve-ot`` and ``static-eq``: whatever the
    program returns, the checker must reject it if it is plainly bad.  A
    program that handles the input, or raises on it, passes.
    """
    scenario = Scenario(OVERFLOW_SCENARIO)
    problems = []
    for op, status, report, reason in FAILED_OUTPUTS:
        out_dir = work_dir / f"fixed-{op}"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(json.dumps(report), encoding="utf-8")
        if not check_cli(op, status, out_dir, scenario):
            problems.append(f"self-test {op}: checker passed a fixed failed output")
        if not any(reason in found for found in check_cli(op, 0, out_dir, scenario)):
            problems.append(f"self-test {op}: checker did not report {reason!r}")
    config = work_dir / "overflow.json"
    config.write_text(json.dumps(OVERFLOW_SCENARIO), encoding="utf-8")
    for op in ("solve-ot", "static-eq"):
        out_dir = work_dir / op
        try:
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore", RuntimeWarning)
                status = cli_main([op, "--config", str(config), "--out", str(out_dir)])
        except (Exception, SystemExit):
            continue  # refusing the input is a correct answer
        if _plainly_bad(op, status, out_dir) and not check_cli(op, status, out_dir, scenario):
            problems.append(f"self-test {op}: checker passed the program's failed output")
    return problems
