"""Asynchronous dual pricing reaches the centralized equilibrium.

Each source node runs as an agent that only ever sees its own price,
capacity and incident edges, and sets its exact price from that row alone;
target nodes answer with refreshed effective weights.  An agent with no new
weights since its last tick stays silent.  A seeded random-subset scheduler
activates half the agents per tick on average, yet the assembled plan lands
within solver tolerance of the centralized equilibrium, and the message log
replays bit-exactly.

Run from the repository root:  python demos/distributed_pricing.py
"""

from pathlib import Path

import numpy as np

from advot import (
    Schedule,
    parse_scenario,
    replay,
    run_distributed,
    solve_bayesian_equilibrium,
)

config = parse_scenario((Path(__file__).parents[1] / "scenarios" / "paper_2x3.json").read_text())
spec = config.game_spec()

central = solve_bayesian_equilibrium(spec)
print("centralized equilibrium plan:")
print(spec.network.plan_matrix(central.plan).round(5))

for seed in (1, 2, 3):
    schedule = Schedule(mode="random-subset", activation=0.5, seed=seed)
    report, log = run_distributed(spec, schedule)
    gap = np.max(np.abs(report.plan - central.plan))
    print(
        f"\nseed {seed}: converged={report.converged} after {report.iterations} ticks, "
        f"{len(log)} messages, max gap to centralized {gap:.2e}"
    )

# determinism and replay on the last run
rebuilt = replay(log)
print("\nreplay from the message log alone:")
print("  plan identical:  ", np.array_equal(rebuilt.plan, report.plan))
print("  prices identical:", np.array_equal(rebuilt.prices, report.prices))
print("  trace identical: ", rebuilt.trace == report.trace)

kinds = {}
for message in log:
    kinds[message.kind] = kinds.get(message.kind, 0) + 1
print("\nmessage mix:", dict(sorted(kinds.items())))
print("no agent ever read another agent's price, capacity or rates;")
print("everything above traveled through these messages.")
