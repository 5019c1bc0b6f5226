"""How the entropic term shapes a transport plan.

Solves the bundled two-source, three-target scenario twice: once as a plain
linear program (lam = 0), once with the entropic regularizer (lam = 3).
Without smoothing every source dumps its whole capacity on its single
heaviest link; with smoothing the plan spreads across all links while still
respecting capacities.

Run from the repository root:  python demos/regularized_transport.py
"""

from pathlib import Path

import numpy as np

from advot import parse_scenario, solve_regularized_ot, unregularized_solve

config = parse_scenario((Path(__file__).parents[1] / "scenarios" / "paper_2x3.json").read_text())
network = config.network
weights = config.weights

print("perception weights:")
print(network.plan_matrix(weights))
print("capacities:", np.asarray(network.capacities))

sparse = unregularized_solve(network, weights)
print("\nlam = 0 (pure linear program): one hot link per source")
print(network.plan_matrix(sparse).round(4))

report = solve_regularized_ot(network, weights, config.settings())
print(f"\nlam = 3 (entropic smoothing), KKT residual {report.residual:.1e}:")
print(network.plan_matrix(report.plan).round(4))
print("capacity prices:", report.prices.round(6))
print("row sums:", network.row_sums(report.plan).round(6), "(<= capacities)")

# the shadow price is zero exactly where capacity is slack
slack = np.asarray(network.capacities) - network.row_sums(report.plan)
for sid, price, s in zip(network.source_ids, report.prices, slack):
    state = "binding" if price > 1e-6 else "slack"
    print(f"  source {sid}: price {price:.6f}, slack {s:.6f} ({state})")
