"""Static equilibrium between the dispatcher and a typed adversary.

Iterates the dispatcher's expected-utility best response and the
adversary's per-node closed form, Anderson-accelerated, until neither side
moves, then certifies the profile with its exact Nash gap: the larger of
the dispatcher's and the adversary's gain from an exact best response.
Also compares the
dispatcher's utility (measured against the unperturbed perception weights)
across three worlds: no adversary, the equilibrium adversary, and an
adversary pinned at its action caps.

Run from the repository root:  python demos/static_equilibrium.py
"""

from pathlib import Path

from advot import (
    parse_scenario,
    planner_objective,
    solve_bayesian_equilibrium,
    solve_regularized_ot,
)

config = parse_scenario((Path(__file__).parents[1] / "scenarios" / "paper_2x3.json").read_text())
spec = config.game_spec()
network = spec.network

profile = solve_bayesian_equilibrium(spec)
print(f"converged: {profile.converged} after {profile.iterations} rounds")
print(f"deviation gap: {profile.deviation_gap:.3e} (<= 1e-4 certifies: no profitable deviation)")

print("\nequilibrium plan:")
print(network.plan_matrix(profile.plan).round(4))
print("\nequilibrium actions (columns: minor, major):")
for tid, row in zip(network.target_ids, profile.strategy):
    print(f"  {tid}: minor {row[0]:.4f}  major {row[1]:.4f}")

print("\nconvergence of the equilibrium loop:")
for row in profile.trace[:5]:
    print(
        f"  round {row['round']}: dispatcher utility {row['dispatcher_utility']:.6f}, "
        f"minor-type cost {row['adversary_cost_minor']:.4f}"
    )

# utility comparison at the true (unperturbed) perception weights
lam = spec.settings.lam
free = solve_regularized_ot(network, spec.weights, spec.settings).plan
# actions at the caps, weighed under the prior: m + mu_minor*cap_minor + 2*mu_major*cap_major
belief, caps = spec.belief, spec.caps()
node_term = belief[:, 0] * caps[:, 0] + belief[:, 1] * 2.0 * caps[:, 1]
perceived = spec.weights + node_term[network.edge_target]
worst = solve_regularized_ot(network, perceived, spec.settings).plan
u_free = planner_objective(free, spec.weights, lam)
u_eq = planner_objective(profile.plan, spec.weights, lam)
u_worst = planner_objective(worst, spec.weights, lam)
print("\ndispatcher utility at the true weights:")
print(f"  no adversary        {u_free:.6f}")
print(f"  equilibrium actions {u_eq:.6f}")
print(f"  actions at the caps {u_worst:.6f}")
print("the attack degrades utility; restraint at equilibrium degrades it less")
