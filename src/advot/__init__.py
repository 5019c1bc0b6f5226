"""Adversarial regularized optimal transport over bipartite networks.

The package computes entropic-regularized transport plans via dual pricing,
static Bayesian equilibria between a dispatcher and a typed adversary,
multistage equilibria with thresholded adversary actions and belief updates,
and the same fixed points through a simulated asynchronous per-source solver.
"""

from .distributed import (
    Message,
    MessageLog,
    Schedule,
    SourceAgent,
    replay,
    run_distributed,
)
from .dynamic_game import (
    StageOutcome,
    StageState,
    belief_update,
    run_dynamic_game,
)
from .errors import (
    AdvotError,
    CorruptLog,
    DanglingEdge,
    DegenerateDenominator,
    DimensionMismatch,
    DuplicateEdge,
    IsolatedNode,
    NonFiniteIterate,
    NonpositiveCapacity,
    ParseError,
    PerturbationBelowFloor,
    StageNotConverged,
    ValidationError,
    ZeroLambda,
)
from .network import (
    BELIEF_ATOL,
    PERTURBATION_FLOOR,
    AdversaryCostParams,
    BipartiteNetwork,
    build_network,
    check_belief,
    check_strategy,
    feasibility_check,
    uniform_belief,
)
from .scenario import (
    ScenarioConfig,
    emit_trace,
    parse_scenario,
    run_command,
)
from .static_game import (
    EquilibriumProfile,
    GameSpec,
    adversary_cost,
    best_response_strategy,
    deviation_check,
    dispatcher_best_response,
    dispatcher_expected_utility,
    effective_weights,
    minimize_node_cost,
    node_cost_aggregates,
    solve_bayesian_equilibrium,
    stage_adversary_best_response,
    threshold_phi,
)
from .transport import (
    SolveReport,
    SolverSettings,
    capacity_prices,
    dual_update,
    planner_objective,
    primal_update,
    solve_regularized_ot,
    unregularized_solve,
)

__version__ = "0.1.0"
