"""Adversarial regularized optimal transport over bipartite networks.

The package computes entropic-regularized transport plans at their exact prices,
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
    best_response_strategy,
    deviation_check,
    minimize_node_cost,
    solve_bayesian_equilibrium,
    stage_adversary_best_response,
    threshold_phi,
)
from .transport import (
    SolveReport,
    SolverSettings,
    planner_objective,
    primal_update,
    solve_regularized_ot,
    unregularized_solve,
)

__version__ = "0.1.0"
