"""Reachability values in turn-based stochastic games.

The solvers compute, for every state, the value of the reachability game:
the probability of eventually hitting a target state when the Maximizer
picks actions to make that likely and the Minimizer to make it unlikely.
`solve_svi` keeps certified lower and upper bounds and is the recommended
entry point; `solve_vi` and `solve_bvi` are the classic baselines;
`solve_topological` runs any of them one strongly connected component at
a time; `exact_value` is an exact rational oracle for small models.
"""

from .baselines import deflate, solve_bvi, solve_vi
from .fuzz import Counterexample, FuzzReport, run_fuzz
from .graph import best_exits, mec_decompose, scc_decompose
from .model import (
    MAX,
    MIN,
    Action,
    GenParams,
    ModelError,
    ParseError,
    StatePartition,
    StochasticGame,
    ValidationError,
    generate_random,
    normalize,
    parse_model,
    partition_states,
    serialize_model,
)
from .oracle import ExactResult, TooLarge, chain_reachability, exact_value, k_step_oracle
from .results import SolveResult, TraceEntry
from .svi import DELAY, GlobalBounds, ReachStayVector, solve_svi
from .topo import SccPlan, build_plan, solve_topological

__version__ = "0.1.0"

__all__ = [
    "MAX",
    "MIN",
    "Action",
    "Counterexample",
    "DELAY",
    "ExactResult",
    "FuzzReport",
    "GenParams",
    "GlobalBounds",
    "ModelError",
    "ParseError",
    "ReachStayVector",
    "SccPlan",
    "SolveResult",
    "StatePartition",
    "StochasticGame",
    "TooLarge",
    "TraceEntry",
    "ValidationError",
    "best_exits",
    "build_plan",
    "chain_reachability",
    "deflate",
    "exact_value",
    "generate_random",
    "k_step_oracle",
    "mec_decompose",
    "normalize",
    "parse_model",
    "partition_states",
    "run_fuzz",
    "scc_decompose",
    "serialize_model",
    "solve_bvi",
    "solve_svi",
    "solve_topological",
    "solve_vi",
    "__version__",
]
