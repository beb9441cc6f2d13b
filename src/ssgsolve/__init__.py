"""Reachability values in turn-based stochastic games.

The solvers compute, for every state, the value of the reachability game:
the probability of eventually hitting a target state when the Maximizer
picks actions to make that likely and the Minimizer to make it unlikely.
`solve_svi` is the paper's algorithm, with certified bounds but known
wrong brackets and livelocks; `solve_vi` and `solve_bvi` are the classic
baselines. `solve_topological` runs svi or bvi one strongly connected
component at a time; with `inner="bvi"` it had no wrong bracket and no
stall on the seeded check sets. `exact_value` is an exact rational oracle.
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
from .oracle import ExactResult, TooLarge, exact_value
from .results import SolveResult, TraceEntry
from .svi import solve_svi
from .topo import build_plan, solve_topological

__version__ = "0.1.0"

__all__ = [
    "MAX",
    "MIN",
    "Action",
    "Counterexample",
    "ExactResult",
    "FuzzReport",
    "GenParams",
    "ModelError",
    "ParseError",
    "SolveResult",
    "StatePartition",
    "StochasticGame",
    "TooLarge",
    "TraceEntry",
    "ValidationError",
    "best_exits",
    "build_plan",
    "deflate",
    "exact_value",
    "generate_random",
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
