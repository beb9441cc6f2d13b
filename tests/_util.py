"""Helpers shared by the test modules."""

from ssgsolve.model import StatePartition, partition_states
from ssgsolve.oracle import exact_value
from ssgsolve.svi import start_vector


def pinned(game, values):
    """A pool-solve partition and start vector with the given states decided at the given values.

    The partition is the game's without its attractor, so a pool solve's
    strategy names the pool only, as in the topological driver.
    """
    part = partition_states(game)
    part = StatePartition(part.targets, part.sinks, part.unknown - values.keys())
    vec = start_vector(game, 1e-6, part)
    for s, v in values.items():
        vec[s] = v
    return part, vec


def exact_floats(game):
    """Exact per-state values as floats."""
    return [float(v) for v in exact_value(game).values]


def max_err(got, want):
    return max(abs(a - b) for a, b in zip(got, want))


# Shrunk models recovered from fuzzing earlier revisions of the solver; each
# one made a state retire at value 0 although its exact value is positive.

# Minimizer-owned 2-cycle feeding a Maximizer state. An exit ranking run
# before trap classification credits the edge into the cycle with the
# cycle's stale estimate and steers state 3 into it.
TRAP_FEED = """\
ssg 1
states 4
minplayer 1 2
target 0
action 0 loop
0 1
action 1 a0
2 1
action 1 a1
0 1
action 2 a0
1 1
action 3 a0
2 1
action 3 a1
3 1
action 3 a2
0 1
"""

# Minimizer state 3 keeps stay mass on the self-absorbing state 0; its
# loop extrapolation is only meaningful if state 0's exact value stays in
# the candidate fold after 0 retires.
STALE_SUPPORT = """\
ssg 1
states 4
minplayer 3
target 1
action 0 a2
0 1
action 1 loop
1 1
action 2 a0
1 1
action 3 a0
0 4/9
2 1/3
3 2/9
"""

# A longer dependency chain ending in a state that retires early.
RETIRE_CHAIN = """\
ssg 1
states 6
minplayer 0 1 2 3 5
target 3
action 0 a0
0 1
action 1 a2
1 1
action 2 a2
1 1
action 3 loop
3 1
action 4 a0
2 1/2
3 1/2
action 5 a1
0 3/5
4 2/5
"""

REGRESSION_MODELS = (TRAP_FEED, STALE_SUPPORT, RETIRE_CHAIN)
