"""Helpers shared by the test modules."""

import random
from fractions import Fraction

from ssgsolve.model import (MAX, Action, GenParams, StatePartition, StochasticGame,
                            dot, dot2, generate_random, normalize, partition_states)
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


def permute_states(game, perm):
    """The same game with state s renamed perm[s]; transition order is kept."""
    owner = [""] * game.n_states
    actions = [()] * game.n_states
    for s in range(game.n_states):
        owner[perm[s]] = game.owner[s]
        actions[perm[s]] = tuple(
            Action(a.label, tuple((perm[t], p) for t, p in a.transitions)) for a in game.actions[s]
        )
    return StochasticGame(game.n_states, tuple(owner), tuple(actions),
                          frozenset(perm[t] for t in game.targets))


def census_params(sizes, seeds):
    """The census GenParams of the given sizes and seeds, at the three (target fraction, ec_bias) pairs."""
    for n in sizes:
        for seed in seeds:
            for tf, eb in ((0.1, 0.0), (0.1, 0.5), (0.05, 1.0)):
                yield GenParams(n_states=n, seed=seed, max_actions_per_state=3, max_branching=3,
                                target_fraction=tf, ec_bias=eb)


def census(sizes, seeds):
    """The census games of the given sizes and seeds, normalized."""
    for params in census_params(sizes, seeds):
        yield normalize(generate_random(params))


def fuzz_stream_params(count):
    """The first `count` GenParams of the stream `run_fuzz(count, 0, max_states=12)` draws."""
    rng = random.Random(0)
    for _ in range(count):
        yield GenParams(
            n_states=rng.randint(2, 12),
            max_actions_per_state=rng.randint(1, 3),
            max_branching=rng.randint(1, 3),
            target_fraction=rng.choice([0.1, 0.2, 0.4]),
            min_player_fraction=rng.choice([0.3, 0.5, 0.7]),
            ec_bias=rng.choice([0.0, 0.3, 0.7, 1.0]),
            seed=rng.randrange(2**31),
        )


def distribution_fault(probs):
    """Why `StochasticGame.validate` rejects these probabilities, worked out by adding Fractions.

    "range" if one is outside (0, 1], else the exact total if it is not
    exactly 1, however close, else None. The reference for the integer
    checks of `validate`.
    """
    if any(not 0 < p <= 1 for p in probs):
        return "range"
    total = sum(probs, Fraction(0))
    return None if total == 1 else total


def reach_by_predecessor_sets(game):
    """The targets and the states with a path to one, by a search over per-state predecessor sets.

    The reference for `StochasticGame.can_reach`, which walks `preds`.
    """
    preds = [set() for _ in range(game.n_states)]
    for s, acts in enumerate(game.actions):
        for act in acts:
            for succ, _ in act.transitions:
                preds[succ].add(s)
    found, frontier = set(game.targets), list(game.targets)
    while frontier:
        for p in preds[frontier.pop()] - found:
            found.add(p)
            frontier.append(p)
    return frozenset(found)


def sweep_by_dot(game, unknown, vec):
    """One Jacobi sweep with one `dot` call per row: the reference for `baselines._sweep`."""
    rows, owner = game.rows, game.owner
    new = list(vec)
    for s in unknown:
        acts = rows[s]
        if len(acts) == 1:
            new[s] = dot(acts[0], vec)
            continue
        vals = [dot(row, vec) for row in acts]
        new[s] = max(vals) if owner[s] == MAX else min(vals)
    return new


def sweep2_by_dot(game, unknown, low, high):
    """Two Jacobi sweeps through `dot2` and `dot`: the reference for `baselines._sweep2`."""
    rows, owner = game.rows, game.owner
    new_low, new_high = list(low), list(high)
    for s in unknown:
        acts = rows[s]
        if len(acts) == 1:
            new_low[s], new_high[s] = dot2(acts[0], low, high)
            continue
        pick = max if owner[s] == MAX else min
        new_low[s] = pick([dot(row, low) for row in acts])
        new_high[s] = pick([dot(row, high) for row in acts])
    return new_low, new_high


def exact_floats(game):
    """Exact per-state values as floats."""
    return [float(v) for v in exact_value(game).values]


def certificate_faults(game, values, max_strategy):
    """Why `values` is not proven, in exact arithmetic, to be the game value.

    Upper side: T(V) <= V for the Bellman operator T, so V is at least the
    value, the least fixed point of T. Lower side: hold the Maximizer to
    `max_strategy` (state -> label). V must be 0 wherever the Minimizer can
    then keep play away from the targets for good. Everywhere else the
    Minimizer's MDP leaves the non-targets almost surely, so its operator
    T_sigma has one fixed point there, and V <= T_sigma(V) puts V below it,
    at most the value. Returns the violations; an empty list is a proof.
    """
    def worth(act):
        return sum(p * values[t] for t, p in act.transitions)

    def moves(s):
        return (game.action(s, max_strategy[s]),) if s in max_strategy else game.actions[s]

    faults = []
    for s in range(game.n_states):
        if s in game.targets:
            if values[s] != 1:
                faults.append(f"target {s} has V = {values[s]}")
            continue
        opt = max if game.owner[s] == MAX else min
        if opt(worth(a) for a in game.actions[s]) > values[s]:
            faults.append(f"state {s}: T(V) above V = {values[s]}")
    # the greatest set of non-targets the Minimizer can keep play in
    avoid = set(range(game.n_states)) - game.targets
    shrinking = True
    while shrinking:
        shrinking = False
        for s in sorted(avoid):
            kept = [all(t in avoid for t, _ in a.transitions) for a in moves(s)]
            if not (all(kept) if game.owner[s] == MAX else any(kept)):
                avoid.discard(s)
                shrinking = True
    for s in range(game.n_states):
        if s in avoid:
            if values[s] != 0:
                faults.append(f"state {s}: the Minimizer avoids the targets, V = {values[s]}")
        elif s not in game.targets:
            opt = max if game.owner[s] == MAX else min
            if values[s] > opt(worth(a) for a in moves(s)):
                faults.append(f"state {s}: V = {values[s]} above T_sigma(V)")
    return faults


def greedy_trap(game, region):
    """The greatest trap in the region, by rescanning it until nothing leaves.

    The reference for `graph.trap_states`: a Maximizer state stays while
    every action keeps play in the set, a Minimizer state while one does.
    Quadratic in the worst case, which is why the package does not use it.
    """
    W = set(region)
    changed = True
    while changed:
        changed = False
        for s in sorted(W):
            acts = game.actions[s]
            if game.owner[s] == MAX:
                ok = all(all(t in W for t, _ in a.transitions) for a in acts)
            else:
                ok = any(all(t in W for t, _ in a.transitions) for a in acts)
            if not ok:
                W.discard(s)
                changed = True
    return W


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
