"""Helpers shared by the test modules.

Nothing here imports pytest, so `surface_digest()` and `surface_digests()`
run under any Python that can import the package:

    python3 -c "import sys; sys.path[:0] = ['src', 'tests']; import _util; print(_util.surface_digest())"
"""

import dataclasses
import hashlib
import math
from fractions import Fraction

import ssgsolve.oracle as oracle
from ssgsolve import solve_bvi, solve_svi, solve_topological, solve_vi
from ssgsolve.fuzz import SLACK, stream_params
from ssgsolve.model import (MAX, Action, GenParams, StatePartition, StochasticGame,
                            dot, dot2, generate_random, normalize, partition_states)
from ssgsolve.oracle import TooLarge, exact_value
from ssgsolve.presets import ALL_PRESETS
from ssgsolve.svi import ReachStayVector, start_vector


def action(game, s, label):
    """State s's action with the given label, by a scan of `game.actions[s]`; KeyError if none."""
    for act in game.actions[s]:
        if act.label == label:
            return act
    raise KeyError(f"state {s} has no action {label!r}")


def restricted(game, strategy):
    """The game with every state named in `strategy` (state -> label) left only its chosen action."""
    acts = tuple((action(game, s, strategy[s]),) if s in strategy else game.actions[s]
                 for s in range(game.n_states))
    return dataclasses.replace(game, actions=acts)


def no_decision_value(*args):
    """A stand-in for `svi.decision_value` that finds no crossing.

    Put in its place, the caps d_l and d_u keep their seeds 1 and 0 and cap
    nothing, so l and u jump to the bare loop extrapolations: the weakened
    svi that the fuzzer and the acceptance checks must catch.
    """
    return None


def _single_actions(game):
    bad = [f"{s} has {len(game.actions[s])}" for s in range(game.n_states)
           if len(game.actions[s]) != 1]
    if bad:
        raise ValueError(f"expected one action per state, but state {', state '.join(bad)}")


def chain_reachability(game):
    """Exact target-reachability probabilities of a one-action-per-state game.

    One call of the oracle's integer chain solve (`oracle._chain_reach`),
    without the strategy iteration around it: the reference the chain
    solve and the oracle's witnesses are checked against. The game must
    pass `validate()`.
    """
    _single_actions(game)
    rows = oracle._chain_step(oracle._int_rows(game), {})
    return oracle._fractions(*oracle._chain_reach(rows, set(game.targets)))


def k_step_oracle(game, part, k):
    """Exact k-step reach/stay probabilities of a one-action-per-state game.

    reach[s] is the probability of hitting a target within k steps, stay[s]
    the probability of remaining inside the undecided region for k steps.
    Backward recurrence over the rationals, seeded from `part`, the
    F/Z/S? split the probabilities are measured against: the reference
    for svi's float reach/stay vectors.
    """
    _single_actions(game)
    one, zero = Fraction(1), Fraction(0)
    reach = [one if s in part.targets else zero for s in range(game.n_states)]
    stay = [one if s in part.unknown else zero for s in range(game.n_states)]
    rows = [acts[0].transitions for acts in game.actions]
    for _ in range(k):
        reach = [
            reach[s] if s not in part.unknown else sum((p * reach[t] for t, p in rows[s]), zero)
            for s in range(game.n_states)
        ]
        stay = [
            stay[s] if s not in part.unknown else sum((p * stay[t] for t, p in rows[s]), zero)
            for s in range(game.n_states)
        ]
    return reach, stay


def pool_candidates(pool, reach, stay):
    """The loop extrapolations reach/(1-stay) of the pool states with stay < 1.

    The list `svi.update_global_bounds` built from the pool on every sweep
    before `svi.bellman_update` folded its extremes: the reference for that
    fold. Fewer candidates than pool states means some state has stay 1.
    """
    return [reach[s] / (1.0 - stay[s]) for s in pool if stay[s] < 1.0]


def check_termination_by_walk(partition, rs, bounds, eps, mode="absolute"):
    """`svi.check_termination` as it walked the pool in both modes before the sweep folded the largest stay."""
    gap = bounds.u - bounds.l
    for s in partition.unknown:
        st = rs.stay[s]
        if mode == "relative":
            denom = rs.reach[s] + st * bounds.u
            st = 0.0 if denom == 0.0 else st / denom
        if st * gap >= 2.0 * eps:
            return False
    return True


def folded(pool, reach, stay):
    """A `svi.ReachStayVector` carrying the fold of `bellman_update`, worked out by walking the pool.

    For vectors built by hand: the largest stay over the pool (0.0 if it
    is empty) and the extremes of `pool_candidates` (inf and -inf if
    there are none).
    """
    cands = pool_candidates(pool, reach, stay)
    return ReachStayVector(reach, stay, max((stay[s] for s in pool), default=0.0),
                           min(cands, default=math.inf), max(cands, default=-math.inf))


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


def ec_set(sizes, seeds):
    """The EC-set games of the given sizes and seeds, normalized.

    `GenParams(n, 3, br, 0.1, mp, eb, seed)` for every size n and seed,
    ec_bias eb in (0.3, 0.5, 0.7), branching br in (2, 3) and Minimizer
    share mp in (0.3, 0.5): games with many end components.
    """
    for n in sizes:
        for seed in seeds:
            for eb in (0.3, 0.5, 0.7):
                for br in (2, 3):
                    for mp in (0.3, 0.5):
                        yield normalize(generate_random(GenParams(n, 3, br, 0.1, mp, eb, seed=seed)))


def check_set(solve, games, max_states=12):
    """(wrong brackets, stalls, sweep sum) of `solve` over `games`, against `exact_value`.

    solve(game) returns a SolveResult. A wrong bracket is a game on which
    some state's [lower, upper] misses the exact value by more than
    `fuzz.SLACK`; a stall is a solve that did not converge.
    """
    wrong = stalls = sweeps = 0
    for game in games:
        res = solve(game)
        exact = exact_value(game, max_states=max_states).values
        wrong += any(lo > v + SLACK or up < v - SLACK
                     for lo, up, v in zip(res.lower, res.upper, exact))
        stalls += not res.converged
        sweeps += res.iterations
    return wrong, stalls, sweeps


def fuzz_stream_params(count):
    """The first `count` GenParams of the fuzz stream `stream_params(count, 0, 12)`."""
    return stream_params(count, 0, 12)


def surface_games():
    """The 676 games `surface_digest` solves: presets, a census slice, the fuzz stream, four 80-state games."""
    yield from (build() for build in ALL_PRESETS.values())
    yield from census((8, 10, 12), range(40))
    yield from (generate_random(p) for p in fuzz_stream_params(300))
    for eb in (0.0, 0.5):
        for seed in (2, 3):
            yield generate_random(GenParams(80, 3, 3, 0.05, 0.5, eb, seed))


#: the public entry points, in the order `surface_digest` hashes them, by `surface_digests` key
SURFACE_CALLS = {"vi": solve_vi, "bvi": solve_bvi, "svi": solve_svi, "topo-svi": solve_topological,
                 "topo-bvi": lambda g: solve_topological(g, inner="bvi"), "oracle": exact_value}


def _surface_repr(call, game):
    """The repr of call(game) with wall_ms zeroed, or of the TooLarge it raises."""
    try:
        res = call(game)
    except TooLarge as exc:
        res = exc
    if hasattr(res, "wall_ms"):
        res = dataclasses.replace(res, wall_ms=0.0)
    return repr(res).encode()


def surface_digest():
    """sha256 over every public entry point's result on `surface_games()`.

    Each result's repr is hashed in turn, with wall_ms zeroed; a TooLarge
    the oracle raises is hashed by its repr. A refactor that keeps this
    digest keeps every value, iteration count, strategy and trace.
    """
    h = hashlib.sha256()
    for game in surface_games():
        for call in SURFACE_CALLS.values():
            h.update(_surface_repr(call, game))
    return h.hexdigest()


def surface_digests():
    """`surface_digest` split by entry point: one sha256 per call, keyed as in `SURFACE_CALLS`.

    Says which entry points a change moved:

        python3 -c "import sys; sys.path[:0] = ['src', 'tests']; import _util; print(_util.surface_digests())"
    """
    hashes = {name: hashlib.sha256() for name in SURFACE_CALLS}
    for game in surface_games():
        for name, call in SURFACE_CALLS.items():
            hashes[name].update(_surface_repr(call, game))
    return {name: h.hexdigest() for name, h in hashes.items()}


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
    """Two Jacobi sweeps through `dot2` and `dot`: the reference for one layer of `baselines._sweep_layers`."""
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


def gauss_seidel_by_dot(game, order, low, high):
    """Two in-place sweeps in the given state order through `dot`, on copies of low and high.

    The reference for `baselines._sweep_layers` with one state per layer.
    """
    rows, owner = game.rows, game.owner
    low, high = list(low), list(high)
    for s in order:
        pick = max if owner[s] == MAX else min
        low[s] = pick([dot(row, low) for row in rows[s]])
        high[s] = pick([dot(row, high) for row in rows[s]])
    return low, high


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
        return (action(game, s, max_strategy[s]),) if s in max_strategy else game.actions[s]

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
