"""Graph analyses: SCCs, end components, traps, almost-sure winners, best-exit collection."""

import dataclasses
import hashlib
import itertools
import random

import pytest

import ssgsolve.baselines as baselines
import ssgsolve.graph as graph
from ssgsolve.baselines import solve_bvi, solve_vi
from ssgsolve.graph import (
    almost_sure,
    attractor,
    best_exit_set,
    best_exits,
    handle_ecs,
    mec_decompose,
    scc_decompose,
    trap_states,
)
from ssgsolve.model import (
    MAX,
    MIN,
    GenParams,
    StatePartition,
    generate_random,
    normalize,
    parse_model,
    partition_states,
)
from ssgsolve.oracle import exact_value
from ssgsolve.presets import (
    ALL_PRESETS,
    asymmetric_ring,
    exit_seesaw,
    loop_or_coin,
    loop_with_bypass,
    minimizer_trap,
    nested_rings,
    serial_loops,
    slow_loop,
)
from ssgsolve.svi import solve_svi
from ssgsolve.topo import solve_topological

from _util import TRAP_FEED, census, exact_floats, greedy_trap, reach_by_predecessor_sets


def k0_vectors(game):
    part = partition_states(game)
    reach = [1.0 if s in part.targets else 0.0 for s in range(game.n_states)]
    stay = [1.0 if s in part.unknown else 0.0 for s in range(game.n_states)]
    return part, reach, stay


def test_scc_three_chain_reverse_topological():
    g = normalize(parse_model("ssg 1\nstates 3\ntarget 2\naction 0 a\n  1 1\naction 1 a\n  2 1\n"))
    assert scc_decompose(g) == [[2], [1], [0]]


def test_scc_order_on_bypass_model():
    comps = scc_decompose(loop_with_bypass())
    assert [sorted(c) for c in comps] == [[3], [4], [1], [2], [0]]
    # every component appears after everything it can reach
    pos = {s: i for i, c in enumerate(comps) for s in c}
    g = loop_with_bypass()
    for s in range(g.n_states):
        for a in g.actions[s]:
            for t, _ in a.transitions:
                if pos[s] != pos[t]:
                    assert pos[t] < pos[s]


def test_scc_restrict():
    g = serial_loops()
    assert scc_decompose(g, restrict={0, 1}) == [[1], [0]]


def test_mec_seesaw_cycle():
    assert mec_decompose(exit_seesaw(), {0, 1}) == [frozenset({0, 1})]


def test_mec_self_loop_state():
    assert mec_decompose(loop_or_coin(), {0}) == [frozenset({0})]


def test_mec_none_in_leaky_loop():
    # the loop action leaks out, so the singleton is not closed
    assert mec_decompose(slow_loop(), {0}) == []


def test_mec_minimizer_cycle():
    assert mec_decompose(minimizer_trap(), {0, 1}) == [frozenset({0, 1})]


# Region {0, 1, 3, 4, 5, 6, 7}; 2 and 8 lie outside and serve as seeds.
# 0 and 1 (Maximizer, Minimizer) each have one action into 2 and one into
# the self-loop 3; the Minimizer state 4 reaches 2 by both of its actions,
# the second with probability 1/2; 5 reaches 2 only by its second action;
# 6 only steps to 0; 7 has one action into each seed.
ATTRACTOR_GAME = """\
ssg 1
states 9
minplayer 1 4
target 2
action 0 a
  2 1
action 0 b
  3 1
action 1 a
  2 1
action 1 b
  3 1
action 2 loop
  2 1
action 3 loop
  3 1
action 4 a
  2 1
action 4 b
  2 1/2
  3 1/2
action 5 a
  3 1
action 5 b
  2 1
action 6 a
  0 1
action 7 a
  8 1
action 7 b
  2 1
action 8 loop
  8 1
"""


def test_attractor_player_rule_against_opponent_rule():
    g = parse_model(ATTRACTOR_GAME)
    region = {0, 1, 3, 4, 5, 6, 7}
    # a player state joins by one action, each other state needs all of its
    # actions; the value is the position of the action that completed the entry
    assert attractor(g, region, [2], MAX) == {0: 0, 4: 1, 5: 1, 6: 0, 7: 1}
    assert attractor(g, region, [2], MIN) == {1: 0, 4: 0}
    # with no player every state needs all of its actions
    assert attractor(g, region, [2], None) == {4: 1}
    # the seeds are popped last in, first out
    assert attractor(g, region, [2, 8], MAX)[7] == 0
    assert attractor(g, region, [8, 2], MAX)[7] == 1


def test_attractor_usable_filter():
    g = parse_model(ATTRACTOR_GAME)
    region = {0, 1, 3, 4, 5, 6, 7}
    # without the b actions the Minimizer states 1 and 4 need only a, and 5 and 7 cannot join
    assert attractor(g, region, [2], MAX, usable=lambda s, act: act.label != "b") == \
        {0: 0, 1: 0, 4: 0, 6: 0}
    # an opponent state without a usable action joins at once, reported as -1;
    # it is popped before the seeds, so 1 and 4 join by their actions into 3
    assert attractor(g, region, [2], MIN, usable=lambda s, act: act.label != "loop") == \
        {3: -1, 1: 1, 4: 1, 0: 0, 5: 1, 6: 0}


def test_trap_states_is_the_greedy_fixpoint_on_a_census_slice():
    rng = random.Random(5)
    for g in _census_slice():
        for region in (g.can_reach - g.targets, set(range(g.n_states)) - g.targets,
                       set(rng.sample(range(g.n_states), g.n_states // 2))):
            assert trap_states(g, region) == greedy_trap(g, region)


def test_can_reach_is_the_predecessor_set_search():
    games = [*_census_slice(), *(generate_random(GenParams(200, 3, 3, 0.05, 0.5, eb, seed=seed))
                                for eb in (0.0, 0.5) for seed in range(4))]
    for g in games:
        assert g.can_reach == reach_by_predecessor_sets(g)
    assert any(len(g.can_reach) < g.n_states for g in games)


def _partition_digest(games):
    keys = [(sorted(p.targets), sorted(p.sinks), sorted(p.unknown), sorted(p.attractor.items()))
            for p in (g.split for g in games)]
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def test_partition_digests_of_the_census_and_the_ec_set():
    # recorded with `greedy_trap` and with a Prob1 worklist of its own in
    # `almost_sure`, before both ran on `attractor`
    games = census((6, 8, 10, 12), range(150))
    assert _partition_digest(games) == "c73ccbee71278d6a784bc4da05d76fae15b1c75ea740d4ff366d8fd9c2b549ad"
    ec_set = (normalize(generate_random(GenParams(n, 3, br, 0.1, mp, eb, seed=seed)))
              for n in (6, 8, 10) for seed in range(150) for eb in (0.3, 0.5, 0.7)
              for br in (2, 3) for mp in (0.3, 0.5))
    assert _partition_digest(ec_set) == "af093d6a2c1c28b67fe09256315172646d1f8599bb241f9af10c666f23376da9"


def test_trap_states_minimizer_cycle():
    g = minimizer_trap()
    assert trap_states(g, {0, 1}) == {0, 1}
    # cut down to one cycle state the confinement breaks
    assert trap_states(g, {0}) == set()


def test_trap_states_ignore_maximizer_cycles():
    assert trap_states(exit_seesaw(), {0, 1}) == set()
    assert trap_states(nested_rings(), {0, 1, 2, 3}) == set()


# TRAP_FEED with state 3's direct step into the target made a coin flip
# between the target and the dead state 4, so 3 has value 1/2, not 1: the
# Minimizer 2-cycle {1, 2} is a trap behind the feeding state 3.
TRAP_FEED_COIN = """\
ssg 1
states 5
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
0 1/2
4 1/2
action 4 loop
4 1
"""


def test_trap_states_found_behind_feeder():
    # the partition finds the trap behind the feeding state 3 and counts it
    # among the sinks, so no trap is left among the unknown states
    g = parse_model(TRAP_FEED_COIN)
    assert trap_states(g, {1, 2, 3}) == {1, 2}
    part = partition_states(g)
    assert part.sinks == {1, 2, 4} and part.unknown == {3}
    assert trap_states(g, part.unknown) == set()


# 0: Maximizer, `loop` (listed first) stays on 0 forever, `go` leads to
# the Minimizer state 2, whose every action reaches the target 3 with
# positive probability and otherwise returns to 0. Every state has value
# 1, but only `go` wins: `loop` stays in Y without ever reaching X.
LOOP_BESIDE_ATTRACTOR = """\
ssg 1
states 4
minplayer 2
target 3
action 0 loop
  0 1
action 0 go
  2 1
action 2 a
  3 1/2
  0 1/2
action 2 b
  3 1
"""


def test_almost_sure_does_not_report_a_loop_that_never_reaches_the_target():
    g = normalize(parse_model(LOOP_BESIDE_ATTRACTOR))
    # a Maximizer state reports the action it joined X by, a Minimizer state its first
    assert almost_sure(g, {0, 1, 2}) == {0: g.action_labels(0).index("go"),
                                         2: g.action_labels(2).index("a")}
    part = partition_states(g)
    assert part.targets == {0, 2, 3} and part.unknown == set() and part.sinks == {1}
    assert part.attractor == {0: "go", 2: "a"}
    for solve in (solve_vi, solve_bvi, solve_svi, solve_topological):
        r = solve(g)
        assert r.converged and r.iterations == 0
        assert r.strategy == {0: "go", 2: "a"}, r.algorithm
        assert r.lower[0] == r.upper[0] == 1.0


def _census_slice():
    return census((6, 8, 10), range(50))


def test_almost_sure_is_the_exact_value_one_set_on_a_census_slice():
    # 450 census games: the fixpoint finds exactly the non-target states of
    # value 1, and the reported attractor actions win almost surely
    decided = 0
    for g in _census_slice():
        exact = exact_value(g).values
        won = almost_sure(g, g.can_reach - g.targets)
        assert set(won) == {s for s in range(g.n_states) if exact[s] == 1} - g.targets
        # the partition reports the positions as labels
        assert dict(g.split.attractor) == {s: g.actions[s][i].label for s, i in won.items()}
        decided += len(won)
        # the Maximizer restricted to the attractor actions still wins everywhere
        actions = list(g.actions)
        for s, i in won.items():
            if g.owner[s] == MAX:
                actions[s] = (g.actions[s][i],)
        restricted = exact_value(dataclasses.replace(g, actions=tuple(actions))).values
        assert all(restricted[s] == 1 for s in won)
    assert decided > 1000


def test_best_exits_seesaw_initial():
    g = exit_seesaw()
    f = [1.0, 1.0, 1.0, 0.0]
    assert best_exits(g, {0, 1}, f) == {(0, g.action_labels(0).index("b"))}
    # worths behind that pick: 2/3 for (0, b) against 0.6 for (1, b)
    assert sum(float(p) * f[t] for t, p in g.action(0, "b").transitions) == 2 / 3


def test_best_exits_ring_prefers_better_coin():
    g = asymmetric_ring()
    assert best_exits(g, {0, 1, 2}, [1.0, 1.0, 1.0, 1.0, 0.0]) == {(2, g.action_labels(2).index("cash"))}


def test_best_exits_empty_without_maximizer_exit():
    assert best_exits(minimizer_trap(), {0, 1}, [1.0] * 4) == set()


def test_best_exit_set_peels_ring_layer_by_layer():
    g = asymmetric_ring()
    part = partition_states(g)
    acc = set()
    best_exit_set(g, [1.0, 1.0, 1.0, 1.0, 0.0], frozenset({0, 1, 2}), part.ec_memo, acc)
    assert acc == {(2, g.action_labels(2).index("cash")), (1, g.action_labels(1).index("cash"))}


def test_best_exit_set_nested_rings_pessimistic_vector():
    # with nothing accumulated on the ring the cash-outs win layer by layer
    g = nested_rings()
    part = partition_states(g)
    acc = set()
    best_exit_set(g, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0], frozenset({0, 1, 2, 3}), part.ec_memo, acc)
    assert acc == {(s, g.action_labels(s).index("cash")) for s in (0, 1, 2)}


def test_best_exit_set_nested_rings_optimistic_vector():
    # an optimistic vector makes the ring edge back toward the peeled state
    # outrank the remaining cash-outs
    g = nested_rings()
    part = partition_states(g)
    acc = set()
    best_exit_set(g, [1.0, 1.0, 1.0, 1.0, 1.0, 0.0], frozenset({0, 1, 2, 3}), part.ec_memo, acc)
    assert acc == {(0, g.action_labels(0).index("cash")), (3, g.action_labels(3).index("ring"))}


def test_partition_moves_trap_to_sinks():
    g = minimizer_trap()
    part = partition_states(g)
    assert part.unknown == set()
    assert part.sinks == {0, 1, 3}
    # Maximizer cycles stay unknown
    part = partition_states(exit_seesaw())
    assert part.unknown == {0, 1}


def test_handle_ecs_forces_coin_state():
    g = loop_or_coin()
    part, reach, stay = k0_vectors(g)
    assert handle_ecs(g, reach, stay, 1.0, part) == {(0, g.action_labels(0).index("b"))}


def test_handle_ecs_no_components_no_pairs():
    g = slow_loop()
    part, reach, stay = k0_vectors(g)
    assert handle_ecs(g, reach, stay, 1.0, part) == set()
    assert part.unknown == {0}


def test_handle_ecs_leaves_partition_and_vectors_alone():
    # even with a trap put back into the pool: the pass only ranks exits
    for build in (minimizer_trap, loop_or_coin, nested_rings):
        g = build()
        part, reach, stay = k0_vectors(g)
        if build is minimizer_trap:
            part = StatePartition(part.targets, {3}, {0, 1})
        before = (part.copy(), list(reach), list(stay))
        handle_ecs(g, reach, stay, 1.0, part)
        assert (part, reach, stay) == before


def test_handle_ecs_trap_removed_before_ranking():
    # state 3 must not be steered into the worthless trap exit
    # (the partition counts the trap among the sinks, so the vectors hold 0 there)
    g = parse_model(TRAP_FEED)
    part, reach, stay = k0_vectors(g)
    assert {1, 2} <= part.sinks
    assert g.action_labels(3).index("a0") == 0
    assert (3, 0) not in handle_ecs(g, reach, stay, 1.0, part)


def all_end_components(game, region):
    """Exhaustive end-component enumeration, usable for small games only.

    A set T qualifies when every member keeps an action whose successors
    all stay in T and the kept actions connect T strongly.
    """
    region = sorted(region)
    found = []
    for size in range(1, len(region) + 1):
        for combo in itertools.combinations(region, size):
            T = set(combo)
            edges = {s: set() for s in T}
            ok = True
            for s in T:
                stay_edges = set()
                for a in game.actions[s]:
                    succs = {t for t, _ in a.transitions}
                    if succs <= T:
                        stay_edges |= succs
                if not stay_edges:
                    ok = False
                    break
                edges[s] = stay_edges
            if not ok:
                continue
            # strong connectivity over the staying edges
            for start in T:
                seen = {start}
                stack = [start]
                while stack:
                    for t in edges[stack.pop()]:
                        if t not in seen:
                            seen.add(t)
                            stack.append(t)
                if seen != T:
                    ok = False
                    break
            if ok:
                found.append(frozenset(T))
    return found


def test_mec_of_one_state_is_the_exhaustive_answer():
    # every state of a census slice as its own region: the enumeration decides
    # whether it is an end component, which it is exactly when one of its
    # actions has no successor but the state itself
    found = 0
    for g in census((6, 8, 10), range(20)):
        for s in range(g.n_states):
            want = [frozenset({s})] if all_end_components(g, {s}) else []
            assert mec_decompose(g, {s}) == want
            assert bool(want) == any({t for t, _ in a.transitions} == {s} for a in g.actions[s])
            found += bool(want)
    assert found > 0


def has_max_exit(game, T):
    return any(
        game.owner[s] == MAX and any(t not in T for t, _ in a.transitions)
        for s in T
        for a in game.actions[s]
    )


def check_exit_cover(game):
    """Layered exit collection handles every end component of the game.

    Components without a Maximizer exit must leave the unknown pool; every
    component that fully survives must be exited by some collected pair;
    and each collected pair's one-step worth under the exact values must
    not undersell its state.
    """
    part = partition_states(game)
    region = set(part.unknown)
    if not region:
        return
    ecs = all_end_components(game, region)
    vals = exact_floats(game)
    reach = list(vals)
    stay = [0.0] * game.n_states
    B = handle_ecs(game, reach, stay, 1.0, part)
    for T in ecs:
        if not has_max_exit(game, T):
            assert not (T & part.unknown), f"trap {sorted(T)} left in the pool"
        elif T <= part.unknown:
            exits = {
                (s, i)
                for (s, i) in B
                if s in T and any(t not in T for t, _ in game.actions[s][i].transitions)
            }
            assert exits, f"no exit pair covers {sorted(T)}"
    for s, i in B:
        est = sum(float(p) * vals[t] for t, p in game.actions[s][i].transitions)
        assert est >= vals[s] - 1e-9


def check_mecs_are_maximal_ecs(game):
    part = partition_states(game)
    region = set(part.unknown)
    ecs = all_end_components(game, region)
    maximal = {T for T in ecs if not any(T < U for U in ecs)}
    got = set(mec_decompose(game, region))
    assert got == maximal


def test_exit_cover_on_presets():
    for build in (exit_seesaw, asymmetric_ring, nested_rings, minimizer_trap,
                  loop_or_coin, loop_with_bypass):
        check_exit_cover(build())


def test_exit_cover_on_random_games():
    for seed in range(40):
        p = GenParams(n_states=6, max_actions_per_state=3, max_branching=2,
                      ec_bias=(0.0, 0.4, 0.8, 1.0)[seed % 4], seed=seed)
        check_exit_cover(generate_random(p))


def test_mec_decomposition_matches_exhaustive_enumeration():
    for build in (exit_seesaw, asymmetric_ring, nested_rings, minimizer_trap):
        check_mecs_are_maximal_ecs(build())
    for seed in range(30):
        p = GenParams(n_states=6, max_actions_per_state=3, max_branching=2,
                      ec_bias=(0.0, 0.5, 1.0)[seed % 3], seed=seed)
        check_mecs_are_maximal_ecs(generate_random(p))


def test_no_exit_layer_is_empty_on_partition_pools(monkeypatch):
    # The partition's pool holds no trap, so every end component of it, and
    # of every set peeled off one, has a Maximizer exit, whatever vector
    # ranks the exits: both the walk of handle_ecs and the walk of deflate
    # (which ranks on the vector it is capping) see an exit in every layer.
    layers = []
    exit_layers = graph.exit_layers

    def recorded(*args):
        for comp, exits in exit_layers(*args):
            layers.append((comp, exits))
            yield comp, exits

    monkeypatch.setattr(graph, "exit_layers", recorded)
    monkeypatch.setattr(baselines, "exit_layers", recorded)
    games = [build() for build in ALL_PRESETS.values()] + [
        normalize(generate_random(GenParams(
            n_states=12, max_actions_per_state=3, max_branching=2, target_fraction=0.1,
            ec_bias=ec_bias, seed=seed)))
        for ec_bias in (0.5, 1.0) for seed in range(40)]
    trapped = 0
    rng = random.Random(0)
    for g in games:
        part = partition_states(g)
        assert trap_states(g, part.unknown) == set()
        trapped += len(part.sinks & g.can_reach)
        n = g.n_states
        for _ in range(3):
            reach = [rng.random() / 2 for _ in range(n)]
            stay = [rng.random() / 2 for _ in range(n)]
            handle_ecs(g, reach, stay, rng.random(), part)
            baselines.deflate(g, part, [0.0 if s in part.sinks else rng.random() for s in range(n)])
    assert trapped > 0 and len(layers) > 100
    empty = [sorted(comp) for comp, exits in layers if not exits]
    assert not empty


def _exit_walk_digest(games, monkeypatch):
    """sha256 over the layers the walks of handle_ecs and deflate yield on seeded vectors.

    Each layer is (sorted component, sorted exits as (state, action label)).
    """
    layers = []
    exit_layers = graph.exit_layers

    def recorded(game, *args):
        for comp, exits in exit_layers(game, *args):
            layers.append((sorted(comp), sorted((s, game.actions[s][i].label) for s, i in exits)))
            yield comp, exits

    monkeypatch.setattr(graph, "exit_layers", recorded)
    monkeypatch.setattr(baselines, "exit_layers", recorded)
    rng = random.Random(0)
    for g in games:
        part = partition_states(g)
        n = g.n_states
        for _ in range(3):
            reach = [rng.random() / 2 for _ in range(n)]
            stay = [rng.random() / 2 for _ in range(n)]
            handle_ecs(g, reach, stay, rng.random(), part)
            baselines.deflate(g, part, [0.0 if s in part.sinks else rng.random() for s in range(n)])
    return len(layers), hashlib.sha256(repr(layers).encode()).hexdigest()


def test_exit_walk_digests_of_the_presets_and_an_ec_set_slice(monkeypatch):
    # recorded while every MEC was an object of its own, exits were (state, label)
    # pairs and handle_ecs and deflate looped over the pool's MECs themselves;
    # the slice holds the five EC set games on which svi's upper bound fails
    # (seeds 9, 60, 77 and 107), and seeds 72, 92 and 120 add games where
    # peeling a component leaves several end components, so the order of a
    # layer's children shows
    presets = [build() for build in ALL_PRESETS.values()]
    assert _exit_walk_digest(presets, monkeypatch) == (
        39, "6ec0cde0c1e486008b3b85bdec70c6dd909f7753ac6423d930d659022c627c38")
    ec_slice = [normalize(generate_random(GenParams(n, 3, br, 0.1, mp, eb, seed=seed)))
                for n in (6, 8, 10) for seed in (9, 60, 72, 77, 92, 107, 120) for eb in (0.3, 0.5)
                for br in (2, 3) for mp in (0.3, 0.5)]
    assert _exit_walk_digest(ec_slice, monkeypatch) == (
        396, "2265d587b4074da34019a39fd990ec1b70873dc1478b4856699d5fd8bfe37cf1")


@pytest.mark.parametrize("ec_bias", [0.5, 1.0])
def test_handle_ecs_warm_memo_matches_cold_copies(ec_bias):
    # Passes over one partition, whose memo carries over, against the same
    # passes on fresh copies. Two passes see each unknown set, with different
    # vectors; then a few states leave the pool.
    remainders = 0
    for seed in range(12):
        g = normalize(generate_random(GenParams(
            n_states=24, max_actions_per_state=3, max_branching=2, target_fraction=0.1,
            ec_bias=ec_bias, seed=seed)))
        rng = random.Random(seed)
        n = g.n_states
        warm = partition_states(g)
        for step in range(6):
            for _ in range(2):
                reach = [rng.random() / 2 for _ in range(n)]
                stay = [rng.random() / 2 for _ in range(n)]
                cold = warm.copy()
                assert handle_ecs(g, reach, stay, 0.9, warm) == handle_ecs(g, reach, stay, 0.9, cold)
                remainders += len(warm.ec_memo) - 1
            for s in rng.sample(sorted(warm.unknown), min(2, len(warm.unknown))):
                warm.unknown.discard(s)
    # the games do exercise peeled remainders
    assert remainders > 0
