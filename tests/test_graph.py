"""Graph analyses: SCCs, end components, traps, best-exit collection."""

import itertools
import random

import pytest

import ssgsolve.baselines as baselines
import ssgsolve.graph as graph
from ssgsolve.graph import (
    best_exit_set,
    best_exits,
    handle_ecs,
    mec_decompose,
    scc_decompose,
    trap_states,
)
from ssgsolve.model import (
    MAX,
    GenParams,
    StatePartition,
    generate_random,
    normalize,
    parse_model,
    partition_states,
)
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

from _util import TRAP_FEED, exact_floats


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
    g = exit_seesaw()
    (mec,) = mec_decompose(g, {0, 1})
    assert mec.states == frozenset({0, 1})
    assert mec.stay_actions == {0: ("a",), 1: ("a",)}


def test_mec_self_loop_state():
    (mec,) = mec_decompose(loop_or_coin(), {0})
    assert mec.states == frozenset({0})
    assert mec.stay_actions[0] == ("a",)


def test_mec_none_in_leaky_loop():
    # the loop action leaks out, so the singleton is not closed
    assert mec_decompose(slow_loop(), {0}) == []


def test_mec_minimizer_cycle():
    (mec,) = mec_decompose(minimizer_trap(), {0, 1})
    assert mec.states == frozenset({0, 1})


def test_trap_states_minimizer_cycle():
    g = minimizer_trap()
    assert trap_states(g, {0, 1}) == {0, 1}
    # cut down to one cycle state the confinement breaks
    assert trap_states(g, {0}) == set()


def test_trap_states_ignore_maximizer_cycles():
    assert trap_states(exit_seesaw(), {0, 1}) == set()
    assert trap_states(nested_rings(), {0, 1, 2, 3}) == set()


def test_trap_states_found_behind_feeder():
    # the partition finds the trap behind the feeding state 3 and counts it
    # among the sinks, so no trap is left among the unknown states
    g = parse_model(TRAP_FEED)
    assert trap_states(g, {1, 2, 3}) == {1, 2}
    part = partition_states(g)
    assert part.sinks == {1, 2} and part.unknown == {3}
    assert trap_states(g, part.unknown) == set()


def test_best_exits_seesaw_initial():
    g = exit_seesaw()
    f = [1.0, 1.0, 1.0, 0.0]
    assert best_exits(g, {0, 1}, f) == {(0, "b")}
    # worths behind that pick: 2/3 for (0, b) against 0.6 for (1, b)
    assert sum(float(p) * f[t] for t, p in g.action(0, "b").transitions) == 2 / 3


def test_best_exits_ring_prefers_better_coin():
    g = asymmetric_ring()
    assert best_exits(g, {0, 1, 2}, [1.0, 1.0, 1.0, 1.0, 0.0]) == {(2, "cash")}


def test_best_exits_empty_without_maximizer_exit():
    assert best_exits(minimizer_trap(), {0, 1}, [1.0] * 4) == set()


def test_best_exit_set_peels_ring_layer_by_layer():
    g = asymmetric_ring()
    part = partition_states(g)
    acc = set()
    best_exit_set(g, [1.0, 1.0, 1.0, 1.0, 0.0], frozenset({0, 1, 2}), part.ec_memo, acc)
    assert acc == {(2, "cash"), (1, "cash")}


def test_best_exit_set_nested_rings_pessimistic_vector():
    # with nothing accumulated on the ring the cash-outs win layer by layer
    g = nested_rings()
    part = partition_states(g)
    acc = set()
    best_exit_set(g, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0], frozenset({0, 1, 2, 3}), part.ec_memo, acc)
    assert acc == {(0, "cash"), (1, "cash"), (2, "cash")}


def test_best_exit_set_nested_rings_optimistic_vector():
    # an optimistic vector makes the ring edge back toward the peeled state
    # outrank the remaining cash-outs
    g = nested_rings()
    part = partition_states(g)
    acc = set()
    best_exit_set(g, [1.0, 1.0, 1.0, 1.0, 1.0, 0.0], frozenset({0, 1, 2, 3}), part.ec_memo, acc)
    assert acc == {(0, "cash"), (3, "ring")}


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
    assert handle_ecs(g, reach, stay, 1.0, part) == {(0, "b")}


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
    assert (3, "a0") not in handle_ecs(g, reach, stay, 1.0, part)


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
                (s, a)
                for (s, a) in B
                if s in T and any(t not in T for t, _ in game.action(s, a).transitions)
            }
            assert exits, f"no exit pair covers {sorted(T)}"
    for s, a in B:
        est = sum(float(p) * vals[t] for t, p in game.action(s, a).transitions)
        assert est >= vals[s] - 1e-9


def check_mecs_are_maximal_ecs(game):
    part = partition_states(game)
    region = set(part.unknown)
    ecs = all_end_components(game, region)
    maximal = {T for T in ecs if not any(T < U for U in ecs)}
    got = {m.states for m in mec_decompose(game, region)}
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
        for ec_bias in (0.5, 1.0) for seed in range(20)]
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
