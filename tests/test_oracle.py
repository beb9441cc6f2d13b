"""Exact oracle: brute-forced rational values, chain values, k-step vectors."""

from fractions import Fraction

import pytest

from ssgsolve.model import GenParams, StochasticGame, generate_random, partition_states
from ssgsolve.oracle import (
    TooLarge,
    exact_value,
    k_step_oracle,
    mc_reachability,
)
from ssgsolve.presets import (
    ALL_PRESETS,
    asymmetric_ring,
    exit_seesaw,
    loop_with_bypass,
    minimizer_trap,
    nested_rings,
    one_way_out,
    serial_loops,
    shifting_preference,
    slow_loop,
    two_route_choice,
)

F = Fraction


def test_exact_values_on_presets():
    cases = {
        slow_loop: [F(1, 2), F(1), F(0)],
        two_route_choice: [F(1, 2), F(1), F(0)],
        exit_seesaw: [F(1, 2), F(1, 2), F(1), F(0)],
        one_way_out: [F(1, 2), F(1, 2), F(1), F(0)],
        asymmetric_ring: [F(2, 5), F(2, 5), F(3, 5), F(1), F(0)],
        loop_with_bypass: [F(1, 2), F(1, 2), F(1), F(1), F(0)],
        minimizer_trap: [F(0), F(0), F(1), F(0)],
        nested_rings: [F(9, 10)] * 4 + [F(1), F(0)],
        shifting_preference: [F(50, 99), F(50, 99), F(21, 40), F(1, 20), F(1, 30), F(1), F(0)],
    }
    for build, want in cases.items():
        got = exact_value(build())
        assert list(got.values) == want, build.__name__


def test_exact_values_satisfy_bellman_equations():
    for build in ALL_PRESETS.values():
        g = build()
        part = partition_states(g)
        v = exact_value(g).values
        for s in range(g.n_states):
            if s in part.targets:
                assert v[s] == 1
            elif s in part.unknown:
                worths = [
                    sum(p * v[t] for t, p in a.transitions) for a in g.actions[s]
                ]
                opt = max(worths) if g.owner[s] == "max" else min(worths)
                assert v[s] == opt, (build.__name__, s)
            else:
                assert v[s] == 0


def test_exact_value_orders_agree():
    for build in ALL_PRESETS.values():
        g = build()
        assert exact_value(g).values == exact_value(g, order="minmax").values


def test_exact_value_orders_agree_on_random_games():
    for seed in range(15):
        g = generate_random(GenParams(n_states=5, max_actions_per_state=2, seed=seed))
        assert exact_value(g).values == exact_value(g, order="minmax").values


def test_witness_strategies_reproduce_the_values():
    # fixing both witnesses leaves a chain whose hitting values must match
    for build in ALL_PRESETS.values():
        g = build()
        res = exact_value(g)
        chosen = {**res.max_strategy, **res.min_strategy}
        acts = tuple(
            (g.action(s, chosen[s]),) if s in chosen else g.actions[s][:1]
            for s in range(g.n_states)
        )
        chain = StochasticGame(g.n_states, g.owner, acts, g.targets)
        assert mc_reachability(chain) == list(res.values), build.__name__


def test_witness_strategies_only_name_real_actions():
    g = shifting_preference()
    res = exact_value(g)
    for s, label in {**res.max_strategy, **res.min_strategy}.items():
        assert label in g.action_labels(s)


def test_pair_counts():
    assert exact_value(one_way_out()).pairs_evaluated == 4
    assert exact_value(nested_rings()).pairs_evaluated == 24


def test_mc_reachability_loop():
    assert mc_reachability(slow_loop()) == [F(1, 2), F(1), F(0)]


def test_mc_reachability_rejects_choice():
    with pytest.raises(ValueError):
        mc_reachability(two_route_choice())


def test_too_large_state_cap():
    g = generate_random(GenParams(n_states=13, seed=0))
    with pytest.raises(TooLarge) as exc:
        exact_value(g)
    assert exc.value.states == 13


def test_too_large_pair_cap():
    with pytest.raises(TooLarge):
        exact_value(two_route_choice(), max_pairs=1)


def test_k_step_seeds():
    g = slow_loop()
    part = partition_states(g)
    reach, stay = k_step_oracle(g, part, 0)
    assert reach == [F(0), F(1), F(0)]
    assert stay == [F(1), F(0), F(0)]


def test_k_step_two_steps_exact():
    g = slow_loop()
    part = partition_states(g)
    reach, stay = k_step_oracle(g, part, 2)
    assert reach[0] == F(99, 5000)
    assert stay[0] == F(49, 50) ** 2


def test_k_step_mass_and_monotonicity():
    g = serial_loops()
    part = partition_states(g)
    prev_reach, prev_stay = k_step_oracle(g, part, 0)
    for k in range(1, 8):
        reach, stay = k_step_oracle(g, part, k)
        for s in range(g.n_states):
            assert reach[s] + stay[s] <= 1
            assert reach[s] >= prev_reach[s]
            assert stay[s] <= prev_stay[s]
        prev_reach, prev_stay = reach, stay

