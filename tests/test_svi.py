"""Certified-precision solver: operations, full runs, pool solves."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction
from functools import partial

import pytest

import ssgsolve.fuzz as fuzz
import ssgsolve.svi as svi
from ssgsolve.graph import TIE_TOL, handle_ecs
from ssgsolve.model import (
    MAX,
    MIN,
    Action,
    GenParams,
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
    shifting_preference,
    slow_loop,
    two_route_choice,
)
from ssgsolve.svi import (
    DELAY,
    GlobalBounds,
    PoolFacts,
    ReachStayVector,
    StrategySnapshot,
    bellman_update,
    check_termination,
    choose_actions,
    decision_value,
    settle_tail,
    solve_svi,
    solve_svi_pool,
    update_global_bounds,
)
from ssgsolve.topo import solve_topological
from ssgsolve.baselines import solve_bvi, solve_vi
from ssgsolve.fuzz import SLACK, check_model
from ssgsolve.oracle import exact_value

from _util import (REGRESSION_MODELS, census, check_termination_by_walk, exact_floats, folded,
                   max_err, no_decision_value, permute_states, pinned, pool_candidates, restricted)

# Two actions with the same coin flip between the target 1 and the sink 2.
TWIN_ACTIONS = """\
ssg 1
states 3
target 1
action 0 x
  1 1/2
  2 1/2
action 0 y
  1 1/2
  2 1/2
"""


def k0_state(game):
    part = partition_states(game)
    n = game.n_states
    rs = folded(
        part.unknown,
        [1.0 if s in part.targets else 0.0 for s in range(n)],
        [1.0 if s in part.unknown else 0.0 for s in range(n)],
    )
    return part, rs


# ---------------------------------------------------------------- operations


# 0: Maximizer, x -> 1 (value 1/2) ties with y (1/2) and beats z (0).
# 1: Minimizer, a (3/4) against b (1/2). 2: Maximizer over the pinned
# state 5 and the sink. 3 loops on itself, 4 leads into 3. 6 is the sink.
# 3, 4 and 5 have value 1/2, so none of them is decided at value 1.
TAIL = """\
ssg 1
states 8
minplayer 1
target 7
action 0 x
  1 1
action 0 y
  7 1/2
  6 1/2
action 0 z
  6 1
action 1 a
  7 3/4
  6 1/4
action 1 b
  7 1/2
  6 1/2
action 2 a
  5 1
action 2 b
  6 1
action 3 a
  3 1/2
  7 1/4
  6 1/4
action 4 a
  3 1
action 5 a
  7 1/2
  6 1/2
"""


def test_settle_tail_decides_the_acyclic_tail_successors_first():
    g = normalize(parse_model(TAIL))
    part, vec = pinned(g, {5: 0.3})
    settled = settle_tail(g, part, vec)
    # the lowest position wins the tie at 0 (x); the Minimizer takes its minimum (b)
    assert settled == {0: 0, 1: 1, 2: 0}
    assert vec[:3] == [0.5, 0.5, 0.3]
    # a self-loop and a successor on it keep 3 and 4 undecided
    assert part.unknown == {3, 4}
    assert vec[3] == vec[4] == 0.0

    r = solve_svi_pool(g, *pinned(g, {5: 0.3}), 1e-6, 10_000)
    assert r.converged
    assert r.lower[:3] == r.upper[:3] == [0.5, 0.5, 0.3]
    assert all(r.strategy[s] == g.actions[s][settled[s]].label for s in settled)


def test_choose_actions_minimizer_picks_cheaper_route():
    g = two_route_choice()
    part, rs = k0_state(g)
    snap = choose_actions(g, PoolFacts(g, part), rs, GlobalBounds(0.0, 1.0), None, None)
    # one-step worths under l=0: alpha (position 0) 0.4 against beta 0.5
    assert snap.choices[0] == 0
    assert snap.bexit is None


def test_choose_actions_forced_into_best_exit():
    g = loop_or_coin()
    part, rs = k0_state(g)
    B = handle_ecs(g, rs.reach, rs.stay, 1.0, part)
    snap = choose_actions(g, PoolFacts(g, part), rs, GlobalBounds(0.0, 1.0), B, None)
    assert snap.choices[0] == 1  # b
    assert snap.bexit == frozenset({0})


def test_choose_actions_tie_keeps_previous_choice():
    g = normalize(parse_model(TWIN_ACTIONS))
    part, rs = k0_state(g)
    facts = PoolFacts(g, part)
    bounds = GlobalBounds(0.0, 1.0)
    first = choose_actions(g, facts, rs, bounds, None, None)
    assert first.choices[0] == 0  # x
    prev = StrategySnapshot({0: 1}, None)  # y
    kept = choose_actions(g, facts, rs, bounds, None, prev)
    assert kept.choices[0] == 1


def test_decision_value_initial_crossing():
    g = two_route_choice()
    _, rs = k0_state(g)
    assert decision_value(g, rs, 0, 0) == 0.25  # alpha


def test_decision_value_none_without_alternatives():
    g = slow_loop()
    _, rs = k0_state(g)
    assert decision_value(g, rs, 0, 0) is None


def test_decision_value_none_for_identical_distributions():
    g = normalize(parse_model(TWIN_ACTIONS))
    _, rs = k0_state(g)
    assert decision_value(g, rs, 0, 0) is None  # x


def test_bellman_single_sweep_on_loop():
    g = slow_loop()
    part, rs = k0_state(g)
    snap = StrategySnapshot({0: 0}, None)
    rs1, snap1 = bellman_update(g, PoolFacts(g, part), rs, snap, GlobalBounds(0.0, 1.0))
    assert rs1.reach[0] == 0.01
    assert rs1.stay[0] == 0.98
    assert not snap1.delayed
    assert snap1.choices == snap.choices


def test_bellman_sweep_is_batch():
    # state 0 must read state 1's value from before the sweep
    g = serial_loops(k=2)
    part, rs = k0_state(g)
    snap = StrategySnapshot({0: 0, 1: 0}, None)
    rs1, _ = bellman_update(g, PoolFacts(g, part), rs, snap, GlobalBounds(0.0, 1.0))
    assert rs1.reach[1] == 0.01
    assert rs1.reach[0] == 0.0


def test_bellman_delays_overshooting_maximizer():
    g = exit_seesaw()
    part, _ = k0_state(g)
    # (0, b) is the sanctioned exit; state 1 outside it would overshoot its
    # old upper estimate 0.1 with the candidate 0.2 + 0.1 * u, so it holds
    rs = ReachStayVector([0.2, 0.0, 1.0, 0.0], [0.1, 0.1, 0.0, 0.0])
    snap = StrategySnapshot({0: 1, 1: 0}, frozenset({0}))  # 0 takes b, 1 takes a
    rs1, snap1 = bellman_update(g, PoolFacts(g, part), rs, snap, GlobalBounds(0.0, 1.0))
    assert snap1.choices[1] == DELAY
    assert snap1.delayed == frozenset({1})
    assert (rs1.reach[1], rs1.stay[1]) == (0.0, 0.1)
    # the sanctioned exit state itself still sweeps
    assert rs1.reach[0] == pytest.approx((0.2 + 1.0) / 3)
    assert rs1.stay[0] == pytest.approx(0.1 / 3)


# exit_seesaw's end component {0, 1} beside a slow loop 2 of value 1/2.
SEESAW_AND_LOOP = """\
ssg 1
states 5
target 3
action 0 a
  1 1
action 0 b
  0 1/3
  3 1/3
  4 1/3
action 1 a
  0 1
action 1 b
  1 1/5
  3 2/5
  4 2/5
action 2 a
  2 49/50
  3 1/100
  4 1/100
"""


def test_bellman_delay_folds_the_restored_stay():
    # State 1 is delayed: its discarded stay 0.3 is below state 2's new
    # 0.49, but its restored stay 0.9 is the pool's largest after the sweep
    g = normalize(parse_model(SEESAW_AND_LOOP))
    part = partition_states(g)
    assert part.unknown == {0, 1, 2}
    rs = ReachStayVector([0.65, 0.0, 0.0, 1.0, 0.0], [0.3, 0.9, 0.5, 0.0, 0.0])
    snap = StrategySnapshot({0: 1, 1: 0, 2: 0}, frozenset({0}))  # 0 takes b, 1 takes a
    rs1, snap1 = bellman_update(g, PoolFacts(g, part), rs, snap, GlobalBounds(0.0, 1.0))
    assert snap1.delayed == frozenset({1})
    assert rs1.stay[:3] == [pytest.approx(0.1), 0.9, pytest.approx(0.49)]
    assert rs1.max_stay == 0.9
    assert rs1.min_cand is None and rs1.max_cand is None


# The cycle 0 -> 1 -> 2 -> 0 is an end component of Maximizer states 0 and 2
# around the Minimizer state 1; both Maximizer states can leave it for a coin
# flip between the target 4 and the sink 5. The Maximizer state 3 feeds it.
MIXED_END_COMPONENT = """\
ssg 1
states 6
minplayer 1
target 4
action 0 a
  1 1
action 0 b
  4 1/2
  5 1/2
action 1 a
  2 1
action 2 a
  0 1
action 2 b
  4 1/4
  5 3/4
action 3 a
  0 1
action 3 b
  4 1/2
  5 1/2
"""


def test_pool_facts_find_the_delay_candidates_on_first_read():
    g = normalize(parse_model(MIXED_END_COMPONENT))
    part = partition_states(g)
    facts = PoolFacts(g, part)
    assert facts.order == (0, 1, 2, 3)
    assert facts.multi == (0, 2, 3)
    assert not part.ec_memo  # nothing decomposed until a delay check asks
    assert facts.ec_max == (0, 2)
    assert part.ec_memo == {frozenset(facts.order): [frozenset({0, 1, 2})]}


def test_update_global_bounds_caps_at_decision_values():
    part, rs = k0_state(two_route_choice())
    rs = folded(part.unknown, [0.4, 1.0, 0.0], [0.4, 0.0, 0.0])
    bounds = update_global_bounds(part, rs, GlobalBounds(0.0, 1.0), [], [0.25], False)
    # loop extrapolation says 2/3 but the pending switch pins l at 1/4
    assert bounds.l == 0.25
    assert bounds.u == pytest.approx(2 / 3)
    assert bounds.d_l == 0.25


def test_update_global_bounds_without_caps_overshoots():
    part, rs = k0_state(two_route_choice())
    rs = folded(part.unknown, [0.4, 1.0, 0.0], [0.4, 0.0, 0.0])
    # no decision value: the caps keep their seeds, which cap nothing
    bounds = update_global_bounds(part, rs, GlobalBounds(0.0, 1.0), [], [], False)
    assert bounds.l == pytest.approx(2 / 3)


def test_update_global_bounds_gate_on_full_stay():
    part, rs = k0_state(slow_loop())
    bounds = update_global_bounds(part, rs, GlobalBounds(0.0, 1.0), [], [], False)
    assert (bounds.l, bounds.u) == (0.0, 1.0)


def test_update_global_bounds_gate_on_delay():
    part, rs = k0_state(slow_loop())
    rs = folded(part.unknown, [0.01, 1.0, 0.0], [0.98, 0.0, 0.0])
    held = update_global_bounds(part, rs, GlobalBounds(0.0, 1.0), [], [], True)
    assert (held.l, held.u) == (0.0, 1.0)


def test_check_termination_vacuous_and_strict():
    part, rs = k0_state(slow_loop())
    part.unknown.clear()
    rs = folded(part.unknown, rs.reach, rs.stay)  # the empty pool's fold
    assert rs.max_stay == 0.0
    assert check_termination(part, rs, GlobalBounds(0.0, 1.0), 1e-6)

    part2, rs2 = k0_state(slow_loop())
    # width exactly 2 eps does not terminate, just under does
    assert not check_termination(part2, rs2, GlobalBounds(0.0, 2e-6), 1e-6)
    assert check_termination(part2, rs2, GlobalBounds(0.0, 2e-6 - 1e-12), 1e-6)

    cases = [
        # a stay of 0 has width 0 whatever the gap
        ([0.3, 1.0, 0.0], [0.0, 0.0, 0.0], GlobalBounds(0.0, 1.0), 1e-6, "absolute", True),
        # u below l: every width is at most 0
        ([0.01, 1.0, 0.0], [0.98, 0.0, 0.0], GlobalBounds(0.6, 0.4), 1e-6, "absolute", True),
        # stay * gap is exactly 2 eps (both sides are powers of two apart): not below it
        ([0.25, 1.0, 0.0], [0.5, 0.0, 0.0], GlobalBounds(0.0, 4e-6), 1e-6, "absolute", False),
        ([0.25, 1.0, 0.0], [0.5, 0.0, 0.0], GlobalBounds(0.0, math.nextafter(4e-6, 0.0)), 1e-6,
         "absolute", True),
        # relative mode: reach and stay 0 is 0/0, a state settled at 0
        ([0.0, 1.0, 0.0], [0.0, 0.0, 0.0], GlobalBounds(0.0, 1.0), 1e-6, "relative", True),
        # relative mode: 0.5 / (0.25 + 0.5 * 0.5) of the gap 0.1 is above 2 eps
        ([0.25, 1.0, 0.0], [0.5, 0.0, 0.0], GlobalBounds(0.4, 0.5), 1e-6, "relative", False),
    ]
    assert 0.5 * 4e-6 == 2.0 * 1e-6
    for reach, stay, bounds, eps, mode, want in cases:
        rs3 = folded(part2.unknown, reach, stay)
        assert check_termination(part2, rs3, bounds, eps, mode) is want, (reach, stay, bounds, mode)
        assert check_termination_by_walk(part2, rs3, bounds, eps, mode) is want


def test_a_vector_without_a_fold_is_refused():
    part, rs = k0_state(slow_loop())
    bare = ReachStayVector(rs.reach, rs.stay)
    bounds = GlobalBounds(0.0, 1.0)
    with pytest.raises(ValueError, match="no fold"):
        check_termination(part, bare, bounds, 1e-6)
    with pytest.raises(ValueError, match="no fold"):
        update_global_bounds(part, bare, bounds, [], [], False)
    # relative mode walks the pool and needs no fold
    assert not check_termination(part, bare, bounds, 1e-6, mode="relative")


def test_check_termination_relative_mode():
    part, rs = k0_state(slow_loop())
    rs = folded(part.unknown, [0.01, 1.0, 0.0], [0.0098, 0.0, 0.0])
    bounds = GlobalBounds(0.4, 0.6)
    # absolute width 0.0098 * 0.2 is far above 2 eps
    assert not check_termination(part, rs, bounds, 1e-6)
    # relative to the estimate 0.01 + 0.0098 * 0.6 the same gap passes 0.2
    assert not check_termination(part, rs, bounds, 1e-6, mode="relative")
    assert check_termination(part, rs, bounds, 0.1, mode="relative")


# ------------------------------------------------------------------ full runs


def test_loop_converges_in_one_iteration():
    r = solve_svi(slow_loop())
    assert r.algorithm == "svi"
    assert r.converged and r.sound
    assert r.iterations == 1
    t = r.trace[0]
    assert t.k == 1 and t.delayed == 0 and t.updates == 1 and t.bounds_updated
    assert t.l == t.u == 0.49999999999999956
    assert (t.d_l, t.d_u) == (1.0, 0.0)
    assert abs(r.value[0] - 0.5) <= 1e-6
    assert r.value[1:] == [1.0, 0.0]
    assert r.strategy == {0: "go"}


def test_route_choice_trace():
    r = solve_svi(two_route_choice())
    assert r.iterations == 2
    t1, t2 = r.trace
    assert t1.l == 0.25
    assert t1.u == pytest.approx(2 / 3)
    assert t1.d_l == 0.25
    assert t2.d_l == 0.25
    assert (t2.l, t2.u) == (0.25, 0.5)
    # the interval closes on the exact value
    assert r.value == [0.5, 1.0, 0.0]
    assert r.lower[0] == r.upper[0] == 0.5
    assert r.strategy[0] == "beta"


def test_seesaw_delays_and_settles():
    r = solve_svi(exit_seesaw())
    assert r.converged
    assert r.iterations == 6
    assert [t.delayed for t in r.trace] == [0, 1, 1, 1, 1, 0]
    dus = [t.d_u for t in r.trace]
    assert dus[0] == 0.5
    assert dus == sorted(dus)
    assert dus[-1] == 0.5000000000000028
    assert r.trace[-1].l == 0.49999999999999994
    assert r.trace[-1].u == 0.5000000000000028
    assert r.value == [0.5, 0.5, 1.0, 0.0]


def test_nested_rings_run():
    r = solve_svi(nested_rings())
    assert r.converged and r.iterations == 4
    assert r.trace[-1].l == r.trace[-1].u == 0.9
    assert r.value[:4] == [0.9] * 4


def test_bypass_run():
    r = solve_svi(loop_with_bypass())
    assert r.converged and r.iterations == 2
    assert r.trace[-1].l == 0.49999999999999895
    assert r.trace[-1].u == 0.49999999999999956
    assert max_err(r.value, [0.5, 0.5, 1.0, 1.0, 0.0]) <= 1e-6
    assert r.strategy[0] == "a"


def test_minimizer_trap_run():
    # both pool states form the trap, so the pool is empty before sweep 1
    r = solve_svi(minimizer_trap())
    assert r.converged and r.iterations == 0
    assert r.value == [0.0, 0.0, 1.0, 0.0]
    assert r.strategy == {}


def test_shifting_preference_run():
    r = solve_svi(shifting_preference())
    assert r.converged and r.iterations == 36
    assert max_err(r.value, exact_floats(shifting_preference())) <= 1e-6


def test_values_match_oracle_on_presets():
    for build in (slow_loop, two_route_choice, exit_seesaw, asymmetric_ring,
                  loop_with_bypass, nested_rings, minimizer_trap,
                  serial_loops, loop_or_coin):
        g = build()
        r = solve_svi(g)
        assert r.converged
        assert max_err(r.value, exact_floats(g)) <= 1e-6, build.__name__


def test_iteration_wise_sandwich_on_presets():
    for build in (slow_loop, two_route_choice, exit_seesaw, asymmetric_ring,
                  loop_with_bypass, nested_rings, shifting_preference):
        g = build()
        want = exact_floats(g)
        r = solve_svi(g, record_vectors=True)
        for k, (lo, hi) in enumerate(r.vectors):
            for s in range(g.n_states):
                assert lo[s] <= want[s] + 1e-9, (build.__name__, k, s)
                assert hi[s] >= want[s] - 1e-9, (build.__name__, k, s)


def test_upper_vectors_monotone_for_maximizer_states():
    for build in (exit_seesaw, nested_rings, shifting_preference, asymmetric_ring):
        g = build()
        r = solve_svi(g, record_vectors=True)
        uppers = [hi for _, hi in r.vectors]
        for k in range(1, len(uppers)):
            for s in range(g.n_states):
                if g.owner[s] == MAX:
                    assert uppers[k][s] <= uppers[k - 1][s] + TIE_TOL, (build.__name__, k, s)


def test_upper_vectors_can_rise_at_minimizer_states():
    # a Minimizer switching to a slower action may lift its upper estimate;
    # this is why the monotonicity guarantee is Maximizer-only. Here the
    # Minimizer state 4 rises at sweeps 4, 6, 8, 10 and 12.
    g = generate_random(GenParams(n_states=6, max_actions_per_state=2, max_branching=2,
                                  ec_bias=0.3, seed=13))
    r = solve_svi(g, record_vectors=True)
    assert r.converged
    uppers = [hi for _, hi in r.vectors]
    rises = [
        (k, s)
        for k in range(1, len(uppers))
        for s in range(g.n_states)
        if g.owner[s] == MIN and uppers[k][s] > uppers[k - 1][s] + TIE_TOL
    ]
    assert rises


def test_no_ec_mode_diverges_on_coin_loop():
    r = solve_svi(loop_or_coin(), ec_handling=False, max_iters=1000)
    assert r.algorithm == "svi-noec"
    assert not r.converged
    assert all(t.u == 1.0 for t in r.trace)
    assert r.global_upper == 1.0


def test_ec_mode_solves_coin_loop():
    r = solve_svi(loop_or_coin())
    assert r.converged and r.iterations <= 10
    assert abs(r.value[0] - 0.5) <= 1e-6


def test_no_ec_mode_equals_ec_mode_without_components():
    a = solve_svi(slow_loop())
    b = solve_svi(slow_loop(), ec_handling=False)
    assert a.iterations == b.iterations
    assert (a.global_lower, a.global_upper) == (b.global_lower, b.global_upper)
    assert a.value == b.value


def test_relative_mode():
    g = serial_loops()
    r = solve_svi(g, mode="relative")
    assert r.converged
    assert max_err(r.value, exact_floats(g)) <= 2e-6


def test_pool_solve_reads_downstream_values():
    # every successor of state 0 is pinned, so the tail pass settles it at
    # min(0.5, 1.0) before the first sweep and no sweep is left to run
    g = loop_with_bypass()
    r = solve_svi_pool(g, *pinned(g, {1: 0.5, 2: 1.0}), 1e-6, 10_000)
    assert r.converged and r.iterations == 0
    assert r.value[0] == 0.5
    assert r.strategy == {0: "a"}
    assert r.lower[1] == r.upper[1] == 0.5


def test_iteration_cap_returns_wide_bounds():
    r = solve_svi(slow_loop(), max_iters=0)
    assert not r.converged
    assert r.iterations == 0
    assert (r.global_lower, r.global_upper) == (0.0, 1.0)
    assert r.sound


@pytest.mark.parametrize("solve", [solve_vi, solve_bvi, solve_svi, solve_topological])
def test_nan_eps_rejected(solve):
    # NaN passes an `eps <= 0` test: svi then stops at once as converged,
    # and vi runs to its iteration cap
    with pytest.raises(ValueError, match="eps must be positive"):
        solve(slow_loop(), float("nan"))


def test_argument_validation():
    with pytest.raises(ValueError):
        solve_svi(slow_loop(), eps=0.0)
    with pytest.raises(ValueError):
        solve_svi(slow_loop(), mode="sideways")
    bare = parse_model("ssg 1\nstates 2\ntarget 1\naction 0 a\n  1 1\n")
    with pytest.raises(ValueError):
        solve_svi(bare)


def test_dropping_decision_values_is_unsound(monkeypatch):
    # without the crossing-point caps the lower bound jumps past the value
    monkeypatch.setattr(svi, "decision_value", no_decision_value)
    r = solve_svi(two_route_choice())
    assert r.iterations == 1
    assert r.global_lower == r.global_upper == pytest.approx(2 / 3)
    assert r.value[0] >= 2 / 3 - 1e-9


def _digest(r):
    rows = [(t.l, t.u, t.max_gap, t.bounds_updated) for t in r.trace]
    return hashlib.sha256(repr((r.lower, r.upper, r.value, r.strategy, rows)).encode()).hexdigest()


# Iterations and a digest of the bounds, vectors, strategy and trace (caps
# aside), recorded before decision values were skipped for pinned caps.
GOLDEN_SOLVES = [
    (GenParams(80, 3, 3, 0.05, 0.5, 0.0, 2), 267,
     "ac4bae393c002775913cd013da532cf8df7d99932fe5b831047c536d10ae769a"),
    (GenParams(80, 3, 3, 0.05, 0.5, 0.0, 3), 86,
     "ec1e862376cf1306d5ea86d4f19bd5fab21fa843356fffae2bdf1196219ebdfe"),
    (GenParams(80, 3, 3, 0.05, 0.5, 0.5, 2), 0,
     "bdbbce7640b3508d79db34fd8457326accee9aa17317cec62636353ab4474a10"),
    (GenParams(80, 3, 3, 0.05, 0.5, 0.5, 3), 65,
     "b72ec3a124f1d87dc19ed168ada93cbc06c4dbf9eea5e6d61c323e7e53036dd9"),
    (exit_seesaw, 6, "009da3ec1a0b0a6ef5ef333995079592297f04b9ec2027977bfb25b664cb7f4c"),
    (two_route_choice, 2, "f736990b1b8815133c4267fcd2db9e7771091c58352357350ed347c230b8f17d"),
    # the chains benchmark's main model (recorded before the sweep folded the bound candidates)
    (partial(serial_loops, 150), 1237,
     "14ac90fc5cd8bd39d348452781ff437191ab81340886a8660c289597ac82b1d0"),
]


@pytest.mark.parametrize("model, iterations, digest", GOLDEN_SOLVES)
def test_solves_match_golden_values(model, iterations, digest):
    g = generate_random(model) if isinstance(model, GenParams) else model()
    r = solve_svi(g)
    assert r.converged
    assert (r.iterations, _digest(r)) == (iterations, digest)


def test_fold_rule_matches_golden_digest(monkeypatch):
    # sha256 over repr(result), wall_ms zeroed, of the 12 presets and 120
    # census games under the default and both ablations (vectors recorded),
    # taken while the uncapped ablation was a switch that skipped the
    # decision values and the fold still had its own, uncapped rule: the
    # caps' seeds 1 and 0 cap no candidate in [0, 1]
    games = [build() for build in ALL_PRESETS.values()] + list(census((8, 10), range(20)))
    h = hashlib.sha256()
    for g in games:
        for ablation in ("none", "uncapped", "noec"):
            with monkeypatch.context() as m:
                if ablation == "uncapped":
                    m.setattr(svi, "decision_value", no_decision_value)
                r = solve_svi(g, 1e-6, max_iters=400, record_vectors=True,
                              ec_handling=ablation != "noec")
            h.update(repr(dataclasses.replace(r, wall_ms=0.0)).encode())
    assert (len(games), h.hexdigest()) == (
        132, "fb5712db92686c0e6a30f335109df549f849cae26aaf0358d2e28253a36c4b84")


@pytest.mark.parametrize("ablation", ["none", "uncapped", "noec"])
def test_the_sweep_folds_what_the_pool_walks_gave(monkeypatch, ablation):
    # Every sweep's folded largest stay, stay == 1 gate and extreme bound
    # candidates against the walks over the pool that `update_global_bounds`
    # and `check_termination` made before the sweep folded them. The
    # candidates are dropped exactly when nothing reads them: after a
    # delay, or once both caps have pinned their bounds.
    sweep, terminated = svi.bellman_update, svi.check_termination
    seen = dict.fromkeys(("sweeps", "cands", "dropped", "delays", "stuck", "stops"), 0)

    def checked_sweep(game, facts, rs, strategy, bounds):
        out, snap = sweep(game, facts, rs, strategy, bounds)
        pool = facts.order
        cands = pool_candidates(pool, out.reach, out.stay)
        top = max(out.stay[s] for s in pool)
        assert repr(out.max_stay) == repr(top)
        assert (out.max_stay >= 1.0) == (len(cands) < len(pool))
        pinned_caps = bounds.d_l <= bounds.l and bounds.d_u >= bounds.u
        if pinned_caps or snap.delayed:
            assert out.min_cand is None and out.max_cand is None
            seen["dropped"] += 1
        else:
            want = (min(cands, default=math.inf), max(cands, default=-math.inf))
            assert repr((out.min_cand, out.max_cand)) == repr(want)
            seen["cands"] += 1
        seen["sweeps"] += 1
        seen["delays"] += bool(snap.delayed)
        seen["stuck"] += len(cands) < len(pool)
        return out, snap

    def checked_termination(partition, rs, bounds, eps, mode="absolute"):
        got = terminated(partition, rs, bounds, eps, mode)
        assert got == check_termination_by_walk(partition, rs, bounds, eps, mode)
        seen["stops"] += got
        return got

    monkeypatch.setattr(svi, "bellman_update", checked_sweep)
    monkeypatch.setattr(svi, "check_termination", checked_termination)
    if ablation == "uncapped":
        monkeypatch.setattr(svi, "decision_value", no_decision_value)
    games = ([build() for build in ALL_PRESETS.values()] + list(census((8, 10), range(20)))
             + [generate_random(GenParams(80, 3, 3, 0.05, 0.5, eb, seed))
                for eb in (0.0, 0.5) for seed in (2, 3)])
    assert "exit_seesaw" in ALL_PRESETS
    for g in games:
        solve_svi(g, 1e-6, max_iters=400, ec_handling=ablation != "noec")
    assert seen["sweeps"] > 1000 and seen["cands"] > 100 and seen["stuck"] > 0 and seen["stops"] > 100
    assert seen["dropped"] > 0 if ablation != "uncapped" else seen["dropped"] == seen["delays"]
    assert seen["delays"] > 0 if ablation != "noec" else seen["delays"] == 0


def _count_decision_values(monkeypatch):
    """Wrap svi.decision_value; the list gets the sweeps done before each call."""
    calls = []
    sweeps = []
    decide, sweep = svi.decision_value, svi.bellman_update

    def counted_decide(*args, **kwargs):
        calls.append(len(sweeps))
        return decide(*args, **kwargs)

    def counted_sweep(*args, **kwargs):
        sweeps.append(None)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(svi, "decision_value", counted_decide)
    monkeypatch.setattr(svi, "bellman_update", counted_sweep)
    return calls


def test_pinned_caps_are_not_recomputed(monkeypatch):
    # Sweep 1 sees reach 0 on the whole pool, so d_l falls to -0.0 <= l and
    # d_u rises past u = 1: both caps pin their bounds at once.
    calls = _count_decision_values(monkeypatch)
    r = solve_svi(generate_random(GenParams(80, 3, 3, 0.05, 0.5, 0.0, 2)))
    assert r.converged and r.iterations == 267
    assert calls and set(calls) == {0}
    first = r.trace[0]
    assert first.d_l <= first.l and first.d_u >= first.u
    for t in r.trace[1:]:
        assert (t.d_l, t.d_u) == (first.d_l, first.d_u)
        assert t.d_l <= t.l
        assert not t.bounds_updated


def test_no_decision_values_without_caps(monkeypatch):
    # with no crossing found the caps keep their seeds and never pin, so
    # every sweep asks for decision values again
    monkeypatch.setattr(svi, "decision_value", no_decision_value)
    calls = _count_decision_values(monkeypatch)
    g = generate_random(GenParams(80, 3, 3, 0.05, 0.5, 0.0, 2))
    r = solve_svi(g)
    assert r.iterations > 1
    assert sorted(set(calls)) == list(range(r.iterations))
    assert {(t.d_l, t.d_u) for t in r.trace} == {(1.0, 0.0)}


def test_fuzzed_regressions_stay_fixed():
    for text in REGRESSION_MODELS:
        g = normalize(parse_model(text))
        want = exact_floats(g)
        for solve in (solve_svi, solve_bvi, solve_topological):
            r = solve(g)
            assert r.converged, r.algorithm
            assert max_err(r.value, want) <= 1e-6, (r.algorithm, text)
            for s in range(g.n_states):
                assert r.lower[s] <= want[s] + 1e-9
                assert r.upper[s] >= want[s] - 1e-9


def test_known_livelock_converges():
    # ssgsolve gen --states 8 --seed 145 --max-actions 3 --branching 3 --target-fraction 0.1
    # State 1 is a one-action Maximizer state in no end component. When
    # every Maximizer state could be delayed, it was delayed in every
    # iteration and the solve stopped at the cap with bounds [0.5, 1].
    g = generate_random(GenParams(n_states=8, seed=145, max_actions_per_state=3,
                                  max_branching=3, target_fraction=0.1))
    ref = solve_bvi(g)
    assert ref.converged
    r = solve_svi(g, max_iters=2000)
    assert r.converged and r.iterations == 28
    for s in range(g.n_states):
        assert ref.lower[s] - 1e-9 <= r.value[s] <= ref.upper[s] + 1e-9


def test_trap_detection_runs_once_per_game(monkeypatch):
    import ssgsolve.graph as graph

    calls = []
    traps = graph.trap_states

    def counted(game, region):
        calls.append(frozenset(region))
        return traps(game, region)

    monkeypatch.setattr(graph, "trap_states", counted)
    # svi needs 831 sweeps on this game, so it runs to the cap; states 0
    # and 6 are a trap
    g = generate_random(GenParams(n_states=10, seed=144, max_actions_per_state=3,
                                  max_branching=3, target_fraction=0.1, ec_bias=0.5))
    r = solve_svi(g, max_iters=200)
    assert r.iterations == 200 and not r.converged
    assert len(calls) == 1
    r = solve_bvi(g, max_iters=200)
    assert r.iterations > 1
    solve_vi(g, max_iters=5)
    solve_svi(g, max_iters=5, ec_handling=False)
    r = solve_topological(g, max_iters=200)
    assert r.iterations > 1
    # the partition's trap pass serves every solve of the game, topo's pinned runs too
    assert len(calls) == 1


# svi livelocks on this game: states of its end components are delayed in
# 2997 of 3000 sweeps, two of them in the 50th. Its brackets overlap bvi's.
DELAY_LIVELOCK = GenParams(n_states=16, seed=75, max_actions_per_state=3, max_branching=2,
                           target_fraction=0.1, ec_bias=0.7, min_player_fraction=0.3)


def test_capped_solve_names_real_actions():
    # A state is delayed in the last of the 50 sweeps: its strategy entry is
    # the action chosen for that sweep, not the delay marker.
    g = generate_random(DELAY_LIVELOCK)
    r = solve_svi(g, max_iters=50)
    assert not r.converged and r.trace[-1].delayed
    assert r.strategy
    for s, label in r.strategy.items():
        assert label in g.action_labels(s), (s, label)


@pytest.mark.parametrize("game, cap", [
    (exit_seesaw(), 2000),
    (generate_random(DELAY_LIVELOCK), 50),
    # delays up to three states in one sweep
    (generate_random(GenParams(n_states=16, seed=80, max_actions_per_state=3, max_branching=2,
                               target_fraction=0.1, ec_bias=0.3, min_player_fraction=0.3)), 50),
])
def test_trace_delay_counts_are_the_sweeps_delay_marks(monkeypatch, game, cap):
    marks = []
    sweep = svi.bellman_update

    def recorded(*args, **kwargs):
        out = sweep(*args, **kwargs)
        choices = out[1].choices
        marks.append((list(choices.values()).count(DELAY), len(choices)))
        return out

    monkeypatch.setattr(svi, "bellman_update", recorded)
    r = solve_svi(normalize(game), max_iters=cap)
    assert len(marks) == len(r.trace) == r.iterations
    assert [(t.delayed, t.updates) for t in r.trace] == [(d, n - d) for d, n in marks]
    assert any(d for d, _ in marks)


@pytest.mark.parametrize("game, cap, delays", [
    (exit_seesaw(), 2000, 4),
    (generate_random(DELAY_LIVELOCK), 300, 669),
])
def test_sweep_marks_exactly_the_delayed_states(monkeypatch, game, cap, delays):
    # the traced benchmark counts `v == svi.DELAY` over the sweep's choices
    marked = []
    sweep = svi.bellman_update

    def checked(g, *args, **kwargs):
        out = sweep(g, *args, **kwargs)
        snap = out[1]
        held = {s for s, v in snap.choices.items() if v == svi.DELAY}
        assert held == snap.delayed
        for s, v in snap.choices.items():
            assert s in held or v in range(len(g.rows[s])), (s, v)
        marked.append(len(held))
        return out

    monkeypatch.setattr(svi, "bellman_update", checked)
    r = solve_svi(normalize(game), max_iters=cap)
    assert len(marked) == r.iterations
    assert sum(marked) == delays


def test_svi_without_ec_handling_never_decomposes_the_pool(monkeypatch):
    import ssgsolve.graph as graph

    calls = []
    decompose = graph.mec_decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(graph, "mec_decompose", counted)
    g = exit_seesaw()  # one end component, {0, 1}
    solve_svi(g, ec_handling=False, max_iters=50)
    assert calls == []
    solve_svi(g, max_iters=50)
    assert len(calls) >= 1


def test_retirement_keeps_value_inside_bracket():
    # ssgsolve gen --states 8 --seed 130 --max-actions 3 --branching 3
    #   --target-fraction 0.1 --ec-bias 0.5
    # When states whose stay hit 0 were retired from the pool, state 3
    # (value 5/7) retired after sweep 1 and state 4's upper bound ended at
    # 0.26785696, 1.8e-7 below the exact 15/56.
    g = generate_random(GenParams(n_states=8, seed=130, max_actions_per_state=3,
                                  max_branching=3, target_fraction=0.1, ec_bias=0.5))
    exact = Fraction(15, 56)
    r = solve_svi(g, max_iters=2000)
    assert r.converged
    assert r.lower[4] <= exact <= r.upper[4]


def test_census_slice_brackets_contain_the_value():
    # a slice of the census: 120 oracle-sized games, capped solves included
    for n in (8, 10):
        for seed in range(120, 140):
            for tf, eb in ((0.1, 0.0), (0.1, 0.5), (0.05, 1.0)):
                g = generate_random(GenParams(n_states=n, seed=seed, max_actions_per_state=3,
                                              max_branching=3, target_fraction=tf, ec_bias=eb))
                want = [float(v) for v in exact_value(g).values]
                for r in (solve_svi(g, max_iters=500), solve_bvi(g, max_iters=500),
                          solve_topological(g, inner="bvi", max_iters=500)):
                    for s, v in enumerate(want):
                        assert r.lower[s] <= v + SLACK and r.upper[s] >= v - SLACK, (
                            r.algorithm, n, seed, eb, s)


# The five census games on which svi and topo ran to 3000 sweeps before the
# partition decided the almost-sure winners: (n, seed, ec_bias) and the
# states decided at value 1. On 10/83/0 and 12/66/0.5 that is the whole pool.
CENSUS_STALLS = [
    (10, 6, 0.5, {7}),
    (10, 83, 0.0, {1, 2, 3, 4, 5, 6, 7, 8, 9}),
    (12, 56, 0.5, {10}),
    (12, 66, 0.5, {0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}),
    (12, 124, 0.0, {0, 1, 3}),
]


@pytest.mark.parametrize("n, seed, ec_bias, won", CENSUS_STALLS)
def test_census_stalls_converge(n, seed, ec_bias, won):
    g = generate_random(GenParams(n_states=n, seed=seed, max_actions_per_state=3,
                                  max_branching=3, target_fraction=0.1, ec_bias=ec_bias))
    assert set(partition_states(g).attractor) == won
    want = [float(v) for v in exact_value(g).values]
    for r in (solve_svi(g, max_iters=3000), solve_bvi(g, max_iters=3000),
              solve_topological(g, max_iters=3000)):
        assert r.converged, r.algorithm
        for s, v in enumerate(want):
            assert r.lower[s] <= v + SLACK and r.upper[s] >= v - SLACK, (r.algorithm, s)


# State 0's a2 lists successor 4 twice. Read as a dict, its decision-value
# deltas kept one half of it, and svi converged with state 1's upper at
# 0.285714110, below the exact 2/7.
REPEATED_SUCCESSOR = """\
ssg 1
states 6
minplayer 2 3 4
target 5
action 0 a0
0 1/2
1 1/2
action 0 a2
4 1/2
4 1/2
action 1 a0
0 2/5
2 1/2
5 1/10
action 2 a1
2 1
action 3 a0
1 3/4
5 1/4
action 4 a0
3 1
"""


def test_a_successor_listed_twice_counts_with_both_probabilities():
    g = normalize(parse_model(REPEATED_SUCCESSOR))
    merged = normalize(parse_model(REPEATED_SUCCESSOR.replace("4 1/2\n4 1/2\n", "4 1\n")))
    assert g.deltas[0] == merged.deltas[0]
    exact = exact_value(g).values
    assert exact[1] == Fraction(2, 7)
    for r in (solve_svi(g), solve_topological(g)):
        assert r.converged, r.algorithm
        for s, v in enumerate(exact):
            assert r.lower[s] <= v + SLACK and r.upper[s] >= v - SLACK, (r.algorithm, s)


def _relabelled(g):
    """g with every action renamed so that label order runs against position order."""
    return dataclasses.replace(g, actions=tuple(
        tuple(Action(f"r{len(acts) - i}_{a.label}", a.transitions) for i, a in enumerate(acts))
        for acts in g.actions))


# capped at 300 sweeps: svi without EC handling never converges on a game with an end component
RELABEL_SOLVERS = {
    "vi": lambda g: solve_vi(g, max_iters=300),
    "bvi": lambda g: solve_bvi(g, max_iters=300),
    "svi": lambda g: solve_svi(g, max_iters=300),
    "svi-noec": lambda g: solve_svi(g, ec_handling=False, max_iters=300),
    "topo-svi": lambda g: solve_topological(g, max_iters=300),
    "topo-bvi": lambda g: solve_topological(g, inner="bvi", max_iters=300),
}


def test_results_do_not_depend_on_action_labels():
    for n in (6, 8, 10):
        for seed in range(20):
            for eb in (0.0, 0.5, 1.0):
                g = normalize(generate_random(GenParams(n, 3, 3, 0.1, 0.5, eb, seed=seed)))
                h = _relabelled(g)
                for name, solve in RELABEL_SOLVERS.items():
                    a, b = solve(g), solve(h)
                    assert (a.iterations, a.lower, a.upper, a.trace) == \
                        (b.iterations, b.lower, b.upper, b.trace), (name, n, seed, eb)
                    positions = [[(s, x.action_labels(s).index(label)) for s, label in r.strategy.items()]
                                 for x, r in ((g, a), (h, b))]
                    assert positions[0] == positions[1], (name, n, seed, eb)


# ROADMAP item 1: after a forced exit, svi's per-state upper bound can fall
# below the value. svi and topo(svi) return "final upper ... below exact" on
# all five games (on 10/9 state 6 ends at 0.27272715 against 3/11, on 8/60
# state 1 at 0.2009 against 3/7); bvi brackets all five.
FORCED_EXIT_GAMES = [
    GenParams(10, 3, 3, 0.1, 0.3, 0.3, seed=9),
    GenParams(6, 3, 3, 0.1, 0.3, 0.3, seed=77),
    GenParams(8, 3, 3, 0.1, 0.5, 0.3, seed=60),
    GenParams(10, 3, 2, 0.1, 0.3, 0.3, seed=107),
    GenParams(10, 3, 2, 0.1, 0.3, 0.5, seed=107),
]
ITEM_1 = pytest.mark.xfail(raises=AssertionError, strict=True,
                           reason="ROADMAP item 1: upper bound below the value after a forced exit")


@pytest.mark.parametrize("params", FORCED_EXIT_GAMES,
                         ids=lambda p: f"{p.n_states}-{p.seed}-{p.ec_bias}")
@pytest.mark.parametrize("algo", [pytest.param("svi", marks=ITEM_1),
                                  pytest.param("topo", marks=ITEM_1), "bvi"])
def test_forced_exit_games_are_bracketed(algo, params, monkeypatch):
    g = normalize(generate_random(params))
    monkeypatch.setitem(fuzz.SOLVERS, algo, partial(fuzz.SOLVERS[algo], max_iters=300))
    assert check_model(g, algo, 1e-6, exact_floats(g)) is None


# ROADMAP item 4: a Minimizer decision value that round-off pins. On this
# census game svi and topo(svi) take 6 sweeps as numbered and 665 after the
# renumbering, where a stay-weighted delta that is 0 in exact arithmetic
# comes out at 5.55e-17; bvi takes 247 sweeps either way.
ROUNDOFF_GAME = GenParams(n_states=12, seed=128, max_actions_per_state=3, max_branching=3,
                          target_fraction=0.1, ec_bias=0.0)
ROUNDOFF_RENUMBERING = [7, 11, 0, 8, 5, 6, 3, 10, 4, 1, 9, 2]
ITEM_4 = pytest.mark.xfail(raises=AssertionError, strict=True,
                           reason="ROADMAP item 4: a round-off decision value pins l at 0")
SOUND_SOLVERS = {"svi": solve_svi, "topo": solve_topological, "bvi": solve_bvi}


@pytest.mark.parametrize("algo", [pytest.param("svi", marks=ITEM_4),
                                  pytest.param("topo", marks=ITEM_4), "bvi"])
def test_sweeps_do_not_depend_on_state_numbering(algo):
    g = normalize(generate_random(ROUNDOFF_GAME))
    renumbered = permute_states(g, ROUNDOFF_RENUMBERING)
    assert renumbered.normalized
    solve = SOUND_SOLVERS[algo]
    assert solve(renumbered, 1e-6, max_iters=3000).iterations == solve(g, 1e-6, max_iters=3000).iterations


@pytest.mark.parametrize("algo", ["bvi", "topo-bvi"])
def test_bvi_sweeps_do_not_depend_on_state_numbering_on_a_census_slice(algo):
    # bvi's layers are sets of states the graph defines, so a renumbering
    # changes neither its sweep count nor, beyond round-off, its lowers. The
    # uppers agree within eps only, which both brackets' width bounds:
    # `deflate` caps the end components in `mec_decompose` order, which
    # follows the numbering, and a component whose exit leads into another
    # one reads that one capped or not (2 of these 720 renumberings move an
    # upper, by 1.7e-7 at most)
    solve = {"bvi": solve_bvi, "topo-bvi": partial(solve_topological, inner="bvi")}[algo]
    for g in census((8, 10, 12), range(40)):
        r = solve(g, 1e-6, max_iters=3000)
        for seed in (1, 2):
            perm = random.Random(seed).sample(range(g.n_states), g.n_states)
            q = solve(permute_states(g, perm), 1e-6, max_iters=3000)
            assert q.converged and q.iterations == r.iterations, (g, seed)
            for s in range(g.n_states):
                assert q.lower[perm[s]] == pytest.approx(r.lower[s], abs=1e-12), (g, seed, s)
                assert q.upper[perm[s]] == pytest.approx(r.upper[s], abs=1e-6), (g, seed, s)


# ROADMAP item 2: the delay livelocks. svi and topo(svi) keep delaying a
# state and hit the 500-sweep cap on all three games; bvi converges.
DELAY_LIVELOCKS = [
    pytest.param(GenParams(200, 3, 3, 0.05, 0.5, 0.0, seed=3), 75, id="200-3"),
    pytest.param(GenParams(16, 3, 2, 0.1, 0.3, 0.7, seed=75), 31, id="16-75"),
    pytest.param(GenParams(16, 3, 2, 0.1, 0.3, 0.3, seed=80), 5, id="16-80"),
]
ITEM_2 = pytest.mark.xfail(raises=AssertionError, strict=True,
                           reason="ROADMAP item 2: the delay rule livelocks")


@pytest.mark.parametrize("params, bvi_sweeps", DELAY_LIVELOCKS)
@pytest.mark.parametrize("algo", [pytest.param("svi", marks=ITEM_2),
                                  pytest.param("topo", marks=ITEM_2)])
def test_delay_livelock_games_converge(algo, params, bvi_sweeps):
    g = normalize(generate_random(params))
    assert SOUND_SOLVERS[algo](g, 1e-6, max_iters=500).converged


@pytest.mark.parametrize("params, bvi_sweeps", DELAY_LIVELOCKS)
def test_bvi_converges_on_the_delay_livelock_games(params, bvi_sweeps):
    g = normalize(generate_random(params))
    res = solve_bvi(g, 1e-6, max_iters=500)
    assert res.converged
    assert res.iterations == bvi_sweeps


# ROADMAP item 3: bvi's reported strategy may stay put inside an end
# component. Held to bvi's Maximizer choices, this census game has exact
# values 0, 0, 0, 1, 0, 0 against its own 1/28, 0, 71/1232, 1, 1/7,
# 5/224; svi's and topo(svi)'s choices attain the values, and so do
# topo(bvi)'s since topo settles the one-state components in closed form.
STAY_PUT_GAME = GenParams(6, 3, 3, 0.1, 0.5, 0.5, seed=38)
ITEM_3 = pytest.mark.xfail(raises=AssertionError, strict=True,
                           reason="ROADMAP item 3: bvi's strategy stays inside an end component")


@pytest.mark.parametrize("algo", ["svi", "topo", pytest.param("bvi", marks=ITEM_3), "topo-bvi"])
def test_maximizer_choices_attain_the_values(algo):
    g = normalize(generate_random(STAY_PUT_GAME))
    solve = {**SOUND_SOLVERS, "topo-bvi": partial(solve_topological, inner="bvi")}[algo]
    res = solve(g, 1e-6)
    assert res.converged
    sigma = {s: label for s, label in res.strategy.items() if g.owner[s] == MAX}
    assert exact_value(restricted(g, sigma)).values == exact_value(g).values
