"""Per-component driver: plan construction and what each component reads from its successors."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from ssgsolve.baselines import solve_bvi
from ssgsolve.model import GenParams, generate_random, normalize, parse_model, partition_states
from ssgsolve.oracle import exact_value
from ssgsolve.svi import best_step, solve_svi, start_vector
from ssgsolve import topo
from ssgsolve.topo import INNER_SOLVERS, build_plan, closed_form, solve_topological
from ssgsolve.presets import (
    ALL_PRESETS,
    exit_seesaw,
    loop_with_bypass,
    nested_rings,
    serial_loops,
    slow_loop,
)

from _util import census, check_set, ec_set, exact_floats, fuzz_stream_params, max_err


# `loop_with_bypass` with the relay 2 made a coin flip between the target
# 3 and the sink 4, so that 2 has value 1/2 and stays an unknown component.
LOOP_WITH_COIN_BYPASS = """\
ssg 1
states 5
minplayer 0 2
target 3
action 0 a
  1 1
action 0 b
  2 1
action 1 a
  1 49/50
  3 1/100
  4 1/100
action 1 b
  4 1
action 2 c
  3 1/2
  4 1/2
"""


def record_inner(monkeypatch, inner="svi"):
    """Capture every inner pool solve as (pool, start vector, result), in call order."""
    calls = []
    solver = INNER_SOLVERS[inner]

    def recorded(game, part, vec, eps, max_iters):
        pool, start = tuple(sorted(part.unknown)), list(vec)
        res = solver(game, part, vec, eps, max_iters)
        calls.append((pool, start, res))
        return res

    monkeypatch.setitem(INNER_SOLVERS, inner, recorded)
    return calls


def test_plan_orders_components_successors_first():
    plan = build_plan(normalize(parse_model(LOOP_WITH_COIN_BYPASS)), 1e-6)
    assert [tuple(e.states) for e in plan.entries] == [(3,), (4,), (1,), (2,), (0,)]
    kinds = [e.kind for e in plan.entries]
    assert kinds == ["decided", "decided", "unknown", "unknown", "unknown"]
    assert [e.depth for e in plan.entries] == [2, 2, 1, 1, 0]


def test_plan_tightens_eps_with_depth():
    plan = build_plan(serial_loops(), 1e-6)
    got = [(tuple(e.states), e.depth, e.eps_local) for e in plan.entries]
    assert got == [
        ((3,), 3, pytest.approx(2.5e-7)),
        ((4,), 3, pytest.approx(2.5e-7)),
        ((2,), 2, pytest.approx(1e-6 / 3)),
        ((1,), 1, pytest.approx(5e-7)),
        ((0,), 0, pytest.approx(1e-6)),
    ]


# `loop_with_bypass` with its sticky self-loop stretched over the two
# Maximizer states 1 and 5, so that the loop is a component of several
# states, which the inner solver and not the closed form settles. Both
# states have value 1/2, and so has the Minimizer entry 0.
LOOP_PAIR_WITH_BYPASS = """\
ssg 1
states 6
minplayer 0 2
target 3
action 0 a
  1 1
action 0 b
  2 1
action 1 a
  5 49/50
  3 1/100
  4 1/100
action 1 b
  4 1
action 2 c
  3 1
action 5 a
  1 49/50
  3 1/100
  4 1/100
"""


def test_slow_component_resolves_locally_in_one_iteration(monkeypatch):
    g = normalize(parse_model(LOOP_PAIR_WITH_BYPASS))
    calls = record_inner(monkeypatch)
    res = solve_topological(g)
    assert res.converged
    assert res.algorithm == "topo-svi"
    (slow,) = [e for e in build_plan(g, 1e-6).entries if e.states == (1, 5)]
    assert slow.kind == "unknown"
    # its frontier, the target 3 and the sink 4, is tight: one run, one sweep
    ((_, start, run),) = [c for c in calls if c[0] == (1, 5)]
    assert (start[3], start[4]) == (1.0, 0.0)
    assert run.iterations == 1
    assert [t.scc for t in res.trace].count(slow.index) == 1
    assert res.upper[1] - res.lower[1] <= 1e-6
    assert res.strategy == {0: "a", 1: "a", 2: "c", 5: "a"}


# State 0 chooses between two components that do not see each other: the
# loop {1, 2} (values 2/3 and 1/3, bracketed only to eps) and the loop
# {3, 6} (value 1/2 each), whose successors outside itself are the target
# 4 and the sink 5. Its action b also leads to 7, which returns to 0, so
# the source lies on the cycle {0, 7} and is solved by inner runs. Every
# component has several states: the driver settles none in closed form.
TIGHT_NEXT_TO_LOOSE = """\
ssg 1
states 8
target 4
action 0 a
  1 1
action 0 b
  3 1/2
  7 1/2
action 1 a
  2 1/2
  4 1/2
action 2 a
  1 1/2
  5 1/2
action 3 a
  6 1/2
  4 1/4
  5 1/4
action 6 a
  3 1
action 7 a
  0 1
"""


def test_second_run_only_for_a_loose_frontier(monkeypatch):
    g = normalize(parse_model(TIGHT_NEXT_TO_LOOSE))
    calls = record_inner(monkeypatch)
    res = solve_topological(g)
    assert res.converged
    # the loose loop is decided before the tight one is solved
    assert [e.states for e in build_plan(g, 1e-6).unknown_entries()] == [(1, 2), (3, 6), (0, 7)]
    assert [pool for pool, _, _ in calls] == [(1, 2), (3, 6), (0, 7), (0, 7)]
    _, tight, source_lo, source_hi = (start for _, start, _ in calls)
    assert res.lower[1] < res.upper[1]
    assert (tight[4], tight[5]) == (1.0, 0.0)
    # the source 0 reads its successors 1 and 3 once at their lowers, once at their uppers
    assert (source_lo[1], source_lo[3]) == (res.lower[1], res.lower[3])
    assert (source_hi[1], source_hi[3]) == (res.upper[1], res.upper[3])
    # the second run gets the whole upper side, off the successors too
    assert res.lower[2] < source_hi[2] == res.upper[2]
    assert max_err(res.value, exact_floats(g)) <= 2e-6


def test_decided_components_cost_nothing(monkeypatch):
    g = loop_with_bypass()
    decided = {s for e in build_plan(g, 1e-6).entries if e.kind == "decided" for s in e.states}
    assert decided == {2, 3, 4}
    calls = record_inner(monkeypatch)
    res = solve_topological(g)
    assert not decided & {s for pool, _, _ in calls for s in pool}
    assert res.iterations == sum(run.iterations for _, _, run in calls)
    assert res.converged


def test_sweeps_and_convergence_sum_over_the_inner_runs(monkeypatch):
    g = normalize(parse_model(TIGHT_NEXT_TO_LOOSE))
    full = solve_topological(g)
    calls = record_inner(monkeypatch)
    res = solve_topological(g, max_iters=full.iterations - 1)  # the last run is cut one sweep short
    runs = [run for _, _, run in calls]
    assert len(runs) == 4 and all(r.converged for r in runs[:-1])
    assert not runs[-1].converged
    assert res.iterations == sum(r.iterations for r in runs) == full.iterations - 1
    assert not res.converged
    assert len(res.trace) == res.iterations


def _scrambled(vec, keep, seed):
    """A copy of vec with every entry outside `keep` replaced by a seeded random float."""
    rng = random.Random(seed)
    return [v if s in keep else rng.random() for s, v in enumerate(vec)]


@pytest.mark.parametrize("inner", sorted(INNER_SOLVERS))
def test_a_pool_solve_reads_only_its_pool_and_the_pools_successors(inner, monkeypatch):
    # what lets the driver hand each inner run a whole side of the bracket
    solver = INNER_SOLVERS[inner]
    runs = []

    def recorded(game, part, vec, eps, max_iters):
        runs.append((game, part.copy(), list(vec), eps, max_iters))
        return solver(game, part, vec, eps, max_iters)

    monkeypatch.setitem(INNER_SOLVERS, inner, recorded)
    for g in [*(build() for build in ALL_PRESETS.values()), *census((8, 10, 12), range(40))]:
        solve_topological(g, inner=inner)
    monkeypatch.undo()

    def outcome(game, part, vec, eps, max_iters):
        pool = sorted(part.unknown)
        res = solver(game, part.copy(), vec, eps, max_iters)
        return ([res.lower[s] for s in pool], [res.upper[s] for s in pool],
                res.iterations, res.converged, res.strategy)

    moved = 0
    for i, (game, part, vec, eps, max_iters) in enumerate(runs):
        pool = part.unknown
        reads = pool | {t for s in pool for t in game.succs[s]}
        want = outcome(game, part, list(vec), eps, max_iters)
        got = outcome(game, part, _scrambled(vec, reads, i), eps, max_iters)
        assert got == want, (inner, i)
        # control: the successors outside the pool are read
        moved += outcome(game, part, _scrambled(vec, pool, i), eps, max_iters) != want
    assert len(runs) > 50 and moved > 0


@pytest.mark.parametrize("inner", sorted(INNER_SOLVERS))
def test_a_pool_solve_puts_zero_back_at_the_sinks(inner):
    # the sweeps skip the transitions into the sinks, so a pool solve must
    # not take their value from its vector: it ends as with +0.0 there
    solver = INNER_SOLVERS[inner]
    read = 0
    for i, g in enumerate(census((8, 10, 12), range(10))):
        part = partition_states(g)
        vec = start_vector(g, 1e-6, part)
        want = solver(g, part.copy(), list(vec), 1e-6, 20_000)
        got = solver(g, part.copy(), _scrambled(vec, set(range(g.n_states)) - part.sinks, i),
                     1e-6, 20_000)
        assert want.converged
        assert (got.lower, got.upper, got.iterations, got.converged, got.strategy) == (
            want.lower, want.upper, want.iterations, want.converged, want.strategy), (inner, i)
        assert all(math.copysign(1.0, got.lower[s]) == 1.0 and got.lower[s] == 0.0
                   for s in part.sinks)
        read += any(t in part.sinks for s in part.unknown for t in g.succs[s])
    assert read > 20


# The Maximizer source 0 chooses between the loop {1, 2} (value 2/3) and a
# coin (value 3/5) that hits the target 3 or the sink 4. It is one state
# without a self-loop, so the driver settles it in one step.
LOOSE_LOOP_OR_COIN = """\
ssg 1
states 5
target 3
action 0 a
  1 1
action 0 b
  3 3/5
  4 2/5
action 1 a
  2 1/2
  3 1/2
action 2 a
  1 1/2
  4 1/2
"""


@pytest.mark.parametrize("inner", sorted(INNER_SOLVERS))
def test_one_state_source_is_settled_over_a_loose_frontier(inner, monkeypatch):
    g = normalize(parse_model(LOOSE_LOOP_OR_COIN))
    calls = record_inner(monkeypatch, inner)
    res = solve_topological(g, inner=inner, max_iters=1)  # one sweep leaves the loop loose
    assert [pool for pool, _, _ in calls] == [(1, 2)]  # no inner run for the source
    assert res.lower[1] < 0.6 < res.upper[1]
    # lower from the frontier's lowers, upper from its uppers
    assert res.lower[0] == max(res.lower[1], 0.6) == 0.6
    assert res.upper[0] == max(res.upper[1], 0.6) == res.upper[1]
    # the action that certifies the lower: the coin, though the uppers favour the loop
    assert res.strategy[0] == "b"


# LOOSE_LOOP_OR_COIN with the source's action a looping back to 0 half the
# time: a is still worth the loop's value 2/3, but the source lies on a
# cycle of its own.
LOOSE_LOOP_OR_SELF_LOOPING_COIN = LOOSE_LOOP_OR_COIN.replace(
    "action 0 a\n  1 1\n", "action 0 a\n  1 1/2\n  0 1/2\n")


@pytest.mark.parametrize("inner", sorted(INNER_SOLVERS))
def test_self_looping_source_is_settled_in_closed_form_over_a_loose_frontier(inner, monkeypatch):
    g = normalize(parse_model(LOOSE_LOOP_OR_SELF_LOOPING_COIN))
    assert 0 in g.succs[0]
    calls = record_inner(monkeypatch, inner)
    res = solve_topological(g, inner=inner, max_iters=1)
    assert [pool for pool, _, _ in calls] == [(1, 2)]  # no inner run for the source
    assert res.lower[1] < 0.6 < res.upper[1]
    # a's worth is (1/2 * v[1]) / (1/2) = v[1], rounded outward
    assert res.lower[0] == 0.6
    assert res.upper[1] <= res.upper[0] <= min(1.0, res.upper[1] * (1 + 1e-15))
    assert res.strategy[0] == "b"
    exact = exact_value(g).values[0]
    assert Fraction(res.lower[0]) <= exact <= Fraction(res.upper[0])


def test_closed_form_is_best_step_on_a_row_without_a_self_loop():
    # bit for bit, on every state of census games that has no self-loop
    rng = random.Random(5)
    checked = 0
    for g in census((8, 12), range(10)):
        lo = [rng.random() for _ in range(g.n_states)]
        hi = [v + rng.random() * (1 - v) for v in lo]
        for s in range(g.n_states):
            if s in g.succs[s]:
                continue
            lower, i = best_step(g, s, lo)
            assert closed_form(g, s, lo, hi) == (lower, best_step(g, s, hi)[0], i)
            checked += 1
    assert checked > 250


# Maximizer state 0: action a loops forever, b loops half the time and
# else goes to state 1, c goes to state 2 at once. States 1 and 2 are
# decided elsewhere; the test sets their values.
SELF_LOOP_CHOICES = """\
ssg 1
states 3
target 2
action 0 a
  0 1
action 0 b
  0 1/2
  1 1/2
action 0 c
  2 1
action 1 loop
  1 1
action 2 loop
  2 1
"""


def test_closed_form_values_each_action():
    g = normalize(parse_model(SELF_LOOP_CHOICES))
    # a is worth 0, b the value of 1, c that of 2: b wins on the lowers, and its
    # quotient is rounded outward, while zeros and the one-step c stay exact
    lower, upper, i = closed_form(g, 0, [0.0, 0.75, 0.5], [0.0, 0.75, 0.5])
    assert (i, g.actions[0][i].label) == (1, "b")
    assert lower < 0.75 < upper and upper - lower < 1e-14
    assert closed_form(g, 0, [0.0, 0.0, 0.5], [0.0, 0.0, 0.5]) == (0.5, 0.5, 2)
    assert closed_form(g, 0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == (0.0, 0.0, 0)
    # near 1 the upper is clamped
    assert closed_form(g, 0, [0.0, 1.0, 0.0], [0.0, 1.0, 0.0])[1] == 1.0


def test_closed_form_falls_back_where_a_sum_underflows():
    # 1/2 * 5e-324 rounds to 0.0, so the quotient would put the upper at 0,
    # below the true value 5e-324: the upper falls back to the largest
    # exit upper, the lower to 0
    g = normalize(parse_model(SELF_LOOP_CHOICES))
    tiny = 5e-324
    assert 0.5 * tiny == 0.0
    assert closed_form(g, 0, [0.0, tiny, 0.0], [0.0, tiny, 0.0]) == (0.0, tiny, 0)
    # through the driver: serial_loops(1080)'s values (1/2)^(1080-i) leave the normal range
    k = 1080
    res = solve_topological(serial_loops(k))
    assert res.iterations == 0
    for i in range(k):
        assert Fraction(res.lower[i]) <= Fraction(1, 2 ** (k - i)) <= Fraction(res.upper[i]), i


@pytest.mark.parametrize("inner", sorted(INNER_SOLVERS))
def test_serial_loops_150_are_settled_in_closed_form(inner):
    # the benchmark's chains: state i has value (1/2)^(150-i), and every
    # component is one self-looping state
    g = serial_loops(150)
    res = solve_topological(g, inner=inner)
    assert res.converged and res.iterations == 0 and res.trace == []
    for i in range(150):
        v = Fraction(1, 2 ** (150 - i))
        assert Fraction(res.lower[i]) <= v <= Fraction(res.upper[i]), i
        assert res.upper[i] - res.lower[i] <= 1e-12 * float(v), i


def test_topo_bvi_brackets_the_ec_set_slice():
    # 240 games with many end components, checked against exact values
    wrong, stalls, _ = check_set(lambda g: solve_topological(g, 1e-6, inner="bvi", max_iters=3000),
                                 ec_set((6, 8), range(10)))
    assert (wrong, stalls) == (0, 0)


def test_decided_game_builds_no_plan_and_runs_no_inner_solve(monkeypatch):
    # the Maximizer 0 wins almost surely by b; 1 is a sink
    g = normalize(parse_model("ssg 1\nstates 3\ntarget 2\naction 0 a\n1 1\naction 0 b\n2 1\n"
                              "action 1 a\n1 1\n"))

    def refuse(*args):
        raise AssertionError("called on a decided game")

    monkeypatch.setattr(topo, "build_plan", refuse)
    for inner in INNER_SOLVERS:
        monkeypatch.setitem(INNER_SOLVERS, inner, refuse)
    for inner in INNER_SOLVERS:
        res = solve_topological(g, inner=inner)
        assert res.iterations == 0 and res.converged
        assert res.lower == res.upper == [1.0, 0.0, 1.0]
        assert res.strategy == partition_states(g).attractor == {0: "b"}


def test_work_counts_on_the_oracle_sized_stream(monkeypatch):
    # the partition decides 239 of the 300 games entirely, and a component
    # of one state needs no inner run: with a plan and an inner run for
    # every unknown component it would be 300 plans and 120 runs
    plans = []

    def recorded(game, eps):
        plans.append(game)
        return build_plan(game, eps)

    monkeypatch.setattr(topo, "build_plan", recorded)
    calls = record_inner(monkeypatch)
    for g in _oracle_sized_stream(300):
        solve_topological(normalize(g))
    assert (len(plans), len(calls)) == (61, 16)


def test_max_iters_bounds_the_whole_solve():
    # each inner run gets the sweeps the runs before it left, 3 in all here
    # although the first run alone uses them up; a component reached with
    # none left gets no sweep but still a valid bracket
    tight_next_to_loose = normalize(parse_model(TIGHT_NEXT_TO_LOOSE))
    assert solve_topological(tight_next_to_loose, max_iters=3).iterations == 3
    g = normalize(generate_random(GenParams(200, 3, 3, 0.05, 0.5, 0.0, seed=3)))
    res = solve_topological(g, max_iters=500)
    assert res.iterations <= 500 and not res.converged
    ref = solve_bvi(g)
    assert ref.converged
    for s in range(g.n_states):   # sound brackets overlap
        assert res.lower[s] <= ref.upper[s] and ref.lower[s] <= res.upper[s], s


def test_plan_is_looked_up_through_the_module(monkeypatch):
    plans = []

    def recorded(game, eps):
        plans.append(build_plan(game, eps))
        return plans[-1]

    monkeypatch.setattr(topo, "build_plan", recorded)
    solve_topological(loop_with_bypass(), 1e-4)
    ((plan,),) = [plans]
    assert [(e.states, e.eps_local) for e in plan.unknown_entries()] == [((1,), 1e-4 / 2), ((0,), 1e-4)]


def test_serial_chain_needs_no_sweep():
    g = serial_loops()
    topo = solve_topological(g)
    plain = solve_svi(g)
    assert topo.converged and plain.converged
    topo_updates, plain_updates = (sum(t.updates for t in r.trace) for r in (topo, plain))
    assert topo.iterations == 0
    assert topo_updates == 0
    assert plain.iterations == 785
    assert plain_updates == 2355
    assert topo_updates <= plain_updates
    assert max_err(topo.value, plain.value) <= 2e-6


def test_agreement_with_plain_solver_on_presets():
    for build in ALL_PRESETS.values():
        g = build()
        topo = solve_topological(g)
        plain = solve_svi(g)
        assert topo.converged
        assert max_err(topo.value, plain.value) <= 2e-6, build.__name__


def test_single_component_degenerates_to_plain_run():
    # the pool solve on the one component is the public solve's own path
    for inner, plain_solve, sweeps in (("svi", solve_svi, 6), ("bvi", solve_bvi, 12)):
        topo = solve_topological(exit_seesaw(), inner=inner)
        plain = plain_solve(exit_seesaw())
        assert topo.iterations == plain.iterations == sweeps, inner
        assert topo.value == plain.value, inner
        assert topo.lower == plain.lower, inner
        assert topo.upper == plain.upper, inner
        assert topo.strategy == plain.strategy, inner


@pytest.mark.parametrize("inner", sorted(INNER_SOLVERS))
def test_almost_sure_winner_inside_an_unknown_component(inner, monkeypatch):
    # Maximizer state 4 wins by a0 (half to the target 3, half back to 4); its
    # a1 leads to state 2, which loops back to 4 and has value 5/9. {2, 4} is
    # one component, and only 2 is left for the inner solve.
    g = normalize(generate_random(GenParams(n_states=5, max_actions_per_state=3, max_branching=3,
                                            target_fraction=0.2, ec_bias=0.5, seed=29)))
    assert [e.states for e in build_plan(g, 1e-6).unknown_entries()] == [(2, 4)]
    pools = []
    solver = INNER_SOLVERS[inner]

    def recorded(game, part, vec, eps, max_iters):
        pools.append(set(part.unknown))
        return solver(game, part, vec, eps, max_iters)

    monkeypatch.setitem(INNER_SOLVERS, inner, recorded)
    res = solve_topological(g, inner=inner)
    assert res.converged
    assert pools == [{2}]
    assert res.strategy[4] == partition_states(g).attractor[4] == "a0"
    assert res.lower[4] == res.upper[4] == 1.0
    assert res.lower[2] <= 5 / 9 <= res.upper[2]


def test_traces_carry_component_index():
    g = loop_with_bypass()
    res = solve_topological(g)
    unknown_idx = {e.index for e in build_plan(g, 1e-6).unknown_entries()}
    seen = {t.scc for t in res.trace}
    assert None not in seen
    assert seen <= unknown_idx


def test_values_match_oracle():
    for build in (serial_loops, loop_with_bypass, nested_rings, exit_seesaw):
        g = build()
        res = solve_topological(g)
        assert max_err(res.value, exact_floats(g)) <= 2e-6, build.__name__


def test_bvi_inner():
    res = solve_topological(loop_with_bypass(), inner="bvi")
    assert res.algorithm == "topo-bvi"
    assert res.converged
    assert max_err(res.value, [0.5, 0.5, 1.0, 1.0, 0.0]) <= 2e-6


def test_unknown_inner_rejected():
    assert set(INNER_SOLVERS) == {"svi", "bvi"}
    with pytest.raises(ValueError):
        solve_topological(slow_loop(), inner="vi")


def test_iteration_cap_propagates():
    # the loop {1, 2} needs sweeps; the one-state components need none
    res = solve_topological(normalize(parse_model(TIGHT_NEXT_TO_LOOSE)), max_iters=0)
    assert not res.converged
    assert solve_topological(slow_loop(), max_iters=0).converged


# Minimizer state 0 may loop forever (stay) or step to the Maximizer state 1,
# which goes half back to 0 and half to the target 2. {0, 1} is one
# component with the trap {0} inside it: state 0 has value 0, state 1 1/2.
TRAP_IN_CYCLE = """\
ssg 1
states 3
minplayer 0
target 2
action 0 stay
0 1
action 0 go
1 1
action 1 a
0 1/2
2 1/2
"""


def test_component_mixing_a_trap_with_undecided_states():
    g = normalize(parse_model(TRAP_IN_CYCLE))
    plan = build_plan(g, 1e-6)
    (entry,) = [e for e in plan.entries if 0 in e.states]
    assert entry.states == (0, 1) and entry.kind == "unknown"
    for inner in INNER_SOLVERS:
        res = solve_topological(g, inner=inner)
        assert res.converged, inner
        assert res.lower[0] == res.upper[0] == 0.0
        assert res.lower[1] <= 0.5 <= res.upper[1]
        assert res.upper[1] - res.lower[1] <= 2e-6


def _oracle_sized_stream(count):
    """The first `count` games of the fuzz stream `stream_params(count, 0, 12)`."""
    return map(generate_random, fuzz_stream_params(count))


def test_plan_digest_of_the_census_and_the_benchmark_families():
    # recorded while the depths came from per-component predecessor sets
    games = [*census((6, 8, 10, 12), range(150)), serial_loops(150), slow_loop(),
             *(generate_random(GenParams(80, 3, 3, 0.05, 0.5, eb, seed))
               for eb in (0.0, 0.5) for seed in (2, 3)),
             *(normalize(g) for g in _oracle_sized_stream(300))]
    keys = [[(e.states, e.depth, e.eps_local, e.kind) for e in build_plan(g, 1e-6).entries]
            for g in games]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == "b9967c08ff21845327a882680d8420ad7603105e15d2ef507250a10a7ecae35d"


@pytest.mark.parametrize("inner, digest", [
    # both re-recorded when the one-state components got their closed form
    pytest.param("svi", "454ed35a134c60ada3f6f211d9cc86ffbbc3954382c7ab290a6fe9fe33b78a93", id="svi"),
    pytest.param("bvi", "4ad02d7960bac2c4bf45d8929346aea1d35d0ef3f50494fda2b53d9c802c1385", id="bvi"),
])
def test_topological_results_match_the_golden_digest(inner, digest):
    # brackets, values, strategies and global bounds of 425 games, frozen by
    # a sha256 over their repr: the fuzz stream's first 300 games, 120
    # census games and the chains and random benchmark families; for the
    # inner svi also the sweeps and the trace, component tags included
    games = [*(normalize(g) for g in _oracle_sized_stream(300)), *census((8, 12), range(20)),
             serial_loops(150),
             *(generate_random(GenParams(80, 3, 3, 0.05, 0.5, eb, seed))
               for eb in (0.0, 0.5) for seed in (2, 3))]
    keys = []
    for g in games:
        r = solve_topological(g, inner=inner)
        key = [r.converged, r.lower, r.upper, r.value, sorted(r.strategy.items()),
               r.global_lower, r.global_upper]
        if inner == "svi":
            key += [r.iterations, [dataclasses.astuple(t) for t in r.trace]]
        keys.append(key)
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest


@pytest.mark.parametrize("eps", [0.0, -1.0])
def test_non_positive_eps_rejected(eps):
    # a lone target needs no inner solve, and is rejected all the same
    target_only = normalize(parse_model("ssg 1\nstates 1\ntarget 0\n"))
    with pytest.raises(ValueError, match="eps must be positive"):
        solve_topological(target_only, eps)
