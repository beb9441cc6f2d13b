"""Acceptance gate: one test per headline claim, stated tolerances only.

Each test prints a single "A<n> PASS" line on success; a failure shows up
as the usual pytest FAILED line for that criterion.
"""

import random
from fractions import Fraction

from ssgsolve.fuzz import run_fuzz
from ssgsolve.graph import handle_ecs, trap_states
from ssgsolve.model import GenParams, generate_random, parse_model, partition_states
from ssgsolve.oracle import exact_value
from ssgsolve.presets import (
    asymmetric_ring,
    cycle_with_sink_exit,
    exit_seesaw,
    loop_or_coin,
    loop_with_bypass,
    minimizer_trap,
    nested_rings,
    one_way_out,
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
    bellman_update,
    choose_actions,
    decision_value,
    solve_svi,
    update_global_bounds,
)
from ssgsolve.baselines import solve_bvi
from ssgsolve.topo import solve_topological

from _util import exact_floats, max_err
from test_graph import check_exit_cover

EPS = 1e-6

ALL_PRESETS = (
    slow_loop, two_route_choice, exit_seesaw, one_way_out, asymmetric_ring,
    loop_with_bypass, minimizer_trap, nested_rings, shifting_preference,
    loop_or_coin, serial_loops, cycle_with_sink_exit,
)


def sticky_loop(p: Fraction):
    """The slow-loop shape with a configurable self-loop mass."""
    r = (1 - p) / 2
    return parse_model(
        f"ssg 1\nstates 3\ntarget 1\n"
        f"action 0 go\n0 {p}\n1 {r}\n2 {r}\n"
        f"action 1 loop\n1 1\naction 2 loop\n2 1\n"
    )


def test_a01_slow_loop_single_iteration():
    g = slow_loop()
    svi = solve_svi(g, EPS)
    assert svi.converged and svi.iterations == 1
    assert abs(svi.value[0] - 0.5) <= EPS
    bvi = solve_bvi(g, EPS)
    assert bvi.converged and abs(bvi.iterations - 682) <= 5
    print(f"A1 PASS: svi 1 iteration, value {svi.value[0]:.9f}, bvi {bvi.iterations} iterations")


def test_a02_iterations_independent_of_loop_mass():
    ps = [Fraction(1, 2), Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000)]
    bvi_counts = []
    for p in ps:
        g = sticky_loop(p)
        svi = solve_svi(g, EPS)
        assert svi.converged and svi.iterations == 1
        assert abs(svi.value[0] - 0.5) <= EPS
        bvi = solve_bvi(g, EPS)
        assert bvi.converged
        bvi_counts.append(bvi.iterations)
    assert all(a < b for a, b in zip(bvi_counts, bvi_counts[1:]))
    print(f"A2 PASS: svi 1 iteration at every p, bvi grows {bvi_counts}")


def test_a03_bypass_game_counts_and_values():
    g = loop_with_bypass()
    want = exact_floats(g)
    svi = solve_svi(g, EPS)
    assert svi.converged and svi.iterations <= 3
    bvi = solve_bvi(g, EPS)
    assert bvi.converged and abs(bvi.iterations - 685) <= 10
    assert want[0] == want[1] == 0.5 and want[2] == 1.0
    assert max_err(svi.value, want) <= EPS
    assert max_err(bvi.value, want) <= EPS
    print(f"A3 PASS: svi {svi.iterations} iterations, bvi {bvi.iterations}, values within eps")


def test_a04_component_handling_required_for_convergence():
    g = loop_or_coin()
    plain = solve_svi(g, EPS, ec_handling=False, max_iters=1000)
    assert not plain.converged
    assert len(plain.trace) == 1000
    assert all(t.u == 1.0 for t in plain.trace)
    ec = solve_svi(g, EPS)
    assert ec.converged and ec.iterations <= 10
    assert abs(ec.value[0] - 0.5) <= EPS
    print(f"A4 PASS: upper pinned at 1 for 1000 iterations without the pass, {ec.iterations} with it")


def test_a05_seesaw_settles_via_delay():
    g = exit_seesaw()
    res = solve_svi(g, EPS)
    assert res.converged
    assert abs(res.value[0] - 0.5) <= EPS
    assert abs(res.value[1] - 0.5) <= EPS
    delays = sum(t.delayed for t in res.trace)
    assert delays >= 1
    print(f"A5 PASS: both states at 0.5, {delays} delay events on record")


def test_a06_ring_values_match_oracle():
    ring = asymmetric_ring()
    ores = exact_value(ring)
    assert tuple(ores.values[:3]) == (Fraction(2, 5), Fraction(2, 5), Fraction(3, 5))
    svi = solve_svi(ring, EPS)
    assert svi.converged
    assert max_err(svi.value, [float(v) for v in ores.values]) <= EPS
    right = solve_svi(one_way_out(), EPS)
    assert right.converged
    assert abs(right.value[0] - 0.5) <= EPS and abs(right.value[1] - 0.5) <= EPS
    print("A6 PASS: ring at (2/5, 2/5, 3/5), neighbour pair at 0.5, all within eps")


def test_a07_decision_value_caps_the_lower_bound():
    g = two_route_choice()
    part = partition_states(g)
    rs = ReachStayVector(
        [1.0 if s in part.targets else 0.0 for s in range(3)],
        [1.0 if s in part.unknown else 0.0 for s in range(3)],
    )
    assert decision_value(g, rs, 0, 0) == 0.25  # alpha
    res = solve_svi(g, EPS)
    assert res.trace[0].d_l == 0.25
    assert abs(res.value[0] - 0.5) <= EPS
    mutant = solve_svi(g, EPS, use_decision_values=False)
    assert mutant.value[0] >= 2 / 3 - 1e-9
    print(f"A7 PASS: cap 0.25 exact, value {res.value[0]:.9f}, uncapped run lands at {mutant.value[0]:.6f}")


def test_a08_fuzz_500_models_against_oracle():
    rep = run_fuzz(500, 42, max_states=8, algorithms=("svi", "bvi"))
    assert rep.checked == 500
    assert rep.skipped == 0
    assert rep.ok and not rep.failures
    print("A8 PASS: 500 random games, svi and bvi within 1e-6 of the oracle, sampled bounds sound")


def _batch_games(count=40, max_states=6):
    for seed in range(count):
        yield generate_random(GenParams(
            n_states=2 + seed % (max_states - 1),
            max_actions_per_state=1 + seed % 3,
            max_branching=1 + (seed // 3) % 3,
            target_fraction=0.25,
            min_player_fraction=0.5,
            ec_bias=(seed % 4) / 3,
            seed=seed,
        ))


def _stepwise_invariants(g, iters=8):
    """Drive the solver loop by hand: mass, cap, and stability invariants."""
    part = partition_states(g)
    n = g.n_states
    rs = ReachStayVector(
        [1.0 if s in part.targets else 0.0 for s in range(n)],
        [1.0 if s in part.unknown else 0.0 for s in range(n)],
    )
    B = handle_ecs(g, rs.reach, rs.stay, 1.0, part)
    facts = PoolFacts(g, part)
    bounds = GlobalBounds(0.0, 1.0)
    snap = None
    for _ in range(iters):
        snap = choose_actions(g, facts, rs, bounds, B, snap)
        maxdec, mindec = [], []
        for s in part.unknown:
            chosen = snap.choices.get(s)
            if chosen is None or chosen == DELAY or len(g.actions[s]) < 2:
                continue
            d = decision_value(g, rs, s, chosen)
            if d is not None:
                (maxdec if g.owner[s] == "max" else mindec).append(d)
        rs, snap = bellman_update(g, facts, rs, snap, bounds)
        for s in part.unknown:
            assert rs.reach[s] >= -1e-12 and rs.stay[s] >= -1e-12
            assert rs.reach[s] + rs.stay[s] <= 1.0 + 1e-12
        new_bounds = update_global_bounds(part, rs, bounds, maxdec, mindec, bool(snap.delayed))
        # capped tightening must not flip any free choice
        re_chosen = choose_actions(g, facts, rs, new_bounds, B, snap)
        forced = snap.bexit or frozenset()
        for s in part.unknown:
            if snap.choices.get(s) != DELAY and s not in forced:
                assert re_chosen.choices.get(s) == snap.choices.get(s)
        bounds = new_bounds


def test_a09_structural_invariants_on_random_batch():
    for g in _batch_games():
        want = exact_floats(g)
        res = solve_svi(g, EPS, record_vectors=True)
        prev_l, prev_u = 0.0, 1.0
        for t in res.trace:
            assert prev_l - 1e-12 <= t.l <= t.u + 1e-9
            assert t.u <= prev_u + 1e-12
            prev_l, prev_u = t.l, t.u
        for lo, up in res.vectors:
            for s, v in enumerate(want):
                assert lo[s] <= v + 1e-9 <= up[s] + 2e-9
        for (lo_a, up_a), (lo_b, up_b), (ta, tb) in zip(
                res.vectors, res.vectors[1:], zip(res.trace, res.trace[1:])):
            if ta.u == tb.u:
                for s in range(g.n_states):
                    if g.owner[s] == "max":
                        assert up_b[s] <= up_a[s] + 1e-9
        _stepwise_invariants(g)
        check_exit_cover(g)
        part = partition_states(g)
        assert trap_states(g, part.unknown) == set()
        for s in part.sinks:
            assert want[s] == 0.0
    print("A9 PASS: bounds monotone, iterates sandwiched, caps stable, exits cover, sinks are zeros")


def test_a10_topological_runs_agree_with_plain():
    worst = 0.0
    for build in ALL_PRESETS:
        g = build()
        topo = solve_topological(g, EPS)
        plain = solve_svi(g, EPS)
        assert topo.converged and plain.converged
        worst = max(worst, max_err(topo.value, plain.value))
    rng = random.Random(42)
    for _ in range(100):
        g = generate_random(GenParams(
            n_states=rng.randint(2, 8),
            max_actions_per_state=rng.randint(1, 3),
            max_branching=rng.randint(1, 3),
            target_fraction=0.2,
            min_player_fraction=0.5,
            ec_bias=rng.choice([0.0, 0.5, 1.0]),
            seed=rng.randrange(2**31),
        ))
        topo = solve_topological(g, EPS)
        plain = solve_svi(g, EPS)
        assert topo.converged and plain.converged
        worst = max(worst, max_err(topo.value, plain.value))
    assert worst <= 2 * EPS

    chain = serial_loops()
    t_updates = sum(t.updates for t in solve_topological(chain, EPS).trace)
    p_updates = sum(t.updates for t in solve_svi(chain, EPS).trace)
    assert t_updates <= p_updates
    print(f"A10 PASS: worst disagreement {worst:.3e}, chain updates {t_updates} vs {p_updates}")
