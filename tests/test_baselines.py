"""Classic value iteration and the bounded, deflating variant."""

import random

import pytest

from ssgsolve.baselines import UNSOUND_NOTE, deflate, solve_bvi, solve_vi
from ssgsolve.graph import mec_decompose
from ssgsolve.model import (
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

from _util import exact_floats, max_err


def test_vi_follows_geometric_closed_form():
    r = solve_vi(slow_loop(), max_iters=5)
    assert not r.converged
    for k, t in enumerate(r.trace, start=1):
        assert t.l == pytest.approx(0.5 * (1 - 0.98 ** k), abs=1e-12)
    assert r.value[0] == pytest.approx(0.5 * (1 - 0.98 ** 5), abs=1e-12)


def test_vi_stopping_is_unsound():
    r = solve_vi(slow_loop())
    assert r.converged
    assert not r.sound
    assert r.algorithm == "vi"
    assert r.iterations == 457
    # the sweep-change rule stopped well before per-state precision 1e-6
    assert abs(r.value[0] - 0.5) > 1e-6
    assert UNSOUND_NOTE == "unsound stopping"


def test_vi_trivial_cases():
    all_target = normalize(parse_model("ssg 1\nstates 1\ntarget 0\n"))
    r = solve_vi(all_target)
    assert r.iterations == 0 and r.converged
    assert r.value == [1.0]

    r2 = solve_vi(cycle_with_sink_exit())
    assert r2.iterations == 0 and r2.converged
    assert r2.value == [0.0, 0.0, 0.0]


def test_vi_upper_is_trivial_split():
    r = solve_vi(slow_loop(), max_iters=3)
    assert r.upper == [1.0, 1.0, 0.0]
    assert r.global_upper == 1.0


def test_vi_and_bvi_share_the_lower_sequence():
    for build in (slow_loop, serial_loops, shifting_preference):
        g = build()
        vi = solve_vi(g)
        bvi = solve_bvi(g)
        n = min(vi.iterations, bvi.iterations)
        for a, b in zip(vi.trace[:n], bvi.trace[:n]):
            assert a.l == b.l, build.__name__


def test_deflate_caps_pure_cycle_to_zero():
    g = cycle_with_sink_exit()
    part = StatePartition(targets=set(), sinks={2}, unknown={0, 1})
    assert deflate(g, part, [1.0, 1.0, 0.0]) == [0.0, 0.0, 0.0]
    # input untouched, partition untouched
    assert part.unknown == {0, 1}


def test_deflate_peels_ring_exits():
    g = asymmetric_ring()
    part = partition_states(g)
    got = deflate(g, part, [1.0, 1.0, 1.0, 1.0, 0.0])
    assert got == pytest.approx([0.4, 0.4, 0.6, 1.0, 0.0])


def test_deflate_zeroes_minimizer_trap():
    # the partition counts the trap among the sinks, so the upper vector bvi
    # starts from is 0 there, and deflating it changes nothing
    g = minimizer_trap()
    part = partition_states(g)
    assert {0, 1} <= part.sinks
    U = [0.0 if s in part.sinks else 1.0 for s in range(g.n_states)]
    assert U == [0.0, 0.0, 1.0, 0.0]
    assert deflate(g, part, U) == U
    assert solve_bvi(g).upper == U


def test_deflate_no_components_no_change():
    g = slow_loop()
    part = partition_states(g)
    U = [0.7, 1.0, 0.0]
    assert deflate(g, part, U) == U


def test_deflate_never_cuts_below_the_value():
    for build in ALL_PRESETS.values():
        g = build()
        part = partition_states(g)
        want = exact_floats(g)
        U = [1.0 if s not in part.sinks else 0.0 for s in range(g.n_states)]
        got = deflate(g, part, U)
        for s in range(g.n_states):
            assert got[s] >= want[s] - 1e-9, (build.__name__, s)


# End component {0,1,2,3}; its best exit is state 0's cash (0.7). Peeling state 0
# leaves the sub-component {1,2,3} (3 is a Minimizer state), whose Maximizer exits
# are 1's back into state 0 and 2's leave at 0.45.
PEEL_ON_CAPPED = """\
ssg 1
states 6
minplayer 3
target 4
action 0 go
  1 1
action 0 cash
  4 7/10
  5 3/10
action 1 on
  2 1
action 1 back
  0 3/5
  5 2/5
action 2 on
  3 1
action 2 leave
  4 9/20
  5 11/20
action 3 on
  1 1
action 3 ret
  0 1
"""


def test_deflate_ranks_sub_component_on_capped_vector():
    g = normalize(parse_model(PEEL_ON_CAPPED))
    part = partition_states(g)
    U = [0.8, 1.0, 1.0, 1.0, 1.0, 0.0]
    # on U as given, back is worth 0.6 * 0.8 = 0.48 and beats leave; once the outer
    # component is capped to 0.7 it is worth 0.42, so leave (0.45) is the best exit
    got = deflate(g, part, U)
    assert got == pytest.approx([0.7, 0.45, 0.45, 0.45, 1.0, 0.0])
    assert exact_floats(g)[:4] == pytest.approx([0.7, 0.45, 0.45, 0.45])


def test_bvi_iteration_counts_frozen():
    counts = {
        slow_loop: 684,
        serial_loops: 878,
        loop_or_coin: 1,
        exit_seesaw: 12,
        asymmetric_ring: 2,
        one_way_out: 2,
        loop_with_bypass: 685,
        two_route_choice: 2,
        minimizer_trap: 0,
        nested_rings: 4,
        shifting_preference: 39,
    }
    for build, want in counts.items():
        r = solve_bvi(build())
        assert r.iterations == want, build.__name__
        assert r.converged and r.sound


def test_bvi_matches_oracle_on_presets():
    for build in ALL_PRESETS.values():
        g = build()
        r = solve_bvi(g)
        assert r.converged
        assert max_err(r.value, exact_floats(g)) <= 1e-6, build.__name__


def test_bvi_zero_iterations_when_nothing_unknown():
    all_target = normalize(parse_model("ssg 1\nstates 1\ntarget 0\n"))
    r = solve_bvi(all_target)
    assert r.iterations == 0 and r.converged
    assert r.value == [1.0]
    r2 = solve_bvi(cycle_with_sink_exit())
    assert r2.iterations == 0 and r2.converged


def test_bvi_bounds_are_monotone_and_bracket_the_value():
    for build in (exit_seesaw, asymmetric_ring, nested_rings, shifting_preference):
        g = build()
        want = exact_floats(g)
        r = solve_bvi(g, record_vectors=True)
        lows = [lo for lo, _ in r.vectors]
        highs = [hi for _, hi in r.vectors]
        for k in range(len(lows)):
            for s in range(g.n_states):
                assert lows[k][s] <= want[s] + 1e-9
                assert highs[k][s] >= want[s] - 1e-9
                if k:
                    assert lows[k][s] >= lows[k - 1][s] - 1e-12
                    assert highs[k][s] <= highs[k - 1][s] + 1e-12


def test_bvi_frozen_pins():
    r = solve_bvi(loop_with_bypass(), frozen={1: 0.5, 2: 1.0})
    assert r.converged
    assert r.lower[1] == r.upper[1] == 0.5
    assert abs(r.value[0] - 0.5) <= 1e-6


def test_bvi_iteration_cap():
    r = solve_bvi(slow_loop(), max_iters=10)
    assert not r.converged
    assert r.iterations == 10
    assert r.global_lower <= 0.5 <= r.global_upper


@pytest.mark.parametrize("ec_bias", [0.5, 1.0])
def test_deflate_warm_memo_matches_cold(ec_bias):
    # deflate on one partition, whose memo carries over from call to call,
    # equals deflate on a fresh copy, also after states leave the pool
    remainders = 0
    for seed in range(12):
        g = normalize(generate_random(GenParams(
            n_states=24, max_actions_per_state=3, max_branching=2, target_fraction=0.1,
            ec_bias=ec_bias, seed=seed)))
        rng = random.Random(seed)
        part = partition_states(g)
        for step in range(8):
            U = [0.0 if s in part.sinks else rng.random() for s in range(g.n_states)]
            assert deflate(g, part, U) == deflate(g, part.copy(), U)
            remainders += sum(len(k) < len(part.unknown) for k in part.ec_memo)
            if step % 3 == 2:
                for s in rng.sample(sorted(part.unknown), min(2, len(part.unknown))):
                    part.unknown.discard(s)
    assert remainders > 0


def test_bvi_decomposes_the_unknown_set_once(monkeypatch):
    import ssgsolve.graph as graph

    g = normalize(generate_random(GenParams(
        n_states=40, max_actions_per_state=3, max_branching=2, target_fraction=0.1,
        ec_bias=0.5, seed=12)))
    # the pool that solve_bvi sweeps: the unknown states, which hold no trap
    unknown = partition_states(g).unknown
    assert mec_decompose(g, unknown)
    calls = []

    def counted(game, restrict=None):
        calls.append(frozenset(restrict))
        return mec_decompose(game, restrict)

    monkeypatch.setattr(graph, "mec_decompose", counted)
    r = solve_bvi(g)
    assert r.converged and r.iterations > 10
    assert calls.count(frozenset(unknown)) == 1
    # each remainder is decomposed once as well
    assert len(calls) == len(set(calls))
