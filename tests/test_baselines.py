"""Classic value iteration and the bounded, deflating variant."""

import hashlib
import random

import pytest

from ssgsolve.baselines import UNSOUND_NOTE, deflate, solve_bvi, solve_bvi_pool, solve_vi
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
from ssgsolve.svi import start_vector

from _util import census, exact_floats, max_err, pinned, sweep_by_dot


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


def test_bvi_lower_is_between_vi_and_the_value_at_every_sweep():
    # bvi's lower vector starts where vi's does and takes the same monotone
    # step, from values at least as high, so after k sweeps it is at least
    # vi's k-th vector, state by state, and never above the value
    games = [build() for build in ALL_PRESETS.values()] + list(census((8, 10), range(20)))
    sweeps = 0
    for g in games:
        want = exact_floats(g)
        part = partition_states(g)
        vi = start_vector(g, 1e-6, part)
        r = solve_bvi(g, record_vectors=True)
        for k, (low, _) in enumerate(r.vectors, start=1):
            vi = sweep_by_dot(g, part.unknown, vi)
            for s in range(g.n_states):
                assert vi[s] <= low[s] <= want[s] + 1e-9, (g, k, s)
        sweeps += r.iterations
    assert len(games) == 132 and sweeps > 2000


def test_deflate_caps_pure_cycle_to_zero():
    g = cycle_with_sink_exit()
    part = StatePartition(targets=set(), sinks={2}, unknown={0, 1})
    U = [1.0, 1.0, 0.0]
    assert deflate(g, part, U) is None
    # capped in place, partition untouched
    assert U == [0.0, 0.0, 0.0]
    assert part.unknown == {0, 1}


def test_deflate_peels_ring_exits():
    g = asymmetric_ring()
    part = partition_states(g)
    U = [1.0, 1.0, 1.0, 1.0, 0.0]
    deflate(g, part, U)
    assert U == pytest.approx([0.4, 0.4, 0.6, 1.0, 0.0])


def test_deflate_zeroes_minimizer_trap():
    # the partition counts the trap among the sinks, so the upper vector bvi
    # starts from is 0 there, and deflating it changes nothing
    g = minimizer_trap()
    part = partition_states(g)
    assert {0, 1} <= part.sinks
    U = [0.0 if s in part.sinks else 1.0 for s in range(g.n_states)]
    assert U == [0.0, 0.0, 1.0, 0.0]
    deflate(g, part, U)
    assert U == [0.0, 0.0, 1.0, 0.0]
    assert solve_bvi(g).upper == U


def test_deflate_no_components_no_change():
    g = slow_loop()
    part = partition_states(g)
    U = [0.7, 1.0, 0.0]
    deflate(g, part, U)
    assert U == [0.7, 1.0, 0.0]


def test_deflate_never_cuts_below_the_value():
    for build in ALL_PRESETS.values():
        g = build()
        part = partition_states(g)
        want = exact_floats(g)
        U = [1.0 if s not in part.sinks else 0.0 for s in range(g.n_states)]
        deflate(g, part, U)
        for s in range(g.n_states):
            assert U[s] >= want[s] - 1e-9, (build.__name__, s)


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
    deflate(g, part, U)
    assert U == pytest.approx([0.7, 0.45, 0.45, 0.45, 1.0, 0.0])
    assert exact_floats(g)[:4] == pytest.approx([0.7, 0.45, 0.45, 0.45])


def test_bvi_iteration_counts_frozen():
    counts = {
        slow_loop: 684,
        serial_loops: 876,
        loop_or_coin: 1,
        exit_seesaw: 12,
        asymmetric_ring: 1,
        one_way_out: 1,
        loop_with_bypass: 685,
        two_route_choice: 2,
        minimizer_trap: 0,
        nested_rings: 3,
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


def test_bvi_pool_reads_downstream_values():
    g = loop_with_bypass()
    r = solve_bvi_pool(g, *pinned(g, {1: 0.5, 2: 1.0}), 1e-6, 10_000_000)
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
    # caps as deflate on a fresh copy does, also after states leave the pool
    remainders = capped = 0
    for seed in range(12):
        g = normalize(generate_random(GenParams(
            n_states=24, max_actions_per_state=3, max_branching=2, target_fraction=0.1,
            ec_bias=ec_bias, seed=seed)))
        rng = random.Random(seed)
        part = partition_states(g)
        for step in range(8):
            U = [0.0 if s in part.sinks else rng.random() for s in range(g.n_states)]
            warm, cold = list(U), list(U)
            deflate(g, part, warm)
            deflate(g, part.copy(), cold)
            assert warm == cold
            capped += warm != U
            remainders += sum(len(k) < len(part.unknown) for k in part.ec_memo)
            if step % 3 == 2:
                for s in rng.sample(sorted(part.unknown), min(2, len(part.unknown))):
                    part.unknown.discard(s)
    assert remainders > 0 and capped > 0


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


def _digest(r):
    rows = [(t.l, t.u, t.max_gap) for t in r.trace]
    return hashlib.sha256(repr((r.lower, r.upper, r.value, r.strategy, rows)).encode()).hexdigest()


# vi and bvi on the models of test_svi.GOLDEN_SOLVES: iterations and a digest
# of the bounds, vectors, strategy and trace, recorded while every row was
# added by a `dot` or `dot2` call; bvi's re-recorded when its sweeps became
# layered Gauss-Seidel (exit_seesaw and two_route_choice kept theirs)
GOLDEN_BASELINES = [
    (GenParams(80, 3, 3, 0.05, 0.5, 0.0, 2),
     (166, "04263725fd6ed13d3921d167f5425f0b3d83bdd8e04b4d9ab6b7c401b6c6f6c5"),
     (133, "a8f16564e1654e20c348f409f752d2db3240e839897939f126e643c16502eda8")),
    (GenParams(80, 3, 3, 0.05, 0.5, 0.0, 3),
     (71, "db7beae7f67e124efddd79e67833821add84fd41fe9920cb6de26cfa393eb350"),
     (49, "1662d450f754397361b136e612e11ce2db9e915e43b38335a0cb86d33f60b8d7")),
    (GenParams(80, 3, 3, 0.05, 0.5, 0.5, 2),
     (0, "bdbbce7640b3508d79db34fd8457326accee9aa17317cec62636353ab4474a10"),
     (0, "bdbbce7640b3508d79db34fd8457326accee9aa17317cec62636353ab4474a10")),
    (GenParams(80, 3, 3, 0.05, 0.5, 0.5, 3),
     (55, "156bf0ec5c3cf2c7230596a13c74b5d8cbf7565eb6298a3204af26cdae1ab15d"),
     (29, "2629abdc015440d8db24717f99c55446831d2517495cd82fc05d662befbdf0eb")),
    (exit_seesaw,
     (11, "cb8d64f3229be5a27095932841059e091feb1975102718d5c686fb6e8e253d3f"),
     (12, "cfc59ec8a0d68e963bd229b94e38105e215b4e415baadc1297f56174ee5f5489")),
    (two_route_choice,
     (3, "0a623e688708ca6c4fd40206dab2445bbb45083b6b4d1187b147b64736364e29"),
     (2, "517714698297f38faee1b814683534c320e25694027d60320aae92706cefed90")),
]


@pytest.mark.parametrize("model, vi, bvi", GOLDEN_BASELINES)
def test_baselines_match_golden_values(model, vi, bvi):
    g = generate_random(model) if isinstance(model, GenParams) else model()
    for solve, want in ((solve_vi, vi), (solve_bvi, bvi)):
        r = solve(g)
        assert r.converged
        assert (r.iterations, _digest(r)) == want, solve.__name__
