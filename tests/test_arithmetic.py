"""Float arithmetic the solvers trust: fixed summation order and one tie rule."""

import math
import random
from types import SimpleNamespace

import pytest

import ssgsolve.baselines as baselines
import ssgsolve.graph as graph
import ssgsolve.model as model
import ssgsolve.svi as svi
from ssgsolve.baselines import solve_bvi, solve_vi
from ssgsolve.model import (MAX, MIN, GenParams, dot, dot2, generate_random, normalize, parse_model,
                            partition_states)
from ssgsolve.presets import ALL_PRESETS, serial_loops, slow_loop
from ssgsolve.svi import solve_svi
from ssgsolve.topo import INNER_SOLVERS, solve_topological

from _util import census, gauss_seidel_by_dot, sweep2_by_dot, sweep_by_dot, vi_fold_by_walk

# Exactly equal values whose float sums differ: 3/10 in one step against
# 1/10 + 2/10 over two targets, which comes to 0.30000000000000004.
SPLIT_TIE = """\
ssg 1
states 4
{owner}target 1 2
action 0 {first}
{first_row}action 0 {second}
{second_row}"""
ONE_STEP = "  1 3/10\n  3 7/10\n"
TWO_STEPS = "  1 1/10\n  2 2/10\n  3 7/10\n"


def split_tie(owner: str, first_row: str, second_row: str):
    text = SPLIT_TIE.format(owner=owner, first="x", second="y",
                            first_row=first_row, second_row=second_row)
    return normalize(parse_model(text))


def one_layer(states):
    """`baselines._layers`' sweep order with the given states as one layer."""
    *rest, last = states
    return [(s, False) for s in rest] + [(last, True)]


def jacobi(rows, owner, states, vec):
    """`baselines._sweep` on the pool that `svi.compile_pool` compiles from rows; returns the new vector.

    Also checks the fold the kernel returns against a second pass over the vectors.
    """
    new, delta, low = baselines._sweep(*svi.compile_pool(rows, owner, states), vec)
    assert repr((delta, low)) == repr(vi_fold_by_walk(states, vec, new))
    return new


def layered(rows, owner, order, low, high):
    """`baselines._sweep_layers` on copies of low and high; returns the copies.

    Also checks the fold the kernel returns against the vectors it left.
    """
    low, high = list(low), list(high)
    got = baselines._sweep_layers(baselines._entries(rows, owner, order), low, high)
    swept = [s for s, _ in order]
    assert got == (max(high[s] - low[s] for s in swept), min(low[s] for s in swept),
                   max(high[s] for s in swept))
    return low, high


def test_dot_adds_left_to_right_from_zero():
    # each 1e-16 is lost against 1.0 in turn; a compensated sum keeps both
    row = ((0, 1.0), (1, 1e-16), (2, 1e-16))
    vec = [1.0, 1.0, 1.0]
    assert dot(row, vec) == 1.0
    assert math.fsum(p for _, p in row) == 1.0000000000000002
    assert dot2(row, vec, [0.0, 0.5, 0.5]) == (1.0, 1e-16)
    assert dot((), vec) == 0.0


def test_sweep_kernels_add_left_to_right_from_zero():
    # the row above on a one-action state, a Maximizer and a Minimizer state
    row = ((0, 1.0), (1, 1e-16), (2, 1e-16))
    game = SimpleNamespace(rows=((row,), (row, ((0, 0.5),)), (((0, 2.0),), row)), owner=(MAX, MAX, MIN))
    vec = [1.0, 1.0, 1.0]
    assert jacobi(game.rows, game.owner, {0, 1, 2}, vec) == [1.0, 1.0, 1.0]
    want = ([1.0, 1.0, 1.0], [1e-16, 1e-16, 0.0])
    assert layered(game.rows, game.owner, one_layer([0, 1, 2]), vec, [0.0, 0.5, 0.5]) == want


def _kernel_cases(rng, g, draw, sinks_zero):
    """Seeded (low, high, order, layers) draws on g's states for the kernel tests."""
    states = range(g.n_states)

    def vec():
        return [0.0 if sinks_zero and s in g.split.sinks else draw() for s in states]

    low, high = vec(), vec()
    order = rng.sample(states, len(states))
    cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, len(order) - 1)))
    return low, high, order, [order[i:j] for i, j in zip([0, *cuts], [*cuts, len(order)])]


def test_sweep_kernels_match_the_dot_reference_bit_for_bit():
    rng = random.Random(18)
    multi = set()
    for g in census((6, 8, 10, 12), range(10)):
        states = range(g.n_states)
        multi |= {g.owner[s] for s in states if len(g.rows[s]) > 1}
        # uniform draws, and coarse ones whose row values often tie
        for draw in (rng.random, lambda: rng.choice((0.0, 0.25, 0.5, 1.0))):
            low, high, order, layers = _kernel_cases(rng, g, draw, sinks_zero=False)
            assert repr(jacobi(g.rows, g.owner, states, low)) == repr(sweep_by_dot(g, states, low))
            # the whole pool as one layer is a Jacobi sweep
            assert (repr(layered(g.rows, g.owner, one_layer(states), low, high))
                    == repr(sweep2_by_dot(g, states, low, high)))
            # one-state layers are a plain in-place sweep in that order
            assert (repr(layered(g.rows, g.owner, [(s, True) for s in order], low, high))
                    == repr(gauss_seidel_by_dot(g, order, low, high)))
            # any layering: one Jacobi sweep per layer, each from what the one before left
            want = (low, high)
            for layer in layers:
                want = sweep2_by_dot(g, layer, *want)
            assert (repr(layered(g.rows, g.owner, [pair for layer in layers for pair in one_layer(layer)],
                                 low, high)) == repr(want))
    assert multi == {MAX, MIN}


def test_sweep_kernels_read_live_rows_as_rows_on_vectors_zero_at_the_sinks():
    # the kernels' precondition: +0.0 at every sink makes each dropped p * 0.0 an exact no-op
    rng = random.Random(32)
    dropped = 0
    for g in census((6, 8, 10, 12), range(10)):
        states = range(g.n_states)
        dropped += sum(len(r) - len(lr) for acts, live in zip(g.rows, g.live_rows)
                       for r, lr in zip(acts, live))
        for draw in (rng.random, lambda: rng.choice((0.0, 0.25, 0.5, 1.0))):
            low, high, order, layers = _kernel_cases(rng, g, draw, sinks_zero=True)
            assert (repr(jacobi(g.live_rows, g.owner, states, low))
                    == repr(jacobi(g.rows, g.owner, states, low)))
            for cut in (one_layer(states), [(s, True) for s in order],
                        [pair for layer in layers for pair in one_layer(layer)]):
                assert (repr(layered(g.live_rows, g.owner, cut, low, high))
                        == repr(layered(g.rows, g.owner, cut, low, high)))
    assert dropped > 0


def _plus_zero_at(vec, states):
    return all(vec[s] == 0.0 and math.copysign(1.0, vec[s]) == 1.0 for s in states)


def test_every_vector_a_sweep_reads_holds_plus_zero_at_every_sink(monkeypatch):
    # the precondition under which the kernels may read live_rows
    sinks = frozenset()
    checked, bad = [0], []

    def check(where, *vecs):
        checked[0] += 1
        if not all(_plus_zero_at(v, sinks) for v in vecs):
            bad.append(where)

    def spy(module, name, vectors):
        fn = getattr(module, name)

        def spied(*args):
            check(name, *vectors(*args))
            return fn(*args)
        monkeypatch.setattr(module, name, spied)

    spy(baselines, "_sweep", lambda single, multi, vec: (vec,))
    spy(baselines, "_sweep_layers", lambda entries, low, high: (low, high))
    spy(svi, "choose_actions", lambda facts, rs, *rest: (rs.reach, rs.stay))
    spy(svi, "bellman_update", lambda facts, rs, *rest: (rs.reach, rs.stay))
    for key, fn in list(INNER_SOLVERS.items()):
        def inner(game, part, vec, *args, fn=fn, key=key):
            check(f"topo start ({key})", vec)
            return fn(game, part, vec, *args)
        monkeypatch.setitem(INNER_SOLVERS, key, inner)

    games = [serial_loops(150), slow_loop(), *census((8, 10), range(10)),
             *(normalize(generate_random(GenParams(80, 3, 3, 0.05, 0.5, eb, seed=seed)))
               for seed in (2, 3) for eb in (0.0, 0.5))]
    for g in games:
        sinks = g.split.sinks
        solve_vi(g)
        for res in (solve_bvi(g, record_vectors=True), solve_svi(g, record_vectors=True)):
            for k, vecs in enumerate(res.vectors):
                check(f"{res.algorithm} vectors at sweep {k + 1}", *vecs)
        for inner_name in sorted(INNER_SOLVERS):
            solve_topological(g, inner=inner_name)
    assert not bad, bad[:5]
    assert checked[0] > 10_000 and all(g.split.sinks for g in games[:2])


def test_vi_sweep_folds_what_the_pool_walk_gave(monkeypatch):
    # every sweep's trace entry against the second pass solve_vi made before the sweep folded it
    swept = []
    sweep = baselines._sweep

    def recorded(single, multi, vec):
        got = sweep(single, multi, vec)
        swept.append((vec, got[0]))
        return got

    monkeypatch.setattr(baselines, "_sweep", recorded)
    games = [*(build() for build in ALL_PRESETS.values()), *census((8, 10), range(20)),
             *(normalize(generate_random(GenParams(80, 3, 3, 0.05, 0.5, eb, seed=seed)))
               for seed in (2, 3) for eb in (0.0, 0.5))]
    checked = 0
    for g in games:
        swept.clear()
        res = solve_vi(g)
        unknown = partition_states(g).unknown
        assert len(swept) == res.iterations == len(res.trace)
        for entry, (old, new) in zip(res.trace, swept):
            assert repr((entry.max_gap, entry.l)) == repr(vi_fold_by_walk(unknown, old, new)), entry.k
        checked += len(swept)
    assert checked > 2_000


def test_a_bvi_sweep_of_serial_loops_reads_only_its_live_transitions(monkeypatch):
    g = serial_loops(150)
    read = []
    sweep = baselines._sweep_layers

    def counted(entries, low, high):
        read.append(sum(len(row) for _, acts, _, _, _ in entries for row in acts))
        return sweep(entries, low, high)

    monkeypatch.setattr(baselines, "_sweep_layers", counted)
    solve_bvi(g, max_iters=2)
    # each loop state stays, moves on and drops to the sink: the sink's third is skipped
    assert sum(len(row) for s in g.split.unknown for row in g.rows[s]) == 450
    assert read == [300, 300]


@pytest.mark.parametrize("owner, rows, want", [
    # Maximizer: y is one ulp ahead in floats, the lower index x wins
    ("", (ONE_STEP, TWO_STEPS), "x"),
    # Minimizer: y is one ulp behind in floats, the lower index x wins
    ("minplayer 0\n", (TWO_STEPS, ONE_STEP), "x"),
])
def test_every_solver_breaks_a_float_tie_by_action_order(owner, rows, want):
    g = split_tie(owner, *rows)
    for r in (solve_vi(g), solve_bvi(g), solve_svi(g), solve_topological(g)):
        assert r.strategy[0] == want, r.algorithm
        assert r.lower[0] == pytest.approx(0.3)


# Census games (oracle-sized: 3 actions, branching 3, 10% targets, ec_bias 0)
# on which svi, bvi and topo all gave other results when the solvers added
# with builtin sum() and sum() was compensated, as it is from Python 3.12 on:
# svi and topo took 101 and 70 iterations instead of 2 and 5 on the first two.
FSUM_SENSITIVE = [(6, 27), (8, 6), (8, 0)]


@pytest.mark.parametrize("n, seed", FSUM_SENSITIVE)
def test_results_do_not_depend_on_how_sum_adds_floats(monkeypatch, n, seed):
    g = normalize(generate_random(GenParams(n_states=n, seed=seed, max_actions_per_state=3,
                                            max_branching=3, target_fraction=0.1, ec_bias=0.0)))

    def solve_all():
        return [(r.iterations, r.lower, r.upper, r.strategy)
                for r in (solve_svi(g, max_iters=2000), solve_bvi(g, max_iters=2000),
                          solve_topological(g, max_iters=2000))]

    plain = solve_all()
    for module in (svi, baselines, graph, model):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    assert solve_all() == plain
