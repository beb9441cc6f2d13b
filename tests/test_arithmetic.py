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
from ssgsolve.model import MAX, MIN, GenParams, dot, dot2, generate_random, normalize, parse_model
from ssgsolve.svi import solve_svi
from ssgsolve.topo import solve_topological

from _util import census, sweep2_by_dot, sweep_by_dot

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
    assert baselines._sweep(game, {0, 1, 2}, vec) == [1.0, 1.0, 1.0]
    assert baselines._sweep2(game, {0, 1, 2}, vec, [0.0, 0.5, 0.5]) == ([1.0, 1.0, 1.0], [1e-16, 1e-16, 0.0])


def test_sweep_kernels_match_the_dot_reference_bit_for_bit():
    rng = random.Random(18)
    multi = set()
    for g in census((6, 8, 10, 12), range(10)):
        states = range(g.n_states)
        multi |= {g.owner[s] for s in states if len(g.rows[s]) > 1}
        # uniform draws, and coarse ones whose row values often tie
        for draw in (rng.random, lambda: rng.choice((0.0, 0.25, 0.5, 1.0))):
            low = [draw() for _ in states]
            high = [draw() for _ in states]
            assert repr(baselines._sweep(g, states, low)) == repr(sweep_by_dot(g, states, low))
            assert repr(baselines._sweep2(g, states, low, high)) == repr(sweep2_by_dot(g, states, low, high))
    assert multi == {MAX, MIN}


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
