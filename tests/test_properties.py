"""Randomized invariant checks over generated games."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssgsolve.baselines import deflate, solve_bvi
from ssgsolve.graph import mec_decompose, trap_states
from ssgsolve.model import MAX, Action, GenParams, ProbabilitySum, StochasticGame, ValidationError, \
    generate_random, normalize, parse_model, partition_states, scale_to_integers, serialize_model
from ssgsolve.oracle import exact_value
from ssgsolve.svi import solve_svi

from _util import distribution_fault, exact_floats, k_step_oracle, surface_digest

EPS = 1e-6
SLACK = 1e-9


def test_public_entry_points_match_the_golden_digest():
    # vi, bvi, svi, topo(svi), topo(bvi) and exact_value on 676 games, each
    # result's repr with wall_ms zeroed: recorded before the general paths
    # took over the special cases of fuzz, graph, svi, baselines, model,
    # presets and oracle, and the same on Python 3.10 to 3.13; re-recorded
    # when bvi's sweeps became layered Gauss-Seidel, which moved the bvi and
    # topo(bvi) results only
    assert surface_digest() == "b4a58edde1118b65d9493f96b22e34ee7fd811460c6631b3fe7e73d03d81d5d5"


@st.composite
def games(draw, max_states=7, max_actions=3):
    params = GenParams(
        n_states=draw(st.integers(2, max_states)),
        max_actions_per_state=draw(st.integers(1, max_actions)),
        max_branching=draw(st.integers(1, 3)),
        target_fraction=draw(st.sampled_from([0.1, 0.25, 0.5])),
        min_player_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        ec_bias=draw(st.sampled_from([0.0, 0.5, 1.0])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    return generate_random(params)


@settings(deadline=None, max_examples=60)
@given(games())
def test_serialize_parse_round_trip(g):
    # neither generate_random nor parse_model calls validate: their output must pass it
    g.validate()
    back = parse_model(serialize_model(g))
    back.validate()
    assert back == g


@st.composite
def distributions(draw):
    """Probabilities summing to 1 exactly, to within about 1e-8 .. 1e-12 of 1, or to anything.

    Only the exact ones pass `validate`; it refuses the near ones too.
    """
    weights = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5))
    kind = draw(st.sampled_from(["exact", "near", "wrong"]))
    if kind == "wrong":
        return [Fraction(w, draw(st.integers(1, 90))) for w in weights]
    probs = [Fraction(w, sum(weights)) for w in weights]
    if kind == "near":
        delta = Fraction(draw(st.integers(-9, 9)), 10 ** draw(st.integers(8, 12)))
        probs = [p * (1 + delta) for p in probs]
    return probs


@settings(deadline=None, max_examples=300)
@given(distributions())
def test_integer_checks_agree_with_fraction_sums(probs):
    transitions = tuple(enumerate(probs))
    d, row = scale_to_integers(transitions)
    assert [(t, Fraction(k, d)) for t, k in row] == list(transitions)
    game = StochasticGame(len(probs), (MAX,) * len(probs),
                          ((Action("a", transitions),),) + ((),) * (len(probs) - 1), frozenset())
    want = distribution_fault(probs)
    if want is None:
        game.validate()
    elif want == "range":
        with pytest.raises(ValidationError, match=r"not in \(0, 1\]"):
            game.validate()
    else:
        with pytest.raises(ProbabilitySum) as exc:
            game.validate()
        assert exc.value.total == want and type(exc.value.total) is Fraction


@st.composite
def parseable_distributions(draw):
    """Probabilities summing to 1 exactly or to within PROB_SUM_TOL of it, each in (0, 1]."""
    weights = draw(st.lists(st.integers(1, 60), min_size=1, max_size=5))
    scale = 1 + Fraction(draw(st.integers(-9, 9)), 10 ** draw(st.integers(10, 12)))
    probs = [Fraction(w, sum(weights)) * scale for w in weights]
    assume(max(probs) <= 1)
    return probs


@settings(deadline=None, max_examples=200)
@given(parseable_distributions())
def test_parsed_distributions_are_exact(probs):
    text = f"ssg 1\nstates {len(probs)}\naction 0 a\n" + "".join(
        f"  {t} {p.numerator}/{p.denominator}\n" for t, p in enumerate(probs))
    game = parse_model(text)
    game.validate()
    total = sum(probs)
    assert game.actions[0][0].transitions == tuple((t, p / total) for t, p in enumerate(probs))


@settings(deadline=None, max_examples=60)
@given(games())
def test_normalize_idempotent(g):
    ng = normalize(g)
    assert normalize(ng) is ng


@settings(deadline=None, max_examples=30)
@given(games(max_states=6))
def test_solver_brackets_exact_values(g):
    want = exact_floats(g)
    res = solve_svi(g, EPS)
    assert res.converged
    for s, v in enumerate(want):
        assert res.lower[s] <= v + SLACK
        assert res.upper[s] >= v - SLACK
        assert abs(res.value[s] - v) <= EPS + SLACK


@settings(deadline=None, max_examples=30)
@given(games(max_states=6))
def test_iterates_stay_sandwiched(g):
    want = exact_floats(g)
    res = solve_svi(g, EPS, record_vectors=True)
    for lo, up in res.vectors:
        for s, v in enumerate(want):
            assert -1e-12 <= lo[s] <= v + SLACK
            assert v - SLACK <= up[s] <= 1.0 + 1e-12


@settings(deadline=None, max_examples=40)
@given(games())
def test_global_bounds_monotone(g):
    res = solve_svi(g, EPS)
    prev_l, prev_u = 0.0, 1.0
    for t in res.trace:
        assert t.l >= prev_l - 1e-12
        assert t.u <= prev_u + 1e-12
        assert t.l <= t.u + SLACK
        prev_l, prev_u = t.l, t.u


@settings(deadline=None, max_examples=30)
@given(games(max_states=6))
def test_deflate_never_cuts_below_exact(g):
    part = partition_states(g)
    want = exact_floats(g)
    U = [0.0 if s in part.sinks else 1.0 for s in range(g.n_states)]
    cut = deflate(g, part, U)
    for s, v in enumerate(want):
        assert cut[s] >= v - SLACK


@settings(deadline=None, max_examples=30)
@given(games(max_states=6))
def test_trap_members_have_value_zero(g):
    # the partition's sinks include the traps: none is left unknown, each has value 0
    part = partition_states(g)
    want = exact_floats(g)
    assert trap_states(g, part.unknown) == set()
    for s in part.sinks:
        assert want[s] == 0.0


@settings(deadline=None, max_examples=40)
@given(games(max_actions=1), st.integers(0, 6))
def test_k_step_matches_matrix_power(g, k):
    part = partition_states(g)
    reach, stay = k_step_oracle(g, part, k)

    n = g.n_states
    P = np.eye(n)
    for s in range(n):
        if s in part.unknown:
            P[s] = 0.0
            for t, p in g.actions[s][0].transitions:
                P[s, t] = float(p)
    Pk = np.linalg.matrix_power(P, k)
    f = np.array([1.0 if s in part.targets else 0.0 for s in range(n)])
    q = np.array([1.0 if s in part.unknown else 0.0 for s in range(n)])
    assert np.allclose([float(x) for x in reach], Pk @ f, atol=1e-12, rtol=0.0)
    assert np.allclose([float(x) for x in stay], Pk @ q, atol=1e-12, rtol=0.0)


@settings(deadline=None, max_examples=25)
@given(games(max_states=6))
def test_bvi_agrees_with_svi(g):
    a = solve_svi(g, EPS)
    b = solve_bvi(g, EPS)
    assert a.converged and b.converged
    for s in range(g.n_states):
        assert abs(a.value[s] - b.value[s]) <= 2 * EPS


def test_ec_bias_produces_end_components():
    g = generate_random(GenParams(
        n_states=6, max_actions_per_state=2, max_branching=2,
        target_fraction=0.2, min_player_fraction=0.5, ec_bias=1.0, seed=4,
    ))
    reaching = g.can_reach - g.targets
    assert reaching == {3, 4}
    mecs = mec_decompose(g, reaching)
    assert [sorted(m) for m in mecs] == [[4]]
    # state 4 is a Minimizer self-loop, a trap: the partition counts it among the sinks
    part = partition_states(g)
    assert part.unknown == {3} and 4 in part.sinks
