"""Randomized cross-checking loop: checks, shrinking, reporting."""

import dataclasses
from functools import partial

import pytest

import ssgsolve.fuzz as fuzz
import ssgsolve.svi as svi
from ssgsolve.fuzz import _sample_indices, check_model, run_fuzz, shrink, stream_params
from ssgsolve.model import GenParams, generate_random, parse_model, serialize_model
from ssgsolve.presets import serial_loops, slow_loop, two_route_choice

from _util import exact_floats, no_decision_value

# two_route_choice plus two padding states nothing points at
PADDED_ROUTE = """\
ssg 1
states 5
minplayer 0
target 1
action 0 alpha
0 2/5
1 2/5
2 1/5
action 0 beta
1 1/2
2 1/2
action 1 loop
1 1
action 2 loop
2 1
action 3 a
4 1
action 4 loop
4 1
"""

# two_route_choice's Minimizer state beside a slow loop of value 1/2
ROUTE_BESIDE_LOOP = """\
ssg 1
states 4
minplayer 0
target 1
action 0 alpha
0 2/5
1 2/5
2 1/5
action 0 beta
1 1/2
2 1/2
action 1 loop
1 1
action 2 loop
2 1
action 3 go
3 49/50
1 1/100
2 1/100
"""


def random_games(count, seed):
    """The CLI's default fuzz stream: `count` games of 2 to 8 states drawn from `seed`."""
    return map(generate_random, stream_params(count, seed, 8))


def test_clean_stream_has_no_failures():
    rep = run_fuzz(random_games(30, 7))
    assert rep.checked == 30
    assert rep.skipped == 0
    assert rep.ok


def test_sample_indices_spread_over_the_run():
    assert _sample_indices(5, 1) == [0]
    assert _sample_indices(5, 2) == [0, 4]
    assert _sample_indices(9, 3) == [0, 4, 8]
    assert _sample_indices(3, 10) == [0, 1, 2]
    rep = run_fuzz(random_games(5, 7), sample_iters=1)
    assert rep.checked == 5
    assert rep.ok


def test_check_model_accepts_sound_solvers():
    g = slow_loop()
    want = exact_floats(g)
    for algo in ("svi", "bvi", "topo"):
        assert check_model(g, algo, 1e-6, want) is None


def test_check_model_flags_wrong_expectation():
    g = slow_loop()
    reason = check_model(g, "svi", 1e-6, [0.9, 1.0, 0.0])
    assert reason is not None
    assert "final upper" in reason


def test_check_model_catches_a_wrong_partition(monkeypatch):
    g = two_route_choice()  # state 0 has value 1/2, 1 is the target, 2 the sink
    want = exact_floats(g)
    assert check_model(g, "svi", 1e-6, want) is None
    honest = fuzz.partition_states

    def moving_0_to(kind):
        def partition(game):
            part = honest(game)
            part.unknown.discard(0)
            getattr(part, kind).add(0)
            return part
        return partition

    monkeypatch.setattr(fuzz, "partition_states", moving_0_to("targets"))
    assert check_model(g, "svi", 1e-6, want) == \
        "partition counts state 0 as a target, exact value 0.5"
    monkeypatch.setattr(fuzz, "partition_states", moving_0_to("sinks"))
    rep = run_fuzz([g], algorithms=("bvi",))
    assert [f.reason for f in rep.failures] == ["partition counts state 0 as a sink, exact value 0.5"]


def test_capped_solve_gets_its_bracket_checked(monkeypatch):
    # one sweep of the weakened solver lifts state 0's lower bound to 0.6,
    # above its value 1/2, and stops far short of closing the slow loop 3
    g = parse_model(ROUTE_BESIDE_LOOP)
    want = exact_floats(g)
    monkeypatch.setattr(svi, "decision_value", no_decision_value)
    monkeypatch.setitem(fuzz.SOLVERS, "svi", partial(fuzz.SOLVERS["svi"], max_iters=1))
    assert not fuzz.SOLVERS["svi"](g, 1e-6).converged
    reason = check_model(g, "svi", 1e-6, want)
    assert reason is not None and reason.startswith("final lower")
    assert reason.endswith("at state 0")
    # a sound capped solve is still only a stall
    monkeypatch.setitem(fuzz.SOLVERS, "bvi", partial(fuzz.SOLVERS["bvi"], max_iters=3))
    assert check_model(g, "bvi", 1e-6, want) == "did not converge"


def doctor(monkeypatch, algo, edit):
    """Make fuzz's solver `algo` return its honest result passed through edit."""
    honest = fuzz.SOLVERS[algo]
    monkeypatch.setitem(fuzz.SOLVERS, algo, lambda *args, **kwargs: edit(honest(*args, **kwargs)))


def test_check_model_reports_a_crash(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setitem(fuzz.SOLVERS, "bvi", crash)
    g = slow_loop()
    want = exact_floats(g)
    assert check_model(g, "bvi", 1e-6, want) == "exception: RuntimeError('boom')"
    assert check_model(g, "svi", 1e-6, want) is None


def test_check_model_flags_a_value_off_its_bracket_midpoint(monkeypatch):
    # the bracket still holds 1/2; only the reported value strays
    doctor(monkeypatch, "svi", lambda r: dataclasses.replace(r, value=[0.501, *r.value[1:]]))
    g = slow_loop()
    assert check_model(g, "svi", 1e-6, exact_floats(g)) == "value off by 1.000e-03 at state 0"


@pytest.mark.parametrize("side, bad, reason", [
    (0, 0.75, "iteration 2: lower 0.75 above exact 0.5 at state 0"),
    (1, 0.25, "iteration 2: upper 0.25 below exact 0.5 at state 0"),
])
def test_check_model_flags_a_wrong_intermediate_bracket(monkeypatch, side, bad, reason):
    def edit(r):
        good = (r.lower, r.upper)
        wrong = list(good)
        wrong[side] = [bad, *good[side][1:]]
        return dataclasses.replace(r, vectors=[good, tuple(wrong), good])

    doctor(monkeypatch, "bvi", edit)
    g = slow_loop()
    assert check_model(g, "bvi", 1e-6, exact_floats(g)) == reason


def test_check_model_flags_an_unknown_strategy_label(monkeypatch):
    doctor(monkeypatch, "svi", lambda r: dataclasses.replace(r, strategy={0: "nope"}))
    g = slow_loop()
    assert g.action_labels(0) == ("go",)
    assert check_model(g, "svi", 1e-6, exact_floats(g)) == \
        "strategy names unknown action 'nope' at state 0"


def test_weakened_solver_is_caught_and_shrunk(monkeypatch):
    # without decision values svi's bounds jump past the value of a state
    # that chooses; the two sticky loops have no choice, so only the third
    # game fails, and its counterexample carries its position in the list
    monkeypatch.setattr(svi, "decision_value", no_decision_value)
    g = parse_model(PADDED_ROUTE)
    rep = run_fuzz([slow_loop(), serial_loops(2), g], algorithms=("svi",))
    assert rep.checked == 3
    (ce,) = rep.failures
    assert ce.index == 2
    assert ce.algorithm == "svi"
    assert ce.reason.startswith("final lower")
    assert ce.model_text == serialize_model(g)
    small = parse_model(ce.shrunk_text)
    # the padding states fall away, the three-state core cannot shrink
    assert small.n_states == 3
    assert check_model(small, "svi", 1e-6, exact_floats(small))


def test_weakened_solver_clean_without_override():
    rep = run_fuzz([two_route_choice()], algorithms=("svi",))
    assert rep.ok


def test_oversized_model_counts_as_skip():
    big = generate_random(GenParams(n_states=13, seed=1))
    rep = run_fuzz([big])
    assert rep.checked == 0
    assert rep.skipped == 1
    assert rep.ok


@pytest.mark.parametrize("algorithms", [("vi",), ("svi", "bogus"), ()])
def test_unknown_algorithm_is_refused_before_any_game(algorithms):
    def untouched():
        raise AssertionError("a game was drawn")
        yield

    with pytest.raises(ValueError, match=r"^(unknown algorithm '(vi|bogus)'|no algorithm to check);"
                                         r" known: svi, bvi, topo$"):
        run_fuzz(untouched(), algorithms=algorithms)


def test_shrink_respects_failure_predicate():
    g = parse_model(PADDED_ROUTE)
    # predicate: model still contains the two-action choice state
    small = shrink(g, lambda cand: any(len(a) > 1 for a in cand.actions))
    assert any(len(a) > 1 for a in small.actions)
    assert small.n_states <= g.n_states


def test_repeat_runs_agree():
    a = run_fuzz(random_games(20, 5))
    b = run_fuzz(random_games(20, 5))
    assert (a.checked, a.skipped, len(a.failures)) == (b.checked, b.skipped, len(b.failures))
