"""Randomized cross-checking loop: checks, shrinking, reporting."""

import dataclasses
from pathlib import Path

import pytest

import ssgsolve.fuzz as fuzz
from ssgsolve.fuzz import _sample_indices, check_model, run_fuzz, shrink
from ssgsolve.model import GenParams, generate_random, parse_model
from ssgsolve.presets import slow_loop, two_route_choice
from ssgsolve.svi import solve_svi

from _util import exact_floats

MUTANT = {"svi": {"use_decision_values": False}}

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


def test_clean_stream_has_no_failures():
    rep = run_fuzz(30, 7)
    assert rep.checked == 30
    assert rep.skipped == 0
    assert rep.ok
    assert rep.written == []


def test_sample_indices_spread_over_the_run():
    assert _sample_indices(5, 1) == [0]
    assert _sample_indices(5, 2) == [0, 4]
    assert _sample_indices(9, 3) == [0, 4, 8]
    assert _sample_indices(3, 10) == [0, 1, 2]
    rep = run_fuzz(5, 7, sample_iters=1)
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
    rep = run_fuzz(0, 0, extra_models=(g,), algorithms=("bvi",))
    assert [f.reason for f in rep.failures] == ["partition counts state 0 as a sink, exact value 0.5"]


def test_capped_solve_gets_its_bracket_checked():
    # one sweep of the weakened solver lifts state 0's lower bound to 0.6,
    # above its value 1/2, and stops far short of closing the slow loop 3
    g = parse_model(ROUTE_BESIDE_LOOP)
    want = exact_floats(g)
    capped = {"svi": {**MUTANT["svi"], "max_iters": 1}}
    assert not solve_svi(g, **capped["svi"]).converged
    reason = check_model(g, "svi", 1e-6, want, overrides=capped)
    assert reason is not None and reason.startswith("final lower")
    assert reason.endswith("at state 0")
    # a sound capped solve is still only a stall
    assert check_model(g, "bvi", 1e-6, want, overrides={"bvi": {"max_iters": 3}}) \
        == "did not converge"


def doctor(monkeypatch, name, edit):
    """Make fuzz's `name` return its honest result passed through edit."""
    honest = getattr(fuzz, name)
    monkeypatch.setattr(fuzz, name, lambda *args, **kwargs: edit(honest(*args, **kwargs)))


def test_check_model_reports_a_crash(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(fuzz, "solve_bvi", crash)
    g = slow_loop()
    want = exact_floats(g)
    assert check_model(g, "bvi", 1e-6, want) == "exception: RuntimeError('boom')"
    assert check_model(g, "svi", 1e-6, want) is None


def test_check_model_flags_a_value_off_its_bracket_midpoint(monkeypatch):
    # the bracket still holds 1/2; only the reported value strays
    doctor(monkeypatch, "solve_svi", lambda r: dataclasses.replace(r, value=[0.501, *r.value[1:]]))
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

    doctor(monkeypatch, "solve_bvi", edit)
    g = slow_loop()
    assert check_model(g, "bvi", 1e-6, exact_floats(g)) == reason


def test_check_model_flags_an_unknown_strategy_label(monkeypatch):
    doctor(monkeypatch, "solve_svi", lambda r: dataclasses.replace(r, strategy={0: "nope"}))
    g = slow_loop()
    assert g.action_labels(0) == ("go",)
    assert check_model(g, "svi", 1e-6, exact_floats(g)) == \
        "strategy names unknown action 'nope' at state 0"


def test_weakened_solver_is_caught_and_shrunk():
    g = parse_model(PADDED_ROUTE)
    rep = run_fuzz(0, 0, extra_models=(g,), algorithms=("svi",), overrides=MUTANT)
    assert rep.checked == 1
    (ce,) = rep.failures
    assert ce.index == -1
    assert ce.algorithm == "svi"
    assert ce.reason.startswith("final lower")
    small = parse_model(ce.shrunk_text)
    # the padding states fall away, the three-state core cannot shrink
    assert small.n_states == 3
    assert check_model(small, "svi", 1e-6, exact_floats(small), overrides=MUTANT)


def test_weakened_solver_clean_without_override():
    rep = run_fuzz(0, 0, extra_models=(two_route_choice(),), algorithms=("svi",))
    assert rep.ok


def test_oversized_model_counts_as_skip():
    big = generate_random(GenParams(n_states=13, seed=1))
    rep = run_fuzz(0, 0, extra_models=(big,))
    assert rep.checked == 0
    assert rep.skipped == 1
    assert rep.ok


def test_failures_written_to_disk(tmp_path):
    rep = run_fuzz(0, 0, extra_models=(two_route_choice(),), algorithms=("svi",),
                   overrides=MUTANT, out_dir=tmp_path)
    assert len(rep.written) == 2
    for p in rep.written:
        path = Path(p)
        assert path.parent == tmp_path
        assert "svi" in path.name
        parse_model(path.read_text())


def test_shrink_respects_failure_predicate():
    g = parse_model(PADDED_ROUTE)
    # predicate: model still contains the two-action choice state
    small = shrink(g, lambda cand: any(len(a) > 1 for a in cand.actions))
    assert any(len(a) > 1 for a in small.actions)
    assert small.n_states <= g.n_states


def test_repeat_runs_agree():
    a = run_fuzz(20, 5)
    b = run_fuzz(20, 5)
    assert (a.checked, a.skipped, len(a.failures)) == (b.checked, b.skipped, len(b.failures))
