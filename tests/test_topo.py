"""Per-component driver: plan construction and frontier propagation."""

import pytest

from ssgsolve.model import normalize, parse_model
from ssgsolve.svi import solve_svi
from ssgsolve.topo import INNER_SOLVERS, build_plan, solve_topological
from ssgsolve.presets import (
    ALL_PRESETS,
    exit_seesaw,
    loop_with_bypass,
    nested_rings,
    serial_loops,
    slow_loop,
)

from _util import exact_floats, max_err


def test_plan_orders_components_successors_first():
    plan = build_plan(loop_with_bypass(), 1e-6)
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


def test_slow_component_resolves_locally_in_one_iteration():
    g = loop_with_bypass()
    plan = build_plan(g, 1e-6)
    res = solve_topological(g, plan=plan)
    assert res.converged
    assert res.algorithm == "topo-svi"
    by_states = {tuple(e.states): e for e in plan.entries}
    slow = by_states[(1,)]
    assert slow.kind == "unknown"
    assert slow.iterations == 1
    assert slow.frontier == {3: (1.0, 1.0), 4: (0.0, 0.0)}
    assert slow.bounds[1] - slow.bounds[0] <= 1e-6
    assert res.strategy == {0: "a", 1: "a", 2: "c"}


# State 0 chooses between two components that do not see each other: the
# loop {1, 2} (values 2/3 and 1/3, bracketed only to eps) and the loop
# {3}, whose one successor outside itself is the target 4.
TIGHT_NEXT_TO_LOOSE = """\
ssg 1
states 6
target 4
action 0 a
  1 1
action 0 b
  3 1
action 1 a
  2 1/2
  4 1/2
action 2 a
  1 1/2
  5 1/2
action 3 a
  3 1/2
  4 1/2
"""


def test_second_run_only_for_a_loose_frontier(monkeypatch):
    g = normalize(parse_model(TIGHT_NEXT_TO_LOOSE))
    solved = []
    inner = INNER_SOLVERS["svi"]

    def counted(game, eps, **kwargs):
        solved.append(tuple(s for s in range(game.n_states) if s not in kwargs["frozen"]))
        return inner(game, eps, **kwargs)

    monkeypatch.setitem(INNER_SOLVERS, "svi", counted)
    plan = build_plan(g, 1e-6)
    res = solve_topological(g, plan=plan)
    assert res.converged
    # the loose loop is decided before the tight one is solved
    assert [e.states for e in plan.unknown_entries()] == [(1, 2), (3,), (0,)]
    loose, tight, source = plan.unknown_entries()
    assert res.lower[1] < res.upper[1]
    assert tight.frontier == {4: (1.0, 1.0)}
    assert source.frontier[1] == (res.lower[1], res.upper[1])
    assert solved == [(1, 2), (3,), (0,), (0,)]
    assert max_err(res.value, exact_floats(g)) <= 2e-6


def test_decided_components_cost_nothing():
    plan = build_plan(loop_with_bypass(), 1e-6)
    solve_topological(loop_with_bypass(), plan=plan)
    for e in plan.entries:
        if e.kind == "decided":
            assert e.iterations == 0 and e.converged


def test_serial_chain_needs_one_update_per_component():
    g = serial_loops()
    topo = solve_topological(g)
    plain = solve_svi(g)
    assert topo.converged and plain.converged
    assert topo.iterations == 3
    assert topo.total_updates == 3
    assert plain.iterations == 785
    assert plain.total_updates == 2355
    assert topo.total_updates <= plain.total_updates
    assert max_err(topo.value, plain.value) <= 2e-6


def test_agreement_with_plain_solver_on_presets():
    for build in ALL_PRESETS.values():
        g = build()
        topo = solve_topological(g)
        plain = solve_svi(g)
        assert topo.converged
        assert max_err(topo.value, plain.value) <= 2e-6, build.__name__


def test_single_component_degenerates_to_plain_run():
    topo = solve_topological(exit_seesaw())
    plain = solve_svi(exit_seesaw())
    assert topo.iterations == plain.iterations == 6
    assert topo.value == plain.value
    assert topo.strategy == plain.strategy


def test_traces_carry_component_index():
    g = loop_with_bypass()
    plan = build_plan(g, 1e-6)
    res = solve_topological(g, plan=plan)
    unknown_idx = {e.index for e in plan.unknown_entries()}
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
    res = solve_topological(slow_loop(), max_iters=0)
    assert not res.converged


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


@pytest.mark.parametrize("eps", [0.0, -1.0])
def test_non_positive_eps_rejected(eps):
    # a lone target needs no inner solve, and is rejected all the same
    target_only = normalize(parse_model("ssg 1\nstates 1\ntarget 0\n"))
    with pytest.raises(ValueError, match="eps must be positive"):
        solve_topological(target_only, eps)
