"""Exact oracle: strategy iteration against the enumeration, chain values, k-step vectors."""

import dataclasses
import hashlib
import operator
import random
from fractions import Fraction

import pytest

import ssgsolve.oracle as oracle
from ssgsolve.baselines import solve_bvi
from ssgsolve.model import (
    MAX,
    Action,
    GenParams,
    ProbabilitySum,
    StochasticGame,
    generate_random,
    normalize,
    parse_model,
    partition_states,
)
from ssgsolve.oracle import (
    TooLarge,
    chain_reachability,
    exact_value,
    k_step_oracle,
)
from ssgsolve.presets import (
    ALL_PRESETS,
    asymmetric_ring,
    exit_seesaw,
    loop_with_bypass,
    minimizer_trap,
    nested_rings,
    one_way_out,
    serial_loops,
    shifting_preference,
    slow_loop,
    two_route_choice,
)

from ssgsolve.svi import solve_svi
from ssgsolve.topo import solve_topological

from _util import census, certificate_faults, fuzz_stream_params

F = Fraction

# states 2 (a sink) and 3 (the target) have no action until normalize()
ACTIONLESS = """\
ssg 1
states 4
target 3
action 0 a
  1 1/2
  3 1/2
action 1 b
  0 1
"""


def test_serial_loops_refuses_rows_that_sum_past_one():
    # each row would sum to 101/100, as slow_loop refuses too
    for build in (slow_loop, serial_loops):
        with pytest.raises(ValueError, match=r"need p \+ r <= 1"):
            build(p="0.99", r="0.02")


def test_a_row_summing_past_one_is_refused_and_its_decimal_text_parses_exact():
    # 1 - 2e-10 on the loop and 3e-10 to the target: a sum of 1 + 1e-10, on
    # which the chain solve would give state 0 the value 3/2
    loop, exit_ = 1 - F(2, 10**10), F(3, 10**10)
    g = StochasticGame(2, (MAX, MAX), ((Action("a", ((0, loop), (1, exit_))),),
                                       (Action("loop", ((1, F(1)),)),)), frozenset({1}))
    with pytest.raises(ProbabilitySum) as exc:
        g.validate()
    assert exc.value.total == 1 + F(1, 10**10)
    text = "ssg 1\nstates 2\ntarget 1\naction 0 a\n  0 0.9999999998\n  1 0.0000000003\n"
    g = normalize(parse_model(text))
    g.validate()
    assert sum(p for _, p in g.actions[0][0].transitions) == 1
    assert exact_value(g).values == (F(1), F(1))
    for res in (solve_svi(g), solve_bvi(g), solve_topological(g)):
        assert res.converged
        assert res.lower[0] <= 1 <= res.upper[0]


def test_exact_values_on_presets():
    cases = {
        slow_loop: [F(1, 2), F(1), F(0)],
        two_route_choice: [F(1, 2), F(1), F(0)],
        exit_seesaw: [F(1, 2), F(1, 2), F(1), F(0)],
        one_way_out: [F(1, 2), F(1, 2), F(1), F(0)],
        asymmetric_ring: [F(2, 5), F(2, 5), F(3, 5), F(1), F(0)],
        loop_with_bypass: [F(1, 2), F(1, 2), F(1), F(1), F(0)],
        minimizer_trap: [F(0), F(0), F(1), F(0)],
        nested_rings: [F(9, 10)] * 4 + [F(1), F(0)],
        shifting_preference: [F(50, 99), F(50, 99), F(21, 40), F(1, 20), F(1, 30), F(1), F(0)],
    }
    for build, want in cases.items():
        got = exact_value(build())
        assert list(got.values) == want, build.__name__


# minimizer_trap with state 1's exit to the target listed first
TRAP_EXIT_FIRST = """\
ssg 1
states 4
minplayer 0 1
target 2
action 0 a
  1 1
action 1 out
  2 1
action 1 a
  0 1
"""


def test_strategy_sites_do_not_come_from_the_partition():
    # The partition counts the trap {0, 1} among the sinks. The oracle must
    # still let the Minimizer choose at state 1: fixed to its first action,
    # state 1 would leave the trap and get value 1.
    g = normalize(parse_model(TRAP_EXIT_FIRST))
    assert {0, 1} <= partition_states(g).sinks
    res = exact_value(g)
    assert res.values == (F(0), F(0), F(1), F(0))
    assert res.min_strategy == {1: "a"}
    assert res.pairs_evaluated == 1   # outside the attractor {2}, state 1 escapes at once
    assert exact_value(g, order="minmax").pairs_evaluated == 2


def _fuzz_stream(count):
    """The first `count` games of the stream `run_fuzz(count, 0, max_states=12)` draws, normalized."""
    return (normalize(generate_random(p)) for p in fuzz_stream_params(count))


def test_exact_results_match_the_golden_digest():
    # values, both witnesses and pairs_evaluated of 240 games, frozen by a
    # sha256 over the repr of each ExactResult: the fuzz stream's first 120
    # games and 120 census games
    games = [*_fuzz_stream(120), *census((8, 12), range(20))]
    reprs = [repr(exact_value(g)) for g in games]
    assert hashlib.sha256(repr(reprs).encode()).hexdigest() == (
        "c361d1132dfba8fc4223d2879165bbbd802845e5d07636ad6e31f8d2a2be57b6")


def test_exact_values_satisfy_bellman_equations():
    for build in ALL_PRESETS.values():
        g = build()
        part = partition_states(g)
        v = exact_value(g).values
        for s in range(g.n_states):
            if s in part.targets:
                assert v[s] == 1
            elif s in part.unknown:
                worths = [
                    sum(p * v[t] for t, p in a.transitions) for a in g.actions[s]
                ]
                opt = max(worths) if g.owner[s] == "max" else min(worths)
                assert v[s] == opt, (build.__name__, s)
            else:
                assert v[s] == 0


def _restricted(g, strategy):
    """The game with every state named in `strategy` left only its chosen action."""
    acts = tuple((g.action(s, strategy[s]),) if s in strategy else g.actions[s]
                 for s in range(g.n_states))
    return dataclasses.replace(g, actions=acts)


def _census_slice():
    for n in (6, 8, 10):
        for seed in range(10):
            for tf, eb in ((0.1, 0.0), (0.1, 0.5), (0.05, 1.0)):
                yield (n, seed, eb), normalize(generate_random(GenParams(
                    n_states=n, seed=seed, max_actions_per_state=3, max_branching=3,
                    target_fraction=tf, ec_bias=eb)))


def test_exact_value_orders_agree():
    # strategy iteration equals the enumeration, and each of its witnesses
    # alone holds the values against every reply
    cases = [(name, build()) for name, build in ALL_PRESETS.items()]
    cases += list(_census_slice())
    fractional = 0
    for case, g in cases:
        res = exact_value(g)
        assert res.values == exact_value(g, order="minmax").values, case
        assert exact_value(_restricted(g, res.max_strategy), order="minmax").values \
            == res.values, case
        assert exact_value(_restricted(g, res.min_strategy), order="minmax").values \
            == res.values, case
        fractional += any(0 < v < 1 for v in res.values)
    assert fractional >= 40


def test_exact_value_orders_agree_on_random_games():
    for seed in range(15):
        for actions, n in ((2, 5), (3, 6)):
            g = generate_random(GenParams(n_states=n, max_actions_per_state=actions,
                                          max_branching=actions, seed=seed))
            assert exact_value(g).values == exact_value(g, order="minmax").values, (actions, seed)


def _witness_chain(g, res):
    chosen = {**res.max_strategy, **res.min_strategy}
    acts = tuple(
        (g.action(s, chosen[s]),) if s in chosen else g.actions[s][:1]
        for s in range(g.n_states)
    )
    return StochasticGame(g.n_states, g.owner, acts, g.targets)


def test_witness_strategies_reproduce_the_values():
    # fixing both witnesses leaves a chain whose hitting values must match
    for build in ALL_PRESETS.values():
        g = build()
        res = exact_value(g)
        assert chain_reachability(_witness_chain(g, res)) == list(res.values), build.__name__
    for ec_bias in (0.5, 1.0):
        for seed in range(10):
            g = generate_random(GenParams(n_states=9, max_actions_per_state=3, max_branching=3,
                                          target_fraction=0.2, ec_bias=ec_bias, seed=seed))
            res = exact_value(g)
            assert chain_reachability(_witness_chain(g, res)) == list(res.values), (ec_bias, seed)


def test_witness_strategies_only_name_real_actions():
    g = shifting_preference()
    res = exact_value(g)
    for s, label in {**res.max_strategy, **res.min_strategy}.items():
        assert label in g.action_labels(s)


def test_pair_counts():
    # the enumeration solves every pair's chain, strategy iteration a few
    assert exact_value(one_way_out(), order="minmax").pairs_evaluated == 4
    assert exact_value(nested_rings(), order="minmax").pairs_evaluated == 24
    assert exact_value(one_way_out()).pairs_evaluated == 1
    assert exact_value(nested_rings()).pairs_evaluated == 3


def test_certificate_past_twelve_states():
    games = 0
    for n in (16, 20, 25, 30):
        for seed in range(6):
            for eb in (0.0, 0.5):
                g = normalize(generate_random(GenParams(
                    n_states=n, seed=seed, max_actions_per_state=3, max_branching=3,
                    target_fraction=0.1, ec_bias=eb)))
                res = exact_value(g, max_states=n)
                assert certificate_faults(g, res.values, res.max_strategy) == [], (n, seed, eb)
                games += any(0 < v < 1 for v in res.values)
    assert games >= 20


def test_certificate_rejects_a_moved_value():
    g = nested_rings()
    res = exact_value(g)
    assert certificate_faults(g, res.values, res.max_strategy) == []
    for step in (F(1, 1000), F(-1, 1000)):
        moved = list(res.values)
        moved[0] += step
        assert certificate_faults(g, moved, res.max_strategy), step


def _reference_reach(rows, targets):
    """Reachability values by Fraction Gauss-Jordan over the states that can reach a target."""
    n = len(rows)
    can = set(targets)
    grew = True
    while grew:
        grew = False
        for s in range(n):
            if s not in can and any(t in can for t, _ in rows[s]):
                can.add(s)
                grew = True
    free = [s for s in range(n) if s in can and s not in targets]
    col = {s: i for i, s in enumerate(free)}
    m = len(free)
    mat = [[F(0)] * (m + 1) for _ in range(m)]
    for i, s in enumerate(free):
        mat[i][i] += 1
        for t, p in rows[s]:
            if t in targets:
                mat[i][m] += p
            elif t in col:
                mat[i][col[t]] -= p
    for c in range(m):
        piv = next(r for r in range(c, m) if mat[r][c] != 0)
        mat[c], mat[piv] = mat[piv], mat[c]
        mat[c] = [x / mat[c][c] for x in mat[c]]
        for r in range(m):
            if r != c and mat[r][c] != 0:
                mat[r] = [a - mat[r][c] * b for a, b in zip(mat[r], mat[c])]
    values = [F(1) if s in targets else F(0) for s in range(n)]
    for i, s in enumerate(free):
        values[s] = mat[i][m]
    return values, can


def _random_chain(rng, sticky=0.0):
    """A one-action chain whose rows mix denominators 7, 11 and 13.

    With probability `sticky` a row is instead a self-loop of 1 - 1e-10
    plus 1e-10 towards another state: an exact distribution that leaves
    1e-10 on the diagonal of the chain's system, as near to singular as
    such a row gets.
    """
    n = rng.randint(2 if sticky else 1, 9)
    targets = frozenset(rng.sample(range(n), rng.randint(1 if sticky else 0, min(2, n))))
    acts = []
    for s in range(n):
        if rng.random() < sticky:
            other = rng.choice([t for t in range(n) if t != s])
            acts.append((Action("a", ((s, 1 - F(1, 10**10)), (other, F(1, 10**10)))),))
            continue
        succs = rng.sample(range(n), rng.randint(1, min(3, n)))
        k = len(succs)
        probs = [F(rng.randint(1, q - 1), q * k) for q in rng.sample((7, 11, 13), k - 1)]
        probs.append(1 - sum(probs))
        acts.append((Action("a", tuple(zip(succs, probs))),))
    return StochasticGame(n, (MAX,) * n, tuple(acts), targets)


def test_chain_solve_is_an_exact_fixed_point():
    seen = {"no path": 0, "self-loop": 0, "target in a cycle": 0, "mixed primes": 0}
    for seed in range(200):
        g = _random_chain(random.Random(seed))
        rows = [acts[0].transitions for acts in g.actions]
        got = chain_reachability(g)
        want, can = _reference_reach(rows, g.targets)
        assert got == want, seed
        for s in range(g.n_states):
            if s in g.targets:
                assert got[s] == 1
            elif s not in can:
                assert got[s] == 0
                seen["no path"] += 1
            else:
                assert got[s] == sum(p * got[t] for t, p in rows[s]), (seed, s)
            seen["self-loop"] += any(t == s and p < 1 for t, p in rows[s])
            seen["target in a cycle"] += s in g.targets and any(t in can for t, _ in rows[s])
            seen["mixed primes"] += len({p.denominator for _, p in rows[s]}) == 3
    assert min(seen.values()) >= 20, seen


def test_chain_solve_needs_no_pivot_on_near_singular_rows():
    # on exact rows every Bareiss pivot is a positive leading principal minor,
    # however close a sticky loop brings it to zero
    sticky_states = 0
    for seed in range(150):
        g = _random_chain(random.Random(seed), sticky=0.4)
        g.validate()
        rows = [acts[0].transitions for acts in g.actions]
        want, _ = _reference_reach(rows, g.targets)
        nums, det = oracle._chain_reach(oracle._chain_step(oracle._int_rows(g), {}), set(g.targets))
        assert det > 0, seed
        assert [F(v, det) for v in nums] == want, seed
        assert chain_reachability(g) == want, seed
        sticky_states += sum(len(r) == 2 and r[0][1] == 1 - F(1, 10**10) for r in rows)
    assert sticky_states >= 150


def _improve_by_fractions(rows, values, sites, choice, better):
    """The switches of `oracle._improve`, with every worth an exact Fraction."""
    switched = False
    for s in sites:
        best, best_worth = None, values[s]
        for a, (d, row) in enumerate(rows[s]):
            worth = sum(num * values[t] for t, num in row) / d
            if better(worth, best_worth):
                best, best_worth = a, worth
        if best is not None:
            choice[s] = best
            switched = True
    return switched


def test_integer_improve_switches_as_the_fraction_comparison():
    ties = switches = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        det = rng.randint(1, 40)
        nums = [rng.randint(0, det) for _ in range(n)]
        rows = []
        for s in range(n):
            acts = []
            for _ in range(rng.randint(1, 4)):
                if acts and rng.random() < 0.3:
                    # the same worth over a larger denominator: an exact tie
                    k = rng.randint(2, 5)
                    d, row = rng.choice(acts)
                    acts.append((d * k, tuple((t, num * k) for t, num in row)))
                elif rng.random() < 0.2:
                    # a certain step to a state of equal value ties the site's own
                    same = [t for t in range(n) if nums[t] == nums[s]]
                    acts.append((1, ((rng.choice(same), 1),)))
                else:
                    d = rng.randint(1, 12)
                    cuts = sorted(rng.randint(0, d) for _ in range(rng.randint(0, 2)))
                    parts = [b - a for a, b in zip([0, *cuts], [*cuts, d])]
                    acts.append((d, tuple((rng.randrange(n), p) for p in parts if p)))
            rows.append(acts)
        values = [F(v, det) for v in nums]
        sites = sorted(rng.sample(range(n), rng.randint(1, n)))
        start = {s: rng.randrange(len(rows[s])) for s in sites if rng.random() < 0.5}
        for better in (operator.lt, operator.gt):
            want, got = dict(start), dict(start)
            switched = _improve_by_fractions(rows, values, sites, want, better)
            assert oracle._improve(rows, nums, sites, got, better) == switched, (seed, better)
            assert got == want, (seed, better)
            switches += switched
            ties += sum(sum(num * values[t] for t, num in row) / d == values[s]
                        for s in sites for d, row in rows[s])
    assert ties >= 1000 and switches >= 300, (ties, switches)


def test_too_large_runs_no_chain_solve(monkeypatch):
    calls = {"rows": 0, "solve": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(oracle, "_int_rows", counting("rows", oracle._int_rows))
    monkeypatch.setattr(oracle, "_chain_reach", counting("solve", oracle._chain_reach))
    with pytest.raises(TooLarge):
        exact_value(generate_random(GenParams(n_states=13, seed=0)))
    with pytest.raises(TooLarge):
        exact_value(two_route_choice(), max_pairs=1, order="minmax")
    assert calls == {"rows": 0, "solve": 0}
    exact_value(two_route_choice())   # the Minimizer's first action, then its switch
    assert calls == {"rows": 1, "solve": 2}


def test_chain_reachability_loop():
    assert chain_reachability(slow_loop()) == [F(1, 2), F(1), F(0)]


def test_chain_reachability_rejects_choice():
    with pytest.raises(ValueError, match="state 0 has 2"):
        chain_reachability(two_route_choice())
    with pytest.raises(ValueError, match="state 2 has 0, state 3 has 0"):
        chain_reachability(parse_model(ACTIONLESS))


def test_exact_value_rejects_an_unnormalized_game():
    g = parse_model(ACTIONLESS)
    with pytest.raises(ValueError, match="game must be normalized first"):
        exact_value(g)
    # the size refusal still comes first
    with pytest.raises(TooLarge):
        exact_value(g, max_states=3)
    assert exact_value(normalize(g)).values == (1, 1, 0, 1)


def test_too_large_state_cap():
    g = generate_random(GenParams(n_states=13, seed=0))
    with pytest.raises(TooLarge) as exc:
        exact_value(g)
    assert exc.value.states == 13


def test_too_large_pair_cap():
    with pytest.raises(TooLarge):
        exact_value(two_route_choice(), max_pairs=1, order="minmax")


def test_pair_cap_binds_only_the_enumeration():
    g = normalize(generate_random(GenParams(12, 10, 2, 0.1, 0.5, 0.3, seed=0)))
    with pytest.raises(TooLarge) as exc:
        exact_value(g, order="minmax")
    assert (exc.value.states, exc.value.pairs) == (12, 36_288_000)
    # strategy iteration needs a few chain solves, however many pairs there are
    res = exact_value(g)
    assert res.pairs_evaluated <= 5
    assert any(0 < v < 1 for v in res.values)
    assert certificate_faults(g, res.values, res.max_strategy) == []


def test_k_step_seeds():
    g = slow_loop()
    part = partition_states(g)
    reach, stay = k_step_oracle(g, part, 0)
    assert reach == [F(0), F(1), F(0)]
    assert stay == [F(1), F(0), F(0)]


def test_k_step_two_steps_exact():
    g = slow_loop()
    part = partition_states(g)
    reach, stay = k_step_oracle(g, part, 2)
    assert reach[0] == F(99, 5000)
    assert stay[0] == F(49, 50) ** 2


def test_k_step_mass_and_monotonicity():
    g = serial_loops()
    part = partition_states(g)
    prev_reach, prev_stay = k_step_oracle(g, part, 0)
    for k in range(1, 8):
        reach, stay = k_step_oracle(g, part, k)
        for s in range(g.n_states):
            assert reach[s] + stay[s] <= 1
            assert reach[s] >= prev_reach[s]
            assert stay[s] <= prev_stay[s]
        prev_reach, prev_stay = reach, stay

