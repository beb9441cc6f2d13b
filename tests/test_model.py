"""Model layer: text format, validation, normalization, partition, generator."""

import dataclasses
import hashlib
import re
from fractions import Fraction

import pytest

from ssgsolve.model import (
    MAX,
    MIN,
    Action,
    BadProbability,
    DuplicateActionLabel,
    GenParams,
    MalformedLine,
    MissingHeader,
    ParseError,
    ProbabilitySum,
    StatePartition,
    StochasticGame,
    UnknownState,
    ValidationError,
    generate_random,
    normalize,
    parse_model,
    partition_states,
    serialize_model,
)
from ssgsolve.presets import ALL_PRESETS, cycle_with_sink_exit, exit_seesaw, serial_loops, slow_loop

from _util import action, census_params, fuzz_stream_params

MINIMAL = """\
ssg 1
# a three state chain with a coin
states 3
minplayer 0
target 1

action 0 a
  1 1/3
  2 2/3
"""


def test_parse_minimal_model():
    g = parse_model(MINIMAL)
    assert g.n_states == 3
    assert g.owner == (MIN, MAX, MAX)
    assert g.targets == frozenset({1})
    (a,) = g.actions[0]
    assert a.label == "a"
    assert a.transitions == ((1, Fraction(1, 3)), (2, Fraction(2, 3)))
    # states 1 and 2 have no declared actions yet
    assert g.actions[1] == () and g.actions[2] == ()


def test_parse_decimal_probabilities_are_exact():
    g = parse_model("ssg 1\nstates 2\ntarget 1\naction 0 a\n  0 0.4\n  1 0.6\n")
    assert g.actions[0][0].transitions == ((0, Fraction(2, 5)), (1, Fraction(3, 5)))


def test_parse_comments_and_blank_lines_ignored():
    noisy = "ssg 1\n\n# hi\nstates 2\n# mid\ntarget 1\n\naction 0 a\n  1 1\n# tail\n"
    plain = "ssg 1\nstates 2\ntarget 1\naction 0 a\n  1 1\n"
    assert parse_model(noisy) == parse_model(plain)


def test_parse_missing_header():
    with pytest.raises(MissingHeader):
        parse_model("states 2\ntarget 1\n")


def test_parse_header_without_states_line():
    # the header is there, so the error names what is missing instead
    with pytest.raises(ParseError, match=r"missing the 'states N' line") as exc:
        parse_model("ssg 1\n# only a comment\n")
    assert not isinstance(exc.value, MissingHeader)


def test_parse_content_before_states_line():
    with pytest.raises(MalformedLine) as exc:
        parse_model("ssg 1\ntarget 1\n")
    assert exc.value.line_no == 2


def test_parse_unknown_state_reference():
    with pytest.raises(UnknownState) as exc:
        parse_model("ssg 1\nstates 2\ntarget 5\n")
    assert exc.value.state == 5
    with pytest.raises(UnknownState):
        parse_model("ssg 1\nstates 2\naction 7 a\n  0 1\n")
    with pytest.raises(UnknownState) as exc:
        parse_model("ssg 1\nstates 2\naction 0 a\n  2 1\n")
    assert (exc.value.line_no, exc.value.state) == (4, 2)


@pytest.mark.parametrize("text, line_no", [
    ("ssg 1\nstates 2\ntarget x\n", 3),
    ("ssg 1\nstates 2\naction x a\n  0 1\n", 3),
    ("ssg 1\nstates 2\naction 0 a\n  x 1\n", 4),
])
def test_parse_reads_every_state_id_alike(text, line_no):
    with pytest.raises(MalformedLine, match="'x' is not a state id") as exc:
        parse_model(text)
    assert exc.value.line_no == line_no


def test_parse_duplicate_action_label():
    text = "ssg 1\nstates 1\ntarget 0\naction 0 a\n  0 1\naction 0 a\n  0 1\n"
    with pytest.raises(DuplicateActionLabel) as exc:
        parse_model(text)
    assert (exc.value.state, exc.value.label) == (0, "a")


def test_parse_probability_sum_mismatch():
    text = "ssg 1\nstates 2\ntarget 1\naction 0 a\n  0 0.5\n  1 0.4\n"
    with pytest.raises(ProbabilitySum) as exc:
        parse_model(text)
    assert exc.value.state == 0
    assert exc.value.label == "a"
    assert exc.value.total == Fraction(9, 10)


def test_parse_divides_a_near_one_sum_out():
    text = "ssg 1\nstates 2\ntarget 1\naction 0 a\n  0 1\n  1 0.0000000001\n"
    (act,) = parse_model(text).actions[0]
    total = 1 + Fraction(1, 10**10)
    assert act.transitions == ((0, 1 / total), (1, Fraction(1, 10**10) / total))
    assert sum(p for _, p in act.transitions) == 1


def test_parse_duplicate_label_after_another_action():
    text = "ssg 1\nstates 2\ntarget 1\naction 0 a\n  1 1\naction 1 a\n  1 1\naction 0 a\n  0 1\n"
    with pytest.raises(DuplicateActionLabel) as exc:
        parse_model(text)
    assert (exc.value.line_no, exc.value.state, exc.value.label) == (8, 0, "a")


def test_parse_shares_one_fraction_per_token():
    g = parse_model("ssg 1\nstates 2\ntarget 1\naction 0 a\n  0 1/2\n  1 1/2\naction 0 b\n  1 0.5\n  0 1/2\n")
    (_, p), (_, q) = g.actions[0][0].transitions
    (_, r), (_, t) = g.actions[0][1].transitions
    assert p is q is t and r == p and r is not p  # "0.5" is another token


def test_parse_probability_out_of_range():
    with pytest.raises(BadProbability):
        parse_model("ssg 1\nstates 2\ntarget 1\naction 0 a\n  0 -0.5\n  1 1.5\n")
    with pytest.raises(BadProbability):
        parse_model("ssg 1\nstates 2\ntarget 1\naction 0 a\n  1 3/2\n")


def test_parse_junk_line():
    with pytest.raises(MalformedLine):
        parse_model("ssg 1\nstates 2\nwibble 3\n")
    # a transition row outside any action block has no home
    with pytest.raises(MalformedLine):
        parse_model("ssg 1\nstates 2\n0 1\n")


def test_serialize_parse_round_trip_on_presets():
    for build in ALL_PRESETS.values():
        g = build()
        assert parse_model(serialize_model(g)) == g


def test_serialize_parse_round_trip_on_generated():
    for seed in range(12):
        g = generate_random(GenParams(n_states=6, max_actions_per_state=3, seed=seed))
        assert parse_model(serialize_model(g)) == g


def test_ingestion_matches_the_golden_digest():
    # 540 generated games and their text round trips, frozen while validate,
    # parse_model and generate_random still added Fractions
    h = hashlib.sha256()
    for params in [*fuzz_stream_params(300), *census_params((8, 12), range(20))]:
        g = generate_random(params)
        h.update(repr(g).encode())
        h.update(repr(parse_model(serialize_model(g))).encode())
    assert h.hexdigest() == "cdf4d0dc87786afdcad505f2459e295641123208613e97d727709256ebae6372"


def test_normalize_installs_self_loops():
    g = parse_model(MINIMAL)
    assert not g.normalized
    gn = normalize(g)
    assert gn is not g
    assert gn.normalized
    assert [(a.label, a.transitions) for a in gn.actions[1]] == [
        ("loop", ((1, Fraction(1)),))
    ]
    assert [(a.label, a.transitions) for a in gn.actions[2]] == [
        ("loop", ((2, Fraction(1)),))
    ]


def test_normalize_is_idempotent_and_identity_on_normalized():
    gn = normalize(parse_model(MINIMAL))
    assert normalize(gn) is gn


def test_normalize_replaces_target_actions_with_loop():
    text = "ssg 1\nstates 2\ntarget 1\naction 0 a\n  1 1\naction 1 out\n  0 1\n"
    gn = normalize(parse_model(text))
    # target keeps exactly one action: the absorbing loop
    assert [a.label for a in gn.actions[1]] == ["loop"]


# state 1 is a target with two actions and state 2 a non-target without
# one: both break the normal form. Target 3 only loops onto itself.
TWO_OUT_OF_FORM = """\
ssg 1
states 4
target 1 3
action 0 a
  1 1/2
  2 1/2
action 1 stay
  1 1
action 1 back
  0 1
action 3 stay
  3 1
"""


def test_normalize_replaces_exactly_the_states_out_of_normal_form():
    g = parse_model(TWO_OUT_OF_FORM)
    gn = normalize(g)
    assert [s for s in range(g.n_states) if gn.actions[s] is not g.actions[s]] == [1, 2]
    assert [gn.actions[s] for s in (1, 2)] == [(Action("loop", ((s, Fraction(1)),)),) for s in (1, 2)]
    assert gn.normalized and normalize(gn) is gn


def test_sticky_loop_builders_agree():
    assert slow_loop() == serial_loops(1)
    assert slow_loop(0.9, 0.1) == serial_loops(1, "0.9", "0.1")
    # q = 0: the loop state has no sink transition
    assert slow_loop(0.9, 0.1).actions[0][0].transitions == ((0, Fraction(9, 10)), (1, Fraction(1, 10)))
    assert serial_loops(2, 0.98, 0.01) == serial_loops(2)


def test_partition_slow_loop():
    part = partition_states(slow_loop())
    assert part.targets == {1}
    assert part.sinks == {2}
    assert part.unknown == {0}


def test_partition_without_targets_everything_sinks():
    part = partition_states(cycle_with_sink_exit())
    assert part.targets == set()
    assert part.unknown == set()


def test_partition_copy_is_independent():
    part = partition_states(slow_loop())
    other = part.copy()
    other.unknown.clear()
    assert part.unknown == {0}


def test_partition_states_hands_out_fresh_copies():
    g = slow_loop()
    first, second = partition_states(g), partition_states(g)
    assert first == second
    assert first is not second
    assert first.unknown is not second.unknown
    first.unknown.clear()
    first.sinks.add(0)
    assert second == StatePartition({1}, {2}, {0})
    assert partition_states(g) == StatePartition({1}, {2}, {0})


def test_shared_split_is_frozen_and_each_copy_has_its_own_sets():
    g = slow_loop()
    shared = g.split
    assert all(type(x) is frozenset for x in (shared.targets, shared.sinks, shared.unknown))
    first, second = partition_states(g), partition_states(g)
    for name in ("targets", "sinks", "unknown"):
        mine, theirs = getattr(first, name), getattr(second, name)
        assert type(mine) is set and mine is not theirs
        mine.add(99)
        assert 99 not in theirs and 99 not in getattr(shared, name)
    assert g.split is shared == StatePartition({1}, {2}, {0})


def test_partition_memo_is_private_to_its_copy():
    part = partition_states(slow_loop())
    part.ec_memo[frozenset({0})] = []
    other = part.copy()
    assert other.ec_memo == {}
    assert other.ec_memo is not part.ec_memo
    # eq and repr ignore the memo
    assert part == other
    assert repr(part) == repr(other)
    assert "ec_memo" not in repr(part)


def test_generate_random_is_deterministic():
    p = GenParams(n_states=5, seed=9)
    assert generate_random(p) == generate_random(p)
    q = GenParams(n_states=5, seed=10)
    assert generate_random(p) != generate_random(q)


def test_generate_random_output_is_normalized():
    for seed in range(8):
        g = generate_random(GenParams(n_states=7, max_actions_per_state=3,
                                      max_branching=3, seed=seed))
        assert g.normalized
        assert g.targets
        g.validate()


def test_genparams_validation():
    with pytest.raises(ValueError):
        GenParams(n_states=0).validate()
    with pytest.raises(ValueError):
        GenParams(n_states=3, target_fraction=1.5).validate()
    with pytest.raises(ValueError):
        GenParams(n_states=3, min_player_fraction=-0.1).validate()


def test_game_action_lookup():
    g = slow_loop()
    assert g.action_labels(0) == ("go",)


def _delta(a, b):
    diff = {}
    for sign, act in ((1, a), (-1, b)):
        for t, p in act.transitions:
            diff[t] = diff.get(t, 0) + sign * p
    return tuple((t, float(w)) for t, w in sorted(diff.items()) if w != 0)


def _expected_tables(g):
    rows = tuple(tuple(tuple((t, float(p)) for t, p in a.transitions) for a in acts)
                 for acts in g.actions)
    deltas = tuple({(i, j): _delta(a, b) for i, a in enumerate(acts)
                    for j, b in enumerate(acts) if i != j} for acts in g.actions)
    return rows, deltas


def _check_action_lookup(g):
    for s in range(g.n_states):
        for i, label in enumerate(g.action_labels(s)):
            assert action(g, s, label) is g.actions[s][i]


def test_game_rows_and_index_match_actions():
    g = exit_seesaw()
    rows, deltas = _expected_tables(g)
    assert g.rows == rows
    assert g.deltas == deltas
    assert g.rows is g.rows and g.deltas is g.deltas  # built once, then kept
    assert not hasattr(g, "index")  # no label table is kept
    _check_action_lookup(g)
    single = [g.deltas[s] for s in range(g.n_states) if len(g.actions[s]) == 1]
    assert len(single) > 1 and all(t is single[0] for t in single)


def test_game_deltas_subtract_exact_probabilities():
    g = parse_model("ssg 1\nstates 3\ntarget 1\n"
                    "action 0 x\n  1 0.5\n  2 0.5\n"
                    "action 0 y\n  1 0.4\n  2 0.6\n")
    tenth = float(Fraction(1, 10))
    assert 0.5 - 0.4 != tenth
    assert g.deltas[0] == {(0, 1): ((1, tenth), (2, -tenth)),
                           (1, 0): ((1, -tenth), (2, tenth))}


def test_game_succs_lists_each_successor_once_in_order_of_first_appearance():
    g = parse_model("ssg 1\nstates 4\ntarget 3\n"
                    "action 0 x\n  2 1/2\n  0 1/4\n  2 1/4\n"
                    "action 0 y\n  3 1/2\n  2 1/2\n"
                    "action 1 z\n  1 1\n")
    # a repeated successor is listed once and self-loops are kept
    assert g.succs == ((2, 0, 3), (1,), (), ())
    assert g.succs is g.succs


def test_game_tables_stay_out_of_equality_and_repr():
    g, h = exit_seesaw(), exit_seesaw()
    before = repr(g)
    assert g.rows and g.deltas
    assert g == h and hash(g) == hash(h)
    assert repr(g) == before == repr(h)


def test_replaced_game_builds_its_own_tables():
    g = exit_seesaw()
    assert g.rows and g.deltas  # the parent's tables exist before the copy is made
    s = next(s for s in range(g.n_states) if len(g.actions[s]) > 1)
    acts = list(g.actions)
    acts[s] = acts[s][1:]  # drop the first action, as fuzz shrinking does
    h = dataclasses.replace(g, actions=tuple(acts))
    assert (h.rows, h.deltas) == _expected_tables(h)
    assert h.rows[s] != g.rows[s] and h.deltas[s] != g.deltas[s]
    assert (g.rows, g.deltas) == _expected_tables(g)
    _check_action_lookup(h)


def test_normalized_is_worked_out_once_per_game():
    g = parse_model(MINIMAL)
    assert "normalized" not in vars(g)
    assert not g.normalized
    assert vars(g)["normalized"] is False  # kept on the instance, like rows and split
    # a replaced game answers for itself, not with the parent's cached answer
    h = dataclasses.replace(g, actions=normalize(g).actions)
    assert h.normalized and not g.normalized


def _one_action_game(transitions, label="a"):
    return StochasticGame(2, (MAX, MAX), ((Action(label, transitions),), ()), frozenset({1}))


def test_validate_reports_the_exact_total():
    with pytest.raises(ProbabilitySum) as exc:
        _one_action_game(((0, Fraction(1, 3)), (1, Fraction(1, 2)))).validate()
    assert (exc.value.state, exc.value.label, exc.value.total) == (0, "a", Fraction(5, 6))
    assert type(exc.value.total) is Fraction
    with pytest.raises(ProbabilitySum) as exc:
        _one_action_game(()).validate()
    assert exc.value.total == 0


def test_validate_refuses_a_sum_however_close_to_one():
    # only the parser rounds: a game built directly must sum to exactly 1
    tiny = Fraction(1, 10**10)
    for transitions, total in ((((0, Fraction(1)), (1, tiny)), 1 + tiny),
                               (((0, 1 - 2 * tiny), (1, tiny)), 1 - tiny)):
        with pytest.raises(ProbabilitySum) as exc:
            _one_action_game(transitions).validate()
        assert exc.value.total == total


def test_validate_rejects_a_zero_probability():
    with pytest.raises(ValidationError, match=r"state 0, action 'a': probability 0 not in \(0, 1\]"):
        _one_action_game(((0, Fraction(0)), (1, Fraction(1)))).validate()


def test_validate_rejects_float_probabilities():
    with pytest.raises(ValidationError, match=r"state 0, action 'a': probability 0\.5 is not a Fraction"):
        _one_action_game(((0, 0.5), (1, 0.5))).validate()
    _one_action_game(((1, 1),)).validate()  # an int is exact


@pytest.mark.parametrize("label", ["a#b", "a b", "a\tb", ""])
def test_serialize_refuses_labels_the_format_cannot_carry(label):
    # "a#b" would read back as "a", the others as a MalformedLine
    with pytest.raises(ValidationError, match=re.escape(f"state 0: action label {label!r} cannot")):
        serialize_model(_one_action_game(((1, Fraction(1)),), label))


def test_game_validate_rejects_bad_owner():
    g = StochasticGame(
        n_states=1,
        owner=("neither",),
        actions=((Action("a", ((0, Fraction(1)),)),),),
        targets=frozenset(),
    )
    with pytest.raises(ValueError):
        g.validate()
