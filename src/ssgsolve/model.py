"""Game model: data types, text format, normalization, partition, generation.

A stochastic game here is a finite turn-based two-player game. Every state
belongs to either the Maximizer or the Minimizer; the owner picks one of the
state's actions and the successor is then drawn from that action's
distribution. The objective is reachability: the Maximizer tries to reach a
target state, the Minimizer tries to avoid that. A game with a single owner
is an MDP, a game with one action everywhere is a Markov chain.

Probabilities are kept as exact `Fraction`s (or ints) on the model. The
solvers read a float copy of them, `StochasticGame.rows`, which each game
builds on first use; the exact oracle keeps the rationals. Reading a model
checks them in integers: `scale_to_integers` puts a distribution over the
lcm of its denominators, so "sums to 1" is a sum of ints, and a `Fraction`
total is only built for a sum that is not 1. Each action's probabilities
sum to exactly 1: `validate` refuses any other sum, and `parse_model` is
the one place that rounds, dividing a decimal sum near 1 out.
`parse_model` and `generate_random` check or build every fact `validate`
tests, so neither calls it, and each builds every distinct probability
once per call.

The solvers add every float dot product left to right from 0.0, as `dot`
and `dot2` do; the sweep kernels of vi, bvi and svi inline that loop.
Builtin `sum` adds floats with compensated summation from Python 3.12 on,
and iteration counts would then depend on the interpreter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

MAX = "max"
MIN = "min"

#: Header expected on the first content line of a model file.
FORMAT_HEADER = "ssg 1"

#: Action label used for self-loops installed by `normalize`.
LOOP_LABEL = "loop"

#: How far from 1 `parse_model` lets a decimal sum be before it divides it out.
PROB_SUM_TOL = 1e-9

#: Float transitions indexed [state][action position], in transition order.
FloatRows = Sequence[Sequence[Sequence[tuple[int, float]]]]
#: One state's {(i, j): ((successor, float(delta_i - delta_j)), ...)}.
DeltaTable = dict[tuple[int, int], tuple[tuple[int, float], ...]]


def scale_to_integers(transitions: Sequence[tuple[int, Fraction]]
                      ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """`(d, ((successor, num), ...))`: the transitions over the lcm d of their denominators.

    `transitions` are (successor, probability) pairs, as in `Action`; each
    `num` is the int probability * d, in transition order. The
    probabilities sum to 1 exactly when the nums sum to d. No transitions
    give `(1, ())`.
    """
    d = math.lcm(*[p.denominator for _, p in transitions])
    return d, tuple([(t, p.numerator * (d // p.denominator)) for t, p in transitions])


def dot(row: Sequence[tuple[int, float]], vec: Sequence[float]) -> float:
    """The sum of p * vec[t] over the (t, p) pairs of row, added left to right from 0.0."""
    acc = 0.0
    for t, p in row:
        acc += p * vec[t]
    return acc


def dot2(row: Sequence[tuple[int, float]], a: Sequence[float],
         b: Sequence[float]) -> tuple[float, float]:
    """`(dot(row, a), dot(row, b))` in one pass over the row."""
    x = y = 0.0
    for t, p in row:
        x += p * a[t]
        y += p * b[t]
    return x, y


class ModelError(ValueError):
    """Base class for everything raised while reading or validating a model."""


class ParseError(ModelError):
    """Structural problem in the model text (bad syntax, bad references)."""


class ValidationError(ModelError):
    """Well-formed text with semantically invalid content (bad probabilities)."""


class MissingHeader(ParseError):
    def __init__(self) -> None:
        super().__init__(f"expected header line {FORMAT_HEADER!r}")


class MalformedLine(ParseError):
    def __init__(self, line_no: int, text: str, why: str = "") -> None:
        self.line_no = line_no
        detail = f": {why}" if why else ""
        super().__init__(f"line {line_no}: cannot parse {text!r}{detail}")


class UnknownState(ParseError):
    def __init__(self, line_no: int, state: int) -> None:
        self.line_no = line_no
        self.state = state
        super().__init__(f"line {line_no}: state {state} is out of range")


class DuplicateActionLabel(ParseError):
    def __init__(self, line_no: int, state: int, label: str) -> None:
        self.line_no = line_no
        self.state = state
        self.label = label
        super().__init__(f"line {line_no}: state {state} already has an action {label!r}")


class ProbabilitySum(ValidationError):
    def __init__(self, state: int, label: str, total: Fraction) -> None:
        self.state = state
        self.label = label
        self.total = total
        super().__init__(
            f"action {label!r} of state {state} has probabilities summing to "
            f"{total} (= {float(total):.12g}), expected 1"
        )


class BadProbability(ValidationError):
    def __init__(self, line_no: int, value: Fraction) -> None:
        self.line_no = line_no
        self.value = value
        super().__init__(f"line {line_no}: probability {value} is not in (0, 1]")


@dataclass(frozen=True)
class Action:
    """A labelled action: a distribution over successor states.

    Transitions are (successor, probability) pairs with positive rational
    probabilities (`Fraction`s or ints) summing to exactly 1.
    """

    label: str
    transitions: tuple[tuple[int, Fraction], ...]


def _distribution(act: Action) -> dict[int, Fraction]:
    """The action's probability of each successor, summed over the transitions that list it."""
    dist: dict[int, Fraction] = {}
    for t, p in act.transitions:
        dist[t] = dist.get(t, 0) + p
    return dist


@dataclass(frozen=True)
class StochasticGame:
    """Immutable turn-based stochastic game with a reachability target set.

    States are 0..n_states-1. `owner[s]` is MAX or MIN, `actions[s]` is the
    ordered action tuple of state s (order is meaningful: it breaks ties),
    and `targets` is the set of goal states. Instances are safe to share
    across threads; solvers never mutate them.

    `rows`, the solvers' float transitions by action position (the index
    into `actions[s]`), `deltas`, the pairwise action differences behind
    svi's decision values, `preds`, the transitions into each state, which
    `graph.attractor` and `can_reach` walk back, `succs`, the distinct
    successors of each state, which every forward graph walk reads,
    `can_reach`, the states with a path to a target, `split`, the
    targets / sinks / unknown partition, and `normalized`, the answer of
    `is_normalized()`, are built on first use and kept on the instance.
    `preds` and `succs` are the package's only per-state edge tables; the
    exact oracle keeps its own, to stay independent of the solvers. None
    of these are fields: eq, hash and repr ignore them, and
    `dataclasses.replace` gives a new game with its own.
    """

    n_states: int
    owner: tuple[str, ...]
    actions: tuple[tuple[Action, ...], ...]
    targets: frozenset[int]

    def validate(self) -> None:
        """Raise a `ValidationError` unless the game is well formed.

        Every probability must be a `Fraction` or an int in (0, 1], and each
        action's must sum to exactly 1: the exact oracle's chain solve relies
        on it. The checks run in integers (`scale_to_integers`);
        `ProbabilitySum` carries the exact total of any other sum.
        """
        if self.n_states <= 0:
            raise ValidationError("a game needs at least one state")
        if len(self.owner) != self.n_states or len(self.actions) != self.n_states:
            raise ValidationError("owner/actions length does not match n_states")
        for s, tag in enumerate(self.owner):
            if tag not in (MAX, MIN):
                raise ValidationError(f"state {s} has unknown owner {tag!r}")
        for t in self.targets:
            if not 0 <= t < self.n_states:
                raise ValidationError(f"target {t} is out of range")
        for s, acts in enumerate(self.actions):
            seen = set()
            for act in acts:
                if act.label in seen:
                    raise ValidationError(f"state {s} repeats action label {act.label!r}")
                seen.add(act.label)
                for succ, p in act.transitions:
                    if not 0 <= succ < self.n_states:
                        raise ValidationError(f"state {s}, action {act.label!r}: successor {succ} out of range")
                    if not isinstance(p, (Fraction, int)):
                        raise ValidationError(f"state {s}, action {act.label!r}: probability {p!r} "
                                              "is not a Fraction or an int")
                    if not 0 < p.numerator <= p.denominator:
                        raise ValidationError(f"state {s}, action {act.label!r}: probability {p} not in (0, 1]")
                d, row = scale_to_integers(act.transitions)
                num = sum([k for _, k in row])
                if num != d:
                    raise ProbabilitySum(s, act.label, Fraction(num, d))

    def action_labels(self, s: int) -> tuple[str, ...]:
        return tuple(a.label for a in self.actions[s])

    @cached_property
    def rows(self) -> FloatRows:
        """Transitions with float probabilities, indexed [state][action position]."""
        return tuple(tuple(tuple((t, float(p)) for t, p in a.transitions) for a in acts)
                     for acts in self.actions)

    @cached_property
    def deltas(self) -> tuple[DeltaTable, ...]:
        """Per state, the pairwise differences of its actions' distributions.

        Entry (i, j) lists (successor, float(delta_i - delta_j)) in successor
        order, skipping exact zeros; a successor listed twice in one action
        counts with the sum of its probabilities. The sums and the subtraction
        are exact, so 0.5 and 0.4 differ by exactly one tenth. One-action
        states share one empty table.
        """
        zero, empty = Fraction(0), {}
        dists = [[_distribution(a) for a in acts] for acts in self.actions]
        return tuple(empty if len(ds) < 2 else {
            (i, j): tuple((t, float(w)) for t in sorted(di.keys() | dj.keys())
                          if (w := di.get(t, zero) - dj.get(t, zero)) != 0)
            for i, di in enumerate(ds) for j, dj in enumerate(ds) if i != j
        } for ds in dists)

    @cached_property
    def preds(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per state, the (state, action position) of every transition into it.

        Listed in (state, action, transition) order, so a walk along it
        visits predecessors in the same order every time.
        """
        preds: list[list[tuple[int, int]]] = [[] for _ in range(self.n_states)]
        for s, acts in enumerate(self.actions):
            for i, act in enumerate(acts):
                key = (s, i)
                for t, _ in act.transitions:
                    preds[t].append(key)
        return tuple(map(tuple, preds))

    @cached_property
    def succs(self) -> tuple[tuple[int, ...], ...]:
        """Per state, its distinct successors over all actions, in order of first appearance.

        A self-loop lists the state itself. Every walk along the edges
        reads this table, so each walk visits successors in the same order.
        """
        return tuple(tuple(dict.fromkeys(t for act in acts for t, _ in act.transitions))
                     for acts in self.actions)

    @cached_property
    def can_reach(self) -> frozenset[int]:
        """The targets and the states with a path to one, whoever owns the states on it."""
        found, frontier = set(self.targets), list(self.targets)
        while frontier:
            for p, _ in self.preds[frontier.pop()]:
                if p not in found:
                    found.add(p)
                    frontier.append(p)
        return frozenset(found)

    @cached_property
    def split(self) -> StatePartition:
        """The targets / sinks / unknown partition, decided by graph analysis.

        The sinks are the states outside `can_reach` and the greatest trap
        of the other non-target states (`graph.trap_states`), so no end
        component of the unknown states lacks a Maximizer exit. The states
        the Maximizer wins almost surely (`graph.almost_sure`, run on what
        the trap pass leaves) join the targets, value 1, with the labels of
        their attractor actions in `StatePartition.attractor`. Shared by every
        solve of the game, so never mutate it: `partition_states` hands
        out copies.
        """
        from . import graph  # graph imports this module

        targets = set(self.targets)
        unknown = self.can_reach - targets
        unknown -= graph.trap_states(self, unknown)
        won = {s: self.actions[s][i].label for s, i in graph.almost_sure(self, unknown).items()}
        unknown -= won.keys()
        targets |= won.keys()
        sinks = set(range(self.n_states)) - targets - unknown
        return StatePartition(targets, sinks, set(unknown), MappingProxyType(won))

    def action(self, s: int, label: str) -> Action:
        """State s's action with the given label, by a scan of `actions[s]`; KeyError if none."""
        for act in self.actions[s]:
            if act.label == label:
                return act
        raise KeyError(f"state {s} has no action {label!r}")

    @cached_property
    def normalized(self) -> bool:
        """Whether every target only loops onto itself and every other state has an action."""
        one = Fraction(1)
        for s in range(self.n_states):
            if s in self.targets:
                acts = self.actions[s]
                if len(acts) != 1 or acts[0].transitions != ((s, one),):
                    return False
            elif not self.actions[s]:
                return False
        return True

    def is_normalized(self) -> bool:
        return self.normalized


@dataclass
class StatePartition:
    """The classic three-way split used by every solver.

    targets: the goal states and the states the Maximizer wins almost
    surely (value 1); sinks: the states with no path to a target under any
    resolution of choices, and the traps the Minimizer can hold play in
    (value 0, see `StochasticGame.split`); unknown: the rest. attractor
    maps each of the almost-sure winners (targets, but not the game's) to
    the label of its attractor action, which the solvers report as its
    strategy; it is read-only and shared by every copy. Solvers own their
    copy; their set-up may decide unknown states (the settled tail), and
    the sound solvers then freeze `unknown` into a frozenset: the pool
    never changes again in that solve, and the memo lookups keyed by it
    cost nothing. The topological driver makes one per component (its
    unknown states, no attractor). ec_memo maps a state set to its
    `graph.mec_decompose` result, its maximal end components as frozensets
    of states. That result is a pure function of the game and the set,
    kept across the sweeps of the copy's solve: eq and repr ignore the
    memo, and `copy` starts an empty one.
    """

    targets: set[int]
    sinks: set[int]
    unknown: set[int] | frozenset[int]
    attractor: Mapping[int, str] = field(default_factory=lambda: MappingProxyType({}))
    ec_memo: dict[frozenset[int], list[frozenset[int]]] = field(default_factory=dict, compare=False,
                                                                repr=False)

    def copy(self) -> "StatePartition":
        return StatePartition(set(self.targets), set(self.sinks), set(self.unknown), self.attractor)


@dataclass(frozen=True)
class GenParams:
    """Knobs for random model generation.

    ec_bias is the probability that a successor is drawn among already
    placed states (ids <= current), which creates back edges and therefore
    cycles and end components; 0 gives a mostly forward, often acyclic
    model, 1 wires everything backwards.
    """

    n_states: int
    max_actions_per_state: int = 2
    max_branching: int = 2
    target_fraction: float = 0.2
    min_player_fraction: float = 0.5
    ec_bias: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_states < 1 or self.max_actions_per_state < 1 or self.max_branching < 1:
            raise ValidationError("n_states, max_actions_per_state and max_branching must be >= 1")
        for name in ("target_fraction", "min_player_fraction", "ec_bias"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be within [0, 1]")


def _parse_prob(token: str, line_no: int) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            p = Fraction(int(num), int(den))
        else:
            p = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise MalformedLine(line_no, token, "not a probability") from None
    if not 0 < p <= 1:
        raise BadProbability(line_no, p)
    return p


def _parse_ids(parts: list[str], line_no: int, text: str, n_states: int) -> list[int]:
    if not parts:
        raise MalformedLine(line_no, text, "expected at least one state id")
    out = []
    for tok in parts:
        try:
            sid = int(tok)
        except ValueError:
            raise MalformedLine(line_no, text, f"{tok!r} is not a state id") from None
        if not 0 <= sid < n_states:
            raise UnknownState(line_no, sid)
        out.append(sid)
    return out


def parse_model(text: str) -> StochasticGame:
    """Parse the `ssg 1` text format into a game.

    Layout: the header, a `states N` line, then any number of `minplayer`,
    `target` and `action` sections. An `action <state> <label>` line is
    followed by one `<succ> <prob>` line per transition. `#` starts a
    comment. Probabilities are decimals or `n/d` fractions. An action whose
    probabilities sum to within PROB_SUM_TOL of 1 but not to 1 exactly is
    divided by its sum, so every parsed distribution sums to exactly 1.
    Each distinct probability token is parsed once per call, and sums are
    tested in integers (`scale_to_integers`). Every check of `validate` is
    made here, line by line, so the game is not validated again.
    """
    lines = text.splitlines()
    content: list[tuple[int, str]] = []
    for i, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            content.append((i, stripped))

    if not content or content[0][1] != FORMAT_HEADER:
        raise MissingHeader()
    content = content[1:]

    n_states: int | None = None
    min_states: set[int] = set()
    targets: set[int] = set()
    # per state: list of (label, transitions list)
    acts: dict[int, list[tuple[str, list[tuple[int, Fraction]]]]] = {}
    labels: set[tuple[int, str]] = set()
    probs: dict[str, Fraction] = {}  # token -> its parsed probability
    current: list[tuple[int, Fraction]] | None = None
    current_key: tuple[int, str] | None = None

    def close_action() -> None:
        nonlocal current, current_key
        if current_key is not None:
            state, label = current_key
            d, row = scale_to_integers(current)
            num = sum([k for _, k in row])
            if num != d:
                total = Fraction(num, d)
                if abs(float(total) - 1.0) > PROB_SUM_TOL:
                    raise ProbabilitySum(state, label, total)
                current[:] = [(succ, p / total) for succ, p in current]
        current = None
        current_key = None

    for line_no, text_line in content:
        parts = text_line.split()
        word = parts[0]
        if word == "states":
            if n_states is not None:
                raise MalformedLine(line_no, text_line, "repeated states line")
            if len(parts) != 2:
                raise MalformedLine(line_no, text_line, "expected 'states N'")
            try:
                n_states = int(parts[1])
            except ValueError:
                raise MalformedLine(line_no, text_line, "expected 'states N'") from None
            if n_states < 1:
                raise ValidationError(f"line {line_no}: need at least one state")
            continue
        if n_states is None:
            raise MalformedLine(line_no, text_line, "before the states line")
        if word == "minplayer":
            close_action()
            min_states.update(_parse_ids(parts[1:], line_no, text_line, n_states))
        elif word == "target":
            close_action()
            targets.update(_parse_ids(parts[1:], line_no, text_line, n_states))
        elif word == "action":
            close_action()
            if len(parts) != 3:
                raise MalformedLine(line_no, text_line, "expected 'action <state> <label>'")
            state, = _parse_ids(parts[1:2], line_no, text_line, n_states)
            label = parts[2]
            current_key = (state, label)
            if current_key in labels:
                raise DuplicateActionLabel(line_no, state, label)
            labels.add(current_key)
            current = []
            acts.setdefault(state, []).append((label, current))
        elif len(parts) == 2 and current is not None:
            succ, = _parse_ids(parts[:1], line_no, text_line, n_states)
            token = parts[1]
            p = probs.get(token)
            if p is None:
                p = probs[token] = _parse_prob(token, line_no)
            current.append((succ, p))
        else:
            raise MalformedLine(line_no, text_line)
    close_action()

    if n_states is None:
        raise ParseError("missing the 'states N' line after the header")

    owner = tuple(MIN if s in min_states else MAX for s in range(n_states))
    actions = tuple(
        tuple(Action(lbl, tuple(trans)) for lbl, trans in acts.get(s, []))
        for s in range(n_states)
    )
    return StochasticGame(n_states, owner, actions, frozenset(targets))


def _format_prob(p: Fraction) -> str:
    if p.denominator == 1:
        return str(p.numerator)
    return f"{p.numerator}/{p.denominator}"


def serialize_model(game: StochasticGame) -> str:
    """Render a game in the canonical text form; parse(serialize(g)) == g.

    An action label must be one word without `#`, as the format reads it:
    a label that is empty or holds whitespace or `#` raises a
    `ValidationError` naming its state. Probabilities must be `Fraction`s
    or ints (see `StochasticGame.validate`).
    """
    out = [FORMAT_HEADER, f"states {game.n_states}"]
    mins = sorted(s for s in range(game.n_states) if game.owner[s] == MIN)
    if mins:
        out.append("minplayer " + " ".join(map(str, mins)))
    if game.targets:
        out.append("target " + " ".join(map(str, sorted(game.targets))))
    for s in range(game.n_states):
        for act in game.actions[s]:
            if "#" in act.label or act.label.split() != [act.label]:
                raise ValidationError(f"state {s}: action label {act.label!r} cannot be written "
                                      "in the text format (one word, no '#')")
            out.append(f"action {s} {act.label}")
            for succ, p in act.transitions:
                out.append(f"{succ} {_format_prob(p)}")
    return "\n".join(out) + "\n"


def normalize(game: StochasticGame) -> StochasticGame:
    """Make targets absorbing and give actionless states a self-loop.

    Target states get a single self-loop action (their original actions are
    irrelevant once the goal is reached); non-target states without any
    action become sinks by self-looping. Idempotent; a game that is already
    in this shape is returned unchanged (same object).
    """
    if game.is_normalized():
        return game
    new_actions = []
    for s in range(game.n_states):
        acts = game.actions[s]
        loop = (Action(LOOP_LABEL, ((s, Fraction(1)),)),)
        if s in game.targets:
            if len(acts) == 1 and acts[0].transitions == ((s, Fraction(1)),):
                new_actions.append(acts)
            else:
                new_actions.append(loop)
        elif not acts:
            new_actions.append(loop)
        else:
            new_actions.append(acts)
    return StochasticGame(game.n_states, game.owner, tuple(new_actions), game.targets)


def partition_states(game: StochasticGame) -> StatePartition:
    """Split states into targets / sinks / unknown by graph analysis.

    Returns a fresh copy of `game.split`, computed once per game, for the
    caller to own and mutate.
    """
    return game.split.copy()


def generate_random(params: GenParams) -> StochasticGame:
    """Generate a random game, deterministically from params.seed.

    Probabilities are small rationals (integer weights over their sum), so
    generated models are exact-oracle friendly; each distinct one is built
    once per call and shared. With target_fraction > 0 at least one target
    is produced. Each action's weights are divided by their own sum, so
    the result passes validate() without being checked by it.
    """
    params.validate()
    rng = random.Random(params.seed)
    n = params.n_states
    owner = tuple(MIN if rng.random() < params.min_player_fraction else MAX for _ in range(n))
    target_list = [s for s in range(n) if rng.random() < params.target_fraction]
    if params.target_fraction > 0 and not target_list:
        target_list = [rng.randrange(n)]
    targets = frozenset(target_list)

    one = Fraction(1)
    probs: dict[tuple[int, int], Fraction] = {}  # (weight, total) -> weight / total
    actions: list[tuple[Action, ...]] = []
    for s in range(n):
        if s in targets:
            actions.append((Action(LOOP_LABEL, ((s, one),)),))
            continue
        n_acts = rng.randint(1, params.max_actions_per_state)
        acts = []
        for i in range(n_acts):
            width = rng.randint(1, params.max_branching)
            succs: set[int] = set()
            for _ in range(width):
                if rng.random() < params.ec_bias:
                    succs.add(rng.randint(0, s))
                else:
                    succs.add(rng.randrange(n))
            weights = [rng.randint(1, 6) for _ in succs]
            total = sum(weights)
            trans = []
            for succ, w in zip(sorted(succs), weights):
                p = probs.get((w, total))
                if p is None:
                    p = probs[w, total] = Fraction(w, total)
                trans.append((succ, p))
            acts.append(Action(f"a{i}", tuple(trans)))
        actions.append(tuple(acts))

    return StochasticGame(n, owner, tuple(actions), targets)
