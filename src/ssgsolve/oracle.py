"""Exact reference results via rational arithmetic and brute-force strategies.

Everything here works with `Fraction`s end to end, so the numbers are exact
and independent of the float iteration schemes they are used to check.
Intended for desk-sized models; `exact_value` enumerates memoryless
deterministic strategies for both players, which is exponential by design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import MAX, MIN, StochasticGame, partition_states


class TooLarge(ValueError):
    """The model is beyond the configured brute-force budget."""

    def __init__(self, states: int, pairs: int) -> None:
        self.states = states
        self.pairs = pairs
        super().__init__(
            f"brute force refused: {states} states, {pairs} strategy pairs"
        )


@dataclass(frozen=True)
class ExactResult:
    """Exact values plus one optimal memoryless strategy per player."""

    values: tuple[Fraction, ...]
    max_strategy: dict[int, str]
    min_strategy: dict[int, str]
    pairs_evaluated: int


def _single_actions(game: StochasticGame) -> None:
    bad = [s for s in range(game.n_states) if len(game.actions[s]) != 1]
    if bad:
        raise ValueError(f"expected one action per state, got several at {bad}")


def _chain_step(game: StochasticGame, choice: dict[int, int]) -> list[list[tuple[int, Fraction]]]:
    """Transition rows of the chain induced by an action index per state."""
    rows = []
    for s in range(game.n_states):
        act = game.actions[s][choice.get(s, 0)]
        rows.append(list(act.transitions))
    return rows


def _chain_reach(rows: list[list[tuple[int, Fraction]]], targets: set[int]) -> list[Fraction]:
    """Exact absorption probabilities of a Markov chain into the target set.

    States with no path to a target get probability 0; the remaining
    non-target states form a linear system that is always uniquely
    solvable, handled by Gaussian elimination over the rationals.
    """
    n = len(rows)
    preds: list[set[int]] = [set() for _ in range(n)]
    for s, row in enumerate(rows):
        for succ, _ in row:
            preds[succ].add(s)
    can = set(targets)
    frontier = list(targets)
    while frontier:
        t = frontier.pop()
        for p in preds[t]:
            if p not in can:
                can.add(p)
                frontier.append(p)

    values: list[Fraction] = [Fraction(0)] * n
    for t in targets:
        values[t] = Fraction(1)
    free = sorted(s for s in can if s not in targets)
    if not free:
        return values
    pos = {s: i for i, s in enumerate(free)}
    m = len(free)
    zero = Fraction(0)
    mat = [[zero] * (m + 1) for _ in range(m)]
    for i, s in enumerate(free):
        mat[i][i] += 1
        for succ, p in rows[s]:
            if succ in targets:
                mat[i][m] += p
            elif succ in pos:
                mat[i][pos[succ]] -= p
    # elimination with exact pivots; the system is non-singular
    for col in range(m):
        piv = next(r for r in range(col, m) if mat[r][col] != 0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
        inv = mat[col][col]
        if inv != 1:
            mat[col] = [x / inv for x in mat[col]]
        for r in range(m):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    for i, s in enumerate(free):
        values[s] = mat[i][m]
    return values


def mc_reachability(game: StochasticGame) -> list[Fraction]:
    """Exact target-reachability probabilities of a one-action-per-state game."""
    _single_actions(game)
    return _chain_reach(_chain_step(game, {}), set(game.targets))


def exact_value(game: StochasticGame, *, max_states: int = 12, max_pairs: int = 10_000_000,
                order: str = "maxmin") -> ExactResult:
    """Game value by brute force over memoryless deterministic strategies.

    The outer player's strategies are enumerated; for each, the inner
    player's strategies are enumerated and the induced Markov chains are
    solved exactly, taking the pointwise inner optimum. The outer optimum
    over those vectors is the value (memoryless deterministic strategies
    suffice for both players, and one strategy is optimal at every state
    simultaneously). order="maxmin" puts the Maximizer outside,
    order="minmax" the Minimizer; both give the same values. Witness
    strategies are optimal for both players in maxmin order; minmax is
    meant for cross-checking values (its inner witness is only a best
    response to the outer one).

    Raises TooLarge beyond max_states states or max_pairs strategy pairs.
    """
    if order not in ("maxmin", "minmax"):
        raise ValueError("order must be 'maxmin' or 'minmax'")
    n = game.n_states
    part = partition_states(game)
    max_sites = [s for s in sorted(part.unknown) if game.owner[s] == MAX and len(game.actions[s]) > 1]
    min_sites = [s for s in sorted(part.unknown) if game.owner[s] == MIN and len(game.actions[s]) > 1]

    def profile_count(sites: list[int]) -> int:
        c = 1
        for s in sites:
            c *= len(game.actions[s])
        return c

    pairs = profile_count(max_sites) * profile_count(min_sites)
    if n > max_states or pairs > max_pairs:
        raise TooLarge(n, pairs)

    targets = set(game.targets)
    outer_sites, inner_sites = (max_sites, min_sites) if order == "maxmin" else (min_sites, max_sites)
    outer_better = (lambda a, b: a > b) if order == "maxmin" else (lambda a, b: a < b)
    inner_better = (lambda a, b: a < b) if order == "maxmin" else (lambda a, b: a > b)

    def profiles(sites: list[int]):
        ranges = [range(len(game.actions[s])) for s in sites]
        for combo in itertools.product(*ranges):
            yield dict(zip(sites, combo))

    def pointwise_opt(vectors: list[list[Fraction]], better) -> list[Fraction]:
        opt = list(vectors[0])
        for vec in vectors[1:]:
            for i, v in enumerate(vec):
                if better(v, opt[i]):
                    opt[i] = v
        return opt

    evaluated = 0
    outer_vectors: list[tuple[dict[int, int], list[Fraction], dict[int, int]]] = []
    for outer in profiles(outer_sites):
        inner_runs: list[tuple[dict[int, int], list[Fraction]]] = []
        for inner in profiles(inner_sites):
            choice = {**outer, **inner}
            inner_runs.append((inner, _chain_reach(_chain_step(game, choice), targets)))
            evaluated += 1
        inner_opt = pointwise_opt([vec for _, vec in inner_runs], inner_better)
        witness_inner = next(ip for ip, vec in inner_runs if vec == inner_opt)
        outer_vectors.append((outer, inner_opt, witness_inner))

    values = pointwise_opt([vec for _, vec, _ in outer_vectors], outer_better)
    outer_witness, _, inner_witness = next(
        (op, vec, iw) for op, vec, iw in outer_vectors if vec == values
    )

    def to_labels(profile: dict[int, int], sites: list[int]) -> dict[int, str]:
        return {s: game.actions[s][profile.get(s, 0)].label for s in sites}

    if order == "maxmin":
        max_prof, min_prof = outer_witness, inner_witness
    else:
        max_prof, min_prof = inner_witness, outer_witness
    return ExactResult(
        values=tuple(values),
        max_strategy=to_labels(max_prof, max_sites),
        min_strategy=to_labels(min_prof, min_sites),
        pairs_evaluated=evaluated,
    )


def k_step_oracle(game: StochasticGame, part, k: int) -> tuple[list[Fraction], list[Fraction]]:
    """Exact k-step reach/stay probabilities of a one-action-per-state game.

    reach[s] is the probability of hitting a target within k steps, stay[s]
    the probability of remaining inside the undecided region for k steps.
    Backward recurrence over the rationals, seeded from `part`, the
    F/Z/S? split the probabilities are measured against.
    """
    _single_actions(game)
    one, zero = Fraction(1), Fraction(0)
    reach = [one if s in part.targets else zero for s in range(game.n_states)]
    stay = [one if s in part.unknown else zero for s in range(game.n_states)]
    rows = _chain_step(game, {})
    for _ in range(k):
        reach = [
            reach[s] if s not in part.unknown else sum((p * reach[t] for t, p in rows[s]), zero)
            for s in range(game.n_states)
        ]
        stay = [
            stay[s] if s not in part.unknown else sum((p * stay[t] for t, p in rows[s]), zero)
            for s in range(game.n_states)
        ]
    return reach, stay

