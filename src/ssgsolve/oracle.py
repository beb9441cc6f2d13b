"""Exact reference results via rational arithmetic and brute-force strategies.

Everything here is exact: probabilities are `Fraction`s, and each Markov
chain is solved in integers before its answers become `Fraction`s, so the
numbers are independent of the float iteration schemes they are used to
check.
Intended for desk-sized models; `exact_value` enumerates memoryless
deterministic strategies for both players, which is exponential by design.
"""

from __future__ import annotations

import itertools
import math
import operator
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
    bad = [f"{s} has {len(game.actions[s])}" for s in range(game.n_states)
           if len(game.actions[s]) != 1]
    if bad:
        raise ValueError(f"expected one action per state, but state {', state '.join(bad)}")


#: One chain row in integers: (d, ((successor, num), ...)), probabilities num/d.
IntRow = tuple[int, tuple[tuple[int, int], ...]]

_ZERO, _ONE = Fraction(0), Fraction(1)


def _int_rows(game: StochasticGame) -> list[list[IntRow]]:
    """Every action's transitions scaled by the lcm of its denominators."""
    rows = []
    for acts in game.actions:
        per_state = []
        for act in acts:
            d = math.lcm(*(p.denominator for _, p in act.transitions))
            per_state.append((d, tuple((t, p.numerator * (d // p.denominator))
                                       for t, p in act.transitions)))
        rows.append(per_state)
    return rows


def _chain_step(rows: list[list[IntRow]], choice: dict[int, int]) -> list[IntRow]:
    """Integer rows of the chain induced by an action index per state."""
    return [acts[choice.get(s, 0)] for s, acts in enumerate(rows)]


def _chain_reach(rows: list[IntRow], targets: set[int]) -> list[Fraction]:
    """Exact absorption probabilities of a Markov chain into the target set.

    States with no path to a target get probability 0. The other non-target
    states ("free") give the system d_s x_s - sum(num x_t over free t) =
    sum(num over target t), uniquely solvable when rows sum to 1. Bareiss's
    fraction-free elimination solves it in integers: every division is
    exact, and the only Fractions built are the answers, numerator over the
    last pivot. A row with a zero in the pivot column would only be scaled
    by the ratio of two pivots, so it is left alone and the scale is paid
    on its next use (the ratios telescope). The free states are taken in
    reverse order of discovery by the backward search, which puts most
    states before their successors and leaves little to eliminate.
    """
    n = len(rows)
    preds: list[list[int]] = [[] for _ in range(n)]
    for s, (_, row) in enumerate(rows):
        for succ, _ in row:
            preds[succ].append(s)
    can = set(targets)
    found = []
    frontier = list(targets)
    while frontier:
        for p in preds[frontier.pop()]:
            if p not in can:
                can.add(p)
                found.append(p)
                frontier.append(p)

    values = [_ZERO] * n
    for t in targets:
        values[t] = _ONE
    free = found[::-1]
    if not free:
        return values
    m = len(free)
    pos = {s: i for i, s in enumerate(free)}
    mat = [[0] * (m + 1) for _ in range(m)]
    for i, s in enumerate(free):
        d, row = rows[s]
        r = mat[i]
        r[i] = d
        for succ, num in row:
            if succ in targets:
                r[m] += num
            elif succ in pos:
                r[pos[succ]] -= num
    # pivots[k] divides step k; row i holds the Bareiss row after done[i] steps
    pivots = [1]
    done = [0] * m
    for k in range(m):
        if not mat[k][k]:
            piv = next(r for r in range(k + 1, m) if mat[r][k])
            mat[k], mat[piv] = mat[piv], mat[k]
            done[k], done[piv] = done[piv], done[k]
        top = mat[k]
        if done[k] != k:
            up, down = pivots[k], pivots[done[k]]
            top = mat[k] = [a * up // down for a in top]
        akk = top[k]
        pivots.append(akk)
        tail = top[k + 1:]
        for i in range(k + 1, m):
            r = mat[i]
            aik = r[k]
            if aik:
                down = pivots[done[i]]
                r[k + 1:] = [(akk * a - aik * b) // down for a, b in zip(r[k + 1:], tail)]
                done[i] = k + 1
    det = pivots[m]
    # x[i] is det times the value of free[i], an integer by Cramer's rule,
    # so every division of the back-substitution is exact
    x = [0] * m
    for i in range(m - 1, -1, -1):
        r = mat[i]
        acc = det * r[m]
        for j in range(i + 1, m):
            if r[j]:
                acc -= r[j] * x[j]
        x[i] = acc // r[i]
    for i, s in enumerate(free):
        values[s] = Fraction(x[i], det)
    return values


def chain_reachability(game: StochasticGame) -> list[Fraction]:
    """Exact target-reachability probabilities of a one-action-per-state game."""
    _single_actions(game)
    return _chain_reach(_chain_step(_int_rows(game), {}), set(game.targets))


def exact_value(game: StochasticGame, *, max_states: int = 12, max_pairs: int = 10_000_000,
                order: str = "maxmin") -> ExactResult:
    """Game value by brute force over memoryless deterministic strategies.

    The outer player's strategies are enumerated; for each, the inner
    player's strategies are enumerated and the induced Markov chains are
    solved exactly, taking the pointwise inner optimum. Each action's row
    is scaled once per call to integers over the lcm of its denominators,
    and each chain is solved by fraction-free integer elimination
    (`_chain_reach`); nothing is kept on the game. The outer optimum
    over those vectors is the value (memoryless deterministic strategies
    suffice for both players, and one strategy is optimal at every state
    simultaneously). order="maxmin" puts the Maximizer outside,
    order="minmax" the Minimizer; both give the same values. Witness
    strategies are optimal for both players in maxmin order; minmax is
    meant for cross-checking values (its inner witness is only a best
    response to the outer one).

    Raises TooLarge beyond max_states states or max_pairs strategy pairs,
    before any row is scaled or chain solved, and then ValueError on a game
    that is not normalized, as the solvers do.
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
    if not game.is_normalized():
        raise ValueError("game must be normalized first (see normalize())")

    targets = set(game.targets)
    rows = _int_rows(game)
    outer_sites, inner_sites = (max_sites, min_sites) if order == "maxmin" else (min_sites, max_sites)
    outer_better, inner_better = ((operator.gt, operator.lt) if order == "maxmin"
                                  else (operator.lt, operator.gt))

    def profiles(sites: list[int]):
        ranges = [range(len(game.actions[s])) for s in sites]
        for combo in itertools.product(*ranges):
            yield dict(zip(sites, combo))

    def pointwise_opt(vectors: list[list[Fraction]], better) -> list[Fraction]:
        opt = list(vectors[0])
        for vec in vectors[1:]:
            for i, v in enumerate(vec):
                # the shared 0 and 1 entries need no Fraction comparison
                if v is not opt[i] and better(v, opt[i]):
                    opt[i] = v
        return opt

    evaluated = 0
    outer_vectors: list[tuple[dict[int, int], list[Fraction], dict[int, int]]] = []
    for outer in profiles(outer_sites):
        inner_runs: list[tuple[dict[int, int], list[Fraction]]] = []
        for inner in profiles(inner_sites):
            choice = {**outer, **inner}
            inner_runs.append((inner, _chain_reach(_chain_step(rows, choice), targets)))
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
    rows = [acts[0].transitions for acts in game.actions]
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

