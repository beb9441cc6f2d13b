"""Exact reference results in rational arithmetic.

Everything here is exact, so the numbers are independent of the float
iteration schemes they are used to check. Probabilities are `Fraction`s;
each action's row is scaled to integers, and each Markov chain is solved
in integers into one numerator per state over the chain's determinant.
`exact_value` finds the game value by strategy iteration, a few chain
solves per game, comparing actions on those integers; only the final
values become `Fraction`s. Its order="minmax" enumerates every pair of
memoryless deterministic strategies instead, which is exponential by
design and kept as an independent reference for desk-sized models; it
compares `Fraction` vectors. Nothing is kept on the game between calls.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

# partition_states is not called here, but perfbench/layers.py wraps it under this name
from .model import MAX, MIN, StochasticGame, partition_states, scale_to_integers  # noqa: F401


class TooLarge(ValueError):
    """The model is beyond the configured size, or the enumeration's strategy-pair budget."""

    def __init__(self, states: int, pairs: int) -> None:
        self.states = states
        self.pairs = pairs
        super().__init__(
            f"exact oracle refused: {states} states, {pairs} strategy pairs"
        )


@dataclass(frozen=True)
class ExactResult:
    """Exact values plus one optimal memoryless strategy per player.

    pairs_evaluated counts the Markov chains solved, one per strategy pair
    evaluated: a few under strategy iteration, every pair under
    order="minmax".
    """

    values: tuple[Fraction, ...]
    max_strategy: dict[int, str]
    min_strategy: dict[int, str]
    pairs_evaluated: int


#: One chain row in integers: (d, ((successor, num), ...)), probabilities num/d.
IntRow = tuple[int, tuple[tuple[int, int], ...]]

_ZERO, _ONE = Fraction(0), Fraction(1)


def _int_rows(game: StochasticGame) -> list[list[IntRow]]:
    """Every action's transitions scaled by the lcm of its denominators."""
    return [[scale_to_integers(act.transitions) for act in acts] for acts in game.actions]


def _chain_step(rows: list[list[IntRow]], choice: dict[int, int]) -> list[IntRow]:
    """Integer rows of the chain induced by an action index per state."""
    return [acts[choice.get(s, 0)] for s, acts in enumerate(rows)]


def _chain_reach(rows: list[IntRow], targets: set[int]) -> tuple[list[int], int]:
    """Exact absorption probabilities of a Markov chain into the target set, in integers.

    Returns (nums, det): state s reaches a target with probability
    nums[s] / det, over one common denominator det > 0. A target's
    numerator is det, and a state with no path to a target gets 0. The
    other non-target states ("free") give the system d_s x_s - sum(num x_t
    over free t) = sum(num over target t). The rows must come from a game
    that passes `StochasticGame.validate`, so a row's nums sum to its d_s:
    the matrix is then weakly chained diagonally dominant (no positive
    entry off the diagonal, each row's diagonal at least the rest of it,
    strictly in a row that leaves the free states, which every free state
    has a path to), a nonsingular M-matrix. Its leading principal minors
    are positive (Berman & Plemmons, "Nonnegative Matrices in the
    Mathematical Sciences", 1994, ch. 6), and they are the pivots of
    Bareiss's fraction-free elimination, so it needs no row swap, every
    division is exact and the last pivot is det. Each numerator comes out
    of the back-substitution by Cramer's rule, over det. A row with a zero
    in the pivot column would only be scaled by the ratio of two pivots,
    so it is left alone and the scale is paid on its next use (the ratios
    telescope). The free states are taken in reverse order of discovery by
    the backward search, which puts most states before their successors
    and leaves little to eliminate.
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

    free = found[::-1]
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
    nums = [0] * n
    for t in targets:
        nums[t] = det
    for i, s in enumerate(free):
        nums[s] = x[i]
    return nums, det


def _fractions(nums: list[int], det: int) -> list[Fraction]:
    """A chain solve's numerators as Fractions; every 0 and 1 is the shared `_ZERO` or `_ONE`."""
    return [_ZERO if not v else _ONE if v == det else Fraction(v, det) for v in nums]


def _attractor(owner: tuple[str, ...], rows: list[list[IntRow]], targets: set[int],
               sigma: dict[int, int] | None = None) -> dict[int, int]:
    """The Maximizer's positive attractor of the targets, by backward search.

    A Maximizer state joins when one of its actions (with `sigma`, only
    its action sigma.get(s, 0)) has a successor inside, a Minimizer state
    when every action has one. Outside it the Minimizer can keep the
    probability of reaching a target at 0. Maps every non-target member to
    the action whose successor completed its entry: for a Maximizer state,
    an action towards a state that joined before it, of lower rank.
    """
    preds: list[list[tuple[int, int]]] = [[] for _ in rows]
    left = [0] * len(rows)
    for s, acts in enumerate(rows):
        if s in targets:
            continue
        picks: range | tuple[int, ...] = range(len(acts))
        if owner[s] == MAX:
            left[s] = 1
            if sigma is not None:
                picks = (sigma.get(s, 0),)
        else:
            left[s] = len(acts)
        for a in picks:
            for t, _ in acts[a][1]:
                preds[t].append((s, a))
    joined: dict[int, int] = {}
    hit: set[tuple[int, int]] = set()
    queue = list(targets)
    for t in queue:   # grows while it is walked
        for s, a in preds[t]:
            if s in joined or (s, a) in hit:
                continue
            hit.add((s, a))
            left[s] -= 1
            if not left[s]:
                joined[s] = a
                queue.append(s)
    return joined


def _improve(rows: list[list[IntRow]], nums: list[int], sites: list[int],
             choice: dict[int, int], better) -> bool:
    """Switch each site to its best action if that beats the site's value strictly.

    `nums` are a chain solve's numerators over its denominator det > 0.
    Every value below is over that same det, so no comparison needs it:
    action a's exact one-step worth is w / d, with w the sum of
    num * nums[t] over its row and d the row's scale, and the site's own
    value is nums[s] (d = 1). Two worths w / d and w' / d' compare as
    w * d' against w' * d, in integers; ties keep the current action.
    Returns whether any site switched.
    """
    switched = False
    for s in sites:
        best, best_w, best_d = None, nums[s], 1
        for a, (d, row) in enumerate(rows[s]):
            w = sum(num * nums[t] for t, num in row)
            if better(w * best_d, best_w * d):
                best, best_w, best_d = a, w, d
        if best is not None:
            choice[s] = best
            switched = True
    return switched


#: An exact solve's answer: values, the Maximizer's and the Minimizer's
#: action index per state, and the number of chains solved.
Solved = tuple[list[Fraction], dict[int, int], dict[int, int], int]


def _strategy_iteration(owner: tuple[str, ...], rows: list[list[IntRow]], targets: set[int],
                        max_sites: list[int], min_sites: list[int]) -> Solved:
    """Values, both witnesses and the chain count, by exact strategy iteration.

    The Maximizer starts from the attractor strategy and switches only on a
    strict exact gain. Each of its strategies sigma is evaluated on the
    Minimizer's MDP: outside sigma's attractor the Minimizer escapes it for
    good (value 0); inside, every Minimizer strategy reaches a target with
    positive probability from every state, so its own strategy iteration,
    switching only on a strict exact loss, ends at a best response. Each
    Maximizer switch raises the values somewhere and lowers them nowhere,
    and the end point is a fixed point of the Bellman operator at most the
    value, so it is the value (the least fixed point).
    """
    sigma = {s: a for s, a in _attractor(owner, rows, targets).items() if owner[s] == MAX}
    tau: dict[int, int] = {}
    evaluated = 0
    while True:
        inside = _attractor(owner, rows, targets, sigma).keys() | targets
        for s in min_sites:
            if s not in inside:
                tau[s] = next(a for a, (_, row) in enumerate(rows[s])
                              if all(t not in inside for t, _ in row))
        while True:
            nums, det = _chain_reach(_chain_step(rows, {**sigma, **tau}), targets)
            evaluated += 1
            if not _improve(rows, nums, min_sites, tau, operator.lt):
                break
        if not _improve(rows, nums, max_sites, sigma, operator.gt):
            return _fractions(nums, det), sigma, tau, evaluated


def _enumerate_minmax(rows: list[list[IntRow]], targets: set[int],
                      max_sites: list[int], min_sites: list[int]) -> Solved:
    """Values, witnesses and the chain count by brute force, Minimizer outside.

    For each Minimizer strategy, every Maximizer strategy's chain is solved
    and the pointwise maximum taken; the pointwise minimum over those
    vectors is the value. The Maximizer witness is only a best response to
    the Minimizer's.
    """
    def profiles(sites: list[int]):
        for combo in itertools.product(*(range(len(rows[s])) for s in sites)):
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
    for tau in profiles(min_sites):
        inner_runs: list[tuple[dict[int, int], list[Fraction]]] = []
        for sigma in profiles(max_sites):
            chain = _chain_step(rows, {**tau, **sigma})
            inner_runs.append((sigma, _fractions(*_chain_reach(chain, targets))))
            evaluated += 1
        inner_opt = pointwise_opt([vec for _, vec in inner_runs], operator.gt)
        best_reply = next(sigma for sigma, vec in inner_runs if vec == inner_opt)
        outer_vectors.append((tau, inner_opt, best_reply))

    values = pointwise_opt([vec for _, vec, _ in outer_vectors], operator.lt)
    tau, _, sigma = next(run for run in outer_vectors if run[1] == values)
    return values, sigma, tau, evaluated


def exact_value(game: StochasticGame, *, max_states: int = 12, max_pairs: int = 10_000_000,
                order: str = "maxmin") -> ExactResult:
    """Game value in exact rationals, with one optimal memoryless strategy per player.

    order="maxmin" runs strategy iteration: the Maximizer, started from its
    attractor strategy, improves on strict exact gains, and each of its
    strategies is evaluated by the Minimizer's own strategy iteration, so a
    game takes a few chain solves. States outside the Maximizer's positive
    attractor of the targets get value 0. Both witnesses are optimal.
    order="minmax" enumerates every pair of memoryless deterministic
    strategies with the Minimizer outside, exponential by design; it gives
    the same values and is kept as an independent reference (its
    Maximizer witness is only a best response to the Minimizer's). Each
    action's row is scaled once per call to integers over the lcm of its
    denominators, and each induced chain is solved by fraction-free
    integer elimination (`_chain_reach`) into numerators over a common
    denominator. Strategy iteration compares actions on those integers
    (`_improve`) and turns only its final values into `Fraction`s; the
    enumeration converts each chain once. Nothing is kept on the game.

    The strategy sites are the non-target states in `game.can_reach` with
    a choice, not the partition's unknown states: this reference checks
    the partition's trap and value-1 analysis and must not rely on it.
    The game must pass `validate()`, as every parsed and generated game
    does: each chain solve relies on rows that sum to exactly 1.

    Raises TooLarge beyond max_states states, or under order="minmax"
    beyond max_pairs strategy pairs (strategy iteration takes a few chain
    solves however many pairs there are), before any row is scaled or chain
    solved, and then ValueError on a game that is not normalized, as the
    solvers do.
    """
    if order not in ("maxmin", "minmax"):
        raise ValueError("order must be 'maxmin' or 'minmax'")
    n = game.n_states
    free = sorted(game.can_reach - game.targets)
    max_sites = [s for s in free if game.owner[s] == MAX and len(game.actions[s]) > 1]
    min_sites = [s for s in free if game.owner[s] == MIN and len(game.actions[s]) > 1]
    pairs = math.prod(len(game.actions[s]) for s in max_sites + min_sites)
    if n > max_states or order == "minmax" and pairs > max_pairs:
        raise TooLarge(n, pairs)
    if not game.normalized:
        raise ValueError("game must be normalized first (see normalize())")

    rows, targets = _int_rows(game), set(game.targets)
    if order == "maxmin":
        solved = _strategy_iteration(game.owner, rows, targets, max_sites, min_sites)
    else:
        solved = _enumerate_minmax(rows, targets, max_sites, min_sites)
    values, max_prof, min_prof, evaluated = solved

    def to_labels(profile: dict[int, int], sites: list[int]) -> dict[int, str]:
        return {s: game.actions[s][profile.get(s, 0)].label for s in sites}

    return ExactResult(
        values=tuple(values),
        max_strategy=to_labels(max_prof, max_sites),
        min_strategy=to_labels(min_prof, min_sites),
        pairs_evaluated=evaluated,
    )
