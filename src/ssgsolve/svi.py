"""Value iteration with certified global bounds, for games with or without ECs.

The iteration tracks, per state, the k-step probability of having reached
the target (reach) and of never having left the undecided region (stay),
under the strategy pair chosen so far. Every state's value then lies in
[reach + stay*l, reach + stay*u] for any scalars l <= V <= u valid on the
undecided region, and such scalars are obtained by extrapolating the loop
geometry: reach/(1-stay) summed out. Raising l (or lowering u) too far
would invalidate the very action choices the vectors were computed with,
so each bound move is capped by the decision values - the bound levels at
which some state would switch its preferred action.

End components need two extra devices; traps, out of which the Maximizer
cannot force play, are sinks of the state partition and never enter the
pool. The members of every end component are herded toward its current
best exits (recomputed every iteration), and a Maximizer state inside an
end component whose fresh estimate would overshoot its previous upper
estimate is delayed: it keeps its old vector entries for one round.
States outside every end component are never delayed. Iterations with a
delay skip the global bound update.

Before the first sweep, the acyclic tail of the undecided pool is settled:
a state that lies on no cycle and whose successors are all decided gets
its exact one-step value, and from then on counts as decided, like a
frozen state (Azeem et al., "Optimistic and topological value iteration
for simple stochastic games", ATVA 2022, freeze states decided in
topological order the same way). Left in the pool, such a state would
keep its value among the bound candidates for good, so l and u could never
close past it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .graph import TIE_TOL, Mec, cached_mecs, handle_ecs, scc_decompose
from .model import MAX, MIN, DeltaTable, FloatRows, StatePartition, StochasticGame, dot, partition_states
from .results import SolveResult, TraceEntry

#: Strategy marker for a Maximizer state that kept its old vector this round.
DELAY = "DELAY"


@dataclass
class ReachStayVector:
    """Per-state k-step reach / stay probabilities under the current play."""

    reach: list[float]
    stay: list[float]
    k: int = 0


@dataclass(frozen=True)
class GlobalBounds:
    """Scalar bounds on all undecided states plus running decision values.

    d_l is the running minimum over Minimizer decision values (seeded 1),
    d_u the running maximum over Maximizer ones (seeded 0); they cap how
    far l may rise and u may fall.
    """

    l: float
    u: float
    d_l: float = 1.0
    d_u: float = 0.0


@dataclass
class StrategySnapshot:
    """First-step action choices of the current iteration.

    choices maps undecided states to an action label, or to DELAY for a
    Maximizer state that kept its old vector entries; delayed is the set of
    those states. bexit is the set of states forced into a best-exit action
    this iteration; None when EC handling is off (then no state is ever
    delayed either).
    """

    choices: dict[int, str]
    bexit: frozenset[int] | None = None
    delayed: frozenset[int] = frozenset()


class PoolFacts:
    """What every sweep of one solve needs to know about its fixed undecided pool.

    `first` maps each pool state, in ascending order, to the label of its
    only action, or to None when it has several; `multi` lists the latter
    in ascending order. `ec_max`, the Maximizer members of the pool's end
    components (the only states `bellman_update` may delay), is worked out
    on first use, so a solve without EC handling never decomposes the pool.
    """

    def __init__(self, game: StochasticGame, pool: frozenset[int],
                 ec_memo: dict[frozenset[int], list[Mec]]) -> None:
        self.game = game
        self.pool = pool
        self.ec_memo = ec_memo
        acts = game.actions
        self.first: dict[int, str | None] = {
            s: acts[s][0].label if len(acts[s]) == 1 else None for s in sorted(pool)}
        self.multi = tuple(s for s, label in self.first.items() if label is None)

    @cached_property
    def ec_max(self) -> frozenset[int]:
        owner = self.game.owner
        return frozenset(s for mec in cached_mecs(self.game, self.pool, self.ec_memo)
                         for s in mec.states if owner[s] == MAX)


def pool_facts(game: StochasticGame, partition: StatePartition) -> PoolFacts:
    """The `PoolFacts` of `partition.unknown`, computed once per pool in `partition.pool_memo`."""
    key = frozenset(partition.unknown)
    facts = partition.pool_memo.get(key)
    if facts is None:
        facts = partition.pool_memo[key] = PoolFacts(game, key, partition.ec_memo)
    return facts


def float_rows(game: StochasticGame) -> FloatRows:
    """The game's float transition table `game.rows`, indexed [state][action]."""
    return game.rows


def start_vector(game: StochasticGame, eps: float, part: StatePartition,
                 frozen: Mapping[int, float] | None) -> list[float]:
    """Check a solver's arguments and return its starting lower vector.

    Rejects an eps that is not positive (NaN included) and a game that is
    not normalized. Frozen states leave `part.unknown`. The vector is 1 on
    targets, the pinned value on frozen states and 0 everywhere else.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not game.is_normalized():
        raise ValueError("game must be normalized first (see normalize())")
    vec = [1.0 if s in part.targets else 0.0 for s in range(game.n_states)]
    for s, v in (frozen or {}).items():
        part.unknown.discard(s)
        vec[s] = v
    return vec


def settle_tail(game: StochasticGame, part: StatePartition, vec: list[float]) -> dict[int, str]:
    """Settle the undecided states on no cycle whose successors are all decided.

    Walks the SCCs of `part.unknown` successors first, so a state settled
    here counts as decided for the states upstream of it. Each settled
    state gets its exact one-step max (Maximizer) or min (Minimizer) value
    in `vec` and leaves `part.unknown`; the returned map gives its action:
    the lowest index within TIE_TOL of the optimum, as in `choose_actions`.
    A self-loop keeps a state undecided.
    """
    settled: dict[int, str] = {}
    for comp in scc_decompose(game, part.unknown):
        s = comp[0]
        rows = game.rows[s]
        if len(comp) > 1 or any(t in part.unknown for row in rows for t, _ in row):
            continue
        vals = [dot(row, vec) for row in rows]
        opt = min(vals) if game.owner[s] == MIN else max(vals)
        vec[s] = opt
        settled[s] = game.actions[s][tie_band(vals, opt)[0]].label
        part.unknown.discard(s)
    return settled


def tie_band(vals: Sequence[float], opt: float) -> list[int]:
    """Ascending positions of the values within TIE_TOL of the optimum opt.

    Every solver reports the first of them when nothing else decides: the
    lowest-index near-optimal action, not the one float noise favours.
    """
    return [i for i, v in enumerate(vals) if abs(v - opt) <= TIE_TOL]


def delta_tables(game: StochasticGame, s: int) -> DeltaTable:
    """State s's pairwise action differences, `game.deltas[s]`."""
    return game.deltas[s]


def _estimate(row: Sequence[tuple[int, float]], reach: list[float], stay: list[float],
              bound: float) -> float:
    acc = 0.0
    for t, p in row:
        acc += p * (reach[t] + stay[t] * bound)
    return acc


def choose_actions(game: StochasticGame, partition: StatePartition, rs: ReachStayVector,
                   bounds: GlobalBounds, B: set[tuple[int, str]] | None,
                   prev: StrategySnapshot | None) -> StrategySnapshot:
    """Pick each undecided state's action for the next sweep.

    Minimizer states take the argmin of the one-step estimate under l,
    Maximizer states the argmax under u - except that states holding a
    best exit in B (the pairs of `handle_ecs`; None when EC handling is
    off) are forced into it. Ties keep the previous choice when it is
    still in the argopt band, otherwise the lowest action index wins
    (`tie_band`), so runs are reproducible. The choices come in ascending
    state order.
    """
    facts = pool_facts(game, partition)
    rows, index, actions = game.rows, game.index, game.actions
    choices = dict(facts.first)  # one-action states are done; the others are overwritten below
    forced_at: dict[int, list[int]] = {}
    for s, a in B or ():
        if s in choices:
            forced_at.setdefault(s, []).append(index[s][a])
    prev_choices = prev.choices if prev is not None else {}
    for s, forced in forced_at.items():
        keep = index[s].get(prev_choices.get(s))
        choices[s] = actions[s][keep if keep in forced else min(forced)].label
    for s in facts.multi:
        if s in forced_at:
            continue
        minimize = game.owner[s] == MIN
        bound = bounds.l if minimize else bounds.u
        ests = [_estimate(row, rs.reach, rs.stay, bound) for row in rows[s]]
        band = tie_band(ests, min(ests) if minimize else max(ests))
        keep = index[s].get(prev_choices.get(s))
        choices[s] = actions[s][keep if keep in band else band[0]].label
    return StrategySnapshot(choices, frozenset(forced_at) if B is not None else None)


def decision_value(game: StochasticGame, rs: ReachStayVector, s: int, chosen: str) -> float | None:
    """Bound level at which state s would switch away from the chosen action.

    For every alternative beta whose stay-weighted distribution delta
    against the chosen action is positive, the crossing point is
    (reach-weighted delta of beta minus chosen) / (stay-weighted delta of
    chosen minus beta). Maximizer states report the largest crossing,
    Minimizer states the smallest; None when no alternative qualifies.
    """
    acts = game.actions[s]
    if len(acts) < 2:
        return None
    deltas = game.deltas[s]
    ci = game.index[s][chosen]
    maximize = game.owner[s] == MAX
    best: float | None = None
    for j in range(len(acts)):
        if j == ci:
            continue
        row = deltas[(ci, j)]
        d_stay = dot(row, rs.stay)
        if d_stay <= 0.0:
            continue
        val = -dot(row, rs.reach) / d_stay
        if best is None:
            best = val
        else:
            best = max(best, val) if maximize else min(best, val)
    return best


def bellman_update(game: StochasticGame, partition: StatePartition, rs: ReachStayVector,
                   strategy: StrategySnapshot, bounds: GlobalBounds,
                   ) -> tuple[ReachStayVector, StrategySnapshot, bool]:
    """One whole-vector sweep under the chosen actions, with delay detection.

    All candidates read the old vector (batch update). When EC handling is
    active (strategy.bexit is not None), a Maximizer state that lies in an
    end component of the undecided pool but outside the best-exit set, and
    whose candidate upper estimate exceeds its old one, is delayed: it
    keeps its old entries, its snapshot entry becomes DELAY and it joins
    the snapshot's delayed set. Rows of decided states never change.
    """
    rows, index, choices = game.rows, game.index, strategy.choices
    reach, stay = rs.reach, rs.stay
    new_reach = list(reach)
    new_stay = list(stay)
    for s in partition.unknown:
        # `dot2` inlined: this is the hottest loop of a solve
        r = st = 0.0
        for t, p in rows[s][index[s][choices[s]]]:
            r += p * reach[t]
            st += p * stay[t]
        new_reach[s] = r
        new_stay[s] = st

    delayed: set[int] = set()
    if strategy.bexit is not None:
        u = bounds.u
        for s in pool_facts(game, partition).ec_max - strategy.bexit:
            if new_reach[s] + new_stay[s] * u > reach[s] + stay[s] * u + TIE_TOL:
                delayed.add(s)
    new_choices = dict(choices)
    for s in delayed:
        new_reach[s] = reach[s]
        new_stay[s] = stay[s]
        new_choices[s] = DELAY
    return (
        ReachStayVector(new_reach, new_stay, rs.k + 1),
        StrategySnapshot(new_choices, strategy.bexit, frozenset(delayed)),
        bool(delayed),
    )


def update_global_bounds(partition: StatePartition, rs: ReachStayVector, bounds: GlobalBounds,
                         max_decvals: Sequence[float], min_decvals: Sequence[float],
                         any_delay: bool, use_decision_values: bool = True) -> GlobalBounds:
    """Fold this iteration's decision values, then tighten l and u if allowed.

    The tightening runs only when every undecided state has stay < 1,
    nothing was delayed this iteration (delays happen only with EC
    handling on), and there is at least one undecided state. Candidates
    are the loop extrapolations reach/(1-stay) of the undecided states.
    l rises to the smallest candidate, capped by d_l; u falls to the
    largest, floored by d_u. The use_decision_values=False variant drops
    the caps - it exists to demonstrate why they are needed and must never
    be used for real runs.
    """
    d_l, d_u = bounds.d_l, bounds.d_u
    for v in max_decvals:
        d_u = max(d_u, v)
    for v in min_decvals:
        d_l = min(d_l, v)
    l, u = bounds.l, bounds.u
    pool, reach, stay = partition.unknown, rs.reach, rs.stay
    if not any_delay and pool:
        cands = [reach[s] / (1.0 - stay[s]) for s in pool if stay[s] < 1.0]
        if len(cands) == len(pool):  # no undecided state has stay 1
            if use_decision_values:
                l = max(l, min(d_l, min(cands)))
                u = min(u, max(d_u, max(cands)))
            else:
                l = max(l, min(cands))
                u = min(u, max(cands))
    return GlobalBounds(l, u, d_l, d_u)


def check_termination(partition: StatePartition, rs: ReachStayVector, bounds: GlobalBounds,
                      eps: float, mode: str = "absolute") -> bool:
    """True when every undecided state's interval width is below 2*eps.

    The width of state s's interval is stay_s*(u-l). Relative mode divides
    stay_s by the state's upper estimate reach_s + stay_s*u first (0/0
    counts as 0: such a state is settled at value 0).
    """
    gap = bounds.u - bounds.l
    for s in partition.unknown:
        st = rs.stay[s]
        if mode == "relative":
            denom = rs.reach[s] + st * bounds.u
            st = 0.0 if denom == 0.0 else st / denom
        if st * gap >= 2.0 * eps:
            return False
    return True


def solve_svi(game: StochasticGame, eps: float = 1e-6, *, ec_handling: bool = True,
              mode: str = "absolute", max_iters: int = 10_000_000,
              frozen: Mapping[int, float] | None = None,
              use_decision_values: bool = True,
              record_vectors: bool = False) -> SolveResult:
    """Solve a normalized game to certified per-state precision eps.

    Settles the acyclic tail first (`settle_tail`); the pool, free of
    traps by the partition, is fixed from then on, so what the sweeps need
    to know about it (`PoolFacts`) is worked out once. Then runs the full
    loop: EC pass (unless ec_handling is off), action choice, decision
    values, batch sweep with delays, global bound update, termination
    test. On the iteration cap the result comes back with
    converged=False; its bounds are still valid, just wider than 2*eps.

    `frozen` pins the given states to fixed values (their reach entry),
    excluding them from the undecided pool; the topological driver uses
    this to feed already-solved downstream states into an upstream
    component. mode is "absolute" or "relative" (termination test only).
    """
    if mode not in ("absolute", "relative"):
        raise ValueError("mode must be 'absolute' or 'relative'")
    t0 = time.perf_counter()

    part = partition_states(game)
    n = game.n_states
    reach = start_vector(game, eps, part, frozen)
    last_choice = settle_tail(game, part, reach)
    part.unknown = frozenset(part.unknown)  # the pool is fixed from here on
    multi = pool_facts(game, part).multi
    stay = [1.0 if s in part.unknown else 0.0 for s in range(n)]
    rs = ReachStayVector(reach, stay, 0)
    bounds = GlobalBounds(0.0, 1.0)
    prev: StrategySnapshot | None = None
    trace: list[TraceEntry] = []
    vectors: list[tuple[list[float], list[float]]] = []

    it = 0
    converged = check_termination(part, rs, bounds, eps, mode)
    while not converged and it < max_iters:
        B = handle_ecs(game, rs.reach, rs.stay, bounds.u, part) if ec_handling else None
        snapshot = choose_actions(game, part, rs, bounds, B, prev)
        last_choice.update(snapshot.choices)
        max_dv: list[float] = []
        min_dv: list[float] = []
        for s in multi:
            dv = decision_value(game, rs, s, snapshot.choices[s])
            if dv is not None:
                (max_dv if game.owner[s] == MAX else min_dv).append(dv)
        rs, snapshot, any_delay = bellman_update(game, part, rs, snapshot, bounds)
        n_delayed = len(snapshot.delayed)
        new_bounds = update_global_bounds(part, rs, bounds, max_dv, min_dv, any_delay,
                                          use_decision_values=use_decision_values)
        it += 1
        gap = new_bounds.u - new_bounds.l
        max_gap = max([rs.stay[s] * gap for s in part.unknown], default=0.0)
        trace.append(TraceEntry(
            k=it, l=new_bounds.l, u=new_bounds.u, d_l=new_bounds.d_l, d_u=new_bounds.d_u,
            delayed=n_delayed,
            bounds_updated=(new_bounds.l, new_bounds.u) != (bounds.l, bounds.u),
            max_gap=max_gap, updates=len(part.unknown) - n_delayed,
        ))
        if record_vectors:
            vectors.append((
                [rs.reach[s] + rs.stay[s] * new_bounds.l for s in range(n)],
                [rs.reach[s] + rs.stay[s] * new_bounds.u for s in range(n)],
            ))
        bounds = new_bounds
        prev = snapshot
        converged = check_termination(part, rs, bounds, eps, mode)

    mid = (bounds.l + bounds.u) / 2.0
    lower = [rs.reach[s] + rs.stay[s] * bounds.l for s in range(n)]
    upper = [rs.reach[s] + rs.stay[s] * bounds.u for s in range(n)]
    value = [rs.reach[s] + rs.stay[s] * mid for s in range(n)]
    return SolveResult(
        algorithm="svi" if ec_handling else "svi-noec",
        iterations=it,
        converged=converged,
        global_lower=bounds.l,
        global_upper=bounds.u,
        lower=lower,
        upper=upper,
        value=value,
        strategy=last_choice,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        sound=True,
        trace=trace,
        vectors=vectors if record_vectors else None,
    )
