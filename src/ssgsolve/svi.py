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
pool, and neither do the states the Maximizer wins almost surely, which
the partition counts among the targets at value 1 (reported with their
attractor actions). The members of every end component are herded
toward its current best exits (recomputed every iteration), and a
Maximizer state inside an end component whose fresh estimate would
overshoot its previous upper estimate is delayed: it keeps its old
vector entries for one round.
States outside every end component are never delayed. Iterations with a
delay skip the global bound update.

Before the first sweep, the acyclic tail of the undecided pool is settled:
a state that lies on no cycle and whose successors are all decided gets
its exact one-step value, and from then on counts as decided, like the
states around a topological component (Azeem et al., "Optimistic and
topological value iteration for simple stochastic games", ATVA 2022,
decide states in topological order the same way). Left in the pool,
such a state would keep its value among the bound candidates for good,
so l and u could never close past it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .graph import TIE_TOL, cached_mecs, handle_ecs, scc_decompose
from .model import (MAX, MIN, DeltaTable, FloatRows, StatePartition, StochasticGame, dot, dot2,
                    partition_states)
from .results import SolveResult, TraceEntry

#: Strategy marker for a Maximizer state that kept its old vector this round;
#: no action position equals it, so the next round sees no previous choice.
DELAY = None


@dataclass
class ReachStayVector:
    """Per-state k-step reach / stay probabilities under the current play."""

    reach: list[float]
    stay: list[float]


@dataclass(frozen=True)
class GlobalBounds:
    """Scalar bounds on all undecided states plus running decision values.

    d_l is the running minimum over Minimizer decision values (seeded 1),
    d_u the running maximum over Maximizer ones (seeded 0); they cap how
    far l may rise and u may fall, and the seeds cap no candidate in
    [0, 1]. Once d_l <= l, l can never rise again,
    and once d_u >= u, u can never fall: the cap has pinned its bound, so
    `solve_svi_pool` stops computing its side's decision values and the
    cap stays frozen at the value that pinned it.
    """

    l: float
    u: float
    d_l: float = 1.0
    d_u: float = 0.0


@dataclass
class StrategySnapshot:
    """First-step action choices of the current iteration.

    choices maps undecided states to an action position (the index into
    `game.rows[s]`), or to DELAY for a Maximizer state that kept its old
    vector entries; delayed is the set of those states. bexit is the set
    of states forced into a best-exit action this iteration; None when EC
    handling is off (then no state is ever delayed either).
    """

    choices: dict[int, int | None]
    bexit: frozenset[int] | None = None
    delayed: frozenset[int] = frozenset()


class PoolFacts:
    """What every sweep of one solve needs to know about its fixed undecided pool.

    `solve_svi_pool` builds one per solve, once the pool `part.unknown` is
    fixed. `order` lists the pool states in ascending order, `multi` those
    with several actions, also ascending. `ec_max` lists the delay
    candidates of `bellman_update`, the Maximizer states of the pool's
    maximal end components, in ascending order. It is worked out on first
    read, from the decomposition that the EC pass keeps in `part.ec_memo`,
    so a solve that never sweeps with EC handling on never decomposes.
    """

    def __init__(self, game: StochasticGame, part: StatePartition) -> None:
        self.game, self.part = game, part
        self.order = tuple(sorted(part.unknown))
        self.multi = tuple(s for s in self.order if len(game.rows[s]) > 1)

    @cached_property
    def ec_max(self) -> tuple[int, ...]:
        game, part = self.game, self.part
        return tuple(sorted(s for comp in cached_mecs(game, part.unknown, part.ec_memo)
                            for s in comp if game.owner[s] == MAX))


def float_rows(game: StochasticGame) -> FloatRows:
    """The game's float transition table `game.rows`, indexed [state][action]."""
    return game.rows


def start_vector(game: StochasticGame, eps: float, part: StatePartition) -> list[float]:
    """Check a solver's arguments and return its starting lower vector.

    Rejects an eps that is not positive (NaN included) and a game that is
    not normalized. The vector is 1 on targets and 0 everywhere else.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not game.normalized:
        raise ValueError("game must be normalized first (see normalize())")
    return [1.0 if s in part.targets else 0.0 for s in range(game.n_states)]


def settle_tail(game: StochasticGame, part: StatePartition, vec: list[float]) -> dict[int, int]:
    """Settle the undecided states on no cycle whose successors are all decided.

    Walks the SCCs of `part.unknown` successors first, so a state settled
    here counts as decided for the states upstream of it. Each settled
    state gets its exact one-step value (`best_step`) in `vec` and leaves
    `part.unknown`; the returned map gives its action position: the lowest
    within TIE_TOL of the optimum, as in `choose_actions`.
    A self-loop keeps a state undecided. (`topo` settles the one-state
    components of its plan itself, self-loops included: `topo.closed_form`.)
    """
    settled: dict[int, int] = {}
    for comp in scc_decompose(game, part.unknown):
        s = comp[0]
        if len(comp) > 1 or any(t in part.unknown for t in game.succs[s]):
            continue
        vec[s], settled[s] = best_step(game, s, vec)
        part.unknown.discard(s)
    return settled


def argopt(vals: Sequence[float], maximize: bool) -> tuple[float, int]:
    """The optimum of vals and the lowest position within TIE_TOL of it.

    Every solver reports that position when nothing else decides: the
    lowest-index near-optimal action, not the one float noise favours.
    """
    opt = max(vals) if maximize else min(vals)
    return opt, next(i for i, v in enumerate(vals) if abs(v - opt) <= TIE_TOL)


def best_step(game: StochasticGame, s: int, vec: list[float]) -> tuple[float, int]:
    """State s's one-step optimum over vec and its action position (`argopt`).

    The max for a Maximizer state, the min for a Minimizer one. When every
    successor of s is decided in vec, this is s's exact value.
    """
    return argopt([dot(row, vec) for row in game.rows[s]], game.owner[s] == MAX)


def delta_tables(game: StochasticGame, s: int) -> DeltaTable:
    """State s's pairwise action differences, `game.deltas[s]`."""
    return game.deltas[s]


def choose_actions(game: StochasticGame, facts: PoolFacts, rs: ReachStayVector,
                   bounds: GlobalBounds, B: set[tuple[int, int]] | None,
                   prev: StrategySnapshot | None) -> StrategySnapshot:
    """Pick the action of each state of the pool `facts.order` for the next sweep.

    Minimizer states take the argmin of the one-step estimate under l,
    Maximizer states the argmax under u - except that states holding a
    best exit in B (the (state, action position) pairs of `handle_ecs`,
    whose states are all in the pool; None when EC handling is off) are
    forced into it. Ties keep the previous choice when it is still in the
    argopt band, otherwise the lowest position wins (`argopt`), so runs
    are reproducible. The choices are action positions, in ascending
    state order; a delayed state's DELAY counts as no previous choice.
    """
    rows, owner = game.rows, game.owner
    reach, stay = rs.reach, rs.stay
    choices: dict[int, int | None] = dict.fromkeys(facts.order, 0)  # multi states overwritten below
    forced_at: dict[int, list[int]] = {}
    for s, i in B or ():
        forced_at.setdefault(s, []).append(i)
    prev_choices = prev.choices if prev is not None else {}
    for s, forced in forced_at.items():
        keep = prev_choices.get(s)
        choices[s] = keep if keep in forced else min(forced)
    for s in facts.multi:
        if s in forced_at:
            continue
        minimize = owner[s] == MIN
        bound = bounds.l if minimize else bounds.u
        ests = []
        for row in rows[s]:  # the one-step estimate, added left to right like `dot`
            acc = 0.0
            for t, p in row:
                acc += p * (reach[t] + stay[t] * bound)
            ests.append(acc)
        opt = min(ests) if minimize else max(ests)
        keep = prev_choices.get(s)
        if keep is None or not abs(ests[keep] - opt) <= TIE_TOL:
            # the lowest position within TIE_TOL of opt, as `argopt` picks it
            keep = next(i for i, v in enumerate(ests) if abs(v - opt) <= TIE_TOL)
        choices[s] = keep
    return StrategySnapshot(choices, frozenset(forced_at) if B is not None else None)


def decision_value(game: StochasticGame, rs: ReachStayVector, s: int, chosen: int) -> float | None:
    """Bound level at which state s would switch away from the action at position chosen.

    For every alternative beta whose stay-weighted distribution delta
    against the chosen action is positive, the crossing point is
    (reach-weighted delta of beta minus chosen) / (stay-weighted delta of
    chosen minus beta). Maximizer states report the largest crossing,
    Minimizer states the smallest; None when no alternative qualifies.
    """
    deltas = game.deltas[s]
    maximize = game.owner[s] == MAX
    best: float | None = None
    for j in range(len(game.rows[s])):
        if j == chosen:
            continue
        d_reach, d_stay = dot2(deltas[(chosen, j)], rs.reach, rs.stay)
        if d_stay <= 0.0:
            continue
        val = -d_reach / d_stay
        if best is None:
            best = val
        else:
            best = max(best, val) if maximize else min(best, val)
    return best


def bellman_update(game: StochasticGame, facts: PoolFacts, rs: ReachStayVector,
                   strategy: StrategySnapshot, bounds: GlobalBounds,
                   ) -> tuple[ReachStayVector, StrategySnapshot]:
    """One whole-vector sweep under the chosen actions, with delay detection.

    Each state of the pool `facts.order` reads its row
    `game.rows[s][choices[s]]`, and all read the old vector (batch
    update). When EC handling is active (strategy.bexit is not None), a
    delay candidate (`facts.ec_max`) outside the best-exit set whose
    candidate upper estimate exceeds its old one is delayed: it keeps its
    old entries, its snapshot entry becomes DELAY and it joins the
    snapshot's delayed set. Rows of decided states never change. Without
    a delay the new snapshot shares `strategy.choices`; no caller mutates
    a snapshot's map.
    """
    rows, choices = game.rows, strategy.choices
    reach, stay = rs.reach, rs.stay
    new_reach = list(reach)
    new_stay = list(stay)
    for s in facts.order:
        # `dot2` inlined: this is the hottest loop of a solve
        r = st = 0.0
        for t, p in rows[s][choices[s]]:
            r += p * reach[t]
            st += p * stay[t]
        new_reach[s] = r
        new_stay[s] = st

    delayed: set[int] = set()
    if strategy.bexit is not None:
        u, bexit = bounds.u, strategy.bexit
        for s in facts.ec_max:
            if s not in bexit and new_reach[s] + new_stay[s] * u > reach[s] + stay[s] * u + TIE_TOL:
                delayed.add(s)
    if delayed:  # the choice map is copied only to mark its delayed states
        choices = dict(choices)
        for s in delayed:
            new_reach[s] = reach[s]
            new_stay[s] = stay[s]
            choices[s] = DELAY
    return (ReachStayVector(new_reach, new_stay),
            StrategySnapshot(choices, strategy.bexit, frozenset(delayed)))


def update_global_bounds(partition: StatePartition, rs: ReachStayVector, bounds: GlobalBounds,
                         max_decvals: Sequence[float], min_decvals: Sequence[float],
                         any_delay: bool) -> GlobalBounds:
    """Fold this iteration's decision values, then tighten l and u if allowed.

    The tightening runs only when every undecided state has stay < 1,
    nothing was delayed this iteration (delays happen only with EC
    handling on), and there is at least one undecided state. Candidates
    are the loop extrapolations reach/(1-stay) of the undecided states.
    l rises to the smallest candidate, capped by d_l; u falls to the
    largest, floored by d_u. Once both caps have pinned their bounds
    (d_l <= l and d_u >= u) no candidate can move either, and they are
    not computed.
    """
    d_l, d_u = bounds.d_l, bounds.d_u
    for v in max_decvals:
        d_u = max(d_u, v)
    for v in min_decvals:
        d_l = min(d_l, v)
    l, u = bounds.l, bounds.u
    pool, reach, stay = partition.unknown, rs.reach, rs.stay
    if not any_delay and pool and not (d_l <= l and d_u >= u):
        cands = [reach[s] / (1.0 - stay[s]) for s in pool if stay[s] < 1.0]
        if len(cands) == len(pool):  # no undecided state has stay 1
            l = max(l, min(d_l, min(cands)))
            u = min(u, max(d_u, max(cands)))
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
              record_vectors: bool = False) -> SolveResult:
    """Solve a normalized game to certified per-state precision eps: `solve_svi_pool` on its partition."""
    t0 = time.perf_counter()
    part = partition_states(game)
    return solve_svi_pool(game, part, start_vector(game, eps, part), eps, max_iters, t0=t0,
                          ec_handling=ec_handling, mode=mode, record_vectors=record_vectors)


def _bracket(rs: ReachStayVector, pool: frozenset[int], level: float) -> list[float]:
    """reach + stay*level per state; outside the pool stay is 0, so a copy of reach does."""
    out = list(rs.reach)
    for s in pool:
        out[s] = rs.reach[s] + rs.stay[s] * level
    return out


def solve_svi_pool(game: StochasticGame, part: StatePartition, vec: list[float], eps: float,
                   max_iters: int, *, t0: float | None = None, ec_handling: bool = True,
                   mode: str = "absolute", record_vectors: bool = False) -> SolveResult:
    """Solve the pool `part.unknown`, around the values `vec` holds for every other state.

    The pool must hold no trap and no state of value 1, as the partition
    ensures; `part` and `vec` are the solve's own. Settles the acyclic
    tail first (`settle_tail`); the pool is fixed from then on, so what
    the sweeps need to know about it is worked out once, into the
    `PoolFacts` that `choose_actions` and `bellman_update` read.
    Then runs the full loop: EC pass (unless ec_handling is off), action
    choice, decision values, batch sweep with delays, global bound update,
    termination test. A side's decision values are computed only while
    its cap can still move its bound (Minimizer: d_l > l, Maximizer:
    d_u < u; see `GlobalBounds`). On the iteration cap the result comes
    back with converged=False; its bounds are still valid, just wider
    than 2*eps.
    mode is "absolute" or "relative" (termination test only); wall_ms
    counts from t0 (default: the call). The strategy names
    `part.attractor` and the pool; its action positions become labels
    here and nowhere earlier. Set-up is pool-sized but for list
    copies: topo calls this per component.
    """
    if mode not in ("absolute", "relative"):
        raise ValueError("mode must be 'absolute' or 'relative'")
    t0 = time.perf_counter() if t0 is None else t0
    settled = settle_tail(game, part, vec)
    pool = part.unknown = frozenset(part.unknown)  # the pool is fixed from here on
    facts = PoolFacts(game, part)
    owner = game.owner
    stay = [0.0] * game.n_states
    for s in pool:
        stay[s] = 1.0
    rs = ReachStayVector(vec, stay)
    bounds = GlobalBounds(0.0, 1.0)
    prev: StrategySnapshot | None = None
    last_choices: dict[int, int | None] = {}
    trace: list[TraceEntry] = []
    vectors: list[tuple[list[float], list[float]]] = []

    it = 0
    converged = check_termination(part, rs, bounds, eps, mode)
    while not converged and it < max_iters:
        B = handle_ecs(game, rs.reach, rs.stay, bounds.u, part) if ec_handling else None
        snapshot = choose_actions(game, facts, rs, bounds, B, prev)
        last_choices = snapshot.choices
        max_dv: list[float] = []
        min_dv: list[float] = []
        # a pinned cap can no longer move its bound: skip its side's decision values
        want = {MIN: bounds.d_l > bounds.l, MAX: bounds.d_u < bounds.u}
        if want[MIN] or want[MAX]:
            for s in facts.multi:
                side = owner[s]
                if want[side]:
                    dv = decision_value(game, rs, s, snapshot.choices[s])
                    if dv is not None:
                        (max_dv if side == MAX else min_dv).append(dv)
        rs, snapshot = bellman_update(game, facts, rs, snapshot, bounds)
        n_delayed = len(snapshot.delayed)
        new_bounds = update_global_bounds(part, rs, bounds, max_dv, min_dv, n_delayed > 0)
        it += 1
        gap = new_bounds.u - new_bounds.l
        # max(stay[s] * gap): rounding is monotone, so the extreme stay gives it exactly
        extreme = max if gap >= 0.0 else min
        max_gap = gap * extreme(map(rs.stay.__getitem__, pool), default=0.0)
        trace.append(TraceEntry(
            k=it, l=new_bounds.l, u=new_bounds.u, d_l=new_bounds.d_l, d_u=new_bounds.d_u,
            delayed=n_delayed,
            bounds_updated=(new_bounds.l, new_bounds.u) != (bounds.l, bounds.u),
            max_gap=max_gap, updates=len(pool) - n_delayed,
        ))
        if record_vectors:
            vectors.append((_bracket(rs, pool, new_bounds.l), _bracket(rs, pool, new_bounds.u)))
        bounds = new_bounds
        prev = snapshot
        converged = check_termination(part, rs, bounds, eps, mode)

    return SolveResult(
        algorithm="svi" if ec_handling else "svi-noec",
        iterations=it,
        converged=converged,
        global_lower=bounds.l,
        global_upper=bounds.u,
        lower=_bracket(rs, pool, bounds.l),
        upper=_bracket(rs, pool, bounds.u),
        value=_bracket(rs, pool, (bounds.l + bounds.u) / 2.0),
        strategy={**part.attractor,
                  **{s: game.actions[s][i].label for s, i in (settled | last_choices).items()}},
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        sound=True,
        trace=trace,
        vectors=vectors if record_vectors else None,
    )
