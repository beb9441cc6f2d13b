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

End components need two extra devices. Their members are herded toward the
current best exits of each component (recomputed every iteration), traps
without any Maximizer exit are moved to the sinks, and a Maximizer state
whose fresh estimate would overshoot its previous upper estimate is
delayed: it keeps its old vector entries for one round. Iterations with a
delay skip the global bound update.

A state whose stay hits exactly 0.0 is retired: its interval has collapsed
(value = reach, no dependence on l or u), so it is taken out of the
undecided pool and acts as a weighted terminal from then on. That keeps
long-solved states from pinning the global bounds at their frozen ratio.
Retirement alone would be unsound, though: other states' stay mass,
accumulated while the retired state was still undecided, may still rest on
it, and the global bounds must cover every state carrying such mass. The
solver therefore tracks, per undecided state, the set of states its stay
mass can sit on (the support), as an int bitset with bit t for state t;
whenever a retired state still appears in some live support, its exact
value joins the bound fold as a candidate, exactly as live extrapolations
do. Supports shrink as old mass washes out, so a retired state stops
constraining the bounds once nothing rests on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .graph import TIE_TOL, BestExitSet, handle_ecs
from .model import MAX, MIN, FloatRows, StatePartition, StochasticGame, partition_states
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
    Maximizer state that kept its old vector entries. bexit is the set of
    states forced into a best-exit action this iteration; None when EC
    handling is off (then no state is ever delayed either).
    """

    choices: dict[int, str]
    bexit: frozenset[int] | None = None


def float_rows(game: StochasticGame) -> FloatRows:
    """The game's float transition table `game.rows`, indexed [state][action]."""
    return game.rows


def start_vector(game: StochasticGame, eps: float, part: StatePartition,
                 frozen: Mapping[int, float] | None) -> list[float]:
    """Check a solver's arguments and return its starting lower vector.

    Rejects a non-positive eps and a game that is not normalized. Frozen
    states leave `part.unknown`. The vector is 1 on targets, the pinned
    value on frozen states and 0 everywhere else.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not game.is_normalized():
        raise ValueError("game must be normalized first (see normalize())")
    vec = [1.0 if s in part.targets else 0.0 for s in range(game.n_states)]
    for s, v in (frozen or {}).items():
        part.unknown.discard(s)
        vec[s] = v
    return vec


def delta_tables(game: StochasticGame, s: int) -> dict[tuple[int, int], tuple[tuple[int, float], ...]]:
    """Pairwise distribution differences of state s's actions.

    Entry (i, j) lists (successor, float(delta_i - delta_j)) over the
    union of both supports, skipping exact-zero differences. The
    subtraction happens on the exact rationals, so e.g. two decimal
    probabilities 0.5 and 0.4 differ by exactly one tenth.
    """
    acts = game.actions[s]
    dists = [dict(a.transitions) for a in acts]
    out: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
    for i in range(len(acts)):
        for j in range(len(acts)):
            if i == j:
                continue
            keys = sorted(set(dists[i]) | set(dists[j]))
            zero = Fraction(0)
            row = tuple(
                (t, float(w))
                for t in keys
                if (w := dists[i].get(t, zero) - dists[j].get(t, zero)) != 0
            )
            out[(i, j)] = row
    return out


def _estimate(row: Sequence[tuple[int, float]], reach: list[float], stay: list[float],
              bound: float) -> float:
    return sum(p * (reach[t] + stay[t] * bound) for t, p in row)


def choose_actions(game: StochasticGame, partition: StatePartition, rs: ReachStayVector,
                   bounds: GlobalBounds, B: BestExitSet | None,
                   prev: StrategySnapshot | None) -> StrategySnapshot:
    """Pick each undecided state's action for the next sweep.

    Minimizer states take the argmin of the one-step estimate under l,
    Maximizer states the argmax under u - except that states holding a
    best exit in B are forced into it. Ties keep the previous choice when
    it is still in the argopt band, otherwise the lowest action index
    wins, so runs are reproducible.
    """
    rows, index = game.rows, game.index
    forced_at: dict[int, list[int]] = {}
    if B is not None:
        for s, a in B.pairs:
            forced_at.setdefault(s, []).append(index[s][a])
    choices: dict[int, str] = {}
    bexit_states: set[int] = set()
    prev_choices = prev.choices if prev is not None else {}
    for s in sorted(partition.unknown):
        acts = game.actions[s]
        keep = index[s].get(prev_choices.get(s))
        forced = forced_at.get(s)
        if forced:
            choices[s] = acts[keep if keep in forced else min(forced)].label
            bexit_states.add(s)
            continue
        if len(acts) == 1:
            choices[s] = acts[0].label
            continue
        minimize = game.owner[s] == MIN
        bound = bounds.l if minimize else bounds.u
        ests = [_estimate(row, rs.reach, rs.stay, bound) for row in rows[s]]
        opt = min(ests) if minimize else max(ests)
        band = [i for i, e in enumerate(ests) if abs(e - opt) <= TIE_TOL]
        choices[s] = acts[keep if keep in band else band[0]].label
    return StrategySnapshot(choices, frozenset(bexit_states) if B is not None else None)


def decision_value(game: StochasticGame, rs: ReachStayVector, s: int, chosen: str,
                   deltas: Mapping[tuple[int, int], Sequence[tuple[int, float]]] | None = None,
                   ) -> float | None:
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
    if deltas is None:
        deltas = delta_tables(game, s)
    ci = game.index[s][chosen]
    maximize = game.owner[s] == MAX
    best: float | None = None
    for j in range(len(acts)):
        if j == ci:
            continue
        row = deltas[(ci, j)]
        d_stay = sum(w * rs.stay[t] for t, w in row)
        if d_stay <= 0.0:
            continue
        d_reach = -sum(w * rs.reach[t] for t, w in row)
        val = d_reach / d_stay
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
    active (strategy.bexit is not None), a Maximizer state outside the
    best-exit set whose candidate upper estimate exceeds its old one is
    delayed: it keeps its old entries and its snapshot entry becomes
    DELAY. Rows of decided states never change.
    """
    rows, index = game.rows, game.index
    cand: dict[int, tuple[float, float]] = {}
    for s in partition.unknown:
        row = rows[s][index[s][strategy.choices[s]]]
        r = sum(p * rs.reach[t] for t, p in row)
        st = sum(p * rs.stay[t] for t, p in row)
        cand[s] = (r, st)

    delayed: set[int] = set()
    if strategy.bexit is not None:
        u = bounds.u
        for s in partition.unknown:
            if game.owner[s] != MAX or s in strategy.bexit:
                continue
            r, st = cand[s]
            if r + st * u > rs.reach[s] + rs.stay[s] * u + TIE_TOL:
                delayed.add(s)

    new_reach = list(rs.reach)
    new_stay = list(rs.stay)
    for s, (r, st) in cand.items():
        if s not in delayed:
            new_reach[s] = r
            new_stay[s] = st
    new_choices = dict(strategy.choices)
    for s in delayed:
        new_choices[s] = DELAY
    return (
        ReachStayVector(new_reach, new_stay, rs.k + 1),
        StrategySnapshot(new_choices, strategy.bexit),
        bool(delayed),
    )


def update_global_bounds(partition: StatePartition, rs: ReachStayVector, bounds: GlobalBounds,
                         max_decvals: Sequence[float], min_decvals: Sequence[float],
                         any_delay: bool, ec_mode: bool = True,
                         use_decision_values: bool = True,
                         pinned: Sequence[float] = ()) -> GlobalBounds:
    """Fold this iteration's decision values, then tighten l and u if allowed.

    The tightening runs only when every undecided state has stay < 1, (in
    EC mode) nothing was delayed this iteration, and there is at least one
    candidate value. Candidates are the loop extrapolations reach/(1-stay)
    of the undecided states plus the `pinned` values - exact values of
    retired states that some undecided state's stay mass may still rest
    on. l rises to the smallest candidate, capped by d_l; u falls to the
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
    pool = partition.unknown
    gate = all(rs.stay[s] < 1.0 for s in pool) and not (ec_mode and any_delay)
    if gate:
        cands = [rs.reach[s] / (1.0 - rs.stay[s]) for s in pool]
        cands.extend(pinned)
        if cands:
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

    Runs the full loop: EC pass (unless ec_handling is off), action
    choice, decision values, batch sweep with delays, retirement of
    states whose stay reached exactly 0, global bound update, termination
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
    stay = [1.0 if s in part.unknown else 0.0 for s in range(n)]
    rs = ReachStayVector(reach, stay, 0)
    bounds = GlobalBounds(0.0, 1.0)
    rows, index = float_rows(game), game.index
    deltas = {s: delta_tables(game, s) for s in part.unknown if len(game.actions[s]) > 1}

    # supp[s]: bitset of the states that s's stay mass may currently rest
    # on. Seeded with s itself (k=0 mass sits at home); resweeps follow the
    # chosen action. Every state outside the undecided pool has supp 0, so
    # the sweep can OR over all successors.
    supp = [0] * n
    for s in part.unknown:
        supp[s] = 1 << s
    retired_mask = 0   # retired or trapped states
    retired_vals: dict[int, float] = {}

    prev: StrategySnapshot | None = None
    last_choice: dict[int, str] = {}
    trace: list[TraceEntry] = []
    vectors: list[tuple[list[float], list[float]]] = []
    ec_mode = ec_handling

    it = 0
    converged = check_termination(part, rs, bounds, eps, mode)
    while not converged and it < max_iters:
        B = handle_ecs(game, rs.reach, rs.stay, bounds.u, part) if ec_mode else None
        if B is not None:
            for t in B.removed_trap_states:
                retired_vals[t] = 0.0
                retired_mask |= 1 << t
                supp[t] = 0
        snapshot = choose_actions(game, part, rs, bounds, B, prev)
        max_dv: list[float] = []
        min_dv: list[float] = []
        for s in part.unknown:
            if len(game.actions[s]) > 1:
                dv = decision_value(game, rs, s, snapshot.choices[s], deltas[s])
                if dv is not None:
                    (max_dv if game.owner[s] == MAX else min_dv).append(dv)
        rs, snapshot, any_delay = bellman_update(game, part, rs, snapshot, bounds)
        last_choice.update(snapshot.choices)
        n_delayed = sum(1 for v in snapshot.choices.values() if v == DELAY)
        updates = len(part.unknown) - n_delayed
        # batch support sweep: mass moves to where the chosen action sends
        # it, restricted to states still undecided at sweep time; a delayed
        # state keeps its support
        new_supp = list(supp)
        for s in part.unknown:
            label = snapshot.choices[s]
            if label != DELAY:
                acc = 0
                for t, _ in rows[s][index[s][label]]:
                    acc |= supp[t]
                new_supp[s] = acc
        supp = new_supp
        # states with stay exactly 0 are decided; drop them from the pool
        # but keep their exact value around for the bound fold
        just_retired = [s for s in part.unknown if rs.stay[s] == 0.0]
        for s in just_retired:
            part.unknown.discard(s)
            retired_vals[s] = rs.reach[s]
            retired_mask |= 1 << s
            supp[s] = 0
        pinned = {retired_vals[s] for s in just_retired}
        live = 0
        for s in part.unknown:
            live |= supp[s]
        resting = live & retired_mask
        while resting:
            low = resting & -resting
            pinned.add(retired_vals[low.bit_length() - 1])
            resting ^= low
        new_bounds = update_global_bounds(part, rs, bounds, max_dv, min_dv, any_delay,
                                          ec_mode=ec_mode,
                                          use_decision_values=use_decision_values,
                                          pinned=sorted(pinned))
        it += 1
        max_gap = max((rs.stay[s] * (new_bounds.u - new_bounds.l) for s in part.unknown),
                      default=0.0)
        trace.append(TraceEntry(
            k=it, l=new_bounds.l, u=new_bounds.u, d_l=new_bounds.d_l, d_u=new_bounds.d_u,
            delayed=n_delayed,
            bounds_updated=(new_bounds.l, new_bounds.u) != (bounds.l, bounds.u),
            max_gap=max_gap, updates=updates,
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
    strategy = {s: a for s, a in last_choice.items() if s not in part.sinks}
    return SolveResult(
        algorithm="svi" if ec_mode else "svi-noec",
        iterations=it,
        converged=converged,
        global_lower=bounds.l,
        global_upper=bounds.u,
        lower=lower,
        upper=upper,
        value=value,
        strategy=strategy,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        sound=True,
        trace=trace,
        vectors=vectors if record_vectors else None,
    )
