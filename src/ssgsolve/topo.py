"""Topological solving: one SCC at a time, downstream first.

Value dependencies follow the edge relation, so the strongly connected
components can be solved in reverse topological order with everything
downstream already decided. A game whose states the partition decides
entirely needs no plan and no sweep. A component of one state depends on
decided states and on itself only, and the driver settles it in closed
form (`closed_form`): an action without a self-loop is worth its one-step
value, one with a self-loop its exit mass weighted by the decided values
over its exit mass, rounded outward; the state takes the optimum over the
lowers and over the uppers. Any other component's undecided states are
solved as the pool of an inner pool solve (`svi.solve_svi_pool`,
`baselines.solve_bvi_pool`) twice: once on a copy of the lower side of
the bracket and once on a copy of the upper side. The run owns its copy
and writes into it; it reads it only at the pool and the pool's
successors, the only states the component's values depend on. By
monotonicity of the value in the successors' values the first run's
lowers and the second run's uppers bound the true values. When the
successors are already tight (lower == upper for each, the common case)
a single run suffices. Local precision is eps / (1 + depth), depth
counted from the source components, so upstream components absorb the
error their successors carry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .baselines import solve_bvi_pool
from .graph import scc_decompose
from .model import MAX, StatePartition, StochasticGame, partition_states
from .results import SolveResult, TraceEntry
from .svi import argopt, solve_svi_pool, start_vector

#: pool solves, called as solver(game, part, vec, eps, max_iters); each owns part and vec,
#: writes into vec and reads it only at the pool and the pool's successors
INNER_SOLVERS: dict[str, Callable[..., SolveResult]] = {
    "svi": solve_svi_pool,
    "bvi": solve_bvi_pool,
}

#: Unit roundoff of binary64: u in Higham's gamma_n = n*u / (1 - n*u).
_U = 2.0 ** -53
#: 2**53 times the least normal float: a sum at least this large turns the
#: absolute errors of underflow into relative ones below u**2.
_TINY = 2.0 ** -969


@dataclass
class SccEntry:
    """One component of the plan, in solving order."""

    index: int
    states: tuple[int, ...]
    depth: int
    eps_local: float
    kind: str  # "unknown" has an undecided state, "decided" is all-target or all-sink


@dataclass
class SccPlan:
    """Solve schedule: components in reverse topological order, with budgets."""

    entries: list[SccEntry]

    def unknown_entries(self) -> list[SccEntry]:
        return [e for e in self.entries if e.kind == "unknown"]


def build_plan(game: StochasticGame, eps: float) -> SccPlan:
    """Decompose into SCCs and assign each its local precision budget.

    Components come out downstream-first. Depth is the longest predecessor
    chain in the component DAG (0 at the sources), found in one pass over
    `game.succs`. A component whose states the partition (`game.split`)
    decided, targets (the almost-sure winners included) and sinks, is
    "decided" and costs no sweep. A component with an undecided state is
    solved as a whole ("unknown"). It may also hold decided states: a trap
    inside a cycle, such as a Minimizer state that can loop forever but
    also step to a Maximizer state that gambles on the target and else
    returns, or an almost-sure winner beside a state that can leave for a
    sink. The inner solver keeps those at 0 and 1, as it does every sink
    and target.
    """
    unknown = game.split.unknown
    comps = scc_decompose(game)
    comp_of = [0] * game.n_states
    for i, comp in enumerate(comps):
        for s in comp:
            comp_of[s] = i
    depth = [0] * len(comps)
    # reversed list is topological (predecessors first), so depth[i] is final when passed on
    for i in reversed(range(len(comps))):
        for s in comps[i]:
            for t in game.succs[s]:
                if comp_of[t] != i:
                    depth[comp_of[t]] = max(depth[comp_of[t]], depth[i] + 1)
    entries = []
    for i, comp in enumerate(comps):
        kind = "unknown" if any(s in unknown for s in comp) else "decided"
        entries.append(SccEntry(
            index=i,
            states=tuple(comp),
            depth=depth[i],
            eps_local=eps / (1 + depth[i]),
            kind=kind,
        ))
    return SccPlan(entries)


def closed_form(game: StochasticGame, s: int, lo: list[float],
                hi: list[float]) -> tuple[float, float, int]:
    """State s's value bracket when every successor but s itself is decided.

    Returns (lower, upper, action position), read from the lowers `lo`
    and the uppers `hi` of the successors in one pass over each row. An
    action without a self-loop is worth its one-step value, the row's sum
    of p * v[t] added left to right from 0.0, as `svi.best_step` adds it.
    An action with a self-loop is worth r / out, where r sums p * v[t] and
    out sums p over the transitions with t != s: with q the self-loop mass
    that is r / (1 - q), the value of playing the action until play leaves
    s. `1.0 - q` is never formed: near q = 1 the subtraction would scale
    the rounding error of the float q by q / (1 - q). An action whose
    whole mass loops (no exit) is worth 0. The state takes the max over
    its actions (Maximizer) or the min (Minimizer); the action is the
    lowest position within TIE_TOL of the optimum on the lowers (`argopt`).

    Only a quotient is rounded outward: the lower by the factor 1 - m,
    the upper by 1 + m, clamped at 1, with m = (4k+4)u for k exits and
    u = 2**-53. Why that suffices (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, Lemma 3.1): with exact probabilities p_t
    the true quotient is x* = R / O, R = sum p_t v_t, O = sum p_t. Every
    float p_t carries one rounding, every product one more, and each term
    at most k - 1 additions, so for these nonnegative terms the computed
    r lies in R * [(1-u)^(k+1), (1+u)^(k+1)] and out in O * [(1-u)^k,
    (1+u)^k]; with the division the computed quotient is x*(1 + theta),
    |theta| <= gamma_(2k+2). The last product rounds once more, so the
    lower is at most x*(1 + gamma_(2k+2))(1 + u)(1 - m) <= x* and the
    upper at least x*(1 - gamma_(2k+2))(1 - u)(1 + m) >= x*, which m =
    (2k+4)u already gives for k below 2**20; the doubled m keeps a wide
    margin. A subnormal product or probability errs by up to 2**-1075
    absolutely, below u**2 relative to a sum of at least `_TINY`; a sum
    below it gives a lower of 0 and an upper of the largest exit upper,
    bounds on a weighted average that need no arithmetic. Zeros stay
    exact, so an exit to sinks only is worth exactly 0. The value is
    monotone in the successors' values, so the bracket holds the true
    value whenever lo and hi bracket the successors'.
    """
    lows, highs = [], []
    for row in game.rows[s]:
        x = y = out = 0.0
        k = 0
        loops = False
        for t, p in row:
            if t == s:
                loops = True
                continue
            x += p * lo[t]
            y += p * hi[t]
            out += p
            k += 1
        if loops:
            m = (4 * k + 4) * _U
            x = x / out * (1.0 - m) if x >= _TINY and out >= _TINY else 0.0
            y = (min(1.0, y / out * (1.0 + m)) if y >= _TINY and out >= _TINY
                 else max((hi[t] for t, _ in row if t != s), default=0.0))
        lows.append(x)
        highs.append(y)
    maximize = game.owner[s] == MAX
    lower, i = argopt(lows, maximize)
    return lower, max(highs) if maximize else min(highs), i


def solve_topological(game: StochasticGame, eps: float = 1e-6, inner: str = "svi",
                      max_iters: int = 10_000_000) -> SolveResult:
    """Solve SCC by SCC with the given inner pool solve around the decided successors.

    Returns one merged result; trace entries carry the component index they
    came from. The strategy is taken from each component's run on the
    lower side, whose Maximizer choices certify the reported lower bounds; the partition's almost-sure winners carry their attractor
    action, whichever component they lie in. The plan (`build_plan`) is
    only the schedule, built only when the partition leaves a state
    undecided: the bounds and sweep counts of the components live in this
    call. Each inner run owns a fresh copy of a whole side of the bracket
    (`INNER_SOLVERS`). A component of one state, with or without a
    self-loop, gets no inner run: `closed_form` gives its bracket and its
    action. `max_iters` bounds the sweeps of the whole solve: each inner
    run gets what the runs before it left.
    Once none is left, the later components get no sweep; their runs
    return valid brackets, unconverged unless already tight.
    """
    if inner not in INNER_SOLVERS:
        raise ValueError(f"unknown inner algorithm {inner!r}")
    t0 = time.perf_counter()
    solver = INNER_SOLVERS[inner]
    part = partition_states(game)
    lo = start_vector(game, eps, part)  # states not yet decided are unreachable from a component
    hi = list(lo)
    trace: list[TraceEntry] = []
    strategy = dict(part.attractor)
    iterations = 0
    converged = True
    entries = build_plan(game, eps).unknown_entries() if part.unknown else []
    for entry in entries:
        s, *others = entry.states
        if not others:
            # every successor but s itself is downstream, so decided
            lo[s], hi[s], i = closed_form(game, s, lo, hi)
            strategy[s] = game.actions[s][i].label
            continue
        # the states inside are still at their start values, where lo == hi
        loose = any(lo[t] != hi[t] for u in entry.states for t in game.succs[u])
        runs = []
        for vec in ([list(lo), list(hi)] if loose else [list(lo)]):
            run = solver(game, StatePartition(part.targets, part.sinks,
                                              part.unknown.intersection(entry.states)),
                         vec, entry.eps_local, max_iters - iterations)
            for t in run.trace:
                t.scc = entry.index
            trace.extend(run.trace)
            iterations += run.iterations
            converged = converged and run.converged
            runs.append(run)
        for s in entry.states:
            lo[s] = runs[0].lower[s]
            hi[s] = runs[-1].upper[s]
        strategy.update(runs[0].strategy)
    return SolveResult(
        algorithm=f"topo-{inner}",
        iterations=iterations,
        converged=converged,
        global_lower=min((lo[s] for s in part.unknown), default=0.0),
        global_upper=max((hi[s] for s in part.unknown), default=1.0),
        lower=lo,
        upper=hi,
        value=[(a + b) / 2.0 for a, b in zip(lo, hi)],
        strategy=strategy,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        sound=True,
        trace=trace,
    )
