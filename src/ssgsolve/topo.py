"""Topological solving: one SCC at a time, downstream first.

Value dependencies follow the edge relation, so the strongly connected
components can be solved in reverse topological order with everything
downstream already decided. A game whose states the partition decides
entirely needs no plan and no sweep. A component of one state without a
self-loop depends on decided states only, and the driver settles it in
one step: its one-step optimum over the lowers and over the uppers. Any
other component's undecided states are solved as the pool of an inner
pool solve (`svi.solve_svi_pool`, `baselines.solve_bvi_pool`) twice:
once with every downstream state at its certified lower value and once
with its frontier (the downstream states one step away, the only ones its
values depend on) at its uppers; by monotonicity of the value in the
frontier the first run's lowers and the second run's uppers bound the
true values. When the frontier is already tight (lower == upper for every
frontier state, the common case) a single run suffices. Local precision
is eps / (1 + depth), depth counted from the source components, so
upstream components absorb the error their frontiers carry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .baselines import solve_bvi_pool
from .graph import scc_decompose
from .model import StatePartition, StochasticGame, partition_states
from .results import SolveResult, TraceEntry
from .svi import best_step, solve_svi_pool, start_vector

#: pool solves, called as solver(game, part, vec, eps, max_iters)
INNER_SOLVERS: dict[str, Callable[..., SolveResult]] = {
    "svi": solve_svi_pool,
    "bvi": solve_bvi_pool,
}


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


def solve_topological(game: StochasticGame, eps: float = 1e-6, inner: str = "svi",
                      max_iters: int = 10_000_000) -> SolveResult:
    """Solve SCC by SCC with the given inner pool solve around the decided frontiers.

    Returns one merged result; trace entries carry the component index they
    came from. The strategy is taken from each component's lower-frontier
    run, the side whose Maximizer choices certify the reported lower
    bounds; the partition's almost-sure winners carry their attractor
    action, whichever component they lie in. The plan (`build_plan`) is
    only the schedule, built only when the partition leaves a state
    undecided: the frontiers, bounds and sweep counts of the components
    live in this call. A component of one state without a self-loop gets
    no inner run: `best_step` over the lowers gives its lower and its
    action, over the uppers its upper. `max_iters` bounds the sweeps of
    the whole solve: each inner run gets what the runs before it left.
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
        if not others and s not in game.succs[s]:
            # every successor is downstream, so decided: one step settles s
            lo[s], i = best_step(game, s, lo)
            hi[s] = best_step(game, s, hi)[0]
            strategy[s] = game.actions[s][i].label
            continue
        inside = set(entry.states)
        frontier = {t for u in inside for t in game.succs[u]} - inside
        vecs = [list(lo)]
        if any(lo[s] != hi[s] for s in frontier):
            vecs.append(list(lo))
            for s in frontier:
                vecs[1][s] = hi[s]
        runs = []
        for vec in vecs:
            run = solver(game, StatePartition(part.targets, part.sinks, part.unknown & inside), vec,
                         entry.eps_local, max_iters - iterations)
            for t in run.trace:
                t.scc = entry.index
            trace.extend(run.trace)
            iterations += run.iterations
            converged = converged and run.converged
            runs.append(run)
        run_lo, run_hi = runs[0], runs[-1]
        for s in inside:
            lo[s] = run_lo.lower[s]
            hi[s] = run_hi.upper[s]
        strategy.update(run_lo.strategy)
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
