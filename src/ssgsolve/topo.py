"""Topological solving: one SCC at a time, downstream first.

Value dependencies follow the edge relation, so the strongly connected
components can be solved in reverse topological order with everything
downstream already decided. Each component is solved twice on frozen
frontiers, once with all downstream states pinned to their certified
lower values and once with its frontier (the downstream states one step
away, the only ones its values depend on) pinned to their uppers; by
monotonicity of the value in the frontier the first run's lowers and the
second run's uppers bound the true values. When the frontier is already
tight (lower == upper for every frontier state, the common case) a single
run suffices. Local precision is eps / (1 + depth), depth counted from the
source components, so upstream components absorb the error their frontiers
carry.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable

from .baselines import solve_bvi
from .graph import scc_decompose
from .model import StochasticGame, partition_states
from .results import SolveResult, TraceEntry
from .svi import solve_svi

INNER_SOLVERS: dict[str, Callable[..., SolveResult]] = {
    "svi": solve_svi,
    "bvi": solve_bvi,
}


@dataclass
class SccEntry:
    """One component of the plan, in solving order."""

    index: int
    states: tuple[int, ...]
    depth: int
    eps_local: float
    kind: str  # "unknown" has an undecided state, "decided" is all-target or all-sink
    frontier: dict[int, tuple[float, float]] = field(default_factory=dict)
    bounds: tuple[float, float] | None = None
    iterations: int = 0
    converged: bool = True


@dataclass
class SccPlan:
    """Solve schedule: components in reverse topological order, with budgets."""

    entries: list[SccEntry]

    def unknown_entries(self) -> list[SccEntry]:
        return [e for e in self.entries if e.kind == "unknown"]


def build_plan(game: StochasticGame, eps: float) -> SccPlan:
    """Decompose into SCCs and assign each its local precision budget.

    Components come out downstream-first. Depth is the longest predecessor
    chain in the component DAG (0 at the sources). A component with an
    undecided state is solved as a whole ("unknown"). It may also hold
    sinks: a trap inside a cycle, such as a Minimizer state that can loop
    forever but also step to a Maximizer state that gambles on the target
    and else returns. The inner solver keeps those at 0, as it does every
    sink.
    """
    part = partition_states(game)
    comps = scc_decompose(game)
    comp_of = {}
    for i, comp in enumerate(comps):
        for s in comp:
            comp_of[s] = i
    preds: list[set[int]] = [set() for _ in comps]
    for s in range(game.n_states):
        for act in game.actions[s]:
            for t in act.successors():
                if comp_of[t] != comp_of[s]:
                    preds[comp_of[t]].add(comp_of[s])
    depth = [0] * len(comps)
    # reversed list is topological (predecessors first), so depths are ready
    for i in reversed(range(len(comps))):
        if preds[i]:
            depth[i] = 1 + max(depth[j] for j in preds[i])
    entries = []
    for i, comp in enumerate(comps):
        kind = "unknown" if any(s in part.unknown for s in comp) else "decided"
        entries.append(SccEntry(
            index=i,
            states=tuple(comp),
            depth=depth[i],
            eps_local=eps / (1 + depth[i]),
            kind=kind,
        ))
    return SccPlan(entries)


def solve_topological(game: StochasticGame, eps: float = 1e-6, inner: str = "svi",
                      max_iters: int = 10_000_000, plan: SccPlan | None = None) -> SolveResult:
    """Solve SCC by SCC with the given inner algorithm on frozen frontiers.

    Returns one merged result; trace entries carry the component index they
    came from. The strategy is taken from each component's lower-frontier
    run, the side whose Maximizer choices certify the reported lower
    bounds. If a plan is passed in it is filled with per-component
    outcomes.
    """
    if inner not in INNER_SOLVERS:
        raise ValueError(f"unknown inner algorithm {inner!r}")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not game.is_normalized():
        raise ValueError("game must be normalized first (see normalize())")
    t0 = time.perf_counter()
    solver = INNER_SOLVERS[inner]
    part = partition_states(game)
    if plan is None:
        plan = build_plan(game, eps)
    lo: dict[int, float] = {}
    hi: dict[int, float] = {}
    for s in part.targets:
        lo[s] = hi[s] = 1.0
    for s in part.sinks:
        lo[s] = hi[s] = 0.0
    trace: list[TraceEntry] = []
    strategy: dict[int, str] = {}
    iterations = 0
    converged = True
    for entry in plan.entries:
        if entry.kind == "decided":
            entry.bounds = (lo[entry.states[0]], hi[entry.states[0]])
            continue
        inside = set(entry.states)
        entry.frontier = {
            s: (lo[s], hi[s])
            for s in sorted({t for u in inside for a in game.actions[u]
                             for t in a.successors()} - inside)
        }
        # states not yet decided are unreachable from this component
        lo_frozen = {s: lo.get(s, 0.0) for s in range(game.n_states) if s not in inside}
        runs = [solver(game, entry.eps_local, max_iters=max_iters, frozen=lo_frozen)]
        if any(a != b for a, b in entry.frontier.values()):
            hi_frozen = lo_frozen | {s: b for s, (_, b) in entry.frontier.items()}
            runs.append(solver(game, entry.eps_local, max_iters=max_iters, frozen=hi_frozen))
        run_lo, run_hi = runs[0], runs[-1]
        for s in inside:
            lo[s] = run_lo.lower[s]
            hi[s] = run_hi.upper[s]
        strategy.update({s: a for s, a in run_lo.strategy.items() if s in inside})
        for run in runs:
            trace.extend(dataclasses.replace(t, scc=entry.index) for t in run.trace)
        entry.iterations = sum(r.iterations for r in runs)
        entry.converged = all(r.converged for r in runs)
        entry.bounds = (run_lo.global_lower, run_hi.global_upper)
        iterations += entry.iterations
        converged = converged and entry.converged
    lower = [lo[s] for s in range(game.n_states)]
    upper = [hi[s] for s in range(game.n_states)]
    return SolveResult(
        algorithm=f"topo-{inner}",
        iterations=iterations,
        converged=converged,
        global_lower=min((lower[s] for s in part.unknown), default=0.0),
        global_upper=max((upper[s] for s in part.unknown), default=1.0),
        lower=lower,
        upper=upper,
        value=[(a + b) / 2.0 for a, b in zip(lower, upper)],
        strategy=strategy,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        sound=True,
        trace=trace,
    )
