"""Classic value iteration and the bounded variant with EC deflation.

Both iterate the one-step optimality operator with whole-vector (Jacobi)
sweeps. Classic VI runs a single under-approximating sequence and stops on
a small change between sweeps, which certifies nothing about the distance
to the true value; it is here as the baseline whose iteration counts and
unsoundness the other algorithms are measured against. The bounded variant
runs an upper sequence as well and stops on the actual interval width,
which is sound only because the upper vector is deflated every sweep:
inside an end component the operator alone admits spurious fixed points
above the value, so each component is capped to its best Maximizer exit,
recursively. Traps, the components without any Maximizer exit, have value
0; the state partition counts them among the sinks, so deflation never
meets one.
"""

from __future__ import annotations

import time
from typing import AbstractSet, Mapping, Sequence

# mec_decompose is not called here, but perfbench/layers.py wraps it under this name
from .graph import cached_mecs, exit_layers, mec_decompose  # noqa: F401
from .model import MAX, StatePartition, StochasticGame, dot, dot2, partition_states
from .results import SolveResult, TraceEntry
from .svi import float_rows, start_vector, tie_band

UNSOUND_NOTE = "unsound stopping"


def _sweep(game: StochasticGame, unknown: AbstractSet[int], vec: list[float]) -> list[float]:
    """One Jacobi sweep of the optimality operator over the unknown states."""
    rows, owner = game.rows, game.owner
    new = list(vec)
    for s in unknown:
        acts = rows[s]
        if len(acts) == 1:
            new[s] = dot(acts[0], vec)
            continue
        vals = [dot(row, vec) for row in acts]
        new[s] = max(vals) if owner[s] == MAX else min(vals)
    return new


def _sweep2(game: StochasticGame, unknown: AbstractSet[int], low: list[float],
            high: list[float]) -> tuple[list[float], list[float]]:
    """`(_sweep(game, unknown, low), _sweep(game, unknown, high))` in one pass over the rows."""
    rows, owner = game.rows, game.owner
    new_low, new_high = list(low), list(high)
    for s in unknown:
        acts = rows[s]
        if len(acts) == 1:
            new_low[s], new_high[s] = dot2(acts[0], low, high)
            continue
        pick = max if owner[s] == MAX else min
        new_low[s] = pick([dot(row, low) for row in acts])
        new_high[s] = pick([dot(row, high) for row in acts])
    return new_low, new_high


def _greedy_strategy(game: StochasticGame, unknown: AbstractSet[int],
                     low: list[float], high: list[float]) -> dict[int, str]:
    """Final action snapshot: Maximizer argmax under high, Minimizer argmin under low.

    Near-ties go to the lowest action index (`svi.tie_band`), as in svi.
    """
    rows = game.rows
    out: dict[int, str] = {}
    for s in sorted(unknown):
        acts = game.actions[s]
        if len(acts) == 1:
            out[s] = acts[0].label
            continue
        maximize = game.owner[s] == MAX
        ref = high if maximize else low
        vals = [dot(row, ref) for row in rows[s]]
        out[s] = acts[tie_band(vals, max(vals) if maximize else min(vals))[0]].label
    return out


def solve_vi(game: StochasticGame, eps: float = 1e-6, max_iters: int = 10_000_000) -> SolveResult:
    """Classic value iteration from below; stops on a small sweep-to-sweep change.

    The returned per-state lower equals the final vector and is a genuine
    lower bound; the upper is the trivial split: 0 on the sinks (traps
    included), 1 everywhere else. The result is flagged sound=False: the
    stopping rule says nothing about how far the vector still is from the
    value.
    """
    t0 = time.perf_counter()
    part = partition_states(game)
    n = game.n_states
    L = start_vector(game, eps, part, None)
    float_rows(game)  # build the cached table here, so set-up is not charged to the first sweep
    trace: list[TraceEntry] = []
    it = 0
    converged = not part.unknown
    while not converged and it < max_iters:
        new = _sweep(game, part.unknown, L)
        delta = max(abs(new[s] - L[s]) for s in part.unknown)
        L = new
        it += 1
        trace.append(TraceEntry(
            k=it, l=min(L[s] for s in part.unknown), u=1.0, d_l=None, d_u=None,
            delayed=0, bounds_updated=False, max_gap=delta, updates=len(part.unknown),
        ))
        converged = delta < eps
    upper = [0.0 if s in part.sinks else 1.0 for s in range(n)]
    return SolveResult(
        algorithm="vi",
        iterations=it,
        converged=converged,
        global_lower=min((L[s] for s in part.unknown), default=0.0),
        global_upper=1.0,
        lower=list(L),
        upper=upper,
        value=list(L),
        strategy=_greedy_strategy(game, part.unknown, L, L),
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        sound=False,
        trace=trace,
    )


def deflate(game: StochasticGame, partition: StatePartition, U: Sequence[float]) -> list[float]:
    """Cap an upper vector inside every end component to its best exit.

    For each maximal end component of the unknown states, walks the layers
    of `exit_layers` on a copy of U: caps every member of a layer to the
    value of its best Maximizer exit. The partition's pool holds no trap,
    so every layer has an exit. The layers are ranked lazily on that same
    copy, so each sub-component is ranked on the vector its parent has
    already capped; ranking them all on the uncapped U would pick
    different exits. Returns the new vector; the partition's sets are not
    modified. Requires U >= V pointwise, which the capping preserves.

    The MEC decompositions, of the unknown set and of the peeled
    remainders, come from `partition.ec_memo`: across the sweeps of one
    solve only the exits ranked on U change.
    """
    rows, index = game.rows, game.index
    new = list(U)
    memo = partition.ec_memo
    for mec in cached_mecs(game, partition.unknown, memo):
        for component, exits in exit_layers(game, mec.states, new, memo):
            val = max(dot(rows[s][index[s][a]], new) for s, a in exits)
            for s in component:
                new[s] = min(new[s], val)
    return new


def solve_bvi(game: StochasticGame, eps: float = 1e-6, max_iters: int = 10_000_000, *,
              frozen: Mapping[int, float] | None = None,
              record_vectors: bool = False) -> SolveResult:
    """Bounded value iteration: L from below, deflated U from above.

    Stops when the largest per-state interval U-L drops below eps; the
    value is the midpoint. `frozen` pins states to exact values and drops
    them from the sweeps (used by the topological driver).
    """
    t0 = time.perf_counter()
    part = partition_states(game)
    n = game.n_states
    L = start_vector(game, eps, part, frozen)
    part.unknown = frozenset(part.unknown)  # the pool is fixed from here on
    U = [1.0 if s in part.unknown else L[s] for s in range(n)]
    float_rows(game)  # build the cached table here, so set-up is not charged to the first sweep
    trace: list[TraceEntry] = []
    vectors: list[tuple[list[float], list[float]]] = []
    it = 0
    gap = max((U[s] - L[s] for s in part.unknown), default=0.0)
    while gap >= eps and it < max_iters:
        L, U = _sweep2(game, part.unknown, L, U)
        U = deflate(game, part, U)
        it += 1
        gap = max(U[s] - L[s] for s in part.unknown)
        trace.append(TraceEntry(
            k=it, l=min(L[s] for s in part.unknown), u=max(U[s] for s in part.unknown),
            d_l=None, d_u=None, delayed=0, bounds_updated=False, max_gap=gap,
            updates=len(part.unknown),
        ))
        if record_vectors:
            vectors.append((list(L), list(U)))
    value = [(lo + hi) / 2.0 for lo, hi in zip(L, U)]
    return SolveResult(
        algorithm="bvi",
        iterations=it,
        converged=gap < eps,
        global_lower=min((L[s] for s in part.unknown), default=0.0),
        global_upper=max((U[s] for s in part.unknown), default=1.0),
        lower=list(L),
        upper=list(U),
        value=value,
        strategy=_greedy_strategy(game, part.unknown, L, U),
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        sound=True,
        trace=trace,
        vectors=vectors if record_vectors else None,
    )
