"""Classic value iteration and the bounded variant with EC deflation.

Both iterate the one-step optimality operator. Classic VI sweeps the whole
vector at once (Jacobi) and runs a single under-approximating sequence; it
stops on a small change between sweeps, which certifies nothing about the
distance to the true value, and is here as the baseline whose iteration
counts and unsoundness the other algorithms are measured against. The
bounded variant runs an upper sequence as well and stops on the actual
interval width. It sweeps in place, layer by layer downstream first
(Gauss-Seidel across the layers, see `solve_bvi_pool`). It is sound only
because the upper vector is deflated every sweep: inside an end component
the operator alone admits spurious fixed points above the value, so each
component is capped to its best Maximizer exit, recursively. Traps, the
components without any Maximizer exit, have value 0; the state partition
counts them among the sinks, so deflation never meets one.
"""

from __future__ import annotations

import math
import time
from typing import AbstractSet

# mec_decompose is not called here, but perfbench/layers.py wraps it under this name
from .graph import cached_mecs, exit_layers, mec_decompose  # noqa: F401
from .model import MAX, StatePartition, StochasticGame, dot, partition_states
from .results import SolveResult, TraceEntry
from .svi import best_step, float_rows, start_vector

UNSOUND_NOTE = "unsound stopping"


def _sweep(game: StochasticGame, unknown: AbstractSet[int], vec: list[float]) -> list[float]:
    """One Jacobi sweep of the optimality operator over the unknown states.

    `dot` is inlined, as in `svi.bellman_update`: each row is added left to
    right from 0.0, and the first of equal row values wins, as in builtin
    `max`/`min`.
    """
    rows, owner = game.rows, game.owner
    new = list(vec)
    for s in unknown:
        acts = rows[s]
        if len(acts) == 1:
            x = 0.0
            for t, p in acts[0]:
                x += p * vec[t]
            new[s] = x
            continue
        maximize = owner[s] == MAX
        best = None
        for row in acts:
            x = 0.0
            for t, p in row:
                x += p * vec[t]
            if best is None:
                best = x
            elif maximize:
                if x > best:
                    best = x
            elif x < best:
                best = x
        new[s] = best
    return new


def _layers(game: StochasticGame, pool: AbstractSet[int], L: list[float]) -> list[tuple[int, bool]]:
    """The pool in bvi's sweep order: `(state, ends_its_layer)`, downstream layers first.

    One backward breadth-first search over `game.preds`. Layer 0 is the
    states outside the pool that a pool state steps to and whose value in L
    is positive: the targets, or in a topological solve the decided
    frontier. Layer k+1 is the pool states not yet placed with an action
    that reaches layer k. The pool states the search misses form one last
    layer. The layers are sets of states defined by the graph alone, so the
    sweep they give does not depend on the state numbering.
    """
    succs, preds = game.succs, game.preds
    layer = {t for s in pool for t in succs[s] if t not in pool and L[t] > 0.0}
    unplaced = set(pool)
    order: list[tuple[int, bool]] = []
    while layer:
        nxt = []
        for t in layer:
            for s, _ in preds[t]:
                if s in unplaced:
                    unplaced.remove(s)
                    nxt.append(s)
        if nxt:
            order += _layer(nxt)
        layer = nxt
    if unplaced:
        order += _layer(list(unplaced))
    return order


def _layer(states: list[int]) -> list[tuple[int, bool]]:
    """One layer of `_layers`' order; in state order, so the sweep walks the rows as they lie in memory."""
    states.sort()
    return [(s, False) for s in states[:-1]] + [(states[-1], True)]


def _sweep_layers(game: StochasticGame, order: list[tuple[int, bool]], low: list[float],
                  high: list[float]) -> None:
    """One layered Gauss-Seidel sweep of the optimality operator over low and high, in place.

    `order` is `_layers`' list. Every state reads the vectors as the
    earlier layers left them: its new values wait in a small buffer until
    its layer ends (Jacobi inside a layer, Gauss-Seidel across layers). One
    flat loop over the states, so a one-state layer costs no more than any
    other state. Each row's two sums come from one pass over it (`dot2`
    inlined), left to right from 0.0, and the first of equal row values
    wins, as in builtin `max`/`min`; the optimum of each side is kept on its
    own.
    """
    rows, owner = game.rows, game.owner
    pending: list[tuple[int, float, float]] = []
    for s, last in order:
        acts = rows[s]
        if len(acts) == 1:
            lo = hi = 0.0
            for t, p in acts[0]:
                lo += p * low[t]
                hi += p * high[t]
        else:
            maximize = owner[s] == MAX
            lo = hi = None
            for row in acts:
                x = y = 0.0
                for t, p in row:
                    x += p * low[t]
                    y += p * high[t]
                if lo is None:
                    lo, hi = x, y
                elif maximize:
                    if x > lo:
                        lo = x
                    if y > hi:
                        hi = y
                else:
                    if x < lo:
                        lo = x
                    if y < hi:
                        hi = y
        if not last:
            pending.append((s, lo, hi))
            continue
        if pending:
            for t, x, y in pending:
                low[t] = x
                high[t] = y
            pending.clear()
        low[s] = lo
        high[s] = hi


def _greedy_strategy(game: StochasticGame, unknown: AbstractSet[int],
                     low: list[float], high: list[float]) -> dict[int, str]:
    """Final action snapshot: Maximizer argmax under high, Minimizer argmin under low.

    Near-ties go to the lowest action index (`svi.best_step`), as in svi.
    Inside end components it is no winning strategy: a Maximizer choice may
    stay where the Minimizer can hold play (bvi loses on 10 of 480 census games).
    """
    return {s: game.actions[s][best_step(game, s, high if game.owner[s] == MAX else low)[1]].label
            for s in sorted(unknown)}


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
    L = start_vector(game, eps, part)
    float_rows(game)  # build the cached table here, so set-up is not charged to the first sweep
    trace: list[TraceEntry] = []
    it = 0
    converged = not part.unknown
    while not converged and it < max_iters:
        new = _sweep(game, part.unknown, L)
        # the largest change and the smallest new value in one pass; from
        # 0.0 and inf, since abs() >= 0.0 and the values are finite
        delta, low = 0.0, math.inf
        for s in part.unknown:
            x = new[s]
            d = abs(x - L[s])
            if d > delta:
                delta = d
            if x < low:
                low = x
        L = new
        it += 1
        trace.append(TraceEntry(
            k=it, l=low, u=1.0, d_l=None, d_u=None,
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
        strategy={**part.attractor, **_greedy_strategy(game, part.unknown, L, L)},
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        sound=False,
        trace=trace,
    )


def deflate(game: StochasticGame, partition: StatePartition, U: list[float]) -> list[float]:
    """Cap an upper vector inside every end component to its best exit.

    Walks the layers of `exit_layers` on the unknown states once, on a
    copy of U: caps every member of a layer to the value of its best
    Maximizer exit. The partition's pool holds no trap, so every layer has
    an exit. The layers are ranked lazily on that same copy, so each
    sub-component is ranked on the vector its parent has already capped;
    ranking them all on the uncapped U would pick different exits. Returns
    the capped copy, or U itself when the pool has no end component;
    callers must not mutate the result, which may be their argument. The
    partition's sets are not modified. Requires U >= V pointwise, which
    the capping preserves.

    The MEC decompositions, of the unknown set and of the peeled
    remainders, come from `partition.ec_memo`: across the sweeps of one
    solve only the exits ranked on U change.
    """
    memo = partition.ec_memo
    if not cached_mecs(game, partition.unknown, memo):
        return U
    rows = game.rows
    new = list(U)
    for component, exits in exit_layers(game, partition.unknown, new, memo):
        val = max(dot(rows[s][i], new) for s, i in exits)
        for s in component:
            new[s] = min(new[s], val)
    return new


def solve_bvi(game: StochasticGame, eps: float = 1e-6, max_iters: int = 10_000_000, *,
              record_vectors: bool = False) -> SolveResult:
    """Bounded value iteration: `solve_bvi_pool` on the game's partition."""
    t0 = time.perf_counter()
    part = partition_states(game)
    return solve_bvi_pool(game, part, start_vector(game, eps, part), eps, max_iters, t0=t0,
                          record_vectors=record_vectors)


def solve_bvi_pool(game: StochasticGame, part: StatePartition, L: list[float], eps: float,
                   max_iters: int, *, t0: float | None = None, record_vectors: bool = False) -> SolveResult:
    """Bounded value iteration on the pool `part.unknown`: L from below, deflated U from above.

    L holds every state's start value, the decided values around the pool
    included; it is copied once and not modified. Stops when the largest
    per-state interval U-L drops below eps; the value is the midpoint.

    Each sweep updates L and U in place, layer by layer downstream first
    (`_layers`: a backward search from the pool's positive-valued
    successors), then deflates U once. Inside a layer every state reads the
    vectors as the earlier layers left them. This is sound by monotonicity
    (Puterman 1994, section 6.3.3): the operator is monotone, so an update
    from vectors that bound the value from below and above still does, and
    `deflate` needs only U >= V (Eisentraut et al., Inf. Comput. 2022).
    The layers and the copy of L are made on the first sweep, so a solve
    that needs none pays nothing for them. wall_ms counts from t0
    (default: the call). Set-up is pool-sized but for list copies: topo
    calls this per component.
    """
    t0 = time.perf_counter() if t0 is None else t0
    pool = part.unknown = frozenset(part.unknown)  # the pool is fixed from here on
    U = list(L)
    for s in pool:
        U[s] = 1.0
    float_rows(game)  # build the cached table here, so set-up is not charged to the first sweep
    trace: list[TraceEntry] = []
    vectors: list[tuple[list[float], list[float]]] = []
    order: list[tuple[int, bool]] = []
    it = 0
    gap = max((U[s] - L[s] for s in pool), default=0.0)
    while gap >= eps and it < max_iters:
        if not it:
            L = list(L)  # the sweeps write into L
            order = _layers(game, pool, L)
        _sweep_layers(game, order, L, U)
        U = deflate(game, part, U)
        it += 1
        # max(U-L), min L and max U in one pass; strict comparisons keep the
        # first of equal values, as builtin max and min do
        gap = high = -math.inf
        low = math.inf
        for s in pool:
            lo, hi = L[s], U[s]
            if hi - lo > gap:
                gap = hi - lo
            if lo < low:
                low = lo
            if hi > high:
                high = hi
        trace.append(TraceEntry(
            k=it, l=low, u=high,
            d_l=None, d_u=None, delayed=0, bounds_updated=False, max_gap=gap, updates=len(pool),
        ))
        if record_vectors:
            vectors.append((list(L), list(U)))
    value = list(L)  # outside the pool L and U agree
    for s in pool:
        value[s] = (L[s] + U[s]) / 2.0
    return SolveResult(
        algorithm="bvi",
        iterations=it,
        converged=gap < eps,
        global_lower=min((L[s] for s in pool), default=0.0),
        global_upper=max((U[s] for s in pool), default=1.0),
        lower=list(L),
        upper=list(U),
        value=value,
        strategy={**part.attractor, **_greedy_strategy(game, pool, L, U)},
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        sound=True,
        trace=trace,
        vectors=vectors if record_vectors else None,
    )
