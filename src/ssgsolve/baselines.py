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
recursively, traps to 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from .graph import exit_layers, mec_decompose
from .model import MAX, StatePartition, StochasticGame, partition_states
from .results import SolveResult, TraceEntry
from .svi import FloatRows, float_rows

UNSOUND_NOTE = "unsound stopping"


@dataclass
class BoundsVector:
    """Per-state lower and upper value sequences of the bounded iteration."""

    L: list[float]
    U: list[float]


def _sweep(game: StochasticGame, rows: FloatRows, unknown: set[int], vec: list[float]) -> list[float]:
    """One Jacobi sweep of the optimality operator over the unknown states."""
    new = list(vec)
    for s in unknown:
        vals = [sum(p * vec[t] for t, p in row) for row in rows[s]]
        new[s] = max(vals) if game.owner[s] == MAX else min(vals)
    return new


def _greedy_strategy(game: StochasticGame, rows: FloatRows, unknown: set[int],
                     low: list[float], high: list[float]) -> dict[int, str]:
    """Final action snapshot: Maximizer argmax under high, Minimizer argmin under low."""
    out: dict[int, str] = {}
    for s in sorted(unknown):
        acts = game.actions[s]
        if len(acts) == 1:
            out[s] = acts[0].label
            continue
        maximize = game.owner[s] == MAX
        ref = high if maximize else low
        vals = [sum(p * ref[t] for t, p in row) for row in rows[s]]
        best = max(vals) if maximize else min(vals)
        out[s] = acts[vals.index(best)].label
    return out


def solve_vi(game: StochasticGame, eps: float = 1e-6, max_iters: int = 10_000_000) -> SolveResult:
    """Classic value iteration from below; stops on a small sweep-to-sweep change.

    The returned per-state lower equals the final vector and is a genuine
    lower bound; the upper is the trivial 1-on-possibly-reaching /
    0-on-sinks split. The result is flagged sound=False: the stopping rule
    says nothing about how far the vector still is from the value.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not game.is_normalized():
        raise ValueError("game must be normalized first (see normalize())")
    t0 = time.perf_counter()
    part = partition_states(game)
    n = game.n_states
    rows = float_rows(game)
    L = [1.0 if s in part.targets else 0.0 for s in range(n)]
    trace: list[TraceEntry] = []
    it = 0
    converged = not part.unknown
    while not converged and it < max_iters:
        new = _sweep(game, rows, part.unknown, L)
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
        strategy=_greedy_strategy(game, rows, part.unknown, L, L),
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        sound=False,
        trace=trace,
    )


def deflate(game: StochasticGame, partition: StatePartition, U: Sequence[float]) -> list[float]:
    """Cap an upper vector inside every end component to its best exit.

    For each maximal end component of the unknown states, walks the layers
    of `exit_layers` on a copy of U: caps every member of a layer to the
    value of its best Maximizer exit, or to 0 for a trap (no Maximizer
    exit). The layers are ranked lazily on that same copy, so each
    sub-component is ranked on the vector its parent has already capped;
    ranking them all on the uncapped U would pick different exits.
    Returns the new vector; the partition is not modified. Requires U >= V
    pointwise, which the capping preserves.
    """
    new = list(U)
    for mec in mec_decompose(game, partition.unknown):
        for component, exits in exit_layers(game, mec.states, new):
            val = max((sum(float(p) * new[t] for t, p in game.action(s, a).transitions)
                       for s, a in exits), default=0.0)
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
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not game.is_normalized():
        raise ValueError("game must be normalized first (see normalize())")
    t0 = time.perf_counter()
    part = partition_states(game)
    n = game.n_states
    rows = float_rows(game)
    L = [1.0 if s in part.targets else 0.0 for s in range(n)]
    U = [0.0 if s in part.sinks else 1.0 for s in range(n)]
    if frozen:
        for s, v in frozen.items():
            part.unknown.discard(s)
            L[s] = U[s] = v
    trace: list[TraceEntry] = []
    vectors: list[tuple[list[float], list[float]]] = []
    it = 0
    gap = max((U[s] - L[s] for s in part.unknown), default=0.0)
    while gap >= eps and it < max_iters:
        L = _sweep(game, rows, part.unknown, L)
        U = deflate(game, part, _sweep(game, rows, part.unknown, U))
        it += 1
        gap = max(U[s] - L[s] for s in part.unknown)
        trace.append(TraceEntry(
            k=it, l=min(L[s] for s in part.unknown), u=max(U[s] for s in part.unknown),
            d_l=None, d_u=None, delayed=0, bounds_updated=False, max_gap=gap,
            updates=len(part.unknown),
        ))
        if record_vectors:
            vectors.append((list(L), list(U)))
    bounds = BoundsVector(L, U)
    value = [(lo + hi) / 2.0 for lo, hi in zip(bounds.L, bounds.U)]
    return SolveResult(
        algorithm="bvi",
        iterations=it,
        converged=gap < eps,
        global_lower=min((L[s] for s in part.unknown), default=0.0),
        global_upper=max((U[s] for s in part.unknown), default=1.0),
        lower=list(L),
        upper=list(U),
        value=value,
        strategy=_greedy_strategy(game, rows, part.unknown, L, U),
        wall_ms=(time.perf_counter() - t0) * 1000.0,
        sound=True,
        trace=trace,
        vectors=vectors if record_vectors else None,
    )
