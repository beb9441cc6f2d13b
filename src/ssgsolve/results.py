"""Result containers shared by every solver in the package."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TraceEntry:
    """One line of a solve trace, recorded after each iteration.

    l/u and d_l/d_u are the global bounds and running decision values of
    the bound-based solvers; the baselines fill l/u with the extremes of
    their per-state vectors and leave d_l/d_u as None. A decision value is
    a running extremum only until it pins its bound (d_l <= l, d_u >= u);
    from then on it is no longer computed and stays frozen at the value
    that pinned it.
    max_gap is the algorithm's own stopping quantity after the iteration:
    max stay*(u-l) for the bound-extrapolating solver, max per-state U-L
    for the interval baseline, and the largest single-sweep change for
    classic value iteration. updates counts states actually rewritten this
    iteration (delayed states are not). scc tags entries produced inside
    a topological sub-solve: the driver sets it on the inner run's own
    entries, so the class is a plain (mutable) dataclass, like
    `SolveResult`, and nothing hashes an entry.
    """

    k: int
    l: float
    u: float
    d_l: float | None
    d_u: float | None
    delayed: int
    bounds_updated: bool
    max_gap: float
    updates: int
    scc: int | None = None


@dataclass
class SolveResult:
    """What every solver hands back.

    lower/upper/value are per-state; for the sound algorithms they satisfy
    lower[s] <= V(s) <= upper[s] up to float noise and value is the
    midpoint. `sound` is False for classic value iteration, whose stopping
    rule does not certify the distance to the true value. `strategy` maps
    the solved pool (the unknown states of the game's partition, for a
    public solver) to the final chosen action label, and the states the
    partition decided at value 1 by graph analysis to their attractor
    action (`StatePartition.attractor`), which wins almost surely; sinks, traps
    among them, and the game's targets have no entry. global_lower and
    global_upper bound every unknown state at once where the algorithm
    maintains such scalars; they stay at the vacuous 0 and 1 otherwise.
    `vectors` optionally keeps one (lower, upper) per-state snapshot per
    iteration for iteration-wise soundness checks.
    """

    algorithm: str
    iterations: int
    converged: bool
    global_lower: float
    global_upper: float
    lower: list[float]
    upper: list[float]
    value: list[float]
    strategy: dict[int, str]
    wall_ms: float
    sound: bool = True
    trace: list[TraceEntry] = field(default_factory=list)
    vectors: list[tuple[list[float], list[float]]] | None = None

    @property
    def max_final_gap(self) -> float:
        return max(
            (u - lo for lo, u in zip(self.lower, self.upper)), default=0.0
        )
