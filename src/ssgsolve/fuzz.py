"""Randomized cross-checking of the solvers against the exact oracle.

`run_fuzz` solves each game it is given with the requested algorithms
and verifies convergence, final value accuracy, and that the certified
bounds actually sandwich the exact values, both at the end and at sampled
intermediate iterations; `stream_params` draws the random games the CLI
feeds it. Failures are shrunk greedily (dropping actions and unreferenced
states while the failure persists) and come back as model texts for
replay; nothing here touches a file, so a run always finishes its report
(the CLI's `fuzz --out` writes the texts after it).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .baselines import solve_bvi
from .model import Action, GenParams, StochasticGame, partition_states, serialize_model
from .oracle import TooLarge, exact_value
from .svi import solve_svi
from .topo import solve_topological

SLACK = 1e-9

#: The solvers `run_fuzz` can check, by the names its `algorithms` take, each called
#: (game, eps); svi and bvi record their vectors for the iteration checks. A test
#: weakens a solver by putting another callable in its place.
SOLVERS = {
    "svi": partial(solve_svi, record_vectors=True),
    "bvi": partial(solve_bvi, record_vectors=True),
    "topo": solve_topological,
}
ALGORITHMS = tuple(SOLVERS)


@dataclass(frozen=True)
class Counterexample:
    """One failing model, as generated and after shrinking."""

    index: int
    algorithm: str
    reason: str
    model_text: str
    shrunk_text: str


@dataclass
class FuzzReport:
    """What a fuzz run found: games checked, games the oracle refused, and every counterexample."""

    checked: int = 0
    skipped: int = 0
    failures: list[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _sample_indices(total: int, want: int) -> list[int]:
    """`want` indices spread evenly over range(total), from the first to the last.

    A single sample is the first index.
    """
    if total <= want:
        return list(range(total))
    step = (total - 1) / max(want - 1, 1)
    return sorted({round(i * step) for i in range(want)})


def check_model(game: StochasticGame, algo: str, eps: float,
                values: Sequence[float], sample_iters: int = 10) -> str | None:
    """Run `SOLVERS[algo]` on one game; return a failure reason or None.

    Checks: the game's partition has exact value 1 on every target (the
    almost-sure winners included) and 0 on every sink, the final bounds
    sandwich the exact values, the same at sampled recorded iterations,
    convergence, |value - exact| within eps (2 eps for the topological
    driver, whose per-component budgets stack), and the reported strategy
    uses real action labels. A capped solve gets its brackets checked
    before it counts as a stall.
    """
    part = partition_states(game)
    for decided, want, kind in ((part.targets, 1.0, "target"), (part.sinks, 0.0, "sink")):
        for s in sorted(decided):
            if values[s] != want:
                return f"partition counts state {s} as a {kind}, exact value {values[s]!r}"
    try:
        res = SOLVERS[algo](game, eps)
    except Exception as exc:  # a crash is a finding, not a test error
        return f"exception: {exc!r}"
    tol = 2 * eps if algo == "topo" else eps
    for s, v in enumerate(values):
        if res.lower[s] > v + SLACK:
            return f"final lower {res.lower[s]!r} above exact {v!r} at state {s}"
        if res.upper[s] < v - SLACK:
            return f"final upper {res.upper[s]!r} below exact {v!r} at state {s}"
        if res.converged and abs(res.value[s] - v) > tol + SLACK:
            return f"value off by {abs(res.value[s] - v):.3e} at state {s}"
    if res.vectors:
        for k in _sample_indices(len(res.vectors), sample_iters):
            low, high = res.vectors[k]
            for s, v in enumerate(values):
                if low[s] > v + SLACK:
                    return f"iteration {k + 1}: lower {low[s]!r} above exact {v!r} at state {s}"
                if high[s] < v - SLACK:
                    return f"iteration {k + 1}: upper {high[s]!r} below exact {v!r} at state {s}"
    if not res.converged:
        return "did not converge"
    for s, label in res.strategy.items():
        if label not in game.action_labels(s):
            return f"strategy names unknown action {label!r} at state {s}"
    return None


def _drop_action(game: StochasticGame, s: int, idx: int) -> StochasticGame:
    acts = list(game.actions)
    acts[s] = tuple(a for j, a in enumerate(acts[s]) if j != idx)
    return dataclasses.replace(game, actions=tuple(acts))


def _drop_state(game: StochasticGame, r: int) -> StochasticGame:
    remap = {s: (s if s < r else s - 1) for s in range(game.n_states) if s != r}
    actions = tuple(
        tuple(
            Action(a.label, tuple((remap[t], p) for t, p in a.transitions))
            for a in game.actions[s]
        )
        for s in range(game.n_states) if s != r
    )
    return StochasticGame(
        n_states=game.n_states - 1,
        owner=tuple(game.owner[s] for s in range(game.n_states) if s != r),
        actions=actions,
        targets=frozenset(remap[t] for t in game.targets if t != r),
    )


def _shrink_candidates(game: StochasticGame) -> Iterator[StochasticGame]:
    for s in range(game.n_states):
        if len(game.actions[s]) > 1:
            for idx in range(len(game.actions[s])):
                yield _drop_action(game, s, idx)
    if game.n_states > 1:
        referenced = {t for s, succs in enumerate(game.succs) for t in succs if t != s}
        for r in range(game.n_states):
            if r not in referenced:
                yield _drop_state(game, r)


def shrink(game: StochasticGame, still_fails: Callable[[StochasticGame], bool],
           budget: int = 200) -> StochasticGame:
    """Greedy minimization: keep any candidate on which the failure persists."""
    current = game
    progress = True
    while progress and budget > 0:
        progress = False
        for cand in _shrink_candidates(current):
            budget -= 1
            if still_fails(cand):
                current = cand
                progress = True
                break
            if budget <= 0:
                break
    return current


def stream_params(count: int, seed: int, max_states: int) -> Iterator[GenParams]:
    """The `GenParams` of `count` random games of 2 to `max_states` states, drawn from `seed`.

    The CLI's `fuzz` checks `map(generate_random, stream_params(count, seed, max_states))`.
    """
    rng = random.Random(seed)
    for _ in range(count):
        yield GenParams(
            n_states=rng.randint(2, max_states),
            max_actions_per_state=rng.randint(1, 3),
            max_branching=rng.randint(1, 3),
            target_fraction=rng.choice([0.1, 0.2, 0.4]),
            min_player_fraction=rng.choice([0.3, 0.5, 0.7]),
            ec_bias=rng.choice([0.0, 0.3, 0.7, 1.0]),
            seed=rng.randrange(2**31),
        )


def run_fuzz(games: Iterable[StochasticGame], *, eps: float = 1e-6,
             algorithms: Sequence[str] = ALGORITHMS, sample_iters: int = 10) -> FuzzReport:
    """Check every game of `games` with every algorithm in `algorithms`.

    Games beyond the oracle's state cap are skipped and counted. Every
    failing game comes back in the report with its shrunk version, as
    model texts, under its position in `games`; writing them out is the
    caller's business. Raises ValueError, before any game is drawn, when
    `algorithms` is empty or names one not in `ALGORITHMS`.
    """
    if not algorithms:
        raise ValueError(f"no algorithm to check; known: {', '.join(ALGORITHMS)}")
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithm {unknown[0]!r}; known: {', '.join(ALGORITHMS)}")
    report = FuzzReport()
    for index, game in enumerate(games):
        try:
            exact = exact_value(game)
        except TooLarge:
            report.skipped += 1
            continue
        values = [float(v) for v in exact.values]
        report.checked += 1
        for algo in algorithms:
            reason = check_model(game, algo, eps, values, sample_iters)
            if reason is None:
                continue

            def fails(candidate: StochasticGame) -> bool:
                try:
                    cvals = [float(v) for v in exact_value(candidate).values]
                except TooLarge:
                    return False
                return check_model(candidate, algo, eps, cvals, sample_iters) is not None

            small = shrink(game, fails)
            report.failures.append(Counterexample(
                index=index,
                algorithm=algo,
                reason=reason,
                model_text=serialize_model(game),
                shrunk_text=serialize_model(small),
            ))
    return report
