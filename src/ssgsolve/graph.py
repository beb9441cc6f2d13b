"""Graph analysis: SCCs, maximal end components, traps and best-exit sets.

An end component is a set of states T plus a set of retained actions such
that every retained action stays inside T and T is strongly connected
through them. Play can remain inside an end component forever, which is
what breaks naive upper-bound iteration. End components are treated in
two steps. The state partition (`StochasticGame.split`) counts the
greatest trap (`trap_states`: states the Minimizer can confine play to,
value 0) among the sinks, once per game; every end component of the
unknown states then has a Maximizer exit, and the routines here find the
components and the Maximizer actions that leave them best.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .model import MAX, StatePartition, StochasticGame, dot

TIE_TOL = 1e-12


@dataclass(frozen=True)
class Mec:
    """One maximal end component: its states and the actions that stay inside."""

    states: frozenset[int]
    stay_actions: dict[int, tuple[str, ...]] = field(hash=False, compare=False, default_factory=dict)


def scc_decompose(game: StochasticGame, restrict: Iterable[int] | None = None) -> list[list[int]]:
    """Strongly connected components of the action-successor graph.

    Returns components in reverse topological order: every component comes
    after all components it can reach, so processing the list front to back
    sees successors first. Deterministic for a given game.
    """
    nodes = sorted(restrict) if restrict is not None else list(range(game.n_states))
    node_set = set(nodes)
    # successors without duplicates, in order of first appearance
    adj = {s: list(dict.fromkeys(succ for act in game.actions[s] for succ, _ in act.transitions
                                 if succ in node_set and succ != s))
           for s in nodes}
    return _tarjan(nodes, adj)


def _tarjan(nodes: Iterable[int], adj: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan over adj, rooted in the given node order.

    Each component comes out sorted, and the components in reverse
    topological order. The successor order in adj decides the order of
    components that are not ordered by reachability.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def mec_decompose(game: StochasticGame, restrict: Iterable[int] | None = None) -> list[Mec]:
    """Maximal end components of the game restricted to the given states.

    Standard prune-and-split: drop actions that leave the candidate set,
    drop states left without actions, split along SCCs, repeat until each
    candidate is strongly connected through its staying actions. Actions
    whose successors include a state outside `restrict` never stay, which
    is what makes the restriction meaningful for partially solved games.
    Returned in ascending order of their smallest state.
    """
    base = set(restrict) if restrict is not None else set(range(game.n_states))
    result: list[Mec] = []
    work: list[set[int]] = [base]
    while work:
        cand = work.pop()
        if not cand:
            continue
        staying: dict[int, tuple[str, ...]] = {}
        dead: set[int] = set()
        for s in cand:
            labels = tuple(
                act.label
                for act in game.actions[s]
                if all(succ in cand for succ, _ in act.transitions)
            )
            if labels:
                staying[s] = labels
            else:
                dead.add(s)
        if dead:
            work.append(cand - dead)
            continue
        sub = _sccs_via(game, cand, staying)
        if len(sub) == 1 and len(sub[0]) == len(cand):
            result.append(Mec(frozenset(cand), staying))
        else:
            work.extend(set(c) for c in sub)
    result.sort(key=lambda m: min(m.states))
    return result


def cached_mecs(game: StochasticGame, states: set[int] | frozenset[int],
                memo: dict[frozenset[int], list[Mec]]) -> list[Mec]:
    """`mec_decompose(game, states)`, computed once per distinct set in the memo.

    The result is shared with later callers, who must not mutate it.
    """
    key = frozenset(states)
    mecs = memo.get(key)
    if mecs is None:
        mecs = memo[key] = mec_decompose(game, states)
    return mecs


def _sccs_via(game: StochasticGame, cand: set[int], staying: dict[int, tuple[str, ...]]) -> list[list[int]]:
    """SCCs of cand using only the staying actions; singletons need a self-loop."""
    adj = {s: sorted({t for act in game.actions[s] if act.label in staying.get(s, ())
                      for t, _ in act.transitions})
           for s in cand}
    # a singleton only counts as strongly connected if it loops onto itself
    return [comp for comp in _tarjan(sorted(cand), adj)
            if len(comp) > 1 or comp[0] in adj[comp[0]] or len(cand) == 1]


def trap_states(game: StochasticGame, region: Iterable[int]) -> set[int]:
    """States the Minimizer can confine play to forever within the region.

    Greatest subset W of the region in which every Maximizer member's
    every action stays inside W and every Minimizer member keeps at least
    one action fully inside W. The Minimizer simply plays the staying
    actions, the Maximizer has no way out, and W contains no target, so
    every member has value exactly 0. Every end component without a
    Maximizer exit is contained in W, including ones only exposed after
    peeling exit states off a larger component.
    """
    W = set(region)
    changed = True
    while changed:
        changed = False
        for s in sorted(W):
            acts = game.actions[s]
            if game.owner[s] == MAX:
                ok = all(all(t in W for t, _ in a.transitions) for a in acts)
            else:
                ok = any(all(t in W for t, _ in a.transitions) for a in acts)
            if not ok:
                W.discard(s)
                changed = True
    return W


def best_exits(game: StochasticGame, component: frozenset[int] | set[int],
               f: Sequence[float]) -> set[tuple[int, str]]:
    """Maximizer exits of the component with the best one-step value.

    An exit is a pair (s, a) with s Maximizer-owned inside the component
    and at least one successor of a outside it. Its worth is the
    f-weighted successor sum. Returns the complete set of exits within
    TIE_TOL of the best; empty when no Maximizer exit exists.
    """
    rows = game.rows
    best_val = None
    scored: list[tuple[float, int, str]] = []
    for s in sorted(component):
        if game.owner[s] != MAX:
            continue
        for act, row in zip(game.actions[s], rows[s]):
            if all(succ in component for succ, _ in row):
                continue
            val = dot(row, f)
            scored.append((val, s, act.label))
            if best_val is None or val > best_val:
                best_val = val
    if best_val is None:
        return set()
    return {(s, a) for val, s, a in scored if val >= best_val - TIE_TOL}


def exit_layers(game: StochasticGame, component: frozenset[int] | set[int], f: Sequence[float],
                memo: dict[frozenset[int], list[Mec]],
                ) -> Iterator[tuple[frozenset[int] | set[int], set[tuple[int, str]]]]:
    """Peel best exits off a component, layer by layer, depth first.

    Yields (component, best_exits(game, component, f)), then the same for
    every maximal end component of the component minus its exit states,
    and so on down. An empty exit set, which only a trap (a component
    without a Maximizer exit) yields, ends that branch; the unknown states
    of a partition hold no trap, so on them no layer is empty. Each
    component is ranked only when it is about to be yielded, after the
    consumer has handled everything yielded before it, so a consumer that
    writes into f (as `deflate` caps its upper vector) has each
    sub-component ranked on the values its parent already set.
    The peeling visits at most |component| sets; their MEC decompositions
    come from the memo, since the same remainders recur from pass to pass.
    """
    work = [component]
    while work:
        comp = work.pop()
        exits = best_exits(game, comp, f)
        yield comp, exits
        if exits:
            remainder = set(comp) - {s for s, _ in exits}
            work.extend(mec.states for mec in reversed(cached_mecs(game, remainder, memo)))


def best_exit_set(game: StochasticGame, f: Sequence[float], component: frozenset[int] | set[int],
                  memo: dict[frozenset[int], list[Mec]], acc: set[tuple[int, str]]) -> None:
    """Add the exits of every layer of `exit_layers` on the component to acc."""
    for _, exits in exit_layers(game, component, f, memo):
        acc |= exits


def handle_ecs(game: StochasticGame, reach: list[float], stay: list[float], u: float,
               partition: StatePartition) -> set[tuple[int, str]]:
    """Per-iteration end-component pass over the unknown states.

    Evaluates exits against f = reach + stay*u and returns the layered best
    exits, as (state, action label) pairs, of every maximal end component
    of the unknown states. The partition counts the traps among the sinks,
    so every component has an exit to rank.
    Nothing is written into the partition or the vectors.

    Only the ranking depends on f. The MEC decompositions, of the unknown
    set and of every peeled remainder, are kept in `partition.ec_memo`
    across calls.
    """
    pairs: set[tuple[int, str]] = set()
    mecs = cached_mecs(game, partition.unknown, partition.ec_memo)
    if mecs:
        f = [r + st * u for r, st in zip(reach, stay)]
        for mec in mecs:
            best_exit_set(game, f, mec.states, partition.ec_memo, pairs)
    return pairs
