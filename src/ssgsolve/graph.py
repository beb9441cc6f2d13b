"""Graph analysis: SCCs, attractors, maximal end components, traps, almost-sure winners and best-exit sets.

An end component is a set of states T plus a set of retained actions such
that every retained action stays inside T and T is strongly connected
through them. Play can remain inside an end component forever, which is
what breaks naive upper-bound iteration. End components are treated in
two steps. The state partition (`StochasticGame.split`) counts the
greatest trap (`trap_states`: states the Minimizer can confine play to,
value 0) among the sinks, once per game; every end component of the
unknown states then has a Maximizer exit, and the routines here find the
components and the Maximizer actions that leave them best. The partition
also counts the states the Maximizer wins almost surely (`almost_sure`,
value 1) among the targets, so no sweep spends time certifying them.

The trap, the value-1 set and the maximal end components are fixpoints
of one routine, `attractor`, a player's positive attractor. An end
component is a plain frozenset of states, and an action is its position
in `game.actions[s]` (the row of `game.rows[s]`): nothing here reads an
action label.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .model import MAX, MIN, Action, StatePartition, StochasticGame, dot

TIE_TOL = 1e-12


def scc_decompose(game: StochasticGame, restrict: Iterable[int] | None = None) -> list[list[int]]:
    """Strongly connected components of the action-successor graph, `game.succs`.

    Returns components in reverse topological order: every component comes
    after all components it can reach, so processing the list front to back
    sees successors first. Deterministic for a given game. Without
    `restrict` the walk reads `game.succs` as it is.
    """
    if restrict is None:
        return _tarjan(range(game.n_states), game.succs)
    nodes = sorted(restrict)
    node_set = set(nodes)
    adj = {s: [t for t in game.succs[s] if t in node_set] for s in nodes}
    return _tarjan(nodes, adj)


def _tarjan(nodes: Iterable[int],
            adj: dict[int, list[int]] | Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan over adj (node -> successors), rooted in the given node order.

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


def attractor(game: StochasticGame, region: Iterable[int], seeds: Iterable[int], player: str | None,
              usable: Callable[[int, Action], bool] | None = None) -> dict[int, int]:
    """The player's positive attractor of the seeds inside the region.

    The seeds, states outside the region, are in it from the start. A
    player state of the region joins when one of its usable actions has a
    successor in it, any other state (every state when player is None)
    when each of its usable actions has one, at once if it has none.
    usable(s, action) filters the actions; by default all of them count.
    One worklist pass over predecessor counts, kept for the region's
    states only, walking `game.preds` back from each state that joins:
    the seeds are popped last in, first out, and predecessors come in
    (state, action, transition) order. Maps each member that joined to
    the position of the action whose hit completed its entry (-1 if it
    had no usable action); the seeds are not in the result.
    """
    owner, actions = game.owner, game.actions
    # per region state, the hits it still needs to join; 0 once it has
    need = {s: 1 if owner[s] == player else
            len(actions[s]) if usable is None else sum(usable(s, act) for act in actions[s])
            for s in region}
    joined = dict.fromkeys(sorted(s for s, m in need.items() if not m), -1)
    work = [*seeds, *joined]
    hit: set[tuple[int, int]] = set()  # the non-player actions already counted
    while work:
        for key in game.preds[work.pop()]:
            s, i = key
            m = need.get(s)
            if not m or usable is not None and not usable(s, actions[s][i]):
                continue
            if owner[s] != player:
                if key in hit:
                    continue
                hit.add(key)
                if m > 1:
                    need[s] = m - 1
                    continue
            need[s] = 0
            joined[s] = i
            work.append(s)
    return joined


def mec_decompose(game: StochasticGame, restrict: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Maximal end components of the game restricted to the given states.

    Standard prune-and-split: drop the states whose every action is bound
    to leave the candidate set (the attractor, with no player's choice
    and through the actions that stay, of the states without one), split
    the rest along the SCCs of the staying actions, repeat until each
    candidate is strongly connected through them. Actions whose
    successors include a state outside `restrict` never stay, which is
    what makes the restriction meaningful for partially solved games.
    Each component is the frozenset of its states; they come in ascending
    order of their smallest state.
    """
    base = set(restrict) if restrict is not None else set(range(game.n_states))
    result: list[frozenset[int]] = []
    work: list[set[int]] = [base]
    while work:
        cand = work.pop()
        if len(cand) == 1:
            # a single state is an end component exactly when an action stays on it; the
            # general path agrees, but this skips its attractor and SCC set-up on tiny pools
            (s,) = cand
            if any(all(t == s for t, _ in act.transitions) for act in game.actions[s]):
                result.append(frozenset(cand))
            continue
        cand -= attractor(game, cand, (), None,
                          usable=lambda s, act: all(t in cand for t, _ in act.transitions)).keys()
        # every state left keeps an action that stays; an empty cand has no SCC
        sub = _sccs_via(game, cand)
        if len(sub) == 1 and len(sub[0]) == len(cand):
            result.append(frozenset(cand))
        else:
            work.extend(set(c) for c in sub)
    result.sort(key=min)
    return result


def cached_mecs(game: StochasticGame, states: set[int] | frozenset[int],
                memo: dict[frozenset[int], list[frozenset[int]]]) -> list[frozenset[int]]:
    """`mec_decompose(game, states)`, computed once per distinct set in the memo.

    The result is shared with later callers, who must not mutate it.
    """
    key = frozenset(states)
    mecs = memo.get(key)
    if mecs is None:
        mecs = memo[key] = mec_decompose(game, states)
    return mecs


def _sccs_via(game: StochasticGame, cand: set[int]) -> list[list[int]]:
    """SCCs of cand through the actions that stay in it; singletons need a self-loop."""
    adj = {s: sorted({t for act in game.actions[s] if all(x in cand for x, _ in act.transitions)
                      for t, _ in act.transitions})
           for s in cand}
    # a singleton only counts as strongly connected if it loops onto itself
    return [comp for comp in _tarjan(sorted(cand), adj)
            if len(comp) > 1 or comp[0] in adj[comp[0]]]


def trap_states(game: StochasticGame, region: Iterable[int]) -> set[int]:
    """States the Minimizer can confine play to forever within the region.

    Greatest subset W of the region in which every Maximizer member's
    every action stays inside W and every Minimizer member keeps at least
    one action fully inside W: the region minus the Maximizer's attractor
    of the states outside it. The Minimizer simply plays the staying
    actions, the Maximizer has no way out, and W contains no target, so
    every member has value exactly 0. Every end component without a
    Maximizer exit is contained in W, including ones only exposed after
    peeling exit states off a larger component.
    """
    region = set(region)
    return region - attractor(game, region, set(range(game.n_states)) - region, MAX).keys()


def almost_sure(game: StochasticGame, region: Iterable[int]) -> dict[int, int]:
    """The states of the region from which the Maximizer reaches a target almost surely.

    The nested fixpoint νY.μX of the value-1 (Prob1) precomputation
    (Baier & Katoen, *Principles of Model Checking*, 2008, ch. 10): start
    with Y = region ∪ targets; each round X is the Maximizer's attractor
    of the targets inside Y through the actions that stay in Y, and the
    states of Y outside X leave it, until none does. Y only ever holds
    states the Minimizer cannot force out of it: a state that leaves Y
    takes the Minimizer's attractor of it along at once (a Minimizer state
    with an action that leaves Y, a Maximizer state whose every action
    does), since none of them can join X in a later round, and without
    this they would leave Y one layer per round.

    Maps every winning state to the position of its attractor action: for
    a Maximizer state the action by which it joined X in the last round,
    which keeps play in Y and moves it closer to a target with positive
    probability, so playing it wins almost surely; for a Minimizer state
    its first action. Non-target states only; each has value 1.
    """
    targets = sorted(game.targets)
    y = set(region) - game.targets
    while True:
        # the states outside Y that actions of Y reach
        gone = {t for s in y for t in game.succs[s]} - y - game.targets
        gone |= attractor(game, y, gone, MIN).keys()
        y -= gone
        won = attractor(game, y, targets, MAX, usable=None if not gone else
                        lambda s, act: gone.isdisjoint(t for t, _ in act.transitions))
        if len(won) == len(y):
            break
        y = set(won)
    return {s: i if game.owner[s] == MAX else 0 for s, i in sorted(won.items())}


def best_exits(game: StochasticGame, component: frozenset[int] | set[int],
               f: Sequence[float]) -> set[tuple[int, int]]:
    """Maximizer exits of the component with the best one-step value.

    An exit is a pair (s, i) with s Maximizer-owned inside the component
    and at least one successor of its action at position i outside it.
    Its worth is the f-weighted successor sum. Returns the complete set of
    exits within TIE_TOL of the best; empty when no Maximizer exit exists.
    """
    rows = game.rows
    best_val = None
    scored: list[tuple[float, int, int]] = []
    for s in sorted(component):
        if game.owner[s] != MAX:
            continue
        for i, row in enumerate(rows[s]):
            if all(succ in component for succ, _ in row):
                continue
            val = dot(row, f)
            scored.append((val, s, i))
            if best_val is None or val > best_val:
                best_val = val
    return {(s, i) for val, s, i in scored if val >= best_val - TIE_TOL}


def exit_layers(game: StochasticGame, states: frozenset[int] | set[int], f: Sequence[float],
                memo: dict[frozenset[int], list[frozenset[int]]],
                ) -> Iterator[tuple[frozenset[int], set[tuple[int, int]]]]:
    """Peel best exits off the end components of a state set, layer by layer, depth first.

    The children of a set are the maximal end components of the set minus
    its exit states; those of `states` itself are its maximal end
    components (it has no exits). Walks them in order, each one's subtree
    before the next: yields (component, best_exits(game, component, f)),
    then the same for every child of the component, and so on down. An
    empty exit set, which only a trap (a component without a Maximizer
    exit) yields, ends that branch; the unknown states of a partition hold
    no trap, so on them no layer is empty. Each component is ranked only
    when it is about to be yielded, after the consumer has handled
    everything yielded before it, so a consumer that writes into f (as
    `deflate` caps its upper vector) has each sub-component ranked on the
    values its parent already set. The walk visits at most |states|
    components; the MEC decompositions come from the memo, since the same
    remainders recur from pass to pass.
    """
    work = list(reversed(cached_mecs(game, states, memo)))
    while work:
        comp = work.pop()
        exits = best_exits(game, comp, f)
        yield comp, exits
        if exits:
            work.extend(reversed(cached_mecs(game, comp - {s for s, _ in exits}, memo)))


def best_exit_set(game: StochasticGame, f: Sequence[float], states: frozenset[int] | set[int],
                  memo: dict[frozenset[int], list[frozenset[int]]]) -> set[tuple[int, int]]:
    """The exits of every layer of `exit_layers` on the states, as one set of (state, action position)."""
    return {pair for _, exits in exit_layers(game, states, f, memo) for pair in exits}


def handle_ecs(game: StochasticGame, reach: list[float], stay: list[float], u: float,
               partition: StatePartition) -> set[tuple[int, int]]:
    """Per-iteration end-component pass over the unknown states.

    Evaluates exits against f = reach + stay*u and returns the best exits
    of every layer of `exit_layers` on the unknown states, as (state,
    action position) pairs. The partition counts the traps among the
    sinks, so every component has an exit to rank. Nothing is written
    into the partition or the vectors.

    Only the ranking depends on f, which is built only when the unknown
    states hold an end component; the pairs are `best_exit_set` on them.
    The MEC decompositions, of the unknown set and of every peeled
    remainder, are kept in `partition.ec_memo` across calls.
    """
    if not cached_mecs(game, partition.unknown, partition.ec_memo):
        return set()
    f = [r + st * u for r, st in zip(reach, stay)]
    return best_exit_set(game, f, partition.unknown, partition.ec_memo)
