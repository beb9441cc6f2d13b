"""A small menagerie of hand-built games used in tests, demos and docs.

Each builder returns a normalized game. The docstrings state the exact
reachability values, which are easy to verify by hand (and are also checked
against the exact oracle in the test suite). State 0 is the natural initial
state unless noted.
"""

from __future__ import annotations

from fractions import Fraction

from .model import MAX, MIN, Action, StochasticGame, normalize


def _game(n: int, owner: dict[int, str], actions: dict[int, list[tuple[str, list[tuple[int, str]]]]],
          targets: set[int]) -> StochasticGame:
    own = tuple(owner.get(s, MAX) for s in range(n))
    acts = tuple(
        tuple(Action(lbl, tuple((succ, Fraction(p)) for succ, p in trans)) for lbl, trans in actions.get(s, []))
        for s in range(n)
    )
    return normalize(StochasticGame(n, own, acts, frozenset(targets)))


def slow_loop(p: str | float = "0.98", r: str | float = "0.01") -> StochasticGame:
    """Markov chain: state 0 loops with probability p, hits the target with r.

    States: 0 = loop, 1 = target, 2 = sink. The value of state 0 is
    r/(1-p); with the defaults that is exactly 1/2. Classic interval
    iteration needs hundreds of sweeps here because the loop drains slowly,
    while the bound extrapolation closes the gap after a single sweep.
    """
    p_, r_ = Fraction(str(p)), Fraction(str(r))
    q = 1 - p_ - r_
    if q < 0:
        raise ValueError("need p + r <= 1")
    trans = [(0, str(p_)), (1, str(r_))]
    if q > 0:
        trans.append((2, str(q)))
    return _game(3, {}, {0: [("go", trans)]}, {1})


def serial_loops(k: int = 3, p: str = "0.98", r: str = "0.01") -> StochasticGame:
    """k copies of slow_loop chained in series.

    States: 0..k-1 are the loop states (state i feeds state i+1, the last
    feeds the target), k = target, k+1 = sink. Value of loop state i is
    (r/(1-p))**(k-i). A stress case for global bound pooling: the whole
    chain is only as precise as its least-known member, whereas per-SCC
    processing resolves each loop locally.
    """
    p_, r_ = Fraction(p), Fraction(r)
    q = 1 - p_ - r_
    if q < 0:
        raise ValueError("need p + r <= 1")
    target, sink = k, k + 1
    actions = {}
    for i in range(k):
        nxt = target if i == k - 1 else i + 1
        trans = [(i, str(p_)), (nxt, str(r_))]
        if q > 0:
            trans.append((sink, str(q)))
        actions[i] = [("go", trans)]
    return _game(k + 2, {}, actions, {target})


def cycle_with_sink_exit() -> StochasticGame:
    """Two Maximizer states cycling forever, with one exit to a sink.

    States: 0 and 1 swap via action a; state 1 can drop to sink 2 via b.
    There is no target, so every state has value 0, but {0, 1} is an end
    component: plain upper-bound iteration accepts any constant on it.
    """
    return _game(
        3,
        {},
        {
            0: [("a", [(1, "1")])],
            1: [("a", [(0, "1")]), ("b", [(2, "1")])],
        },
        set(),
    )


def loop_or_coin() -> StochasticGame:
    """One Maximizer state choosing between a self-loop and a fair coin.

    States: 0 = choice (a self-loops, b flips), 1 = target, 2 = sink.
    Value 1/2. The self-loop is a trivial end component: an upper bound
    started at 1 never moves under plain iteration because looping looks
    as good as the coin; end-component handling forces the exit.
    """
    return _game(
        3,
        {},
        {0: [("a", [(0, "1")]), ("b", [(1, "1/2"), (2, "1/2")])]},
        {1},
    )


def exit_seesaw() -> StochasticGame:
    """Two-state Maximizer end component whose best exit keeps flipping.

    States: 0 and 1 cycle via a; each also has a leaky exit b
    (0: 1/3 self, 1/3 target, 1/3 sink; 1: 0.2 self, 0.4 target, 0.4 sink).
    Target is 2, sink is 3. Both values are 1/2. Forcing the seemingly
    best exit in every round makes the two states take turns and undo each
    other's progress; the solver must hold a state back (delay) whenever
    its fresh estimate would overshoot the previous one.
    """
    return _game(
        4,
        {},
        {
            0: [("a", [(1, "1")]), ("b", [(0, "1/3"), (2, "1/3"), (3, "1/3")])],
            1: [("a", [(0, "1")]), ("b", [(1, "0.2"), (2, "0.4"), (3, "0.4")])],
        },
        {2},
    )


def asymmetric_ring() -> StochasticGame:
    """A Minimizer hub feeding two Maximizer states with unequal exits.

    States: 0 = Minimizer hub (a -> 1, b -> 2), 1 and 2 are Maximizer
    states that can bounce back to the hub or cash out (1: 40% target,
    2: 60% target). Target is 3, sink is 4. Values: state 2 has 3/5,
    states 0 and 1 have 2/5 (the Minimizer funnels play into the worse
    exit). Deflating the whole ring to its single best exit would be too
    coarse; the ring must be peeled exit by exit.
    """
    return _game(
        5,
        {0: MIN},
        {
            0: [("a", [(1, "1")]), ("b", [(2, "1")])],
            1: [("back", [(0, "1")]), ("cash", [(3, "0.4"), (4, "0.6")])],
            2: [("back", [(0, "1")]), ("cash", [(3, "0.6"), (4, "0.4")])],
        },
        {3},
    )


def one_way_out() -> StochasticGame:
    """Two Maximizer states where only one of them holds the real exit.

    States: 0 (a -> sink, b -> 1) and 1 (back -> 0, cash -> fair coin).
    Target 2, sink 3. Both values are 1/2. Capping only the exit state
    and not its partner would leave state 0 stuck at its stale bound, so
    end-component capping must cover the whole component.
    """
    return _game(
        4,
        {},
        {
            0: [("a", [(3, "1")]), ("b", [(1, "1")])],
            1: [("back", [(0, "1")]), ("cash", [(2, "1/2"), (3, "1/2")])],
        },
        {2},
    )


def loop_with_bypass() -> StochasticGame:
    """Minimizer chooses between a slow probabilistic loop and a sure path.

    States: 0 = Minimizer entry (a -> 1, b -> 2), 1 = Maximizer loop state
    (a: 98% self, 1% target, 1% sink; b -> sink), 2 = Minimizer relay
    forced into the target, 3 = target, 4 = sink. Values: state 2 has 1,
    states 0 and 1 have 1/2 (the Minimizer prefers the loop; the
    Maximizer keeps looping rather than quitting). The loop state is the
    slow part; everything else is decided by graph shape.
    """
    return _game(
        5,
        {0: MIN, 2: MIN},
        {
            0: [("a", [(1, "1")]), ("b", [(2, "1")])],
            1: [("a", [(1, "0.98"), (3, "0.01"), (4, "0.01")]), ("b", [(4, "1")])],
            2: [("c", [(3, "1")])],
        },
        {3},
    )


def two_route_choice() -> StochasticGame:
    """One Minimizer state with a looping route and a direct route.

    States: 0 = Minimizer (alpha: 40% self, 40% target, 20% sink;
    beta: 50% target, 50% sink), 1 = target, 2 = sink. Value 1/2: looping
    forever is not an option, so beta is optimal. The naive bound
    extrapolation of alpha's loop (0.4/0.6 = 2/3) overshoots the value;
    the pairwise switch point between alpha and beta (at bound 1/4) is
    what keeps the lower bound sound.
    """
    return _game(
        3,
        {0: MIN},
        {0: [("alpha", [(0, "0.4"), (1, "0.4"), (2, "0.2")]),
             ("beta", [(1, "0.5"), (2, "0.5")])]},
        {1},
    )


def minimizer_trap() -> StochasticGame:
    """A Minimizer-only cycle that could reach the target but never will.

    States: 0 and 1 cycle (Minimizer), 1 has an exit to the target 2;
    3 is the sink. Both cycle states have value 0: the Minimizer simply
    keeps cycling. Graph reachability alone cannot see this (a path to
    the target exists); end-component analysis must classify the cycle
    as a trap because no Maximizer-owned exit leaves it.
    """
    return _game(
        4,
        {0: MIN, 1: MIN},
        {
            0: [("a", [(1, "1")])],
            1: [("a", [(0, "1")]), ("out", [(2, "1")])],
        },
        {2},
    )


def nested_rings() -> StochasticGame:
    """Rings nested three layers deep, each layer with its own best exit.

    States 0..3 are Maximizer ring states, 4 = target, 5 = sink. The outer
    ring is 0->1->2->3->0; removing 0 leaves the ring 1->2->3->1 (via
    state 3's d edge); removing 1 as well leaves 2->3->2 (via b). States
    0, 1, 2 can cash out at 90%, 70% and 50%; state 3 is a pure connector.
    Exit-set peeling depends on the vector it ranks exits by: with 0 on
    the ring states it peels (0, cash), (1, cash), (2, cash) one layer at
    a time, while under an optimistic vector state 3's ring edge toward
    the peeled-off state 0 outranks the cheaper cash-outs. Every state has
    value 9/10 since the rings let all of them route to state 0's exit.
    """
    return _game(
        6,
        {},
        {
            0: [("ring", [(1, "1")]), ("cash", [(4, "0.9"), (5, "0.1")])],
            1: [("ring", [(2, "1")]), ("cash", [(4, "0.7"), (5, "0.3")])],
            2: [("ring", [(3, "1")]), ("cash", [(4, "0.5"), (5, "0.5")])],
            3: [("ring", [(0, "1")]), ("d", [(1, "1")]), ("b", [(2, "1")])],
        },
        {4},
    )


def shifting_preference() -> StochasticGame:
    """Minimizer whose preferred route flips onto a stay-heavy rival.

    States: 0 = Minimizer entry (stick -> 1, swap -> 2), 1 = steady chain
    (50% target, 1% self, 49% sink), 2 = Maximizer that abandons a
    sure-looking route for a mixed one after a round (a: 50% target,
    50% state 3; b: 50% state 1, 50% state 4), 3 = fast fizzle (5%
    target, 95% sink), 4 = slow drain (70% self, 1% target, 29% sink),
    5 = target, 6 = sink. Value of states 0 and 1 is 50/99, of state 2
    it is 21/40. Crafted so that the Minimizer switches onto a route
    whose one-step upper estimate is larger than its previous one. svi
    settles state 3 before its first sweep, and on this game its
    Minimizer upper estimates no longer rise; the model stays a
    regression game for the sandwich and Maximizer-monotonicity checks.
    """
    return _game(
        7,
        {0: MIN, 1: MIN, 3: MIN, 4: MIN},
        {
            0: [("stick", [(1, "1")]), ("swap", [(2, "1")])],
            1: [("go", [(5, "0.5"), (1, "0.01"), (6, "0.49")])],
            2: [("a", [(5, "0.5"), (3, "0.5")]), ("b", [(1, "0.5"), (4, "0.5")])],
            3: [("go", [(5, "0.05"), (6, "0.95")])],
            4: [("go", [(4, "0.7"), (5, "0.01"), (6, "0.29")])],
        },
        {5},
    )


#: Builders indexed by name.
ALL_PRESETS = {
    "slow_loop": slow_loop,
    "serial_loops": serial_loops,
    "cycle_with_sink_exit": cycle_with_sink_exit,
    "loop_or_coin": loop_or_coin,
    "exit_seesaw": exit_seesaw,
    "asymmetric_ring": asymmetric_ring,
    "one_way_out": one_way_out,
    "loop_with_bypass": loop_with_bypass,
    "two_route_choice": two_route_choice,
    "minimizer_trap": minimizer_trap,
    "nested_rings": nested_rings,
    "shifting_preference": shifting_preference,
}
