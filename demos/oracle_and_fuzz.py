"""Exact answers at small scale, and using them to hunt for solver bugs.

The oracle runs strategy iteration for both players and solves each
induced chain over the rationals, so its answers carry no rounding at
all; its minmax order enumerates every strategy pair instead, as a
cross-check. The fuzz loop generates random games, solves them
with every algorithm, and flags any value or bound that disagrees with
the oracle. Dropping the decision-value cap is a known way to go wrong;
the loop finds it immediately.
"""

from unittest import mock

import ssgsolve.svi as svi
from ssgsolve.fuzz import run_fuzz, stream_params
from ssgsolve.model import generate_random
from ssgsolve.oracle import exact_value
from ssgsolve.presets import asymmetric_ring, two_route_choice


def main():
    ring = asymmetric_ring()
    res = exact_value(ring)
    print("ring values, exactly:")
    for s, v in enumerate(res.values):
        print(f"  state {s}: {v}")
    every = exact_value(ring, order="minmax")
    assert every.values == res.values
    print(f"(chains solved: {res.pairs_evaluated} by strategy iteration, "
          f"{every.pairs_evaluated} by enumerating every strategy pair)")
    print()

    rep = run_fuzz(map(generate_random, stream_params(50, 11, 8)))
    print(f"fuzzed 50 random games: {rep.checked} checked, "
          f"{len(rep.failures)} failures")
    print()

    # sabotage the solver: no decision value, so no cap keeps the bound updates honest
    with mock.patch.object(svi, "decision_value", lambda *args: None):
        rep = run_fuzz([two_route_choice()], algorithms=("svi",))
    for ce in rep.failures:
        print(f"uncapped solver caught: {ce.reason}")


if __name__ == "__main__":
    main()
