"""Solving component by component instead of sweeping the whole game.

A chain of loops is the worst case for whole-game sweeps: every sweep
touches every state although only the most downstream loop is actually
learning anything. The topological driver solves each strongly connected
component on its own, feeding certified intervals upstream. Each loop of
this chain is one self-looping state, which the driver settles in closed
form, with no sweep at all.
"""

from ssgsolve.presets import serial_loops
from ssgsolve.svi import solve_svi
from ssgsolve.topo import build_plan, solve_topological


def main():
    g = serial_loops()
    eps = 1e-6

    plan = build_plan(g, eps)
    print("solve order (downstream first):")
    for e in plan.entries:
        print(f"  component {e.index}: states {e.states} kind={e.kind} "
              f"depth={e.depth} local eps={e.eps_local:.2e}")
    print()

    topo = solve_topological(g, eps)
    plain = solve_svi(g, eps)
    t_updates = sum(t.updates for t in topo.trace)
    p_updates = sum(t.updates for t in plain.trace)
    print(f"topological: {topo.iterations} local iterations, {t_updates} state updates")
    print(f"plain sweep: {plain.iterations} iterations, {p_updates} state updates")
    worst = max(abs(a - b) for a, b in zip(topo.value, plain.value))
    print(f"largest disagreement between the two: {worst:.3e}")


if __name__ == "__main__":
    main()
