"""Why cyclic structure needs special handling.

Inside an end component the players can spin forever, so the naive upper
estimate never drops below 1: every state defers to its neighbour. The
component pass ranks the Maximizer's exits and forces play towards the
best one. Provably worthless traps never get that far: the state
partition counts them among the sinks before the first sweep.
"""

from ssgsolve.presets import exit_seesaw, loop_or_coin, minimizer_trap
from ssgsolve.svi import solve_svi


def main():
    g = loop_or_coin()
    stuck = solve_svi(g, eps=1e-6, ec_handling=False, max_iters=200)
    print(f"without the component pass: converged={stuck.converged} "
          f"after {stuck.iterations} iterations, upper still {stuck.trace[-1].u}")
    fixed = solve_svi(g, eps=1e-6)
    print(f"with it: value {fixed.value[0]:.6f} in {fixed.iterations} iteration(s)")
    print()

    # two Maximizer states pass the buck until one is held back for a turn
    res = solve_svi(exit_seesaw(), eps=1e-6)
    delays = [t.delayed for t in res.trace]
    print(f"seesaw: values ({res.value[0]:.6f}, {res.value[1]:.6f}), "
          f"delayed states per iteration {delays}")
    print()

    # a component with no Maximizer exit is worthless: a sink from the start
    res = solve_svi(minimizer_trap(), eps=1e-6)
    print(f"trap game: values {[round(v, 6) for v in res.value]} "
          f"in {res.iterations} iteration(s), strategy {res.strategy}")


if __name__ == "__main__":
    main()
