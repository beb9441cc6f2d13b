"""Load a model from disk, solve it, and cross-check against the oracle."""

from pathlib import Path

from ssgsolve.model import parse_model
from ssgsolve.oracle import exact_value
from ssgsolve.svi import solve_svi

MODELS = Path(__file__).parent / "models"


def main():
    game = parse_model((MODELS / "choice.ssg").read_text())
    print(f"loaded {game.n_states} states, targets {sorted(game.targets)}")

    res = solve_svi(game, eps=1e-6)
    print(f"converged in {res.iterations} iterations ({res.wall_ms:.2f} ms)")
    for s in range(game.n_states):
        print(f"  state {s}: value {res.value[s]:.6f} "
              f"certified in [{res.lower[s]:.6f}, {res.upper[s]:.6f}]")
    for s, label in sorted(res.strategy.items()):
        print(f"  play {label!r} at state {s}")

    # exact rational answer for comparison
    ores = exact_value(game)
    print("exact values:", ", ".join(str(v) for v in ores.values))


if __name__ == "__main__":
    main()
