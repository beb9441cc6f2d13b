"""Command line front end.

Subcommands: solve (one model, one algorithm, optional JSON report),
oracle (exact rational values), compare (CSV of several algorithms over
several models), fuzz (randomized cross-checking), gen (write a random
model). Exit codes: 0 success, 1 fuzz found a counterexample, 2 unreadable
or unparseable model (a missing file or one that is not UTF-8 text
included) or bad arguments (argparse's usage errors, such as an --eps
that is not positive, a negative --max-iters, a fuzz --max-states below
2 or gen parameters out of range), 3 a model that parses but fails
validation, 4 solver hit the iteration cap, 5 model too
large for the exact oracle (more than 12 states, or under --order minmax
more than 10^7 strategy pairs), 141 stdout closed early (a broken pipe, as in
`ssgsolve solve model.ssg | head`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .baselines import UNSOUND_NOTE, solve_bvi, solve_vi
from .fuzz import run_fuzz
from .model import (
    GenParams,
    ModelError,
    ParseError,
    StochasticGame,
    ValidationError,
    generate_random,
    normalize,
    parse_model,
    partition_states,
    serialize_model,
)
from .oracle import TooLarge, exact_value
from .results import SolveResult
from .svi import solve_svi
from .topo import solve_topological

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NOT_CONVERGED = 4
EXIT_TOO_LARGE = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a killed writer

CSV_HEADER = "model,algorithm,iterations,converged,wall_ms,max_gap"

# every solver takes (game, eps, max_iters=...); topo runs svi inside by default
SOLVERS = {"vi": solve_vi, "bvi": solve_bvi, "svi": solve_svi, "topo": solve_topological}


def _read_model(path: str) -> StochasticGame:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return normalize(parse_model(text))


def _run_algorithm(game: StochasticGame, args: argparse.Namespace) -> SolveResult:
    if args.topo:
        return SOLVERS["topo"](game, args.eps, inner=args.algo, max_iters=args.max_iters)
    options = {}
    if args.algo == "svi":
        options = {"ec_handling": not args.no_ec_handling,
                   "mode": "relative" if args.relative else "absolute"}
    return SOLVERS[args.algo](game, args.eps, max_iters=args.max_iters, **options)


def _result_payload(model: str, res: SolveResult, eps: float, mode: str,
                    with_trace: bool) -> dict:
    payload = {
        "model": model,
        "algorithm": res.algorithm,
        "eps": eps,
        "mode": mode,
        "iterations": res.iterations,
        "converged": res.converged,
        "global_lower": res.global_lower,
        "global_upper": res.global_upper,
        "states": [
            {"id": s, "lower": res.lower[s], "upper": res.upper[s], "value": res.value[s]}
            for s in range(len(res.value))
        ],
        "strategy": {str(s): a for s, a in sorted(res.strategy.items())},
        "wall_ms": res.wall_ms,
    }
    if with_trace:
        payload["trace"] = [dataclasses.asdict(t) for t in res.trace]
    return payload


def _cmd_solve(args: argparse.Namespace) -> int:
    game = _read_model(args.model)
    res = _run_algorithm(game, args)
    mode = "relative" if args.relative else "absolute"
    print(f"{args.model}: {res.algorithm} eps={args.eps:g} mode={mode}")
    print(f"iterations={res.iterations} converged={'yes' if res.converged else 'no'} "
          f"wall_ms={res.wall_ms:.2f}")
    print(f"global bounds: [{res.global_lower:.6f}, {res.global_upper:.6f}]")
    if not res.sound:
        print(f"note: {UNSOUND_NOTE}, distance to the true value unknown")
    if args.trace:
        for t in res.trace:
            tag = f" scc={t.scc}" if t.scc is not None else ""
            dl = "-" if t.d_l is None else f"{t.d_l:.6f}"
            du = "-" if t.d_u is None else f"{t.d_u:.6f}"
            print(f"  k={t.k}{tag} l={t.l:.6f} u={t.u:.6f} d_l={dl} d_u={du} "
                  f"delayed={t.delayed} gap={t.max_gap:.3e}")
    for s in range(game.n_states):
        print(f"state {s}: value={res.value[s]:.6f} in [{res.lower[s]:.6f}, {res.upper[s]:.6f}]")
    if args.strategy:
        for s, a in sorted(res.strategy.items()):
            print(f"strategy: state {s} -> {a}", file=sys.stderr)
    if args.json:
        payload = _result_payload(args.model, res, args.eps, mode, args.trace)
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def _cmd_oracle(args: argparse.Namespace) -> int:
    game = _read_model(args.model)
    res = exact_value(game, order=args.order)
    for s, v in enumerate(res.values):
        print(f"state {s}: {v.numerator}/{v.denominator} ({float(v):.12g})")
    print(f"pairs evaluated: {res.pairs_evaluated}")
    if args.json:
        payload = {
            "model": args.model,
            "order": args.order,
            "states": [
                {"id": s, "exact": f"{v.numerator}/{v.denominator}", "value": float(v)}
                for s, v in enumerate(res.values)
            ],
            "max_strategy": {str(s): a for s, a in sorted(res.max_strategy.items())},
            "min_strategy": {str(s): a for s, a in sorted(res.min_strategy.items())},
            "pairs_evaluated": res.pairs_evaluated,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    print(CSV_HEADER)
    for path in args.models:
        try:
            game = _read_model(path)
        except (ModelError, OSError) as exc:
            print(f"note: {path}: {exc}", file=sys.stderr)
            for algo in algos:
                print(f"{path},{algo},0,false,0.000,")
            continue
        for algo in algos:
            solver = SOLVERS.get(algo)
            if solver is None:
                print(f"note: {path}: unknown algorithm {algo!r}", file=sys.stderr)
                print(f"{path},{algo},0,false,0.000,")
                continue
            try:
                res = solver(game, args.eps, max_iters=args.max_iters)
            except Exception as exc:
                print(f"note: {path}: {algo} failed: {exc}", file=sys.stderr)
                print(f"{path},{algo},0,false,0.000,")
                continue
            gap = res.max_final_gap
            print(f"{path},{algo},{res.iterations},{'true' if res.converged else 'false'},"
                  f"{res.wall_ms:.3f},{gap:.9f}")
            if not res.converged:
                print(f"note: {path}: {algo} hit the iteration cap", file=sys.stderr)
    return EXIT_OK


def _cmd_fuzz(args: argparse.Namespace) -> int:
    algos = tuple(a.strip() for a in args.algos.split(",") if a.strip())
    report = run_fuzz(
        args.count, args.seed, max_states=args.max_states, eps=args.eps,
        algorithms=algos, sample_iters=args.sample_iters, out_dir=args.out,
    )
    print(f"checked={report.checked} skipped={report.skipped} failures={len(report.failures)}")
    for ce in report.failures:
        print(f"counterexample #{ce.index} [{ce.algorithm}]: {ce.reason}", file=sys.stderr)
    for path in report.written:
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def _gen_params(args: argparse.Namespace) -> GenParams:
    return GenParams(
        n_states=args.states,
        max_actions_per_state=args.max_actions,
        max_branching=args.branching,
        target_fraction=args.target_fraction,
        min_player_fraction=args.min_fraction,
        ec_bias=args.ec_bias,
        seed=args.seed,
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    game = generate_random(_gen_params(args))
    text = serialize_model(game)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    part = partition_states(game)
    print(f"generated {game.n_states} states: {len(game.targets)} target, "
          f"{len(part.attractor)} value-1, {len(part.sinks)} sink, "
          f"{len(part.unknown)} unknown", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssgsolve",
        description="Reachability values in turn-based stochastic games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one model")
    p_solve.add_argument("model", help="model file, or - for stdin")
    p_solve.add_argument("--algo", choices=["vi", "bvi", "svi"], default="svi")
    p_solve.add_argument("--topo", action="store_true",
                         help="solve SCC by SCC with --algo as the inner solver")
    p_solve.add_argument("--no-ec-handling", action="store_true",
                         help="disable end component handling (svi only; may diverge)")
    p_solve.add_argument("--eps", type=float, default=1e-6)
    p_solve.add_argument("--relative", action="store_true",
                         help="stop on relative instead of absolute precision (svi only)")
    p_solve.add_argument("--max-iters", type=int, default=10_000_000)
    p_solve.add_argument("--json", metavar="PATH", help="write a JSON report")
    p_solve.add_argument("--trace", action="store_true", help="print per-iteration bounds")
    p_solve.add_argument("--strategy", action="store_true",
                         help="print the chosen actions to stderr")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exact rational values by strategy iteration")
    p_oracle.add_argument("model", help="model file, or - for stdin")
    p_oracle.add_argument("--order", choices=["maxmin", "minmax"], default="maxmin",
                          help="minmax enumerates every strategy pair instead, as a cross-check")
    p_oracle.add_argument("--json", metavar="PATH", help="write a JSON report")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_cmp = sub.add_parser("compare", help="CSV comparison of algorithms over models")
    p_cmp.add_argument("models", nargs="+", help="model files")
    p_cmp.add_argument("--algos", default="vi,bvi,svi,topo",
                       help="comma separated algorithm list")
    p_cmp.add_argument("--eps", type=float, default=1e-6)
    p_cmp.add_argument("--max-iters", type=int, default=10_000_000)
    p_cmp.set_defaults(func=_cmd_compare)

    p_fuzz = sub.add_parser("fuzz", help="random models cross-checked against the oracle")
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--max-states", type=int, default=8)
    p_fuzz.add_argument("--eps", type=float, default=1e-6)
    p_fuzz.add_argument("--algos", default="svi,bvi,topo")
    p_fuzz.add_argument("--sample-iters", type=int, default=10)
    p_fuzz.add_argument("--out", metavar="DIR", help="write failing models here")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_gen = sub.add_parser("gen", help="generate a random model")
    p_gen.add_argument("--states", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-actions", type=int, default=2)
    p_gen.add_argument("--branching", type=int, default=2)
    p_gen.add_argument("--target-fraction", type=float, default=0.2)
    p_gen.add_argument("--min-fraction", type=float, default=0.5)
    p_gen.add_argument("--ec-bias", type=float, default=0.0)
    p_gen.add_argument("-o", "--out", metavar="PATH", help="write here instead of stdout")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "relative", False) and (args.algo != "svi" or args.topo):
        parser.error("--relative is only available for plain --algo svi")
    if getattr(args, "no_ec_handling", False) and (args.algo != "svi" or args.topo):
        parser.error("--no-ec-handling is only available for plain --algo svi")
    if getattr(args, "topo", False) and args.algo == "vi":
        parser.error("--topo needs a sound inner solver (bvi or svi)")
    if not getattr(args, "eps", 1.0) > 0:  # NaN fails this test too
        parser.error("--eps must be positive")
    if getattr(args, "max_iters", 0) < 0:
        parser.error("--max-iters must not be negative")
    if args.command == "fuzz" and args.max_states < 2:
        parser.error("--max-states must be at least 2")
    if args.command == "gen":
        try:
            _gen_params(args).validate()
        except ValidationError as exc:
            parser.error(str(exc))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # whatever is still buffered goes to devnull, so the exit-time flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
