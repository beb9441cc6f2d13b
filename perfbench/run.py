"""Certified-solve benchmark for ssgsolve: time, iterations and failures.

Run from the repository root (numpy is the only dependency):

    python3 perfbench/run.py --workload chains --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One workload runs in one process, single-threaded, as a closed loop: every
call starts when the previous one returns. Each model of the workload goes
through `exact_value` and then `solve_vi`, `solve_bvi`, `solve_svi` and
`solve_topological` (inner svi), all at eps = 1e-6 with `max_iters=2000`, a
budget above every iteration count a converging solve needed while the
workloads were sized (at most 1375), so a stalled solve costs its cap and
counts as a failure instead of hanging. The oracle refuses models beyond
its 12-state limit (`TooLarge`); that refusal is timed as well, as the
median of 21 back-to-back calls (one ~0.2 ms call is mostly timer jitter).

Workloads and why they were chosen:

  chains        `serial_loops(150)` (p = 0.98, loop i has value (1/2)^(150-i))
                and `slow_loop`: the paper's sticky-loop family. Many SCCs and
                no end components, so the work falls on the sweeps, svi's
                support tracking and topo's per-component set-up.
  random        `generate_random` at 80 states, 3 actions, branching 3, target
                fraction 0.05, min-player fraction 0.5, generator seeds 2 and 3
                at ec_bias 0 and at ec_bias 0.5. At 0.5 a large end component
                puts the graph layer in front; seed 2 at ec_bias 0 hits the svi
                delay livelock, and those capped solves are counted failures.
  oracle_small  the first 300 models of the stream `run_fuzz` draws with
                max_states=12: thousands of tiny calls, where per-call set-up
                and the exact oracle dominate; the exact values check soundness.

The model corpus of a workload is fixed; the seed permutes the state ids of
every chains and random model and shuffles the order of the oracle_small
models. The cost of one model spans two orders of magnitude, so drawing the
corpus from the seed would make the spread between seeds exceed any useful
bound; on the tiny oracle_small games svi's iteration count also depends on
the state numbering, which is why those games keep theirs.

A run repeats whole passes over the workload while the last pass still fits
into --seconds (at least one pass). Every time is in reference-speed seconds:
the wall time rescaled by a fixed kernel timed right before the calls and
every 0.1 s inside them (hostspeed.py), because this host's speed switches
by up to a factor of two within fractions of a second. Each `*_s` metric
sums, over the calls of one pass, each call's median time among the passes.
Medians and tail percentiles of the call times are in the report file.
Iteration sums and `solved_frac` are the median over passes (they repeat
exactly). `setup_s` is the median of nine fresh-interpreter imports of the
package plus the median of seven rounds of model generation and a serialize
-> parse_model -> normalize round trip of every model. `peak_rss_mb` is the
process's peak RSS when the first pass ends.

Output checks (a wrong output makes `correct` false and counts as failed):
the bracket [lower, upper] of every algorithm must contain the reference
value within `fuzz.SLACK` and a converged sound value must lie within eps of
it (2 eps for topo) - the reference is the closed form on chains and
`exact_value` on oracle_small; on every workload the brackets of bvi, svi
and topo must overlap state by state and vi's lower bound must stay below
every sound upper bound. A solve that hits the cap returns valid bounds, so
it is checked the same way and counted as failed but not as wrong.

With --trace 1 the run alternates an untraced and a traced pass and prints
the per-layer metrics of `layers.py` instead. Per-pair records, the capped
models, failures, percentiles and (traced) the spans go to perfbench/out/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "ssgsolve" / "__init__.py").is_file():
    sys.exit(f"perfbench: no ssgsolve sources under {SRC}")
sys.path.insert(0, str(SRC))

import ssgsolve  # noqa: E402
from ssgsolve import presets  # noqa: E402
from ssgsolve.baselines import solve_bvi, solve_vi  # noqa: E402
from ssgsolve.fuzz import SLACK  # noqa: E402
from ssgsolve.model import (  # noqa: E402
    Action,
    GenParams,
    StochasticGame,
    generate_random,
    normalize,
    parse_model,
    serialize_model,
)
from ssgsolve.oracle import ExactResult, TooLarge, exact_value  # noqa: E402
from ssgsolve.results import SolveResult  # noqa: E402
from ssgsolve.svi import solve_svi  # noqa: E402
from ssgsolve.topo import solve_topological  # noqa: E402

if not Path(ssgsolve.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported ssgsolve from {ssgsolve.__file__}, not from {SRC}")

from hostspeed import HostSpeed  # noqa: E402
from layers import LAYER_METRICS, Tracer  # noqa: E402

EPS = 1e-6
MAX_ITERS = 2000
ALGOS = ("vi", "bvi", "svi", "topo")
SOUND = ("bvi", "svi", "topo")
TIMED = ("oracle",) + ALGOS
SETUP_REPEATS = 7
REFUSAL_REPEATS = 21  # a TooLarge refusal is a ~0.2 ms size check; one timing of it is mostly jitter
IMPORT_REPEATS = 9
FUZZ_STREAM_SEED = 0
RANDOM_GEN_SEEDS = (2, 3)
PERCENTILES = (50, 90, 99, 99.9)
# times `import ssgsolve` in a fresh interpreter, rescaled by kernel samples taken in that interpreter
IMPORT_PROBE = ("import time, hostspeed as h; k = lambda: sorted(h.kernel_time() for _ in range(3))[1]; "
                "k(); k0 = k(); t = time.perf_counter(); import ssgsolve; t = time.perf_counter() - t; "
                "print(h.rescale(t, k0, k()))")

# (unit, better) of every end-to-end metric, in report order
E2E_METRICS = {
    "svi_s": ("s", "lower"),
    "bvi_s": ("s", "lower"),
    "vi_s": ("s", "lower"),
    "topo_s": ("s", "lower"),
    "oracle_s": ("s", "lower"),
    "svi_iters": ("count", "lower"),
    "bvi_iters": ("count", "lower"),
    "topo_iters": ("count", "lower"),
    "vi_iters": ("count", "lower"),
    "solved_frac": ("frac", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


# -- workloads ---------------------------------------------------------------


@dataclass
class Model:
    name: str
    game: StochasticGame
    expected: list[float] | None = None  # closed-form values, where known


def permute_states(game: StochasticGame, perm: list[int]) -> StochasticGame:
    """The same game with state s renamed perm[s]; transition order is kept."""
    owner: list[str] = [""] * game.n_states
    actions: list[tuple[Action, ...]] = [()] * game.n_states
    for s in range(game.n_states):
        owner[perm[s]] = game.owner[s]
        actions[perm[s]] = tuple(
            Action(a.label, tuple((perm[t], p) for t, p in a.transitions)) for a in game.actions[s]
        )
    return StochasticGame(game.n_states, tuple(owner), tuple(actions),
                          frozenset(perm[t] for t in game.targets))


def _permuted(name: str, game: StochasticGame, rng: random.Random,
              values: list[float] | None = None) -> Model:
    perm = list(range(game.n_states))
    rng.shuffle(perm)
    expected = None
    if values is not None:
        expected = [0.0] * game.n_states
        for s, v in enumerate(values):
            expected[perm[s]] = v
    return Model(name, permute_states(game, perm), expected)


def chains_models(seed: int, tiny: bool = False) -> list[Model]:
    rng = random.Random(seed)
    k = 5 if tiny else 150
    chain = [0.5 ** (k - i) for i in range(k)] + [1.0, 0.0]
    return [
        _permuted(f"serial_loops({k})", presets.serial_loops(k), rng, chain),
        _permuted("slow_loop", presets.slow_loop(), rng, [0.5, 1.0, 0.0]),
    ]


def random_models(seed: int, tiny: bool = False) -> list[Model]:
    rng = random.Random(seed)
    n, seeds = (8, (0,)) if tiny else (80, RANDOM_GEN_SEEDS)
    return [
        _permuted(f"random(n={n},ec_bias={bias},seed={s})",
                  generate_random(GenParams(n, 3, 3, 0.05, 0.5, bias, s)), rng)
        for bias in (0.0, 0.5) for s in seeds
    ]


def oracle_small_models(seed: int, tiny: bool = False) -> list[Model]:
    # the GenParams stream of ssgsolve.fuzz.run_fuzz(count, FUZZ_STREAM_SEED, max_states=12)
    stream = random.Random(FUZZ_STREAM_SEED)
    models = []
    for i in range(12 if tiny else 300):
        params = GenParams(
            n_states=stream.randint(2, 12),
            max_actions_per_state=stream.randint(1, 3),
            max_branching=stream.randint(1, 3),
            target_fraction=stream.choice([0.1, 0.2, 0.4]),
            min_player_fraction=stream.choice([0.3, 0.5, 0.7]),
            ec_bias=stream.choice([0.0, 0.3, 0.7, 1.0]),
            seed=stream.randrange(2**31),
        )
        models.append(Model(f"fuzz#{i}", generate_random(params)))
    random.Random(seed).shuffle(models)
    return models


WORKLOADS: dict[str, Callable[[int, bool], list[Model]]] = {
    "chains": chains_models,
    "random": random_models,
    "oracle_small": oracle_small_models,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Model]:
    """Generate the workload and pass every model through the text format."""
    models = WORKLOADS[workload](seed, tiny)
    for m in models:
        game = normalize(parse_model(serialize_model(m.game)))
        if game != normalize(m.game):
            raise RuntimeError(f"{m.name}: serialize -> parse_model round trip changed the game")
        m.game = game
    return models


def measure_setup(workload: str, seed: int, tiny: bool = False) -> tuple[float, list[Model]]:
    """setup_s (median import in a fresh interpreter + median build) and the models.

    Both are in reference-speed seconds (see hostspeed.py).
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(HERE)))}
    imports = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        imports.append(float(done.stdout.split()[-1]))
    speed = HostSpeed()
    spans = []
    with speed.sampling():
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            models = build(workload, seed, tiny)
            spans.append((t0, perf_counter()))
    builds = [speed.measure(*span)[1] for span in spans]
    return statistics.median(imports) + statistics.median(builds), models


# -- one pass ----------------------------------------------------------------


def public_calls() -> dict[str, Callable]:
    return {
        "oracle": exact_value,
        "vi": lambda g: solve_vi(g, EPS, max_iters=MAX_ITERS),
        "bvi": lambda g: solve_bvi(g, EPS, max_iters=MAX_ITERS),
        "svi": lambda g: solve_svi(g, EPS, max_iters=MAX_ITERS),
        "topo": lambda g: solve_topological(g, EPS, inner="svi", max_iters=MAX_ITERS),
    }


def timed(call: Callable[[], object]) -> tuple[float, float, object]:
    """Start, wall time and result of the call, or the exception it raised."""
    t0 = perf_counter()
    try:
        outcome = call()
    except Exception as exc:  # a solve that raises is a counted failure
        outcome = exc
    return t0, perf_counter() - t0, outcome


def check_outputs(results: dict[str, object], reference: list[float] | None) -> dict[str, str]:
    """The first reason each algorithm's output is wrong; algorithms that pass are absent."""
    bad: dict[str, str] = {}

    def flag(algo: str, why: str) -> None:
        bad.setdefault(algo, why)

    ok = {a: r for a, r in results.items() if isinstance(r, SolveResult)}
    for algo, r in results.items():
        if algo not in ok:
            flag(algo, f"raised {r!r}")
    if reference is not None:
        for algo, r in ok.items():
            tol = 2 * EPS if algo == "topo" else EPS
            for s, v in enumerate(reference):
                if r.lower[s] > v + SLACK:
                    flag(algo, f"lower {r.lower[s]!r} above reference {v!r} at state {s}")
                elif r.upper[s] < v - SLACK:
                    flag(algo, f"upper {r.upper[s]!r} below reference {v!r} at state {s}")
                elif algo in SOUND and r.converged and abs(r.value[s] - v) > tol + SLACK:
                    flag(algo, f"value off by {abs(r.value[s] - v):.3e} at state {s}")
    for a in ok:
        for b in ok:
            if a == b or b not in SOUND:
                continue
            for s, (lo, hi) in enumerate(zip(ok[a].lower, ok[b].upper)):
                if lo > hi + SLACK:
                    why = f"lower of {a} {lo!r} above upper of {b} {hi!r} at state {s}"
                    flag(a, why)
                    if a in SOUND:
                        flag(b, why)
                    break
    return bad


@dataclass
class Record:
    model: str
    algo: str
    start: float
    wall_s: float  # without the host-speed samples taken inside the call
    ref_s: float = 0.0  # wall_s at the reference host speed
    iterations: int = 0
    converged: bool = False
    final_gap: float | None = None
    failure: str | None = None
    wrong: bool = False


@dataclass
class Pass:
    records: list[Record] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # wrong outputs outside the solves
    peak_rss_mb: float = 0.0  # of the process, when the pass ended

    def iterations(self, algo: str) -> int:
        return sum(r.iterations for r in self.records if r.algo == algo)

    @property
    def solves(self) -> list[Record]:
        return [r for r in self.records if r.algo in ALGOS]


def run_pass(models: list[Model], calls: dict[str, Callable], speed: HostSpeed | None = None,
             refusal_repeats: int = REFUSAL_REPEATS) -> Pass:
    """Every call on every model once, with the outputs checked.

    An oracle refusal is timed `refusal_repeats` times back to back and its
    median time is recorded.
    """
    speed = speed or HostSpeed()
    out = Pass()
    for m in models:
        speed.tick()
        t0, t, exact = timed(lambda: calls["oracle"](m.game))
        if isinstance(exact, TooLarge) and refusal_repeats > 1:
            again = [timed(lambda: calls["oracle"](m.game))[1] for _ in range(refusal_repeats - 1)]
            t = statistics.median([t, *again])
        out.records.append(Record(m.name, "oracle", t0, t))
        reference = m.expected
        if isinstance(exact, ExactResult):
            values = [float(v) for v in exact.values]
            if reference is not None and any(abs(a - b) > SLACK for a, b in zip(values, reference)):
                out.problems.append(f"{m.name}: exact_value disagrees with the closed form")
            reference = values
        elif not isinstance(exact, TooLarge):
            out.problems.append(f"{m.name}: exact_value raised {exact!r}")
        results = {}
        for algo in ALGOS:
            speed.tick()
            t0, t, results[algo] = timed(lambda: calls[algo](m.game))
            rec = Record(m.name, algo, t0, t)
            r = results[algo]
            if isinstance(r, SolveResult):
                rec.iterations, rec.converged, rec.final_gap = r.iterations, r.converged, r.max_final_gap
                if not r.converged:
                    rec.failure = f"capped at {MAX_ITERS} iterations, final gap {r.max_final_gap:.3g}"
            out.records.append(rec)
        wrong = check_outputs(results, reference)
        for rec in out.records[-len(ALGOS):]:
            why = wrong.get(rec.algo)
            if why is not None:
                rec.failure, rec.wrong = why, True
    speed.sample()
    for rec in out.records:
        rec.wall_s, rec.ref_s = speed.measure(rec.start, rec.start + rec.wall_s)
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


# -- a whole run -------------------------------------------------------------


def measure(models: list[Model], calls: dict[str, Callable], seconds: float) -> list[Pass]:
    """Whole passes while the last one still fits into `seconds`; at least one."""
    start = perf_counter()
    speed = HostSpeed()
    passes = []
    while True:
        t0 = perf_counter()
        with speed.sampling():
            passes.append(run_pass(models, calls, speed))
        took = perf_counter() - t0
        if perf_counter() - start + took > seconds:
            return passes


def call_total(passes: list[Pass], algo: str) -> float:
    """Sum over the algorithm's calls of each call's median reference-speed time."""
    columns = zip(*(p.records for p in passes))
    return sum(statistics.median(r.ref_s for r in col) for col in columns if col[0].algo == algo)


def e2e_metrics(passes: list[Pass], setup_s: float) -> dict[str, float]:
    def med(fn: Callable[[Pass], float]) -> float:
        return statistics.median(fn(p) for p in passes)

    metrics = {f"{a}_s": call_total(passes, a) for a in TIMED}
    for a in ALGOS:
        metrics[f"{a}_iters"] = med(lambda p, a=a: p.iterations(a))
    metrics["solved_frac"] = med(lambda p: 1.0 - sum(r.failure is not None for r in p.solves)
                                 / len(p.solves))
    metrics["setup_s"] = setup_s
    # later passes repeat the same solves and only add the benchmark's own records
    metrics["peak_rss_mb"] = passes[0].peak_rss_mb
    return {k: metrics[k] for k in E2E_METRICS}


def percentile_summary(passes: list[Pass]) -> dict[str, dict]:
    """Per *_s metric: median call time and the highest percentile with >= 10 calls beyond it."""
    out = {}
    for algo in TIMED:
        times = sorted(r.ref_s for p in passes for r in p.records if r.algo == algo)
        n = len(times)
        top = [q for q in PERCENTILES if n * (100 - q) / 100 >= 10]
        entry = {"samples": n, "median_s": statistics.median(times)}
        if top:
            q = top[-1]
            entry[f"p{q:g}_s"] = times[min(n - 1, math.ceil(n * q / 100) - 1)]
        out[f"{algo}_s"] = entry
    return out


def pair_records(passes: list[Pass]) -> list[dict]:
    """One record per (algorithm, model): the first pass's outcome and median times."""
    rows = []
    for i, rec in enumerate(passes[0].records):
        row = dict(vars(rec))
        del row["start"]
        row["wall_s"] = statistics.median(p.records[i].wall_s for p in passes)
        row["ref_s"] = statistics.median(p.records[i].ref_s for p in passes)
        rows.append(row)
    return rows


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the final result object, the report goes to OUT."""
    setup_s, models = measure_setup(workload, seed, tiny)
    calls = public_calls()
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "eps": EPS, "max_iters": MAX_ITERS, "models": [m.name for m in models]}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    if not trace:
        passes = timing = measure(models, calls, seconds)
        metrics = e2e_metrics(passes, setup_s)
        units = E2E_METRICS
        report["percentiles"] = percentile_summary(passes)
    else:
        timing, traced, metrics, report["self_time_under"] = traced_run(models, calls, seconds, stem)
        passes = timing + traced
        units = LAYER_METRICS
    failures = [r for p in passes for r in p.solves if r.failure is not None]
    problems = [msg for p in passes for msg in p.problems]
    result = {
        "correct": not problems and not any(r.wrong for r in failures),
        "attempted": sum(len(p.solves) for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
    report.update({
        "passes": len(passes),
        "result": result,
        "capped": sorted({(r.algo, r.model) for r in passes[0].solves if not r.converged}),
        "failures": [(r.algo, r.model, r.failure) for r in passes[0].solves if r.failure],
        "problems": problems,
        "records": pair_records(timing),
    })
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    _print_summary(report)
    return result


def traced_run(models: list[Model], calls: dict[str, Callable], seconds: float,
               stem: Path) -> tuple[list[Pass], list[Pass], dict[str, float], dict]:
    """Alternate untraced and traced passes; per-layer metrics are means per traced pass.

    Returns the untraced passes, the traced ones, the metrics and, for each
    public call, the self time per layer under it in the first traced pass.

    trace_overhead_frac is the median over pairs of traced / untraced solve time - 1.
    Here the host-speed kernel runs only between calls (not from SIGALRM),
    so that it stays out of the spans and both sides are rescaled alike.
    """
    tracer = Tracer()
    traced_calls = {a: tracer.public(a, fn) for a, fn in calls.items()}
    start = perf_counter()
    speed = HostSpeed()
    plain, traced, sums = [], [], {}
    under: dict = {}
    while True:
        t0 = perf_counter()
        plain.append(run_pass(models, calls, speed))
        tracer.install()
        try:
            for m in models:
                tracer.parse(serialize_model(m.game))
            traced.append(run_pass(models, traced_calls, speed, refusal_repeats=1))
        finally:
            tracer.uninstall()
        for key, value in tracer.layer_metrics().items():
            sums[key] = sums.get(key, 0.0) + value
        if len(traced) == 1:
            under = {algo: tracer.self_time_under(algo) for algo in TIMED}
            tracer.write_spans(stem.with_suffix(".spans.jsonl"))
        tracer.reset()
        took = perf_counter() - t0
        if perf_counter() - start + took > seconds:
            break

    def solve_time(p: Pass) -> float:
        return sum(r.ref_s for r in p.records)

    metrics = {key: value / len(traced) for key, value in sums.items()}
    metrics["trace_overhead_frac"] = statistics.median(
        solve_time(t) / solve_time(p) for p, t in zip(plain, traced)) - 1.0
    return plain, traced, metrics, under


def _print_summary(report: dict) -> None:
    res = report["result"]
    print(f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']}  "
          f"trace {report['trace']}")
    for name, m in res["metrics"].items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    print(f"  solves {res['attempted']}, failed {res['failed']} "
          f"({res['failed'] / res['attempted']:.4f}), outputs correct: {res['correct']}")
    for algo, model in report["capped"]:
        print(f"  capped: {algo} on {model}")
    for algo, model, why in report["failures"]:
        if not why.startswith("capped"):
            print(f"  WRONG: {algo} on {model}: {why}")
    for msg in report["problems"][:10]:
        print(f"  WRONG: {msg}")
    for algo, layers in report.get("self_time_under", {}).items():
        top = ", ".join(f"{k} {v:.3g}s" for k, v in list(layers.items())[:4])
        if top:
            print(f"  self time under {algo}: {top}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints one table and exits 1 on a wrong output."""
    rows, status, combined = [], 0, {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined[name] = result
        status = status or (0 if result["correct"] else 1)
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
    print(f"\n{'workload':14s} {'metric':28s} {'value':>14s} unit")
    for name, metric, value, unit in rows:
        print(f"{name:14s} {metric:28s} {value:>14.6g} {unit}")
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
