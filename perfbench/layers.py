"""Layer spans for the traced benchmark run, recorded from outside the package.

`Tracer.install` replaces each layer function under the module attribute its
caller looks it up by (for example `svi.handle_ecs`, which `solve_svi` reads
from its own module globals, or the entries of `topo.INNER_SOLVERS`) with a
wrapper that records a span; `uninstall` puts the originals back. A span is
`[name, solve_id, parent, start, end]`: `parent` is the index of the span
that was open when this one began, so recursion (`best_exit_set` calling
itself, `mec_decompose` inside `deflate` inside `solve_bvi`) nests correctly,
and every span of one public call shares that call's `solve_id`. Spans stay
in memory until `write_spans`. Counts are taken at the same boundaries by
per-layer hooks.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

import ssgsolve.baselines as baselines
import ssgsolve.graph as graph
import ssgsolve.model as model
import ssgsolve.oracle as oracle
import ssgsolve.svi as svi
import ssgsolve.topo as topo

# span name of each public call, keyed by the benchmark's algorithm name
PUBLIC_SPANS = {
    "vi": "baselines.vi",
    "bvi": "baselines.bvi",
    "svi": "svi.solve",
    "topo": "topo.solve",
    "oracle": "oracle.exact",
}
SOLVER_SPANS = ("svi.solve", "baselines.bvi")

# (unit, better) of every per-layer metric, in report order
LAYER_METRICS = {
    "graph.mec_s": ("s", "lower"),
    "graph.mec_calls": ("count", "lower"),
    "graph.mec_states": ("count", "lower"),
    "graph.trap_s": ("s", "lower"),
    "graph.trapped": ("count", "lower"),
    "graph.best_exit_s": ("s", "lower"),
    "graph.scc_s": ("s", "lower"),
    "graph.ec_pass_repeat_frac": ("frac", "lower"),
    "svi.setup_s": ("s", "lower"),
    "svi.ec_pass_s": ("s", "lower"),
    "svi.choose_s": ("s", "lower"),
    "svi.decision_s": ("s", "lower"),
    "svi.decision_calls": ("count", "lower"),
    "svi.sweep_s": ("s", "lower"),
    "svi.fold_s": ("s", "lower"),
    "svi.termination_s": ("s", "lower"),
    "svi.self_s": ("s", "lower"),
    "svi.ms_per_iter": ("ms", "lower"),
    "svi.state_updates": ("count", "lower"),
    "svi.delayed": ("count", "lower"),
    "svi.bound_move_frac": ("frac", "higher"),
    "svi.capped": ("count", "lower"),
    "baselines.self_s": ("s", "lower"),
    "baselines.deflate_s": ("s", "lower"),
    "baselines.deflate_calls": ("count", "lower"),
    "baselines.bvi_ms_per_iter": ("ms", "lower"),
    "baselines.capped": ("count", "lower"),
    "topo.plan_s": ("s", "lower"),
    "topo.inner_s": ("s", "lower"),
    "topo.inner_calls": ("count", "lower"),
    "topo.self_s": ("s", "lower"),
    "topo.components": ("count", "lower"),
    "topo.frozen_entries": ("count", "lower"),
    "oracle.exact_s": ("s", "lower"),
    "oracle.pairs": ("count", "lower"),
    "oracle.too_large": ("count", "lower"),
    "model.parse_s": ("s", "lower"),
    "model.partition_s": ("s", "lower"),
    "model.partition_calls": ("count", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}

# per-layer self-time metrics that are a plain sum over one span name
_SELF_TIME = {
    "graph.mec_s": "graph.mec",
    "graph.trap_s": "graph.trap",
    "graph.best_exit_s": "graph.best_exit",
    "graph.scc_s": "graph.scc",
    "svi.ec_pass_s": "svi.ec_pass",
    "svi.choose_s": "svi.choose",
    "svi.decision_s": "svi.decision",
    "svi.sweep_s": "svi.sweep",
    "svi.fold_s": "svi.fold",
    "svi.termination_s": "svi.termination",
    "svi.self_s": "svi.solve",
    "baselines.deflate_s": "baselines.deflate",
    "topo.plan_s": "topo.plan",
    "topo.self_s": "topo.solve",
    "oracle.exact_s": "oracle.exact",
    "model.parse_s": "model.parse",
    "model.partition_s": "model.partition",
}
_SVI_SETUP = ("svi.float_rows", "svi.delta_tables", "model.partition")


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    """Span recorder plus the hooks that count work at each layer boundary."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.solve_id = -1
        self._stack: list[int] = []
        self._last_unknown: dict[int, frozenset[int]] = {}
        self._saved: list[tuple[Any, str, Any]] = []
        self.parse = self.wrap("model.parse", model.parse_model)

    # -- recording -----------------------------------------------------

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, self.solve_id, parent, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            result = exc = None
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[4] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    def public(self, algo: str, fn: Callable) -> Callable:
        """Wrap a public call made by the benchmark; each call is a new solve id."""
        inner = self.wrap(PUBLIC_SPANS[algo], fn, self._hooks().get(PUBLIC_SPANS[algo]))

        def call(*args, **kwargs):
            self.solve_id += 1
            return inner(*args, **kwargs)

        return call

    # -- hooks -----------------------------------------------------------

    def _hooks(self) -> dict[str, Callable]:
        c = self.counts

        def mec(args, kwargs, result, exc):
            restrict = _arg(args, kwargs, 1, "restrict")
            c["graph.mec_calls"] += 1
            c["graph.mec_states"] += args[0].n_states if restrict is None else len(restrict)

        def trap(args, kwargs, result, exc):
            c["graph.trapped"] += len(result or ())

        def decision(args, kwargs, result, exc):
            c["svi.decision_calls"] += 1

        def sweep(args, kwargs, result, exc):
            if result is not None:
                delayed = sum(1 for v in result[1].choices.values() if v == svi.DELAY)
                c["svi.delayed"] += delayed
                c["svi.state_updates"] += len(result[1].choices) - delayed

        def fold(args, kwargs, result, exc):
            before = _arg(args, kwargs, 2, "bounds")
            c["svi.fold_calls"] += 1
            if result is not None and (result.l, result.u) != (before.l, before.u):
                c["svi.fold_moves"] += 1

        def solved(prefix):
            def hook(args, kwargs, result, exc):
                if result is not None:
                    c[prefix + "_iters"] += result.iterations
                    c[prefix + "_capped"] += not result.converged
            return hook

        def deflate(args, kwargs, result, exc):
            c["baselines.deflate_calls"] += 1

        def plan(args, kwargs, result, exc):
            if result is not None:
                c["topo.components"] += len(result.unknown_entries())

        def exact(args, kwargs, result, exc):
            if result is not None:
                c["oracle.pairs"] += result.pairs_evaluated
            elif isinstance(exc, oracle.TooLarge):
                c["oracle.too_large"] += 1

        def partition(args, kwargs, result, exc):
            c["model.partition_calls"] += 1

        return {
            "graph.mec": mec, "graph.trap": trap,
            "svi.decision": decision, "svi.sweep": sweep, "svi.fold": fold,
            "svi.solve": solved("svi"), "baselines.bvi": solved("bvi"),
            "baselines.vi": solved("vi"), "baselines.deflate": deflate,
            "topo.plan": plan, "oracle.exact": exact, "model.partition": partition,
        }

    def _ec_pass_entry(self, fn: Callable) -> Callable:
        """Count handle_ecs calls whose unknown set repeats the previous one of its solve."""
        stack, last, c = self._stack, self._last_unknown, self.counts

        def entry(game, reach, stay, u, partition):
            # runs before handle_ecs trims traps, so the entry sets are compared
            owner = stack[-1] if stack else -1   # the enclosing solve_svi span
            unknown = frozenset(partition.unknown)
            c["svi.ec_pass_calls"] += 1
            if last.get(owner) == unknown:
                c["svi.ec_pass_repeats"] += 1
            last[owner] = unknown
            return fn(game, reach, stay, u, partition)

        return entry

    def _inner_solver(self, fn: Callable) -> Callable:
        c = self.counts

        def inner(*args, **kwargs):
            c["topo.inner_calls"] += 1
            c["topo.frozen_entries"] += len(kwargs.get("frozen") or ())
            return fn(*args, **kwargs)

        return inner

    # -- installing ------------------------------------------------------

    def _patch(self, module: Any, attr: str, value: Any) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap every layer function under the name its caller looks it up by."""
        hooks = self._hooks()

        def w(name, fn):
            return self.wrap(name, fn, hooks.get(name))

        ec_pass = self._ec_pass_entry(w("svi.ec_pass", svi.handle_ecs))
        for attr, name in (("choose_actions", "svi.choose"), ("decision_value", "svi.decision"),
                           ("bellman_update", "svi.sweep"), ("update_global_bounds", "svi.fold"),
                           ("check_termination", "svi.termination"),
                           ("float_rows", "svi.float_rows"), ("delta_tables", "svi.delta_tables")):
            self._patch(svi, attr, w(name, getattr(svi, attr)))
        self._patch(svi, "handle_ecs", ec_pass)
        mec = w("graph.mec", graph.mec_decompose)
        for attr, value in (("mec_decompose", mec), ("trap_states", w("graph.trap", graph.trap_states)),
                            ("best_exit_set", w("graph.best_exit", graph.best_exit_set)),
                            ("_sccs_via", w("graph.scc", graph._sccs_via))):
            self._patch(graph, attr, value)
        self._patch(baselines, "deflate", w("baselines.deflate", baselines.deflate))
        self._patch(baselines, "mec_decompose", mec)
        self._patch(baselines, "float_rows", w("svi.float_rows", baselines.float_rows))
        self._patch(topo, "build_plan", w("topo.plan", topo.build_plan))
        self._patch(topo, "scc_decompose", w("graph.scc", topo.scc_decompose))
        for module in (svi, baselines, topo, oracle):
            self._patch(module, "partition_states", w("model.partition", module.partition_states))
        inner = dict(topo.INNER_SOLVERS)
        self._saved.append((topo, "INNER_SOLVERS", topo.INNER_SOLVERS))
        topo.INNER_SOLVERS = {
            key: self._inner_solver(w("svi.solve" if key == "svi" else "baselines.bvi", fn))
            for key, fn in inner.items()
        }

    def reset(self) -> None:
        """Drop recorded spans and counts (the installed wrappers keep working)."""
        self.spans.clear()
        self.counts.clear()
        self._last_unknown.clear()

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # -- reading the spans -----------------------------------------------

    def self_times(self) -> tuple[list[float], list[str]]:
        """Per-span self time and the name of the public call each span ran under."""
        self_t = [s[4] - s[3] for s in self.spans]
        root = [""] * len(self.spans)
        for i, (name, _, parent, t0, t1) in enumerate(self.spans):
            root[i] = name if parent < 0 else root[parent]
            if parent >= 0:
                self_t[parent] -= t1 - t0
        return self_t, root

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace_overhead_frac, over all recorded spans."""
        self_t, _ = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        svi_setup = inner = 0.0
        for i, (name, _, parent, t0, t1) in enumerate(self.spans):
            by_name[name] += self_t[i]
            incl[name] += t1 - t0
            pname = self.spans[parent][0] if parent >= 0 else ""
            if name in _SVI_SETUP and pname == "svi.solve":
                svi_setup += self_t[i]
            if name in SOLVER_SPANS and pname == "topo.solve":
                inner += t1 - t0
        c = self.counts
        out = {key: by_name[name] for key, name in _SELF_TIME.items()}
        out["baselines.self_s"] = by_name["baselines.vi"] + by_name["baselines.bvi"]
        out["svi.setup_s"] = svi_setup
        out["topo.inner_s"] = inner
        for key in ("graph.mec_calls", "graph.mec_states", "graph.trapped", "svi.decision_calls",
                    "svi.state_updates", "svi.delayed", "baselines.deflate_calls",
                    "topo.inner_calls", "topo.components", "topo.frozen_entries",
                    "oracle.pairs", "oracle.too_large", "model.partition_calls"):
            out[key] = c[key]
        out["graph.ec_pass_repeat_frac"] = _ratio(c["svi.ec_pass_repeats"], c["svi.ec_pass_calls"])
        out["svi.bound_move_frac"] = _ratio(c["svi.fold_moves"], c["svi.fold_calls"])
        out["svi.ms_per_iter"] = 1000.0 * _ratio(incl["svi.solve"], c["svi_iters"])
        out["svi.capped"] = c["svi_capped"]
        out["baselines.bvi_ms_per_iter"] = 1000.0 * _ratio(incl["baselines.bvi"], c["bvi_iters"])
        out["baselines.capped"] = c["bvi_capped"] + c["vi_capped"]
        return out

    def self_time_under(self, algo: str) -> dict[str, float]:
        """Self time per span name, restricted to spans under the given public call."""
        self_t, root = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if root[i] == PUBLIC_SPANS[algo]:
                out[span[0]] += self_t[i]
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def write_spans(self, path) -> None:
        """One JSON array per span: name, solve id, parent index, start and end in
        microseconds from the first span's start."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, sid, parent, t0, t1 in self.spans:
                start, end = round((t0 - origin) * 1e6, 1), round((t1 - origin) * 1e6, 1)
                fh.write(json.dumps([name, sid, parent, start, end]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
