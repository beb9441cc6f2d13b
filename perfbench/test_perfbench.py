"""Self-tests of the benchmark.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_workload_runs_tiny_with_every_metric(workload, trace):
    result = run.run(workload, seed=5, seconds=0.0, trace=trace, tiny=True)
    assert result["correct"]
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = LAYER_METRICS if trace else run.E2E_METRICS
    assert list(result["metrics"]) == list(table)
    for name, m in result["metrics"].items():
        assert m["unit"] == table[name][0]
        assert isinstance(m["value"], (int, float))


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS


def _oracle_case():
    """A tiny model with an undecided state, every solver's result and the exact values."""
    calls = run.public_calls()
    for m in run.build("oracle_small", seed=5, tiny=True):
        exact = [float(v) for v in calls["oracle"](m.game).values]
        inner = [s for s, v in enumerate(exact) if 0.05 < v < 0.95]
        if inner:
            return {a: calls[a](m.game) for a in run.ALGOS}, exact, inner[0]
    raise AssertionError("no tiny model with an undecided state")


def test_check_accepts_sound_outputs_and_rejects_a_corrupted_bracket():
    results, exact, s = _oracle_case()
    assert run.check_outputs(results, exact) == {}
    svi = results["svi"]
    upper = list(svi.upper)
    upper[s] = exact[s] - 0.01
    bad = {**results, "svi": dataclasses.replace(svi, upper=upper)}
    assert "svi" in run.check_outputs(bad, exact)
    # without a reference the overlap with the other sound brackets catches it
    assert "svi" in run.check_outputs(bad, None)
    lower = list(results["vi"].lower)
    lower[s] = exact[s] + 0.01
    assert "vi" in run.check_outputs({**results, "vi": dataclasses.replace(results["vi"], lower=lower)},
                                     None)


def test_capped_solve_is_a_counted_failure_but_not_wrong():
    models = run.build("chains", seed=5, tiny=True)
    calls = {**run.public_calls(), "svi": lambda g: run.solve_svi(g, run.EPS, max_iters=1)}
    records = [r for r in run.run_pass(models, calls).records if r.algo == "svi"]
    capped = [r for r in records if not r.converged]
    assert capped
    assert all(r.failure.startswith("capped") and not r.wrong for r in capped)


def test_same_seed_gives_the_same_inputs():
    for workload in run.WORKLOADS:
        first = [(m.name, m.game) for m in run.build(workload, seed=7, tiny=True)]
        assert first == [(m.name, m.game) for m in run.build(workload, seed=7, tiny=True)]
        assert first != [(m.name, m.game) for m in run.build(workload, seed=8, tiny=True)]


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "chains", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_measure_takes_samples_out_and_rescales_by_the_samples_around_each_stretch():
    r = hostspeed.KERNEL_REF_S
    speed = hostspeed.HostSpeed()
    # samples at 0, 2 (inside the call [1, 4]) and 5; the kernel ran three times slower
    # than at the reference speed around both stretches of the call
    speed.starts, speed.took = [0.0, 2.0, 5.0], [2 * r, 4 * r, 2 * r]
    own, ref = speed.measure(1.0, 4.0)
    assert own == pytest.approx(3.0 - 4 * r)
    assert ref == pytest.approx(own / 3)
    with pytest.raises(ValueError):
        speed.measure(4.0, 6.0)
