"""Command line interface, driven through main(argv)."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import ssgsolve
import ssgsolve.cli as cli
from ssgsolve.cli import (
    CSV_HEADER,
    EXIT_BROKEN_PIPE,
    EXIT_COUNTEREXAMPLE,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOO_LARGE,
    EXIT_VALIDATION,
    main,
)
from ssgsolve.fuzz import Counterexample, FuzzReport
from ssgsolve.model import GenParams, generate_random, parse_model, serialize_model
from ssgsolve.presets import shifting_preference, slow_loop, two_route_choice
from ssgsolve.results import TraceEntry

SHORT_MASS = """\
ssg 1
states 2
minplayer 0
target 1
action 0 a
1 9/10
action 1 loop
1 1
"""

# probabilities summing to 1 + 1e-10, which the parser divides out
NEAR_ONE = """\
ssg 1
states 2
target 1
action 0 a
0 1
1 0.0000000001
action 1 loop
1 1
"""


@pytest.fixture
def loop_file(tmp_path):
    p = tmp_path / "loop.ssg"
    p.write_text(serialize_model(slow_loop()))
    return p


@pytest.fixture
def route_file(tmp_path):
    p = tmp_path / "route.ssg"
    p.write_text(serialize_model(two_route_choice()))
    return p


@pytest.fixture
def latin1_file(tmp_path):
    p = tmp_path / "latin1.ssg"
    p.write_bytes(serialize_model(slow_loop()).encode() + "# caf\xe9\n".encode("latin-1"))
    return p


def _cli_env() -> dict:
    """Environment whose PYTHONPATH puts the package this process imported first."""
    package_root = str(Path(ssgsolve.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH", "")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))


def test_solve_human_output(loop_file, capsys):
    assert main(["solve", str(loop_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"{loop_file}: svi eps=1e-06 mode=absolute" in out
    assert "iterations=1 converged=yes" in out
    assert "global bounds: [0.500000, 0.500000]" in out
    assert "state 0: value=0.500000 in [0.500000, 0.500000]" in out
    assert "state 1: value=1.000000" in out


def test_solve_vi_flags_unsound_stopping(loop_file, capsys):
    assert main(["solve", str(loop_file), "--algo", "vi"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "note: unsound stopping" in out


def test_solve_strategy_goes_to_stderr(loop_file, capsys):
    main(["solve", str(loop_file), "--strategy"])
    captured = capsys.readouterr()
    assert "strategy: state 0 -> go" in captured.err
    assert "strategy: state" not in captured.out


def test_solve_trace_lines(route_file, capsys):
    main(["solve", str(route_file), "--trace"])
    out = capsys.readouterr().out
    assert "  k=1 l=" in out
    assert "d_l=0.250000" in out


def test_solve_json_payload(loop_file, tmp_path, capsys):
    report = tmp_path / "out.json"
    main(["solve", str(loop_file), "--json", str(report)])
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert payload["algorithm"] == "svi"
    assert payload["iterations"] == 1
    assert payload["converged"] is True
    assert payload["strategy"] == {"0": "go"}
    assert [s["id"] for s in payload["states"]] == [0, 1, 2]
    assert payload["states"][1]["value"] == 1.0
    assert "trace" not in payload


def test_solve_json_deterministic_modulo_wall_time(loop_file, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["solve", str(loop_file), "--json", str(a), "--trace"])
    main(["solve", str(loop_file), "--json", str(b), "--trace"])
    capsys.readouterr()
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    pa.pop("wall_ms"), pb.pop("wall_ms")
    assert pa == pb
    assert pa["trace"][0]["k"] == 1


def test_solve_json_trace_entries_carry_every_trace_field_in_order(route_file, tmp_path, capsys):
    names = [f.name for f in dataclasses.fields(TraceEntry)]
    for algo in ("svi", "bvi"):
        report = tmp_path / f"{algo}.json"
        main(["solve", str(route_file), "--algo", algo, "--topo", "--json", str(report), "--trace"])
        capsys.readouterr()
        trace = json.loads(report.read_text())["trace"]
        assert trace, algo
        assert all(list(entry) == names for entry in trace), algo
        assert all(entry["scc"] is not None for entry in trace), algo


def test_every_public_name_resolves():
    # a name left in __all__ after its object is deleted fails here
    assert all(hasattr(ssgsolve, name) for name in ssgsolve.__all__)


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_model(slow_loop())))
    assert main(["solve", "-"]) == EXIT_OK
    assert "state 0: value=0.500000" in capsys.readouterr().out


def test_solve_iteration_cap(loop_file, capsys):
    assert main(["solve", str(loop_file), "--max-iters", "0"]) == EXIT_NOT_CONVERGED
    assert "converged=no" in capsys.readouterr().out


def test_solve_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ssg"
    bad.write_text("not a model\n")
    assert main(["solve", str(bad)]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_solve_header_without_states_line_is_a_parse_error(tmp_path, capsys):
    bare = tmp_path / "bare.ssg"
    bare.write_text("ssg 1\n# nothing else\n")
    assert main(["solve", str(bare)]) == EXIT_PARSE
    assert "missing the 'states N' line" in capsys.readouterr().err


def test_solve_missing_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "gone.ssg")]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_solve_non_utf8_model_is_a_parse_error(latin1_file, capsys):
    assert main(["solve", str(latin1_file)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not UTF-8" in err


def test_oracle_non_utf8_model_is_a_parse_error(latin1_file, capsys):
    assert main(["oracle", str(latin1_file)]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_compare_non_utf8_model_gets_placeholder_rows(latin1_file, capsys):
    assert main(["compare", str(latin1_file), "--algos", "vi,bvi"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == [f"{latin1_file},vi,0,false,0.000,",
                                             f"{latin1_file},bvi,0,false,0.000,"]
    assert f"note: {latin1_file}:" in captured.err


def test_solve_into_closed_pipe_exits_quietly(tmp_path):
    # like `ssgsolve solve --algo vi big.ssg | head -1`: the reader quits after one
    # line while the writer still has far more than a pipe buffer to print
    big = tmp_path / "big.ssg"
    big.write_text(serialize_model(generate_random(GenParams(n_states=4000, seed=1))))
    err_path = tmp_path / "stderr.txt"
    with err_path.open("w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "ssgsolve.cli", "solve", "--algo", "vi", "--max-iters", "1",
             str(big)],
            stdout=subprocess.PIPE, stderr=err, env=_cli_env(),
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert first.startswith(f"{big}: vi ".encode())
    assert code == EXIT_BROKEN_PIPE
    stderr = err_path.read_text()
    assert "error" not in stderr
    assert "Exception ignored" not in stderr


def test_solve_validation_error(tmp_path, capsys):
    bad = tmp_path / "short.ssg"
    bad.write_text(SHORT_MASS)
    assert main(["solve", str(bad)]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_topo_rejects_vi(loop_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(loop_file), "--topo", "--algo", "vi"])
    assert exc.value.code == 2
    assert "sound inner solver" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "MODEL", "--eps", "0"],
    ["solve", "MODEL", "--topo", "--eps", "-1"],
    ["compare", "MODEL", "--eps", "-1"],
    ["fuzz", "--count", "1", "--eps", "0"],
    ["solve", "MODEL", "--eps", "nan"],
], ids=["solve", "solve-topo", "compare", "fuzz", "nan"])
def test_non_positive_eps_is_a_usage_error(loop_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(loop_file) if a == "MODEL" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--eps must be positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("states", ["1", "0", "-3"])
def test_fuzz_max_states_below_two_is_a_usage_error(states, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--count", "1", "--max-states", states])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--max-states must be at least 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "MODEL", "--max-iters", "-1"],
    ["solve", "MODEL", "--topo", "--max-iters", "-5"],
    ["compare", "MODEL", "--max-iters", "-1"],
], ids=["solve", "solve-topo", "compare"])
def test_negative_max_iters_is_a_usage_error(loop_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(loop_file) if a == "MODEL" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--max-iters must not be negative" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, why", [
    (["--states", "5", "--ec-bias", "2"], "ec_bias must be within [0, 1]"),
    (["--states", "5", "--target-fraction", "nan"], "target_fraction must be within [0, 1]"),
    (["--states", "0"], "must be >= 1"),
    (["--states", "5", "--branching", "0"], "must be >= 1"),
], ids=["ec-bias", "target-fraction-nan", "states", "branching"])
def test_gen_parameters_out_of_range_are_a_usage_error(argv, why, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert why in captured.err
    assert captured.out == ""


def test_relative_mode_limited_to_plain_svi(loop_file):
    with pytest.raises(SystemExit):
        main(["solve", str(loop_file), "--relative", "--algo", "bvi"])


def test_ec_handling_switch_limited_to_plain_svi(loop_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(loop_file), "--no-ec-handling", "--algo", "bvi"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--no-ec-handling is only available for plain --algo svi" in captured.err
    assert captured.out == ""


def test_oracle_output(loop_file, tmp_path, capsys):
    report = tmp_path / "oracle.json"
    assert main(["oracle", str(loop_file), "--json", str(report)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "state 0: 1/2 (0.5)" in out
    assert "pairs evaluated: 1" in out
    payload = json.loads(report.read_text())
    assert payload["states"][0]["exact"] == "1/2"
    assert payload["pairs_evaluated"] == 1


def test_oracle_minmax_order_prints_the_default_values(tmp_path, capsys):
    model = tmp_path / "pref.ssg"
    model.write_text(serialize_model(shifting_preference()))
    printed = {}
    for order in ("maxmin", "minmax"):
        assert main(["oracle", str(model), "--order", order]) == EXIT_OK
        printed[order] = capsys.readouterr().out.splitlines()
    states = [line for line in printed["maxmin"] if line.startswith("state ")]
    assert len(states) == shifting_preference().n_states
    assert states == [line for line in printed["minmax"] if line.startswith("state ")]
    assert printed["maxmin"][-1] != printed["minmax"][-1]   # far fewer chains solved


def test_oracle_too_large(tmp_path, capsys):
    big = tmp_path / "big.ssg"
    big.write_text(serialize_model(generate_random(GenParams(n_states=13, seed=1))))
    assert main(["oracle", str(big)]) == EXIT_TOO_LARGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, expected", [
    ("oracle", "state 0: 1/1 (1)"),
    ("solve", "state 0: value=1.000000 in [1.000000, 1.000000]"),
], ids=["oracle", "solve"])
def test_near_one_sum_model_solves(tmp_path, command, expected):
    # unnormalised, the oracle died on a singular system and svi never stopped
    model = tmp_path / "near_one.ssg"
    model.write_text(NEAR_ONE)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ssgsolve.cli import main; sys.exit(main())",
         command, str(model)],
        capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert expected in proc.stdout


def test_compare_csv(loop_file, tmp_path, capsys):
    missing = tmp_path / "gone.ssg"
    code = main(["compare", str(loop_file), str(missing), "--algos", "vi,svi,nope,bvi,topo"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11
    assert lines[1].startswith(f"{loop_file},vi,")
    # the same solvers `solve` runs, with every column but wall_ms fixed
    rows = [line.split(",") for line in lines[1:6]]
    assert [r[:4] + r[5:] for r in rows[:2] + rows[3:]] == [
        [str(loop_file), "vi", "457", "true", "0.500048897"],
        [str(loop_file), "svi", "1", "true", "0.000000000"],
        [str(loop_file), "bvi", "684", "true", "0.000000997"],
        [str(loop_file), "topo", "1", "true", "0.000000000"],
    ]
    # unknown algorithm and unreadable model both yield placeholder rows
    assert lines[3] == f"{loop_file},nope,0,false,0.000,"
    assert lines[6] == f"{missing},vi,0,false,0.000,"
    assert "unknown algorithm" in captured.err
    assert str(missing) in captured.err


def test_compare_reports_a_capped_solve(loop_file, capsys):
    assert main(["compare", str(loop_file), "--algos", "bvi", "--max-iters", "1"]) == EXIT_OK
    captured = capsys.readouterr()
    row = captured.out.splitlines()[1].split(",")
    assert row[:4] == [str(loop_file), "bvi", "1", "false"]
    assert f"note: {loop_file}: bvi hit the iteration cap" in captured.err


def test_compare_reports_a_failing_solver(loop_file, monkeypatch, capsys):
    def crash(game, eps, max_iters):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.SOLVERS, "svi", crash)
    assert main(["compare", str(loop_file), "--algos", "svi,vi"]) == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[1] == f"{loop_file},svi,0,false,0.000,"
    assert lines[2].startswith(f"{loop_file},vi,457,true,")
    assert f"note: {loop_file}: svi failed: boom" in captured.err


def test_fuzz_command_reports_counterexamples(monkeypatch, capsys):
    report = FuzzReport(checked=3, failures=[
        Counterexample(0, "svi", "did not converge", "", ""),
        Counterexample(2, "topo", "value off by 1.000e-03 at state 1", "", ""),
    ], written=["out/ce0-svi.ssg", "out/ce0-svi-shrunk.ssg"])
    monkeypatch.setattr(cli, "run_fuzz", lambda *args, **kwargs: report)
    assert main(["fuzz", "--count", "3"]) == EXIT_COUNTEREXAMPLE
    captured = capsys.readouterr()
    assert captured.out == "checked=3 skipped=0 failures=2\n"
    assert captured.err.splitlines() == [
        "counterexample #0 [svi]: did not converge",
        "counterexample #2 [topo]: value off by 1.000e-03 at state 1",
        "wrote out/ce0-svi.ssg",
        "wrote out/ce0-svi-shrunk.ssg",
    ]


def test_fuzz_command_clean(capsys):
    code = main(["fuzz", "--count", "5", "--seed", "7", "--algos", "svi"])
    assert code == EXIT_OK
    assert "checked=5 skipped=0 failures=0" in capsys.readouterr().out


def test_gen_roundtrip_and_determinism(tmp_path, capsys):
    assert main(["gen", "--states", "5", "--seed", "3"]) == EXIT_OK
    first = capsys.readouterr()
    game = parse_model(first.out)
    assert game.n_states == 5
    assert "generated 5 states:" in first.err

    main(["gen", "--states", "5", "--seed", "3"])
    assert capsys.readouterr().out == first.out

    out_file = tmp_path / "gen.ssg"
    main(["gen", "--states", "5", "--seed", "3", "-o", str(out_file)])
    capsys.readouterr()
    assert out_file.read_text() == first.out


def test_gen_summary_counts_each_kind_of_state(capsys):
    # the partition decides states 1, 4 and 7 at value 1 by graph analysis;
    # they are counted apart from the model's one target
    assert main(["gen", "--states", "10", "--seed", "25", "--max-actions", "3",
                 "--branching", "3", "--target-fraction", "0.1", "--ec-bias", "0.5"]) == EXIT_OK
    assert capsys.readouterr().err.splitlines()[-1] == \
        "generated 10 states: 1 target, 3 value-1, 2 sink, 4 unknown"


def test_installed_script(loop_file, tmp_path):
    # Runs the console script declared in pyproject.toml as its own process,
    # through the same launcher pip writes for it, so no install is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ssgsolve"]
    entry = EntryPoint(name="ssgsolve", value=spec, group="console_scripts")
    assert entry.load() is main

    launcher = tmp_path / "ssgsolve_launcher.py"
    launcher.write_text(
        f"import sys\nfrom {entry.module} import {entry.attr}\nsys.exit({entry.attr}())\n"
    )
    # the package this process imported comes first, whatever else is installed
    env = _cli_env()

    def run(*args):
        return subprocess.run([sys.executable, str(launcher), *args], capture_output=True,
                              text=True, env=env, timeout=60)

    proc = run("solve", str(loop_file))
    assert proc.returncode == EXIT_OK
    assert "state 0: value=0.500000" in proc.stdout

    # the exit status is main's return value, not just "no exception"
    proc = run("solve", str(tmp_path / "gone.ssg"))
    assert proc.returncode == EXIT_PARSE
    assert "error:" in proc.stderr
