"""Tests of the benchmark itself, on workloads shrunk to a few seconds.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import json
import re
import sys

import pytest

import run
from conftest import REPO
from tracer import SPECTRAL_METHODS, Tracer

# per workload: smaller path, step and iteration counts with the same studies
SMALL = {
    "lq-certificate": {"paths": 200, "n_steps": 32},
    "cubic-spike": {"paths": 64, "n_steps": 64, "modes": 16},
    "dirac2d-descent": {"paths": 100, "n_steps": 16, "iterations": 2},
}
SEED = 5
SMALL_STUDIES = {name: [s["subcommand"] for s in w["studies"]]
                 for name, w in run.SPEC["workloads"].items()}


def small(name):
    workload = copy.deepcopy(run.SPEC["workloads"][name])
    sizes = SMALL[name]
    for study in workload["studies"]:
        config = study["config"]
        config["numerics"]["paths"] = sizes["paths"]
        config["overrides"]["n_steps"] = sizes["n_steps"]
        if "modes" in sizes:
            config["overrides"]["modes"] = sizes["modes"]
        if "iterations" in sizes and "study" in config:
            config["study"]["iterations"] = sizes["iterations"]
    return workload


def test_benchmark_file_follows_its_contract():
    bench = run.BENCHMARK
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in bench["workloads"]} == set(run.SPEC["workloads"])
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in bench["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_nominal_path_steps_match_the_built_problems(name):
    from spdecontrol import cli
    workload = run.SPEC["workloads"][name]
    total = 0
    for study in workload["studies"]:
        problem = cli.build_problem(cli.validate_config(study["config"]), 1)
        total += study["config"]["numerics"]["paths"] * problem.n_steps
    assert workload["path_steps"] == total == run.nominal_path_steps(workload)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_prints_every_metric_with_its_unit(name, capsys):
    result = run.measure(name, small(name), SEED, 0, False, REPO)
    run.emit(result)
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == run.MIN_REPS * len(SMALL_STUDIES[name])
    for spec in run.BENCHMARK["end_to_end"]:
        assert last["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert last["metrics"][spec["name"]]["value"] > 0
        assert any(re.fullmatch(rf"metric {re.escape(spec['name'])} \S+ {re.escape(spec['unit'])}.*", l)
                   for l in lines)
    assert set(last["metrics"]) == {m["name"] for m in run.BENCHMARK["end_to_end"]}


# the bypass column: (metric, predicate) per workload
BYPASS = {
    "cubic-spike": [("adjoint.backward_sweep.calls", lambda v: v == 0),
                    ("control.check_maximum_principle.calls", lambda v: v == 0),
                    ("nonlinearity.linear.calls", lambda v: v == 0)],
    "lq-certificate": [("nonlinearity.cubic.calls", lambda v: v == 0),
                       ("nonlinearity.linear.calls", lambda v: v > 0),
                       ("adjoint.backward_sweep.calls", lambda v: v > 0)],
    "dirac2d-descent": [("noise.supnorm_moment_study.calls", lambda v: v > 0),
                        ("spectral.transform_2d.calls", lambda v: v > 0)],
}
ONLY_2D = ("noise.supnorm_moment_study.calls", "spectral.transform_2d.calls")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_runs_repeat_counts_and_confirm_the_bypass_column(name):
    result = run.measure(name, small(name), SEED, 0, True, REPO)
    assert result["repetitions"] == {"untraced": 1, "traced": 2}
    # a count that differs between the two traced runs would be a problem here,
    # and so would an artifact hash that tracing changed
    assert result["problems"] == [] and result["result"]["correct"] is True
    metrics = {k: m["value"] for k, m in result["result"]["metrics"].items()}
    assert set(metrics) == {m["name"] for m in run.BENCHMARK["per_layer"]}
    for key, predicate in BYPASS[name]:
        assert predicate(metrics[key]), (key, metrics[key])
    if name != "dirac2d-descent":
        assert all(metrics[key] == 0 for key in ONLY_2D)
    assert metrics["trace.study_s"] > 0 and "trace.overhead_s" in metrics


@pytest.fixture(scope="module")
def traced_and_plain_runs(tmp_path_factory):
    """Every small study run in-process, untraced and traced."""
    from spdecontrol import cli
    base = tmp_path_factory.mktemp("studies")
    studies = []
    for name in sorted(SMALL):
        for study in run.write_configs(small(name), SEED, base):
            studies.append(study)
    manifests = {}
    tracer = Tracer("test")
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            for study in studies:
                out = base / f"{study['subcommand']}-{traced}"
                assert cli.run(study["subcommand"], study["config"], str(out)) == 0
                manifests[study["subcommand"], traced] = json.loads((out / "manifest.json").read_text())
        finally:
            tracer.uninstall()
    return studies, manifests, tracer


def test_tracing_keeps_artifact_hashes(traced_and_plain_runs):
    studies, manifests, _ = traced_and_plain_runs
    for study in studies:
        plain, traced = manifests[study["subcommand"], False], manifests[study["subcommand"], True]
        assert traced["artifacts"] == plain["artifacts"] and traced["complete"]


def test_trace_produces_every_per_layer_metric(traced_and_plain_runs):
    _, _, tracer = traced_and_plain_runs
    produced = set(tracer.metrics())
    expected = {m["name"] for m in run.BENCHMARK["per_layer"]} - {"trace.study_s", "trace.overhead_s"}
    # the five cli.<subcommand> spans are made by the child around cli.run
    expected -= {f"cli.{s}.wall_s" for names in SMALL_STUDIES.values() for s in names}
    assert expected <= produced, sorted(expected - produced)


def test_uninstall_restores_every_binding():
    import spdecontrol.cli  # noqa: F401
    from spdecontrol.spectral import SpectralDomain

    def bindings():
        snapshot = {}
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "spdecontrol" or mod_name.startswith("spdecontrol."):
                snapshot.update({(mod_name, k): v for k, v in vars(module).items() if callable(v)})
        snapshot.update({("SpectralDomain", k): SpectralDomain.__dict__[k] for k in SPECTRAL_METHODS})
        return snapshot

    before = bindings()
    tracer = Tracer("restore")
    tracer.install()
    during = bindings()
    changed = {k for k in before if during[k] is not before[k]}
    assert ("spdecontrol.cli", "duality_residual") in changed
    assert ("spdecontrol.variation", "simulate_ensemble") in changed
    assert ("SpectralDomain", "to_field") in changed
    tracer.uninstall()
    after = bindings()
    assert all(after[k] is v for k, v in before.items())
