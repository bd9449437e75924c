#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spdecontrol CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cubic-spike --seed 11 --seconds 40 --trace 0

The workloads are defined in perfbench/workloads.json and the reported
metrics in BENCHMARK.json.  The seed is written into every generated config
as ``numerics.seed``; the program sees only those configs.  Each repetition
is a fresh child process (perfbench/child.py) that imports the package from
``src`` and runs the workload's studies through ``spdecontrol.cli.run``, so
it pays what a CLI user pays.  Repetitions run one at a time until
``--seconds`` is used up.  Every study's verdicts are checked against the
acceptance suite's bounds, and every repetition must reproduce the artifact
hashes of the first one.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports per-layer counts and self
times from the traced ones, plus the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
THREADS = SPEC["threads"]
MIN_REPS = 3                  # end-to-end medians never rest on fewer samples
CHILD_TIMEOUT_S = 150
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


# -- correctness ------------------------------------------------------------------


def _load(path: Path):
    return json.loads(path.read_text())


def verdicts(subcommand: str, out: Path):
    """(values, problems) for one study, against the acceptance suite's bounds."""
    problems = []

    def need(ok, text):
        if not ok:
            problems.append(text)

    if subcommand == "adjoint-check":                       # criterion 06
        report = _load(out / "adjoint_check.json")
        values = {"duality_gamma": report["duality_gamma"]["residual"],
                  "duality_eta": report["duality_eta"]["residual"]}
        need(values["duality_gamma"] < 0.05, f"duality gamma residual {values['duality_gamma']} not < 0.05")
        need(values["duality_eta"] < 0.10, f"duality eta residual {values['duality_eta']} not < 0.10")
    elif subcommand == "smp-check":                         # criterion 08, LQ oracle
        report = _load(out / "smp_report.json")
        values = {"min_gap": report["min_gap"]}
        need(values["min_gap"] >= -1e-3, f"LQ-oracle min gap {values['min_gap']} below -1e-3")
    elif subcommand == "spike-orders":                      # criterion 04
        slopes = _load(out / "spike_orders.json")["slopes"]
        values = {"s_xi": slopes["xi"]["slope"], "s_eta": slopes["eta"]["slope"]}
        need(1.8 <= values["s_xi"] <= 2.2, f"s_xi {values['s_xi']} outside [1.8, 2.2]")
        need(values["s_eta"] >= values["s_xi"] + 0.5, f"s_eta {values['s_eta']} below s_xi + 0.5")
    elif subcommand == "noise-check":                       # criterion 02
        report = _load(out / "noise_report.json")
        expected = "regular" if report["gamma"] > report["threshold"] else "irregular"
        values = {"verdict": report["verdict"], "threshold": report["threshold"]}
        need(report["verdict"] == expected, f"noise verdict {report['verdict']}, expected {expected}")
    elif subcommand == "optimize":                          # criterion 08, descent
        report = _load(out / "optimize.json")
        values = {k: report[k] for k in ("J_initial", "J_final", "fraction_violating")}
        need(values["J_final"] < values["J_initial"],
             f"descent did not lower J: {values['J_initial']} -> {values['J_final']}")
        need(values["fraction_violating"] <= 0.01,
             f"fraction violating {values['fraction_violating']} above 0.01")
    else:
        raise ValueError(f"no verdict bounds for subcommand {subcommand!r}")
    return values, problems


def check_study(study: dict | None, out: Path, child_problem: str | None):
    """One operation (one cli.run call): its problems, verdict values and artifact hashes."""
    if child_problem is not None:
        return {"problems": [child_problem], "values": None, "hashes": None}
    if study["error"] is not None:
        return {"problems": [study["error"]], "values": None, "hashes": None}
    if study["status"] != 0:
        return {"problems": [f"exit status {study['status']}"], "values": None, "hashes": None}
    try:
        values, problems = verdicts(study["subcommand"], out)
        manifest = _load(out / "manifest.json")
    except (OSError, KeyError, ValueError) as err:
        return {"problems": [f"unreadable result: {type(err).__name__}: {err}"],
                "values": None, "hashes": None}
    if not manifest.get("complete"):
        problems.append("manifest not complete")
    return {"problems": problems, "values": values, "hashes": manifest["artifacts"]}


# -- repetitions ----------------------------------------------------------------------


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"), **THREADS)


def nominal_path_steps(workload: dict) -> int:
    """Sum over the studies of paths x time steps, from the configs alone."""
    return sum(s["config"]["numerics"]["paths"] * s["config"]["overrides"]["n_steps"]
               for s in workload["studies"])


def write_configs(workload: dict, seed: int, work: Path) -> list[dict]:
    studies = []
    for study in workload["studies"]:
        config = copy.deepcopy(study["config"])
        config.setdefault("numerics", {})["seed"] = seed
        path = work / f"{study['subcommand']}.json"
        path.write_text(json.dumps(config, indent=1, sort_keys=True))
        studies.append({"subcommand": study["subcommand"], "config": str(path)})
    return studies


def repetition(root: Path, work: Path, studies: list[dict], index: int, traced: bool,
               spans: Path):
    """Run one child; returns (child result or None, operations)."""
    rep = work / f"rep{index}"
    rep.mkdir()
    job = {"studies": [dict(s, out=str(rep / s["subcommand"])) for s in studies],
           "trace": traced, "run_id": f"{work.name}-rep{index}",
           "result": str(rep / "result.json"), "spans": str(spans),
           "thread_vars": sorted(THREADS)}
    (rep / "job.json").write_text(json.dumps(job))
    child, problem = None, None
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(rep / "job.json")],
                              env=child_env(root), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        problem = f"child timed out after {CHILD_TIMEOUT_S} s"
    else:
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            problem = f"child exited {proc.returncode}: {tail[0]}"
        else:
            child = _load(rep / "result.json")
            src = (root / "src").resolve()
            if not Path(child["package_file"]).resolve().is_relative_to(src):
                problem = f"imported spdecontrol from {child['package_file']}, not {src}"
    operations = []
    for i, study in enumerate(job["studies"]):
        record = child["studies"][i] if child is not None else None
        op = check_study(record, Path(study["out"]), problem)
        op["subcommand"] = study["subcommand"]
        operations.append(op)
    shutil.rmtree(rep)
    return (child if problem is None else None), operations


def warm_up(root: Path):
    """Untimed import so bytecode is compiled and files are cached before timing.

    A package that fails to import is not an error here: every repetition
    then fails and is counted as failed."""
    subprocess.run([sys.executable, "-c", "import spdecontrol.cli"], env=child_env(root),
                   capture_output=True, timeout=CHILD_TIMEOUT_S)


# -- statistics -----------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(values)
    tail = next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10), None)
    tail_value = None
    if tail is not None:
        ordered = sorted(values)
        tail_value = ordered[min(n - 1, int(round(tail / 100.0 * (n - 1))))]
    return {"median": statistics.median(values), "tail_percentile": tail,
            "tail": tail_value, "n": n, "samples": values}


def last_level_cache() -> str:
    caches = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            caches.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    return f"L{max(caches)[0]} {max(caches)[1]}" if caches else "unknown"


# -- a run --------------------------------------------------------------------------------


def traced_at(index: int) -> bool:
    """Traced-run schedule U T T U T U T ...: two traced runs to compare counts
    within the minimum of three, then alternating so drift hits both sides alike."""
    return index in (1, 2) or (index > 2 and index % 2 == 0)


def measure(name: str, workload: dict, seed: int, seconds: float, trace: bool,
            root: Path) -> dict:
    work = root / ".perfbench_work" / f"{name}-seed{seed}-pid{os.getpid()}"
    spans = root / ".perfbench_work" / "spans" / f"{name}.jsonl"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        studies = write_configs(workload, seed, work)
        if trace:
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.unlink(missing_ok=True)
        warm_up(root)
        children = {False: [], True: []}
        operations, durations = [], []
        begin = time.perf_counter()
        index = 0
        while True:
            traced = trace and traced_at(index)
            started = time.perf_counter()
            child, ops = repetition(root, work, studies, index, traced, spans)
            durations.append(time.perf_counter() - started)
            index += 1
            operations += [dict(op, traced=traced) for op in ops]
            if child is not None:
                children[traced].append(child)
            if index >= MIN_REPS and (time.perf_counter() - begin
                                      + statistics.median(durations) > seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return assemble(name, workload, seed, trace, children, operations)


def assemble(name, workload, seed, trace, children, operations) -> dict:
    problems = []
    reference = {}
    for op in operations:
        if op["hashes"] is None:
            continue
        first = reference.setdefault(op["subcommand"], op["hashes"])
        if op["hashes"] != first:
            op["problems"].append("artifact hashes differ from the first repetition"
                                  + (" (traced)" if op["traced"] else ""))
    failed = sum(1 for op in operations if op["problems"])
    for op in operations:
        problems += [f"{op['subcommand']}: {p}" for p in op["problems"]]

    plain, traced = children[False], children[True]
    study_s = lambda c: sum(s["wall_s"] for s in c["studies"])
    metrics, summaries = {}, {}
    if not trace:
        series = {
            "setup_s": [c["setup_s"] for c in plain],
            "study_s": [study_s(c) for c in plain],
            "path_steps_per_s": [nominal_path_steps(workload) / study_s(c) for c in plain],
            "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        }
        for spec in BENCHMARK["end_to_end"]:
            if series[spec["name"]]:
                summaries[spec["name"]] = summary(series[spec["name"]])
                metrics[spec["name"]] = {"value": summaries[spec["name"]]["median"],
                                         "unit": spec["unit"]}
    elif plain and traced:
        for spec in BENCHMARK["per_layer"]:
            key = spec["name"]
            if key == "trace.study_s":
                value = statistics.median(study_s(c) for c in traced)
            elif key == "trace.overhead_s":
                value = (statistics.median(study_s(c) for c in traced)
                         - statistics.median(study_s(c) for c in plain))
            else:
                values = [c["layers"].get(key, 0) for c in traced]
                if key.endswith("_s"):
                    value = statistics.median(values)
                else:
                    value = values[0]
                    if len(set(values)) > 1:
                        problems.append(f"count {key} differs between traced runs: {values}")
            metrics[key] = {"value": value, "unit": spec["unit"]}
    host_child = (plain or traced or [{}])[0].get("host", {})
    host = {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "last_level_cache": last_level_cache(), **host_child}
    values = {}
    for op in operations:
        if op["values"] is not None:
            values.setdefault(op["subcommand"], op["values"])
    complete = bool(metrics) and len(metrics) == len(
        BENCHMARK["per_layer" if trace else "end_to_end"])
    return {
        "workload": name, "seed": seed, "trace": trace,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "host": host, "verdicts": values, "summaries": summaries, "problems": problems,
        "failed_frac": failed / len(operations),
        "result": {"correct": complete and not problems, "attempted": len(operations),
                   "failed": failed, "metrics": metrics},
    }


def emit(run: dict):
    """Human-readable report lines, then the result object as the last line."""
    print(f"workload {run['workload']} seed {run['seed']} trace {int(run['trace'])} "
          f"repetitions {json.dumps(run['repetitions'])}")
    print(f"host {json.dumps(run['host'], sort_keys=True)}")
    print(f"verdicts {json.dumps(run['verdicts'], sort_keys=True)}")
    for problem in run["problems"]:
        print(f"problem {problem}")
    print(f"failed_frac {run['failed_frac']:.6g} ({run['result']['failed']} of "
          f"{run['result']['attempted']} cli.run calls)")
    for key, metric in run["result"]["metrics"].items():
        extra = run["summaries"].get(key)
        stats = "" if extra is None else (
            f"  n={extra['n']} p{extra['tail_percentile']}={extra['tail']}"
            if extra["tail"] is not None else f"  n={extra['n']} (no tail percentile below 10 samples beyond)")
        print(f"metric {key} {metric['value']:.6g} {metric['unit']}{stats}")
        if extra is not None:
            print(f"samples {key} {' '.join(f'{v:.6g}' for v in extra['samples'])}")
    print(json.dumps(run["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "spdecontrol" / "cli.py").is_file():
        print(f"error: {root} holds no spdecontrol sources (src/spdecontrol/cli.py); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative (it becomes numerics.seed)", file=sys.stderr)
        return 2
    emit(measure(args.workload, SPEC["workloads"][args.workload], args.seed, args.seconds,
                 bool(args.trace), root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
