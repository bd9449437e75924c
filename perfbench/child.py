"""One benchmark repetition in a fresh interpreter: python3 child.py JOB.json

Times what every CLI invocation pays before its study (importing the
package, validating a config and building its problem), then runs the
workload's studies through ``spdecontrol.cli.run``, optionally traced, and
writes timings, peak memory and host facts to the job's result file.
The artifacts stay in the output directories for the parent to check.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    start = time.perf_counter()
    from spdecontrol import cli
    first = job["studies"][0]
    config = cli.validate_config(json.loads(Path(first["config"]).read_text()))
    cli.build_problem(config, config["numerics"]["seed"])
    setup_s = time.perf_counter() - start

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install()
    studies = []
    try:
        for study in job["studies"]:
            sub = study["subcommand"]
            run = cli.run if tracer is None else tracer.wrap("cli.run", cli.run)
            error, status = None, None
            begin = time.perf_counter()
            try:
                status = run(sub, study["config"], study["out"])
            except Exception as err:  # a crashed study is a failed operation, not a lost run
                error = f"{type(err).__name__}: {err}"
            studies.append({"subcommand": sub, "status": status, "error": error,
                            "wall_s": time.perf_counter() - begin})
    finally:
        if tracer is not None:
            tracer.uninstall()

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": setup_s,
        "studies": studies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package_file": cli.__file__,
        "host": {"python": sys.version.split()[0], "numpy": np.__version__,
                 "scipy": scipy.__version__,
                 "blas": f"{blas.get('name')} {blas.get('version')}",
                 "threads": {k: os.environ.get(k) for k in job["thread_vars"]}},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"].update({f"cli.{s['subcommand']}.wall_s": s["wall_s"] for s in studies})
        tracer.write_spans(job["spans"])
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
