"""One benchmark run inside a fresh interpreter: repeat a workload's command.

Started by run.py as ``python3 bench/worker.py '<spec json>'`` with
PYTHONPATH pointing at the checkout's ``src/``. It imports qssa, refuses to
run if that import did not resolve to the checkout, and calls
``qssa.cli.main`` in a closed loop: first the reference command (which also
warms up lazy imports and caches), then timed commands until ``seconds``
have passed. With ``trace`` set, timed commands alternate untraced and
traced on the same CLI seed, and a last pass runs each suite alone, traced.
It prints one JSON object describing every command; run.py checks the
outputs, so parsing them adds nothing to this process's memory.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import qssa
import qssa.cli
from tracer import EIG, Tracer
from workloads import ALL_SUITES, REF_SEED, WORKLOADS, cli_seed


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):  # numpy without mode="dicts"
        return {"name": "unknown", "version": "unknown"}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    src = (Path(spec["root"]) / "src").resolve()
    qssa_file = Path(qssa.__file__).resolve()
    if src not in qssa_file.parents:
        print(f"error: qssa imported from {qssa_file}, not from {src}", file=sys.stderr)
        return 3

    w = WORKLOADS[spec["workload"]]
    out_dir = Path(spec["out_dir"])
    commands = []

    def run(suite_arg: str, seed: int, kind: str, tracer: Tracer | None = None) -> None:
        path = out_dir / f"{len(commands):04d}-{kind}.ndjson"
        argv_ = w.argv(suite_arg, seed, str(path))
        rc, error = None, None
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                rc = qssa.cli.main(argv_)
            except Exception:  # a crash is a benchmark result, recorded and gated
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
        commands.append({"kind": kind, "suite": suite_arg, "seed": seed, "path": str(path),
                         "wall_s": wall, "rc": rc, "error": error})

    run(w.suite_arg, REF_SEED, "ref")
    tracer = Tracer() if spec["trace"] else None
    deadline = time.perf_counter() + spec["seconds"]
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        seed = cli_seed(spec["seed"], k)
        if tracer is None:
            run(w.suite_arg, seed, "timed")
        else:
            # Alternate which side goes first so drift does not bias the overhead.
            for t in ((None, tracer) if k % 2 == 0 else (tracer, None)):
                run(w.suite_arg, seed, "traced" if t else "untraced", t)
        k += 1

    result = {"commands": commands, "env": {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "qssa_file": str(qssa_file),
        "qssa_threads_env": os.environ.get("QSSA_THREADS"),
    }}
    if tracer is None:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        traced = [c for c in commands if c["kind"] == "traced"]
        result["layers"] = tracer.layer_metrics(w.expected_reports(w.suites) * len(traced))
        # Each suite alone, on the instances of the first timed command.
        result["suite_eigs"] = {}
        for suite in ALL_SUITES:
            tracer.reset()
            run(suite, cli_seed(spec["seed"], 0), "suite", tracer)
            result["suite_eigs"][suite] = tracer.stat(*EIG).count
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
