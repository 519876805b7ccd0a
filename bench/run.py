"""qssa benchmark: repeat one `qssa check` workload and report its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload small-all [--seed N] [--trace 0|1]

    # every end-to-end metric of every workload, then the traced runs:
    for w in small-all large-all wehrl-spin; do python3 bench/run.py --workload $w; done
    for w in small-all large-all wehrl-spin; do python3 bench/run.py --workload $w --trace 1; done

Workloads are defined in bench/workloads.py. Each run

1. times `import qssa.cli` in SETUP_RUNS fresh interpreters (setup_s);
2. starts bench/worker.py in a fresh interpreter that imports qssa from this
   checkout's src/ and calls qssa.cli.main in a closed loop for run_seconds
   (BENCHMARK.json):
   the reference command, then the workload's command on CLI seeds derived
   from --seed;
3. checks every report written (bench/gate.py) and, for the reference
   command, compares lhs/rhs with bench/reference/<workload>.json.

With --trace 0 it reports the end-to-end metrics reports_per_s, setup_s and
peak_rss_mb; the failed share of reports appears as failed/attempted in the
result line. With --trace 1 it reports per-layer times and counts from a
traced pass (bench/tracer.py), per-suite eigensolve counts, and the tracing
overhead. The last line of stdout is the JSON result; the lines before it
are a readable summary and the environment.

The run length is fixed by run_seconds in BENCHMARK.json, so every commit
measures the same length of run. --seconds is accepted so that a caller can
state the length it expects; any other value than run_seconds is refused.

The BLAS thread count is pinned to BLAS_THREADS in every child and
QSSA_THREADS is removed, so runs on one machine are comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import gate_output, load_reference
from workloads import ALL_SUITES, DEFAULT_SEED, REF_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_RUNS = 9
BLAS_THREADS = 1  # at most nproc on any machine
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# A run must end within 180 s, whatever run_seconds is; keep a margin for cleanup.
TIME_LIMIT_S = 170.0

SETUP_CODE = "import time; t0 = time.perf_counter(); import qssa.cli; print(time.perf_counter() - t0)"


class BenchError(Exception):
    """The benchmark cannot produce a result (as opposed to a failed check)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QSSA_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Import time of qssa.cli in fresh interpreters; the first is a discarded warm-up."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"importing qssa.cli failed:\n{proc.stderr}")
        times.append(float(proc.stdout.splitlines()[-1]))
    return times[1:]


def run_worker(spec: dict, env: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def gate_commands(workload, commands: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every report the commands should have written."""
    reference = load_reference(workload.name)["reports"]
    attempted = failed = 0
    reasons = []
    pairs = {}  # seed -> kind -> (output path, reports the gate passed)
    for c in commands:
        suites = ALL_SUITES if c["suite"] == "all" else tuple(c["suite"].split(","))
        expected = workload.expected_reports(suites)
        attempted += expected
        if c["error"] is not None or c["rc"] not in (0, 1):
            failed += expected
            reasons.append(f"{c['kind']} command seed {c['seed']} crashed (rc {c['rc']}):\n{c['error']}")
            continue
        n, why = gate_output(c["path"], expected, c["seed"], reference if c["kind"] == "ref" else None)
        failed += n
        reasons.extend(why)
        if c["kind"] in ("traced", "untraced") and Path(c["path"]).is_file():
            pairs.setdefault(c["seed"], {})[c["kind"]] = (Path(c["path"]), expected - n)
    # Traced and untraced commands on one seed must write the same bytes. A
    # difference fails the traced command's reports that the gate passed.
    for seed, pair in pairs.items():
        if len(pair) == 2 and pair["traced"][0].read_bytes() != pair["untraced"][0].read_bytes():
            failed += pair["traced"][1]
            reasons.append(f"seed {seed}: traced output differs from untraced output")
    return attempted, failed, reasons


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def e2e_metrics(workload, result: dict, setup: list[float]) -> tuple[dict, dict]:
    per_report = workload.expected_reports(workload.suites)
    rates = [per_report / c["wall_s"] for c in result["commands"] if c["kind"] == "timed"]
    q1, _, q3 = quartiles(rates)
    s1, _, s3 = quartiles(setup)
    metrics = {
        "reports_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "reports_per_s": f"median of {len(rates)} commands of {per_report} reports, quartiles {q1:.6g}..{q3:.6g}",
        "setup_s": f"median of {len(setup)} fresh imports of qssa.cli, quartiles {s1:.6g}..{s3:.6g}",
        "peak_rss_mb": "max RSS of the run process",
    }
    return metrics, notes


def layer_metrics(workload, result: dict) -> tuple[dict, dict]:
    metrics = {name: tuple(v) for name, v in result["layers"].items()}
    pairs = {}
    for c in result["commands"]:
        if c["kind"] in ("traced", "untraced"):
            pairs.setdefault(c["seed"], {})[c["kind"]] = c["wall_s"]
    ratios = [p["traced"] / p["untraced"] for p in pairs.values() if len(p) == 2]
    metrics["trace.wall_s"] = (statistics.median(p["traced"] for p in pairs.values() if "traced" in p), "s")
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "frac")
    for suite, eigs in result["suite_eigs"].items():
        metrics[f"suite.{suite}.eig_per_report"] = (eigs / workload.expected_reports((suite,)), "count/report")
    notes = {"trace.overhead_frac": f"median over {len(ratios)} traced/untraced pairs on shared CLI seeds"}
    return metrics, notes


def machine_env() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "qssa").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_qssa_lines": src_lines,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; reaches qssa only as the CLI --seed of each command")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help=f"must equal run_seconds in BENCHMARK.json ({RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0 or args.seconds != RUN_SECONDS:
        print(f"error: --seed must be >= 0 and --seconds must be {RUN_SECONDS}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "qssa" / "__init__.py").is_file():
        print(f"error: no qssa source at {ROOT / 'src' / 'qssa'}; run from a full checkout", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out" / str(os.getpid())
    env = child_env()
    try:
        setup = measure_setup(env, deadline) if not args.trace else []
        out_dir.mkdir(parents=True, exist_ok=True)
        spec = {"root": str(ROOT), "out_dir": str(out_dir), "workload": workload.name,
                "seed": args.seed, "seconds": RUN_SECONDS, "trace": args.trace}
        result = run_worker(spec, env, deadline)
        attempted, failed, reasons = gate_commands(workload, result["commands"])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:  # another run is using it, or it is already gone
            pass

    if args.trace:
        metrics, notes = layer_metrics(workload, result)
    else:
        metrics, notes = e2e_metrics(workload, result, setup)
    env_record = {**machine_env(), **result["env"]}

    for reason in reasons:
        print(f"gate: {reason}", file=sys.stderr)
    command = " ".join(workload.argv(workload.suite_arg, REF_SEED, "-")[:-4])
    print(f"workload {workload.name} (qssa {command}), seed {args.seed}, trace {args.trace}: "
          f"{len(result['commands']) - 1} commands after the reference command")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"  {'failed_frac':36s} {failed / attempted:.6g} frac  ({failed} of {attempted} reports)")
    print("env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
