"""Record the reference reports the gate compares each run's reference command with.

Run from the root of a checkout, only when the numerics change on purpose:

    python3 bench/record_reference.py

For every workload it runs the reference command (CLI seed REF_SEED) with
the benchmark's BLAS thread count and writes name, lhs and rhs of each
report to bench/reference/<workload>.json.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from run import BLAS_ENV, BLAS_THREADS, ROOT
from workloads import REF_SEED, WORKLOADS


def main() -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("QSSA_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import qssa.cli

    out_dir = Path(__file__).resolve().parent / "reference"
    for w in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            argv = w.argv(w.suite_arg, REF_SEED, str(Path(tmp) / "ref.ndjson"))
            if qssa.cli.main(argv) != 0:
                print(f"error: reference command for {w.name} did not pass", file=sys.stderr)
                return 1
            recs = [json.loads(line) for line in (Path(tmp) / "ref.ndjson").read_text().splitlines()]
        ref = {"argv": argv[:-2], "reports": [[r["name"], r["lhs"], r["rhs"]] for r in recs]}
        (out_dir / f"{w.name}.json").write_text(json.dumps(ref, separators=(",", ":")) + "\n")
        print(f"{w.name}: {len(recs)} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
