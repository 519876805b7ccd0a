"""The benchmark's workloads: which `qssa check` command each one repeats.

A workload is a fixed `check` command line minus `--seed` and `--out`. The
benchmark repeats it in a closed loop (one process, one command at a time),
giving command k of a run the CLI seed ``cli_seed(seed, k)``, so the
benchmark's own `--seed` reaches the program only through the CLI `--seed`.
"""

from __future__ import annotations

from dataclasses import dataclass

# Suite names in the order `check --suite all` runs them, with the number of
# reports one instance of each writes. `counterexample` ignores --trials and
# always writes one report. Kept here rather than read from qssa so that the
# gate's expected report count does not depend on the code it checks.
REPORTS_PER_INSTANCE = {
    "ssa": 1,
    "stronger-ssa": 1,
    "sandwich": 2,
    "concavity": 1,
    "gibbs": 1,
    "cpt": 1,
    "improved-subadd": 2,
    "mutual-info": 1,
    "cq-chain": 2,
    "cqq": 1,
    "convexity": 1,
    "holevo": 1,
    "wehrl": 3,
    "counterexample": 1,
}
ALL_SUITES = tuple(REPORTS_PER_INSTANCE)

# CLI seed of the reference command that every run checks against the
# recorded reference; it does not depend on the benchmark's --seed.
REF_SEED = 42

# Workload seed used when --seed is not given. Fixed, so runs without the
# argument are comparable across commits.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]
    args: tuple[str, ...]  # check options other than --suite/--trials/--seed/--out
    trials: int
    why: str

    @property
    def suite_arg(self) -> str:
        return "all" if self.suites == ALL_SUITES else ",".join(self.suites)

    def argv(self, suite_arg: str, cli_seed: int, out: str) -> list[str]:
        return ["check", "--suite", suite_arg, *self.args,
                "--trials", str(self.trials), "--seed", str(cli_seed), "--out", out]

    def expected_reports(self, suites: tuple[str, ...]) -> int:
        return sum(REPORTS_PER_INSTANCE[s] * (1 if s == "counterexample" else self.trials)
                   for s in suites)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-all", ALL_SUITES, ("--dims", "2,2,2"), 50,
            "default replay config (check --suite all, 2,2,2): per-call Python overhead "
            "(validation, substreams, reports, serialization) dominates; LAPACK nearly idle",
        ),
        Workload(
            "large-all", ALL_SUITES, ("--dims", "8,8,8"), 2,
            "512-dim states: eigensolves and the relative_entropy einsum dominate, Kraus "
            "tensordot path; bypasses Python-overhead cuts; wehrl only at two_j=1",
        ),
        Workload(
            "wehrl-spin", ("wehrl",), ("--two-j", "16"), 8,
            "289-dim two-spin states: Husimi einsum, eigensolves and make_grid; the only "
            "workload that stresses the wehrl module; no Kraus or relative entropy",
        ),
    )
}


def cli_seed(seed: int, k: int) -> int:
    """CLI seed of timed command k in a run with workload seed `seed`."""
    return seed * 1000 + k
