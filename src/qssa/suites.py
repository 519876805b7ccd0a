"""Named check suites over seeded random instances, and the JSON wire format.

Every suite is a pure function of (config, master seed). `SUITES[name]` is
the suite's builder, registered once by `_instances` with its fixed substream
id and the factors of --dims it reads; registration order is the `all` order.
Instance objects draw from substreams keyed as (suite id, instance, slot),
so replaying a seed reproduces each report bit for bit, instances are
independent, and changing a suite's id changes its replayed stream.

A builder only draws its instance, `(calls, meta)`: each call is a tuple
(check, *args) of a `checks` or `wehrl` check, and `meta` is stamped on every
report of the instance. `draw(name, cfg, i)` alone keys the substreams and
gives instance i on its own; `run_suites` is the one loop over the instances,
and its `_run` alone makes the calls, stamps their reports and re-judges them
under `--tol`. Each instance's reports are yielded as one batch, so a caller
can write and drop them before the next instance is drawn. `reports_to_ndjson`
and `reports_to_csv` (rows only; the caller writes `CSV_HEADER`) turn a batch
into text, `csv_row` is the one CSV row rule, and `to_json`/`from_json` are the
one JSON wire format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import checks, wehrl
from .linalg import DensityMatrix, as_dims
from .measurement import KrausSet, Povm
from .randgen import (
    RNG_NAME,
    random_density,
    random_hermitian,
    random_kraus,
    random_positive,
    random_povm,
    require_seed,
    require_trials,
    rng_for,
)
from .report import InequalityReport, judge, require_tol

SUITES: dict[str, Callable[..., tuple[list, dict]]] = {}
# Largest spin the wehrl suite accepts. Each instance eigensolves (2j+1)^2-dim states and
# streams Husimi values over ((2j+4)(4j+4))^2 product-grid nodes: one instance took 1.8 s
# and 94 MB peak RSS at 2j = 32, 4.8 s and 171 MB at 40, 13-15 s and 307 MB at 48.
WEHRL_MAX_TWO_J = 48


@dataclass
class SuiteConfig:
    suites: Sequence[str] = ("all",)
    dims: Sequence[int] = (2, 2, 2)
    trials: int = 50
    seed: int = 0
    tol: float | None = None
    d: int = 2
    two_j: int = 1

    def __post_init__(self):
        """Reject every bad setting before any suite runs (unknown suite: KeyError); keep the resolved names."""
        self.trials, self.seed = require_trials(self.trials), require_seed(self.seed)
        if self.tol is not None:
            require_tol(self.tol)
        self.dims = as_dims(self.dims)
        self.suites = names = tuple(resolve_suites(self.suites))
        for name in names:
            need = SUITES[name].factors
            if need == 3 and len(self.dims) != 3:
                raise ValueError(f"suite {name} needs a 3-factor state, got dims {self.dims}")
            if need == 2 and len(self.dims) < 2:
                raise ValueError(f"suite {name} needs at least two factors, got dims {self.dims}")
        if "counterexample" in names:
            self.d = checks.require_counterexample_d(self.d)
        if "wehrl" in names:
            self.two_j = wehrl.require_two_j(self.two_j)
            if self.two_j > WEHRL_MAX_TWO_J:
                raise ValueError(f"suite wehrl needs two_j <= {WEHRL_MAX_TWO_J}, got {self.two_j}")


def _run(calls, meta: dict, cfg: SuiteConfig, suite: str, index: int) -> list[InequalityReport]:
    """Make an instance's check calls in order, then set each report's tol to `cfg.tol`, if set (by `judge`,
    which leaves a skipped report at 0), and stamp it with the seed, `meta`, suite, instance and rng."""
    reports = []
    for check, *args in calls:
        out = check(*args)
        reports.extend([out] if isinstance(out, InequalityReport) else out)
    for r in reports:
        if cfg.tol is not None:
            judge(r, cfg.tol)
        r.seed = cfg.seed
        r.meta.update(meta, suite=suite, instance=index, rng=RNG_NAME)
    return reports


def _instances(name: str, sid: int | None = None, factors: int | None = None):
    """Register a builder as the suite `name`: `SUITES[name]` is the builder itself.

    `build(cfg, i, key)` returns instance i's `(calls, meta)`, drawn but not run; `key(*slot)`,
    made by `draw`, is the substream its objects draw from, and each check is named through its
    module (`checks.check_ssa`), so it is looked up at call time. `build.sid` is fixed: changing
    it changes every replayed report; a suite without one draws no random numbers and has the one
    instance 0. It reads `build.factors` of --dims: 3 (a tripartite state), 2 (the first two of
    at least two) or None. A name or id registered twice is an error.
    """

    def decorate(build):
        if name in SUITES or sid in {b.sid for b in SUITES.values()} - {None}:
            raise ValueError(f"suite {name!r} (stream id {sid}) clashes with an earlier registration")
        build.sid, build.factors = sid, factors
        SUITES[name] = build
        return build

    return decorate


@_instances("ssa", 1, factors=3)
def suite_ssa(cfg, i, key):
    total = math.prod(cfg.dims)
    rank = total if i % 2 == 0 else max(1, total // 2)
    return [(checks.check_ssa, random_density(cfg.dims, rank, cfg.seed, key(0)))], {"rank": rank}


@_instances("stronger-ssa", 2, factors=3)
def suite_stronger_ssa(cfg, i, key):
    d1, d2 = cfg.dims[:2]
    rho = random_density(cfg.dims, math.prod(cfg.dims), cfg.seed, key(0))
    k = random_kraus(d1 * d2, (1, 2, 4)[i % 3], cfg.seed, key(1), acts_on=(1, 2))
    return [(checks.check_stronger_ssa, rho, k)], {}


@_instances("sandwich", 3, factors=3)
def suite_sandwich(cfg, i, key):
    rho = random_density(cfg.dims, math.prod(cfg.dims), cfg.seed, key(0))
    k = random_kraus(cfg.dims[0], (2, 3, 4)[i % 3], cfg.seed, key(1), acts_on=(1,))
    return [(checks.check_sandwich, rho, k)], {}


@_instances("concavity", 4)
def suite_concavity(cfg, i, key):
    dim = (2, 3, 4)[i % 3]
    m = (1, 2, 3)[(i // 3) % 3]
    l_op = random_hermitian(dim, cfg.seed, key(0))
    ops = random_kraus(dim, m, cfg.seed, key(1)).ops
    sub_complete = i % 3 == 2
    if sub_complete:
        # exercise the sub-complete case sum K†K = 0.9 I
        ops = [op * np.sqrt(0.9) for op in ops]
    a_ops = [random_positive(dim, cfg.seed, key(2, j)) for j in range(m)]
    b_ops = [random_positive(dim, cfg.seed, key(3, j)) for j in range(m)]
    return [(checks.check_concave_map, l_op, ops, a_ops, b_ops)], {"sub_complete": sub_complete}


@_instances("gibbs", 5)
def suite_gibbs(cfg, i, key):
    total = math.prod(cfg.dims)
    rho = random_density(cfg.dims, total if i % 2 == 0 else 1, cfg.seed, key(0))
    return [(checks.check_gibbs_variational, rho, random_hermitian(total, cfg.seed, key(1)))], {}


@_instances("cpt", 6, factors=3)
def suite_cpt(cfg, i, key):
    d1, d2 = cfg.dims[:2]
    rho = random_density(cfg.dims, math.prod(cfg.dims), cfg.seed, key(0))
    k = random_kraus(d1 * d2, (2, 3)[i % 2], cfg.seed, key(1), acts_on=(1, 2))
    return [(checks.check_cpt_monotonicity, rho, k)], {}


@_instances("improved-subadd", 7, factors=2)
def suite_improved_subadd(cfg, i, key):
    d1, d2 = cfg.dims[:2]
    rho = random_density((d1, d2), d1 * d2, cfg.seed, key(0))
    return [(checks.check_improved_subadd, rho, random_povm(d1, (2, 3, 4)[i % 3], cfg.seed, key(1)))], {}


@_instances("mutual-info", 8, factors=2)
def suite_mutual_info(cfg, i, key):
    d1, d2 = cfg.dims[:2]
    counts = (2, 3, 4)
    rho = random_density((d1, d2), d1 * d2, cfg.seed, key(0))
    p = random_povm(d1, counts[i % 3], cfg.seed, key(1))
    q = random_povm(d2, counts[(i + 1) % 3], cfg.seed, key(2))
    return [(checks.check_classical_mutual_info, rho, p, q)], {}


@_instances("cq-chain", 9, factors=2)
def suite_cq_chain(cfg, i, key):
    d1, d2 = cfg.dims[:2]
    counts = (2, 3)
    rho = random_density((d1, d2), d1 * d2, cfg.seed, key(0))
    p = random_povm(d1, counts[i % 2], cfg.seed, key(1))
    q = random_povm(d2, counts[(i + 1) % 2], cfg.seed, key(2))
    return [(checks.check_cq_chain, rho, p, q)], {}


@_instances("cqq", 10, factors=3)
def suite_cqq(cfg, i, key):
    rho = random_density(cfg.dims, math.prod(cfg.dims), cfg.seed, key(0))
    return [(checks.check_cqq, rho, random_povm(cfg.dims[0], (2, 3, 4)[i % 3], cfg.seed, key(1)))], {}


@_instances("convexity", 11, factors=2)
def suite_convexity(cfg, i, key):
    d1, d2 = cfg.dims[:2]
    a = random_density((d1, d2), d1 * d2, cfg.seed, key(0))
    b = random_density((d1, d2), max(1, d1 * d2 // 2), cfg.seed, key(1))
    return [(checks.check_convexity_cl_minus_q, a, b, random_povm(d1, 2 + i % 2, cfg.seed, key(2)))], {}


@_instances("holevo", 12, factors=2)
def suite_holevo(cfg, i, key):
    d1, d2 = cfg.dims[:2]
    d = d1 * d2
    m = (2, 3, 4)[i % 3]
    weights = rng_for(cfg.seed, key(0)).dirichlet(np.ones(m))
    states = [random_density((d,), d if j % 2 == 0 else 1, cfg.seed, key(1, j))
              for j in range(m)]
    return [(checks.check_holevo, weights, states, random_povm(d, 2 + i % 3, cfg.seed, key(2)))], {}


@_instances("wehrl", 13)
def suite_wehrl(cfg, i, key):
    dim = cfg.two_j + 1
    rho12 = random_density((dim, dim), dim * dim, cfg.seed, key(0))
    a = random_density((dim,), dim, cfg.seed, key(1))
    b = random_density((dim,), max(1, dim // 2) if i % 2 else dim, cfg.seed, key(2))
    return [(wehrl.check_wehrl_dominates, rho12), (wehrl.check_wehrl_mutual_info, rho12),
            (wehrl.check_wehrl_convexity, a, b)], {}


@_instances("counterexample")
def suite_counterexample(cfg, i, key):
    return [(checks.counterexample_two_sided, cfg.d)], {}


def resolve_suites(names: Sequence[str]) -> list[str]:
    requested = []
    for n in names:
        requested.extend(s.strip() for s in n.split(",") if s.strip())
    if not requested:
        raise ValueError("no suite selected")
    unknown = [n for n in requested if n not in SUITES and n != "all"]
    if unknown:
        raise KeyError(f"unknown suite(s): {', '.join(unknown)}; known: {', '.join(SUITES)}, all")
    if "all" in requested:
        return list(SUITES)
    # keep registry order, drop duplicates
    return [n for n in SUITES if n in requested]


def draw(name: str, cfg: SuiteConfig, i: int) -> tuple[list, dict]:
    """Instance i of suite `name` as `(calls, meta)`, not run; the one maker of substream keys (sid, i, *slot)."""
    build = SUITES[name]
    return build(cfg, i, lambda *slot: (build.sid, i, *slot))


def run_suites(cfg: SuiteConfig) -> Iterator[list[InequalityReport]]:
    """Yield each instance's reports as soon as they are made, in (suite, instance) order; a caller
    that wants one list flattens the batches. Nothing runs until the first batch is asked for."""
    for name in cfg.suites:
        for i in range(cfg.trials if SUITES[name].sid is not None else 1):
            calls, meta = draw(name, cfg, i)
            yield _run(calls, meta, cfg, name, i)
            del calls  # free instance i's objects before instance i + 1 is drawn


# --- serialization ----------------------------------------------------------
#
# The JSON wire format of check arguments, decoded by key: a matrix is {"rows", "cols", "re",
# "im"} (row-major lists), a density matrix adds "dims", a Kraus set is {"acts_on", "ops": [matrix,
# ...]}, a POVM {"ops"}; a real weight vector or a number is itself, and a list of them a list.


def to_json(x):
    """The wire form of a matrix, state, Kraus set, POVM, real weight vector or number, or a list of them."""
    if isinstance(x, DensityMatrix):
        return {**to_json(x.mat), "dims": list(x.dims)}
    if isinstance(x, KrausSet):
        return {"acts_on": list(x.acts_on), "ops": to_json(x.ops)}
    if isinstance(x, Povm):
        return {"ops": to_json(x.elements)}
    if isinstance(x, (list, tuple)):
        return [to_json(v) for v in x]
    if np.ndim(x) < 2 and not np.iscomplexobj(x):
        return np.asarray(x).tolist()
    m = np.asarray(x, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1], "re": m.real.tolist(), "im": m.imag.tolist()}


def from_json(obj):
    """Inverse of `to_json`, bit for bit: a list of numbers is a float vector. States, Kraus sets
    and POVMs are validated by their constructors."""
    if isinstance(obj, list):
        numbers = all(isinstance(v, (int, float)) for v in obj)
        return np.array(obj, dtype=float) if numbers else [from_json(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    if "ops" in obj:
        ops = from_json(obj["ops"])
        return KrausSet(ops, acts_on=obj["acts_on"]) if "acts_on" in obj else Povm(ops)
    re, im = np.array(obj["re"], dtype=float), np.array(obj["im"], dtype=float)
    if not re.shape == im.shape == (obj["rows"], obj["cols"]):
        raise ValueError(f"re {re.shape} and im {im.shape} do not match rows/cols {(obj['rows'], obj['cols'])}")
    m = np.empty(re.shape, dtype=complex)
    m.real, m.imag = re, im  # not re + 1j*im, which loses -0.0 and turns an infinite im into a NaN re
    return DensityMatrix(m, obj["dims"]) if "dims" in obj else m


def reports_to_ndjson(reports: Sequence[InequalityReport]) -> str:
    return "".join(json.dumps(r.to_json_dict(), separators=(",", ":")) + "\n" for r in reports)


CSV_HEADER = "name,seed,dims,lhs,rhs,slack,tol,pass,status,meta"


def _csv_cell(value) -> str:
    """A `to_json_dict` value as a CSV cell: None empty, a bool true/false, a number its repr,
    a string itself, dims joined by x, meta as JSON in double quotes with its own quotes as '."""
    if value is None or isinstance(value, bool):
        return "" if value is None else str(value).lower()
    if isinstance(value, list):
        return "x".join(map(str, value))
    if isinstance(value, dict):
        return '"' + json.dumps(value, separators=(",", ":")).replace('"', "'") + '"'
    return value if isinstance(value, str) else repr(value)


def csv_row(values) -> str:
    """One CSV line: each value as a cell (`_csv_cell`), joined by commas, with its newline."""
    return ",".join(map(_csv_cell, values)) + "\n"


def reports_to_csv(reports: Sequence[InequalityReport]) -> str:
    """One row per report, without the header `CSV_HEADER`: the values of its `to_json_dict`, in order."""
    return "".join(csv_row(r.to_json_dict().values()) for r in reports)
