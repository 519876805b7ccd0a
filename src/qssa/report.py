"""Structured results for inequality checks.

Every check produces an InequalityReport through `make_report`. A report
stores what its check measured (lhs, rhs, the claimed `relation`, `status`)
and the `tol` it is judged at; `slack` (rhs - lhs for "<=", lhs - rhs for
">=") and `passed` (slack >= -tol) are derived from them, never stored.
`judge` is the one place that sets `tol`, which `require_tol` holds finite
and >= 0: `make_report` judges at `default_tol`, and a caller with its own
tolerance (the suites, under `--tol`) judges again. A "skipped" report
carries no numbers (slack None, tol 0, pass); an "expected-violation" one
marks a construction meant to violate a hypothetical bound and passes at
any tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional


def default_tol(lhs: float, rhs: float) -> float:
    """Scale-aware tolerance: entropies are O(ln dim), solver error ~1e-12*dim."""
    return 1e-8 * max(1.0, abs(lhs), abs(rhs))


@dataclass
class InequalityReport:
    name: str
    lhs: Optional[float]
    rhs: Optional[float]
    tol: float = 0.0
    status: str = "ok"
    relation: str = "<="
    seed: Optional[int] = None
    dims: Optional[tuple] = None
    meta: dict = field(default_factory=dict)

    @property
    def slack(self) -> Optional[float]:
        if self.status == "skipped":
            return None
        return self.rhs - self.lhs if self.relation == "<=" else self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        return self.status != "ok" or self.slack >= -self.tol

    def to_json_dict(self) -> dict:
        meta = dict(self.meta)
        meta["relation"] = self.relation
        return {
            "name": self.name,
            "seed": self.seed,
            "dims": list(self.dims) if self.dims is not None else None,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tol": self.tol,
            "pass": self.passed,
            "status": self.status,
            "meta": meta,
        }


# Keys that metadata may not use: the report's own fields, its derived values and their JSON names.
_RESERVED_META = frozenset(f.name for f in fields(InequalityReport)) | {"slack", "passed", "pass"}


def require_tol(tol: float, what: str = "tol") -> float:
    """tol as a float; ValueError unless it is finite and >= 0. `what` names it."""
    value = float(tol)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{what} must be finite and >= 0, got {tol!r}")
    return value


def judge(report: InequalityReport, tol: float) -> InequalityReport:
    """Set the `tol` (`require_tol`) a non-skipped report is judged at; a skipped one keeps tol 0."""
    tol = require_tol(tol)
    if report.status != "skipped":
        report.tol = tol
    return report


def make_report(name: str, lhs: float, rhs: float, relation: str = "<=", status: str = "ok", dims=None,
                **meta) -> InequalityReport:
    if relation not in ("<=", ">="):
        raise ValueError(f"relation must be '<=' or '>=', got {relation!r}")
    clash = sorted(_RESERVED_META & meta.keys())
    if clash:
        raise TypeError(f"metadata may not name a report field: {', '.join(clash)}")
    if status != "skipped":
        lhs, rhs = float(lhs), float(rhs)
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise ValueError(f"non-finite bounds lhs={lhs} rhs={rhs}; flag via status 'skipped' instead")
    r = InequalityReport(name, lhs, rhs, status=status, relation=relation,
                         dims=tuple(dims) if dims is not None else None, meta=meta)
    return r if status == "skipped" else judge(r, default_tol(lhs, rhs))
