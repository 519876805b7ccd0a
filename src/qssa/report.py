"""Structured results for inequality checks.

Every check produces an InequalityReport. The `relation` field records the
claimed direction; `slack` is always the margin by which the claim holds
(rhs - lhs for "<=", lhs - rhs for ">="), so `passed` is recomputable from
the report's own numbers as slack >= -tol. `judge` is the one place that
sets `tol` and `passed`: `make_report` judges against `default_tol`, and a
caller with its own tolerance (the suites, under `--tol`) judges again.
`make_report` builds every report, skipped ones too (through `skipped_report`):
those carry no numbers and no verdict (tol 0, pass); those with
"expected-violation" mark constructions that are meant to violate a
hypothetical bound and always pass.
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
    slack: Optional[float]
    tol: float = 0.0
    passed: bool = True
    status: str = "ok"
    relation: str = "<="
    seed: Optional[int] = None
    dims: Optional[tuple] = None
    meta: dict = field(default_factory=dict)

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


# Keys that metadata may not use: the report's own fields and their JSON names.
_RESERVED_META = frozenset(f.name for f in fields(InequalityReport)) | {"pass"}


def _check_meta(meta: dict) -> dict:
    clash = sorted(_RESERVED_META & meta.keys())
    if clash:
        raise TypeError(f"metadata may not name a report field: {', '.join(clash)}")
    return meta


def judge(report: InequalityReport, tol: float) -> InequalityReport:
    """Judge a non-skipped report against `tol`: pass iff slack >= -tol.

    An "expected-violation" report passes at any tolerance; a skipped one
    is left as it is (tol 0, pass).
    """
    if report.status != "skipped":
        report.tol = float(tol)
        report.passed = report.status == "expected-violation" or report.slack >= -report.tol
    return report


def make_report(name: str, lhs: float, rhs: float, relation: str = "<=", status: str = "ok", dims=None,
                **meta) -> InequalityReport:
    if relation not in ("<=", ">="):
        raise ValueError(f"relation must be '<=' or '>=', got {relation!r}")
    slack = None
    if status != "skipped":
        lhs, rhs = float(lhs), float(rhs)
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise ValueError(f"non-finite bounds lhs={lhs} rhs={rhs}; flag via skipped_report instead")
        slack = rhs - lhs if relation == "<=" else lhs - rhs
    r = InequalityReport(name, lhs, rhs, slack, status=status, relation=relation,
                         dims=tuple(dims) if dims is not None else None, meta=_check_meta(meta))
    return r if slack is None else judge(r, default_tol(lhs, rhs))


def skipped_report(name: str, reason: str, relation: str = "<=", dims=None, **meta) -> InequalityReport:
    """`make_report`'s "skipped" report: no lhs, rhs, slack or verdict, and `reason` last in meta."""
    return make_report(name, None, None, relation, "skipped", dims, **{**meta, "reason": reason})
