"""The one verdict: slack and pass derive from lhs, rhs, relation, status and tol; `judge` sets tol,
`make_report` judges at the default."""

import dataclasses
import math

import numpy as np
import pytest

from qssa.report import InequalityReport, default_tol, judge, make_report

from test_linalg import forbid_eigensolves


def skipped(**meta):
    return make_report("x", None, None, status="skipped", **meta)


class TestJudge:
    def test_boundary_slack_equal_to_minus_tol_passes(self):
        r = make_report("x", 1.0, 0.5)
        assert r.slack == -0.5
        assert judge(r, 0.5).passed
        assert r.tol == 0.5

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-3])
    def test_refuses_a_tol_not_finite_and_non_negative(self, tol):
        # at inf a violated report would pass; at NaN or below 0 a report that holds would fail
        r = make_report("x", 1.0, 0.0)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            judge(r, tol)
        assert (r.tol, r.passed) == (default_tol(1.0, 0.0), False)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            judge(skipped(), tol)

    def test_slack_below_minus_tol_fails(self):
        r = make_report("x", 1.0, 0.5)
        assert not judge(r, np.nextafter(0.5, 0.0)).passed
        assert not judge(r, 0.0).passed

    def test_greater_equal_relation(self):
        r = make_report("x", 0.5, 1.0, relation=">=")
        assert r.slack == -0.5
        assert judge(r, 0.5).passed
        assert not judge(r, 0.25).passed

    @pytest.mark.parametrize("tol", [0.0, 1e-8, 1e-3, 10.0])
    def test_expected_violation_passes_at_any_tol(self, tol):
        r = make_report("x", 1.0, 0.0, status="expected-violation")
        assert r.slack == -1.0
        assert judge(r, tol).passed
        assert r.tol == tol

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    def test_skipped_keeps_zero_tol(self, tol):
        r = skipped(reason="support")
        assert (r.tol, r.passed) == (0.0, True)
        judge(r, tol)
        assert (r.tol, r.passed, r.status) == (0.0, True, "skipped")

    def test_skipped_is_built_by_make_report(self):
        r = make_report("x", None, None, ">=", "skipped", [2, 3], lhs_finite=False, reason="support")
        assert r == InequalityReport("x", None, None, status="skipped", relation=">=", dims=(2, 3),
                                     meta={"lhs_finite": False, "reason": "support"})
        assert (r.lhs, r.rhs, r.slack, r.tol, r.passed) == (None, None, None, 0.0, True)
        assert list(r.meta) == ["lhs_finite", "reason"]

    def test_skipped_validates_its_relation(self):
        with pytest.raises(ValueError, match="relation"):
            make_report("x", None, None, "<", "skipped")

    def test_judges_in_place_and_returns_the_report(self):
        r = make_report("x", 0.0, 1.0)
        assert judge(r, 0.0) is r

    def test_make_report_judges_at_the_default_tol(self):
        r = make_report("x", -3.0, 2.0)
        assert r.tol == default_tol(-3.0, 2.0) == pytest.approx(3e-8, rel=1e-15)
        assert r.passed
        fails = make_report("x", 1.0 + 2e-8, 1.0)
        assert fails.tol == 1e-8 * (1.0 + 2e-8)
        assert not fails.passed

    def test_tol_is_stored_as_float(self):
        r = judge(make_report("x", 0.0, 1.0), 0)
        assert type(r.tol) is float

    def test_judge_sets_only_tol(self):
        r = make_report("x", 1.0, 0.5, relation=">=", kraus_count=2)
        before = dataclasses.replace(r, meta=dict(r.meta))
        judge(r, 0.25)
        assert r == dataclasses.replace(before, tol=0.25)


class TestDerivedVerdict:
    def test_slack_and_passed_are_not_fields(self):
        names = {f.name for f in dataclasses.fields(InequalityReport)}
        assert names.isdisjoint({"slack", "passed", "pass"})

    @pytest.mark.parametrize("attr", ["slack", "passed"])
    def test_slack_and_passed_cannot_be_assigned(self, attr):
        r = make_report("x", 1.0, 0.5)
        with pytest.raises(AttributeError):
            setattr(r, attr, 0.0)

    @pytest.mark.parametrize("relation, slack", [("<=", 0.5), (">=", -0.5)])
    def test_slack_is_oriented_by_the_relation(self, relation, slack):
        assert make_report("x", 0.25, 0.75, relation=relation).slack == slack

    def test_verdict_follows_the_stored_values(self):
        # nothing derived is cached: a changed rhs, relation or tol moves slack and pass at once
        r = make_report("x", 1.0, 2.0)
        assert (r.slack, r.passed) == (1.0, True)
        r.rhs = 0.5
        assert (r.slack, r.passed) == (-0.5, False)
        r.relation = ">="
        assert (r.slack, r.passed) == (0.5, True)
        r.relation, r.tol = "<=", 0.5
        assert (r.slack, r.passed) == (-0.5, True)

    def test_only_an_ok_report_can_fail(self):
        for status in ("expected-violation", "skipped"):
            assert InequalityReport("x", 1.0, 0.0, status=status).passed
        assert not InequalityReport("x", 1.0, 0.0).passed

    @pytest.mark.parametrize("lhs, rhs", [(math.nan, 0.5), (1.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_bounds_are_rejected(self, monkeypatch, lhs, rhs):
        # a bound that cannot be judged is a "skipped" report, never a verdict
        forbid_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match="non-finite bounds"):
            make_report("x", lhs, rhs)

    def test_json_carries_the_derived_values(self):
        d = make_report("x", 1.0, 0.5).to_json_dict()
        assert (d["slack"], d["pass"]) == (-0.5, False)
        assert skipped(reason="support").to_json_dict()["slack"] is None


class TestMetadataKeys:
    # Metadata that named a report field would shadow it: make_report("x", 1, 0.5,
    # tol=1.0) would judge at the default tol and store meta {"tol": 1.0}.
    FIELD_KEYS = ("slack", "tol", "passed", "pass", "seed", "meta")

    @pytest.mark.parametrize("key", FIELD_KEYS)
    def test_make_report_rejects_a_report_field(self, key):
        with pytest.raises(TypeError, match=key):
            make_report("x", 1.0, 0.5, **{key: 1.0})

    @pytest.mark.parametrize("key", FIELD_KEYS + ("lhs", "rhs", "status"))
    def test_skipped_rejects_a_report_field(self, key):
        with pytest.raises(TypeError, match=key):
            skipped(reason="support", **{key: 3})

    def test_other_metadata_is_kept(self):
        assert make_report("x", 1.0, 0.5, kraus_count=2).meta == {"kraus_count": 2}
        assert skipped(lhs_finite=False, reason="support").meta == {"lhs_finite": False, "reason": "support"}
