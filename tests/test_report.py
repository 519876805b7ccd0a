"""The one verdict: `judge` sets tol and pass, `make_report` judges at the default."""

import numpy as np
import pytest

from qssa.report import default_tol, judge, make_report, skipped_report


class TestJudge:
    def test_boundary_slack_equal_to_minus_tol_passes(self):
        r = make_report("x", 1.0, 0.5)
        assert r.slack == -0.5
        assert judge(r, 0.5).passed
        assert r.tol == 0.5

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
    def test_skipped_report_keeps_zero_tol(self, tol):
        r = skipped_report("x", "support")
        assert (r.tol, r.passed) == (0.0, True)
        judge(r, tol)
        assert (r.tol, r.passed, r.status) == (0.0, True, "skipped")

    def test_skipped_report_is_built_by_make_report(self):
        r = skipped_report("x", "support", relation=">=", dims=[2, 3], lhs_finite=False)
        assert r == make_report("x", None, None, ">=", "skipped", (2, 3), lhs_finite=False, reason="support")
        assert (r.lhs, r.rhs, r.slack, r.tol, r.passed) == (None, None, None, 0.0, True)
        assert list(r.meta) == ["lhs_finite", "reason"]

    def test_skipped_report_validates_its_relation(self):
        with pytest.raises(ValueError, match="relation"):
            skipped_report("x", "support", relation="<")

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


class TestMetadataKeys:
    # Metadata that named a report field would shadow it: make_report("x", 1, 0.5,
    # tol=1.0) would judge at the default tol and store meta {"tol": 1.0}.
    FIELD_KEYS = ("slack", "tol", "passed", "pass", "seed", "meta")

    @pytest.mark.parametrize("key", FIELD_KEYS)
    def test_make_report_rejects_a_report_field(self, key):
        with pytest.raises(TypeError, match=key):
            make_report("x", 1.0, 0.5, **{key: 1.0})

    @pytest.mark.parametrize("key", FIELD_KEYS + ("lhs", "rhs", "status"))
    def test_skipped_report_rejects_a_report_field(self, key):
        with pytest.raises(TypeError, match=key):
            skipped_report("x", "support", **{key: 3})

    def test_other_metadata_is_kept(self):
        assert make_report("x", 1.0, 0.5, kraus_count=2).meta == {"kraus_count": 2}
        assert skipped_report("x", "support", lhs_finite=False).meta == {"lhs_finite": False, "reason": "support"}
