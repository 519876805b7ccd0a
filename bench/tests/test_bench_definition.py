"""BENCHMARK.json names exactly the workloads and metrics the benchmark produces."""

import json

from tracer import Tracer
from workloads import ALL_SUITES, WORKLOADS

from conftest import ROOT

DEF = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert {w["name"]: w["why"] for w in DEF["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}


def test_per_layer_metrics_match_trace_output():
    produced = {name: unit for name, (_, unit) in Tracer().layer_metrics(1).items()}
    produced.update({"trace.wall_s": "s", "trace.overhead_frac": "frac"})
    produced.update({f"suite.{s}.eig_per_report": "count/report" for s in ALL_SUITES})
    assert {m["name"]: m["unit"] for m in DEF["per_layer"]} == produced


def test_end_to_end_metrics():
    assert [m["name"] for m in DEF["end_to_end"]] == ["reports_per_s", "setup_s", "peak_rss_mb"]
    assert all(0 < m["bound"] <= 0.25 for m in DEF["end_to_end"])
