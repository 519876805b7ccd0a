"""Suite registry, suite runs, and failure aggregation."""

import json
import sys
import warnings

import numpy as np
import pytest

import qssa.checks
import qssa.linalg
import qssa.suites
from qssa.cli import main
from qssa.linalg import STATE_TOL, DensityMatrix
from qssa.measurement import KrausSet, Povm
from qssa.randgen import complex_gaussian, random_density, random_kraus, random_povm, rng_for
from qssa.report import InequalityReport, make_report
from qssa.suites import (
    CSV_HEADER,
    SUITES,
    WEHRL_MAX_TWO_J,
    SuiteConfig,
    _instances,
    _run,
    from_json,
    reports_to_csv,
    reports_to_ndjson,
    resolve_suites,
    run_suites,
    to_json,
)


class TestResolve:
    def test_all_expands_in_registry_order(self):
        assert resolve_suites(["all"]) == list(SUITES)

    def test_comma_separated(self):
        assert resolve_suites(["gibbs,ssa"]) == ["ssa", "gibbs"]

    def test_unknown_raises(self):
        # an unknown name is an error even next to "all"
        for names in (["ssa", "bogus"], ["all", "bogus"], ["all,bogus"]):
            with pytest.raises(KeyError, match="bogus"):
                resolve_suites(names)

    def test_duplicates_dropped(self):
        assert resolve_suites(["ssa", "ssa"]) == ["ssa"]

    def test_config_keeps_the_resolved_names(self):
        assert SuiteConfig(suites=("cq-chain,ssa",)).suites == ("ssa", "cq-chain")

    def test_run_reads_the_names_the_config_resolved(self, monkeypatch):
        cfg = SuiteConfig(suites=["counterexample,counterexample"])
        monkeypatch.setattr(qssa.suites, "resolve_suites", lambda names: pytest.fail("suites resolved again"))
        assert [r.name for r in run_suites(cfg)] == ["counterexample_two_sided"]

    @pytest.mark.parametrize("names", [[], [""], [","], [" , ", ""]])
    def test_empty_selection_raises(self, names):
        with pytest.raises(ValueError, match="no suite"):
            resolve_suites(names)


class TestRegistry:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4)])
    def test_each_suite_alone_equals_its_lines_in_all(self, dims):
        def lines(names):
            cfg = SuiteConfig(suites=names, dims=dims, trials=2, seed=42)
            return reports_to_ndjson(run_suites(cfg)).splitlines()

        alone = {name: lines([name]) for name in SUITES}
        assert all(alone.values())
        assert lines(["all"]) == [line for name in SUITES for line in alone[name]]

    @pytest.mark.parametrize("name,sid", [("ssa", 99), ("fresh", 1), ("counterexample", None)])
    def test_second_registration_of_a_name_or_id_raises(self, name, sid):
        before = dict(SUITES)
        with pytest.raises(ValueError):
            _instances(name, sid)(lambda cfg, i, key: [])
        assert SUITES == before


def _negative_part(m: np.ndarray) -> float:
    """How far the Hermitian part of m reaches below zero."""
    return max(0.0, -float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0]))


class TestValidationHeadroom:
    def test_suite_objects_sit_far_inside_state_tol(self, monkeypatch):
        # Every state, Kraus set and POVM the suites build, and every operator
        # `hermitize` symmetrizes (POVM elements, Gibbs H, matrix logs and roots,
        # trace-exp exponents, I - sum K†K), is validated against STATE_TOL; record
        # each residual independently of the validators and require a 1000x margin,
        # so the one shared bound never decides a run.
        residuals = {name: [] for name in ("trace", "negative_eig", "asymmetry", "completeness", "povm_sum",
                                           "hermitize_input")}
        rho_init, kraus_init, povm_init = DensityMatrix.__init__, KrausSet.__init__, Povm.__init__
        real_hermitize = qssa.linalg.hermitize

        def record_hermitize(m):
            m = np.asarray(m, dtype=complex)
            residuals["hermitize_input"].append(float(np.abs(m - m.conj().T).max()))
            return real_hermitize(m)

        def record_rho(self, mat, dims, **kw):
            # **kw passes kron_state's eigensystem through, so product states
            # are recorded like every other state, and so is the derived
            # spectrum their PSD check reads
            m = np.asarray(mat, dtype=complex)
            residuals["asymmetry"].append(float(np.abs(m - m.conj().T).max()))
            residuals["negative_eig"].append(_negative_part(m))
            if kw.get("_eig") is not None:
                residuals["negative_eig"].append(max(0.0, -float(kw["_eig"][0][0])))
            residuals["trace"].append(abs(float(np.trace(m).real) - 1.0))
            rho_init(self, mat, dims, **kw)

        def record_kraus(self, ops, acts_on=(1,)):
            ops = [np.asarray(k, dtype=complex) for k in ops]
            gap = np.eye(ops[0].shape[0]) - sum(k.conj().T @ k for k in ops)
            residuals["completeness"].append(float(np.abs(gap).max()))
            kraus_init(self, ops, acts_on)

        def record_povm(self, elements):
            elements = [np.asarray(p, dtype=complex) for p in elements]
            residuals["povm_sum"].append(float(np.abs(sum(elements) - np.eye(elements[0].shape[0])).max()))
            residuals["negative_eig"].extend(_negative_part(p) for p in elements)
            povm_init(self, elements)

        monkeypatch.setattr(DensityMatrix, "__init__", record_rho)
        monkeypatch.setattr(KrausSet, "__init__", record_kraus)
        monkeypatch.setattr(Povm, "__init__", record_povm)
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("qssa.") and getattr(m, "hermitize", None) is real_hermitize]
        # every guarded solve and state looks `hermitize` up where `hermitian_eigvalsh` lives;
        # checks keeps its own binding for the Gibbs H
        assert {m.__name__ for m in modules} >= {qssa.linalg.hermitian_eigvalsh.__module__, "qssa.checks"}
        for module in modules:
            monkeypatch.setattr(module, "hermitize", record_hermitize)
        for dims in ((2, 2, 2), (2, 3, 4)):
            run_suites(SuiteConfig(suites=["all"], dims=dims, trials=3, seed=11))
        # every state is hermitized once; the surplus are operators
        assert len(residuals["hermitize_input"]) > len(residuals["trace"])
        for name, values in residuals.items():
            assert values, name
            assert max(values) <= 1e-12 <= STATE_TOL / 1000, (name, max(values))


class TestRun:
    def test_every_suite_emits_passing_reports(self):
        cfg = SuiteConfig(suites=["all"], trials=2, seed=5)
        reports = run_suites(cfg)
        suites_seen = {r.meta["suite"] for r in reports}
        assert suites_seen == set(SUITES)
        for r in reports:
            assert r.passed or r.status == "skipped"

    def test_pass_recomputable_across_all_reports(self):
        cfg = SuiteConfig(suites=["all"], trials=2, seed=6)
        for r in run_suites(cfg):
            if r.status == "skipped":
                continue
            margin = (r.rhs - r.lhs) if r.relation == "<=" else (r.lhs - r.rhs)
            assert r.slack == margin
            if r.status == "ok":
                assert r.passed == (r.slack >= -r.tol)

    def test_wehrl_suite_three_reports_per_instance(self):
        cfg = SuiteConfig(suites=["wehrl"], trials=2, seed=5)
        names = [r.name for r in run_suites(cfg)]
        assert names == ["wehrl_dominates", "wehrl_mutual_info", "wehrl_convexity"] * 2

    def test_every_third_concavity_instance_is_sub_complete(self, monkeypatch):
        families = []
        real = qssa.checks.check_concave_map
        monkeypatch.setattr(qssa.checks, "check_concave_map",
                            lambda l_op, ops, a, b: families.append(ops) or real(l_op, ops, a, b))
        reports = run_suites(SuiteConfig(suites=["concavity"], trials=9, seed=3))
        assert len(families) == len(reports) == 9
        for i, (r, ops) in enumerate(zip(reports, families)):
            assert r.meta["sub_complete"] is (i % 3 == 2)
            gram = sum(k.conj().T @ k for k in ops)
            scale = 0.9 if i % 3 == 2 else 1.0
            assert np.abs(gram - scale * np.eye(len(gram))).max() < 1e-12

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            SuiteConfig(trials=0)

    @pytest.mark.parametrize("suites,kwargs", [
        (["ssa"], {"dims": (2, 2)}),
        (["cpt"], {"dims": (2, 2, 2, 2)}),
        (["holevo"], {"dims": (4,)}),
        (["all"], {"dims": (2, 2)}),
        (["counterexample"], {"d": 1}),
        (["wehrl"], {"two_j": -1}),
        (["wehrl"], {"two_j": 1030}),
        (["wehrl"], {"two_j": WEHRL_MAX_TWO_J + 1}),
        (["gibbs"], {"seed": -1}),
    ], ids=["ssa-2", "cpt-4", "holevo-1", "all-2", "d-1", "two_j", "two_j-above-grid", "two_j-above-suite",
            "seed"])
    def test_bad_settings_rejected_before_running(self, suites, kwargs):
        with pytest.raises(ValueError):
            SuiteConfig(suites=suites, trials=1, **kwargs)

    @pytest.mark.parametrize("suites,kwargs", [
        (["ssa"], {"seed": 1.5}),
        (["ssa"], {"trials": 2.5}),
        (["counterexample"], {"d": 2.5}),
        (["wehrl"], {"two_j": 1.5}),
    ], ids=["seed", "trials", "d", "two_j"])
    def test_non_integral_settings_rejected_before_running(self, suites, kwargs):
        # int() would truncate them: seed 1.5 replayed seed 1's bytes under the label 1.5
        with pytest.raises(ValueError, match="expected an integer"):
            SuiteConfig(suites=suites, **kwargs)

    def test_integral_settings_are_stored_as_ints(self):
        cfg = SuiteConfig(suites=["counterexample", "wehrl"], trials=2.0, seed=np.float64(7.0), d=3.0,
                          two_j=np.int64(2))
        values = (cfg.trials, cfg.seed, cfg.d, cfg.two_j)
        assert values == (2, 7, 3, 2) and all(type(v) is int for v in values)

    def test_a_float_seed_writes_the_int_seeds_bytes(self):
        # one seed, one label: `qssa diff` pairs reports by (name, seed, suite, instance)
        def ndjson(seed, d):
            return reports_to_ndjson(run_suites(SuiteConfig(suites=["ssa", "counterexample"], trials=2, seed=seed, d=d)))

        assert ndjson(1.0, 2.0) == ndjson(1, 2)
        assert '"seed":1,' in ndjson(1, 2)

    def test_settings_of_unselected_suites_are_not_checked(self):
        SuiteConfig(suites=["gibbs", "wehrl"], dims=(4,), d=1)
        SuiteConfig(suites=["mutual-info"], dims=(2, 3, 4, 5), two_j=-1)
        SuiteConfig(suites=["ssa"], two_j=WEHRL_MAX_TWO_J + 1)

    def test_wehrl_suite_accepts_its_largest_spin(self):
        assert SuiteConfig(suites=["wehrl"], two_j=WEHRL_MAX_TWO_J).two_j == WEHRL_MAX_TWO_J

    def test_unknown_suite_rejected_at_construction(self):
        with pytest.raises(KeyError):
            SuiteConfig(suites=["bogus"])


class TestSerialization:
    def test_ndjson_line_count(self):
        cfg = SuiteConfig(suites=["ssa"], trials=3, seed=1)
        text = reports_to_ndjson(run_suites(cfg))
        assert len(text.strip().split("\n")) == 3

    def test_csv_header_names_the_json_keys(self):
        assert CSV_HEADER.split(",") == list(make_report("x", 1.0, 0.5).to_json_dict())

    def test_csv_cell_of_each_value_type(self):
        # a row is the to_json_dict values: None empty, bools lower case, numbers by repr,
        # dims joined by x, meta as JSON in double quotes with ' for its own quotes
        ok = make_report("x", 1.0, 0.5, dims=(2, 3), kraus_count=2)
        ok.seed = 7
        skipped = make_report("y", None, None, status="skipped", reason="support")
        assert reports_to_csv([ok, skipped]).splitlines()[1:] == [
            "x,7,2x3,1.0,0.5,-0.5,1e-08,false,ok,\"{'kraus_count':2,'relation':'<='}\"",
            "y,,,,,,0.0,true,skipped,\"{'reason':'support','relation':'<='}\"",
        ]

    def test_csv_round_trip_fields(self):
        cfg = SuiteConfig(suites=["counterexample"], d=4, seed=1)
        text = reports_to_csv(run_suites(cfg))
        header, row = text.strip().split("\n")
        assert header.startswith("name,seed,dims")
        assert row.split(",")[0] == "counterexample_two_sided"
        assert ",expected-violation," in row


class TestWireFormat:
    def test_matrix_round_trip(self):
        m = complex_gaussian(rng_for(107), (3, 4))
        assert np.array_equal(m, from_json(to_json(m)))

    def test_density_round_trip(self):
        rho = random_density((2, 3), 6, 8)
        back = from_json(to_json(rho))
        assert np.array_equal(rho.mat, back.mat)
        assert back.dims == rho.dims

    def test_schema_fields(self):
        assert list(to_json(np.eye(2))) == ["rows", "cols", "re", "im"]
        assert list(to_json(random_density((2, 2), 4, 9))) == ["rows", "cols", "re", "im", "dims"]
        assert list(to_json(random_kraus(2, 2, 9))) == ["acts_on", "ops"]
        assert list(to_json(random_povm(2, 2, 9))) == ["ops"]

    def test_kraus_round_trip(self):
        k = random_kraus(4, 3, 31, acts_on=(1, 2))
        back = from_json(to_json(k))
        assert back.acts_on == (1, 2)
        for a, b in zip(k.ops, back.ops):
            assert np.array_equal(a, b)

    def test_povm_round_trip(self):
        p = random_povm(3, 3, 32)
        back = from_json(to_json(p))
        assert isinstance(back, Povm)
        for a, b in zip(p.elements, back.elements):
            assert np.array_equal(a, b)

    def test_lists_weights_and_numbers(self):
        weights = np.array([0.25, 0.75, -0.0])
        obj = json.loads(json.dumps(to_json([weights, [np.eye(2), np.zeros((2, 2))], 3])))
        w, ops, n = (from_json(x) for x in obj)
        assert w.dtype == float and np.array_equal(np.signbit(w), np.signbit(weights))
        assert [o.dtype for o in ops] == [complex, complex] and np.array_equal(ops[0], np.eye(2))
        assert n == 3

    def test_signed_zeros_survive(self):
        m = np.array([[-0.0 - 0.0j, 1 - 0.0j], [complex(-0.0, 2.0), 3 + 0j]])
        back = from_json(json.loads(json.dumps(to_json(m))))
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(back, part)), np.signbit(getattr(m, part)))

    def test_infinite_imaginary_part_decodes_without_warning(self):
        obj = json.loads('{"rows": 1, "cols": 1, "re": [[0.0]], "im": [[Infinity]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = from_json(obj)
        assert m[0, 0].real == 0.0 and not np.signbit(m[0, 0].real) and m[0, 0].imag == np.inf

    @pytest.mark.parametrize("obj", [{"rows": 2, "cols": 1, "re": [[0.0]], "im": [[0.0]]},
                                     {"rows": 1, "cols": 2, "re": [[0.0, 1.0]], "im": [[0.0]]}])
    def test_shape_mismatch_rejected(self, obj):
        with pytest.raises(ValueError, match="rows/cols"):
            from_json(obj)

    @pytest.mark.parametrize("config", [dict(dims=(2, 2, 2), trials=50, seed=42),
                                        dict(dims=(2, 3, 4), trials=5, seed=7)], ids=["2,2,2", "2,3,4"])
    def test_every_check_replays_from_json(self, config):
        # each instance's arguments, sent through the wire format, give the same report bytes
        for name in SUITES:
            cfg = SuiteConfig(suites=[name], **config)
            direct, replayed = [], []
            for i, calls, meta in SUITES[name](cfg):
                wire = json.loads(json.dumps([[to_json(a) for a in args] for _, *args in calls]))
                replayed += _run([(check, *map(from_json, args)) for (check, *_), args in zip(calls, wire)],
                                 meta, cfg, name, i)
                direct += _run(calls, meta, cfg, name, i)
            assert reports_to_ndjson(replayed) == reports_to_ndjson(direct) == reports_to_ndjson(run_suites(cfg))


def test_failed_check_gives_exit_1(tmp_path, monkeypatch, capsys):
    def broken(rho):
        return InequalityReport(name="forced", lhs=1.0, rhs=0.0, tol=1e-8)  # slack -1: fails

    monkeypatch.setattr(qssa.checks, "check_ssa", broken)
    code = main(["check", "--suite", "ssa", "--trials", "1", "--out", str(tmp_path / "x.ndjson")])
    assert code == 1


def test_skipped_checks_do_not_fail(tmp_path, monkeypatch, capsys):
    from qssa.report import make_report

    def skipper(rho):
        return make_report("forced", None, None, status="skipped", reason="support")

    monkeypatch.setattr(qssa.checks, "check_ssa", skipper)
    code = main(["check", "--suite", "ssa", "--trials", "1", "--out", str(tmp_path / "x.ndjson")])
    assert code == 0
    obj = json.loads((tmp_path / "x.ndjson").read_text())
    assert obj["status"] == "skipped"
    assert obj["lhs"] is None


def test_tol_leaves_skipped_checks_unjudged(tmp_path, monkeypatch, capsys):
    from qssa import checks
    from qssa.report import make_report

    monkeypatch.setattr(checks, "check_ssa", lambda rho: make_report("ssa", None, None, status="skipped",
                                                                     reason="support"))
    code = main(["check", "--suite", "ssa", "--trials", "2", "--tol", "1e-3",
                 "--out", str(tmp_path / "x.ndjson")])
    assert code == 0
    for line in (tmp_path / "x.ndjson").read_text().splitlines():
        obj = json.loads(line)
        assert (obj["status"], obj["tol"], obj["pass"]) == ("skipped", 0.0, True)
