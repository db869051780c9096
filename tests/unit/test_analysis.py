"""Unit tests for the static-analysis subsystem (``repro.analysis``).

Each pass is tested twice: on clean input (no findings) and on a known-bad
fixture (the expected finding code fires).  The CLI, the baseline mechanism
and the bench-gate's missing-baseline tolerance are covered here too.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.analysis import concurrency_lint, plan_lint, rules_audit
from repro.optimizer import ring_gate
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.report import AnalysisReport, Baseline, BaselineError, Finding
from repro.analysis.selftest import (
    NONDETERMINISTIC_SOURCE,
    RACY_SOURCE,
    format_results,
    run_selftest,
)
from repro.ra.attrs import Attr
from repro.ra.rexpr import RSum, RVar

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ---------------------------------------------------------------------------
# Soundness declarations
# ---------------------------------------------------------------------------


class TestParseSoundness:
    def test_compact_field(self):
        claim = ring_gate.parse_soundness("real-only; needs: subtraction")
        assert claim is not None
        assert claim.rings == "real-only"
        assert claim.needs == ("subtraction",)
        claim = ring_gate.parse_soundness("any-semiring; needs: associativity, commutativity")
        assert claim == ring_gate.SoundnessClaim(
            "any-semiring", ("associativity", "commutativity")
        )

    def test_empty_declaration_is_undeclared(self):
        assert ring_gate.parse_soundness("") is None
        assert ring_gate.parse_soundness(None) is None

    def test_rules_declare_in_an_attribute_that_survives_dash_OO(self):
        """``python -OO`` strips docstrings; a gate reading them would
        silently exclude every rule off the real ring."""
        script = (
            "from repro.rules import relational_rules\n"
            "from repro.runtime.semiring import MIN_PLUS\n"
            "assert relational_rules.__doc__ is None\n"
            "print(len(relational_rules(ring=MIN_PLUS)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-OO", "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "13"

    def test_predicted_filters_by_capability(self):
        from repro.runtime.semiring import AUDIT_SEMIRINGS

        any_ring = ring_gate.SoundnessClaim(rings="any-semiring")
        assert len(any_ring.predicted(AUDIT_SEMIRINGS)) == 4
        sub = ring_gate.SoundnessClaim(rings="any-semiring", needs=("subtraction",))
        assert sub.predicted(AUDIT_SEMIRINGS) == frozenset({"real"})
        idem = ring_gate.SoundnessClaim(rings="any-semiring", needs=("idempotence",))
        assert "real" not in idem.predicted(AUDIT_SEMIRINGS)
        named = ring_gate.SoundnessClaim(rings="min-plus, bool", needs=("division",))
        assert named.predicted(AUDIT_SEMIRINGS) == frozenset({"min-plus"})
        # a capability nobody defined is refused, not guessed
        typo = ring_gate.SoundnessClaim(rings="any-semiring", needs=("telepathy",))
        assert typo.predicted(AUDIT_SEMIRINGS) == frozenset()


class TestRulesAudit:
    def test_head_is_clean_and_fully_classified(self):
        findings, matrix = rules_audit.run_rules_audit(trials=1)
        assert findings == [], [finding.to_dict() for finding in findings]
        assert matrix["classified"] == matrix["total"] > 0

    def test_all_relational_rules_sound_over_all_rings(self):
        """The R_EQ identities hold in every ring; ``fuse`` means a real kernel,
        which has no value in the other three (unsupported, not unsound)."""
        _, matrix = rules_audit.run_rules_audit(trials=1, patterns=[])
        for name, verdict in matrix["rules"].items():
            assert verdict["unsound_in"] == [], name
            if name == "relational:fuse":
                assert verdict["sound_over"] == ["real"]
                assert verdict["unsupported_in"] == ["bool", "max-times", "min-plus"]
            else:
                assert len(verdict["sound_over"]) == 4, name

    def test_undeclared_rule_is_flagged(self):
        from repro.rules.systemml_catalog import CatalogPattern

        bare = CatalogPattern(method="Bare", lhs="t(t(X))", rhs="X", soundness="")
        findings, _ = rules_audit.run_rules_audit(trials=1, rules=[], patterns=[bare])
        assert "missing-soundness-declaration" in {f.code for f in findings}

    def test_unknown_need_token_is_flagged(self):
        from repro.rules.systemml_catalog import CatalogPattern

        typo = CatalogPattern(
            method="Typo",
            lhs="t(t(X))",
            rhs="X",
            soundness="any-semiring; needs: telepathy",
        )
        findings, _ = rules_audit.run_rules_audit(trials=1, rules=[], patterns=[typo])
        assert "unknown-soundness-token" in {f.code for f in findings}


# ---------------------------------------------------------------------------
# Plan/tape linter
# ---------------------------------------------------------------------------


class TestPlanLint:
    def _entry(self):
        from repro.analysis.selftest import _compiled_entry

        return _compiled_entry()

    def test_clean_entry_has_no_findings(self):
        entry, _ = self._entry()
        assert plan_lint.lint_entry(entry, "t") == []

    def test_cost_regression_detected(self):
        import dataclasses

        entry, _ = self._entry()
        corrupt = dataclasses.replace(
            entry,
            artifact=dataclasses.replace(
                entry.artifact,
                report=dataclasses.replace(
                    entry.artifact.report, original_cost=1.0, optimized_cost=5.0
                ),
            ),
        )
        codes = {f.code for f in plan_lint.lint_entry(corrupt, "t")}
        assert "cost-regression" in codes

    def test_guard_arity_detected(self):
        import dataclasses

        from repro.optimizer.guards import TemplateGuard

        entry, _ = self._entry()
        assert not entry.guard.exact
        short = TemplateGuard(dims=entry.guard.dims[:-1], exact=False)
        codes = {f.code for f in plan_lint.lint_entry(dataclasses.replace(entry, guard=short), "t")}
        assert codes == {"guard-arity"}

    def test_guard_foreign_dim_detected(self):
        """A scalable template's plan may only carry its signature's dim slots."""
        import dataclasses

        from repro.lang import Dim, Shape
        from repro.lang import expr as la
        from repro.lang.dims import UNIT
        from repro.optimizer.guards import TemplateGuard

        entry, _ = self._entry()
        extent = la.Sum(la.FilledMatrix(1.0, Shape(Dim("m.1", 8), UNIT)))
        foreign = dataclasses.replace(entry, slot_plan=la.ElemMul(extent, entry.slot_plan))
        assert {f.code for f in plan_lint.lint_entry(foreign, "t")} == {"guard-foreign-dim"}
        exact = dataclasses.replace(foreign, guard=TemplateGuard())
        assert plan_lint.lint_entry(exact, "t") == []

    def test_shadowed_and_unbound_sum_indices(self):
        i, j, k = Attr("i", 2), Attr("j", 3), Attr("k", 4)
        a = RVar("A", (i, j))
        shadowed = RSum(frozenset((i,)), RSum(frozenset((i, j)), a))
        assert "shadowed-sum-index" in {
            f.code for f in plan_lint.lint_rexpr(shadowed, "t")
        }
        unbound = RSum(frozenset((k,)), a)
        assert "unbound-sum-index" in {
            f.code for f in plan_lint.lint_rexpr(unbound, "t")
        }
        clean = RSum(frozenset((i,)), a)
        assert plan_lint.lint_rexpr(clean, "t") == []

    def test_sparsity_out_of_range(self):
        from repro.lang import Matrix, Dim

        x = Matrix("X", Dim("m", 3), Dim("n", 4), sparsity=0.5)
        assert plan_lint.lint_expr(x, "t") == []
        bad = RVar("X", (Attr("i", 3),), 1.5)
        assert "sparsity-out-of-range" in {
            f.code for f in plan_lint.lint_rexpr(bad, "t")
        }

    def test_doctored_tape_is_dead_stepped(self):
        from repro.runtime.tape import TapePlan, TapeStep

        entry, n_slots = self._entry()
        tape = TapePlan(entry.slot_plan, n_slots)
        assert plan_lint.lint_tape(tape, "t") == []
        tape._steps.append(
            TapeStep(lambda vals: vals[0], n_slots + len(tape), (), (), "Const")
        )
        assert "dead-tape-step" in {f.code for f in plan_lint.lint_tape(tape, "t")}

    def test_corrupt_store_file_reported(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        findings = plan_lint.lint_store_dir(str(tmp_path), where_prefix="p/")
        assert [f.code for f in findings] == ["unreadable-entry"]
        assert findings[0].where == "p/bad.json"

    def test_store_manifest_is_skipped(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{}")
        assert plan_lint.store_entry_files(str(tmp_path)) == []
        assert plan_lint.store_entry_files(str(tmp_path / "missing")) == []


# ---------------------------------------------------------------------------
# Concurrency linter
# ---------------------------------------------------------------------------


class TestConcurrencyLint:
    def test_racy_class_flagged(self):
        findings = concurrency_lint.lint_source(RACY_SOURCE, "m.py", hot_path=False)
        assert [f.code for f in findings] == ["unguarded-mutation"]
        assert "RacyCounter.reset::_count" in findings[0].where

    def test_locked_suffix_and_init_are_exempt(self):
        source = RACY_SOURCE.replace("def reset(self):", "def reset_locked(self):")
        assert concurrency_lint.lint_source(source, "m.py", hot_path=False) == []

    def test_unguarded_attr_never_seen_under_lock_is_not_flagged(self):
        # An attribute the class never mutates under the lock is not
        # inferred as guarded — no finding.
        source = RACY_SOURCE.replace("self._count += 1", "self._other = 1")
        findings = concurrency_lint.lint_source(source, "m.py", hot_path=False)
        assert findings == []

    def test_hot_path_nondeterminism(self):
        findings = concurrency_lint.lint_source(
            NONDETERMINISTIC_SOURCE, "m.py", hot_path=True
        )
        codes = {f.code for f in findings}
        assert codes == {"wall-clock-decision", "unseeded-random"}
        # the same module off the hot path only gets lock checks
        assert concurrency_lint.lint_source(
            NONDETERMINISTIC_SOURCE, "m.py", hot_path=False
        ) == []

    def test_seeded_rng_is_fine(self):
        source = "import numpy as np\ndef f():\n    return np.random.default_rng(7)\n"
        assert concurrency_lint.lint_source(source, "m.py", hot_path=True) == []

    def test_unparsable_module(self):
        findings = concurrency_lint.lint_source("def broken(:", "m.py", hot_path=False)
        assert [f.code for f in findings] == ["unparsable-module"]

    def test_session_counters_are_guarded_by_the_state_lock(self):
        """The Session counts under its lock: a lock-free counter write is flagged."""
        import inspect

        from repro.api import session

        counters = ("compilations", "hits", "misses", "recompiles", "template_hits")
        writes = "".join(f"        self.{name} += 1\n" for name in counters)
        source = inspect.getsource(session).replace(
            "class Session:\n", "class Session:\n    def racy(self):\n" + writes, 1
        )
        findings = concurrency_lint.lint_source(source, "session.py", hot_path=False)
        assert sorted(f.where.rsplit("::", 1)[1] for f in findings) == list(counters)

    def test_package_scan_is_clean_at_head(self):
        findings, counts = concurrency_lint.run_concurrency_lint()
        assert counts["modules"] > 50
        assert findings == [], [f.to_dict() for f in findings]


# ---------------------------------------------------------------------------
# Report / baseline mechanics
# ---------------------------------------------------------------------------


def _finding(code="c", where="w"):
    return Finding(pass_name="p", code=code, where=where, message="m")


class TestBaseline:
    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(str(tmp_path / "none.json"))
        assert baseline.entries == {}

    def test_entry_requires_justification(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"entries": [{"key": "p:c:w"}]}))
        with pytest.raises(BaselineError):
            Baseline.load(str(path))

    def test_covers_and_stale(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(
            json.dumps(
                {
                    "entries": [
                        {"key": "p:c:w", "justification": "benign because reasons"},
                        {"key": "p:gone:w", "justification": "stale"},
                    ]
                }
            )
        )
        baseline = Baseline.load(str(path))
        report = AnalysisReport(findings=[_finding()])
        assert baseline.covers(_finding())
        assert not report.failed(baseline)
        assert baseline.stale_keys(report.findings) == ["p:gone:w"]

    def test_new_finding_fails_check(self):
        report = AnalysisReport(findings=[_finding(code="fresh")])
        assert report.failed(Baseline())
        parts = report.partition(Baseline())
        assert len(parts["new"]) == 1 and parts["accepted"] == []


# ---------------------------------------------------------------------------
# Selftest + CLI
# ---------------------------------------------------------------------------


class TestSelftestAndCli:
    def test_every_fixture_fires(self):
        results = run_selftest()
        missed = [r.fixture for r in results if not r.fired]
        assert missed == [], format_results(results)

    def test_cli_selftest_exits_zero(self, capsys):
        assert analysis_main(["--selftest"]) == 0
        assert "12/12 fixtures flagged" in capsys.readouterr().out

    def test_cli_check_concurrency_pass(self, capsys, tmp_path):
        code = analysis_main(
            ["--passes", "concurrency", "--check", "--baseline", str(tmp_path / "b.json")]
        )
        assert code == 0
        assert "no new findings" in capsys.readouterr().out

    def test_cli_json_and_matrix(self, capsys, tmp_path):
        matrix_path = tmp_path / "matrix.json"
        code = analysis_main(
            [
                "--passes",
                "rules",
                "--json",
                "--write-matrix",
                str(matrix_path),
                "--baseline",
                str(tmp_path / "b.json"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        matrix = json.loads(matrix_path.read_text())
        assert matrix["classified"] == matrix["total"]

    def test_cli_rejects_unknown_pass(self):
        with pytest.raises(SystemExit):
            analysis_main(["--passes", "nonsense"])

    def test_cli_bench_record(self, tmp_path):
        bench = tmp_path / "BENCH_analysis.json"
        code = analysis_main(
            [
                "--passes",
                "rules",
                "--bench-out",
                str(bench),
                "--baseline",
                str(tmp_path / "b.json"),
            ]
        )
        assert code == 0
        payload = json.loads(bench.read_text())
        assert payload["headline"]["name"] == "rules_classified_fraction"
        assert payload["headline"]["value"] == 1.0


# ---------------------------------------------------------------------------
# bench-gate missing-baseline tolerance (the satellite fix)
# ---------------------------------------------------------------------------


def _load_check_regression():
    path = os.path.join(REPO_ROOT, "benchmarks", "check_regression.py")
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchGateMissingBaseline:
    def test_missing_baseline_dir_is_not_an_error(self, tmp_path, capsys):
        gate = _load_check_regression()
        current = tmp_path / "run"
        current.mkdir()
        (current / "BENCH_analysis.json").write_text(
            json.dumps({"headline": {"name": "x", "value": 1.0}})
        )
        code = gate.check(str(tmp_path / "no-such-dir"), str(current), 0.30)
        out = capsys.readouterr().out
        assert code == 0
        assert "new headline x=1" in out

    def test_malformed_new_record_fails(self, tmp_path, capsys):
        gate = _load_check_regression()
        current = tmp_path / "run"
        current.mkdir()
        (current / "BENCH_resilience.json").write_text(
            json.dumps({"headline": {"name": "x", "value": "fast"}})
        )
        code = gate.check(str(tmp_path / "missing"), str(current), 0.30)
        assert code == 1
        assert "malformed headline" in capsys.readouterr().out

    def test_missing_current_record_still_fails(self, tmp_path, capsys):
        gate = _load_check_regression()
        baseline = tmp_path / "base"
        current = tmp_path / "run"
        baseline.mkdir()
        current.mkdir()
        (baseline / "BENCH_analysis.json").write_text(
            json.dumps({"headline": {"name": "x", "value": 1.0}})
        )
        code = gate.check(str(baseline), str(current), 0.30)
        assert code == 1
        assert "missing from this run" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# PlanCache lock-convention regression (the defect the linter surfaced)
# ---------------------------------------------------------------------------


class TestPlanCacheLockConvention:
    def test_template_unregister_follows_locked_suffix(self):
        from repro.api.cache import PlanCache

        cache = PlanCache(capacity=1)
        assert hasattr(cache, "_unregister_template_locked")
        assert not hasattr(cache, "_unregister_template")
        # eviction still keeps the template index consistent
        cache.insert("a", object(), template_key="t")
        cache.insert("b", object(), template_key="t")
        assert cache.template_candidates("t") != []
        assert "a" not in cache
