"""Tests for the Session / CompiledPlan execute-many surface."""

import json

import numpy as np
import pytest

from repro.api import PlanBindingError, Session
from repro.api import plan as plan_module
from repro.lang import Dim, Matrix, Scalar, Sum, Vector
from repro.optimizer import OptimizerConfig, compile_expression
from repro.optimizer.pipeline import OptimizationReport
from repro.runtime import MatrixValue, execute, fuse_operators


def make_loss(rows=200, cols=100, sparsity=0.01):
    m, n = Dim("m", rows), Dim("n", cols)
    X = Matrix("X", m, n, sparsity=sparsity)
    u = Vector("u", m)
    v = Vector("v", n)
    return Sum((X - u @ v.T) ** 2)


def make_inputs(rows=200, cols=100, sparsity=0.01, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "X": MatrixValue.random_sparse(rows, cols, sparsity, rng),
        "u": MatrixValue.random_dense(rows, 1, rng),
        "v": MatrixValue.random_dense(cols, 1, rng),
    }


def greedy_session(**kwargs) -> Session:
    return Session(OptimizerConfig.sampling_greedy(), **kwargs)


class TestCompileAndRun:
    def test_plan_matches_legacy_optimize_execute(self):
        loss = make_loss()
        inputs = make_inputs()
        config = OptimizerConfig.sampling_greedy()

        legacy_plan = fuse_operators(
            compile_expression(loss, config).report.optimized
        )
        legacy = execute(legacy_plan, inputs).scalar()

        plan = Session(config).compile(loss)
        assert plan.run(inputs).scalar() == pytest.approx(legacy, rel=1e-9)

    def test_renamed_plan_binds_its_own_names(self):
        session = greedy_session()
        session.compile(make_loss())
        m, n = Dim("rows", 200), Dim("cols", 100)
        A = Matrix("A", m, n, sparsity=0.01)
        b, c = Vector("b", m), Vector("c", n)
        twin = session.compile(Sum((A - b @ c.T) ** 2))
        assert twin.cache_hit

        inputs = make_inputs()
        renamed = twin.run(A=inputs["X"], b=inputs["u"], c=inputs["v"])
        direct = session.compile(make_loss()).run(inputs)
        assert renamed.scalar() == pytest.approx(direct.scalar(), rel=1e-12)

    def test_session_run_shortcut(self):
        session = greedy_session()
        inputs = make_inputs()
        value = session.run(make_loss(), inputs).scalar()
        assert value == pytest.approx(session.run(make_loss(), inputs).scalar())
        assert session.compilations == 1

    def test_run_batch_and_stats(self):
        session = greedy_session()
        plan = session.compile(make_loss())
        results = plan.run_batch(make_inputs(seed=seed) for seed in range(3))
        assert len(results) == 3
        assert plan.stats.executions == 3
        assert plan.stats.total_elapsed > 0.0
        # different input draws give different losses
        values = {round(result.scalar(), 6) for result in results}
        assert len(values) == 3

    def test_scalar_inputs_accepted(self):
        alpha = Scalar("alpha")
        x = Vector("x", Dim("n", 8))
        session = greedy_session()
        plan = session.compile(Sum(alpha * x))
        result = plan.run(alpha=2.0, x=np.ones(8))
        assert result.scalar() == pytest.approx(16.0)


    @pytest.mark.parametrize("addend", ["c", "u", 3])
    def test_symbolic_dims_never_compile_to_a_plan_that_cannot_run(self, addend):
        """``sum(X + c)`` lifts to ``sum(X) + c * |m| * |n|`` with the extents
        as sums of ones-matrices — not materialisable while ``m``, ``n`` are
        symbolic, so the region keeps its original."""
        m, n = Dim("m"), Dim("n")
        operands = {"c": Scalar("c"), "u": Vector("u", m)}
        declared = Sum(Matrix("X", m, n) + operands.get(addend, addend))
        rng = np.random.default_rng(3)
        values = {"X": rng.random((7, 5)), "c": 2.5, "u": rng.random((7, 1))}
        inputs = {name: values[name] for name in ("X", addend) if name in values}
        plan = greedy_session().compile(declared)
        assert plan.report.fallback_regions == 1
        expected = execute(declared, inputs).scalar()
        assert plan.run(inputs).scalar() == pytest.approx(expected, rel=1e-12)


class TestBindingValidation:
    def test_missing_input_rejected(self):
        plan = greedy_session().compile(make_loss())
        inputs = make_inputs()
        del inputs["u"]
        with pytest.raises(PlanBindingError, match="missing inputs: u"):
            plan.run(inputs)

    def test_unknown_input_rejected(self):
        plan = greedy_session().compile(make_loss())
        inputs = make_inputs()
        inputs["typo"] = inputs["X"]
        with pytest.raises(PlanBindingError, match="unknown inputs: typo"):
            plan.run(inputs)

    def test_shape_mismatch_rejected(self):
        plan = greedy_session().compile(make_loss(rows=200, cols=100))
        inputs = make_inputs(rows=100, cols=100)
        with pytest.raises(PlanBindingError, match="expected 200 rows"):
            plan.run(inputs)

    def test_symbolic_dims_validated_for_consistency(self):
        """Inputs sharing an unsized dim must agree on its runtime size."""
        m, n = Dim("m"), Dim("n")  # no concrete sizes
        X = Matrix("X", m, n, sparsity=0.01)
        u, v = Vector("u", m), Vector("v", n)
        plan = greedy_session().compile(Sum((X - u @ v.T) ** 2))
        rng = np.random.default_rng(0)
        good = {
            "X": MatrixValue.random_sparse(50, 30, 0.01, rng),
            "u": MatrixValue.random_dense(50, 1, rng),
            "v": MatrixValue.random_dense(30, 1, rng),
        }
        plan.run(good)  # consistent bindings pass
        with pytest.raises(PlanBindingError, match="dimension 'm' was bound to 50"):
            plan.run(dict(good, u=MatrixValue.random_dense(1, 1, rng)))

    def test_input_named_inputs_binds_by_keyword(self):
        """The mapping parameter is positional-only, so the name is free."""
        x = Matrix("inputs", Dim("r", 4), Dim("c", 4))
        plan = greedy_session().compile(Sum(x * x))
        result = plan.run(inputs=np.eye(4))
        assert result.scalar() == pytest.approx(4.0)

    def test_kwargs_override_mapping(self):
        plan = greedy_session().compile(make_loss())
        inputs = make_inputs()
        other_u = MatrixValue.random_dense(200, 1, np.random.default_rng(9))
        a = plan.run(inputs, u=other_u).scalar()
        b = plan.run(dict(inputs, u=other_u)).scalar()
        assert a == pytest.approx(b, rel=1e-12)


class TestDriftRecompilation:
    def test_dense_drift_triggers_recompile(self):
        """Running a sparse-compiled plan on dense data re-optimizes it."""
        session = greedy_session()
        plan = session.compile(make_loss(sparsity=0.001))
        fp_before = plan.fingerprint
        rng = np.random.default_rng(0)
        dense = {
            "X": MatrixValue.random_dense(200, 100, rng),
            "u": MatrixValue.random_dense(200, 1, rng),
            "v": MatrixValue.random_dense(100, 1, rng),
        }
        first = plan.run(dense)
        assert plan.stats.drift_events == 1
        assert plan.stats.recompiles == 1
        assert plan.fingerprint != fp_before
        assert plan.slots[0].sparsity == pytest.approx(1.0)
        assert session.stats.recompiles == 1

        # The recompiled plan is stable: no further drift on the same data,
        # and it still computes the same value.
        second = plan.run(dense)
        assert plan.stats.drift_events == 1
        assert plan.stats.recompiles == 1
        assert second.scalar() == pytest.approx(first.scalar(), rel=1e-9)

    def test_recompile_rebuilds_the_executable(self):
        """A drift moves the plan to the re-optimized entry; the next use runs
        that entry's executable instead of the stale one."""
        from repro.runtime import execute_slots

        session = greedy_session()  # plans hold their session strongly
        plan = session.compile(make_loss(sparsity=0.001))
        stale = plan.executable()
        assert plan.executable() is stale  # owned, not rebuilt per call
        rng = np.random.default_rng(0)
        dense = {
            "X": MatrixValue.random_dense(200, 100, rng),
            "u": MatrixValue.random_dense(200, 1, rng),
            "v": MatrixValue.random_dense(100, 1, rng),
        }
        plan.run(dense)
        assert plan.stats.recompiles == 1
        rebuilt = plan.executable()
        assert rebuilt is not stale
        # the last step materializes the root of the *new* entry's slot plan
        assert rebuilt.step_node(len(rebuilt) - 1) is plan._entry.slot_plan
        assert stale.step_node(len(stale) - 1) is not plan._entry.slot_plan
        expected = execute_slots(plan._entry.slot_plan, plan.bind(dense)).value
        assert np.array_equal(plan.run(dense).value.to_dense(), expected.to_dense())

    def test_matching_data_does_not_drift(self):
        plan = greedy_session().compile(make_loss())
        plan.run(make_inputs())
        assert plan.stats.drift_events == 0

    def test_single_moderate_outlier_does_not_trigger(self):
        """EWMA smoothing: one 12x-off request must not recompile the plan."""
        session = greedy_session()
        plan = session.compile(make_loss(sparsity=0.01))
        rng = np.random.default_rng(0)
        normal = make_inputs(sparsity=0.01)
        outlier = dict(normal, X=MatrixValue.random_sparse(200, 100, 0.12, rng))
        plan.run(normal)
        plan.run(outlier)  # 12x the hint: last-observation triggering would fire
        assert plan.stats.drift_events == 0
        # the smoothed estimate moved toward — but not onto — the outlier
        smoothed = plan.stats.smoothed_sparsity[0]
        assert 0.01 < smoothed < 0.12

    def test_sustained_drift_converges_and_triggers(self):
        """The same 12x regime, sustained, must trip the drift factor."""
        session = greedy_session()
        plan = session.compile(make_loss(sparsity=0.01))
        rng = np.random.default_rng(0)
        drifted = dict(
            make_inputs(sparsity=0.01),
            X=MatrixValue.random_sparse(200, 100, 0.12, rng),
        )
        for _ in range(6):
            plan.run(drifted)
        assert plan.stats.drift_events >= 1

    def test_drift_alpha_one_restores_last_observation_triggering(self, monkeypatch):
        monkeypatch.setattr(plan_module, "DEFAULT_DRIFT_ALPHA", 1.0)
        session = greedy_session()
        plan = session.compile(make_loss(sparsity=0.01))
        rng = np.random.default_rng(0)
        outlier = dict(
            make_inputs(sparsity=0.01),
            X=MatrixValue.random_sparse(200, 100, 0.12, rng),
        )
        plan.run(outlier)
        assert plan.stats.drift_events == 1

    def test_smoothed_sparsity_exposed_in_record_and_explain(self):
        plan = greedy_session().compile(make_loss())
        plan.run(make_inputs())
        stats = plan.to_dict()["stats"]
        assert stats["smoothed_sparsity"], "smoothed sparsity must be recorded"
        assert "smoothed" in plan.explain()
        # the context in force, under the request's names: the compiled one
        hints = {"X": 0.01, "u": None, "v": None}
        assert plan.to_dict()["context"] == {
            "hints": hints,
            "pinned": [],
            "table": [{"hints": hints, "pinned": [], "breakeven": 0.0}],
        }
        assert "context     : hints X=0.01, u=-, v=-; pinned none" in plan.explain()
        # a drift moves the hints in force (N* 0); a pinned context that
        # cannot be built is kept as never paying
        m, n = Dim("m", 40), Dim("n", 20)
        X, v = Matrix("X", m, n, sparsity=0.01), Vector("v", n)
        session = greedy_session()
        plan = session.compile(X.T @ (X @ v))
        variant = session._variant

        def no_pinned_variant(plan, context):
            if context.pinned:
                raise RuntimeError("no pinned variant")
            return variant(plan, context)

        session._variant = no_pinned_variant
        rng = np.random.default_rng(0)
        x = MatrixValue.random_dense(40, 20, rng)
        for _ in range(3):
            plan.run(X=x, v=MatrixValue.random_dense(20, 1, rng))
        assert plan.stats.recompiles == 1 and plan.stats.pin_adoptions == 0
        context = plan.to_dict()["context"]
        assert (context["hints"], context["pinned"]) == ({"X": 1.0, "v": None}, [])
        rows = [(row["hints"]["X"], row["pinned"], row["breakeven"]) for row in context["table"]]
        assert rows == [(0.01, [], 0.0), (1.0, [], 0.0), (1.0, ["X"], None)]
        explained = plan.explain()
        assert "context     : hints X=1.0, v=-; pinned none" in explained
        assert "learned   : N* 0 -> hints X=0.01, v=-; pinned none" in explained
        assert "learned   : N* never -> hints X=1.0, v=-; pinned X" in explained

    def test_symbolic_dims_use_sparsity_hint_for_drift(self):
        """Unsized dims must not fall back to a dense-input assumption."""
        m, n = Dim("m"), Dim("n")  # no concrete sizes
        X = Matrix("X", m, n, sparsity=0.01)
        u, v = Vector("u", m), Vector("v", n)
        plan = greedy_session().compile(Sum((X - u @ v.T) ** 2))
        rng = np.random.default_rng(0)
        plan.run(
            X=MatrixValue.random_sparse(500, 300, 0.01, rng),
            u=MatrixValue.random_dense(500, 1, rng),
            v=MatrixValue.random_dense(300, 1, rng),
        )
        assert plan.stats.drift_events == 0


class TestArtifactsAndReports:
    def test_plan_record_is_json_serializable(self):
        plan = greedy_session().compile(make_loss())
        plan.run(make_inputs())
        record = json.loads(json.dumps(plan.to_dict()))
        assert record["fingerprint"] == plan.fingerprint
        assert record["stats"]["executions"] == 1
        assert [slot["name"] for slot in record["slots"]] == ["X", "u", "v"]
        assert record["saturation"], "lineage must include saturation reports"
        for run in record["saturation"]:
            assert run["best_cost"] > 0 and run["stale_iterations"] >= 0
            assert f"{run['stop_reason']} after {run['iterations']} iterations" in plan.explain()

    def test_artifact_lineage_fields(self):
        artifact = compile_expression(make_loss(), OptimizerConfig.sampling_greedy())
        assert artifact.original is not None
        assert artifact.report.phase_times.total > 0.0
        record = artifact.to_dict()
        assert set(record) >= {"original", "optimized", "fused", "phase_times"}

    def test_explain_mentions_fingerprint_and_slots(self):
        plan = greedy_session().compile(make_loss())
        text = plan.explain()
        assert plan.fingerprint in text
        assert "'X'" in text

    def test_cache_hit_twin_speaks_its_own_names(self):
        """Twins must not leak the first compiler's variable names."""
        session = greedy_session()
        session.compile(make_loss())
        m, n = Dim("rows", 200), Dim("cols", 100)
        A = Matrix("A", m, n, sparsity=0.01)
        b, c = Vector("b", m), Vector("c", n)
        twin = session.compile(Sum((A - b @ c.T) ** 2))
        assert twin.cache_hit

        text = twin.explain()
        assert "'A'" in text and "'X'" not in text
        assert "X" not in twin.to_dict()["optimized"]
        assert [spec.name for spec in twin.slots] == ["A", "b", "c"]
        with pytest.raises(PlanBindingError, match="input 'A'"):
            twin.run(
                A=MatrixValue.random_dense(7, 7),
                b=MatrixValue.random_dense(200, 1),
                c=MatrixValue.random_dense(100, 1),
            )

    def test_permuted_name_twin_renders_swapped_roles_correctly(self):
        """Regression: a twin that *permutes* the compiler's names needs
        simultaneous substitution.

        The entry was compiled with ``u`` and ``v`` in certain roles; the
        twin uses the *same* names in swapped roles (``v`` where the entry
        had ``u`` and vice versa), so ``_in_request_names`` must apply
        ``u -> v`` and ``v -> u`` as one simultaneous substitution — a
        sequential pass would collapse both onto one name.
        """
        session = greedy_session()
        m, n = Dim("m", 150), Dim("n", 150)  # square so the roles can swap
        X = Matrix("X", m, n, sparsity=0.01)
        u, v = Vector("u", m), Vector("v", n)
        compiled = session.compile(Sum((X - u @ v.T) ** 2))
        assert compiled.signature.var_order == ("X", "u", "v")

        # Same shape of computation, but v plays the entry's u role and
        # u plays the entry's v role.
        p, q = Dim("p", 150), Dim("q", 150)
        A = Matrix("A", p, q, sparsity=0.01)
        u2, v2 = Vector("v", p), Vector("u", q)
        twin = session.compile(Sum((A - u2 @ v2.T) ** 2))
        assert twin.cache_hit
        assert twin.signature.var_order == ("A", "v", "u")

        for rendered in (twin.to_dict()["optimized"], twin.to_dict()["fused"]):
            assert "X" not in rendered
            # both names must survive the swap — a sequential substitution
            # would erase one of them
            assert "u" in rendered and "v" in rendered
        rng = np.random.default_rng(5)
        inputs = {
            "A": MatrixValue.random_sparse(150, 150, 0.01, rng),
            "v": MatrixValue.random_dense(150, 1, rng),
            "u": MatrixValue.random_dense(150, 1, rng),
        }
        # the swapped-role binding must execute: slot 1 takes 'v', slot 2 'u'
        result = twin.run(inputs)
        expected = greedy_session().compile(
            Sum((A - u2 @ v2.T) ** 2)
        ).run(inputs)
        assert result.scalar() == pytest.approx(expected.scalar(), rel=1e-9)

    def test_plan_record_includes_full_run_statistics(self):
        """to_dict must carry mean_elapsed, intermediate cells and observed
        sparsity (snapshotted consistently, not read field by field)."""
        plan = greedy_session().compile(make_loss())
        inputs = make_inputs()
        plan.run(inputs)
        plan.run(inputs)
        stats = plan.to_dict()["stats"]
        assert stats["executions"] == 2
        assert stats["mean_elapsed"] == pytest.approx(stats["total_elapsed"] / 2)
        assert "total_intermediate_cells" not in stats
        observed = stats["observed_sparsity"]
        assert observed, "observed sparsity per slot must be recorded"
        assert all(isinstance(key, str) for key in observed)
        assert observed["0"] == pytest.approx(inputs["X"].sparsity, rel=0.5)
        json.dumps(stats, allow_nan=False)
        # explain() reports the same run counters
        assert "runs        : 2" in plan.explain()

    def test_failed_compilation_releases_inflight_lock(self):
        session = greedy_session()
        from repro.api import session as session_mod

        original = session_mod.compile_expression
        session_mod.compile_expression = lambda expr, config, **kw: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        try:
            with pytest.raises(RuntimeError, match="boom"):
                session.compile(make_loss())
        finally:
            session_mod.compile_expression = original
        assert session._inflight == {}
        # the session recovers: the same shape compiles fine afterwards
        assert not session.compile(make_loss()).cache_hit

    def test_speedup_estimate_reports_infinite_improvement(self):
        report = OptimizationReport(
            original=make_loss(), optimized=make_loss(),
            original_cost=100.0, optimized_cost=0.0,
        )
        assert report.speedup_estimate == float("inf")

    def test_infinite_speedup_serializes_to_strict_json(self):
        from repro.optimizer import PlanArtifact

        artifact = PlanArtifact(
            original=make_loss(), optimized=make_loss(),
            report=OptimizationReport(
                original=make_loss(), optimized=make_loss(),
                original_cost=100.0, optimized_cost=0.0,
            ),
        )
        serialized = json.dumps(artifact.to_dict())
        assert "Infinity" not in serialized
        assert json.loads(serialized)["speedup_estimate"] is None

    def test_speedup_estimate_trivial_cases(self):
        zero = OptimizationReport(
            original=make_loss(), optimized=make_loss(),
            original_cost=0.0, optimized_cost=0.0,
        )
        assert zero.speedup_estimate == 1.0
        normal = OptimizationReport(
            original=make_loss(), optimized=make_loss(),
            original_cost=100.0, optimized_cost=25.0,
        )
        assert normal.speedup_estimate == pytest.approx(4.0)
