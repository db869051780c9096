"""Tests for the versioned plan codec (repro.serialize.codec)."""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.canonical.fingerprint import fingerprint, signature_of, slot_expression
from repro.egraph import StopReason
from repro.lang import Dim, Matrix, Scalar, Shape, Sum, Vector
from repro.lang import expr as la
from repro.optimizer import OptimizerConfig
from repro.optimizer.pipeline import compile_expression
from repro.runtime import MatrixValue, execute
from repro.runtime.codegen import plan_regions
from repro.serialize import (
    FORMAT_VERSION,
    DeserializationError,
    decode_entry,
    decode_expression,
    decode_signature,
    dumps_entry,
    encode_entry,
    encode_expression,
    encode_signature,
    loads_entry,
)
from repro.api import Session
from repro.api.plan import PlanEntry
from repro.workloads import get_workload
from tests.helpers import benchmark_roots


PLAN_DIGESTS = Path(__file__).resolve().parent.parent / "data" / "plan_digests.json"


def plan_digests() -> dict:
    """Per benchmark root (greedy preset): both signature digests, the
    sha256 of the stored payload and the region plan's structure digest."""
    digests = {}
    for kind, expr, semiring in benchmark_roots():
        plan = Session(OptimizerConfig.sampling_greedy(semiring=semiring)).compile(expr)
        entry, signature = plan._entry, plan.signature
        regions = plan_regions(
            entry.slot_plan,
            len(signature.slots),
            {spec.index: spec.sparsity for spec in signature.slots},
        )
        digests[kind] = {
            "digest": signature.digest,
            "template_digest": signature.template_digest,
            "entry_sha256": hashlib.sha256(dumps_entry(entry)).hexdigest(),
            "structure_digest": regions.structure_digest(),
        }
    return digests


def roundtrip(expr: la.LAExpr) -> la.LAExpr:
    """Encode, force through strict JSON text, decode."""
    text = json.dumps(encode_expression(expr), allow_nan=False)
    return decode_expression(json.loads(text))


def loss_expr(rows=50, cols=20):
    m, n = Dim("m", rows), Dim("n", cols)
    X = Matrix("X", m, n, sparsity=0.05)
    u, v = Vector("u", m), Vector("v", n)
    return Sum((X - u @ v.T) ** 2)


class TestExpressionRoundTrip:
    def test_simple_loss(self):
        expr = loss_expr()
        back = roundtrip(expr)
        assert back == expr
        assert fingerprint(back) == fingerprint(expr)

    def test_every_node_type_roundtrips(self):
        m, n, k = Dim("m", 6), Dim("n", 4), Dim("k", 3)
        X = Matrix("X", m, n, sparsity=0.5)
        Y = Matrix("Y", m, n)
        U = Matrix("U", m, k)
        V = Matrix("V", n, k)
        W = Matrix("W", m, n, sparsity=0.5)
        v = Vector("v", n)
        w = Vector("w", m)
        s = Scalar("s")
        exprs = [
            X,  # Var
            la.Literal(2.5),
            la.FilledMatrix(1.0, Shape(m, n)),
            U @ V.T,  # MatMul
            X * Y,  # ElemMul
            X + Y,
            X - Y,
            X / (Y + 1.0),
            X.T,  # Transpose
            la.RowSums(X),
            la.ColSums(X),
            Sum(X),
            X ** 3.0,  # Power
            -X,  # Neg
            la.UnaryFunc("exp", X),
            la.CastScalar(Sum(X)),
            la.WSLoss(X, U, V, W),
            la.WCeMM(X, U, V.T),
            la.WDivMM(X, U, V.T, True),
            la.WDivMM(X, U, V.T, False),
            la.SProp(Y),
            la.MMChain(X, v, w),
            s * Sum(X),
        ]
        for expr in exprs:
            back = roundtrip(expr)
            assert back == expr, type(expr).__name__
            # payload-carrying nodes keep their payloads
            if isinstance(expr, la.WDivMM):
                assert back.multiply_left == expr.multiply_left
            if isinstance(expr, la.Power):
                assert back.exponent == expr.exponent
            if isinstance(expr, la.UnaryFunc):
                assert back.func == expr.func

    def test_symbolic_dims_and_shared_axes_survive(self):
        m, n = Dim("m"), Dim("n")  # no concrete sizes
        X = Matrix("X", m, n)
        u = Vector("u", m)
        back = roundtrip(Sum((X @ X.T) @ u))
        variables = {var.name: var for var in la_vars(back)}
        assert variables["X"].var_shape.rows.size is None
        # X's row axis and u's row axis must still be the *same* dim
        assert variables["X"].var_shape.rows.name == variables["u"].var_shape.rows.name

    def test_sparsity_hints_survive(self):
        expr = loss_expr()
        back = roundtrip(expr)
        variables = {var.name: var for var in la_vars(back)}
        assert variables["X"].sparsity == 0.05
        assert variables["u"].sparsity is None

    def test_sharing_stays_linear(self):
        """An ``e = e * e`` chain encodes in O(distinct nodes), not 2^k."""
        m = Dim("m", 8)
        e: la.LAExpr = Matrix("E", m, m)
        depth = 60  # tree size 2^60: only a DAG-aware codec terminates
        for _ in range(depth):
            e = e * e
        payload = encode_expression(e)
        assert len(payload["exprs"]["nodes"]) == depth + 1
        back = decode_expression(payload)
        # decoded object restores identity sharing: both children of every
        # ElemMul are literally the same object
        node = back
        while isinstance(node, la.ElemMul):
            assert node.left is node.right
            node = node.left

    def test_slot_space_plan_roundtrips(self):
        expr = loss_expr()
        slot_plan = slot_expression(expr)
        back = roundtrip(slot_plan)
        assert back == slot_plan
        names = sorted(var.name for var in la_vars(back))
        assert names == ["@0", "@1", "@2"]

    def test_roundtrip_executes_identically(self):
        expr = loss_expr()
        rng = np.random.default_rng(3)
        inputs = {
            "X": MatrixValue.random_sparse(50, 20, 0.05, rng),
            "u": MatrixValue.random_dense(50, 1, rng),
            "v": MatrixValue.random_dense(20, 1, rng),
        }
        original = execute(expr, inputs).scalar()
        assert execute(roundtrip(expr), inputs).scalar() == pytest.approx(original)


def la_vars(root):
    from repro.lang import dag

    return dag.variables(root)


class TestDecodeValidation:
    def test_rejects_wrong_version(self):
        payload = encode_expression(loss_expr())
        payload["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(DeserializationError, match="version"):
            decode_expression(payload)

    def test_rejects_wrong_format_tag(self):
        payload = encode_expression(loss_expr())
        payload["format"] = "something-else"
        with pytest.raises(DeserializationError):
            decode_expression(payload)

    def test_rejects_unknown_operator(self):
        payload = encode_expression(loss_expr())
        payload["exprs"]["nodes"][-1]["op"] = "Kronecker"
        with pytest.raises(DeserializationError, match="unknown operator"):
            decode_expression(payload)

    def test_rejects_forward_child_reference(self):
        payload = encode_expression(loss_expr())
        nodes = payload["exprs"]["nodes"]
        for entry in nodes:
            if entry.get("children"):
                entry["children"][0] = len(nodes)  # out of range
                break
        with pytest.raises(DeserializationError, match="child reference"):
            decode_expression(payload)

    def test_rejects_bad_arity(self):
        payload = encode_expression(Sum(Matrix("X", Dim("m", 3), Dim("n", 3))))
        for entry in payload["exprs"]["nodes"]:
            if entry["op"] == "Sum":
                entry["children"] = entry["children"] * 2
        with pytest.raises(DeserializationError):
            decode_expression(payload)

    def test_rejects_malformed_dim(self):
        payload = encode_expression(loss_expr())
        payload["exprs"]["dims"][0] = ["only-a-name"]
        with pytest.raises(DeserializationError, match="dim"):
            decode_expression(payload)

    def test_rejects_non_object_payload(self):
        with pytest.raises(DeserializationError):
            decode_expression([1, 2, 3])


class TestSignatureCodec:
    def test_roundtrip(self):
        signature = signature_of(loss_expr())
        back = decode_signature(json.loads(json.dumps(encode_signature(signature))))
        assert back == signature
        assert back.var_order == signature.var_order
        assert back.slot_of == signature.slot_of

    def test_rejects_malformed(self):
        with pytest.raises(DeserializationError):
            decode_signature({"slots": []})
        with pytest.raises(DeserializationError):
            decode_signature({"digest": "abc", "slots": [{"name": "X"}]})


class TestEntryCodec:
    @pytest.fixture(scope="class")
    def entry(self):
        expr = loss_expr()
        config = OptimizerConfig.sampling_greedy()
        artifact = compile_expression(expr, config)
        signature = signature_of(expr)
        return PlanEntry(
            artifact=artifact,
            slot_plan=slot_expression(artifact.fused, signature),
            signature=signature,
        )

    def test_roundtrip_is_strict_json(self, entry):
        text = json.dumps(encode_entry(entry), allow_nan=False, sort_keys=True)
        back = decode_entry(json.loads(text))
        assert back.signature == entry.signature
        assert back.slot_plan == entry.slot_plan
        assert back.artifact.original == entry.artifact.original
        assert back.artifact.optimized == entry.artifact.optimized
        assert back.artifact.fused == entry.artifact.fused
        assert back.artifact.extractor == entry.artifact.extractor
        assert back.artifact.fusion_aware == entry.artifact.fusion_aware

    def test_report_lineage_survives(self, entry):
        back = decode_entry(encode_entry(entry))
        report, original = back.artifact.report, entry.artifact.report
        assert report.original_cost == original.original_cost
        assert report.optimized_cost == original.optimized_cost
        assert report.regions == original.regions
        assert report.fallback_regions == original.fallback_regions
        assert len(report.saturation_reports) == len(original.saturation_reports)
        for run, run_original in zip(
            report.saturation_reports, original.saturation_reports
        ):
            assert run.stop_reason == run_original.stop_reason
            assert run.num_iterations == run_original.num_iterations
            assert run.final_enodes == run_original.final_enodes
            assert run.final_classes == run_original.final_classes
            assert run.stale_iterations == run_original.stale_iterations
            assert [it.best_cost for it in run.iterations] == [
                it.best_cost for it in run_original.iterations
            ]
            assert run.describe() == run_original.describe()

    def test_plateau_stop_round_trips(self):
        """v4: a v3 reader has no ``"plateau"`` to decode the stop into."""
        expr = get_workload("GLM", "S").roots["deviance"]
        entry = Session(OptimizerConfig.sampling_greedy()).compile(expr)._entry
        (run,) = entry.artifact.report.saturation_reports
        assert run.stop_reason is StopReason.PLATEAU
        (encoded,) = encode_entry(entry)["artifact"]["report"]["saturation_reports"]
        assert encoded["stop_reason"] == "plateau" and encoded["stale_iterations"] == 3
        assert [it["best_cost"] for it in encoded["iterations"]] == [run.best_cost] * 3
        (back,) = loads_entry(dumps_entry(entry)).artifact.report.saturation_reports
        assert back.stop_reason is StopReason.PLATEAU and back.describe() == run.describe()

    def test_artifact_bytes_are_a_pure_function_of_expr_and_config(self):
        """Two independent compiles of the 18 benchmark roots encode
        byte-equal — no wall-clock reading is part of the payload — and
        equal to the committed pins: every digest a cache or a store keys
        on, the payload bytes, and the fused tier's region structure."""
        first, second = plan_digests(), plan_digests()
        assert len(first) == 18
        assert first == second
        pinned = json.loads(PLAN_DIGESTS.read_text())
        assert first.keys() == pinned.keys()
        for kind, expected in pinned.items():
            assert first[kind] == expected, (
                f"{kind}: a stored plan of the parent commit no longer matches what this "
                "commit compiles — bump FORMAT_VERSION / CODEGEN_VERSION and regenerate "
                "(python -m tests.unit.test_serialize --regenerate), or fix the change"
            )

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_constant_plans_explain_and_round_trip(self, text):
        """The codec tags non-finite floats by design; the plan they round-trip
        in must also be explainable and loggable (the printer used to raise)."""
        X = Matrix("X", Dim("m", 6), Dim("n", 4))
        plan = Session(OptimizerConfig.sampling_greedy()).compile(X * la.Literal(float(text)))
        entry = plan._entry
        assert f"declared    : X * {text}" in plan.explain()
        assert plan.to_dict()["optimized"] == entry.artifact.to_dict()["optimized"] == f"{text} * X"
        back = loads_entry(dumps_entry(entry))
        # NaN is not equal to itself: compare through the printer and the bytes
        assert str(back.slot_plan) == f"{text} * @0"
        assert dumps_entry(back) == dumps_entry(entry)

    def test_decoded_artifact_audit_record_matches(self, entry):
        """Everything but the (unpersisted) timings survives the round trip,
        and a loaded plan says so instead of reporting 0.0 ms."""
        back, fresh = decode_entry(encode_entry(entry)).artifact.to_dict(), entry.artifact.to_dict()
        assert back.pop("phase_times") is None and fresh.pop("phase_times")["total"] > 0.0
        assert all(run.pop("total_time") is None for run in back["saturation"])
        assert all(run.pop("total_time") > 0.0 for run in fresh["saturation"])
        assert back == fresh

    def test_fused_plan_is_prefilled_not_refused(self, entry):
        back = decode_entry(encode_entry(entry))
        # the decoded artifact must not re-run fusion lazily: the stored
        # fused plan is authoritative
        assert back.artifact._fused is not None
        assert back.artifact.fused == entry.artifact.fused

    def test_rejects_missing_artifact(self, entry):
        payload = encode_entry(entry)
        del payload["artifact"]
        with pytest.raises(DeserializationError, match="artifact"):
            decode_entry(payload)

    def test_rejects_version_skew(self, entry):
        payload = encode_entry(entry)
        payload["format_version"] = FORMAT_VERSION + 7
        with pytest.raises(DeserializationError, match="version"):
            decode_entry(payload)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.unit.test_serialize --regenerate")
    PLAN_DIGESTS.write_text(json.dumps(plan_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PLAN_DIGESTS}")
