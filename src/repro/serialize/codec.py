"""Versioned strict-JSON codec for compiled plans.

``PlanArtifact.to_dict`` renders expressions through the printer — an audit
record, not something a process can load and execute.  This module is the
loadable counterpart: a complete, versioned encoding of

* :class:`~repro.lang.expr.LAExpr` DAGs — every node type of the IR
  (including the fused ``WSLoss``/``WCeMM``/``WDivMM``/``MMChain``
  operators), encoded as a **node table**: nodes appear once, in
  post-order, and refer to their children by table index.  Sharing is
  preserved by object identity, so an iteratively built ``e = e * e``
  chain encodes (and decodes) in O(distinct nodes), never exploding into
  its tree form;
* :class:`~repro.lang.dims.Dim` / :class:`~repro.lang.dims.Shape` — a dim
  table keyed by ``(name, size)``; symbolic dims (no concrete size)
  round-trip with their identity-carrying names intact, so inputs that
  share an axis still share it after a reload;
* :class:`~repro.canonical.fingerprint.ExprSignature` slot layouts,
  :class:`~repro.optimizer.pipeline.OptimizationReport` lineage (costs,
  per-iteration saturation counts), and the full cached unit of the
  Session API, :class:`~repro.api.plan.PlanEntry`.

A payload is a pure function of ``(expr, config)``: wall-clock readings
(phase times, saturation run durations) stay on the in-memory report
and in the ``compile_seconds`` / ``saturation_seconds`` histograms and are
never written, so two compiles of one expression encode byte-identically.

Every payload carries :data:`FORMAT_VERSION`; :func:`decode_entry` refuses
any other version (the store additionally salts its keys with the version,
so in practice a stale format never even reaches the decoder).  The output
is strict JSON: non-finite floats are tagged strings, never the bare
``Infinity``/``NaN`` tokens ``json.dumps`` would emit by default.

Decoding is deliberately paranoid — unknown operators, bad arities,
forward child references, malformed dims all raise
:class:`DeserializationError` — because the disk tier treats *any* decode
failure as a cache miss and falls back to compiling.
"""

from __future__ import annotations

import gzip
import json
import math
from typing import Any, Dict, List
from zlib import error as zlib_error

from repro.egraph.runner import IterationStats, RunReport, StopReason
from repro.lang import expr as la
from repro.lang.dims import Dim, DimensionError, Shape
from repro.canonical.fingerprint import ExprSignature, SlotSpec
from repro.optimizer.guards import GuardError, TemplateGuard
from repro.optimizer.pipeline import OptimizationReport, PlanArtifact

#: Version of the plan serialization format.  Bump on any change to the
#: node-table layout, the payload fields, or the semantics of a stored
#: plan; the plan store salts its keys with this number, so a bump
#: invalidates every persisted entry without touching the files.
#:
#: v2 (plan templates): signatures carry the size-free ``template_digest``
#: plus the canonical dim-slot names/sizes, entries carry their
#: :class:`~repro.optimizer.guards.TemplateGuard`, and payload *bytes* may
#: be gzip-wrapped (see :func:`dumps_entry`).
#:
#: v3 (pure artifacts): no wall-clock in the payload — ``phase_times``, run
#: ``total_time`` and iteration ``elapsed`` are gone, so an entry's bytes
#: are a function of ``(expr, config)`` alone.
#:
#: v4 (anytime saturation): runs may stop with ``"plateau"``, which a v3
#: reader cannot decode, and carry ``stale_iterations`` plus each iteration's
#: ``best_cost`` (``null`` when the probe was off).
#:
#: v5 (point guards): a guard is ``{"exact", "dims": [[name, pivot], ...]}``
#: — no per-dim ``[lo, hi]`` box, no sparsity bands.
#:
#: v6 (size-free plans): no dim is pinned below size 4 any more, and a v5
#: plan may hold an extent baked in as a literal that only that pinning
#: kept from being served at other sizes.
FORMAT_VERSION = 6

#: ``format`` tag carried by serialized plan payloads.
PLAN_FORMAT = "spores-plan"

#: leading bytes of a gzip stream — the "header flag" that marks a
#: compressed payload; anything else is parsed as plain JSON text
GZIP_MAGIC = b"\x1f\x8b"


class SerializationError(ValueError):
    """Raised when an in-memory plan cannot be encoded."""


class DeserializationError(ValueError):
    """Raised when a stored payload cannot be decoded into a plan."""


# ---------------------------------------------------------------------------
# Floats (strict-JSON safe)
# ---------------------------------------------------------------------------


def _encode_float(value: float) -> Any:
    """A float as strict JSON: finite values as-is, the rest tagged strings."""
    value = float(value)
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _decode_float(payload: Any) -> float:
    if isinstance(payload, str):
        if payload not in ("nan", "inf", "-inf"):
            raise DeserializationError(f"malformed float payload {payload!r}")
        return float(payload)
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return float(payload)
    raise DeserializationError(f"malformed float payload {payload!r}")


def _decode_int(payload: Any, what: str) -> int:
    if not isinstance(payload, int) or isinstance(payload, bool):
        raise DeserializationError(f"{what} must be an integer, got {payload!r}")
    return payload


# ---------------------------------------------------------------------------
# Expression DAGs: the node table
# ---------------------------------------------------------------------------


class ExprTableEncoder:
    """Accumulates expression DAGs into one shared node + dim table.

    ``add`` returns the root's table index; multiple roots (a plan entry
    stores the original, optimized, fused and slot-space expressions) share
    one table, so subtrees common across them are stored once.  The walk is
    iterative and memoized by object identity — the IR's recursive
    ``__hash__`` is never invoked, which keeps deeply shared DAGs linear.
    """

    def __init__(self) -> None:
        self._dims: List[list] = []
        self._dim_index: Dict[tuple, int] = {}
        self._nodes: List[dict] = []
        self._node_index: Dict[int, int] = {}
        #: roots and interior nodes are kept alive so ``id()`` keys stay valid
        self._alive: List[la.LAExpr] = []

    def add(self, root: la.LAExpr) -> int:
        if not isinstance(root, la.LAExpr):
            raise SerializationError(f"not an LA expression: {root!r}")
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in self._node_index:
                continue
            if expanded:
                self._alive.append(node)
                self._node_index[id(node)] = len(self._nodes)
                self._nodes.append(self._encode_node(node))
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    if id(child) not in self._node_index:
                        stack.append((child, False))
        return self._node_index[id(root)]

    def to_json(self) -> Dict[str, list]:
        return {"dims": self._dims, "nodes": self._nodes}

    # -- internals -------------------------------------------------------------
    def _dim_ref(self, dim: Dim) -> int:
        key = (dim.name, dim.size)
        index = self._dim_index.get(key)
        if index is None:
            index = len(self._dims)
            self._dim_index[key] = index
            self._dims.append(dim.to_json())
        return index

    def _encode_node(self, node: la.LAExpr) -> dict:
        op = type(node).__name__
        if la.NODE_TYPES.get(op) is not type(node):
            raise SerializationError(f"unregistered node type {op!r}")
        if isinstance(node, la.Var):
            return {
                "op": op,
                "name": node.name,
                "rows": self._dim_ref(node.var_shape.rows),
                "cols": self._dim_ref(node.var_shape.cols),
                "sparsity": node.sparsity,
            }
        if isinstance(node, la.Literal):
            return {"op": op, "value": _encode_float(node.value)}
        if isinstance(node, la.FilledMatrix):
            return {
                "op": op,
                "value": _encode_float(node.value),
                "rows": self._dim_ref(node.fill_shape.rows),
                "cols": self._dim_ref(node.fill_shape.cols),
            }
        # an operator: child references plus its static payload by field name
        entry: dict = {
            "op": op,
            "children": [self._node_index[id(child)] for child in node.children],
        }
        for (name, kind), value in zip(node.static_fields, node.static):
            entry[name] = _encode_float(value) if kind is float else value
        return entry


class ExprTableDecoder:
    """Rebuilds expressions from an encoded node table.

    Entries are decoded in table order, so every child reference must point
    *backwards* — a forward or out-of-range index is a corruption error.
    One table entry becomes exactly one Python object, restoring the
    sharing structure the encoder saw.
    """

    def __init__(self, payload: Any) -> None:
        if not isinstance(payload, dict):
            raise DeserializationError("expression table must be an object")
        dims = payload.get("dims")
        nodes = payload.get("nodes")
        if not isinstance(dims, list) or not isinstance(nodes, list):
            raise DeserializationError("expression table needs 'dims' and 'nodes' lists")
        try:
            self._dims = [Dim.from_json(dim) for dim in dims]
        except (DimensionError, ValueError, TypeError) as error:
            raise DeserializationError(f"malformed dim table: {error}") from error
        self._nodes: List[la.LAExpr] = []
        for position, entry in enumerate(nodes):
            self._nodes.append(self._decode_node(position, entry))

    def root(self, index: Any) -> la.LAExpr:
        if not isinstance(index, int) or not 0 <= index < len(self._nodes):
            raise DeserializationError(f"root index {index!r} outside node table")
        return self._nodes[index]

    # -- internals -------------------------------------------------------------
    def _dim(self, index: Any) -> Dim:
        if not isinstance(index, int) or not 0 <= index < len(self._dims):
            raise DeserializationError(f"dim index {index!r} outside dim table")
        return self._dims[index]

    def _children(self, position: int, entry: dict) -> List[la.LAExpr]:
        refs = entry.get("children", [])
        if not isinstance(refs, list):
            raise DeserializationError(f"node {position}: children must be a list")
        children = []
        for ref in refs:
            if not isinstance(ref, int) or not 0 <= ref < position:
                raise DeserializationError(
                    f"node {position}: child reference {ref!r} is not an "
                    "earlier table entry"
                )
            children.append(self._nodes[ref])
        return children

    def _decode_node(self, position: int, entry: Any) -> la.LAExpr:
        if not isinstance(entry, dict):
            raise DeserializationError(f"node {position}: entry must be an object")
        op = entry.get("op")
        try:
            if op == "Var":
                sparsity = entry.get("sparsity")
                return la.Var(
                    str(entry["name"]),
                    Shape(self._dim(entry["rows"]), self._dim(entry["cols"])),
                    None if sparsity is None else float(sparsity),
                )
            if op == "Literal":
                return la.Literal(_decode_float(entry["value"]))
            if op == "FilledMatrix":
                return la.FilledMatrix(
                    _decode_float(entry["value"]),
                    Shape(self._dim(entry["rows"]), self._dim(entry["cols"])),
                )
            cls = la.NODE_TYPES.get(op) if isinstance(op, str) else None
            if cls is None:
                raise DeserializationError(f"node {position}: unknown operator {op!r}")
            # strict zip: a wrong child count is a corruption error
            operands = zip(cls.child_fields, self._children(position, entry), strict=True)
            payload = {
                name: _decode_float(entry[name]) if kind is float else kind(entry[name])
                for name, kind in cls.static_fields
            }
            return cls(**dict(operands), **payload)
        except DeserializationError:
            raise
        except (KeyError, TypeError, ValueError, DimensionError) as error:
            raise DeserializationError(f"node {position} ({op!r}): {error}") from error


def encode_expression(expr: la.LAExpr) -> Dict[str, Any]:
    """Encode a single expression DAG as a versioned strict-JSON payload."""
    table = ExprTableEncoder()
    root = table.add(expr)
    return {
        "format": PLAN_FORMAT,
        "format_version": FORMAT_VERSION,
        "root": root,
        "exprs": table.to_json(),
    }


def decode_expression(payload: Any) -> la.LAExpr:
    """Inverse of :func:`encode_expression`."""
    _check_header(payload)
    return ExprTableDecoder(payload.get("exprs")).root(payload.get("root"))


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


def encode_signature(signature: ExprSignature) -> Dict[str, Any]:
    """Encode an :class:`ExprSignature` (digests + slot and dim layout)."""
    return {
        "digest": signature.digest,
        "template_digest": signature.template_digest,
        "dims": [
            [name, size]
            for name, size in zip(signature.dim_names, signature.dim_sizes)
        ],
        "slots": [
            {
                "index": spec.index,
                "name": spec.name,
                "rows": spec.rows,
                "cols": spec.cols,
                "sparsity": spec.sparsity,
                "row_dim": spec.row_dim,
                "col_dim": spec.col_dim,
            }
            for spec in signature.slots
        ],
    }


def decode_signature(payload: Any) -> ExprSignature:
    """Inverse of :func:`encode_signature`."""
    if not isinstance(payload, dict) or not isinstance(payload.get("digest"), str):
        raise DeserializationError("signature must be an object with a digest")
    slots_payload = payload.get("slots")
    if not isinstance(slots_payload, list):
        raise DeserializationError("signature slots must be a list")
    slots = []
    for position, spec in enumerate(slots_payload):
        if not isinstance(spec, dict):
            raise DeserializationError(f"slot {position}: entry must be an object")
        try:
            rows = spec.get("rows")
            cols = spec.get("cols")
            sparsity = spec.get("sparsity")
            row_dim = spec.get("row_dim")
            col_dim = spec.get("col_dim")
            slots.append(
                SlotSpec(
                    index=_decode_int(spec["index"], f"slot {position} index"),
                    name=str(spec["name"]),
                    rows=None if rows is None else int(rows),
                    cols=None if cols is None else int(cols),
                    sparsity=None if sparsity is None else float(sparsity),
                    row_dim=None if row_dim is None else str(row_dim),
                    col_dim=None if col_dim is None else str(col_dim),
                )
            )
        except (KeyError, TypeError, ValueError) as error:
            raise DeserializationError(f"slot {position}: {error}") from error
    dims_payload = payload.get("dims", [])
    if not isinstance(dims_payload, list):
        raise DeserializationError("signature dims must be a list")
    dim_names: List[str] = []
    dim_sizes: List[Any] = []
    for position, dim in enumerate(dims_payload):
        if not isinstance(dim, (list, tuple)) or len(dim) != 2:
            raise DeserializationError(f"signature dim {position}: malformed entry")
        name, size = dim
        dim_names.append(str(name))
        dim_sizes.append(None if size is None else int(size))
    return ExprSignature(
        digest=payload["digest"],
        slots=tuple(slots),
        template_digest=str(payload.get("template_digest", "")),
        dim_names=tuple(dim_names),
        dim_sizes=tuple(dim_sizes),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _encode_run_report(run: RunReport) -> Dict[str, Any]:
    return {
        "stop_reason": run.stop_reason.value,
        "stale_iterations": run.stale_iterations,
        "iterations": [
            {
                "iteration": stats.iteration,
                "matches_found": stats.matches_found,
                "matches_applied": stats.matches_applied,
                "enodes": stats.enodes,
                "classes": stats.classes,
                "best_cost": None
                if stats.best_cost is None
                else _encode_float(stats.best_cost),
            }
            for stats in run.iterations
        ],
    }


def _decode_run_report(payload: Any) -> RunReport:
    if not isinstance(payload, dict):
        raise DeserializationError("saturation report must be an object")
    try:
        stop_reason = StopReason(payload["stop_reason"])
        stale_iterations = _decode_int(payload["stale_iterations"], "stale_iterations")
    except (KeyError, ValueError) as error:
        raise DeserializationError(f"malformed saturation report: {error}") from error
    iterations_payload = payload.get("iterations", [])
    if not isinstance(iterations_payload, list):
        raise DeserializationError("saturation iterations must be a list")
    iterations = []
    for position, stats in enumerate(iterations_payload):
        if not isinstance(stats, dict):
            raise DeserializationError(f"iteration {position}: entry must be an object")
        try:
            iterations.append(
                IterationStats(
                    iteration=_decode_int(stats["iteration"], "iteration"),
                    matches_found=_decode_int(stats["matches_found"], "matches_found"),
                    matches_applied=_decode_int(
                        stats["matches_applied"], "matches_applied"
                    ),
                    enodes=_decode_int(stats["enodes"], "enodes"),
                    classes=_decode_int(stats["classes"], "classes"),
                    best_cost=None
                    if stats["best_cost"] is None
                    else _decode_float(stats["best_cost"]),
                )
            )
        except KeyError as error:
            raise DeserializationError(f"iteration {position}: missing {error}") from error
    return RunReport(
        stop_reason=stop_reason, iterations=iterations, stale_iterations=stale_iterations
    )


def _encode_report(report: OptimizationReport, table: ExprTableEncoder) -> Dict[str, Any]:
    return {
        "original": table.add(report.original),
        "optimized": table.add(report.optimized),
        "original_cost": _encode_float(report.original_cost),
        "optimized_cost": _encode_float(report.optimized_cost),
        "fallback_regions": report.fallback_regions,
        "regions": report.regions,
        "saturation_reports": [
            _encode_run_report(run) for run in report.saturation_reports
        ],
    }


def _decode_report(payload: Any, table: ExprTableDecoder) -> OptimizationReport:
    if not isinstance(payload, dict):
        raise DeserializationError("optimization report must be an object")
    runs_payload = payload.get("saturation_reports", [])
    if not isinstance(runs_payload, list):
        raise DeserializationError("saturation_reports must be a list")
    return OptimizationReport(
        original=table.root(payload.get("original")),
        optimized=table.root(payload.get("optimized")),
        phase_times=None,
        saturation_reports=[_decode_run_report(run) for run in runs_payload],
        original_cost=_decode_float(payload.get("original_cost", 0.0)),
        optimized_cost=_decode_float(payload.get("optimized_cost", 0.0)),
        fallback_regions=_decode_int(payload.get("fallback_regions", 0), "fallback_regions"),
        regions=_decode_int(payload.get("regions", 0), "regions"),
    )


# ---------------------------------------------------------------------------
# Plan entries (the cached unit of the Session API)
# ---------------------------------------------------------------------------


def encode_entry(entry: "PlanEntry") -> Dict[str, Any]:  # noqa: F821
    """Encode a :class:`~repro.api.plan.PlanEntry` as a loadable payload.

    One node table is shared by the artifact's original/optimized/fused
    expressions, the slot-space plan, and the report's expression
    references, so common subplans are stored once.
    """
    table = ExprTableEncoder()
    artifact = entry.artifact
    payload: Dict[str, Any] = {
        "format": PLAN_FORMAT,
        "format_version": FORMAT_VERSION,
        "signature": encode_signature(entry.signature),
        "guard": entry.guard.to_json() if entry.guard is not None else None,
        "slot_plan": table.add(entry.slot_plan),
        "artifact": {
            "original": table.add(artifact.original),
            "optimized": table.add(artifact.optimized),
            "fused": table.add(artifact.fused),
            "extractor": artifact.extractor,
            "fusion_aware": artifact.fusion_aware,
            "report": _encode_report(artifact.report, table),
        },
    }
    payload["exprs"] = table.to_json()
    return payload


def decode_entry(payload: Any) -> "PlanEntry":  # noqa: F821
    """Inverse of :func:`encode_entry`; strict about version and structure."""
    # Imported lazily: repro.api imports this package (via the Session's
    # disk tier), so a module-level import would be circular.
    from repro.api.plan import PlanEntry

    _check_header(payload)
    table = ExprTableDecoder(payload.get("exprs"))
    artifact_payload = payload.get("artifact")
    if not isinstance(artifact_payload, dict):
        raise DeserializationError("plan payload has no artifact object")
    artifact = PlanArtifact(
        original=table.root(artifact_payload.get("original")),
        optimized=table.root(artifact_payload.get("optimized")),
        report=_decode_report(artifact_payload.get("report"), table),
        extractor=str(artifact_payload.get("extractor", "greedy")),
        fusion_aware=bool(artifact_payload.get("fusion_aware", True)),
        _fused=table.root(artifact_payload.get("fused")),
    )
    signature = decode_signature(payload.get("signature"))
    guard = None
    guard_payload = payload.get("guard")
    if guard_payload is not None:
        try:
            guard = TemplateGuard.from_json(guard_payload)
        except GuardError as error:
            raise DeserializationError(f"malformed guard: {error}") from error
    return PlanEntry(
        artifact=artifact,
        slot_plan=table.root(payload.get("slot_plan")),
        signature=signature,
        guard=guard,
    )


def dumps_entry(entry: "PlanEntry", compress: bool = False) -> bytes:  # noqa: F821
    """Serialize a plan entry to store-ready bytes.

    With ``compress`` the strict-JSON text is gzip-wrapped; the gzip magic
    (:data:`GZIP_MAGIC`) doubles as the header flag :func:`loads_entry`
    auto-detects, so compressed and plain entries coexist in one store.
    """
    text = json.dumps(encode_entry(entry), allow_nan=False, sort_keys=True) + "\n"
    raw = text.encode("utf-8")
    if compress:
        # mtime=0 keeps the bytes a pure function of the payload
        return gzip.compress(raw, mtime=0)
    return raw


def loads_entry(raw: bytes) -> "PlanEntry":  # noqa: F821
    """Inverse of :func:`dumps_entry`: auto-detects gzip, decodes strictly.

    Truncated gzip streams, undecodable bytes and malformed JSON all raise
    :class:`DeserializationError` — the store treats every decode failure
    as a miss, so a half-written or bit-rotted compressed entry degrades to
    a recompile, never an exception.
    """
    if raw[:2] == GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib_error) as error:
            raise DeserializationError(f"corrupt gzip payload: {error}") from error
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise DeserializationError(f"malformed plan payload: {error}") from error
    return decode_entry(payload)


def _check_header(payload: Any) -> None:
    """Validate a payload's format tag and version."""
    if not isinstance(payload, dict):
        raise DeserializationError("plan payload must be a JSON object")
    if payload.get("format") != PLAN_FORMAT:
        raise DeserializationError(f"not a {PLAN_FORMAT} payload")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise DeserializationError(
            f"unsupported plan format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
