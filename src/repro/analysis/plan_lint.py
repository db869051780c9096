"""Structural linter for LA plans, RA plans, tapes and plan stores.

Seven checks, all on artifacts the optimizer has already committed to:

* **shape consistency** — every node of an LA expression must have a
  computable shape; a dimension clash anywhere (a doctored entry, a codec
  bug) is reported at the deepest failing node, not as a stack trace at
  execution time;
* **sparsity hygiene** — sparsity hints must lie in ``[0, 1]``, and the
  hints on a stored entry's slot variables must agree with the signature's
  :class:`~repro.canonical.fingerprint.SlotSpec` values the plan was costed
  under (a disagreement means the cost model and the runtime are looking at
  different matrices);
* **sum-index hygiene** (RA) — an aggregation index bound twice on one
  path is shadowing (almost certainly a lowering bug); an index absent from
  the child's schema aggregates nothing and should have been rewritten to
  ``A * Σ_i 1_i`` by ``eliminate-unused-index``;
* **tape hygiene** — steps after the root are dead weight, and two steps
  materializing structurally equal non-leaf nodes mean compile-time CSE
  failed (the tape shares by object identity only);
* **template guards** — a non-exact guard holds one pivot per dim slot of
  the signature, and its plan carries no dim outside those slots (re-pinning
  could not resize it);
* **cost monotonicity** — ``keep_only_improvements`` promises
  ``optimized_cost <= original_cost`` for every committed artifact; a
  violation means a plan regression was cached and will be served.
* **generated-source hygiene** — the fused modules
  :mod:`repro.runtime.codegen` emits for an entry are re-linted like any
  hot-path source (the concurrency linter's wall-clock and unseeded-RNG
  bans apply to emitted code too).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.report import Finding
from repro.canonical.fingerprint import slot_dim_name
from repro.lang import expr as la
from repro.lang.dims import DimensionError
from repro.ra.rexpr import RAdd, RExpr, RJoin, RSum, RVar, free_attrs, unfused
from repro.runtime.engine import slot_name
from repro.runtime.tape import TapePlan

PASS_NAME = "plan-lint"

#: relative slack on the cost-monotonicity comparison (float noise only —
#: the invariant itself is exact)
COST_RTOL = 1e-9


def _finding(code: str, where: str, message: str) -> Finding:
    return Finding(pass_name=PASS_NAME, code=code, where=where, message=message)


def _sparsity_mismatch(expected: Optional[float], actual: Optional[float]) -> bool:
    """Whether a slot's hint contradicts the signature's costed sparsity.

    ``None`` means "assumed dense" and is compatible with anything — only
    two *present* hints that disagree indicate the cost model and the
    runtime saw different matrices.
    """
    if expected is None or actual is None:
        return False
    return abs(expected - actual) > 1e-9


# ---------------------------------------------------------------------------
# LA expressions
# ---------------------------------------------------------------------------


def lint_expr(expr: la.LAExpr, where: str) -> List[Finding]:
    """Shape and sparsity checks over one LA expression."""
    findings: List[Finding] = []
    seen: Set[int] = set()
    bad_vars: Set[str] = set()
    for node in expr.walk():
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, la.Var):
            sparsity = node.sparsity
            if sparsity is not None and not 0.0 <= sparsity <= 1.0:
                if node.name not in bad_vars:
                    bad_vars.add(node.name)
                    findings.append(
                        _finding(
                            "sparsity-out-of-range",
                            f"{where}::{node.name}",
                            f"sparsity hint {sparsity!r} outside [0, 1]",
                        )
                    )
    root_cause = _deepest_shape_failure(expr)
    if root_cause is not None:
        node, error = root_cause
        findings.append(
            _finding(
                "shape-mismatch",
                f"{where}::{type(node).__name__}",
                f"no consistent shape: {error}",
            )
        )
    return findings


def _deepest_shape_failure(
    expr: la.LAExpr,
) -> Optional[Tuple[la.LAExpr, Exception]]:
    """The deepest node whose shape fails while all its children's succeed."""
    for node in expr.walk():
        try:
            node.shape
        except (DimensionError, ValueError) as error:
            children_ok = True
            for child in node.children:
                try:
                    child.shape
                except (DimensionError, ValueError):
                    children_ok = False
                    break
            if children_ok:
                return node, error
    return None


# ---------------------------------------------------------------------------
# RA expressions
# ---------------------------------------------------------------------------


def lint_rexpr(node: RExpr, where: str) -> List[Finding]:
    """Sum-index and sparsity-hint checks over one RA expression (a fused
    node is checked as its definition)."""
    findings: List[Finding] = []
    reported: Set[str] = set()

    def report(code: str, suffix: str, message: str) -> None:
        key = f"{code}:{suffix}"
        if key not in reported:
            reported.add(key)
            findings.append(_finding(code, f"{where}::{suffix}", message))

    def visit(expr: RExpr, bound: frozenset) -> None:
        if isinstance(expr, RVar):
            if expr.sparsity is not None and not 0.0 <= expr.sparsity <= 1.0:
                report(
                    "sparsity-out-of-range",
                    expr.name,
                    f"sparsity hint {expr.sparsity!r} outside [0, 1]",
                )
            return
        if isinstance(expr, RSum):
            names = {attr.name for attr in expr.indices}
            child_schema = {attr.name for attr in free_attrs(expr.child)}
            for name in sorted(names & bound):
                report(
                    "shadowed-sum-index",
                    name,
                    f"index {name!r} is already bound by an enclosing Σ",
                )
            for name in sorted(names - child_schema):
                report(
                    "unbound-sum-index",
                    name,
                    f"Σ_{name} aggregates nothing — the child never mentions "
                    f"{name!r}; rewrite it to a sum of ones",
                )
            visit(expr.child, bound | frozenset(names))
            return
        if isinstance(expr, (RJoin, RAdd)):
            for arg in expr.args:
                visit(arg, bound)

    visit(unfused(node), frozenset())
    return findings


# ---------------------------------------------------------------------------
# Tapes
# ---------------------------------------------------------------------------


def lint_tape(
    executable: TapePlan, where: str, expr: Optional[la.LAExpr] = None
) -> List[Finding]:
    """Dead-step and duplicate-subcomputation checks over a compiled tape.

    With ``expr`` (the plan the tape claims to compile), the step count is
    also compared against a fresh mirror compile, which catches injected
    steps that the root-position check alone would miss.
    """
    findings: List[Finding] = []
    n_steps = len(executable)
    if n_steps:
        last_position = executable.n_slots + n_steps - 1
        if executable._root != last_position:
            dead = last_position - max(executable._root, executable.n_slots - 1)
            findings.append(
                _finding(
                    "dead-tape-step",
                    where,
                    f"{dead} step(s) after the root at position {executable._root} "
                    "are never read",
                )
            )
    if expr is not None:
        mirror = TapePlan(expr, executable.n_slots)
        if n_steps > len(mirror):
            findings.append(
                _finding(
                    "dead-tape-step",
                    f"{where}::extra",
                    f"tape has {n_steps} steps, a fresh compile of its plan "
                    f"needs only {len(mirror)}",
                )
            )
    # Duplicate subcomputations: LA nodes are frozen dataclasses, so ==
    # is structural; two steps materializing equal non-leaf nodes mean the
    # plan lost sharing (the tape memoizes by object identity only).
    materialized: List[la.LAExpr] = []
    duplicates = 0
    for index in range(n_steps):
        node = executable.step_node(index)
        if node is None or not node.children:
            continue
        if any(node == other for other in materialized):
            duplicates += 1
        else:
            materialized.append(node)
    if duplicates:
        findings.append(
            _finding(
                "duplicate-tape-step",
                where,
                f"{duplicates} step(s) recompute a structurally identical "
                "non-leaf subexpression — compile-time CSE lost sharing",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Generated fused sources
# ---------------------------------------------------------------------------


def lint_codegen(entry, where: str) -> List[Finding]:
    """Emit and lint the fused source an entry's plan executes behind.

    The emitted text is *code on the serving hot path*, so the concurrency
    linter's nondeterminism bans (``time.time``, unseeded RNG) apply to it
    exactly as to hand-written runtime modules.  Callers pass entries whose
    slot plan already compiled to a tape (the region planner shares the
    tape's linearization), so a failure to plan, emit or compile here is
    itself a finding, not a shrug.
    """
    from repro.analysis.concurrency_lint import lint_source
    from repro.runtime.codegen import emit_source, plan_regions

    n_slots = len(entry.signature.slots)
    slot_sparsity = {spec.index: spec.sparsity for spec in entry.signature.slots}
    try:
        source = emit_source(plan_regions(entry.slot_plan, n_slots, slot_sparsity), "real")
        compile(source, f"<lint:{where}>", "exec")
    except Exception as error:  # noqa: BLE001 - any plan/emit/compile crash is the finding
        return [
            _finding(
                "codegen-failure",
                where,
                f"fused source cannot be generated: {error}",
            )
        ]
    return lint_source(source, f"{where}::codegen", hot_path=True)


# ---------------------------------------------------------------------------
# Plan entries and stores
# ---------------------------------------------------------------------------


def lint_entry(entry, where: str) -> List[Finding]:
    """All plan-level checks over one :class:`~repro.api.plan.PlanEntry`."""
    findings = lint_expr(entry.slot_plan, where)
    n_slots = len(entry.signature.slots)

    # Slot variables must be in range and carry the sparsity the signature
    # costed them under.
    spec_sparsity = {
        slot_name(spec.index): spec.sparsity for spec in entry.signature.slots
    }
    seen_vars: Set[str] = set()
    for node in entry.slot_plan.walk():
        if not isinstance(node, la.Var) or node.name in seen_vars:
            continue
        seen_vars.add(node.name)
        if node.name not in spec_sparsity:
            findings.append(
                _finding(
                    "bad-slot-var",
                    f"{where}::{node.name}",
                    f"variable {node.name!r} is not one of the signature's "
                    f"{n_slots} slots",
                )
            )
            continue
        expected = spec_sparsity[node.name]
        actual = node.sparsity
        if _sparsity_mismatch(expected, actual):
            findings.append(
                _finding(
                    "sparsity-mismatch",
                    f"{where}::{node.name}",
                    f"slot hint {actual!r} disagrees with the signature's "
                    f"costed sparsity {expected!r}",
                )
            )

    # A non-exact template guard must pin one pivot per dim slot of the
    # signature, or it can never admit an instance.
    guard = entry.guard
    n_dims = len(entry.signature.dim_sizes)
    if guard is not None and not guard.exact and len(guard.dims) != n_dims:
        findings.append(
            _finding(
                "guard-arity",
                where,
                f"guard has {len(guard.dims)} dims for the signature's {n_dims} dim slots",
            )
        )

    # A non-exact template is resized by re-pinning the signature's dim
    # slots: a plan dim outside them would keep its compile-time size at
    # every other size.  The lift resolves every index to a dim of the
    # expression, so only a doctored or foreign entry carries one.
    if guard is not None and not guard.exact:
        foreign = sorted(_plan_dims(entry.slot_plan) - {slot_dim_name(i) for i in range(n_dims)})
        if foreign:
            findings.append(
                _finding(
                    "guard-foreign-dim",
                    where,
                    f"plan dims {foreign} are not dim slots of the signature; "
                    "re-pinning the template cannot resize them",
                )
            )

    # The keep_only_improvements bar: a committed artifact must never cost
    # more than the expression it replaced.
    report = entry.artifact.report
    if report.optimized_cost > report.original_cost * (1.0 + COST_RTOL):
        findings.append(
            _finding(
                "cost-regression",
                where,
                f"optimized_cost {report.optimized_cost:.6g} exceeds "
                f"original_cost {report.original_cost:.6g} — "
                "keep_only_improvements was bypassed",
            )
        )

    # The slot plan must actually compile to a tape (the serving path will
    # try); a failure here is a corrupt entry, and the tape checks ride on
    # the successful compile.
    try:
        tape = TapePlan(entry.slot_plan, n_slots)
    except Exception as error:  # noqa: BLE001 - any compile failure is the finding
        findings.append(
            _finding(
                "tape-compile-failure",
                where,
                f"slot plan does not compile to a tape: {error}",
            )
        )
    else:
        findings.extend(lint_tape(tape, where))
        findings.extend(lint_codegen(entry, where))
    return findings


def _plan_dims(plan: la.LAExpr) -> Set[str]:
    """Names of the non-unit dims a plan's leaves carry."""
    names: Set[str] = set()
    for node in plan.walk():
        if isinstance(node, la.Var):
            shape = node.var_shape
        elif isinstance(node, la.FilledMatrix):
            shape = node.fill_shape
        else:
            continue
        names.update(dim.name for dim in (shape.rows, shape.cols) if not dim.is_unit)
    return names


def store_entry_files(path: str) -> List[str]:
    """Entry/template file names of a plan-store directory (no manifest)."""
    try:
        names = os.listdir(path)
    except OSError:
        return []
    return sorted(
        name
        for name in names
        if (name.endswith(".json") and name != "manifest.json")
        or name.endswith(".tpl")
    )


def lint_store_dir(path: str, where_prefix: str = "") -> List[Finding]:
    """Lint every entry and template file of a plan-store directory.

    The store's own loaders demote decode failures to cache misses; the
    linter surfaces them instead — a store full of unreadable entries
    *works* but silently recompiles everything.
    """
    from repro.serialize.codec import DeserializationError, loads_entry

    findings: List[Finding] = []
    for name in store_entry_files(path):
        where = f"{where_prefix}{name}"
        try:
            with open(os.path.join(path, name), "rb") as handle:
                entry = loads_entry(handle.read())
        except (OSError, DeserializationError) as error:
            findings.append(
                _finding("unreadable-entry", where, f"cannot decode: {error}")
            )
            continue
        findings.extend(lint_entry(entry, where))
    return findings


def lint_store(store, where_prefix: str = "") -> List[Finding]:
    """Lint a live :class:`~repro.serialize.store.PlanStore` (by directory)."""
    return lint_store_dir(store.path, where_prefix=where_prefix)


def run_plan_lint(
    stores: Sequence[Tuple[str, str]] = (),
    exprs: Iterable[Tuple[str, la.LAExpr]] = (),
    rexprs: Iterable[Tuple[str, RExpr]] = (),
) -> Tuple[List[Finding], Dict[str, int]]:
    """Run every plan check over ``(prefix, store_dir)`` pairs plus loose
    expressions; returns findings and a coverage summary."""
    findings: List[Finding] = []
    counts = {"stores": 0, "entries": 0, "exprs": 0, "rexprs": 0}
    for prefix, path in stores:
        counts["stores"] += 1
        counts["entries"] += len(store_entry_files(path))
        findings.extend(lint_store_dir(path, where_prefix=prefix))
    for where, expr in exprs:
        counts["exprs"] += 1
        findings.extend(lint_expr(expr, where))
    for where, rexpr in rexprs:
        counts["rexprs"] += 1
        findings.extend(lint_rexpr(rexpr, where))
    return findings, counts
