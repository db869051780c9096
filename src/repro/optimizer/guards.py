"""Cross-size validity guards for compiled plan templates.

SPORES' optimized plans are *structural*: the rewrites equality saturation
discovers are valid for any dimension sizes, because they are proved from
the sum-product semantics, not from the concrete 10,000 in ``Dim("m",
10_000)``.  What is **not** size-independent is the *choice* between
equivalent plans — the extractor picked the winner under the cost model at
the compile-time sizes, and a different point of the size ladder could in
principle prefer a different plan.

So the honest question a template lookup asks is a point question: does the
compiled plan still cost no more than the original expression *at the sizes
requested*?  That is the paper's own acceptance bar for a rewrite
(``keep_only_improvements``), and :func:`dominates` answers it with two cost
walks.  :func:`derive_guard` asks it once, at the compile-time pivot; every
template lookup asks it again at the instance's sizes
(:func:`repro.api.plan.specialize_entry`).  No admitted region is computed
ahead of time, and sparsity bands need no check here: the template digest
already carries them.

A :class:`TemplateGuard` therefore records only each dimension slot's
compile-time ``(name, pivot)`` and an ``exact`` flag that admits nothing
beyond the compile-time instance — the fallback whenever cross-size reuse
cannot be shown valid:

* **Semantics.**  One rewrite family can bake a dimension size into the
  plan as a *value*: ``Σ_i A = |i| * A`` when ``i`` does not occur in
  ``A`` (rule 5).  Re-pinning sizes cannot fix a literal ``10_000.0``, so
  :func:`derive_guard` scans the physical plan for any constant equal to a
  product of compile-time dim sizes and falls back to ``exact`` when it
  finds one (a user constant colliding with such a product is also caught
  — false positives only cost sharing, never correctness).  Symbolic dims,
  and dim names the signature cannot re-pin, are exact for the same reason;
  dims with tiny pivots (< 4) stay pinned to their exact size, because a
  degenerate axis eliminated at size 1 leaves no trace to re-pin.
* **Plan quality.**  An admitted plan merely *dominates the original* at
  the requested sizes, which is not the same as being the plan a fresh
  saturation would pick.  A refused lookup therefore falls back to a fresh
  specialization; an admitted one trades at most a sliver of plan quality
  for skipping saturation entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.canonical.fingerprint import ExprSignature, rebind_dim_sizes
from repro.cost.la_cost import LACostModel
from repro.lang import dag
from repro.lang import expr as la
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.pipeline import PlanArtifact
from repro.runtime.fusion import fuse_operators

#: dims with a pivot below this are pinned to their exact size (degenerate
#: axes leave no re-pinnable trace when a rewrite eliminates them)
MIN_SCALABLE_SIZE = 4

#: multiplicative slack for the cost-dominance comparison (absorbs float
#: noise in the analytic model, never a real regression)
COST_SLACK = 1.0 + 1e-9


class GuardError(ValueError):
    """Raised when a guard payload cannot be decoded."""


@dataclass(frozen=True)
class TemplateGuard:
    """Which sizes a plan template may serve: any it still dominates at, or none.

    The default, ``TemplateGuard()``, is the exact fallback.
    """

    #: per canonical dim slot: the compile-time dimension name and size
    dims: Tuple[Tuple[str, int], ...] = ()
    #: admit nothing beyond the exact compile-time instance
    exact: bool = True

    def admits(self, signature: ExprSignature, artifact: PlanArtifact) -> bool:
        """Whether ``artifact`` may serve ``signature``'s sizes.

        Exact guards admit nothing here — the exact instance is already
        served by the instance-digest cache tier, so reaching the guard at
        all means the sizes differ.  Otherwise every dim slot must be sized,
        pinned slots must keep their pivot, and the plan must still dominate
        the original expression at the requested sizes.
        """
        if self.exact or len(signature.dim_sizes) != len(self.dims):
            return False
        sizes: Dict[str, int] = {}
        for (name, pivot), size in zip(self.dims, signature.dim_sizes):
            if size is None or (pivot < MIN_SCALABLE_SIZE and size != pivot):
                return False
            sizes[name] = size
        return dominates(artifact, sizes)

    def describe(self) -> str:
        if self.exact:
            return "exact-match only"
        pivots = ", ".join(
            f"{name}={pivot}" + (" pinned" if pivot < MIN_SCALABLE_SIZE else "")
            for name, pivot in self.dims
        )
        return f"cost-checked at each requested size (pivot {pivots or 'no dims'})"

    def to_json(self) -> Dict[str, Any]:
        return {"exact": self.exact, "dims": [[name, pivot] for name, pivot in self.dims]}

    @staticmethod
    def from_json(payload: Any) -> "TemplateGuard":
        if not isinstance(payload, dict):
            raise GuardError(f"guard payload must be an object, got {payload!r}")
        dims_payload = payload.get("dims", [])
        if not isinstance(dims_payload, list):
            raise GuardError("guard payload needs a 'dims' list")
        try:
            dims = tuple((str(name), int(pivot)) for name, pivot in dims_payload)
        except (TypeError, ValueError) as error:
            raise GuardError(f"malformed dim guard payload: {error}") from error
        return TemplateGuard(dims=dims, exact=bool(payload.get("exact", True)))


def dominates(
    artifact: PlanArtifact,
    sizes: Optional[Mapping[str, int]] = None,
    cost_model: Optional[LACostModel] = None,
) -> bool:
    """Whether the artifact's plan costs no more than its original at ``sizes``.

    ``sizes`` maps compile-time dimension names to the sizes to cost at
    (``None``: the compile-time sizes).  Both sides are costed the way they
    execute: fused when the artifact fuses (the real ring only), plain
    otherwise.  A plan the optimizer left unchanged costs exactly its
    original at every size, so it is admitted without the two walks.
    """
    if artifact.optimized == artifact.original:
        return True
    cost_model = cost_model or LACostModel()
    original, candidate = artifact.original, artifact.optimized
    if artifact.fusion_aware:
        original, candidate = fuse_operators(original), artifact.fused
    if sizes is not None:
        original = rebind_dim_sizes(original, sizes)
        candidate = rebind_dim_sizes(candidate, sizes)
    return cost_model.total(candidate) <= cost_model.total(original) * COST_SLACK


def derive_guard(
    signature: ExprSignature,
    artifact: PlanArtifact,
    config: Optional[OptimizerConfig] = None,
    cost_model: Optional[LACostModel] = None,
) -> TemplateGuard:
    """Derive the cross-size guard of a freshly compiled plan.

    Records every dim slot's pivot and checks dominance once, at the pivot.
    Falls back to the exact ``TemplateGuard()`` when any dim is symbolic,
    when the physical plan embeds a size-derived constant or a dim the
    signature cannot re-pin (see the module docstring), or when dominance
    fails at the pivot itself.  ``config`` is accepted for call
    compatibility; the fusion choice the costs follow is the artifact's own.
    """
    sizes = signature.dim_sizes
    if not sizes or any(size is None for size in sizes):
        return TemplateGuard()
    if _size_entangled_constants(artifact.fused, sizes):
        return TemplateGuard()

    # Every sized dim of the physical plan must be one the signature can
    # re-pin.  A lift can introduce fresh dim names (renamed-apart bound
    # indices behind a ones tensor); their sizes are frozen copies of the
    # pivot's, so a template carrying one cannot be resized safely.
    known = set(signature.dim_names)
    for node in dag.postorder(artifact.fused):
        if isinstance(node, la.Var):
            shape = node.var_shape
        elif isinstance(node, la.FilledMatrix):
            shape = node.fill_shape
        else:
            continue
        for dim in (shape.rows, shape.cols):
            if not dim.is_unit and dim.name not in known:
                return TemplateGuard()

    if not dominates(artifact, cost_model=cost_model):
        return TemplateGuard()
    return TemplateGuard(dims=tuple(zip(signature.dim_names, sizes)), exact=False)


def _size_entangled_constants(
    plan: la.LAExpr, sizes: Sequence[int]
) -> List[float]:
    """Constants in ``plan`` equal to a product of compile-time dim sizes.

    Catches plans where a rewrite folded a dimension cardinality into a
    scalar (``Σ_i A = |i| * A`` and anything constant folding derived from
    it): such a plan is correct only at the pivot sizes, so its guard must
    stay exact.  Products of up to three sizes are considered; sizes below
    :data:`MIN_SCALABLE_SIZE` are skipped because those dims are pinned to
    their pivot anyway (and would flag harmless constants like ``1.0``).
    """
    factors = sorted({float(size) for size in sizes if size >= MIN_SCALABLE_SIZE})
    products: Set[float] = set(factors)
    for a in factors:
        for b in factors:
            products.add(a * b)
            for c in factors:
                products.add(a * b * c)
    if not products:
        return []
    flagged: List[float] = []
    for node in dag.postorder(plan):
        if isinstance(node, (la.Literal, la.FilledMatrix)):
            value = abs(float(node.value))
        else:
            continue
        if value in products:
            flagged.append(value)
    return flagged


__all__ = [
    "TemplateGuard",
    "GuardError",
    "derive_guard",
    "dominates",
]
