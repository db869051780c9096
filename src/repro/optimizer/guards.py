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

* **Semantics.**  A plan carries extents, never sizes: rule 5 writes
  ``Σ_i A = A * Σ_i 1_i`` and the class analysis folds no ``Σ_i c`` but
  ``c = 0``, so every extent stays a sum over a ones tensor whose dim the
  lift resolves to one of the expression's own.  Re-pinning the dims
  therefore resizes the whole plan.  Only a symbolic dim has no pivot to
  cost at, so it is exact.
* **Plan quality.**  An admitted plan merely *dominates the original* at
  the requested sizes, which is not the same as being the plan a fresh
  saturation would pick.  A refused lookup therefore falls back to a fresh
  specialization; an admitted one trades at most a sliver of plan quality
  for skipping saturation entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.canonical.fingerprint import ExprSignature, rebind_dim_sizes
from repro.cost.la_cost import LACostModel
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.pipeline import PlanArtifact
from repro.runtime.fusion import fuse_operators

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
        all means the sizes differ.  Otherwise every dim slot must be sized
        and the plan must still dominate the original expression at the
        requested sizes.
        """
        sizes = signature.dim_sizes
        if self.exact or len(sizes) != len(self.dims) or None in sizes:
            return False
        return dominates(artifact, {name: size for (name, _), size in zip(self.dims, sizes)})

    def describe(self) -> str:
        if self.exact:
            return "exact-match only"
        pivots = ", ".join(f"{name}={pivot}" for name, pivot in self.dims)
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
    Falls back to the exact ``TemplateGuard()`` when any dim is symbolic or
    when dominance fails at the pivot itself.  ``config`` is accepted for
    call compatibility; the fusion choice the costs follow is the
    artifact's own.
    """
    sizes = signature.dim_sizes
    if None in sizes or not dominates(artifact, cost_model=cost_model):
        return TemplateGuard()
    return TemplateGuard(dims=tuple(zip(signature.dim_names, sizes)), exact=False)


__all__ = [
    "TemplateGuard",
    "GuardError",
    "derive_guard",
    "dominates",
]
