"""Rule derivation: can SPORES re-discover a hand-coded rewrite? (Sec. 4.1)

The experiment in the paper inputs the left-hand side of each SystemML
rewrite pattern, saturates, and checks that the right-hand side is present
in the saturated e-graph.  ``derive`` reproduces this check:

1. both sides are lowered to RA with the shared deterministic attribute
   naming of :mod:`repro.translate.lower`;
2. the LHS seeds an e-graph, which is saturated with R_EQ;
3. the RHS is added to the same e-graph (it shares all leaf tensors) and a
   few more saturation iterations run;
4. the rewrite is *derived* if both roots end up in the same e-class.

Some SystemML rewrites are conditioned on emptiness (``nnz(X) == 0``) or on
runtime metadata rather than algebraic structure; for those the check is the
class-invariant machinery (a sparsity-0 class costs nothing, which is how
SPORES subsumes the rewrite), and the catalog marks them accordingly.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional

from repro.egraph.graph import EGraph
from repro.egraph.runner import Runner, RunnerConfig
from repro.lang import expr as la
from repro.rules import relational_rules
from repro.translate import LoweringError, lower


@dataclass
class DerivationResult:
    """Outcome of attempting to derive one rewrite rule."""

    derived: bool
    method: str
    iterations: int = 0
    enodes: int = 0
    seconds: float = 0.0
    note: str = ""


def derive(
    lhs: la.LAExpr,
    rhs: la.LAExpr,
    config: Optional[RunnerConfig] = None,
    extra_iterations: int = 8,
) -> DerivationResult:
    """Check whether saturation proves ``lhs`` and ``rhs`` equal.

    The goal is a proof, not a cheaper plan, so neither run may stop on a
    cost plateau: ``plateau`` is pinned to 0 whatever ``config`` says.
    """
    config = dataclasses.replace(
        config or RunnerConfig(iter_limit=14, node_limit=30_000, time_limit=20.0), plateau=0
    )
    start = time.perf_counter()
    try:
        lhs_lowered = lower(lhs)
        rhs_lowered = lower(rhs)
    except LoweringError as error:
        return DerivationResult(False, "lowering-failed", note=str(error))

    egraph = EGraph()
    lhs_root = egraph.add_term(lhs_lowered.plan.body)
    rhs_root = egraph.add_term(rhs_lowered.plan.body)
    egraph.rebuild()

    rules = relational_rules()
    runner = Runner(config)
    report = runner.run(egraph, rules)
    iterations = report.num_iterations

    if not egraph.equiv(lhs_root, rhs_root):
        # Give the graph a little more budget now that both sides are present.
        extra_config = dataclasses.replace(
            config, iter_limit=extra_iterations, seed=config.seed + 1
        )
        extra_report = Runner(extra_config).run(egraph, rules)
        iterations += extra_report.num_iterations

    elapsed = time.perf_counter() - start
    derived = egraph.equiv(lhs_root, rhs_root)
    return DerivationResult(
        derived=derived,
        method="saturation",
        iterations=iterations,
        enodes=egraph.num_enodes(),
        seconds=elapsed,
    )
