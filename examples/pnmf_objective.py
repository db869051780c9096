"""PNMF: how heuristics defeat each other and equality saturation does not.

Sec. 4.2 of the paper uses Poisson non-negative matrix factorization to show
the limits of rewrite heuristics: SystemML owns the rewrite
``sum(W %*% H) -> colSums(W) %*% rowSums(H)`` *and* the fused ``wcemm``
operator for ``sum(X * log(W %*% H))``, but each is guarded by a
"don't destroy a shared subexpression" heuristic, and because ``W %*% H`` is
shared between the two terms of the objective neither fires.  SPORES
optimizes the whole objective globally, removes the sharing, and both
optimizations apply.

The SPORES plan here is compiled through the Session API — the shape a
service would use: one ``session.compile`` per objective shape, then
``plan.run`` per request.

Run with::

    python examples/pnmf_objective.py
"""

from __future__ import annotations

from repro.api import Session
from repro.cost import LACostModel
from repro.optimizer import OptimizerConfig
from repro.runtime import execute, fuse_operators
from repro.systemml import optimize_base, optimize_opt2
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("PNMF", "M")
    objective = workload.roots["objective"]
    inputs = workload.inputs(seed=3)
    cost = LACostModel()

    print("PNMF objective:", objective)
    print()

    session = Session(OptimizerConfig.sampling_greedy())
    spores_plan = session.compile(objective)

    legacy_plans = {
        "base (opt level 1)": optimize_base(objective).optimized,
        "opt2 (hand-coded rules)": fuse_operators(optimize_opt2(objective).optimized),
    }

    reference = None
    for label, plan in legacy_plans.items():
        execute(plan, inputs)  # warm-up
        result = execute(plan, inputs)
        value = result.scalar()
        if reference is None:
            reference = value
        print(f"{label:30s} cost {cost.total(plan):12.4g}   "
              f"{result.stats.elapsed * 1e3:7.1f} ms   "
              f"intermediates {result.stats.intermediate_cells:10.3g} cells   "
              f"value {value:.4f}")
        print(f"{'':30s} plan: {plan}")
        assert abs(value - reference) <= 1e-4 * max(1.0, abs(reference))

    label = "SPORES (Session API)"
    spores_inputs = {k: inputs[k] for k in spores_plan.input_names}
    spores_plan.run(spores_inputs)  # warm-up
    result = spores_plan.run(spores_inputs)
    value = result.scalar()
    cells = spores_plan.profile(spores_inputs).measured_cells
    print(f"{label:30s} cost {spores_plan.report.optimized_cost:12.4g}   "
          f"{result.stats.elapsed * 1e3:7.1f} ms   "
          f"intermediates {cells:10.3g} cells   "
          f"value {value:.4f}")
    print(f"{'':30s} plan: {spores_plan.artifact.fused}")
    assert abs(value - reference) <= 1e-4 * max(1.0, abs(reference))
    print()
    print("Note how the opt2 plan still materialises W %*% H (its rewrites are blocked by the")
    print("shared subexpression), while the SPORES plan contains neither the dense product nor")
    print("the shared intermediate: the sum term becomes a colSums/rowSums dot product and the")
    print("log term fuses into wcemm.")


if __name__ == "__main__":
    main()
