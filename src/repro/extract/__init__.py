"""Plan extraction from a saturated e-graph.

Two extractors are provided, matching the paper's Sec. 3.1 and the
compile-time study of Sec. 4.3:

* :class:`~repro.extract.greedy.GreedyExtractor` — bottom-up fixpoint that
  picks the cheapest operator per e-class.  Fast, but blind to shared common
  subexpressions (the Fig. 10 pathology).
* :class:`~repro.extract.ilp.ILPExtractor` — the Fig. 11 0/1 encoding with
  acyclicity constraints, solved with HiGHS through
  :func:`scipy.optimize.milp` (the paper used Gurobi), charging each shared
  operator exactly once.  Falls back to the greedy extractor if the solver
  is unavailable, times out, or returns an unusable solution.

:class:`~repro.extract.greedy.BestCostTable` is the greedy fixpoint's cost
table kept current *while* a graph saturates; the runner's anytime stop
(``RunnerConfig.plateau``) reads it once per iteration.
"""

from repro.extract.greedy import GreedyExtractor, ExtractionResult, ExtractionError
from repro.extract.ilp import ILPExtractor

__all__ = [
    "GreedyExtractor",
    "ILPExtractor",
    "ExtractionResult",
    "ExtractionError",
]
