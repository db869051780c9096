"""Multi-threaded serving on top of the Session API.

The package that turns the compile-once/execute-many contract into a
deployable service shape:

* :class:`ServingEngine` — serves :meth:`~ServingEngine.run` on the calling
  thread and :meth:`~ServingEngine.submit` from one bounded queue drained
  by a pool of ``shards`` threads; every request resolves its plan through
  the engine's one :class:`~repro.api.Session`, which writes through one
  persistent :class:`~repro.serialize.PlanStore`.  ``submit`` returns a
  future; ``run_many`` serves a batch; ``stats`` reports throughput,
  p50/p95 latency and hit rates.
* :mod:`repro.serve.worker` — the serving path both use: micro-batches
  same-instance requests, executes each plan entry's one executable
  (:mod:`repro.runtime.tape`) with columnwise stacking, and answers exact
  repeats from one bounded result cache.
* :mod:`repro.serve.warmup` — the deploy-time CLI
  (``python -m repro.serve.warmup``) that pre-compiles a workload list
  into a store so a fresh engine starts 100% warm.

Reliability (see :mod:`repro.reliability`): an error fails its own
request's future with no retry (plans are pure, so it would repeat),
compiles degrade to baseline plans when the optimizer overruns its budget,
store faults demote to misses and skipped persists, and
:meth:`ServingEngine.health` reports liveness and the degraded rate.
"""

from repro.reliability.errors import EngineClosedError
from repro.serve.engine import EngineStats, QueueFullError, ServingEngine
from repro.serve.worker import DeadlineExceededError, ShardRequest


def __getattr__(name: str):
    # Lazy so ``python -m repro.serve.warmup`` does not import the module
    # twice (once as a package attribute, once as __main__) — runpy warns
    # about exactly that pattern.
    if name in ("warm_store", "build_config"):
        from repro.serve import warmup

        return getattr(warmup, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ServingEngine",
    "EngineStats",
    "ShardRequest",
    "QueueFullError",
    "DeadlineExceededError",
    "EngineClosedError",
    "warm_store",
    "build_config",
]
