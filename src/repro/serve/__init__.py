"""Sharded multi-worker serving on top of the Session API.

The package that turns the compile-once/execute-many contract into a
deployable service shape:

* :class:`ServingEngine` — shards requests across a pool of worker
  threads by template-digest hash; every shard resolves plans through the
  engine's one :class:`~repro.api.Session`, which writes through one
  persistent :class:`~repro.serialize.PlanStore`.  ``submit`` returns a
  future; ``run_many`` serves a batch; ``stats`` reports throughput,
  p50/p95 latency and per-shard hit rates.
* :class:`ShardWorker` — one shard's thread and bounded queue:
  micro-batches same-instance requests, executes each plan entry's one
  executable (:mod:`repro.runtime.tape`) with its own pinned-parameter
  reuse state, memoizes repeated identical requests in a bounded result
  cache.
* :mod:`repro.serve.warmup` — the deploy-time CLI
  (``python -m repro.serve.warmup``) that pre-compiles a workload list
  into a store so a fresh pool starts 100% warm.

Reliability (see :mod:`repro.reliability`): the engine supervises its
shards (crash detection, restart on the same session, idempotent
requeue), routes around shards whose circuit breaker is open, retries
transient execution faults under the request deadline, degrades to
baseline plans when the optimizer overruns its budget, and reports it
all through :meth:`ServingEngine.health`.
"""

from repro.reliability.errors import EngineClosedError
from repro.serve.engine import EngineStats, QueueFullError, ServingEngine
from repro.serve.worker import (
    DeadlineExceededError,
    ShardCounters,
    ShardRequest,
    ShardWorker,
)


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
    "ShardWorker",
    "ShardRequest",
    "ShardCounters",
    "QueueFullError",
    "DeadlineExceededError",
    "EngineClosedError",
    "warm_store",
    "build_config",
]
