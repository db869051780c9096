"""Plan persistence: a loadable artifact format and a cross-process store.

This package turns the Session API's cached unit — the
:class:`~repro.api.plan.PlanEntry` holding a compiled
:class:`~repro.optimizer.pipeline.PlanArtifact`, its slot-space physical
plan, and its canonical signature — into something a *different process*
can load and execute without re-paying equality saturation:

* :mod:`repro.serialize.codec` — a complete, versioned, strict-JSON codec
  for LA expression DAGs (node tables preserve sharing), signatures,
  optimization reports and plan entries;
* :mod:`repro.serialize.store` — :class:`PlanStore`, a directory-backed
  disk tier with salted keys (format version + optimizer-config digest +
  canonical fingerprint), atomic writes, and corruption-tolerant loads.

``Session(store_path=...)`` wires the store behind the in-memory plan
cache: a compile miss probes memory, then disk, then compiles and writes
back through both tiers.
"""

from repro.serialize.codec import (
    FORMAT_VERSION,
    DeserializationError,
    SerializationError,
    decode_entry,
    decode_expression,
    decode_signature,
    dumps_entry,
    encode_entry,
    encode_expression,
    encode_signature,
    loads_entry,
)
from repro.serialize.store import PlanStore, StoreStats

__all__ = [
    "FORMAT_VERSION",
    "SerializationError",
    "DeserializationError",
    "encode_expression",
    "decode_expression",
    "encode_signature",
    "decode_signature",
    "encode_entry",
    "decode_entry",
    "dumps_entry",
    "loads_entry",
    "PlanStore",
    "StoreStats",
]
