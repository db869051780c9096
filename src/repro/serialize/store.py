"""The persistent plan store: a disk tier behind the in-memory plan cache.

A :class:`PlanStore` is a directory of ``<store-key>.json`` plan payloads
(one per canonical fingerprint, encoded by :mod:`repro.serialize.codec`)
plus a ``manifest.json`` describing the writer.  It is the cross-process
half of the Session API's compile-once contract: one process pays for
equality saturation, every later process — a fresh worker, a restarted
service, a cold container — loads the finished plan and skips saturation
entirely, the way SystemML persists compiled runtime programs instead of
re-optimizing per JVM.

Key properties:

* **Salted keys.**  Entries are named by
  :func:`repro.canonical.fingerprint.store_key` — the canonical expression
  fingerprint salted with the codec :data:`~repro.serialize.codec.FORMAT_VERSION`
  and the :meth:`~repro.optimizer.config.OptimizerConfig.digest` of the
  optimizer configuration.  A format bump or a config change silently
  invalidates every incompatible entry (the key never matches again);
  sessions with different configs can safely share one directory.
* **Corruption tolerance.**  Any unreadable, truncated, version-skewed or
  otherwise undecodable entry is treated as a miss (counted in
  ``stats.load_errors``), never an exception — a damaged store degrades to
  a cold store, it does not take the service down.
* **Atomic writes.**  Entries are written to a temp file and ``os.replace``d
  into place, so concurrent writers and crashed processes cannot leave a
  half-written payload under a live key.
* **Bounded growth.**  ``PlanStore(..., max_entries=N)`` keeps at most ``N``
  plan entries on disk, evicting least-recently-used first (recency = file
  mtime, refreshed on every load hit, so a hot plan survives arbitrarily
  many writes of cold ones).  Eviction is manifest-consistent — the
  manifest describes the writer and its policy, never the entry list, so
  GC can delete entry files freely without invalidating it — and safe
  under concurrency: a reader that loses the race to an eviction sees a
  plain miss and falls back to compiling.
* **Losing the directory is survivable.**  A store directory deleted or
  GC'd underneath a live session degrades, never raises: loads become
  misses, ``describe()`` reports zero entries with a stale-manifest note,
  and the next successful save re-creates the directory and manifest.
* **A template tier.**  Alongside the instance-keyed entries the store
  keeps one ``.tpl`` alias per distinct workload *shape* (keyed by the
  size-free template digest, holding the most recently saved pivot of
  that shape).  :meth:`PlanStore.load_template` serves it to sessions
  whose requested sizes guard-admit the pivot, so a store warmed at any
  one ladder point cross-process-warms every admitted size.
* **Optional payload compression.**  ``PlanStore(..., compress=True)``
  gzip-wraps new payloads; loads auto-detect the gzip magic per file, so
  compressed and plain entries (and mixed fleets) interoperate.  A
  truncated or bit-rotted gzip stream decodes as a miss like any other
  corruption.

Files the store did not write under a name it knows (for example the
``*.kernel.py`` sources older versions persisted) are ignored by every
tier: never listed, counted, collected or loaded.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.canonical.fingerprint import store_key
from repro.reliability.faults import NO_FAULTS, FaultInjector
from repro.serialize.codec import (
    FORMAT_VERSION,
    SerializationError,
    dumps_entry,
    loads_entry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.plan import PlanEntry
    from repro.optimizer.config import OptimizerConfig

#: name of the store's self-description file
MANIFEST_NAME = "manifest.json"

#: ``format`` tag carried by the manifest
STORE_FORMAT = "spores-plan-store"

#: suffix of template alias files (the same payload as the pivot's entry,
#: keyed by *template* digest; ``.tpl`` keeps them out of the entry count
#: and the LRU GC — one small file per distinct workload shape)
TEMPLATE_SUFFIX = ".tpl"

logger = logging.getLogger(__name__)


@dataclass
class StoreStats:
    """Counters describing how a :class:`PlanStore` has been used."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: entries skipped because they were unreadable or undecodable
    load_errors: int = 0
    #: entries that could not be encoded or written
    write_errors: int = 0
    #: entries deleted to respect ``max_entries`` (by this instance)
    evictions: int = 0
    #: template-tier probes that found a loadable pivot payload
    template_hits: int = 0
    #: template-tier probes that found nothing
    template_misses: int = 0


#: sentinel distinguishing "file absent" from "file present but undecodable"
_MISSING = object()


class PlanStore:
    """A directory of serialized plan entries keyed by salted fingerprint."""

    def __init__(
        self,
        path: "os.PathLike | str",
        config: Optional["OptimizerConfig"] = None,
        max_entries: Optional[int] = None,
        compress: bool = False,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.path = os.fspath(path)
        os.makedirs(self.path, exist_ok=True)
        self.config_digest = config.digest() if config is not None else ""
        #: keep at most this many plan entries on disk (``None`` = unbounded)
        self.max_entries = max_entries
        #: gzip-wrap new payloads (loads auto-detect, so compressed and
        #: plain entries — and stores that flipped the flag — interoperate)
        self.compress = compress
        #: fault-injection schedule for the ``store.read``/``store.write``
        #: sites; the no-op default keeps production paths quiet.  Injected
        #: :class:`~repro.reliability.PlanStoreError`\ s flow through the
        #: same IO-failure handling a real disk fault would hit.
        self.faults = fault_injector or NO_FAULTS
        self.stats = StoreStats()
        self._lock = threading.Lock()
        self.manifest = self._refresh_manifest()

    # -- the tier interface ----------------------------------------------------
    def load(self, digest: str) -> Optional["PlanEntry"]:
        """Load the entry for a canonical fingerprint, or ``None``.

        Missing files are misses; corrupt, truncated or incompatible files
        are *also* misses (counted separately), so callers can always fall
        back to compiling.
        """
        entry = self._load_payload(self._entry_path(digest))
        if entry is _MISSING:
            with self._lock:
                self.stats.misses += 1
            return None
        if entry is None:
            return None
        if entry.signature.digest != digest:
            with self._lock:
                self.stats.load_errors += 1
                self._last_error = (
                    f"digest mismatch: stored {entry.signature.digest[:12]}, "
                    f"requested {digest[:12]}"
                )
            logger.warning("store load demoted to miss: %s", self._last_error)
            return None
        self._touch(self._entry_path(digest))
        with self._lock:
            self.stats.hits += 1
        return entry

    def load_template(self, template_digest: str) -> Optional["PlanEntry"]:
        """Load the pivot entry persisted for a size-free template digest.

        The template tier stores, per distinct workload *shape*, the most
        recently compiled pivot of that shape; callers guard-check and
        re-pin it themselves (:func:`repro.api.plan.specialize_entry`).
        Every failure mode — no alias, corrupt alias, wrong template —
        reads as a miss, never an exception.
        """
        path = self._template_path(template_digest)
        entry = self._load_payload(path)
        if entry is _MISSING or entry is None:
            if entry is _MISSING:
                with self._lock:
                    self.stats.template_misses += 1
            return None
        if entry.signature.template_digest != template_digest:
            with self._lock:
                self.stats.load_errors += 1
                self._last_error = "template digest mismatch on alias load"
            logger.warning("store template load demoted to miss: %s", self._last_error)
            return None
        self._touch(path)
        with self._lock:
            self.stats.template_hits += 1
        return entry

    def _load_payload(self, path: str):
        """Read and decode one payload file.

        Returns the entry, ``None`` for a counted decode error, or the
        :data:`_MISSING` sentinel when the file does not exist (the caller
        owns miss accounting, which differs per tier).

        Fault contract (``store.read``): the injection check sits inside
        the IO block, so a scheduled :class:`PlanStoreError` is handled —
        counted, demoted to a miss — exactly like a real read failure; the
        session falls back to compiling and the request never fails.
        """
        try:
            self.faults.check("store.read", os.path.basename(path))
            with open(path, "rb") as handle:
                raw = handle.read()
            return loads_entry(raw)
        except FileNotFoundError:
            return _MISSING
        except (OSError, ValueError) as error:  # ValueError covers JSON + codec
            with self._lock:
                self.stats.load_errors += 1
                self._last_error = f"{type(error).__name__}: {error}"
            logger.warning(
                "store read of %s demoted to miss: %s",
                os.path.basename(path),
                self._last_error,
            )
            return None

    @staticmethod
    def _touch(path: str) -> None:
        """Refresh recency so LRU eviction spares hot plans.  Best-effort:
        the entry may be concurrently evicted between read and touch."""
        try:
            os.utime(path)
        except OSError:
            pass

    def save(self, digest: str, entry: "PlanEntry") -> bool:
        """Write one entry atomically; returns whether the write landed.

        Failures (unencodable plan, full disk, read-only store) are counted
        and swallowed: persistence is an optimization, and the freshly
        compiled in-memory plan stays perfectly usable without it.  The
        same payload is also written to the template tier (keyed by the
        entry's size-free digest, best-effort), so a cold process can warm
        up from *any* ladder point of a shape, not just exact sizes.
        """
        path = self._entry_path(digest)
        try:
            raw = dumps_entry(entry, compress=self.compress)
        except (SerializationError, TypeError, ValueError) as error:
            with self._lock:
                self.stats.write_errors += 1
                self._last_error = f"{type(error).__name__}: {error}"
            logger.warning("store encode of %s failed: %s", digest[:12], self._last_error)
            return False
        # Heals a store directory that was deleted underneath a live
        # session: the manifest is rewritten along with the first entry.
        if not os.path.isdir(self.path):
            try:
                os.makedirs(self.path, exist_ok=True)
            except OSError as error:
                with self._lock:
                    self.stats.write_errors += 1
                    self._last_error = f"{type(error).__name__}: {error}"
                logger.warning("store directory recreate failed: %s", self._last_error)
                return False
            self.manifest = self._refresh_manifest()
        if not self._write_atomic(path, raw):
            return False
        if entry.template_digest and entry.guard is not None and not entry.guard.exact:
            # Best-effort: the instance entry is already durable; a failed
            # alias write only costs cross-size warm starts.
            self._write_atomic(self._template_path(entry.template_digest), raw, count=False)
        with self._lock:
            self.stats.writes += 1
        if self.max_entries is not None:
            self.gc()
        return True

    def _write_atomic(self, path: str, raw: bytes, count: bool = True) -> bool:
        """Temp-file + flush + fsync + rename write; counts a write error
        unless told not to.

        The fsync *before* the atomic rename is the durability half of the
        contract: without it a crash (or power loss) shortly after deploy
        can leave the rename durable but the data blocks not, i.e. a live
        key pointing at a zero-length payload.  Corruption tolerance would
        survive that, but a warmed store must stay warm across a crash.

        Fault contract (``store.write``): the injection check sits inside
        the IO block, so a scheduled :class:`PlanStoreError` is handled —
        counted, persist skipped — exactly like a full disk; the freshly
        compiled in-memory plan stays authoritative and the request
        succeeds.
        """
        # pid + thread id: two sessions in one process saving the same key
        # concurrently must not truncate each other's half-written temp file
        temp_path = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            self.faults.check("store.write", os.path.basename(path))
            with open(temp_path, "wb") as handle:
                handle.write(raw)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, path)
        except OSError as error:
            if count:
                with self._lock:
                    self.stats.write_errors += 1
                    self._last_error = f"{type(error).__name__}: {error}"
                logger.warning(
                    "store write of %s failed, persist skipped: %s",
                    os.path.basename(path),
                    self._last_error,
                )
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            return False
        return True

    def gc(self, max_entries: Optional[int] = None) -> int:
        """Evict least-recently-used entries beyond the capacity bound.

        ``max_entries`` overrides the store's configured bound for this one
        collection (e.g. a deploy-time warm-up trimming a store it just
        filled).  Recency is file mtime — refreshed on every load hit — so
        the oldest-untouched plans go first.  Returns the number of entries
        removed.  Races are benign: losing an unlink to a concurrent GC
        just means the other process collected it first.
        """
        bound = self.max_entries if max_entries is None else max_entries
        if bound is None:
            return 0
        aged: List[tuple] = []
        try:
            with os.scandir(self.path) as scan:
                for item in scan:
                    if not item.name.endswith(".json") or item.name == MANIFEST_NAME:
                        continue
                    try:
                        aged.append((item.stat().st_mtime_ns, item.name))
                    except OSError:
                        continue  # concurrently evicted
        except OSError:
            return 0  # directory gone: nothing to collect
        excess = len(aged) - bound
        if excess <= 0:
            return 0
        aged.sort()
        removed = 0
        for _, name in aged[:excess]:
            try:
                os.unlink(os.path.join(self.path, name))
                removed += 1
            except OSError:
                continue
        with self._lock:
            self.stats.evictions += removed
        return removed

    def __contains__(self, digest: str) -> bool:
        return os.path.exists(self._entry_path(digest))

    def __len__(self) -> int:
        """Number of plan entries in the *directory* (any config, any version).

        Entry filenames are salted hashes, so entries written under other
        config digests or stale format versions cannot be told apart without
        loading them; this is a directory-occupancy measure for operability,
        not a count of what this particular store instance can load.
        """
        return len(self._entry_files())

    def clear(self) -> int:
        """Delete every plan entry (the manifest stays); returns the count.

        Template aliases are removed alongside (they are derived data), but
        only the primary entries count toward the return value.
        """
        removed = 0
        for name in self._entry_files():
            try:
                os.unlink(os.path.join(self.path, name))
                removed += 1
            except OSError:
                pass
        for name in self._template_files():
            try:
                os.unlink(os.path.join(self.path, name))
            except OSError:
                pass
        return removed

    def describe(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of the store's state and counters.

        ``entries`` counts every plan file in the directory, including ones
        written under other config digests or format versions (see
        :meth:`__len__`); ``last_error`` is the most recent load/save
        failure, kept for debugging corrupt or read-only stores.

        Safe to call at any time — including after the store directory was
        GC'd or deleted underneath this live instance: every disk probe in
        here degrades to a stale-but-valid answer instead of raising
        (``manifest_stale`` flags that the on-disk manifest no longer
        matches the one this writer last wrote).
        """
        with self._lock:
            stats = asdict(self.stats)
            last_error = self._last_error
        return {
            "path": self.path,
            "entries": len(self),
            "template_entries": len(self._template_files()),
            "max_entries": self.max_entries,
            "format_version": FORMAT_VERSION,
            "config_digest": self.config_digest,
            "compress": self.compress,
            **stats,
            "manifest_stale": self._read_manifest() != self.manifest,
            "last_error": last_error,
        }

    # -- internals -------------------------------------------------------------
    _last_error: Optional[str] = None

    def _read_manifest(self) -> object:
        """The manifest as currently on disk, or ``None`` if unreadable.

        Never raises: a GC'd directory, a concurrent rewrite, or plain
        corruption all read as ``None`` (a "stale manifest"), which callers
        treat as a repair signal, not an error.
        """
        try:
            with open(os.path.join(self.path, MANIFEST_NAME), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def _entry_path(self, digest: str) -> str:
        key = store_key(digest, FORMAT_VERSION, self.config_digest)
        return os.path.join(self.path, f"{key}.json")

    def _template_path(self, template_digest: str) -> str:
        key = store_key(f"template:{template_digest}", FORMAT_VERSION, self.config_digest)
        return os.path.join(self.path, f"{key}{TEMPLATE_SUFFIX}")

    def _entry_files(self) -> List[str]:
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        return [
            name
            for name in names
            if name.endswith(".json") and name != MANIFEST_NAME
        ]

    def _template_files(self) -> List[str]:
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        return [name for name in names if name.endswith(TEMPLATE_SUFFIX)]

    def _refresh_manifest(self) -> Dict[str, object]:
        """Load the manifest, repairing or rewriting it as needed.

        The manifest is descriptive, not authoritative — compatibility is
        enforced by the salted keys — so a missing, corrupt or stale-version
        manifest is simply rewritten for the current writer.  The list of
        config digests that have written to the store is kept for
        operability (which fleets share this store), best-effort.
        """
        manifest_path = os.path.join(self.path, MANIFEST_NAME)
        manifest = self._read_manifest()
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != STORE_FORMAT
            or manifest.get("format_version") != FORMAT_VERSION
        ):
            manifest = {"format": STORE_FORMAT, "format_version": FORMAT_VERSION}
        digests = manifest.get("config_digests")
        if not isinstance(digests, list):
            digests = []
        if self.config_digest and self.config_digest not in digests:
            digests.append(self.config_digest)
        manifest["config_digests"] = digests
        # The eviction policy is descriptive too: GC never needs the
        # manifest's consent, so deleting entry files keeps it consistent.
        if self.max_entries is not None:
            manifest["max_entries"] = self.max_entries
        if self.compress:
            # Descriptive as well: loads auto-detect the gzip magic per
            # file, so a store with mixed writers stays readable.
            manifest["compressed_payloads"] = True
        temp_path = f"{manifest_path}.{os.getpid()}.tmp"
        try:
            with open(temp_path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
                # Same durability contract as entry writes: never let a
                # crash make the rename durable before the data blocks.
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, manifest_path)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
        return manifest
