"""``serve_unique`` and ``serve_burst`` — the same engine used two ways.

Both drive a 2-shard :class:`~repro.serve.ServingEngine` warmed from a
:class:`~repro.api.PlanStore` (``warm_store`` + ``engine.warm``, which must
compile nothing) over the 14 paper roots at size S.  All loops are
**closed**: a caller sends its next request (or burst) when the previous one
returned — the users of this system are in-process callers of
``ServingEngine.run`` / ``run_many`` that wait for a reply.

* ``serve_unique`` — op = one ``ServingEngine.run``.  Two client threads;
  every request carries freshly wrapped parameter values, so the
  identity-keyed result cache cannot hit, and the two clients own disjoint
  roots, so no shard ever sees two requests of one plan together and nothing
  can be stacked.  A plan's tape takes ~0.7 ms of a ~1.7 ms request: per-request
  ``serve`` + ``api`` overhead is the majority share.  The run **asserts**
  ``result_cache_hits == 0`` and ``stacked_requests == 0``.
* ``serve_burst`` — op = one request.  One client submits bursts of 64:
  50 % same-root matvecs differing only in the slot the plan is
  column-stackable in (every other slot the *same objects* → columnwise
  stacking), 30 % repeats from a hot set of 6 requests passed as the same
  value objects (→ result-cache hits), 20 % unique.  Latency runs from the
  burst's submit to each future's completion.

A per-request fast-path change that breaks batching, or a batching change
that taxes single requests, shows as a gain on one and a loss on the other.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.api import PlanStore
from repro.optimizer import OptimizerConfig
from repro.runtime.data import MatrixValue
from repro.serve import ServingEngine, warm_store

from e2e import inputs as gen
from e2e import references
from e2e.measure import (
    Clock, Op, Round, RunRecord, calibrate, median, scratch_dir, tracing_overhead,
)
from e2e.spans import SpanRecorder

SHARDS = 2
CLIENTS = 2
BURST = 64
BURST_STACKED = 32  # 50 %
BURST_HOT = 19  # 30 %
HOT_SET = 6


@dataclass
class Request:
    kind: str
    expr: object
    inputs: Dict[str, MatrixValue]
    #: key into ``State.expected``: (root kind, parameter version or ("col", version))
    expected: Tuple[str, object]


@dataclass
class Served:
    """One answered (or failed) request, kept until the clock stops."""

    request: Request
    value: Optional[MatrixValue]
    seconds: float
    #: clocked seconds since the round's clock started, at completion
    at: float
    #: traced only: the carrier span's id, how long ``submit`` took, and the
    #: latency counted from this request's own submit (a burst counts
    #: ``seconds`` from the burst's first submit instead)
    carrier: Optional[int] = None
    submit: float = 0.0
    own_seconds: float = 0.0


@dataclass
class State:
    engine: ServingEngine
    store_dir: str
    #: (family, root name, expression) per served root, in a fixed order
    roots: List[Tuple[gen.FamilyInputs, str, object]]
    warm_ms: float
    expected: Dict[Tuple[str, object], object] = field(default_factory=dict)
    issued: int = 0
    gen_seconds: float = 0.0
    closed: bool = False
    #: serve_burst: per stackable root, the name of its column slot
    stack_slot: Dict[str, str] = field(default_factory=dict)
    hot: List[Request] = field(default_factory=list)
    pinned: Dict[str, Dict[str, MatrixValue]] = field(default_factory=dict)
    #: what the last round served, for the traced run to join with obs spans
    served: List[Served] = field(default_factory=list)


class _Serve:
    #: short rounds: outputs are retained until the clock stops, and at ~800
    #: requests/s a longer round would make peak_rss_mb measure the benchmark
    round_seconds = 0.5
    traced_round_seconds = 0.5

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.families: Dict[str, gen.FamilyInputs] = {}

    def generate(self) -> None:
        for name in gen.families_for(self.smoke)[0]:
            self.families[name] = gen.paper_family(name, "S", self.seed)

    # -- set-up: a deploy — warm the store, start the pool, warm the pool ------
    def setup(self) -> State:
        store_dir = scratch_dir(f"{self.name}_")
        config = OptimizerConfig.sampling_greedy()
        warm_store(PlanStore(store_dir, config), [(n, "S") for n in self.families], config)
        engine = ServingEngine(
            shards=SHARDS, config=config, store=PlanStore(store_dir, config)
        )
        roots = [
            (self.families[name], root, self.families[name].workload.roots[root])
            for name, root in gen.all_roots(self.families)
        ]
        start = time.perf_counter()
        compiled = engine.warm(expr for _, _, expr in roots)
        warm_ms = (time.perf_counter() - start) * 1e3
        if compiled:
            engine.close()
            raise AssertionError(f"engine.warm compiled {compiled} plans on a warm store")
        state = State(engine, store_dir, roots, warm_ms)
        self.warm_up(state)
        return state

    def teardown(self, state: State) -> None:
        if not state.closed:
            state.engine.close()
            state.closed = True
        shutil.rmtree(state.store_dir, ignore_errors=True)

    def describe(self, state: State) -> Dict[str, object]:
        if state.closed:  # the traced run closed the engine and kept its stats
            return {}
        stats = state.engine.stats().to_dict()
        return {"engine": {k: v for k, v in stats.items() if k != "per_shard"}}

    def prepare_references(self, state: State) -> None:
        for family in self.families.values():
            for version in range(gen.VERSIONS):
                values = references.expected_values(family, family.arrays(version))
                for root, value in values.items():
                    state.expected[(f"{family.name}/{root}", version)] = value
        family, root, expr = state.roots[0]
        value = state.engine.run(expr, gen.request_inputs(family, root, 0)).value
        references.self_check(family, root, value)

    @staticmethod
    def check(state: State, served: List[Served]) -> Tuple[List[Op], int]:
        """After the clock stopped: correct ops and the number of failed ones."""
        ops: List[Op] = []
        failed = 0
        for item in served:
            expected = state.expected[item.request.expected]
            if item.value is not None and references.matches(item.value, expected):
                ops.append(Op(item.request.kind, item.seconds, item.at))
            else:
                failed += 1
        return ops, failed

    # -- the traced run --------------------------------------------------------
    def trace(
        self, state: State, seconds: float, record: RunRecord, recorder: SpanRecorder
    ) -> None:
        layers = record.layers
        length = seconds if self.smoke else self.traced_round_seconds
        stages: Dict[str, List[float]] = {}
        joined = total = 0
        tracer = obs.tracer()

        def drain() -> None:
            # the program's span ring holds 8192; a traced round must fit in it
            nonlocal joined, total
            joined += join_spans(tracer.finished(), state.served, stages)
            total += len(state.served)
            tracer.clear()

        layers["obs.tracing_overhead"] = tracing_overhead(
            lambda tracing: self.round(state, length, recorder if tracing else None),
            record.rounds,
            lambda index: not self.smoke and sum(r.wall for r in record.rounds) < seconds,
            after_traced=drain,
        )
        for stage in ("submit_us", "queue_wait_ms", "request_ms", "execute_ms",
                      "request_self_ms", "resolve_gap_ms"):
            layers[f"serve.{stage}"] = median(stages[stage]) if stages.get(stage) else 0.0
        # per request, then the median: stage medians of a 14-plan mix do not add up
        layers["trace.serve_accounted_share"] = median(stages["accounted_share"])
        layers["trace.joined_share"] = joined / max(1, total)

        stats = state.engine.stats()
        layers["serve.batches"] = stats.batches
        layers["serve.batch_size_mean"] = stats.served / max(1, stats.batches)
        layers["serve.result_cache_hit_share"] = stats.result_cache_hits / max(1, stats.served)
        layers["serve.step_reuse_hits"] = stats.step_reuse_hits
        layers["serve.stacked_share"] = stats.stacked_requests / max(1, stats.served)
        layers["serve.stacked_batches"] = stats.stacked_batches
        layers["serve.errors"] = stats.errors
        layers["serve.sheds"] = stats.sheds
        layers["serve.retries"] = stats.retries
        layers["serve.restarts"] = stats.restarts
        layers["serve.engine_p50_ms"] = stats.p50_latency * 1e3
        layers["serve.warm_ms"] = state.warm_ms
        layers["bench.gen_us_per_op"] = state.gen_seconds / max(1, state.issued) * 1e6
        start = time.perf_counter()
        state.engine.close()
        state.closed = True
        layers["serve.close_ms"] = (time.perf_counter() - start) * 1e3
        record.notes["engine"] = {
            k: v for k, v in stats.to_dict().items() if k != "per_shard"
        }


def join_spans(obs_spans, served: List[Served], stages: Dict[str, List[float]]) -> int:
    """Join each traced request to the spans the program emitted for it.

    The benchmark opens a carrier span (``bench.request``) on the program's
    own tracer around ``submit``; ``serve.enqueue`` parents to it,
    ``serve.request`` to that (across the thread hand-off) and
    ``serve.execute`` to that, so one walk down the tree recovers where the
    request's time went.  Stage times are appended to ``stages``; returns
    how many requests were joined completely.
    """
    children: Dict[int, Dict[str, object]] = {}
    carriers = {}
    for span in obs_spans:
        if span.name == "bench.request":
            carriers[span.span_id] = span
        elif span.parent_id is not None:
            children.setdefault(span.parent_id, {})[span.name] = span
    joined = 0
    for item in served:
        carrier = carriers.get(item.carrier)
        enqueue = children.get(item.carrier, {}).get("serve.enqueue")
        request = children.get(enqueue.span_id, {}).get("serve.request") if enqueue else None
        if carrier is None or request is None or item.value is None:
            continue
        execute = children.get(request.span_id, {}).get("serve.execute")
        request_end = request.start_time + request.duration
        executing = execute.duration if execute is not None else 0.0
        stages.setdefault("submit_us", []).append(item.submit * 1e6)
        stages.setdefault("queue_wait_ms", []).append(
            (request.start_time - (enqueue.start_time + enqueue.duration)) * 1e3
        )
        stages.setdefault("request_ms", []).append(request.duration * 1e3)
        stages.setdefault("execute_ms", []).append(executing * 1e3)
        stages.setdefault("request_self_ms", []).append((request.duration - executing) * 1e3)
        # the caller has the result `own_seconds` after the carrier opened
        resolve_gap = item.own_seconds - (request_end - carrier.start_time)
        stages.setdefault("resolve_gap_ms", []).append(resolve_gap * 1e3)
        stages.setdefault("accounted_share", []).append(
            (item.submit + (request_end - enqueue.start_time - enqueue.duration) + resolve_gap)
            / item.own_seconds
        )
        joined += 1
    return joined


class ServeUnique(_Serve):
    name = "serve_unique"

    def warm_up(self, state: State) -> None:
        """One request per root: tapes, generated code and reuse caches get built."""
        for family, root, expr in state.roots:
            state.engine.run(expr, gen.request_inputs(family, root, 0))

    def round(
        self, state: State, seconds: float, recorder: Optional[SpanRecorder] = None
    ) -> Round:
        engine = state.engine
        served: List[List[Served]] = [[] for _ in range(CLIENTS)]
        gen_seconds = [0.0] * CLIENTS
        barrier = threading.Barrier(CLIENTS + 1)
        first = state.issued
        tracer = obs.tracer()
        perf = time.perf_counter

        def client(index: int) -> None:
            # Disjoint roots per client: two requests of one plan are never in
            # flight together, so a shard has nothing it could stack.
            mine = state.roots[index::CLIENTS]
            out = served[index]
            step = first + index
            barrier.wait()
            deadline = perf() + seconds
            while perf() < deadline:
                family, root, expr = mine[(step // CLIENTS) % len(mine)]
                version = (step // (CLIENTS * len(mine))) % gen.VERSIONS
                kind = f"{family.name}/{root}"
                made = perf()
                inputs = gen.request_inputs(family, root, version)
                request = Request(kind, expr, inputs, (kind, version))
                start = perf()
                gen_seconds[index] += start - made
                try:
                    if recorder is None:
                        value = engine.run(expr, inputs).value
                        end = perf()
                        out.append(Served(request, value, end - start, end))
                    else:
                        with tracer.span("bench.request", parent=None) as carrier:
                            start = perf()
                            future = engine.submit(expr, inputs)
                            submitted = perf()
                            value = future.result().value
                            end = perf()
                        span_id = carrier.context().span_id
                        out.append(
                            Served(request, value, end - start, end, span_id,
                                   submitted - start, end - start)
                        )
                        parent = recorder.add("ServingEngine.run", start, end, request=span_id)
                        recorder.add("submit", start, submitted, parent=parent, request=span_id)
                        recorder.add("wait", submitted, end, parent=parent, request=span_id)
                except Exception:  # shed, closed, failed: a failed op
                    out.append(Served(request, None, perf() - start, perf()))
                step += CLIENTS

        threads = [
            threading.Thread(target=client, args=(i,), name=f"client-{i}") for i in range(CLIENTS)
        ]
        before = calibrate()
        for thread in threads:
            thread.start()
        cpu0 = time.process_time()
        barrier.wait()
        wall0 = perf()
        for thread in threads:
            thread.join()
        wall = perf() - wall0
        cpu = time.process_time() - cpu0
        calib_ms = (before + calibrate()) / 2.0
        everything = [item for per_client in served for item in per_client]
        for item in everything:
            item.at -= wall0  # the clients stamped absolute times
        state.issued += max(len(per_client) for per_client in served) * CLIENTS
        state.gen_seconds += sum(gen_seconds)
        ops, failed = self.check(state, everything)
        stats = engine.stats()
        if stats.result_cache_hits or stats.stacked_requests:
            raise AssertionError(
                f"serve_unique must bypass the caches: {stats.result_cache_hits} result-cache "
                f"hits, {stats.stacked_requests} stacked requests"
            )
        state.served = everything
        return Round(wall, cpu, ops, len(everything), failed, calib_ms)


class ServeBurst(_Serve):
    name = "serve_burst"
    traced_round_seconds = 0.25  # a burst emits ~5 obs spans per request into a ring of 8192

    def warm_up(self, state: State) -> None:
        engine = state.engine
        for family, root, expr in state.roots:
            kind = f"{family.name}/{root}"
            slot = engine.plan_for(expr).codegen_info()["batch_slot"]
            if slot is not None:
                state.stack_slot[kind] = engine.plan_for(expr).input_names[slot]
            # version-0 parameters as *persistent objects*: what a burst's
            # stacked matvecs share in every slot but the column
            state.pinned[kind] = gen.request_inputs(family, root, 0)
        if not state.stack_slot:
            raise AssertionError("no root is column-stackable; serve_burst would stack nothing")
        rng = np.random.default_rng([self.seed, 1])
        for index in rng.choice(len(state.roots), size=HOT_SET, replace=False):
            family, root, expr = state.roots[int(index)]
            version = int(rng.integers(1, gen.VERSIONS))
            state.hot.append(
                Request(
                    f"hot:{family.name}/{root}", expr,
                    gen.request_inputs(family, root, version), (f"{family.name}/{root}", version),
                )
            )
        # One burst per stackable root, so every plan's first-batch stacking
        # verification (which re-executes the whole batch) happens in set-up.
        for _ in range(len(state.stack_slot)):
            self._serve_burst(state, self._make_burst(state), None, [])

    def prepare_references(self, state: State) -> None:
        super().prepare_references(state)
        for family, root, _ in state.roots:
            kind = f"{family.name}/{root}"
            leaf = state.stack_slot.get(kind)
            if leaf is None:
                continue
            for version in range(gen.VERSIONS):
                arrays = dict(family.arrays(0))
                arrays[leaf] = family.params[version][leaf]
                state.expected[(kind, ("col", version))] = references.expected_values(
                    family, arrays
                )[root]

    def _make_burst(self, state: State) -> List[Request]:
        """64 seeded requests: 32 stackable matvecs, 19 hot repeats, 13 unique."""
        burst_index = state.issued // BURST
        rng = np.random.default_rng([self.seed, 2, burst_index])
        stackable = sorted(state.stack_slot)
        kind = stackable[burst_index % len(stackable)]
        family, root, expr = next(
            r for r in state.roots if f"{r[0].name}/{r[1]}" == kind
        )
        leaf = state.stack_slot[kind]
        burst: List[Request] = []
        for _ in range(BURST_STACKED):
            version = int(rng.integers(0, gen.VERSIONS))
            inputs = dict(state.pinned[kind])
            inputs[leaf] = MatrixValue(family.params[version][leaf])
            burst.append(Request(f"stack:{kind}", expr, inputs, (kind, ("col", version))))
        for index in rng.integers(0, len(state.hot), size=BURST_HOT):
            burst.append(state.hot[int(index)])
        while len(burst) < BURST:
            family, root, expr = state.roots[int(rng.integers(0, len(state.roots)))]
            version = int(rng.integers(0, gen.VERSIONS))
            kind = f"{family.name}/{root}"
            burst.append(
                Request(f"unique:{kind}", expr,
                        gen.request_inputs(family, root, version), (kind, version))
            )
        order = rng.permutation(len(burst))
        state.issued += BURST
        return [burst[int(i)] for i in order]

    @staticmethod
    def _serve_burst(
        state: State,
        burst: List[Request],
        recorder: Optional[SpanRecorder],
        out: List[Served],
        clocked: float = 0.0,
    ) -> None:
        """Submit all, wait for all — what ``run_many`` does — but keep each
        future's completion time (its done-callback runs on the shard thread)."""
        engine = state.engine
        perf = time.perf_counter
        done: List[Optional[float]] = [None] * len(burst)
        marks: List[Tuple[int, float, float]] = []  # carrier id, submit seconds, submit start
        tracer = obs.tracer()
        futures = []
        start = perf()
        for index, request in enumerate(burst):
            if recorder is None:
                future = engine.submit(request.expr, request.inputs)
            else:
                with tracer.span("bench.request", parent=None) as carrier:
                    before = perf()
                    future = engine.submit(request.expr, request.inputs)
                    marks.append((carrier.context().span_id, perf() - before, before))
            future.add_done_callback(lambda _f, i=index: done.__setitem__(i, perf()))
            futures.append(future)
        for index, (request, future) in enumerate(zip(burst, futures)):
            try:
                value = future.result().value
            except Exception:  # shed, closed, failed: a failed op
                value = None
            finished = done[index] if done[index] is not None else perf()
            carrier_id, submit, before = marks[index] if marks else (None, 0.0, start)
            out.append(
                Served(request, value, finished - start, clocked + finished - start,
                       carrier_id, submit, finished - before)
            )
        if recorder is not None:
            parent = recorder.add("burst", start, perf())
            for item in out[-len(burst):]:
                recorder.add("request", start, start + item.seconds, parent=parent,
                             request=item.carrier)

    def round(
        self, state: State, seconds: float, recorder: Optional[SpanRecorder] = None
    ) -> Round:
        clock = Clock()
        served: List[Served] = []
        before = calibrate()
        while clock.wall < seconds:
            made = time.perf_counter()
            burst = self._make_burst(state)
            state.gen_seconds += time.perf_counter() - made
            clock.start()
            self._serve_burst(state, burst, recorder, served, clock.wall)
            clock.stop()
        calib_ms = (before + calibrate()) / 2.0
        ops, failed = self.check(state, served)
        state.served = served
        return Round(clock.wall, clock.cpu, ops, len(served), failed, calib_ms)
