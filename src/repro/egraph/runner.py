"""The saturation loop (Fig. 8 of the paper) with match scheduling.

Two scheduling strategies are implemented, matching Sec. 3.1 and the
compile-time experiments of Sec. 4.3:

* **depth-first** (``"dfs"``): every match of every rule is applied on every
  iteration.  Complete but explodes on expansive rules (associativity /
  commutativity regrouping), which is why the paper's GLM and SVM runs time
  out under this strategy.
* **sampling** (``"sampling"``): each rule applies at most ``SAMPLE_LIMIT``
  matches per iteration.  The draw is a seeded pseudo-random selection —
  every match gets a CRC-derived priority from ``(seed, iteration, rule)``
  and its own key, and the ``SAMPLE_LIMIT`` smallest priorities win via a
  ``heapq.nsmallest`` pass (O(n log k), no full sort).  Because priorities
  depend only on the match keys, the draw is identical however the match
  list was produced (indexed or scan search, any enumeration order).

Each iteration is **batched**: all rules search the same clean e-graph
snapshot, then all scheduled matches are applied, then a single ``rebuild``
restores congruence — instead of the former rebuild-per-rule loop.  Searching
is pure and returns flat :class:`~repro.egraph.rewrite.Match` records; a
rule's right-hand side is built only for the matches ``_schedule`` keeps.
Rules are searched *incrementally*: the runner keeps a per-rule cursor into
the e-graph's touch log and hands ``search`` only the classes that changed
since that rule last looked (rules at the same cursor share one dirty set).
Matches dropped by sampling are not lost: their root classes are carried
into the rule's next dirty set, so the cursor can keep advancing while the
dropped matches are found again.

Every match knows its rule, so the run also reports the per-rule funnel
(``RunReport.rule_stats``: searched, found, scheduled, applied, search time).

The runner stops when the e-graph stops changing (saturation), when the
iteration, e-node or time budget is exhausted, or — the **anytime stop** —
when the plan an extractor would return has stopped getting cheaper: after
every rebuild it reads the greedy best cost of ``egraph.roots`` and ends the
run with ``StopReason.PLATEAU`` once that cost has not made progress — fallen
by more than :data:`MIN_PROGRESS` of itself — for ``RunnerConfig.plateau``
iterations in a row.  The paper's own termination is
a wall-clock timeout under sampling (Sec. 3.1; GLM and SVM never reach a
fixpoint, Sec. 4.3); this is the same contract with a better signal.
"""

from __future__ import annotations

import enum
import heapq
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro import obs
from repro.egraph.graph import EGraph
from repro.egraph.rewrite import Match, Rule


#: the share of the best cost an iteration must cut to count as progress for
#: the anytime stop.  Smaller gains still lower ``best_cost`` but do not reset
#: the patience: on ALS/loss, once ``wsloss`` is in the graph, regrouping
#: ``0.1 * (ΣU² + ΣV²)`` saves two scalar operations of a 125,006 plan
#: (1.6e-5), which alone would have kept saturation going two more iterations.
MIN_PROGRESS = 1e-4

#: matches per rule per iteration the sampling strategy applies
SAMPLE_LIMIT = 25


class StopReason(enum.Enum):
    """Why a saturation run ended."""

    SATURATED = "saturated"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"
    #: the cheapest extractable plan stopped improving (``RunnerConfig.plateau``)
    PLATEAU = "plateau"


# Saturation metrics: no-ops until `repro.obs.enable()`; labelled by stop
# reason so time-limit aborts are visible next to clean saturations.
_RUNS = {
    reason: obs.registry().counter(
        "saturation_runs_total",
        "Saturation runs by stop reason",
        stop_reason=reason.value,
    )
    for reason in StopReason
}
_ITERATIONS = obs.registry().counter(
    "saturation_iterations_total", "Saturation iterations across all runs"
)
_SECONDS = obs.registry().histogram(
    "saturation_seconds", "Wall-clock seconds per saturation run"
)


def _count_rule_matches(rule_stats: Dict[str, RuleStats]) -> None:
    """Mirror the per-rule funnel into ``saturation_rule_matches_total``."""
    for name, stats in rule_stats.items():
        for outcome in ("found", "scheduled", "applied"):
            obs.registry().counter(
                "saturation_rule_matches_total",
                "Matches per rule by how far they got (found, scheduled, applied)",
                rule=name,
                outcome=outcome,
            ).inc(getattr(stats, outcome))


@dataclass
class RunnerConfig:
    """Saturation budget and scheduling strategy."""

    iter_limit: int = 12
    node_limit: int = 10_000
    time_limit: float = 5.0
    strategy: str = "sampling"
    seed: int = 0
    #: search only classes touched since each rule's last search (full scans
    #: are still used for the first iteration and for non-incremental rules);
    #: disable to benchmark against full re-searching every iteration
    incremental: bool = True
    #: anytime stop: end the run (``StopReason.PLATEAU``) once the greedy
    #: best cost of ``egraph.roots`` has not made progress (``MIN_PROGRESS``)
    #: for this many consecutive iterations; ``0`` never stops early
    #: (callers that want a fixpoint or a proof, not a cheaper plan).  3 is
    #: the smallest value that keeps every benchmark plan (2) plus one
    #: iteration of margin.
    plateau: int = 3

    def __post_init__(self) -> None:
        if self.strategy not in ("sampling", "dfs"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.plateau < 0:
            raise ValueError(f"plateau must be >= 0, got {self.plateau}")


@dataclass
class IterationStats:
    """Per-iteration statistics (e-graph growth, matches applied)."""

    iteration: int
    matches_found: int
    matches_applied: int
    enodes: int
    classes: int
    #: cheapest extractable cost of the e-graph's roots as of the last
    #: completed iteration's probe; ``None`` when the plateau probe is off
    best_cost: Optional[float] = None


@dataclass
class RuleStats:
    """One rule's funnel over a saturation run (in-memory only).

    ``found`` and ``applied`` sum to the iterations' ``matches_found`` /
    ``matches_applied``; ``scheduled`` is how many rewrites were paid for.
    """

    searches: int = 0
    found: int = 0
    scheduled: int = 0
    applied: int = 0
    search_seconds: float = 0.0


@dataclass
class RunReport:
    """Result of a saturation run."""

    stop_reason: StopReason
    iterations: List[IterationStats] = field(default_factory=list)
    #: wall-clock seconds; ``None`` on a report decoded from a plan store
    total_time: Optional[float] = None
    #: per-rule telemetry, keyed by rule name in rule-set order
    rule_stats: Dict[str, RuleStats] = field(default_factory=dict)
    #: iterations since ``best_cost`` last made progress (``MIN_PROGRESS``;
    #: 0 with the plateau probe off)
    stale_iterations: int = 0

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def best_cost(self) -> Optional[float]:
        """Cheapest extractable root cost the run saw (``None``: probe off)."""
        return self.iterations[-1].best_cost if self.iterations else None

    @property
    def saturated(self) -> bool:
        return self.stop_reason is StopReason.SATURATED

    @property
    def final_enodes(self) -> int:
        return self.iterations[-1].enodes if self.iterations else 0

    @property
    def final_classes(self) -> int:
        return self.iterations[-1].classes if self.iterations else 0

    def describe(self) -> str:
        """One line answering "why did saturation stop here"."""
        line = (
            f"{self.stop_reason.value} after {self.num_iterations} iterations,"
            f" {self.final_enodes} e-nodes"
        )
        if self.best_cost is None:
            return line
        return f"{line}, best cost {self.best_cost:.6g} ({self.stale_iterations} stale)"


class Runner:
    """Drives equality saturation of an e-graph with a rule set."""

    def __init__(self, config: Optional[RunnerConfig] = None) -> None:
        self.config = config or RunnerConfig()

    def run(self, egraph: EGraph, rules: Sequence[Rule]) -> RunReport:
        """Saturate ``egraph`` with ``rules`` under the configured budget."""
        report = self._run(egraph, rules)
        _RUNS[report.stop_reason].inc()
        _ITERATIONS.inc(report.num_iterations)
        _SECONDS.observe(report.total_time)
        if obs.registry().enabled:
            _count_rule_matches(report.rule_stats)
        return report

    def _run(self, egraph: EGraph, rules: Sequence[Rule]) -> RunReport:
        config = self.config
        report = RunReport(
            stop_reason=StopReason.ITERATION_LIMIT,
            rule_stats={rule.name: RuleStats() for rule in rules},
        )
        start = time.perf_counter()
        #: per-rule position in the e-graph touch log as of its last search
        cursors: Dict[int, int] = {}
        #: per-rule root classes of matches dropped by sampling, re-searched
        #: next iteration even though the cursor has moved past them
        pending_roots: Dict[int, set] = {}

        egraph.rebuild()
        # Anytime stop: off without a patience, and without a recorded root
        # there is no plan whose cost could plateau.
        probe = None
        if config.plateau > 0 and egraph.roots:
            # Imported here: ``repro.extract`` is built on this package.
            from repro.extract.greedy import BestCostTable

            probe = BestCostTable(egraph)
        best_cost = probe.root_cost() if probe else None
        #: best cost as of the last iteration that made progress
        progress_mark = best_cost
        for iteration in range(config.iter_limit):
            matches_found = 0
            matches_applied = 0

            enodes_before = egraph.num_enodes()
            merges_before = egraph.merges_performed

            # -- search phase: every rule sees the same clean snapshot -------
            searched = []
            # Searching is pure, so the touch log stands still for the whole
            # phase: one position, and one dirty set per distinct cursor.
            position = egraph.touch_position()
            dirty_since: Dict[int, FrozenSet[int]] = {}
            for rule in rules:
                search_start = time.perf_counter()
                if search_start - start > config.time_limit:
                    # Record the in-flight iteration before bailing: the
                    # e-graph state (and any matches already counted) must
                    # show up in the report, or final_enodes/final_classes
                    # read 0 for a run that did grow the graph.
                    self._record(
                        report, iteration, matches_found, matches_applied, egraph, best_cost
                    )
                    report.stop_reason = StopReason.TIME_LIMIT
                    report.total_time = time.perf_counter() - start
                    return report
                dirty = None
                if config.incremental and rule.incremental:
                    cursor = cursors.get(id(rule))
                    if cursor is not None:
                        dirty = dirty_since.get(cursor)
                        if dirty is None:
                            dirty = dirty_since[cursor] = egraph.touched_since(cursor)
                        carried = pending_roots.get(id(rule))
                        if carried:
                            dirty = dirty | frozenset(map(egraph.find, carried))
                matches = rule.search(egraph, dirty)
                stats = report.rule_stats[rule.name]
                stats.searches += 1
                stats.search_seconds += time.perf_counter() - search_start
                matches_found += len(matches)
                stats.found += len(matches)
                searched.append((rule, matches, stats))

            # -- apply phase: batched, with one rebuild at the end -----------
            over_limit = False
            for rule, matches, stats in searched:
                if time.perf_counter() - start > config.time_limit:
                    egraph.rebuild()
                    # Same as the search-phase exit: the partial iteration's
                    # growth is real and must be recorded before returning.
                    self._record(
                        report, iteration, matches_found, matches_applied, egraph, best_cost
                    )
                    report.stop_reason = StopReason.TIME_LIMIT
                    report.total_time = time.perf_counter() - start
                    return report
                scheduled = self._schedule(rule, matches, iteration)
                applied = sum(match.apply(egraph) for match in scheduled)
                matches_applied += applied
                stats.scheduled += len(scheduled)
                stats.applied += applied
                # Dropped matches must be re-found: advance the cursor and
                # carry just their root classes forward, so a persistently
                # oversampled rule keeps a bounded dirty set instead of
                # replaying an ever-growing touch-log window.
                cursors[id(rule)] = position
                if len(scheduled) == len(matches):
                    pending_roots.pop(id(rule), None)
                else:
                    kept = set(map(id, scheduled))
                    pending_roots[id(rule)] = {
                        match.root for match in matches if id(match) not in kept
                    }
                if egraph.num_enodes() > config.node_limit:
                    # The live counter can over-approximate before a rebuild;
                    # rebuild and re-check before concluding.
                    egraph.rebuild()
                    if egraph.num_enodes() > config.node_limit:
                        over_limit = True
                        break
            egraph.rebuild()

            if over_limit or egraph.num_enodes() > config.node_limit:
                self._record(report, iteration, matches_found, matches_applied, egraph, best_cost)
                report.stop_reason = StopReason.NODE_LIMIT
                report.total_time = time.perf_counter() - start
                return report

            changed = (
                egraph.num_enodes() != enodes_before
                or egraph.merges_performed != merges_before
            )
            if probe:
                # An unchanged graph extracts what it did: no need to look.
                cost = probe.root_cost() if changed else best_cost
                best_cost = min(best_cost, cost)
                if cost < progress_mark * (1.0 - MIN_PROGRESS):
                    progress_mark = cost
                    report.stale_iterations = 0
                else:
                    report.stale_iterations += 1
            self._record(report, iteration, matches_found, matches_applied, egraph, best_cost)

            if not changed:
                report.stop_reason = StopReason.SATURATED
                break
            if time.perf_counter() - start > config.time_limit:
                report.stop_reason = StopReason.TIME_LIMIT
                break
            if probe and report.stale_iterations >= config.plateau:
                report.stop_reason = StopReason.PLATEAU
                break
        report.total_time = time.perf_counter() - start
        return report

    def _schedule(self, rule: Rule, matches: List[Match], iteration: int) -> List[Match]:
        """Pick which matches to apply this iteration, in a canonical order.

        Scheduling is a pure function of the match *keys*, never of the
        enumeration order, so indexed, incremental and full-scan searches
        lead to identical saturation runs.  When sampling has to drop
        matches, selection uses a seeded CRC priority over each match's
        pre-encoded key (``Match.sort_bytes``) and keeps the
        ``SAMPLE_LIMIT`` smallest via ``heapq.nsmallest`` (O(n log k)).
        When nothing is dropped, matches are applied in key order (the list
        is either small — at most ``SAMPLE_LIMIT`` — or the depth-first
        strategy is already paying to apply every match).
        """
        if self.config.strategy == "dfs" or len(matches) <= SAMPLE_LIMIT:
            return sorted(matches, key=lambda match: match.key)
        salt = zlib.crc32(f"{self.config.seed}:{iteration}:{rule.name}".encode())

        def priority(match: Match):
            encoded = match.sort_bytes
            return (zlib.crc32(encoded, salt), encoded)

        return heapq.nsmallest(SAMPLE_LIMIT, matches, key=priority)

    @staticmethod
    def _record(
        report: RunReport,
        iteration: int,
        found: int,
        applied: int,
        egraph: EGraph,
        best_cost: Optional[float],
    ) -> None:
        report.iterations.append(
            IterationStats(
                iteration=iteration,
                matches_found=found,
                matches_applied=applied,
                enodes=egraph.num_enodes(),
                classes=egraph.num_classes(),
                best_cost=best_cost,
            )
        )

