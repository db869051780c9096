"""Configuration of the SPORES optimizer pipeline."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.egraph.runner import RunnerConfig


@dataclass
class OptimizerConfig:
    """Controls saturation strategy, extraction strategy and budgets.

    The three named presets correspond to the configurations compared in
    Figures 16 and 17 of the paper:

    * ``sampling_ilp``   — match sampling + ILP extraction (the default),
    * ``sampling_greedy``— match sampling + greedy extraction,
    * ``dfs_greedy``     — depth-first saturation + greedy extraction.
    """

    #: e-graph saturation budget and scheduling strategy
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    #: "greedy" or "ilp"
    extractor: str = "ilp"
    #: wall-clock budget handed to the ILP solver (seconds)
    ilp_time_limit: float = 10.0
    #: apply the post-lift LA clean-up pass
    simplify_output: bool = True
    #: compare candidate plans after operator fusion, so a rewrite never
    #: destroys a fusible pattern (wsloss, wcemm, mmchain) that is cheaper
    #: than the rewritten form — the paper integrates fused operators into
    #: the search the same way (Sec. 3.3)
    fusion_aware: bool = True
    #: e-match through the e-graph's operator index (the default); disable to
    #: fall back to the legacy full-scan searchers, which exists only so the
    #: compile-time benchmarks can quantify the index (pairs with
    #: ``runner.incremental`` for the dirty-class tracking)
    indexed_matching: bool = True
    #: semiring plans compile for and execute over (a registered ring name:
    #: "real", "min-plus", "max-times", "bool").  Non-real rings gate out the
    #: real-only rewrite rules (see ``repro.optimizer.ring_gate``), disable
    #: real-arithmetic fusion, and switch the runtime to the ring's kernels.
    #: Because this field participates in :meth:`digest`, plan caches and
    #: persistent stores never mix plans across rings.
    semiring: str = "real"

    def __post_init__(self) -> None:
        if self.extractor not in ("greedy", "ilp"):
            raise ValueError(f"unknown extractor {self.extractor!r}")
        # Resolve eagerly so a typo fails at construction, not mid-compile.
        from repro.runtime.semiring import resolve_semiring

        resolve_semiring(self.semiring)

    def ring(self):
        """The resolved :class:`~repro.runtime.semiring.Semiring` object."""
        from repro.runtime.semiring import resolve_semiring

        return resolve_semiring(self.semiring)

    def rules(self):
        """The R_EQ rules a compile under this configuration saturates with.

        ``relational_rules(indexed_matching, ring())``, minus ``fuse`` when
        ``fusion_aware`` is off: the graph then holds the algebra only.
        """
        from repro.rules import relational_rules

        rules = relational_rules(indexed=self.indexed_matching, ring=self.ring())
        if self.fusion_aware:
            return rules
        return [rule for rule in rules if rule.name != "fuse"]

    def digest(self) -> str:
        """Stable digest over every plan-affecting field.

        Two configurations with equal digests compile identical artifacts
        for identical expressions (``compile_expression`` is pure), so the
        persistent plan store salts its keys with this digest: a plan is
        shared across processes only when the *whole* configuration —
        saturation budget, scheduling strategy, extractor, fusion flags —
        matches the one it was compiled under.
        """
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- presets ---------------------------------------------------------------
    @classmethod
    def sampling_ilp(cls, **overrides) -> "OptimizerConfig":
        """Match sampling during saturation, ILP extraction (paper default)."""
        return cls(runner=RunnerConfig(strategy="sampling"), extractor="ilp", **overrides)

    @classmethod
    def sampling_greedy(cls, **overrides) -> "OptimizerConfig":
        """Match sampling during saturation, greedy extraction."""
        return cls(runner=RunnerConfig(strategy="sampling"), extractor="greedy", **overrides)

    @classmethod
    def dfs_greedy(cls, **overrides) -> "OptimizerConfig":
        """Depth-first saturation (apply every match), greedy extraction."""
        return cls(runner=RunnerConfig(strategy="dfs"), extractor="greedy", **overrides)
