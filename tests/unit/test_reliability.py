"""Unit tests for the reliability package: taxonomy and fault injection."""

import pytest

from repro.reliability import (
    NO_FAULTS,
    SITES,
    DeadlineExceededError,
    EngineClosedError,
    FaultInjector,
    FaultRule,
    OptimizerBudgetExceeded,
    PlanStoreError,
    ReliabilityError,
)


class TestErrorTaxonomy:
    def test_compatibility_bases(self):
        # PlanStoreError flows through existing `except OSError` store
        # handling; DeadlineExceededError through `except TimeoutError`
        # worker expectations; EngineClosedError through the pre-taxonomy
        # `except RuntimeError` close contract.
        assert issubclass(PlanStoreError, OSError)
        assert issubclass(DeadlineExceededError, TimeoutError)
        assert issubclass(EngineClosedError, RuntimeError)
        for cls in (
            PlanStoreError,
            OptimizerBudgetExceeded,
            DeadlineExceededError,
            EngineClosedError,
        ):
            assert issubclass(cls, ReliabilityError)

    def test_class_defaults(self):
        # Every class is a plain exception over its message: no class carries
        # a retry default, because nothing retries.
        for cls in (
            PlanStoreError,
            OptimizerBudgetExceeded,
            DeadlineExceededError,
            EngineClosedError,
        ):
            error = cls("what failed")
            assert str(error) == "what failed"
            assert not hasattr(error, "retriable")

    def test_the_retry_surface_is_gone(self):
        import importlib

        import repro.reliability as reliability

        for name in ("RetryPolicy", "NO_RETRY", "is_retriable", "ShardCrashError"):
            assert not hasattr(reliability, name), name
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.reliability.retry")

    def test_the_taxonomy_table_names_exactly_the_exported_classes(self):
        from repro.reliability import errors

        lines = errors.__doc__.splitlines()
        rules = [n for n, line in enumerate(lines) if line.startswith("====")]
        body = lines[rules[1] + 1 : rules[2]]  # between the header and the last rule
        listed = {line.split()[0] for line in body if line[:1].isalpha()}
        assert listed == set(errors.__all__) - {"ReliabilityError"}

    def test_the_runtimes_execution_error_is_the_only_one(self):
        # A tape error is deterministic, so no taxonomy class shadows it.
        import repro.reliability as reliability
        from repro.runtime import ExecutionError

        assert not hasattr(reliability, "ExecutionError")
        assert not issubclass(ExecutionError, ReliabilityError)


class TestFaultInjector:
    def test_counter_schedule_start_every_count(self):
        faults = FaultInjector(
            [FaultRule("store.read", PlanStoreError, start=1, every=2, count=2)]
        )
        outcomes = []
        for n in range(6):
            try:
                faults.check("store.read", str(n))
                outcomes.append("ok")
            except PlanStoreError:
                outcomes.append("boom")
        # fires on invocations 1 and 3, then the count is spent
        assert outcomes == ["ok", "boom", "ok", "boom", "ok", "ok"]
        assert faults.counter("store.read") == 6
        assert [entry[1] for entry in faults.fired_at("store.read")] == [1, 3]

    def test_key_filter_targets_specific_work(self):
        faults = FaultInjector(
            [FaultRule("store.write", PlanStoreError, key="victim")]
        )
        faults.check("store.write", "bystander")
        with pytest.raises(PlanStoreError):
            faults.check("store.write", "victim")

    def test_rate_schedule_is_replayable(self):
        def firing_sequence():
            faults = FaultInjector(
                [FaultRule("store.read", PlanStoreError, rate=0.5)], seed=7
            )
            seq = []
            for _ in range(40):
                try:
                    faults.check("store.read")
                    seq.append(0)
                except PlanStoreError:
                    seq.append(1)
            return seq

        first, second = firing_sequence(), firing_sequence()
        assert first == second  # identical on every replay
        assert 0 < sum(first) < 40  # actually probabilistic, not constant

    def test_fired_log_records_the_exact_sequence(self):
        faults = FaultInjector([FaultRule("store.write", PlanStoreError, count=1)])
        with pytest.raises(PlanStoreError):
            faults.check("store.write", "entry-a")
        faults.check("store.write", "entry-b")
        assert faults.fired == [("store.write", 0, "entry-a", "PlanStoreError")]
        summary = faults.describe()
        assert summary["fired"] == 1
        assert summary["fired_by_site"] == {"store.write": 1}

    def test_unknown_site_and_bad_rule_are_rejected(self):
        with pytest.raises(ValueError):
            FaultRule("no.such.site", PlanStoreError)
        with pytest.raises(ValueError):
            FaultRule("store.read", PlanStoreError, every=0)
        with pytest.raises(ValueError):
            FaultRule("store.read", PlanStoreError, rate=1.5)

    def test_only_sites_a_real_fault_can_reach_exist(self):
        # Store IO and the optimizer budget fail for real; execution is a
        # pure function of its inputs, so it has no injection site.
        assert SITES == ("store.read", "store.write", "optimizer.saturate")
        for gone in ("shard.execute", "tape.step"):
            with pytest.raises(ValueError):
                FaultRule(gone, PlanStoreError)

    @pytest.mark.parametrize("site", SITES)
    def test_a_rule_fires_only_at_its_own_site(self, site):
        faults = FaultInjector([FaultRule(site, PlanStoreError)])
        for other in SITES:
            if other != site:
                faults.check(other, "bystander")
        with pytest.raises(PlanStoreError):
            faults.check(site, "victim")
        assert faults.fired == [(site, 0, "victim", "PlanStoreError")]
        assert {other: faults.counter(other) for other in SITES} == {
            other: 1 for other in SITES
        }

    def test_no_faults_is_silent_and_disabled(self):
        for site in SITES:
            NO_FAULTS.check(site, "anything")
        assert NO_FAULTS.enabled is False
        assert NO_FAULTS.fired == []

    def test_disabling_silences_a_live_schedule(self):
        faults = FaultInjector([FaultRule("store.read", PlanStoreError)])
        faults.enabled = False
        faults.check("store.read")
        assert faults.fired == []
