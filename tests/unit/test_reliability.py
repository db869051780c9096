"""Unit tests for the reliability package: taxonomy, retries, faults."""

import pytest

from repro.reliability import (
    NO_FAULTS,
    NO_RETRY,
    DeadlineExceededError,
    EngineClosedError,
    ExecutionError,
    FaultInjector,
    FaultRule,
    OptimizerBudgetExceeded,
    PlanStoreError,
    ReliabilityError,
    RetryPolicy,
    ShardCrashError,
    is_retriable,
)


class TestErrorTaxonomy:
    def test_class_defaults(self):
        assert PlanStoreError("disk").retriable is True
        assert ShardCrashError("died").retriable is True
        assert ExecutionError("hiccup").retriable is True
        assert OptimizerBudgetExceeded("slow").retriable is False
        assert DeadlineExceededError("late").retriable is False
        assert EngineClosedError("closed").retriable is False

    def test_per_instance_override_refines_the_class_default(self):
        # e.g. a store read that failed a checksum is not worth retrying
        checksum = PlanStoreError("checksum mismatch", retriable=False)
        assert checksum.retriable is False
        assert PlanStoreError("io").retriable is True  # class default intact

    def test_is_retriable_defaults_foreign_exceptions_to_false(self):
        assert is_retriable(PlanStoreError("io"))
        assert not is_retriable(ValueError("foreign"))
        assert not is_retriable(KeyError("foreign"))

    def test_compatibility_bases(self):
        # PlanStoreError flows through existing `except OSError` store
        # handling; DeadlineExceededError through `except TimeoutError`
        # worker expectations; EngineClosedError through the pre-taxonomy
        # `except RuntimeError` close contract.
        assert issubclass(PlanStoreError, OSError)
        assert issubclass(DeadlineExceededError, TimeoutError)
        assert issubclass(EngineClosedError, RuntimeError)
        for cls in (PlanStoreError, DeadlineExceededError, EngineClosedError):
            assert issubclass(cls, ReliabilityError)


class TestRetryPolicy:
    def test_delay_is_deterministic_and_capped(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.05, multiplier=2.0, jitter=0.5)
        first = [policy.delay(a, key="req") for a in range(6)]
        second = [policy.delay(a, key="req") for a in range(6)]
        assert first == second  # pure function of (policy, key, attempt)
        assert all(d <= 0.05 for d in first)
        # distinct keys decorrelate (jitter differs) but stay within cap
        assert policy.delay(0, key="a") != policy.delay(0, key="b")

    def test_delay_without_jitter_is_plain_exponential(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=1.0, multiplier=2.0, jitter=0.0)
        assert [policy.delay(a) for a in range(3)] == [0.01, 0.02, 0.04]

    def test_should_retry_requires_taxonomy_and_budget(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry(ExecutionError("x"), 0)
        assert policy.should_retry(ExecutionError("x"), 1)
        assert not policy.should_retry(ExecutionError("x"), 2)  # budget spent
        assert not policy.should_retry(ValueError("x"), 0)  # foreign
        assert not policy.should_retry(OptimizerBudgetExceeded("x"), 0)

    def test_per_class_budgets_override_the_default(self):
        policy = RetryPolicy(max_attempts=3, class_budgets={"ShardCrashError": 1})
        assert policy.budget_for(ShardCrashError("x")) == 1
        assert policy.budget_for(ExecutionError("x")) == 3
        assert policy.should_retry(ShardCrashError("x"), 0)
        assert not policy.should_retry(ShardCrashError("x"), 1)

    def test_delay_within_refuses_backoffs_past_the_deadline(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.0)
        assert policy.delay_within(0, now=0.0, deadline=1.0) == pytest.approx(0.1)
        assert policy.delay_within(0, now=0.95, deadline=1.0) is None
        # no deadline: the delay always fits
        assert policy.delay_within(0, now=0.95, deadline=None) == pytest.approx(0.1)

    def test_no_retry_policy_never_retries(self):
        assert not NO_RETRY.should_retry(ExecutionError("x"), 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestFaultInjector:
    def test_counter_schedule_start_every_count(self):
        faults = FaultInjector(
            [FaultRule("tape.step", ExecutionError, start=1, every=2, count=2)]
        )
        outcomes = []
        for n in range(6):
            try:
                faults.check("tape.step", str(n))
                outcomes.append("ok")
            except ExecutionError:
                outcomes.append("boom")
        # fires on invocations 1 and 3, then the count is spent
        assert outcomes == ["ok", "boom", "ok", "boom", "ok", "ok"]
        assert faults.counter("tape.step") == 6
        assert [entry[1] for entry in faults.fired_at("tape.step")] == [1, 3]

    def test_key_filter_targets_specific_work(self):
        faults = FaultInjector(
            [FaultRule("shard.execute", ShardCrashError, key="victim")]
        )
        faults.check("shard.execute", "bystander")
        with pytest.raises(ShardCrashError):
            faults.check("shard.execute", "victim")

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
            FaultRule("no.such.site", ExecutionError)
        with pytest.raises(ValueError):
            FaultRule("tape.step", ExecutionError, every=0)
        with pytest.raises(ValueError):
            FaultRule("tape.step", ExecutionError, rate=1.5)

    def test_no_faults_is_silent_and_disabled(self):
        for site in ("store.read", "store.write", "shard.execute"):
            NO_FAULTS.check(site, "anything")
        assert NO_FAULTS.enabled is False
        assert NO_FAULTS.fired == []

    def test_disabling_silences_a_live_schedule(self):
        faults = FaultInjector([FaultRule("tape.step", ExecutionError)])
        faults.enabled = False
        faults.check("tape.step")
        assert faults.fired == []
