"""Property tests for the four-semiring rule-equivalence audit.

Three layers, all seeded through hypothesis so failures replay:

* the audit semirings really are semirings (axioms hold on random carriers);
* every relational rule stays sound over every audit ring at *any* seed —
  the committed rule matrix is not an artifact of seed 0;
* a deliberately unsound rule is caught at any seed — detection is not
  seed luck either.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import rules_audit
from repro.runtime.semiring import AUDIT_SEMIRINGS, SEMIRINGS_BY_NAME
from repro.analysis.selftest import BROKEN_PATTERN, DropSecondFactor
from repro.rules import relational_rules

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

RING_NAMES = sorted(SEMIRINGS_BY_NAME)
ALL_RINGS = frozenset(ring.name for ring in AUDIT_SEMIRINGS)


def _triple(ring, seed):
    rng = np.random.default_rng(seed)
    return [ring.sample(rng, (3, 4)) for _ in range(3)]


class TestSemiringAxioms:
    @SETTINGS
    @given(name=st.sampled_from(RING_NAMES), seed=st.integers(0, 10_000))
    def test_addition_is_associative_and_commutative(self, name, seed):
        ring = SEMIRINGS_BY_NAME[name]
        a, b, c = _triple(ring, seed)
        assert ring.allclose(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c)))
        assert ring.allclose(ring.add(a, b), ring.add(b, a))

    @SETTINGS
    @given(name=st.sampled_from(RING_NAMES), seed=st.integers(0, 10_000))
    def test_multiplication_is_associative_and_commutative(self, name, seed):
        ring = SEMIRINGS_BY_NAME[name]
        a, b, c = _triple(ring, seed)
        assert ring.allclose(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c)))
        assert ring.allclose(ring.mul(a, b), ring.mul(b, a))

    @SETTINGS
    @given(name=st.sampled_from(RING_NAMES), seed=st.integers(0, 10_000))
    def test_multiplication_distributes_over_addition(self, name, seed):
        ring = SEMIRINGS_BY_NAME[name]
        a, b, c = _triple(ring, seed)
        assert ring.allclose(
            ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c))
        )

    @SETTINGS
    @given(name=st.sampled_from(RING_NAMES), seed=st.integers(0, 10_000))
    def test_identities_and_annihilation(self, name, seed):
        ring = SEMIRINGS_BY_NAME[name]
        (a,) = _triple(ring, seed)[:1]
        zero = ring.fill(a.shape, ring.zero)
        one = ring.fill(a.shape, ring.one)
        assert ring.allclose(ring.add(a, zero), a)
        assert ring.allclose(ring.mul(a, one), a)
        assert ring.allclose(ring.mul(a, zero), zero)

    @SETTINGS
    @given(name=st.sampled_from(RING_NAMES), seed=st.integers(0, 10_000))
    def test_declared_idempotence_is_real(self, name, seed):
        ring = SEMIRINGS_BY_NAME[name]
        (a,) = _triple(ring, seed)[:1]
        if ring.idempotent:
            assert ring.allclose(ring.add(a, a), a)
            assert ring.from_int(7) == ring.one
        assert ring.from_int(0) == ring.zero
        assert ring.from_int(1) == ring.one


#: audit one rule per example instead of all 14 — hypothesis varies both the
#: rule and the seed, so the full matrix gets re-derived across examples
RELATIONAL_RULES = list(relational_rules())


class TestRelationalRulesRingSound:
    @SETTINGS
    @given(
        index=st.integers(0, len(RELATIONAL_RULES) - 1),
        seed=st.integers(0, 10_000),
    )
    def test_every_rule_sound_over_every_ring_at_any_seed(self, index, seed):
        rule = RELATIONAL_RULES[index]
        findings, matrix = rules_audit.run_rules_audit(
            trials=1, seed=seed, rules=[rule], patterns=[]
        )
        assert findings == [], [finding.to_dict() for finding in findings]
        verdict = matrix["rules"][f"relational:{rule.name}"]
        assert verdict["candidates_matched"] > 0
        # every R_EQ identity; ``fuse`` places a real-arithmetic kernel
        assert set(verdict["sound_over"]) == ({"real"} if rule.name == "fuse" else ALL_RINGS)
        assert verdict["unsound_in"] == []


class TestBrokenRulesAlwaysCaught:
    @SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_factor_dropping_rule_flagged_at_any_seed(self, seed):
        findings, _ = rules_audit.run_rules_audit(
            trials=1, seed=seed, rules=[DropSecondFactor()], patterns=[]
        )
        assert "declaration-mismatch" in {finding.code for finding in findings}

    @SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_false_catalog_equation_flagged_at_any_seed(self, seed):
        findings, _ = rules_audit.run_rules_audit(
            trials=1, seed=seed, rules=[], patterns=[BROKEN_PATTERN]
        )
        assert "declaration-mismatch" in {finding.code for finding in findings}
