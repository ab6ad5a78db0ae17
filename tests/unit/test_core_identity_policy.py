"""Unit tests for the identity registry and the policy engine."""

import pytest

from repro.core.identity import DomainIdentity, IdentityRegistry, measure_domain
from repro.core.policy import (
    ANY,
    CommandClass,
    PolicyEngine,
    classify_ordinal,
)
from repro.crypto.random_source import RandomSource
from repro.tpm import constants as tc
from repro.util.errors import AccessControlError, IdentityError
from repro.xen.hypervisor import Xen


@pytest.fixture
def xen():
    return Xen(RandomSource(b"idpol"))


class TestIdentity:
    def test_measurement_depends_on_kernel(self, xen):
        a = xen.create_domain("a", b"kernel-v1")
        b = xen.create_domain("b", b"kernel-v2")
        assert measure_domain(a) != measure_domain(b)

    def test_measurement_depends_on_name(self, xen):
        a = xen.create_domain("name-a", b"same-kernel")
        b = xen.create_domain("name-b", b"same-kernel")
        assert measure_domain(a) != measure_domain(b)

    def test_measurement_depends_on_config(self, xen):
        a = xen.create_domain("a", b"k", config={"vtpm": "1"})
        b = xen.create_domain("b", b"k", config={"vtpm": "1", "extra": "x"})
        assert measure_domain(a) != measure_domain(b)

    def test_config_order_irrelevant(self, xen):
        a = xen.create_domain("same", b"k", config={"x": "1", "y": "2"})
        m1 = measure_domain(a)
        a.config = {"y": "2", "x": "1"}
        assert measure_domain(a) == m1

    def test_register_then_verify(self, xen):
        registry = IdentityRegistry()
        domain = xen.create_domain("g", b"k")
        identity = registry.register(domain)
        assert registry.verify_current(domain) == identity
        assert domain.measurement == identity.measurement

    def test_unregistered_verify_fails(self, xen):
        registry = IdentityRegistry()
        domain = xen.create_domain("g", b"k")
        with pytest.raises(IdentityError, match="never measured"):
            registry.verify_current(domain)

    def test_tampered_live_measurement_fails(self, xen):
        registry = IdentityRegistry()
        domain = xen.create_domain("g", b"k")
        registry.register(domain)
        domain.measurement = b"\x00" * 32  # rebuilt with different kernel
        with pytest.raises(IdentityError, match="mismatch"):
            registry.verify_current(domain)

    def test_forget(self, xen):
        registry = IdentityRegistry()
        domain = xen.create_domain("g", b"k")
        registry.register(domain)
        registry.forget(domain.domid)
        assert registry.lookup(domain.domid) is None

    def test_identity_requires_sha256_size(self):
        with pytest.raises(IdentityError):
            DomainIdentity(measurement=b"short", name="x", uuid="y")

    def test_short_form(self, xen):
        registry = IdentityRegistry()
        identity = registry.register(xen.create_domain("g", b"k"))
        assert len(identity.short()) == 12
        assert identity.hex.startswith(identity.short())


SUBJ_A = "aa" * 32
SUBJ_B = "bb" * 32


class TestPolicyEngine:
    def test_deny_by_default(self):
        engine = PolicyEngine()
        decision = engine.decide(SUBJ_A, 1, tc.TPM_ORD_PcrRead)
        assert not decision.allowed

    def test_exact_grant(self):
        engine = PolicyEngine()
        engine.add_rule(SUBJ_A, 1, CommandClass.READ)
        assert engine.decide(SUBJ_A, 1, tc.TPM_ORD_PcrRead).allowed
        assert not engine.decide(SUBJ_A, 2, tc.TPM_ORD_PcrRead).allowed
        assert not engine.decide(SUBJ_B, 1, tc.TPM_ORD_PcrRead).allowed

    def test_class_granularity(self):
        engine = PolicyEngine()
        engine.add_rule(SUBJ_A, 1, CommandClass.READ)
        assert not engine.decide(SUBJ_A, 1, tc.TPM_ORD_Extend).allowed
        assert not engine.decide(SUBJ_A, 1, tc.TPM_ORD_OwnerClear).allowed

    def test_wildcard_subject(self):
        engine = PolicyEngine()
        engine.add_rule(ANY, 1, CommandClass.READ)
        assert engine.decide(SUBJ_A, 1, tc.TPM_ORD_PcrRead).allowed
        assert engine.decide(SUBJ_B, 1, tc.TPM_ORD_PcrRead).allowed

    def test_wildcard_instance(self):
        engine = PolicyEngine()
        engine.add_rule(SUBJ_A, ANY, CommandClass.MEASURE)
        assert engine.decide(SUBJ_A, 7, tc.TPM_ORD_Extend).allowed
        assert engine.decide(SUBJ_A, 8, tc.TPM_ORD_Extend).allowed

    def test_grant_owner_covers_normal_use(self):
        engine = PolicyEngine()
        engine.grant_owner(SUBJ_A, 3)
        for ordinal in (
            tc.TPM_ORD_PcrRead, tc.TPM_ORD_Extend, tc.TPM_ORD_Quote,
            tc.TPM_ORD_Seal, tc.TPM_ORD_TakeOwnership, tc.TPM_ORD_OIAP,
            tc.TPM_ORD_NV_WriteValue,
        ):
            assert engine.decide(SUBJ_A, 3, ordinal).allowed, hex(ordinal)

    def test_unknown_ordinal_never_allowed(self):
        engine = PolicyEngine()
        engine.grant_owner(SUBJ_A, 1)
        assert not engine.decide(SUBJ_A, 1, 0x7FFFFFFF).allowed

    def test_revoke_rule(self):
        engine = PolicyEngine()
        [rule] = engine.add_rule(SUBJ_A, 1, CommandClass.READ)
        engine.revoke_rule(rule.rule_id)
        assert not engine.decide(SUBJ_A, 1, tc.TPM_ORD_PcrRead).allowed

    def test_revoke_subject_removes_everything(self):
        engine = PolicyEngine()
        engine.grant_owner(SUBJ_A, 1)
        engine.grant_owner(SUBJ_B, 1)
        removed = engine.revoke_subject(SUBJ_A)
        assert removed == 6
        assert not engine.decide(SUBJ_A, 1, tc.TPM_ORD_PcrRead).allowed
        assert engine.decide(SUBJ_B, 1, tc.TPM_ORD_PcrRead).allowed

    def test_revoke_unknown_rule_rejected(self):
        with pytest.raises(AccessControlError):
            PolicyEngine().revoke_rule(42)

    def test_empty_classes_rejected(self):
        with pytest.raises(AccessControlError):
            PolicyEngine().add_rule(SUBJ_A, 1, [])

    def test_decision_carries_rule_id(self):
        engine = PolicyEngine()
        [rule] = engine.add_rule(SUBJ_A, 1, CommandClass.READ)
        decision = engine.decide(SUBJ_A, 1, tc.TPM_ORD_PcrRead)
        assert decision.rule_id == rule.rule_id

    def test_rule_count(self):
        engine = PolicyEngine()
        engine.grant_owner(SUBJ_A, 1)
        assert engine.rule_count == 6

    def test_revoking_newer_same_key_rule_keeps_the_older(self):
        engine = PolicyEngine()
        [first] = engine.add_rule(SUBJ_A, 1, CommandClass.READ)
        [second] = engine.add_rule(SUBJ_A, 1, CommandClass.READ)
        assert engine.decide(SUBJ_A, 1, tc.TPM_ORD_PcrRead).rule_id == (
            second.rule_id
        )
        engine.revoke_rule(second.rule_id)
        assert engine.decide(SUBJ_A, 1, tc.TPM_ORD_PcrRead).rule_id == (
            first.rule_id
        )

    def test_revoking_older_same_key_rule_keeps_the_newer(self):
        engine = PolicyEngine()
        [first] = engine.add_rule(SUBJ_A, 1, CommandClass.READ)
        [second] = engine.add_rule(SUBJ_A, 1, CommandClass.READ)
        engine.revoke_rule(first.rule_id)
        assert engine.decide(SUBJ_A, 1, tc.TPM_ORD_PcrRead).rule_id == (
            second.rule_id
        )

    def test_every_revoke_agrees_with_a_round_trip(self):
        """After each revoke, the live engine decides as one rebuilt from
        its own serialization (rule ids mapped by rank) and grants the
        classes :meth:`granted_classes` lists."""
        import random

        subjects, instances = (SUBJ_A, SUBJ_B, ANY), (1, 2, ANY)
        classes = (CommandClass.READ, CommandClass.MEASURE)
        ordinals = {
            CommandClass.READ: tc.TPM_ORD_PcrRead,
            CommandClass.MEASURE: tc.TPM_ORD_Extend,
        }
        engine = PolicyEngine()
        rules = []
        for subject in subjects:
            for instance in instances:
                for cls in classes:
                    for _ in range(2):  # every key held by two rules
                        rules += engine.add_rule(subject, instance, cls)
        random.Random(7).shuffle(rules)
        for rule in rules:
            engine.revoke_rule(rule.rule_id)
            rebuilt = PolicyEngine.deserialize(engine.serialize())
            live_ids = sorted(
                r.rule_id for subject in subjects
                for r in engine.rules_for_subject(subject)
            )
            rank = {rule_id: n for n, rule_id in enumerate(live_ids, 1)}
            rank[None] = None
            for subject in (SUBJ_A, SUBJ_B):
                for instance in (1, 2):
                    granted = engine.granted_classes(subject, instance)
                    assert granted == rebuilt.granted_classes(
                        subject, instance
                    )
                    for cls in classes:
                        live = engine.decide(subject, instance, ordinals[cls])
                        again = rebuilt.decide(
                            subject, instance, ordinals[cls]
                        )
                        assert live.reason is again.reason
                        assert rank[live.rule_id] == again.rule_id
                        assert live.allowed == (cls in granted)
        assert engine.rule_count == 0


class TestClassification:
    def test_every_implemented_ordinal_classified(self):
        from repro.tpm.dispatch import registered_ordinals

        for ordinal in registered_ordinals():
            assert classify_ordinal(ordinal) is not CommandClass.UNKNOWN, (
                f"ordinal {ordinal:#x} has no policy class"
            )

    def test_specific_classes(self):
        assert classify_ordinal(tc.TPM_ORD_Extend) is CommandClass.MEASURE
        assert classify_ordinal(tc.TPM_ORD_Quote) is CommandClass.USE_KEY
        assert classify_ordinal(tc.TPM_ORD_OwnerClear) is CommandClass.OWNER_ADMIN
        assert classify_ordinal(tc.TPM_ORD_OIAP) is CommandClass.SESSION
        assert classify_ordinal(0xDEADBEEF) is CommandClass.UNKNOWN
