"""Safety tests for the monitor's authorization decision cache.

The cache trades repeated policy walks for drops made by the writers,
so the one property that matters is that it can never serve a *stale
allow*: every mutation that could change a decision — rule revocation, a
more specific rule, identity re-registration, instance churn, an explicit
flush — must take effect on the very next command even when the cache is
hot.  A rule nobody runs under must not cost anybody a hit.  Batched
submission gets the same scrutiny: a rogue re-bind must be caught mid-stream, not
once per kick.
"""

from __future__ import annotations

import pytest

from repro.core.config import AccessMode
from repro.core.policy import ANY, CommandClass
from repro.core.reason import Reason
from repro.harness.builder import build_platform
from repro.sim.timing import get_context
from repro.tpm import marshal
from repro.tpm.constants import TPM_AUTHFAIL, TPM_ORD_PcrRead, TPM_SUCCESS
from repro.util.bytesio import ByteWriter


def _pcr_read_wire(index: int = 0) -> bytes:
    return marshal.build_command(TPM_ORD_PcrRead, ByteWriter().u32(index).getvalue())


def _rc(response: bytes) -> int:
    return marshal.parse_response(response).return_code


@pytest.fixture
def platform():
    return build_platform(AccessMode.IMPROVED, seed=11, name="cache-test")


@pytest.fixture
def guest(platform):
    return platform.add_guest("alice")


class TestCacheBehaviour:
    def test_repeat_command_hits_cache(self, platform, guest):
        monitor = platform.monitor
        wire = _pcr_read_wire()
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS
        misses = monitor.cache_misses
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS
        assert monitor.cache_hits >= 1
        assert monitor.cache_misses == misses  # no new policy walk

    def test_hit_is_cheaper_than_miss(self, platform, guest):
        clock = get_context().clock
        wire = _pcr_read_wire()
        start = clock.now_us
        guest.frontend.transport(wire)
        miss_cost = clock.now_us - start
        start = clock.now_us
        guest.frontend.transport(wire)
        hit_cost = clock.now_us - start
        assert 0 < hit_cost < miss_cost

    def test_hits_still_audit_every_command(self, platform, guest):
        wire = _pcr_read_wire()
        before = len(platform.audit)
        for _ in range(5):
            guest.frontend.transport(wire)
        assert len(platform.audit) == before + 5
        assert platform.audit.verify_chain()

    def test_explicit_invalidate_forces_reauthorization(self, platform, guest):
        monitor = platform.monitor
        wire = _pcr_read_wire()
        guest.frontend.transport(wire)
        guest.frontend.transport(wire)
        misses = monitor.cache_misses
        monitor.invalidate_cache()
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS
        assert monitor.cache_misses == misses + 1


class TestStaleAllowImpossible:
    def test_revocation_denies_next_command_with_hot_cache(self, platform, guest):
        """A revoked grant must not survive even one cached decision."""
        wire = _pcr_read_wire()
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS  # hot
        subject = guest.domain.measurement.hex()
        assert platform.policy.revoke_subject(subject) > 0
        assert _rc(guest.frontend.transport(wire)) == TPM_AUTHFAIL
        assert platform.audit.records()[-1].allowed is False

    def test_instance_churn_invalidates_cache(self, platform, guest):
        monitor = platform.monitor
        wire = _pcr_read_wire()
        guest.frontend.transport(wire)
        guest.frontend.transport(wire)
        misses = monitor.cache_misses
        # Any instance lifecycle event drops every caller's decisions.
        platform.add_guest("bob")
        guest.frontend.transport(wire)
        assert monitor.cache_misses > misses

    def test_recycled_domid_cannot_reuse_stale_allows(self, platform, guest):
        """A domain rebuilt under the same domid is a different principal.

        The cache key carries the caller's live measurement and every
        registry write drops the cache, so the rebuilt domain can neither
        replay the old domain's cached allows nor seed new ones.
        """
        wire = _pcr_read_wire()
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS  # hot
        # Tear down the identity and rebuild "the same" domid with a
        # different kernel — what a reboot-and-replace attack looks like.
        platform.identities.forget(guest.domain.domid)
        guest.domain.kernel_image = b"evil-kernel"
        platform.identities.register(guest.domain)
        assert _rc(guest.frontend.transport(wire)) == TPM_AUTHFAIL
        # And an unregistered rebuild (stale live measurement) also fails.
        platform.identities.forget(guest.domain.domid)
        assert _rc(guest.frontend.transport(wire)) == TPM_AUTHFAIL


def _read_rule(platform, guest):
    """The owner rule granting ``guest`` the read class on its instance."""
    [rule] = [
        rule for rule in platform.policy.rules_for_subject(
            guest.domain.measurement.hex()
        )
        if rule.instance == guest.instance_id
        and rule.command_class is CommandClass.READ
    ]
    return rule


class TestRuleWrites:
    """A rule add or revoke drops only the cached decisions it can change."""

    def test_bystander_rule_costs_no_hit(self, platform, guest):
        monitor = platform.monitor
        wire = _pcr_read_wire()
        guest.frontend.transport(wire)  # warm
        misses, hits = monitor.cache_misses, monitor.cache_hits
        for rule in platform.policy.add_rule("ee" * 32, ANY, CommandClass.READ):
            platform.policy.revoke_rule(rule.rule_id)
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS
        assert monitor.cache_misses == misses
        assert monitor.cache_hits == hits + 1

    def test_revoking_the_granting_rule_denies_the_next_frame(
        self, platform, guest
    ):
        wire = _pcr_read_wire()
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS  # hot
        platform.policy.revoke_rule(_read_rule(platform, guest).rule_id)
        assert _rc(guest.frontend.transport(wire)) == TPM_AUTHFAIL
        assert platform.audit.tail(1)[0].reason == Reason.NO_GRANT.value

    def test_more_specific_rule_names_itself_on_the_next_allow(
        self, platform, guest
    ):
        policy, wire = platform.policy, _pcr_read_wire()
        subject = guest.domain.measurement.hex()
        policy.revoke_rule(_read_rule(platform, guest).rule_id)
        [wildcard] = policy.add_rule(ANY, guest.instance_id, CommandClass.READ)
        guest.frontend.transport(wire)
        guest.frontend.transport(wire)  # hot, under the wildcard
        assert platform.audit.tail(1)[0].reason == f"granted:{wildcard.rule_id}"
        [specific] = policy.add_rule(
            subject, guest.instance_id, CommandClass.READ
        )
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS
        assert platform.audit.tail(1)[0].reason == f"granted:{specific.rule_id}"
        # a same-key re-add takes over the key as well
        [again] = policy.add_rule(subject, guest.instance_id, CommandClass.READ)
        guest.frontend.transport(wire)
        assert platform.audit.tail(1)[0].reason == f"granted:{again.rule_id}"


class TestBatchedSubmission:
    def test_batch_responses_match_sequential(self, platform, guest):
        wires = [_pcr_read_wire(i) for i in range(8)]
        sequential = [guest.frontend.transport(w) for w in wires]
        batched = guest.frontend.transport_batch(wires)
        assert batched == sequential

    def test_rogue_rebind_blocked_with_hot_cache(self, platform, guest):
        """A forged victim instance id is denied per-frame, cache or no."""
        from repro.util.errors import VtpmError

        victim = platform.add_guest("victim")
        wire = _pcr_read_wire()
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS  # warm
        # The fail-closed backend refuses the re-bind outright...
        with pytest.raises(VtpmError):
            guest.backend.rebind(victim.instance_id)
        # ...and even a batch forged straight at the manager claiming the
        # victim's instance id is denied on every frame despite the hot
        # cache — the decisions are per (subject, instance), not per ring.
        responses = platform.manager.handle_batch(
            guest.domain.domid, victim.instance_id, [wire] * 4
        )
        assert [_rc(r) for r in responses] == [TPM_AUTHFAIL] * 4
        # The guest's own connection is untouched by the refused re-bind.
        assert guest.backend.instance_id == guest.instance_id
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS

    def test_revocation_lands_between_batches(self, platform, guest):
        wire = _pcr_read_wire()
        ok = guest.frontend.transport_batch([wire] * 4)
        assert all(_rc(r) == TPM_SUCCESS for r in ok)
        platform.policy.revoke_subject(guest.domain.measurement.hex())
        denied = guest.frontend.transport_batch([wire] * 4)
        assert all(_rc(r) == TPM_AUTHFAIL for r in denied)
