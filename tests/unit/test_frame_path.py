"""The per-frame command path: authorization under mid-batch change, the
unknown-instance denial, and a deterministic guard on per-frame work.

A notify's frames share one caller domain and one manager vCPU, so the
manager resolves those once per notify; everything that can change a
decision — rules, identities, the instance itself — is still checked on
every frame.  The count guard uses call-counting wrappers, not timings,
so it is exact and host-independent.
"""

from __future__ import annotations

import pytest

import repro.core.audit as audit_mod
import repro.core.monitor as monitor_mod
import repro.core.policy as policy_mod
import repro.tpm.constants as constants_mod
import repro.xen.ring as ring_mod
from repro.core.config import AccessMode
from repro.core.reason import Reason
from repro.harness.builder import build_platform
from repro.obs.counters import CounterRegistry, registry_scope
from repro.sim.clock import VirtualClock
from repro.tpm import marshal
from repro.tpm.constants import (
    TPM_AUTHFAIL,
    TPM_ORD_PcrRead,
    TPM_SUCCESS,
    ordinal_name,
)
from repro.util.bytesio import ByteWriter
from repro.util.errors import VtpmError
from repro.xen.hypervisor import Xen


def _pcr_read_wire(index: int = 0) -> bytes:
    return marshal.build_command(
        TPM_ORD_PcrRead, ByteWriter().u32(index).getvalue()
    )


def _rc(response: bytes) -> int:
    return marshal.parse_response(response).return_code


@pytest.fixture
def platform():
    return build_platform(AccessMode.IMPROVED, seed=11, name="frame-path")


@pytest.fixture
def guest(platform):
    return platform.add_guest("alice")


# -- a rebind to, or a frame for, an instance that does not exist ------------------


class TestUnknownInstance:
    def test_improved_rebind_to_missing_instance_is_refused_and_audited(
        self, platform, guest
    ):
        audit_before = len(platform.audit)
        denials_before = platform.monitor.denials
        with pytest.raises(VtpmError, match="no vTPM instance 999"):
            guest.backend.rebind(999)
        assert guest.backend.instance_id == guest.instance_id
        assert platform.monitor.denials == denials_before + 1
        assert len(platform.audit) == audit_before + 1
        record = platform.audit.records()[-1]
        assert (record.operation, record.instance, record.allowed) == (
            "VTPM_Rebind", 999, False,
        )
        assert Reason.from_record(record.reason) is Reason.BINDING_MISMATCH
        # The refused rebind left the connection working.
        assert _rc(guest.frontend.transport(_pcr_read_wire())) == TPM_SUCCESS

    def test_baseline_rebind_keeps_stock_behaviour(self):
        platform = build_platform(AccessMode.BASELINE, seed=11, name="stock")
        guest = platform.add_guest("alice")
        guest.backend.rebind(999)
        assert guest.backend.instance_id == 999

    def test_unknown_instance_frames_are_counted_denials(self):
        platform = build_platform(AccessMode.BASELINE, seed=11, name="stock")
        guest = platform.add_guest("alice")
        guest.backend.rebind(999)
        manager = platform.manager
        denied_before = manager.commands_denied
        registry = CounterRegistry()
        with registry_scope(registry):
            responses = guest.frontend.transport_batch([_pcr_read_wire()] * 3)
        assert [_rc(r) for r in responses] == [TPM_AUTHFAIL] * 3
        assert manager.commands_denied == denied_before + 3
        assert registry.value("vtpm.unknown_instance") == 3

    def test_lookup_of_a_missing_instance_raises(self, platform):
        with pytest.raises(VtpmError, match="no vTPM instance 999"):
            platform.manager.instance(999)

    def test_direct_command_for_unknown_instance_is_counted(
        self, platform, guest
    ):
        manager = platform.manager
        denied_before = manager.commands_denied
        [response] = manager.handle_batch(
            guest.domain.domid, 999, [_pcr_read_wire()]
        )
        assert _rc(response) == TPM_AUTHFAIL
        assert manager.commands_denied == denied_before + 1


# -- ordinal names ---------------------------------------------------------------------


class TestOrdinalName:
    def test_unknown_ordinal_name_is_unchanged(self):
        assert ordinal_name(0xDEADBEEF) == "TPM_ORD_0xdeadbeef"
        assert ordinal_name(0) == "TPM_ORD_0x00000000"

    def test_monitor_table_agrees_with_the_sources(self):
        for ordinal, (cls, value, name) in monitor_mod._ORDINALS.items():
            assert cls is policy_mod.classify_ordinal(ordinal)
            assert value == cls.value
            assert name == ordinal_name(ordinal)


# -- authorization stays per frame under mid-batch change --------------------------


def _after_frame(instance, frame: int, action) -> None:
    """Run ``action`` right after the instance's device executes ``frame``."""
    device = instance.device
    execute = device.execute
    calls = [0]

    def wrapped(*args, **kwargs):
        response = execute(*args, **kwargs)
        calls[0] += 1
        if calls[0] == frame:
            action()
        return response

    device.execute = wrapped


class TestMidBatchChange:
    FRAMES = 8
    CHANGE_AFTER = 3

    def _batch(self, platform, guest, action):
        instance = platform.manager.instance(guest.instance_id)
        wire = _pcr_read_wire()
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS  # warm
        _after_frame(instance, self.CHANGE_AFTER, action)
        audit_before = len(platform.audit)
        responses = guest.frontend.transport_batch([wire] * self.FRAMES)
        return [_rc(r) for r in responses], audit_before

    def _expected_codes(self):
        denied = self.FRAMES - self.CHANGE_AFTER
        return [TPM_SUCCESS] * self.CHANGE_AFTER + [TPM_AUTHFAIL] * denied

    def test_revoked_rules_deny_the_rest_as_no_grant(self, platform, guest):
        policy = platform.policy

        def revoke():
            for rule in policy.rules_for_instance(guest.instance_id):
                policy.revoke_rule(rule.rule_id)

        codes, audit_before = self._batch(platform, guest, revoke)
        assert codes == self._expected_codes()
        records = platform.audit.records()[audit_before:]
        assert len(records) == self.FRAMES
        assert [Reason.from_record(r.reason) for r in records] == (
            [Reason.GRANTED] * self.CHANGE_AFTER
            + [Reason.NO_GRANT] * (self.FRAMES - self.CHANGE_AFTER)
        )

    def test_forgotten_identity_denies_the_rest_as_unregistered(
        self, platform, guest
    ):
        def forget():
            platform.identities.forget(guest.domain.domid)

        codes, audit_before = self._batch(platform, guest, forget)
        assert codes == self._expected_codes()
        records = platform.audit.records()[audit_before:]
        assert [Reason.from_record(r.reason) for r in records] == (
            [Reason.GRANTED] * self.CHANGE_AFTER
            + [Reason.UNREGISTERED_IDENTITY] * (self.FRAMES - self.CHANGE_AFTER)
        )

    def test_destroyed_instance_denies_and_counts_the_rest(
        self, platform, guest
    ):
        manager = platform.manager
        denied_before = manager.commands_denied

        def destroy():
            manager.destroy_instance(guest.instance_id, persist=False)

        registry = CounterRegistry()
        with registry_scope(registry):
            codes, _ = self._batch(platform, guest, destroy)
        assert codes == self._expected_codes()
        rest = self.FRAMES - self.CHANGE_AFTER
        assert manager.commands_denied == denied_before + rest
        assert registry.value("vtpm.unknown_instance") == rest


# -- deterministic guard on per-frame work ------------------------------------------


def _counted(fn):
    """``fn`` behind a wrapper that counts its calls in ``.calls``."""

    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return fn(*args, **kwargs)

    wrapper.calls = 0
    return wrapper


class TestPerFrameWorkGuard:
    FRAMES = 8

    def test_warm_notify_does_only_per_frame_work(
        self, platform, guest, monkeypatch
    ):
        wire = _pcr_read_wire()
        guest.frontend.transport_batch([wire] * self.FRAMES)  # warm
        hits_before = platform.monitor.cache_hits

        domain = _counted(Xen.domain)
        monkeypatch.setattr(Xen, "domain", domain)
        classify = _counted(policy_mod.classify_ordinal)
        name = _counted(constants_mod.ordinal_name)
        for module in (monitor_mod, policy_mod):
            monkeypatch.setattr(module, "classify_ordinal", classify)
        for module in (monitor_mod, constants_mod):
            monkeypatch.setattr(module, "ordinal_name", name)
        clock_reads = _counted(VirtualClock.now_us.fget)
        monkeypatch.setattr(VirtualClock, "now_us", property(clock_reads))

        responses = guest.frontend.transport_batch([wire] * self.FRAMES)

        assert [_rc(r) for r in responses] == [TPM_SUCCESS] * self.FRAMES
        assert platform.monitor.cache_hits == hits_before + self.FRAMES
        assert domain.calls <= 2  # caller and manager, once per notify
        assert classify.calls == 0
        assert name.calls == 0
        assert clock_reads.calls == 0

    def test_warm_notify_appends_by_audit_id(
        self, platform, guest, monkeypatch
    ):
        """A cached allow keeps its audit id: no decision is interned and
        no entry is encoded from its fields, yet every frame is logged."""
        wire = _pcr_read_wire()
        guest.frontend.transport_batch([wire] * self.FRAMES)  # warm
        audit_before = len(platform.audit)

        intern = _counted(audit_mod.AuditLog.intern)
        monkeypatch.setattr(audit_mod.AuditLog, "intern", intern)
        encode = _counted(audit_mod.encode_entry)
        monkeypatch.setattr(audit_mod, "encode_entry", encode)
        suffix = _counted(audit_mod.encode_suffix)
        monkeypatch.setattr(audit_mod, "encode_suffix", suffix)

        responses = guest.frontend.transport_batch([wire] * self.FRAMES)

        assert [_rc(r) for r in responses] == [TPM_SUCCESS] * self.FRAMES
        assert len(platform.audit) == audit_before + self.FRAMES
        assert intern.calls == 0
        assert encode.calls == 0
        assert suffix.calls == 0
        monkeypatch.undo()
        assert platform.audit.verify_chain()

    def test_frame_and_batch_share_one_frame_function(
        self, platform, guest, monkeypatch
    ):
        """The one-frame ring layout, a batch and a direct manager call
        all reach the manager's single entry point and its frame function."""
        manager = platform.manager
        batch = _counted(manager.handle_batch)
        frame = _counted(manager._dispatch_frame)
        monkeypatch.setattr(manager, "handle_batch", batch)
        monkeypatch.setattr(manager, "_dispatch_frame", frame)
        wire = _pcr_read_wire()
        guest.frontend.transport(wire)
        guest.frontend.transport_batch([wire] * 2)
        manager.handle_batch(guest.domain.domid, guest.instance_id, [wire])
        assert batch.calls == 3
        assert frame.calls == 4


# -- the ring's shed handling ------------------------------------------------------


class TestShedMerge:
    """The back-end answers only admitted frames; the ring merges shed
    verdicts back in, and skips the merge when nothing was shed."""

    FRAMES = 6

    def _spy(self, ring, monkeypatch):
        """Record the frame lists the ring decodes, its back-end receives
        and returns, and the response list the ring packs."""
        seen = {"decoded": [], "received": [], "returned": [], "packed": []}
        backend = ring._batch_backend

        def batch_backend(wires):
            seen["received"].append(wires)
            seen["returned"].append(backend(wires))
            return seen["returned"][-1]

        monkeypatch.setattr(ring, "_batch_backend", batch_backend)
        pack, unpack = ring_mod._pack_vector, ring_mod._unpack_vector

        def packing(status, frames):
            if status == ring_mod.STATUS_BATCH_RESPONSE:
                seen["packed"].append(frames)
            return pack(status, frames)

        def unpacking(page, count):
            frames, offset = unpack(page, count)
            seen["decoded"].append(frames)
            return frames, offset

        monkeypatch.setattr(ring_mod, "_pack_vector", packing)
        monkeypatch.setattr(ring_mod, "_unpack_vector", unpacking)
        return seen

    def _wires(self):
        return [_pcr_read_wire(i % 4) for i in range(self.FRAMES)]

    def test_all_admitted_passes_the_lists_through(
        self, platform, guest, monkeypatch
    ):
        ring = guest.frontend.ring
        ring.set_admission(lambda wires: [None] * len(wires))
        seen = self._spy(ring, monkeypatch)
        responses = guest.frontend.transport_batch(self._wires())
        assert [_rc(r) for r in responses] == [TPM_SUCCESS] * self.FRAMES
        [received], [returned], [packed] = (
            seen["received"], seen["returned"], seen["packed"],
        )
        # the back-end got the decoded submission, and its answer was
        # packed, each list as is
        assert received is seen["decoded"][0]  # [1] is the front-end's
        assert packed is returned
        assert responses == returned

    def test_partly_shed_answers_every_frame_in_order(
        self, platform, guest, monkeypatch
    ):
        ring = guest.frontend.ring
        shed = {1: b"shed-1", 4: b"shed-4", 5: b"shed-5"}
        ring.set_admission(
            lambda wires: [shed.get(i) for i in range(len(wires))]
        )
        seen = self._spy(ring, monkeypatch)
        wires = self._wires()
        responses = guest.frontend.transport_batch(wires)
        [received], [returned] = seen["received"], seen["returned"]
        assert received == [w for i, w in enumerate(wires) if i not in shed]
        answers = iter(returned)
        assert responses == [
            shed[i] if i in shed else next(answers)
            for i in range(self.FRAMES)
        ]
        assert [_rc(r) for i, r in enumerate(responses) if i not in shed] == (
            [TPM_SUCCESS] * (self.FRAMES - len(shed))
        )


# -- the test-only stale-cache bug keeps its exact shape ---------------------------


class TestInjectedStaleEpoch:
    def test_stale_policy_epoch_survives_revocation_only(
        self, platform, guest, monkeypatch
    ):
        monkeypatch.setattr(monitor_mod, "INJECT_STALE_POLICY_EPOCH", True)
        wire = _pcr_read_wire()
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS  # hot
        platform.policy.revoke_subject(guest.domain.measurement.hex())
        # The injected bug: the revoke drops no cached decision, so the
        # allow survives.
        assert _rc(guest.frontend.transport(wire)) == TPM_SUCCESS
        # Only rule writes drop no cached decision; a whole-cache drop
        # (as an identity write makes) still ends the allow.
        platform.monitor.invalidate_cache()
        assert _rc(guest.frontend.transport(wire)) == TPM_AUTHFAIL
