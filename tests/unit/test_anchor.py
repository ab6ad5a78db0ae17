"""Unit tests for hardware-anchored audit logs."""

import pytest

from repro.core.anchor import Anchor, AuditAnchor
from repro.core.audit import AuditLog, AuditRecord
from repro.core.hwroot import HardwareRoot
from repro.util.errors import AccessControlError

AREA_AUTH = b"anchor-area-auth!!!!"
CTR_AUTH = b"anchor-counter-au!!!"


@pytest.fixture
def hw(rng):
    return HardwareRoot(rng.fork("hw"))


@pytest.fixture
def anchor_client(hw):
    return AuditAnchor(hw, AREA_AUTH, CTR_AUTH)


def _filled_log(n: int = 5) -> AuditLog:
    log = AuditLog()
    for i in range(n):
        log.append(f"s{i}", i % 2, "TPM_Extend", True, f"rule {i}")
    return log


class TestAnchoring:
    def test_empty_log_refused(self, anchor_client):
        with pytest.raises(AccessControlError):
            anchor_client.anchor(AuditLog())

    def test_anchor_and_verify_clean(self, anchor_client):
        log = _filled_log()
        anchor = anchor_client.anchor(log)
        assert anchor.sequence == 5
        ok, reason = anchor_client.verify(log)
        assert ok, reason

    def test_no_anchor_yet_verifies(self, anchor_client):
        ok, reason = anchor_client.verify(_filled_log())
        assert ok and "no anchors" in reason

    def test_growth_after_anchor_still_verifies(self, anchor_client):
        log = _filled_log()
        anchor_client.anchor(log)
        log.append("late", 9, "TPM_Quote", True, "rule")
        ok, _ = anchor_client.verify(log)
        assert ok

    def test_truncation_detected(self, anchor_client):
        log = _filled_log()
        anchor_client.anchor(log)
        # Truncate to three entries; the head is the third entry's hash.
        head = log.head_at(3)
        del log._ids[3:]
        del log._times[3:]
        log._head = head
        assert log.verify_chain()
        ok, reason = anchor_client.verify(log)
        assert not ok and "truncated" in reason

    def test_regenerated_log_detected(self, anchor_client):
        """An attacker rebuilds a same-length log from genesis: the chain
        verifies internally but the anchored head differs."""
        log = _filled_log()
        anchor_client.anchor(log)
        forged = AuditLog()
        for i in range(5):
            forged.append(f"s{i}", i % 2, "TPM_Extend", True, "innocuous")
        assert forged.verify_chain()
        ok, reason = anchor_client.verify(forged)
        assert not ok and "regenerated" in reason

    def test_edited_record_detected(self, anchor_client):
        log = _filled_log()
        anchor_client.anchor(log)
        log._table.append(log._table[log._ids[2]][:4] + ("edited",))
        log._ids[2] = len(log._table) - 1
        ok, reason = anchor_client.verify(log)
        assert not ok and "chain broken" in reason

    def test_dropped_last_entry_detected(self, anchor_client):
        log = _filled_log()
        anchor_client.anchor(log)
        log._ids.pop()
        log._times.pop()
        ok, reason = anchor_client.verify(log)
        assert not ok and "chain broken" in reason

    def test_anchor_and_verify_build_no_records(self, anchor_client,
                                                monkeypatch):
        log = AuditLog()
        for i in range(1_000):
            log.append_buffered(f"s{i % 3}", i % 2, "TPM_Extend", True, "r")
        built = []
        monkeypatch.setattr(
            AuditRecord, "__init__",
            lambda record, *args, **kwargs: built.append(args),
        )
        anchor = anchor_client.anchor(log)
        ok, reason = anchor_client.verify(log)
        assert ok, reason
        assert anchor.sequence == 1_000
        assert built == []

    def test_stale_anchor_replay_detected(self, anchor_client, hw):
        """Restoring an old NV image cannot hide later anchors: the
        monotonic counter disagrees."""
        from repro.core.anchor import ANCHOR_NV_INDEX, ANCHOR_SIZE

        log = _filled_log()
        first = anchor_client.anchor(log)
        stale_nv = hw.client.nv_read(
            ANCHOR_NV_INDEX, 0, ANCHOR_SIZE, auth=AREA_AUTH
        )
        log.append("x", 0, "TPM_Sign", True, "r")
        anchor_client.anchor(log)
        # Attacker restores the older NV content (counter cannot rewind).
        hw.client.nv_write(AREA_AUTH, ANCHOR_NV_INDEX, 0, stale_nv)
        ok, reason = anchor_client.verify(log)
        assert not ok and "replayed" in reason
        assert first.count == 1

    def test_anchor_serialization_roundtrip(self):
        anchor = Anchor(count=3, sequence=17, chain_head=b"\x42" * 32)
        assert Anchor.deserialize(anchor.serialize()) == anchor

    def test_multiple_anchors_monotonic(self, anchor_client):
        log = _filled_log()
        a1 = anchor_client.anchor(log)
        log.append("x", 0, "TPM_Sign", True, "r")
        a2 = anchor_client.anchor(log)
        assert a2.count == a1.count + 1
        assert a2.sequence == a1.sequence + 1
        assert anchor_client.counter_anchor_count() == 2
