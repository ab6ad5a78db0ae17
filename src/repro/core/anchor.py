"""Audit-log anchoring in the hardware TPM.

The hash-chained :class:`~repro.core.audit.AuditLog` detects *edits*, but
an attacker who later owns the manager could regenerate a shorter chain
from genesis and present it as complete.  Anchoring closes that hole:
periodically the manager writes ``(sequence, chain head)`` into a
hardware-TPM NV area and bumps a hardware monotonic counter.  A verifier
who trusts only the hardware TPM can then demand that the presented log

* reaches at least the anchored sequence number,
* has exactly the anchored chain head at that sequence, and
* matches the counter's anchor count.

Rolling the log back past an anchor now requires rewinding the hardware
counter — which TPM 1.2 counters cannot do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.audit import AuditLog
from repro.core.hwroot import HardwareRoot
from repro.tpm.nvram import NV_PER_AUTHREAD, NV_PER_AUTHWRITE
from repro.util.bytesio import ByteReader, ByteWriter
from repro.util.errors import AccessControlError

ANCHOR_NV_INDEX = 0x00A0D17  # "AUDIT"-ish index in owner space
ANCHOR_SIZE = 4 + 8 + 32     # count(4) + sequence(8) + chain head(32)


@dataclass(frozen=True)
class Anchor:
    """One anchored checkpoint."""

    count: int          # how many anchors ever written (counter value delta)
    sequence: int       # number of records covered (log length at anchor)
    chain_head: bytes   # AuditLog head after `sequence` records

    def serialize(self) -> bytes:
        w = ByteWriter()
        w.u32(self.count)
        w.u64(self.sequence)
        w.raw(self.chain_head)
        return w.getvalue()

    @staticmethod
    def deserialize(data: bytes) -> "Anchor":
        r = ByteReader(data)
        count = r.u32()
        sequence = r.u64()
        chain_head = r.raw(32)
        r.expect_end()
        return Anchor(count=count, sequence=sequence, chain_head=chain_head)


class AuditAnchor:
    """Manager-side anchoring client over the hardware TPM."""

    def __init__(
        self,
        hw: HardwareRoot,
        area_auth: bytes,
        counter_auth: bytes,
    ) -> None:
        self._client = hw.client
        self._area_auth = area_auth
        self._counter_auth = counter_auth
        hw.nv_define(
            ANCHOR_NV_INDEX, ANCHOR_SIZE,
            NV_PER_AUTHREAD | NV_PER_AUTHWRITE, area_auth,
        )
        self._counter_handle, self._counter_base = hw.create_counter(
            counter_auth, b"audt"
        )
        self.anchors_written = 0

    # -- writing ---------------------------------------------------------------

    def anchor(self, log: AuditLog) -> Anchor:
        """Checkpoint the log's current head into hardware."""
        if len(log) == 0:
            raise AccessControlError("refusing to anchor an empty log")
        value = self._client.increment_counter(self._counter_auth, self._counter_handle)
        anchor = Anchor(
            count=value - self._counter_base,
            sequence=len(log),
            chain_head=log.chain_head(),
        )
        self._client.nv_write(self._area_auth, ANCHOR_NV_INDEX, 0, anchor.serialize())
        self.anchors_written += 1
        return anchor

    # -- verifying -----------------------------------------------------------------

    def read_anchor(self) -> Optional[Anchor]:
        """The latest hardware-held checkpoint (None before first anchor)."""
        data = self._client.nv_read(
            ANCHOR_NV_INDEX, 0, ANCHOR_SIZE, auth=self._area_auth
        )
        if data == b"\xff" * ANCHOR_SIZE:
            return None
        return Anchor.deserialize(data)

    def counter_anchor_count(self) -> int:
        """How many anchors the hardware counter has witnessed."""
        return self._client.read_counter(self._counter_handle) - self._counter_base

    def verify(self, log: AuditLog) -> tuple[bool, str]:
        """Check a presented log against the hardware state.

        Returns (ok, reason).  Catches in-place edits (chain), truncation
        below the anchored sequence, head substitution at the anchored
        sequence, and anchor-count mismatches (a replayed old NV image).
        """
        if not log.verify_chain():
            return False, "hash chain broken (record edited)"
        anchor = self.read_anchor()
        witnessed = self.counter_anchor_count()
        if anchor is None:
            if witnessed != 0:
                return False, (
                    f"counter witnessed {witnessed} anchors but NV holds none "
                    "(anchor area rolled back)"
                )
            return True, "no anchors yet; chain self-consistent"
        if anchor.count != witnessed:
            return False, (
                f"NV anchor #{anchor.count} but counter witnessed {witnessed} "
                "(stale anchor replayed)"
            )
        if len(log) < anchor.sequence:
            return False, (
                f"log has {len(log)} records but hardware anchored "
                f"{anchor.sequence} (truncated)"
            )
        if log.head_at(anchor.sequence) != anchor.chain_head:
            return False, "chain head at anchored sequence differs (regenerated log)"
        return True, f"anchored at sequence {anchor.sequence}, chain intact"
