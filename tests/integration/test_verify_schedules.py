"""Interleaving-sensitivity regression pack.

Three pinned orderings where the outcome genuinely depends on the
schedule — the races the explorer's DPOR swaps exist to probe.  Each is
run in both orders with the expected outcome asserted per order, so a
regression that makes the pipeline order-insensitive in the wrong way
(or order-sensitive in a new way) fails a named test instead of a
random exploration round.

1. revocation vs cached allow — a revocation racing a decision-cache
   hit must invalidate the cached verdict (the stale-epoch bug hook
   proves the test can see the difference);
2. migration offer vs endpoint restart — an offer redeemed before a
   destination crash succeeds, after it fails closed, and the source
   copy survives either order;
3. breaker open vs admission shed — an oversized burst racing a forced
   breaker open sheds for different *reasons* per order, but both
   orders keep zero-silent-drop and the turbulent accept set.
"""

from __future__ import annotations

import pytest

from repro.core.config import AccessMode
from repro.harness.builder import build_platform, fresh_timing_context
from repro.tpm import marshal
from repro.tpm.constants import TPM_RESOURCES, TPM_SUCCESS
from repro.util.errors import MigrationError, VtpmError
from repro.verify.explorer import ScheduleRunner, Step
from repro.verify.model import TURBULENT_CODES


class TestRevocationVsCachedAllow:
    """Schedule: extend (warms the decision cache) → revoke → extend."""

    WARM_FIRST = [
        Step(0, "extend", 3),   # allow, cached
        Step(0, "revoke", 0),   # arg 0 -> MEASURE
        Step(0, "extend", 3),   # must now deny despite the cached allow
    ]
    REVOKE_FIRST = [
        Step(0, "revoke", 0),
        Step(0, "extend", 3),   # computed fresh: deny
        Step(0, "grant", 0),
        Step(0, "extend", 3),   # allow again
    ]

    def test_both_orders_conform(self):
        for schedule in (self.WARM_FIRST, self.REVOKE_FIRST):
            runner = ScheduleRunner(guests=2, seed=301)
            assert runner.run(schedule) == []

    def test_stale_epoch_bug_is_order_sensitive(self):
        """The injected cache bug fails exactly the warm-first order.

        With the cache ignoring rule writes, a verdict cached *before*
        the revocation survives it — so warm-first produces an oracle
        mismatch while revoke-first (nothing cached to go stale) still
        conforms.  This is the asymmetry that makes the race worth
        exploring.
        """
        from repro.core import monitor as monitor_mod

        previous = monitor_mod.INJECT_STALE_POLICY_EPOCH
        monitor_mod.INJECT_STALE_POLICY_EPOCH = True
        try:
            runner = ScheduleRunner(guests=2, seed=302)
            violations = runner.run(self.WARM_FIRST)
            assert violations, "stale cached allow must violate the oracle"
            assert violations[0].kind in ("oracle-mismatch", "denial-count")

            clean = ScheduleRunner(guests=2, seed=303)
            assert clean.run(self.REVOKE_FIRST) == []
        finally:
            monitor_mod.INJECT_STALE_POLICY_EPOCH = previous


class TestMigrationOfferVsRestart:
    """The destination crashing races the offer's redemption."""

    @staticmethod
    def _pair():
        fresh_timing_context()
        source = build_platform(AccessMode.IMPROVED, seed=311, name="vs-src")
        destination = build_platform(
            AccessMode.IMPROVED, seed=312, name="vs-dst"
        )
        guest = source.add_guest("mover")
        guest.client.extend(5, b"\x55" * 20)
        target_vm = destination.xen.create_domain(
            guest.domain.name,
            kernel_image=guest.domain.kernel_image,
            config=dict(guest.domain.config),
        )
        return source, destination, guest, target_vm

    def test_offer_redeemed_before_crash_moves_state(self):
        source, destination, guest, target_vm = self._pair()
        offer = destination.migration.prepare_target()
        txn = source.migration.begin_export_sealed(guest.domain.uuid, offer)
        instance = destination.migration.import_sealed(txn.package, target_vm)
        source.migration.commit_export(txn)
        # State moved; the source copy is gone.
        moved = destination.adopt_migrated(
            guest.domain.name, target_vm, instance.instance_id
        )
        response = moved.frontend.transport(
            marshal.build_command(0x15, (5).to_bytes(4, "big"))  # TPM_ORD_PcrRead
        )
        assert marshal.parse_response(response).return_code == TPM_SUCCESS
        with pytest.raises(VtpmError):
            source.manager.instance_for_vm(guest.domain.uuid)

    def test_crash_before_redemption_fails_closed_and_source_survives(self):
        source, destination, guest, target_vm = self._pair()
        offer = destination.migration.prepare_target()
        txn = source.migration.begin_export_sealed(guest.domain.uuid, offer)
        destination.migration.crash()  # restart wipes in-memory offers
        with pytest.raises(MigrationError, match="offer"):
            destination.migration.import_sealed(txn.package, target_vm)
        source.migration.abort_export(txn)
        # The source instance is intact and still serves its guest.
        assert guest.client.pcr_read(5) is not None

    def test_restart_between_offer_and_export_still_exports(self):
        # A *source* manager restart between offer mint and export: the
        # instance comes back under a new id and the export follows it.
        source, destination, guest, target_vm = self._pair()
        offer = destination.migration.prepare_target()
        source.manager.save_all()
        source.restart_manager(clean=True)
        txn = source.migration.begin_export_sealed(guest.domain.uuid, offer)
        instance = destination.migration.import_sealed(txn.package, target_vm)
        source.migration.commit_export(txn)
        assert instance.instance_id is not None


class TestBreakerOpenVsAdmissionShed:
    """An oversized burst racing a forced breaker open."""

    BURST = 8  # max_depth is 4: the tail of the burst must depth-shed

    @staticmethod
    def _platform():
        from repro.resilience import AdmissionConfig

        fresh_timing_context()
        platform = build_platform(
            AccessMode.IMPROVED, seed=321, name="vs-brk"
        )
        guest = platform.add_guest("g")
        supervisor = platform.enable_supervision(
            admission=AdmissionConfig(max_depth=4, deadline_us=1e9),
        )
        return platform, guest, supervisor

    @classmethod
    def _burst(cls, guest):
        wires = [
            marshal.build_command(0x15, (i % 8).to_bytes(4, "big"))
            for i in range(cls.BURST)
        ]
        return guest.frontend.transport_batch(wires)

    def test_burst_before_breaker_open_sheds_on_depth(self):
        platform, guest, supervisor = self._platform()
        responses = self._burst(guest)
        supervisor.breaker_for(guest.domain.uuid).force_open()
        single = guest.frontend.transport(
            marshal.build_command(0x15, (0).to_bytes(4, "big"))
        )
        codes = [marshal.parse_response(r).return_code for r in responses]
        assert codes.count(TPM_SUCCESS) == 4   # admitted up to max_depth
        assert codes.count(TPM_RESOURCES) == self.BURST - 4
        shed = supervisor.admission_for(guest.domain.uuid).shed_counts
        assert shed.get("depth", 0) == self.BURST - 4
        # The post-open single frame sheds for the breaker, not depth.
        assert marshal.parse_response(single).return_code == TPM_RESOURCES
        assert shed.get("breaker", 0) == 1

    def test_breaker_open_before_burst_sheds_everything_on_breaker(self):
        platform, guest, supervisor = self._platform()
        supervisor.breaker_for(guest.domain.uuid).force_open()
        responses = self._burst(guest)
        codes = [marshal.parse_response(r).return_code for r in responses]
        # No frame was admitted, so the depth bound never engages: the
        # whole burst sheds for the breaker.
        assert codes == [TPM_RESOURCES] * self.BURST
        shed = supervisor.admission_for(guest.domain.uuid).shed_counts
        assert shed.get("breaker", 0) == self.BURST
        assert shed.get("depth", 0) == 0

    def test_both_orders_keep_turbulent_accept_set(self):
        for open_first in (False, True):
            platform, guest, supervisor = self._platform()
            if open_first:
                supervisor.breaker_for(guest.domain.uuid).force_open()
            responses = self._burst(guest)
            if not open_first:
                supervisor.breaker_for(guest.domain.uuid).force_open()
                responses.append(guest.frontend.transport(
                    marshal.build_command(0x15, (0).to_bytes(4, "big"))
                ))
            # Zero silent drops, and every answer within the degrade
            # envelope the reference model accepts for a turbulent guest.
            assert all(responses)
            codes = {marshal.parse_response(r).return_code for r in responses}
            assert codes <= TURBULENT_CODES
