"""vTPM live migration between platforms.

The stock protocol ships the instance state to the destination manager in
plaintext — anyone on the migration path reads the guest's EK/SRK.  The
improved protocol:

1. destination mints a single-use **bind key in its hardware TPM** and a
   fresh anti-replay nonce (the *offer*);
2. source encrypts a random session key to that bind key, encrypts the
   state under the session key (authenticated), and echoes the nonce;
3. destination recovers the session key via ``TPM_UnBind`` — i.e. only
   the real destination hardware TPM can open the package — verifies the
   nonce (one shot) and the owning identity, then instantiates.

Both paths charge network time per byte so Figure 3 compares like with
like.

Every mover drives the protocol through one :class:`Migration`, whose
protocol follows the source platform's regime: improved means sealed,
baseline means plaintext.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import AccessMode
from repro.core.hwroot import HardwareRoot
from repro.crypto.random_source import RandomSource
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.symmetric import EncryptedBlob, SymmetricKey
from repro.faults import FaultKind, fire, with_retry
from repro.obs import inc, span
from repro.sim.timing import charge, get_context
from repro.tpm.constants import TPM_KEY_BIND
from repro.util.bytesio import ByteReader, ByteWriter
from repro.util.errors import FaultInjected, MigrationError
from repro.vtpm.manager import VtpmManager
from repro.xen.domain import Domain

NONCE_SIZE = 20
SESSION_KEY_SIZE = 32

MAGIC_PLAIN = b"VTPMMIG0"
MAGIC_SEALED = b"VTPMMIG1"

#: how long (virtual us) a minted offer stays redeemable
DEFAULT_OFFER_TTL_US = 5_000_000.0
#: modulus size of the destination's single-use hardware bind key
BIND_KEY_BITS = 512
#: transfer attempts before an interrupted migration is declared dead
MIGRATION_ATTEMPTS = 4


@dataclass
class MigrationOffer:
    """Destination's single-use landing pad.

    An offer is good for exactly one import and only until ``expires_us``
    on the shared virtual clock — a captured package replayed after the
    original import (or a stale offer dug up later) must fail closed, so
    both violations raise and leave an audit record on the destination.
    """

    offer_id: int
    bind_public: RsaPublicKey
    nonce: bytes
    bind_key_handle: int
    bind_key_auth: bytes
    expires_us: float = float("inf")
    consumed: bool = False

    def expired(self, now_us: float) -> bool:
        return now_us > self.expires_us


@dataclass
class MigrationPackage:
    """What actually crosses the wire (and what an interceptor captures)."""

    payload: bytes  # fully serialized, self-describing

    def __len__(self) -> int:
        return len(self.payload)


@dataclass
class ExportTransaction:
    """A migration in flight, seen from the source.

    The source keeps the instance alive (and on its books) until the
    destination acknowledges a successful import — an interrupted
    migration then *rolls back* to a working vTPM instead of destroying
    the only copy of the guest's keys mid-wire.
    """

    txn_id: int
    instance_id: int
    package: MigrationPackage


class MigrationEndpoint:
    """Migration logic bolted onto one platform's vTPM manager."""

    def __init__(
        self,
        manager: VtpmManager,
        rng: RandomSource,
        hw: HardwareRoot,
    ) -> None:
        self.manager = manager
        self._rng = rng
        self._hw = hw
        self._offers: Dict[int, MigrationOffer] = {}
        self._offer_ids = itertools.count(1)
        self._seen_nonces: set[bytes] = set()
        self._pending: Dict[int, ExportTransaction] = {}
        self._txn_ids = itertools.count(1)

    # -- destination side -----------------------------------------------------------

    def landing_domain(self, domain: Domain) -> Domain:
        """Create the domain a migrating guest lands in on this platform:
        same name, kernel and config, so its measured identity carries over."""
        return self.manager.xen.create_domain(
            domain.name, kernel_image=domain.kernel_image, config=dict(domain.config)
        )

    def prepare_target(self, ttl_us: float = DEFAULT_OFFER_TTL_US) -> MigrationOffer:
        """Mint a hardware-TPM bind key + nonce for one incoming migration."""
        bind_auth = self._rng.bytes(20)
        handle, public = self._hw.load_new_key(
            bind_auth, TPM_KEY_BIND, BIND_KEY_BITS
        )
        now_us = get_context().clock.now_us
        offer = MigrationOffer(
            offer_id=next(self._offer_ids),
            bind_public=public,
            nonce=self._rng.bytes(NONCE_SIZE),
            bind_key_handle=handle,
            bind_key_auth=bind_auth,
            expires_us=now_us + ttl_us,
        )
        self._offers[offer.offer_id] = offer
        return offer

    def _reject_offer(self, offer_id: int, why: str) -> None:
        """Fail closed on an invalid offer: audit, count, raise."""
        audit = getattr(self.manager.monitor, "audit", None)
        if audit is not None:
            audit.append(
                subject="migration",
                instance=offer_id,
                operation="VTPM_MigrateOffer",
                allowed=False,
                reason=why,
            )
        inc("vtpm.migration.offer_rejected", why=why.split(" ")[-1])
        raise MigrationError(f"migration offer {offer_id} {why}")

    def _redeem_offer(self, offer_id: int) -> MigrationOffer:
        """Look up an offer and enforce single-use + virtual-time expiry."""
        offer = self._offers.get(offer_id)
        if offer is None:
            raise MigrationError(f"no outstanding migration offer {offer_id}")
        if offer.consumed:
            self._reject_offer(offer_id, "already consumed: replay")
        if offer.expired(get_context().clock.now_us):
            self.cancel_offer(offer_id)
            self._reject_offer(offer_id, "expired")
        return offer

    def cancel_offer(self, offer_id: int) -> None:
        """Withdraw an unconsumed offer and release its bind key.

        A consumed offer stays on the books (its key is already gone), so
        a replay of its package is still recognised and audited.
        """
        offer = self._offers.get(offer_id)
        if offer is not None and not offer.consumed:
            del self._offers[offer_id]
            self._hw.client.evict_key(offer.bind_key_handle)

    def crash(self) -> None:
        """Model a destination crash: all in-memory offers are lost.

        The seen-nonce set is deliberately *kept* — forgetting it on crash
        would reopen the replay window the nonces exist to close.
        """
        for offer_id in list(self._offers):
            self.cancel_offer(offer_id)
        self._offers.clear()  # consumed offers die with the host too

    # -- source side -------------------------------------------------------------------

    def begin_export_plaintext(self, vm_uuid: str) -> ExportTransaction:
        """Stock protocol: raw state on the wire; instance retained until
        :meth:`commit_export`."""

        def encode(instance, state: bytes) -> bytes:
            w = ByteWriter().raw(MAGIC_PLAIN).sized(vm_uuid.encode("utf-8"))
            return w.sized(state).getvalue()

        return self._begin_export(vm_uuid, "plaintext", encode)

    def begin_export_sealed(
        self, vm_uuid: str, offer: MigrationOffer
    ) -> ExportTransaction:
        """Improved protocol: session key bound to the destination TPM;
        instance retained until :meth:`commit_export`."""
        # The clock is shared fleet-wide, so the source can refuse to do
        # the crypto work for an offer the destination will reject anyway.
        if offer.consumed:
            raise MigrationError(
                f"migration offer {offer.offer_id} already consumed: replay"
            )
        if offer.expired(get_context().clock.now_us):
            raise MigrationError(f"migration offer {offer.offer_id} expired")

        def encode(instance, state: bytes) -> bytes:
            session_key = self._rng.bytes(SESSION_KEY_SIZE)
            enc_session = offer.bind_public.encrypt(session_key, self._rng)
            enc_state = SymmetricKey(session_key).encrypt(state, self._rng)
            w = ByteWriter().raw(MAGIC_SEALED).u32(offer.offer_id).raw(offer.nonce)
            w.sized(vm_uuid.encode("utf-8"))
            w.sized((instance.bound_identity_hex or "").encode("ascii"))
            return w.sized(enc_session).sized(enc_state.serialize()).getvalue()

        return self._begin_export(vm_uuid, "sealed", encode)

    def _begin_export(self, vm_uuid: str, protocol: str, encode) -> ExportTransaction:
        """Common body: snapshot, encode, charge the wire, open the txn."""
        with span("vtpm.migrate", op="export", protocol=protocol, vm=vm_uuid) as sp:
            instance = self.manager.instance_for_vm(vm_uuid)
            payload = encode(instance, instance.device.save_state_blob())
            sp.set("bytes", len(payload))
            inc("vtpm.migration.export_begun", protocol=protocol)
            inc("vtpm.migration.bytes_moved", len(payload))
            charge("vtpm.migration.net", len(payload))
            txn = ExportTransaction(
                next(self._txn_ids), instance.instance_id, MigrationPackage(payload)
            )
            self._pending[txn.txn_id] = txn
            return txn

    def commit_export(self, txn: ExportTransaction) -> None:
        """Destination acked: the source copy may now be destroyed."""
        if self._pending.pop(txn.txn_id, None) is None:
            raise MigrationError(f"no pending export transaction {txn.txn_id}")
        inc("vtpm.migration.export_committed")
        self.manager.destroy_instance(txn.instance_id, persist=False)

    def abort_export(self, txn: ExportTransaction) -> None:
        """Roll back an interrupted migration; the instance keeps serving."""
        if self._pending.pop(txn.txn_id, None) is not None:
            inc("vtpm.migration.export_aborted")

    @property
    def pending_exports(self) -> int:
        return len(self._pending)

    # -- destination import ----------------------------------------------------------------

    def import_plaintext(self, package: MigrationPackage, target_vm: Domain):
        """Accept a stock-protocol package."""

        def decode(r: ByteReader) -> bytes:
            r.sized(max_size=64)  # vm uuid (informational)
            state = r.sized(max_size=1 << 22)
            r.expect_end()
            return state

        return self._import(package, target_vm, "plaintext", MAGIC_PLAIN, decode)

    def import_sealed(self, package: MigrationPackage, target_vm: Domain):
        """Accept an improved-protocol package (nonce single-use, TPM-gated)."""

        def decode(r: ByteReader) -> bytes:
            offer_id = r.u32()
            nonce = r.raw(NONCE_SIZE)
            r.sized(max_size=64)  # vm uuid
            identity_hex = r.sized(max_size=128).decode("ascii")
            enc_session = r.sized(max_size=1 << 12)
            enc_state = EncryptedBlob.deserialize(r.sized(max_size=1 << 22))
            r.expect_end()
            offer = self._redeem_offer(offer_id)
            if nonce != offer.nonce or nonce in self._seen_nonces:
                raise MigrationError("migration nonce mismatch or replay")
            # The offer is spent the moment its nonce is accepted — kept on
            # the books (consumed=True) so a later replay is *recognised*
            # as a replay and audited, not mistaken for an unknown offer.
            offer.consumed = True
            self._seen_nonces.add(nonce)
            # A spent offer's bind key is released on every exit, refused
            # imports included — else refusals exhaust the hardware TPM's
            # key slots.
            try:
                session_key = self._hw.client.unbind(
                    offer.bind_key_handle, offer.bind_key_auth, enc_session
                )
                if len(session_key) != SESSION_KEY_SIZE:
                    raise MigrationError("recovered session key has wrong size")
                try:
                    state = SymmetricKey(session_key).decrypt(enc_state)
                except Exception as exc:
                    raise MigrationError(f"state decrypt failed: {exc}") from exc
                # Identity continuity: the VM landing here must measure identically.
                if self.manager.identities is not None and identity_hex:
                    identity = self.manager.identities.lookup(target_vm.domid)
                    if identity is None:
                        identity = self.manager.identities.register(target_vm)
                    if identity.hex != identity_hex:
                        raise MigrationError(
                            "target VM identity does not match the migrated instance"
                        )
            finally:
                self._hw.client.evict_key(offer.bind_key_handle)
            return state

        return self._import(package, target_vm, "sealed", MAGIC_SEALED, decode)

    def _import(self, package: MigrationPackage, target_vm: Domain,
                protocol: str, magic: bytes, decode):
        """Common body: crash hook, magic check, decode, instantiate."""
        with span(
            "vtpm.migrate", op="import", protocol=protocol,
            vm=target_vm.uuid, bytes=len(package),
        ):
            # Fault hook: the destination host dies after receiving the
            # package but before instantiating — its in-memory offers are
            # lost and the source must roll back and renegotiate.
            event = fire("vtpm.migration.dest", vm=target_vm.uuid)
            if event is not None and event.kind is FaultKind.MIGRATION_DEST_CRASH:
                self.crash()
                event.raise_fault()
            r = ByteReader(package.payload)
            if r.raw(8) != magic:
                raise MigrationError(f"not a {protocol} migration package")
            state = decode(r)
            inc("vtpm.migration.imported", protocol=protocol)
            manager = self.manager
            charge("vtpm.instance.create")
            return manager.instance_from_blob(
                target_vm, state, manager.identity_for(target_vm),
                f"vtpm-mig-{target_vm.uuid}",
            )


class Migration:
    """One vTPM move: offer → export → wire → import → commit.

    *Any* exception between export and import rolls the attempt back: the
    export is aborted (the guest's vTPM keeps serving on the source) and
    an unconsumed offer is cancelled, releasing its bind key.  A transient
    injected fault then pays the retry cost in virtual time and
    renegotiates from scratch (new offer, nonce and session key); anything
    else propagates.  Movers differ only in the hooks, chiefly
    :meth:`wire`: the ``vtpm.migration.net`` fault site here, a
    partitionable link in a fleet, a tap for an eavesdropper.
    """

    #: site the retry and recovery accounting is recorded under
    site = "vtpm.migration"

    def __init__(self, source: MigrationEndpoint, destination: MigrationEndpoint,
                 vm_uuid: str, target_vm: Optional[Domain] = None) -> None:
        self.source = source
        self.destination = destination
        self.vm_uuid = vm_uuid
        self.target_vm = target_vm
        #: 1-based number of the attempt that ran last
        self.attempt = 0

    def before_offer(self) -> None:
        """Legs that precede the offer in every attempt."""

    def wire(self, package: MigrationPackage) -> None:
        """Carry the package to the destination; may drop it."""
        event = fire("vtpm.migration.net", vm=self.vm_uuid, size=len(package))
        if event is not None and event.kind is FaultKind.MIGRATION_NET_DROP:
            event.raise_fault()

    def rolled_back(self) -> None:
        """An attempt was rolled back; undo what :meth:`wire` set up."""

    def run(self):
        """Migrate with bounded retries; returns the destination's instance."""
        self.attempt = 0
        return with_retry(self._once, site=self.site,
                          attempts=MIGRATION_ATTEMPTS, base_backoff_us=0.0)

    def _once(self):
        """One attempt; rolled back (and a transient fault's retry cost
        paid) if anything in it fails."""
        self.attempt += 1
        source, destination, vm_uuid = self.source, self.destination, self.vm_uuid
        offer: Optional[MigrationOffer] = None
        txn: Optional[ExportTransaction] = None
        try:
            self.before_offer()
            sealed = source.manager.mode is AccessMode.IMPROVED
            offer = destination.prepare_target() if sealed else None
            txn = (source.begin_export_sealed(vm_uuid, offer) if sealed
                   else source.begin_export_plaintext(vm_uuid))
            self.wire(txn.package)
            land = destination.import_sealed if sealed else destination.import_plaintext
            instance = land(txn.package, self.target_vm)
        except BaseException as exc:
            if txn is not None:
                source.abort_export(txn)
            if offer is not None:
                destination.cancel_offer(offer.offer_id)
            self.rolled_back()
            if isinstance(exc, FaultInjected) and exc.transient:
                charge("vtpm.migration.retry")
            raise
        source.commit_export(txn)
        return instance


def migrate_with_recovery(source: MigrationEndpoint, destination: MigrationEndpoint,
                          vm_uuid: str, target_vm: Domain):
    """Move ``vm_uuid``'s vTPM onto ``target_vm`` over the fault-injectable
    wire; returns the destination's new instance."""
    return Migration(source, destination, vm_uuid, target_vm).run()
