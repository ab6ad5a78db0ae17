"""Persistent vTPM state storage: sealed, generation-stamped, crash-consistent.

The stock design writes each instance's state to a file in the manager
domain (``/var/vtpm/tpm<N>``) in **plaintext** — stealing the disk (or the
file) steals the guest's keys.  The improved design routes every blob
through the :class:`~repro.core.sealing.StateSealer`.

On top of either regime sits a crash-consistency layer: every save is a
new **generation file** (``vtpm-state-<uuid>.gen-<n>``) framed with a
magic, the generation number, the payload length and a SHA-256 checksum.
A save that dies mid-write (a torn write, an out-of-disk error, a manager
crash) leaves the previous generation untouched, so restore always yields
the latest *committed* state — never a corrupt blob.  Old generations are
pruned only after the replacement is fully on disk.

``DiskStore`` models the manager's filesystem, including the attacker's
view of it (raw bytes of every file) and the fault injector's grip on it
(torn writes, ENOSPC, transient read corruption).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Optional, Tuple

from repro.core.sealing import StateSealer
from repro.faults import FaultKind, fire, note_recovery, with_retry
from repro.sim.timing import charge, get_context
from repro.util.errors import FaultInjected, RetryExhausted, VtpmError

#: frame magic for generation-stamped state files
GEN_MAGIC = b"VTPMGEN1"
_GEN_HEADER = struct.Struct(">8sII")
_DIGEST_SIZE = 32

#: committed generations retained per instance (latest + one fallback)
KEEP_GENERATIONS = 2
#: write/read attempts against transient storage faults
STORAGE_ATTEMPTS = 3


class ChecksumMismatch(VtpmError):
    """A structurally complete generation frame failed its checksum —
    possibly transient corruption on the read path; worth a re-read."""


class DiskStore:
    """A flat name→bytes 'filesystem' with an attacker-visible raw view."""

    def __init__(self) -> None:
        self._files: Dict[str, bytes] = {}
        self.writes = 0
        self.reads = 0
        self.torn_writes = 0

    def write(self, name: str, data: bytes) -> None:
        event = fire("vtpm.storage.write", name=name, size=len(data))
        if event is not None and event.kind is FaultKind.STORAGE_ENOSPC:
            # Nothing hits the medium; the caller may garbage-collect and retry.
            event.raise_fault()
        if event is not None and event.kind is FaultKind.STORAGE_TORN_WRITE:
            # The write dies mid-flush: a deterministic prefix lands on disk.
            cut = max(1, (len(data) * (1 + event.seq % 3)) // 4)
            charge("vtpm.storage.write", cut)
            charge("fault.storage.torn")
            self._files[name] = bytes(data[:cut])
            self.writes += 1
            self.torn_writes += 1
            event.raise_fault()
        charge("vtpm.storage.write", len(data))
        self._files[name] = bytes(data)
        self.writes += 1

    def read(self, name: str) -> bytes:
        charge("vtpm.storage.read", len(self._files.get(name, b"")))
        try:
            data = self._files[name]
        except KeyError:
            raise VtpmError(f"no stored file {name!r}") from None
        self.reads += 1
        event = fire("vtpm.storage.read", name=name, size=len(data))
        if event is not None and event.kind is FaultKind.STORAGE_READ_CORRUPT and data:
            # Transient controller error: the returned copy has a flipped
            # byte; the medium itself is intact, so a re-read can heal.
            # The flip lands in the back half of the file — body, not
            # framing — so consumers see data corruption, not truncation.
            corrupted = bytearray(data)
            half = len(corrupted) // 2
            corrupted[half + event.seq % (len(corrupted) - half)] ^= 0x80
            return bytes(corrupted)
        return data

    def delete(self, name: str) -> None:
        self._files.pop(name, None)

    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def raw_contents(self) -> Dict[str, bytes]:
        """What a disk thief gets: every file, byte for byte (no charge —
        the thief copies the medium, not through the manager)."""
        return dict(self._files)


# -- generation framing ----------------------------------------------------------


def encode_generation(generation: int, payload: bytes) -> bytes:
    """Frame one payload: magic | gen | length | payload | SHA-256."""
    header = _GEN_HEADER.pack(GEN_MAGIC, generation, len(payload))
    charge("hash.sha256", len(payload))
    return header + payload + hashlib.sha256(header + payload).digest()


def decode_generation(raw: bytes, verify: bool = True) -> Tuple[int, bytes]:
    """Parse a generation frame; raises :class:`VtpmError` on torn/corrupt.

    Structural damage (short file, bad magic, truncated payload) means a
    torn write — the frame is unrecoverable.  A checksum mismatch on a
    structurally complete frame means corrupt data *in flight*, which a
    re-read may heal; callers distinguish via the error message.
    """
    if len(raw) < _GEN_HEADER.size + _DIGEST_SIZE:
        raise VtpmError("torn state file: shorter than frame header")
    magic, generation, length = _GEN_HEADER.unpack_from(raw)
    if magic != GEN_MAGIC:
        raise VtpmError("torn state file: bad magic")
    if len(raw) != _GEN_HEADER.size + length + _DIGEST_SIZE:
        raise VtpmError("torn state file: payload length mismatch")
    payload = raw[_GEN_HEADER.size:_GEN_HEADER.size + length]
    if verify:
        charge("hash.sha256", length)
        expected = hashlib.sha256(raw[: _GEN_HEADER.size + length]).digest()
        if raw[_GEN_HEADER.size + length:] != expected:
            raise ChecksumMismatch("corrupt state file: checksum mismatch")
    return generation, payload


def latest_raw_payload(files: Dict[str, bytes], vm_uuid: str) -> Optional[bytes]:
    """The attacker's (or a forensic tool's) view of a stolen disk image:
    the newest structurally complete state payload for one VM, with the
    generation frame stripped.  Checksums are not required — a thief will
    happily take slightly damaged loot."""
    prefix = f"vtpm-state-{vm_uuid}.gen-"
    best: Tuple[int, Optional[bytes]] = (-1, None)
    for name, raw in files.items():
        if not name.startswith(prefix):
            continue
        try:
            generation, payload = decode_generation(raw, verify=False)
        except VtpmError:
            continue
        if generation > best[0]:
            best = (generation, payload)
    return best[1]


class VtpmStorage:
    """State persistence for the manager: plaintext or sealed, always atomic."""

    def __init__(self, disk: DiskStore, sealer: Optional[StateSealer] = None) -> None:
        self.disk = disk
        self.sealer = sealer
        self.saves = 0
        self.fallbacks = 0

    @staticmethod
    def _prefix(vm_uuid: str) -> str:
        return f"vtpm-state-{vm_uuid}.gen-"

    @classmethod
    def _gen_name(cls, vm_uuid: str, generation: int) -> str:
        return f"{cls._prefix(vm_uuid)}{generation:08d}"

    def generations(self, vm_uuid: str) -> List[int]:
        """On-disk generation numbers for one VM, ascending (incl. torn)."""
        prefix = self._prefix(vm_uuid)
        found = []
        for name in self.disk.list_files():
            if name.startswith(prefix):
                try:
                    found.append(int(name[len(prefix):]))
                except ValueError:
                    continue
        return sorted(found)

    # -- save ------------------------------------------------------------------

    def save_instance_state(
        self, vm_uuid: str, identity_hex: Optional[str], state: bytes
    ) -> str:
        """Persist one instance's state; returns the committed file name.

        The new generation is written beside its predecessors and older
        files are pruned only after the write fully lands — a crash at any
        point leaves the last committed generation restorable.  Transient
        faults (torn write, ENOSPC) are retried with virtual-time backoff;
        ENOSPC additionally garbage-collects stale generations first.
        """
        if self.sealer is not None:
            blob = self.sealer.seal_state(vm_uuid, identity_hex or "", state)
        else:
            blob = state  # stock behaviour: cleartext at rest
        existing = self.generations(vm_uuid)
        generation = (existing[-1] + 1) if existing else 1
        name = self._gen_name(vm_uuid, generation)
        frame = encode_generation(generation, blob)

        def write() -> None:
            try:
                self.disk.write(name, frame)
            except FaultInjected as exc:
                if exc.transient and exc.kind == FaultKind.STORAGE_ENOSPC.value:
                    self._garbage_collect(vm_uuid, keep_from=generation)
                raise  # a hard crash mid-save propagates; restore recovers

        with_retry(write, site="vtpm.storage.save", attempts=STORAGE_ATTEMPTS,
                   base_backoff_us=500.0)
        self._prune(vm_uuid, committed=generation)
        self.saves += 1
        return name

    def _prune(self, vm_uuid: str, committed: int) -> None:
        """Drop generations older than the retention window.  Runs only
        after ``committed`` is fully on disk, so the invariant — at least
        one committed generation always present — holds through crashes."""
        for generation in self.generations(vm_uuid):
            if generation <= committed - KEEP_GENERATIONS:
                self.disk.delete(self._gen_name(vm_uuid, generation))

    def _garbage_collect(self, vm_uuid: str, keep_from: int) -> None:
        """ENOSPC recovery: reclaim every generation but the newest
        *restorable* one, then let the caller retry the write.  A torn
        leftover from an earlier failed save is reclaimed space, not a
        fallback — keeping it instead of a committed predecessor would
        let this GC delete the only recoverable copy."""
        kept = 0
        for generation in reversed(self.generations(vm_uuid)):
            if generation >= keep_from:
                continue
            name = self._gen_name(vm_uuid, generation)
            if kept == 0 and self._structurally_complete(name):
                kept += 1
                continue
            self.disk.delete(name)

    def _structurally_complete(self, name: str) -> bool:
        """Frame-level validity only (no checksum): torn files fail, but
        in-flight read corruption — which flips body bytes, never framing
        — cannot make a committed generation look reclaimable."""
        try:
            decode_generation(self.disk.read(name), verify=False)
        except VtpmError:
            return False
        return True

    # -- load ------------------------------------------------------------------

    def load_instance_state(
        self, vm_uuid: str, identity_hex: Optional[str]
    ) -> bytes:
        """Restore the newest committed state, healing what it can.

        Walks generations newest-first.  A checksum mismatch (transient
        read corruption) is re-read up to :data:`STORAGE_ATTEMPTS` times;
        a torn frame is skipped in favour of the previous generation.  The
        result is always a committed generation's exact payload — the
        crash-consistency contract the property tests pin down.
        """
        existing = self.generations(vm_uuid)
        if not existing:
            raise VtpmError(f"no stored state for VM {vm_uuid}")
        start_us = get_context().clock.now_us
        healed = False
        for generation in reversed(existing):
            name = self._gen_name(vm_uuid, generation)
            payload = self._read_generation(name)
            if payload is None:
                # Torn or unhealably corrupt: fall back one generation.
                self.fallbacks += 1
                healed = True
                continue
            if healed:
                note_recovery(
                    "vtpm.storage.load", get_context().clock.now_us - start_us
                )
            if self.sealer is not None:
                return self.sealer.unseal_state(vm_uuid, identity_hex or "", payload)
            return payload
        raise VtpmError(
            f"no recoverable state generation for VM {vm_uuid} "
            f"({len(existing)} on disk, all torn or corrupt)"
        )

    def _read_generation(self, name: str) -> Optional[bytes]:
        """One generation file → payload, re-reading transient corruption;
        ``None`` when the frame is torn or every read came back corrupt."""

        def read() -> bytes:
            return decode_generation(self.disk.read(name))[1]

        try:
            return with_retry(read, site="vtpm.storage.load",
                              attempts=STORAGE_ATTEMPTS, base_backoff_us=400.0,
                              retry_on=(ChecksumMismatch,))
        except (RetryExhausted, VtpmError):
            return None  # torn, or corrupt on every read: fall back

    # -- bookkeeping ------------------------------------------------------------

    def delete_instance_state(self, vm_uuid: str) -> None:
        for generation in self.generations(vm_uuid):
            self.disk.delete(self._gen_name(vm_uuid, generation))

    def has_state(self, vm_uuid: str) -> bool:
        return bool(self.generations(vm_uuid))
