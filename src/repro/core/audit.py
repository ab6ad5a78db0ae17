"""Append-only, hash-chained audit log for access decisions.

Every monitor decision (allow *and* deny) produces an entry; entries chain
``h_i = SHA-256(h_{i-1} || encode(entry_i))`` so truncation or in-place
edits are detectable — the standard response to "the attacker owns the
log file".

The log stores entries as columns, in sequence order (the sequence number
is the index): a list of references to interned field tuples, an
``array('d')`` of timestamps and the concatenated 32-byte chain hashes of
the entries chained so far.  Decisions repeat — the same guest, instance,
operation, verdict and reason recur across thousands of commands — so the
log keeps one ``(subject, instance, operation, allowed, reason)`` tuple per
distinct decision and an entry costs 48 bytes: a reference, a timestamp
and its hash.

:meth:`AuditLog.append_buffered` encodes an entry and charges the modeled
``ac.audit.append`` cost at append time, but the SHA-256 link is deferred:
the encoded bytes wait until the chain is next read, or until
``_CHAIN_BATCH`` of them are buffered, and are then hashed in one tight
loop and dropped.  The final chain hash is identical to eager chaining —
the encoded bytes and their order are fixed at append time.
:class:`AuditRecord` objects are built only for the readers that return
them; chaining and verification never build one.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.sim import timing as _timing
from repro.sim.timing import charge

GENESIS = hashlib.sha256(b"vtpm-audit-genesis").digest()
_HASH = 32  # bytes per stored chain hash
#: encoded entries buffered before an append chains them; a read chains
#: sooner.  Bounds the unchained bytes at one batch (about 600 KB).
_CHAIN_BATCH = 4096
#: instance types whose equal values always encode to the same text
_EXACT_TYPES = (int, str)


def encode_entry(
    sequence: int,
    timestamp_us: float,
    subject: str,
    instance: object,
    operation: str,
    allowed: bool,
    reason: str,
) -> bytes:
    """The bytes one entry contributes to the chain."""
    return (
        f"{sequence}|{timestamp_us:.3f}|{subject}|{instance}|{operation}|"
        f"{'ALLOW' if allowed else 'DENY'}|{reason}"
    ).encode("utf-8")


def encode_decision(
    sequence: int,
    subject: str,
    instance: object,
    operation: str,
    allowed: bool,
    reason: str,
) -> bytes:
    """The timestamp-free encoding: only decision-relevant fields.

    Two runs that take different amounts of *virtual time* but make the
    same decisions (e.g. authz cache on vs off) agree on this encoding
    while their full chains legitimately differ.
    """
    return (
        f"{sequence}|{subject}|{instance}|{operation}|"
        f"{'ALLOW' if allowed else 'DENY'}|{reason}"
    ).encode("utf-8")


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One immutable audit entry, as the log's readers return it."""

    sequence: int
    timestamp_us: float
    subject: str            # identity hex (or 'dom<N>' pre-identity)
    instance: object
    operation: str          # ordinal name
    allowed: bool
    reason: str
    chain_hash: bytes = b""

    def encode(self) -> bytes:
        return encode_entry(
            self.sequence, self.timestamp_us, self.subject, self.instance,
            self.operation, self.allowed, self.reason,
        )


class AuditLog:
    """The manager's append-only decision log."""

    __slots__ = ("_decisions", "_kinds", "_times", "_hashes", "_unchained")

    def __init__(self) -> None:
        #: one (subject, instance, operation, allowed, reason) tuple per
        #: distinct decision, mapped to itself
        self._decisions: Dict[tuple, tuple] = {}
        #: each entry's interned field tuple; its sequence number is its index
        self._kinds: List[tuple] = []
        #: each entry's virtual timestamp (us)
        self._times = array("d")
        #: chain hash of each chained entry, ``_HASH`` bytes apiece
        self._hashes = bytearray()
        #: encoded bytes of the entries appended since the last chaining
        self._unchained: List[bytes] = []

    # -- the write path ----------------------------------------------------------

    def append_buffered(
        self,
        subject: str,
        instance: object,
        operation: str,
        allowed: bool,
        reason: str,
    ) -> None:
        """Record a decision without extending the hash chain yet.

        The encoded bytes (and therefore the eventual chain hash) are fully
        determined here; the SHA-256 work waits for the next read or a full
        batch.

        Interning is exact: a stored tuple is shared only when it encodes
        like the new fields.  ``1``, ``1.0`` and ``True`` compare equal, so
        a hit is reused only if its ``allowed`` is the very object passed
        and its instance is too, or is an equal ``int`` or ``str``;
        otherwise the entry keeps its own tuple.  Subject, operation and
        reason are ``str``, whose equal values encode the same.
        """
        kinds = self._kinds
        timestamp_us = _timing._current_context.clock._now_us
        encoded = encode_entry(
            len(kinds), timestamp_us, subject, instance, operation,
            allowed, reason,
        )
        charge("ac.audit.append", len(encoded))
        fields = (subject, instance, operation, allowed, reason)
        kind = self._decisions.setdefault(fields, fields)
        if kind is not fields and not (
            kind[3] is allowed and (
                kind[1] is instance
                or (type(kind[1]) is type(instance)
                    and type(instance) in _EXACT_TYPES)
            )
        ):
            kind = fields
        kinds.append(kind)
        self._times.append(timestamp_us)
        unchained = self._unchained
        unchained.append(encoded)
        if len(unchained) >= _CHAIN_BATCH:
            self.chain_head()

    def append(
        self,
        subject: str,
        instance: object,
        operation: str,
        allowed: bool,
        reason: str,
    ) -> AuditRecord:
        """Append and chain immediately; returns the finished record."""
        self.append_buffered(subject, instance, operation, allowed, reason)
        self.chain_head()
        return self._record(len(self._kinds) - 1)

    def _record(self, sequence: int) -> AuditRecord:
        start = sequence * _HASH
        return AuditRecord(
            sequence, self._times[sequence], *self._kinds[sequence],
            bytes(self._hashes[start:start + _HASH]),
        )

    # -- the chain ---------------------------------------------------------------

    def chain_head(self) -> bytes:
        """The current chain head; chains the entries not yet chained."""
        hashes = self._hashes
        head = bytes(hashes[-_HASH:]) if hashes else GENESIS
        if self._unchained:
            sha256 = hashlib.sha256
            for encoded in self._unchained:
                head = sha256(head + encoded).digest()
                hashes += head
            self._unchained.clear()
        return head

    def head_at(self, sequence: int) -> bytes:
        """The chain hash after the first ``sequence`` entries."""
        self.chain_head()
        if not 0 <= sequence <= len(self._hashes) // _HASH:
            raise ValueError(
                f"sequence {sequence} outside the chained log "
                f"(0..{len(self._hashes) // _HASH})"
            )
        if sequence == 0:
            return GENESIS
        return bytes(self._hashes[(sequence - 1) * _HASH:sequence * _HASH])

    def decision_chain_hash(self) -> bytes:
        """Chain hash over the timestamp-free decision encodings.

        The differential oracle compares this across configurations whose
        virtual-time costs differ by design (decision cache on vs off):
        equality means every entry agrees on sequence, subject, instance,
        operation, verdict and reason — everything but the clock.
        """
        head = GENESIS
        sha256 = hashlib.sha256
        for sequence, fields in enumerate(self._kinds):
            head = sha256(head + encode_decision(sequence, *fields)).digest()
        return head

    def verify_chain(self) -> bool:
        """Re-encode every entry from its fields and recompute the chain
        against the stored hashes; False means tampering."""
        self.chain_head()
        kinds = self._kinds
        hashes = self._hashes
        if (len(hashes) != len(kinds) * _HASH
                or len(self._times) != len(kinds)):
            return False
        head = GENESIS
        sha256 = hashlib.sha256
        for sequence, (timestamp_us, fields) in enumerate(
            zip(self._times, kinds)
        ):
            head = sha256(
                head + encode_entry(sequence, timestamp_us, *fields)
            ).digest()
            start = sequence * _HASH
            if head != hashes[start:start + _HASH]:
                return False
        return True

    # -- queries (each builds records only for what it returns) ------------------

    def __len__(self) -> int:
        return len(self._kinds)

    def _select(self, keep: Callable[[tuple], bool]) -> List[AuditRecord]:
        self.chain_head()
        return [
            self._record(sequence)
            for sequence, fields in enumerate(self._kinds)
            if keep(fields)
        ]

    def records(self) -> List[AuditRecord]:
        self.chain_head()
        return [self._record(i) for i in range(len(self._kinds))]

    def denials(self) -> List[AuditRecord]:
        return self._select(lambda fields: not fields[3])

    def for_subject(self, subject: str) -> List[AuditRecord]:
        return self._select(lambda fields: fields[0] == subject)

    def for_instance(self, instance: object) -> List[AuditRecord]:
        return self._select(lambda fields: fields[1] == instance)

    def tail(self, count: int = 10) -> List[AuditRecord]:
        """The last ``count`` records (fewer if the log is shorter)."""
        if count < 0:
            raise ValueError(f"tail count must be >= 0, got {count}")
        self.chain_head()
        size = len(self._kinds)
        return [self._record(i) for i in range(max(0, size - count), size)]
