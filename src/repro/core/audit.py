"""Append-only, hash-chained audit log for access decisions.

Every monitor decision (allow *and* deny) produces an entry; entries chain
``h_i = SHA-256(h_{i-1} || encode(entry_i))`` so truncation or in-place
edits are detectable — the standard response to "the attacker owns the
log file".

The log stores entries as columns, in sequence order (the sequence number
is the index): an ``array('I')`` of decision ids and an ``array('d')`` of
timestamps.  Decisions repeat — the same guest, instance, operation,
verdict and reason recur across thousands of commands — so a decision
table holds one ``(subject, instance, operation, allowed, reason)`` tuple
per distinct decision and an entry names its tuple by a 4-byte id.  Of the
chain, the log keeps one 32-byte hash per ``_CHECKPOINT`` entries and the
current head; a reader re-derives any other entry's hash from the nearest
checkpoint below it.  An entry costs about 14 bytes: an id, a timestamp and
a sixteenth of a hash.

:meth:`AuditLog.intern` gives a decision its table id, encoding a new
id's :func:`encode_suffix` once; :meth:`AuditLog.append_id` puts the
entry's ``sequence|timestamp`` in front of that suffix (the bytes of
:func:`encode_entry`) and charges the modeled ``ac.audit.append`` cost, so
a caller that keeps an id (the monitor's cached allows) appends by it.
Readers and verification re-encode from the table, never from a suffix.
The SHA-256 link is deferred: the encoded bytes wait until the chain is
next read, or until ``_CHAIN_BATCH`` of them are buffered, and are then
hashed in one tight loop and dropped.  The final chain hash is identical
to eager chaining — the encoded bytes and their order are fixed at append
time.  :class:`AuditRecord` objects are built only for the readers that
return them; chaining and verification never build one.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence

from repro.sim import timing as _timing
from repro.sim.timing import charge

GENESIS = hashlib.sha256(b"vtpm-audit-genesis").digest()
_HASH = 32  # bytes per stored chain hash
#: encoded entries buffered before an append chains them; a read chains
#: sooner.  Bounds the unchained bytes at one batch (about 600 KB).
_CHAIN_BATCH = 4096
#: entries per stored chain hash: the log keeps the hash after every
#: ``_CHECKPOINT``-th entry, and a reader re-encodes fewer than this many
#: entries to reach any other hash
_CHECKPOINT = 16
#: instance types whose equal values always encode to the same text
_EXACT_TYPES = (int, str)
#: an entry's ``sequence|timestamp`` prefix, which its suffix follows
_STAMP = b"%d|%.3f"


def encode_suffix(
    subject: str,
    instance: object,
    operation: str,
    allowed: bool,
    reason: str,
) -> bytes:
    """The bytes of an entry after its sequence number and timestamp."""
    return (
        f"|{subject}|{instance}|{operation}|"
        f"{'ALLOW' if allowed else 'DENY'}|{reason}"
    ).encode("utf-8")


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
    return _STAMP % (sequence, timestamp_us) + encode_suffix(
        subject, instance, operation, allowed, reason
    )


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
    return b"%d" % sequence + encode_suffix(
        subject, instance, operation, allowed, reason
    )


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

    __slots__ = ("_index", "_table", "_suffixes", "_ids", "_times",
                 "_checkpoints", "_head", "_unchained")

    def __init__(self) -> None:
        #: ``(decision tuple, instance type, allowed type)`` mapped to the
        #: id of the latest tuple interned under it
        self._index: Dict[tuple, int] = {}
        #: the decision tuples, indexed by id
        self._table: List[tuple] = []
        #: each id's :func:`encode_suffix`, encoded when it was interned
        self._suffixes: List[bytes] = []
        #: each entry's decision id; its sequence number is its index
        self._ids = array("I")
        #: each entry's virtual timestamp (us)
        self._times = array("d")
        #: the chain hash after every ``_CHECKPOINT``-th chained entry,
        #: ``_HASH`` bytes apiece
        self._checkpoints = bytearray()
        #: the chain hash after the last chained entry
        self._head = GENESIS
        #: encoded bytes of the entries appended since the last chaining
        self._unchained: List[bytes] = []

    # -- the write path ----------------------------------------------------------

    def intern(
        self,
        subject: str,
        instance: object,
        operation: str,
        allowed: bool,
        reason: str,
    ) -> int:
        """The table id of a decision, added (with its encoded suffix) if
        new.  Appends no entry and charges nothing.

        Interning is exact: a table tuple is shared only when it encodes
        like the new fields.  ``1``, ``1.0`` and ``True`` compare equal, so
        the index is keyed by the types of ``instance`` and ``allowed`` as
        well, and a hit is reused only if its ``allowed`` is the very
        object passed and its instance is too, or is an ``int`` or
        ``str``; otherwise the decision gets a table tuple of its own,
        which the index then names.  Subject, operation and reason are
        ``str``, whose equal values encode the same.
        """
        fields = (subject, instance, operation, allowed, reason)
        key = (fields, type(instance), type(allowed))
        table = self._table
        ident = self._index.get(key)
        if ident is not None:
            kind = table[ident]
            if kind[3] is allowed and (
                kind[1] is instance or type(instance) in _EXACT_TYPES
            ):
                return ident
        ident = self._index[key] = len(table)
        table.append(fields)
        self._suffixes.append(encode_suffix(*fields))
        return ident

    def append_id(self, ident: int) -> None:
        """Record the decision ``ident`` (from :meth:`intern`) without
        extending the hash chain yet.

        The encoded bytes (and therefore the eventual chain hash) are fully
        determined here; the SHA-256 work waits for the next read or a full
        batch.
        """
        ids = self._ids
        timestamp_us = _timing._current_context.clock._now_us
        encoded = _STAMP % (len(ids), timestamp_us) + self._suffixes[ident]
        charge("ac.audit.append", len(encoded))
        ids.append(ident)
        self._times.append(timestamp_us)
        unchained = self._unchained
        unchained.append(encoded)
        if len(unchained) >= _CHAIN_BATCH:
            self.chain_head()

    def append_buffered(
        self,
        subject: str,
        instance: object,
        operation: str,
        allowed: bool,
        reason: str,
    ) -> None:
        """Record a decision given by its fields: :meth:`append_id` of its
        :meth:`intern` id."""
        self.append_id(
            self.intern(subject, instance, operation, allowed, reason)
        )

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
        [record] = self._records([len(self._ids) - 1])
        return record

    def _records(self, sequences: Sequence[int]) -> List[AuditRecord]:
        """The records of the ascending ``sequences``, chain hashes and all."""
        times, ids, table = self._times, self._ids, self._table
        return [
            AuditRecord(sequence, times[sequence], *table[ids[sequence]], head)
            for sequence, head in zip(
                sequences, self._heads([s + 1 for s in sequences])
            )
        ]

    # -- the chain ---------------------------------------------------------------

    def chain_head(self) -> bytes:
        """The current chain head; chains the entries not yet chained."""
        unchained = self._unchained
        if unchained:
            head = self._head
            checkpoints = self._checkpoints
            every = _CHECKPOINT
            count = len(self._ids) - len(unchained)
            sha256 = hashlib.sha256
            for encoded in unchained:
                head = sha256(head + encoded).digest()
                count += 1
                if not count % every:
                    checkpoints += head
            self._head = head
            unchained.clear()
        return self._head

    def _heads(self, counts: List[int]) -> Iterator[bytes]:
        """The chain hash after the first ``n`` entries, for each ``n`` of
        the ascending ``counts``.

        Chains first.  Each hash is the stored head, or is re-derived from
        the nearest checkpoint at or below it — or from the previous hash
        yielded, when that is nearer — so reaching the first costs fewer
        than ``_CHECKPOINT`` re-encodings and each later one costs its
        distance from the one before.
        """
        self.chain_head()
        last = len(self._ids)
        every = _CHECKPOINT
        checkpoints, times, ids, table = (
            self._checkpoints, self._times, self._ids, self._table,
        )
        sha256 = hashlib.sha256
        at, head = 0, GENESIS
        for count in counts:
            if count == last:
                yield self._head
                continue
            base = count - count % every
            if not base <= at <= count:
                at = base
                end = base // every * _HASH
                head = bytes(checkpoints[end - _HASH:end]) if base else GENESIS
            while at < count:
                head = sha256(
                    head + encode_entry(at, times[at], *table[ids[at]])
                ).digest()
                at += 1
            yield head

    def head_at(self, sequence: int) -> bytes:
        """The chain hash after the first ``sequence`` entries."""
        size = len(self._ids)
        if not 0 <= sequence <= size:
            raise ValueError(
                f"sequence {sequence} outside the chained log (0..{size})"
            )
        [head] = self._heads([sequence])
        return head

    def decision_chain_hash(self) -> bytes:
        """Chain hash over the timestamp-free decision encodings.

        The differential oracle compares this across configurations whose
        virtual-time costs differ by design (decision cache on vs off):
        equality means every entry agrees on sequence, subject, instance,
        operation, verdict and reason — everything but the clock.
        """
        head = GENESIS
        sha256 = hashlib.sha256
        table = self._table
        for sequence, ident in enumerate(self._ids):
            head = sha256(
                head + encode_decision(sequence, *table[ident])
            ).digest()
        return head

    def verify_chain(self) -> bool:
        """Re-encode every entry from its fields and recompute the chain
        from genesis against every stored checkpoint and the head; False
        means tampering."""
        self.chain_head()
        ids, table = self._ids, self._table
        checkpoints = self._checkpoints
        every = _CHECKPOINT
        if (len(checkpoints) != len(ids) // every * _HASH
                or len(self._times) != len(ids)
                or max(ids, default=-1) >= len(table)):
            return False
        head = GENESIS
        sha256 = hashlib.sha256
        for sequence, (timestamp_us, ident) in enumerate(
            zip(self._times, ids)
        ):
            head = sha256(
                head + encode_entry(sequence, timestamp_us, *table[ident])
            ).digest()
            if not (sequence + 1) % every:
                end = (sequence + 1) // every * _HASH
                if head != checkpoints[end - _HASH:end]:
                    return False
        return head == self._head

    # -- queries (each builds records only for what it returns) ------------------

    def __len__(self) -> int:
        return len(self._ids)

    def _select(self, keep: Callable[[tuple], bool]) -> List[AuditRecord]:
        kept = [keep(fields) for fields in self._table]
        return self._records([
            sequence for sequence, ident in enumerate(self._ids)
            if kept[ident]
        ])

    def count(self, keep: Callable[[tuple], bool]) -> int:
        """How many entries ``keep`` accepts, given each entry's
        (subject, instance, operation, allowed, reason) tuple.  Builds no
        record and hashes nothing: ``keep`` runs once per distinct
        decision, the entries are counted per id."""
        table = self._table
        return sum(
            entries for ident, entries in Counter(self._ids).items()
            if keep(table[ident])
        )

    def records(self) -> List[AuditRecord]:
        return self._records(range(len(self._ids)))

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
        size = len(self._ids)
        return self._records(range(max(0, size - count), size))
