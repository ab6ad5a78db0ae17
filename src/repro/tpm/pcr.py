"""Platform Configuration Registers.

A TPM 1.2 bank of 24 SHA-1 PCRs.  ``extend`` is the one-way accumulator
``PCR := SHA1(PCR || measurement)``; PCRs 16-23 are resettable given
sufficient locality (the DRTM/debug range), the rest only reset at startup.

Also implements TPM_PCR_SELECTION / TPM_PCR_COMPOSITE hashing, which seals,
quotes and key PCR-bindings all rely on.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.crypto.hashes import sha1
from repro.sim.timing import charge
from repro.tpm.constants import (
    DIGEST_SIZE,
    NUM_PCRS,
    RESETTABLE_PCR_FIRST,
    TPM_BADINDEX,
    TPM_NOTLOCAL,
    TPM_NOTRESETABLE,
)
from repro.util.bytesio import ByteReader, ByteWriter
from repro.util.errors import TpmError


class PcrSelection:
    """TPM_PCR_SELECTION: a bitmap naming a subset of PCRs."""

    def __init__(self, indices: Iterable[int] = ()) -> None:
        self._mask = 0
        for idx in indices:
            if not 0 <= idx < NUM_PCRS:
                raise TpmError(TPM_BADINDEX, f"PCR index {idx} out of range")
            self._mask |= 1 << idx

    @property
    def indices(self) -> list[int]:
        return [i for i in range(NUM_PCRS) if self._mask & (1 << i)]

    def __contains__(self, idx: int) -> bool:
        return bool(self._mask & (1 << idx))

    def __bool__(self) -> bool:
        return self._mask != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PcrSelection) and self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def serialize(self) -> bytes:
        w = ByteWriter()
        size = NUM_PCRS // 8
        w.u16(size)
        w.raw(self._mask.to_bytes(size, "little"))  # spec: byte 0 holds PCR 0-7
        return w.getvalue()

    @staticmethod
    def deserialize(reader: ByteReader) -> "PcrSelection":
        size = reader.u16()
        if size > NUM_PCRS // 8:
            raise TpmError(TPM_BADINDEX, f"pcrSelection of {size} bytes too large")
        mask = int.from_bytes(reader.raw(size), "little")
        sel = PcrSelection()
        sel._mask = mask
        return sel

    def __repr__(self) -> str:
        return f"PcrSelection({self.indices})"


class PcrBank:
    """The 24-register SHA-1 PCR bank.

    It records which registers changed since the last :meth:`take_dirty`,
    so a resident state image can patch just those slots.
    """

    def __init__(self) -> None:
        self._values = [b"\x00" * DIGEST_SIZE for _ in range(NUM_PCRS)]
        self._dirty: set[int] = set()

    def startup_clear(self) -> None:
        """TPM_Startup(ST_CLEAR): all PCRs to zero."""
        self._values = [b"\x00" * DIGEST_SIZE for _ in range(NUM_PCRS)]
        self._dirty.update(range(NUM_PCRS))

    def read(self, index: int) -> bytes:
        self._check_index(index)
        return self._values[index]

    def extend(self, index: int, measurement: bytes) -> bytes:
        """``PCR[i] := SHA1(PCR[i] || measurement)``; returns the new value."""
        self._check_index(index)
        if len(measurement) != DIGEST_SIZE:
            raise TpmError(
                TPM_BADINDEX, f"extend value must be {DIGEST_SIZE} bytes"
            )
        charge("tpm.pcr.extend")
        self._values[index] = sha1(self._values[index] + measurement)
        self._dirty.add(index)
        return self._values[index]

    def reset(self, index: int, locality: int) -> None:
        """Reset a resettable PCR; locality ≥ 2 required (simplified DRTM rule)."""
        self._check_index(index)
        if index < RESETTABLE_PCR_FIRST:
            raise TpmError(TPM_NOTRESETABLE, f"PCR {index} is not resettable")
        if locality < 2:
            raise TpmError(TPM_NOTLOCAL, f"locality {locality} may not reset PCR {index}")
        self._values[index] = b"\x00" * DIGEST_SIZE
        self._dirty.add(index)

    def take_dirty(self) -> set[int]:
        """The indices changed since the last call; starts a new record."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def snapshot(self) -> list[bytes]:
        """All PCR values (copies) — used by state serialization."""
        return list(self._values)

    def restore(self, values: Sequence[bytes]) -> None:
        if len(values) != NUM_PCRS:
            raise TpmError(TPM_BADINDEX, f"expected {NUM_PCRS} PCR values")
        for v in values:
            if len(v) != DIGEST_SIZE:
                raise TpmError(TPM_BADINDEX, "bad PCR value length")
        self._values = [bytes(v) for v in values]
        self._dirty.update(range(NUM_PCRS))

    def composite_digest(self, selection: PcrSelection) -> bytes:
        """SHA-1 of TPM_PCR_COMPOSITE over the selected registers.

        This digest is what gets baked into sealed blobs, key PCR bindings
        and quote payloads, so it must be stable across serialize cycles.
        """
        values = b"".join(self._values[i] for i in selection.indices)
        composite = selection.serialize() + ByteWriter().u32(len(values)).getvalue() + values
        return sha1(composite)

    @staticmethod
    def composite_of(selection: PcrSelection, values: Sequence[bytes]) -> bytes:
        """Composite digest over explicit values (verifier side, no bank)."""
        if len(values) != len(selection.indices):
            raise TpmError(TPM_BADINDEX, "value count != selection count")
        blob = b"".join(values)
        composite = selection.serialize() + ByteWriter().u32(len(blob)).getvalue() + blob
        # Verifier-side hash: plain hashlib, no virtual-time charge, because
        # it runs on the *challenger*, not inside the TPM.
        return hashlib.sha1(composite).digest()

    @staticmethod
    def _check_index(index: int) -> None:
        if not 0 <= index < NUM_PCRS:
            raise TpmError(TPM_BADINDEX, f"PCR index {index} out of range")
