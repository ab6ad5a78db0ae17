"""Big-endian byte readers/writers used by the TPM wire format.

TPM 1.2 structures are marshalled big-endian ("network order").  These two
small classes centralise bounds checking so malformed input surfaces as
:class:`~repro.util.errors.MarshalError` rather than a silent short read.
"""

from __future__ import annotations

from repro.util.errors import MarshalError


class ByteWriter:
    """Accumulates big-endian fields into a byte string.

    Backed by a single ``bytearray`` — integer fields append via
    ``int.to_bytes`` straight into it, which profiles measurably faster
    than a chunk list of one-field ``struct.pack`` results on the state
    serialization path.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def __len__(self) -> int:
        return len(self._buffer)

    def u8(self, value: int) -> "ByteWriter":
        if not 0 <= value <= 0xFF:
            raise MarshalError(f"u8 out of range: {value}")
        self._buffer.append(value)
        return self

    def u16(self, value: int) -> "ByteWriter":
        if not 0 <= value <= 0xFFFF:
            raise MarshalError(f"u16 out of range: {value}")
        self._buffer += value.to_bytes(2, "big")
        return self

    def u32(self, value: int) -> "ByteWriter":
        if not 0 <= value <= 0xFFFFFFFF:
            raise MarshalError(f"u32 out of range: {value}")
        self._buffer += value.to_bytes(4, "big")
        return self

    def u64(self, value: int) -> "ByteWriter":
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise MarshalError(f"u64 out of range: {value}")
        self._buffer += value.to_bytes(8, "big")
        return self

    def raw(self, data: bytes) -> "ByteWriter":
        self._buffer += data
        return self

    def sized(self, data: bytes) -> "ByteWriter":
        """A u32 length prefix followed by the bytes (TPM_SIZED_BUFFER)."""
        self.u32(len(data))
        return self.raw(data)

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


class ByteReader:
    """Consumes big-endian fields from a byte string with bounds checking."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, count: int) -> bytes:
        pos = self._pos
        end = pos + count
        if count < 0 or end > len(self._data):
            self._bad_read(count)
        self._pos = end
        return self._data[pos:end]

    def _bad_read(self, count: int) -> None:
        """Raise for a negative or short read (kept off the hot path)."""
        if count < 0:
            raise MarshalError(f"negative read of {count} bytes")
        raise MarshalError(
            f"short read: wanted {count} bytes at offset {self._pos}, "
            f"only {self.remaining()} remain"
        )

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self._take(2), "big")

    def u32(self) -> int:
        pos = self._pos
        end = pos + 4
        if end > len(self._data):
            self._bad_read(4)
        self._pos = end
        return int.from_bytes(self._data[pos:end], "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    raw = _take

    def sized(self, max_size: int = 1 << 20) -> bytes:
        """Read a u32 length prefix then that many bytes (TPM_SIZED_BUFFER)."""
        size = self.u32()
        if size > max_size:
            raise MarshalError(f"sized buffer of {size} bytes exceeds cap {max_size}")
        return self._take(size)

    def expect_end(self) -> None:
        """Assert the whole buffer was consumed (strict unmarshalling)."""
        if self._pos != len(self._data):
            raise MarshalError(f"{self.remaining()} trailing bytes after structure")

    def rest(self) -> bytes:
        """Consume and return everything remaining."""
        return self._take(self.remaining())
