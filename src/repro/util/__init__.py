"""Shared utilities: the error hierarchy and byte I/O."""

from repro.util.errors import (
    ReproError,
    MarshalError,
    TpmError,
    XenError,
    VtpmError,
    AccessControlError,
    SimulationError,
)
from repro.util.bytesio import ByteReader, ByteWriter

__all__ = [
    "ReproError",
    "MarshalError",
    "TpmError",
    "XenError",
    "VtpmError",
    "AccessControlError",
    "SimulationError",
    "ByteReader",
    "ByteWriter",
]
