"""The closed set of reason codes for an authorization outcome.

The monitor returns one :class:`Reason` per command, the audit record
stores its value, ``ac.decisions{outcome, reason}`` counts it and the
reference model (:mod:`repro.verify.model`) predicts it.  The deny codes
are listed in the monitor's precedence order: a command that trips
several conditions is reported with the first one listed.
"""

from __future__ import annotations

import enum
from typing import Optional


class Reason(enum.Enum):
    """Why the monitor allowed or denied one command."""

    GRANTED = "granted"                  # identity, binding and policy passed
    UNCHECKED = "unchecked"              # baseline monitor / policy check off
    MALFORMED_FRAME = "malformed-frame"  # the command frame did not parse
    HEALTH_GATE = "health-gate"          # the supervisor refuses this class
    UNREGISTERED_IDENTITY = "unregistered-identity"
    MEASUREMENT_MISMATCH = "measurement-mismatch"  # live != registered
    BINDING_MISMATCH = "binding-mismatch"  # caller is not the bound identity
    UNKNOWN_ORDINAL = "unknown-ordinal"  # no command class for the ordinal
    NO_GRANT = "no-grant"                # no rule grants the class

    def __init__(self, code: str) -> None:
        #: only these two codes let a command through
        self.allowed = code in ("granted", "unchecked")

    @classmethod
    def from_record(cls, text: str) -> Optional["Reason"]:
        """The code an audit record's reason carries (``granted:7`` is
        :attr:`GRANTED`); ``None`` for a record that is not a decision."""
        try:
            return cls(text.partition(":")[0])
        except ValueError:
            return None
