"""Executable reference model of the authz-relevant platform state.

The conformance oracle: a deliberately small, independent re-statement of
what the paper's access-control pipeline is *supposed* to decide.  The
model tracks, per guest, only the facts that can change an authorization
outcome — its identity state, the policy grants on the guest's current
instance, whether the instance binding still matches, and a coarse
health fact — and predicts for every command the
:class:`~repro.core.reason.Reason` code the real monitor + cache +
supervisor pipeline must decide with, plus the set of return codes it is
allowed to answer with.  This is the one reference decision: the
explorer and the piggyback oracle (:mod:`repro.verify.oracle`) both ask
it.

Independence discipline: during a run the model never calls into the
monitor, the policy engine or the identity registry — predictions come
purely from events the driver reported (``on_*``) plus the command about
to be issued.  The single sanctioned coupling is
:meth:`ReferenceModel.sync_guest`, which seeds the model from live
platform state: the explorer calls it at schedule boundaries so batched
runs need not rebuild a platform per schedule, and the piggyback oracle
calls it before each command it checks.

The model also carries a shadow PCR bank per guest so multi-step runs
check *state* conformance, not just per-command verdicts: an extend the
pipeline reports as successful must land in the real PCR exactly as
``SHA1(old || measurement)`` predicts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

from repro.core.policy import OWNER_CLASSES, CommandClass
from repro.core.reason import Reason
from repro.tpm.constants import (
    TPM_AUTHFAIL,
    TPM_FAIL,
    TPM_RESOURCES,
    TPM_SUCCESS,
)

#: return codes a degraded/turbulent instance may legitimately produce:
#: success (it recovered), authz deny (gate), shed (admission), or the
#: graceful fault surface.  Anything else is a conformance violation
#: even under chaos.
TURBULENT_CODES: FrozenSet[int] = frozenset(
    {TPM_SUCCESS, TPM_AUTHFAIL, TPM_RESOURCES, TPM_FAIL}
)

ALLOW_CODES: FrozenSet[int] = frozenset({TPM_SUCCESS})
DENY_CODES: FrozenSet[int] = frozenset({TPM_AUTHFAIL})


@dataclass(frozen=True)
class Prediction:
    """What the model expects the pipeline to do with one command."""

    verdict: str  # "allow" | "deny" | "degrade"
    accept: FrozenSet[int]
    reason: Reason

    @property
    def strict(self) -> bool:
        """Strict predictions also pin the monitor's denial counter."""
        return self.verdict in ("allow", "deny")


def _deny(reason: Reason) -> Prediction:
    return Prediction(verdict="deny", accept=DENY_CODES, reason=reason)


def observed_identity(identities, domain) -> str:
    """A guest's identity fact, read from a live identity registry."""
    identity = identities.lookup(domain.domid)
    if identity is None:
        return "unregistered"
    if domain.measurement != identity.measurement:
        return "mismatch"
    return "registered"


@dataclass
class GuestModel:
    """Authz-relevant state of one guest, as the model believes it."""

    name: str
    #: "registered", "unregistered" (never measured, or forgotten) or
    #: "mismatch" (registered, but the live measurement differs)
    identity: str = "registered"
    #: command classes granted to this guest's identity on its instance
    grants: Set[CommandClass] = field(default_factory=lambda: set(OWNER_CLASSES))
    #: health of the guest's instance: "healthy"; "turbulent" while the
    #: supervisor may legitimately answer with shed/degrade codes (wedge
    #: observed, not yet drained back to healthy); or "gated" when the
    #: health gate refuses the command's class outright
    health: str = "healthy"
    #: shadow PCR bank: index -> 20-byte value (only touched indices)
    pcrs: Dict[int, bytes] = field(default_factory=dict)


class ReferenceModel:
    """Predicts allow/deny/degrade for commands against N guests."""

    def __init__(self) -> None:
        self.guests: Dict[str, GuestModel] = {}

    # -- seeding (the one sanctioned read of live state) ---------------------

    def sync_guest(
        self,
        name: str,
        identity: str,
        grants: Set[CommandClass],
        pcr_values: Dict[int, bytes],
        health: str = "healthy",
    ) -> GuestModel:
        """(Re)seed one guest's model state from observed platform state."""
        guest = GuestModel(
            name=name,
            identity=identity,
            grants=set(grants),
            health=health,
            pcrs=dict(pcr_values),
        )
        self.guests[name] = guest
        return guest

    # -- events the driver reports -------------------------------------------

    def on_guest_added(self, name: str) -> None:
        """A fresh guest: measured at launch, full owner grant."""
        self.guests[name] = GuestModel(name=name)

    def on_grant(self, name: str, command_class: CommandClass) -> None:
        self.guests[name].grants.add(command_class)

    def on_revoke(self, name: str, command_class: CommandClass) -> None:
        self.guests[name].grants.discard(command_class)

    def on_identity_forgotten(self, name: str) -> None:
        self.guests[name].identity = "unregistered"

    def on_identity_reregistered(self, name: str) -> None:
        # Same kernel/name/config => same measurement => binding matches.
        self.guests[name].identity = "registered"

    def on_manager_restart(self) -> None:
        """Manager restart semantics, as the pipeline defines them.

        ``restore_instance`` re-registers any forgotten identity and
        re-creates each instance under a *new* id whose creation hook
        grants the full owner profile — so revocations deliberately do
        NOT survive a restart.  The model mirrors that contract; if the
        pipeline ever changes it, the explorer will say so.
        """
        for guest in self.guests.values():
            guest.identity = "registered"
            guest.grants = set(OWNER_CLASSES)

    def on_migrated(self, name: str) -> None:
        """Import instantiates a fresh instance: full owner grant again."""
        guest = self.guests[name]
        guest.identity = "registered"
        guest.grants = set(OWNER_CLASSES)

    def on_wedged(self, name: str) -> None:
        self.guests[name].health = "turbulent"

    def on_settled(self, name: str) -> None:
        """Supervisor drained back to healthy: strictness is restored."""
        self.guests[name].health = "healthy"

    # -- prediction ------------------------------------------------------------

    def predict(
        self, subject: str, target: str,
        command_class: Optional[CommandClass],
    ) -> Prediction:
        """Predict the outcome of ``subject`` issuing a ``command_class``
        command at ``target``'s instance (``subject == target`` is the
        normal own-vTPM path; anything else is a cross-binding attempt;
        a ``None`` class is a frame that does not parse), checking in the
        monitor's precedence order.  Turbulence comes first: the ring may
        then shed a command before the monitor sees it, so no code is
        strict.
        """
        sub = self.guests[subject]
        tgt = self.guests[target]
        if tgt.health == "turbulent":
            return Prediction(
                verdict="degrade", accept=TURBULENT_CODES,
                reason=Reason.HEALTH_GATE,
            )
        if command_class is None:
            return _deny(Reason.MALFORMED_FRAME)
        if tgt.health == "gated":
            return _deny(Reason.HEALTH_GATE)
        if sub.identity == "unregistered":
            return _deny(Reason.UNREGISTERED_IDENTITY)
        if sub.identity == "mismatch":
            return _deny(Reason.MEASUREMENT_MISMATCH)
        if subject != target:
            return _deny(Reason.BINDING_MISMATCH)
        if command_class is CommandClass.UNKNOWN:
            return _deny(Reason.UNKNOWN_ORDINAL)
        if command_class not in sub.grants:
            return _deny(Reason.NO_GRANT)
        return Prediction(
            verdict="allow", accept=ALLOW_CODES, reason=Reason.GRANTED
        )

    # -- shadow PCR bank -------------------------------------------------------

    def pcr_value(self, name: str, index: int) -> Optional[bytes]:
        return self.guests[name].pcrs.get(index)

    def apply_extend(self, name: str, index: int, measurement: bytes) -> bytes:
        """Mirror a *successful* extend into the shadow bank.

        Callers apply this only when the pipeline actually returned
        ``TPM_SUCCESS`` — the model predicts outcomes, the pipeline
        decides them, and the shadow tracks what should now be true.
        """
        guest = self.guests[name]
        old = guest.pcrs.get(index, b"\x00" * 20)
        new = hashlib.sha1(old + measurement).digest()
        guest.pcrs[index] = new
        return new
