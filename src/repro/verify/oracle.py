"""Piggyback conformance oracle for existing harness runs.

Wraps an :class:`~repro.core.monitor.AccessControlMonitor`'s
``authorize`` and, for every command the pipeline processes,
independently re-derives what the decision *should* be — straight from
the identity registry, the policy index and the health gate, with no
decision cache, no charges and no rng — then compares it against the
pipeline's verdict.  Any disagreement is a conformance mismatch.

This is deliberately charge-free (it never calls ``charge()``-bearing
code paths) so attaching it perturbs neither virtual time nor digests
nor audit chains: the chaos and cluster demos can run with the oracle on
(``--conformance``) and still satisfy their own determinism and
non-interference rails.

The re-derivation reads ``IdentityRegistry._by_domid`` and
``PolicyEngine._index`` directly: an oracle's job is to double-check the
production path from outside it, and the public entry points charge
virtual time the observed run must not feel twice.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.monitor import AccessControlMonitor
from repro.core.policy import ANY, CommandClass, classify_ordinal
from repro.tpm.marshal import parse_command
from repro.util.errors import MarshalError

#: mismatch messages kept per oracle (the count is exact; the text is a
#: bounded sample so a hot loop cannot balloon memory)
_MISMATCH_SAMPLE_CAP = 20


class MonitorConformanceOracle:
    """Shadow-decides every authorize() call and records disagreements."""

    def __init__(self, monitor: AccessControlMonitor) -> None:
        if not isinstance(monitor, AccessControlMonitor):
            raise TypeError(
                "conformance oracle needs an AccessControlMonitor "
                f"(got {type(monitor).__name__}); the baseline monitor "
                "has no authz claim to check"
            )
        self.monitor = monitor
        self.checks = 0
        self.mismatch_count = 0
        self.mismatches: List[str] = []
        self._installed = False
        self._inner = None

    # -- the independent decision ------------------------------------------------

    def expected_allow(
        self, caller, instance_id: int, bound_identity_hex: Optional[str],
        wire: bytes,
    ) -> Optional[bool]:
        """Re-derive the decision; ``None`` when the oracle abstains."""
        monitor = self.monitor
        config = monitor.config
        try:
            parsed = parse_command(wire)  # charge-free
        except MarshalError:
            return False  # malformed frames must be denied
        command_class = classify_ordinal(parsed.ordinal)

        gate = monitor.health_gate
        if gate is not None:
            index = monitor.health_index
            if index is None or instance_id in index:
                if gate(instance_id, command_class) is not None:
                    return False

        subject = f"dom{caller.domid}"
        identity = monitor.identities._by_domid.get(caller.domid)
        if config.identity_check:
            if identity is None:
                return False
            if caller.measurement != identity.measurement:
                return False
            subject = identity.hex
            if (
                bound_identity_hex is not None
                and subject != bound_identity_hex
            ):
                return False
        elif identity is not None:
            subject = identity.hex

        if not config.policy_check:
            return True
        if command_class is CommandClass.UNKNOWN:
            return False
        policy_index = monitor.policy._index
        for key in (
            (subject, instance_id, command_class),
            (subject, ANY, command_class),
            (ANY, instance_id, command_class),
            (ANY, ANY, command_class),
        ):
            if key in policy_index:
                return True
        return False

    # -- installation ------------------------------------------------------------

    def install(self) -> "MonitorConformanceOracle":
        if self._installed:
            return self
        inner = self.monitor.authorize
        self._inner = inner
        oracle = self

        def authorize(caller, instance_id, bound_identity_hex, wire):
            expected = oracle.expected_allow(
                caller, instance_id, bound_identity_hex, wire
            )
            result = inner(caller, instance_id, bound_identity_hex, wire)
            oracle.checks += 1
            if expected is not None and result.allowed != expected:
                oracle.mismatch_count += 1
                if len(oracle.mismatches) < _MISMATCH_SAMPLE_CAP:
                    oracle.mismatches.append(
                        f"dom{caller.domid} -> instance {instance_id} "
                        f"{result.operation}: pipeline said "
                        f"{'allow' if result.allowed else 'deny'} "
                        f"({result.reason}), oracle expected "
                        f"{'allow' if expected else 'deny'}"
                    )
            return result

        self.monitor.authorize = authorize  # type: ignore[method-assign]
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            # Remove the instance attribute so the class method shows
            # through again.
            del self.monitor.authorize
            self._installed = False
            self._inner = None

    @property
    def ok(self) -> bool:
        return self.mismatch_count == 0

    def summary(self) -> str:
        verdict = "conformant" if self.ok else "NON-CONFORMANT"
        text = (f"conformance oracle: {self.checks} decisions checked, "
                f"{self.mismatch_count} mismatches ({verdict})")
        for sample in self.mismatches:
            text += f"\n  mismatch: {sample}"
        return text


def attach_oracle(platform) -> Optional[MonitorConformanceOracle]:
    """Install an oracle on a platform's monitor; ``None`` for baseline."""
    monitor = platform.monitor
    if not isinstance(monitor, AccessControlMonitor):
        return None
    return MonitorConformanceOracle(monitor).install()


def settle_oracles(oracles) -> int:
    """Uninstall every oracle and return total decisions checked.

    Raises :class:`~repro.util.errors.ReproError` if any oracle saw a
    mismatch — harness runs with ``--conformance`` fail loudly, not in
    a summary footnote.
    """
    from repro.util.errors import ReproError

    live = [oracle for oracle in oracles if oracle is not None]
    checks = 0
    complaints = []
    for oracle in live:
        oracle.uninstall()
        checks += oracle.checks
        if not oracle.ok:
            complaints.append(oracle.summary())
    if complaints:
        raise ReproError(
            "conformance oracle mismatch:\n" + "\n".join(complaints)
        )
    return checks
