"""Piggyback conformance oracle for existing harness runs.

Wraps an :class:`~repro.core.monitor.AccessControlMonitor`'s
``authorize`` and, for every command the pipeline processes, asks the
reference model (:mod:`repro.verify.model`) what the decision *should*
be, then compares the model's reason code against the pipeline's.  Any
disagreement — in verdict or in reason — is a conformance mismatch.

The oracle holds no decision logic of its own: it is an adapter that
seeds the model from live state with
:meth:`~repro.verify.model.ReferenceModel.sync_guest` before each
command — the caller's identity fact, the policy's grants for it on the
target instance, and whether the health gate refuses the command's
class — and then calls
:meth:`~repro.verify.model.ReferenceModel.predict`.

Every read it makes is charge-free (identity lookup, the policy's
:meth:`~repro.core.policy.PolicyEngine.granted_classes`, the health
gate, the command parser), so attaching it perturbs neither virtual
time nor digests nor audit chains: the chaos and cluster demos can run
with the oracle on (``--conformance``) and still satisfy their own
determinism and non-interference rails.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.monitor import AccessControlMonitor
from repro.core.policy import classify_ordinal
from repro.tpm.marshal import parse_command
from repro.util.errors import MarshalError
from repro.verify.model import Prediction, ReferenceModel, observed_identity

#: mismatch messages kept per oracle (the count is exact; the text is a
#: bounded sample so a hot loop cannot balloon memory)
_MISMATCH_SAMPLE_CAP = 20


class MonitorConformanceOracle:
    """Predicts every authorize() call and records disagreements."""

    def __init__(self, monitor: AccessControlMonitor) -> None:
        if not isinstance(monitor, AccessControlMonitor):
            raise TypeError(
                "conformance oracle needs an AccessControlMonitor "
                f"(got {type(monitor).__name__}); the baseline monitor "
                "has no authz claim to check"
            )
        config = monitor.config
        if not (config.identity_check and config.policy_check):
            raise ValueError(
                "conformance oracle needs the identity and policy checks "
                "on; the reference model has no ablated configurations"
            )
        self.monitor = monitor
        self.model = ReferenceModel()
        self.checks = 0
        self.mismatch_count = 0
        self.mismatches: List[str] = []
        self._installed = False

    # -- seeding the model ---------------------------------------------------------

    def predict(
        self, caller, instance_id: int, bound_identity_hex, wire: bytes
    ) -> Prediction:
        """Seed the model with this command's live facts and ask it."""
        monitor = self.monitor
        try:
            command_class = classify_ordinal(parse_command(wire).ordinal)
        except MarshalError:
            command_class = None
        gate = monitor.health_gate
        index = monitor.health_index
        gated = (
            command_class is not None
            and gate is not None
            and (index is None or instance_id in index)
            and gate(instance_id, command_class) is not None
        )
        health = "gated" if gated else "healthy"
        known = monitor.identities.lookup(caller.domid)
        grants = (
            set() if known is None
            else monitor.policy.granted_classes(known.hex, instance_id)
        )
        model = self.model
        model.sync_guest(
            "caller", identity=observed_identity(monitor.identities, caller),
            grants=grants, pcr_values={}, health=health,
        )
        target = "caller"
        if known is not None and bound_identity_hex not in (None, known.hex):
            target = "bound"  # another identity's instance
            model.sync_guest(
                target, identity="registered", grants=set(), pcr_values={},
                health=health,
            )
        return model.predict("caller", target, command_class)

    # -- installation ------------------------------------------------------------

    def install(self) -> "MonitorConformanceOracle":
        if self._installed:
            return self
        inner = self.monitor.authorize
        oracle = self

        def authorize(caller, instance_id, bound_identity_hex, wire):
            expected = oracle.predict(
                caller, instance_id, bound_identity_hex, wire
            ).reason
            result = inner(caller, instance_id, bound_identity_hex, wire)
            oracle.checks += 1
            if result.reason is not expected:
                oracle.mismatch_count += 1
                if len(oracle.mismatches) < _MISMATCH_SAMPLE_CAP:
                    oracle.mismatches.append(
                        f"dom{caller.domid} -> instance {instance_id}: "
                        f"pipeline said {result.reason.value}, model "
                        f"predicted {expected.value}"
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
