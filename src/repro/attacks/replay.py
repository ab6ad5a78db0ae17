"""Replay attack: re-inject a captured authorized command.

A Dom0-level attacker can map the victim's ring page (it is granted to the
back-end domain) and inject bytes that look exactly like front-end traffic
— so the manager-level identity check *cannot* distinguish a replay.  The
designed defence is TPM 1.2's own rolling-nonce authorization: the session
nonce advanced when the original executed, so the stale HMAC fails.

This attack therefore documents defence-in-depth: it is blocked in **both**
regimes, by the TPM protocol layer rather than the new access-control
layer.  (Table 2 reports the blocking layer per cell.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.builder import GuestHandle, Platform
from repro.tpm import marshal
from repro.tpm.constants import TPM_ORD_IncrementCounter, TPM_SUCCESS


@dataclass
class ReplayAttack:
    """Capture an IncrementCounter and replay it through the ring."""

    platform: Platform
    victim: GuestHandle
    owner_auth: bytes
    counter_auth: bytes

    name = "replay"
    description = "Dom0 re-injects a captured authorized command into the ring"

    def run(self) -> tuple[bool, str]:
        victim = self.victim
        handle, _start = victim.client.create_counter(
            self.owner_auth, self.counter_auth, b"repl"
        )
        # Tap the victim's transport to capture the authorized increment.
        captured: list[bytes] = []
        original_send = victim.client._send

        def tap(wire: bytes) -> bytes:
            captured.append(wire)
            return original_send(wire)

        victim.client._send = tap
        try:
            after_first = victim.client.increment_counter(self.counter_auth, handle)
        finally:
            victim.client._send = original_send
        increments = [
            w for w in captured
            if marshal.parse_command(w).ordinal == TPM_ORD_IncrementCounter
        ]
        if not increments:
            return False, "capture failed: no IncrementCounter observed"
        replay_wire = increments[-1]
        # Inject through the manager exactly as ring-injected bytes would
        # arrive: attributed to the victim front-end domain.
        [response] = self.platform.manager.handle_batch(
            victim.domain.domid, victim.instance_id, [replay_wire]
        )
        code = marshal.parse_response(response).return_code
        now = victim.client.read_counter(handle)
        if code == TPM_SUCCESS or now != after_first:
            return True, (
                f"replay executed (code {code:#x}); counter moved "
                f"{after_first} → {now}"
            )
        return False, (
            f"replay rejected with code {code:#x} (rolling nonce); "
            f"counter still {now}"
        )
