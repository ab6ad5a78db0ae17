#!/usr/bin/env python3
"""Deep attestation: chain a guest's vTPM quote to the hardware TPM.

Runs the full chain on a hardened deployment (vTPM manager in an
unprivileged stub domain):

1. guest quotes its PCRs with a vTPM signing key;
2. the manager endorses that key — a hardware-TPM AIK signs
   (key, VM identity measurement, platform boot-PCR composite);
3. the challenger verifies quote → endorsement → platform state,
   and rejects the chain when the platform firmware drifts.

Usage:  python examples/deep_attestation.py
"""

import hashlib

from repro import AccessMode, build_platform, fresh_timing_context
from repro.core.certification import verify_endorsement
from repro.tpm.pcr import PcrBank, PcrSelection
from repro.tpm.structures import make_quote_info
from repro.workloads.mixes import KEY_AUTH, GuestSession


def main() -> None:
    fresh_timing_context()
    platform = build_platform(
        AccessMode.IMPROVED, seed=77, name="hardened", stub_manager=True
    )
    manager_dom = platform.xen.domain(platform.manager.manager_domid)
    print(f"vTPM manager runs in {manager_dom.name} "
          f"(domid {manager_dom.domid}, privileged={manager_dom.privileged})")

    guest = platform.add_guest("prod-vm")
    session = GuestSession(guest, platform.rng.fork("s"))
    guest.client.extend(12, hashlib.sha1(b"prod-app-v4").digest())

    # Step 1: the guest quotes PCRs with its vTPM key.
    nonce = platform.rng.bytes(20)
    composite, values, signature = guest.client.quote(
        session.sign_key, KEY_AUTH, nonce, [0, 12]
    )
    vtpm_key = guest.client.get_pub_key(session.sign_key, KEY_AUTH)
    print("guest quote produced")

    # Step 2: the manager endorses the vTPM key via the hardware AIK.
    cert = platform.certifier.endorse(
        platform.manager, guest.domain.domid, guest.instance_id, vtpm_key
    )
    print(f"endorsement issued ({len(cert.serialize())} bytes)")

    # Step 3: challenger-side verification of the full chain.
    quote_ok = vtpm_key.verify_sha1(
        hashlib.sha1(make_quote_info(composite, nonce)).digest(), signature
    ) and PcrBank.composite_of(PcrSelection([0, 12]), values) == composite
    identity = platform.identities.lookup(guest.domain.domid)
    chain_ok = verify_endorsement(
        cert,
        platform.certifier.aik_public,
        expected_identity_hex=identity.hex,
        expected_platform_composite=platform.hw.composite(),
    )
    print(f"quote verifies: {quote_ok}; endorsement chain verifies: {chain_ok}")
    assert quote_ok and chain_ok

    # A firmware change breaks newly issued chains against the old reference.
    reference = platform.hw.composite()
    platform.hw.client.extend(1, hashlib.sha1(b"unsigned-firmware").digest())
    cert2 = platform.certifier.endorse(
        platform.manager, guest.domain.domid, guest.instance_id, vtpm_key
    )
    drifted = verify_endorsement(
        cert2, platform.certifier.aik_public,
        expected_platform_composite=reference,
    )
    print(f"after platform drift, new endorsement matches old reference: {drifted}")
    assert not drifted
    print("\nchallenger correctly distinguishes the trusted platform state")


if __name__ == "__main__":
    main()
