"""PCR ordinals: Extend, PCRRead, PCR_Reset, Quote lives in signing.py."""

from __future__ import annotations

from repro.tpm.constants import (
    DIGEST_SIZE,
    TPM_ORD_Extend,
    TPM_ORD_PCR_Reset,
    TPM_ORD_PcrRead,
)
from repro.tpm.dispatch import CommandContext, handler
from repro.tpm.pcr import PcrSelection


@handler(TPM_ORD_Extend)
def tpm_extend(ctx: CommandContext) -> bytes:
    """TPM_Extend: fold a measurement into a PCR; returns the new value."""
    index = ctx.reader.u32()
    digest = ctx.reader.raw(DIGEST_SIZE)
    ctx.reader.expect_end()
    new_value = ctx.state.pcrs.extend(index, digest)
    return new_value


@handler(TPM_ORD_PcrRead)
def tpm_pcr_read(ctx: CommandContext) -> bytes:
    """TPM_PCRRead: current value of one register."""
    index = ctx.reader.u32()
    ctx.reader.expect_end()
    return ctx.state.pcrs.read(index)


@handler(TPM_ORD_PCR_Reset)
def tpm_pcr_reset(ctx: CommandContext) -> bytes:
    """TPM_PCR_Reset: reset the selected resettable PCRs (locality-gated)."""
    selection = PcrSelection.deserialize(ctx.reader)
    ctx.reader.expect_end()
    for index in selection.indices:
        ctx.state.pcrs.reset(index, ctx.locality)
    return b""
