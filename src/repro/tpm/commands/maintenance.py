"""Maintenance ordinals: auth change, key migration, DIR, test result.

The migration pair (CreateMigrationBlob/ConvertMigrationBlob) is how a
*key* legally leaves one TPM for another — the sanctioned counterpart of
the wholesale vTPM-state migration in :mod:`repro.vtpm.migration`.  Keys
whose ``migrationAuth`` equals the device's ``tpmProof`` (the EK, SRK and
AIKs) are non-migratable and refuse the path, exactly as the spec demands.
"""

from __future__ import annotations

from repro.crypto.hmac_util import constant_time_equal
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.symmetric import EncryptedBlob, SymmetricKey
from repro.tpm.constants import (
    AUTHDATA_SIZE,
    DIGEST_SIZE,
    TPM_AUTHFAIL,
    TPM_BAD_MIGRATION,
    TPM_BAD_PARAMETER,
    TPM_DECRYPT_ERROR,
    TPM_INVALID_KEYUSAGE,
    TPM_KEY_STORAGE,
    TPM_ORD_ChangeAuth,
    TPM_ORD_ConvertMigrationBlob,
    TPM_ORD_CreateMigrationBlob,
    TPM_ORD_DirRead,
    TPM_ORD_DirWriteAuth,
    TPM_ORD_GetTestResult,
)
from repro.tpm.dispatch import CommandContext, handler
from repro.tpm.structures import PrivatePortion, TpmKeyBlob
from repro.util.bytesio import ByteReader, ByteWriter
from repro.util.errors import CryptoError, MarshalError, TpmError

MIG_MAGIC = b"TPMMIGR1"
TRANSPORT_KEY_SIZE = 32


@handler(TPM_ORD_ChangeAuth)
def tpm_change_auth(ctx: CommandContext) -> bytes:
    """TPM_ChangeAuth: re-wrap a key blob with a new usage AuthData.

    Params: parentHandle, oldAuth(20), newAuth(20), sized keyBlob.
    AUTH1 with the parent's auth; ``oldAuth`` must match the blob's
    current usage secret (the spec's second trailer, collapsed).
    """
    parent_handle = ctx.reader.u32()
    old_auth = ctx.reader.raw(AUTHDATA_SIZE)
    new_auth = ctx.reader.raw(AUTHDATA_SIZE)
    blob_bytes = ctx.reader.sized(max_size=1 << 16)
    ctx.reader.expect_end()
    parent = ctx.state.keys.get(parent_handle)
    if parent.usage != TPM_KEY_STORAGE:
        raise TpmError(TPM_INVALID_KEYUSAGE, "parent must be a storage key")
    ctx.verify_auth(parent.usage_auth)
    try:
        blob = TpmKeyBlob.deserialize(blob_bytes)
    except MarshalError as exc:
        raise TpmError(TPM_BAD_PARAMETER, f"bad key blob: {exc}") from exc
    portion = blob.unwrap(parent.keypair)
    if not constant_time_equal(portion.usage_auth, old_auth):
        raise TpmError(TPM_AUTHFAIL, "old auth mismatch")
    rewrapped = TpmKeyBlob.wrap(
        parent=parent.keypair,
        keypair=portion.keypair,
        usage=blob.usage,
        usage_auth=new_auth,
        migration_auth=portion.migration_auth,
        rng=ctx.state.rng,
        pcr_info=blob.pcr_info,
        scheme=blob.scheme,
    )
    return ByteWriter().sized(rewrapped.serialize()).getvalue()


@handler(TPM_ORD_CreateMigrationBlob)
def tpm_create_migration_blob(ctx: CommandContext) -> bytes:
    """TPM_CreateMigrationBlob (REWRAP): package a key for another TPM.

    Params: parentHandle, migrationAuth(20), destModulus sized,
    destExponent u32, destBits u32, sized keyBlob.  AUTH1 parent auth.
    Out: sized migration blob openable only by the destination parent.
    """
    parent_handle = ctx.reader.u32()
    migration_auth = ctx.reader.raw(AUTHDATA_SIZE)
    dest_modulus = ctx.reader.sized(max_size=1 << 12)
    dest_exponent = ctx.reader.u32()
    dest_bits = ctx.reader.u32()
    blob_bytes = ctx.reader.sized(max_size=1 << 16)
    ctx.reader.expect_end()
    parent = ctx.state.keys.get(parent_handle)
    if parent.usage != TPM_KEY_STORAGE:
        raise TpmError(TPM_INVALID_KEYUSAGE, "parent must be a storage key")
    ctx.verify_auth(parent.usage_auth)
    try:
        blob = TpmKeyBlob.deserialize(blob_bytes)
    except MarshalError as exc:
        raise TpmError(TPM_BAD_PARAMETER, f"bad key blob: {exc}") from exc
    portion = blob.unwrap(parent.keypair)
    # Non-migratable keys carry tpmProof as their migration secret.
    if constant_time_equal(portion.migration_auth, ctx.state.tpm_proof):
        raise TpmError(TPM_BAD_MIGRATION, "key is not migratable")
    if not constant_time_equal(portion.migration_auth, migration_auth):
        raise TpmError(TPM_AUTHFAIL, "migration auth mismatch")
    destination = RsaPublicKey(
        n=int.from_bytes(dest_modulus, "big"), e=dest_exponent, bits=dest_bits
    )
    transport_key = ctx.state.rng.bytes(TRANSPORT_KEY_SIZE)
    enc_transport = destination.encrypt(transport_key, ctx.state.rng)
    inner = ByteWriter()
    inner.u16(blob.usage)
    inner.u16(blob.scheme)
    inner.sized(portion.serialize())
    enc_inner = SymmetricKey(transport_key).encrypt(
        inner.getvalue(), ctx.state.rng
    )
    out = ByteWriter()
    out.raw(MIG_MAGIC)
    out.sized(enc_transport)
    out.sized(enc_inner.serialize())
    return ByteWriter().sized(out.getvalue()).getvalue()


@handler(TPM_ORD_ConvertMigrationBlob)
def tpm_convert_migration_blob(ctx: CommandContext) -> bytes:
    """TPM_ConvertMigrationBlob: accept a migrated key on the destination.

    Params: destParentHandle, sized migrationBlob.  AUTH1 dest parent auth.
    Out: sized ordinary key blob loadable with TPM_LoadKey2.
    """
    parent_handle = ctx.reader.u32()
    mig_bytes = ctx.reader.sized(max_size=1 << 16)
    ctx.reader.expect_end()
    parent = ctx.state.keys.get(parent_handle)
    if parent.usage != TPM_KEY_STORAGE:
        raise TpmError(TPM_INVALID_KEYUSAGE, "parent must be a storage key")
    ctx.verify_auth(parent.usage_auth)
    r = ByteReader(mig_bytes)
    if r.raw(len(MIG_MAGIC)) != MIG_MAGIC:
        raise TpmError(TPM_BAD_MIGRATION, "not a migration blob")
    enc_transport = r.sized(max_size=1 << 12)
    enc_inner = EncryptedBlob.deserialize(r.sized(max_size=1 << 16))
    r.expect_end()
    try:
        transport_key = parent.keypair.decrypt(enc_transport)
        inner = ByteReader(SymmetricKey(transport_key).decrypt(enc_inner))
    except CryptoError as exc:
        raise TpmError(
            TPM_DECRYPT_ERROR, f"migration blob not for this parent: {exc}"
        ) from exc
    usage = inner.u16()
    scheme = inner.u16()
    portion = PrivatePortion.deserialize(inner.sized(max_size=1 << 16))
    inner.expect_end()
    rewrapped = TpmKeyBlob.wrap(
        parent=parent.keypair,
        keypair=portion.keypair,
        usage=usage,
        usage_auth=portion.usage_auth,
        migration_auth=portion.migration_auth,
        rng=ctx.state.rng,
        scheme=scheme,
    )
    return ByteWriter().sized(rewrapped.serialize()).getvalue()


@handler(TPM_ORD_DirWriteAuth)
def tpm_dir_write_auth(ctx: CommandContext) -> bytes:
    """TPM_DirWriteAuth: owner-authorized write of the DIR register."""
    index = ctx.reader.u32()
    value = ctx.reader.raw(DIGEST_SIZE)
    ctx.reader.expect_end()
    if index != 0:
        raise TpmError(TPM_BAD_PARAMETER, "only DIR 0 exists on 1.2 parts")
    ctx.verify_auth(ctx.state.owner_auth)
    ctx.state.dir_register = value
    return b""


@handler(TPM_ORD_DirRead)
def tpm_dir_read(ctx: CommandContext) -> bytes:
    """TPM_DirRead: unauthenticated read of the DIR register."""
    index = ctx.reader.u32()
    ctx.reader.expect_end()
    if index != 0:
        raise TpmError(TPM_BAD_PARAMETER, "only DIR 0 exists on 1.2 parts")
    return ctx.state.dir_register


@handler(TPM_ORD_GetTestResult)
def tpm_get_test_result(ctx: CommandContext) -> bytes:
    """TPM_GetTestResult: self-test diagnostics (always healthy here)."""
    ctx.reader.expect_end()
    return ByteWriter().sized(b"\x00\x00").getvalue()
