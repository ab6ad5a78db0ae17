"""TPM 1.2 constants: tags, ordinals, result codes, resource types.

Values follow the TCG TPM Main Specification Part 2 (rev 116) so that wire
traces from this emulator are recognisable to anyone who has stared at real
TPM 1.2 traffic.  Only the subset of ordinals the reproduction needs is
implemented; unknown ordinals return ``TPM_BAD_ORDINAL`` exactly like a real
device.
"""

from __future__ import annotations

# -- command/response tags ---------------------------------------------------
TPM_TAG_RQU_COMMAND = 0x00C1
TPM_TAG_RQU_AUTH1_COMMAND = 0x00C2
TPM_TAG_RQU_AUTH2_COMMAND = 0x00C3
TPM_TAG_RSP_COMMAND = 0x00C4
TPM_TAG_RSP_AUTH1_COMMAND = 0x00C5
TPM_TAG_RSP_AUTH2_COMMAND = 0x00C6

# -- result codes (TPM_BASE = 0) ---------------------------------------------
TPM_SUCCESS = 0x000
TPM_AUTHFAIL = 0x001
TPM_BADINDEX = 0x002
TPM_BAD_PARAMETER = 0x003
TPM_DEACTIVATED = 0x006
TPM_DISABLED = 0x007
TPM_FAIL = 0x009
TPM_BAD_ORDINAL = 0x00A
TPM_NOSPACE = 0x011
TPM_NOSRK = 0x012
TPM_NOTSEALED_BLOB = 0x013
TPM_OWNER_SET = 0x014
TPM_RESOURCES = 0x015
TPM_INVALID_AUTHHANDLE = 0x01C
TPM_NO_ENDORSEMENT = 0x023
TPM_INVALID_KEYUSAGE = 0x024
TPM_WRONG_ENTITYTYPE = 0x025
TPM_INVALID_POSTINIT = 0x026
TPM_BAD_KEY_PROPERTY = 0x028
TPM_BAD_MIGRATION = 0x029
TPM_BAD_SCHEME = 0x02A
TPM_BAD_DATASIZE = 0x02B
TPM_BAD_MODE = 0x02C
TPM_BAD_PRESENCE = 0x02D
TPM_NOTRESETABLE = 0x032
TPM_NOTLOCAL = 0x033
TPM_KEYNOTFOUND = 0x00D
TPM_BAD_COUNTER = 0x045
TPM_NOT_FULLWRITE = 0x046
TPM_BADTAG = 0x01E
TPM_IOERROR = 0x01F
TPM_ENCRYPT_ERROR = 0x020
TPM_DECRYPT_ERROR = 0x021
TPM_INVALID_KEYHANDLE = 0x022
TPM_WRONGPCRVAL = 0x018
TPM_BAD_LOCALITY = 0x03D
TPM_AREA_LOCKED = 0x03C
TPM_AUTH_CONFLICT = 0x03B
TPM_INVALID_STRUCTURE = 0x035
TPM_DISABLED_CMD = 0x008
TPM_NON_FATAL = 0x800
TPM_RETRY = TPM_NON_FATAL

# -- ordinals ------------------------------------------------------------------
TPM_ORD_OIAP = 0x0000000A
TPM_ORD_OSAP = 0x0000000B
TPM_ORD_TakeOwnership = 0x0000000D
TPM_ORD_OwnerClear = 0x0000005B
TPM_ORD_ForceClear = 0x0000005D
TPM_ORD_GetCapability = 0x00000065
TPM_ORD_GetRandom = 0x00000046
TPM_ORD_SelfTestFull = 0x00000050
TPM_ORD_ContinueSelfTest = 0x00000053
TPM_ORD_Startup = 0x00000099
TPM_ORD_SaveState = 0x00000098
TPM_ORD_Extend = 0x00000014
TPM_ORD_PcrRead = 0x00000015
TPM_ORD_Quote = 0x00000016
TPM_ORD_PCR_Reset = 0x000000C8
TPM_ORD_Seal = 0x00000017
TPM_ORD_Unseal = 0x00000018
TPM_ORD_UnBind = 0x0000001E
TPM_ORD_CreateWrapKey = 0x0000001F
TPM_ORD_LoadKey2 = 0x00000041
TPM_ORD_GetPubKey = 0x00000021
TPM_ORD_Sign = 0x0000003C
TPM_ORD_CertifyKey = 0x00000032
TPM_ORD_CreateCounter = 0x000000DC
TPM_ORD_IncrementCounter = 0x000000DD
TPM_ORD_ReadCounter = 0x000000DE
TPM_ORD_ReleaseCounter = 0x000000DF
TPM_ORD_NV_DefineSpace = 0x000000CC
TPM_ORD_NV_WriteValue = 0x000000CD
TPM_ORD_NV_ReadValue = 0x000000CF
TPM_ORD_FlushSpecific = 0x000000BA
TPM_ORD_MakeIdentity = 0x00000079
TPM_ORD_ActivateIdentity = 0x0000007A
TPM_ORD_ReadPubek = 0x0000007C
TPM_ORD_ChangeAuth = 0x0000000C
TPM_ORD_CreateMigrationBlob = 0x00000028
TPM_ORD_ConvertMigrationBlob = 0x0000002A
TPM_ORD_AuthorizeMigrationKey = 0x0000002B
TPM_ORD_DirWriteAuth = 0x00000019
TPM_ORD_DirRead = 0x0000001A
TPM_ORD_GetTestResult = 0x00000054

#: human-readable ordinal names, for logs, audit records and policies
ORDINAL_NAMES = {
    TPM_ORD_OIAP: "TPM_OIAP",
    TPM_ORD_OSAP: "TPM_OSAP",
    TPM_ORD_TakeOwnership: "TPM_TakeOwnership",
    TPM_ORD_OwnerClear: "TPM_OwnerClear",
    TPM_ORD_ForceClear: "TPM_ForceClear",
    TPM_ORD_GetCapability: "TPM_GetCapability",
    TPM_ORD_GetRandom: "TPM_GetRandom",
    TPM_ORD_SelfTestFull: "TPM_SelfTestFull",
    TPM_ORD_ContinueSelfTest: "TPM_ContinueSelfTest",
    TPM_ORD_Startup: "TPM_Startup",
    TPM_ORD_SaveState: "TPM_SaveState",
    TPM_ORD_Extend: "TPM_Extend",
    TPM_ORD_PcrRead: "TPM_PCRRead",
    TPM_ORD_Quote: "TPM_Quote",
    TPM_ORD_PCR_Reset: "TPM_PCR_Reset",
    TPM_ORD_Seal: "TPM_Seal",
    TPM_ORD_Unseal: "TPM_Unseal",
    TPM_ORD_UnBind: "TPM_UnBind",
    TPM_ORD_CreateWrapKey: "TPM_CreateWrapKey",
    TPM_ORD_LoadKey2: "TPM_LoadKey2",
    TPM_ORD_GetPubKey: "TPM_GetPubKey",
    TPM_ORD_Sign: "TPM_Sign",
    TPM_ORD_CertifyKey: "TPM_CertifyKey",
    TPM_ORD_CreateCounter: "TPM_CreateCounter",
    TPM_ORD_IncrementCounter: "TPM_IncrementCounter",
    TPM_ORD_ReadCounter: "TPM_ReadCounter",
    TPM_ORD_ReleaseCounter: "TPM_ReleaseCounter",
    TPM_ORD_NV_DefineSpace: "TPM_NV_DefineSpace",
    TPM_ORD_NV_WriteValue: "TPM_NV_WriteValue",
    TPM_ORD_NV_ReadValue: "TPM_NV_ReadValue",
    TPM_ORD_FlushSpecific: "TPM_FlushSpecific",
    TPM_ORD_MakeIdentity: "TPM_MakeIdentity",
    TPM_ORD_ActivateIdentity: "TPM_ActivateIdentity",
    TPM_ORD_ReadPubek: "TPM_ReadPubek",
    TPM_ORD_ChangeAuth: "TPM_ChangeAuth",
    TPM_ORD_CreateMigrationBlob: "TPM_CreateMigrationBlob",
    TPM_ORD_ConvertMigrationBlob: "TPM_ConvertMigrationBlob",
    TPM_ORD_DirWriteAuth: "TPM_DirWriteAuth",
    TPM_ORD_DirRead: "TPM_DirRead",
    TPM_ORD_GetTestResult: "TPM_GetTestResult",
}


def ordinal_name(ordinal: int) -> str:
    """Name for an ordinal, or a hex placeholder for unknown ones."""
    name = ORDINAL_NAMES.get(ordinal)
    return name if name is not None else f"TPM_ORD_{ordinal:#010x}"


# -- startup types -------------------------------------------------------------
TPM_ST_CLEAR = 0x0001
TPM_ST_STATE = 0x0002
TPM_ST_DEACTIVATED = 0x0003

# -- entity types (OSAP) ---------------------------------------------------------
TPM_ET_KEYHANDLE = 0x0001
TPM_ET_OWNER = 0x0002
TPM_ET_SRK = 0x0004
TPM_ET_COUNTER = 0x000A
TPM_ET_NV = 0x000B

# -- resource types (FlushSpecific) ---------------------------------------------
TPM_RT_KEY = 0x00000001
TPM_RT_AUTH = 0x00000002
TPM_RT_COUNTER = 0x00000006

# -- key usage ------------------------------------------------------------------
TPM_KEY_SIGNING = 0x0010
TPM_KEY_STORAGE = 0x0011
TPM_KEY_IDENTITY = 0x0012
TPM_KEY_BIND = 0x0014
TPM_KEY_LEGACY = 0x0015

KEY_USAGE_NAMES = {
    TPM_KEY_SIGNING: "signing",
    TPM_KEY_STORAGE: "storage",
    TPM_KEY_IDENTITY: "identity",
    TPM_KEY_BIND: "bind",
    TPM_KEY_LEGACY: "legacy",
}

# -- signature / encryption schemes ----------------------------------------------
TPM_SS_RSASSAPKCS1v15_SHA1 = 0x0002
TPM_SS_RSASSAPKCS1v15_INFO = 0x0003
TPM_ES_RSAESPKCSv15 = 0x0002
TPM_ES_RSAESOAEP_SHA1_MGF1 = 0x0003

# -- algorithms -------------------------------------------------------------------
TPM_ALG_RSA = 0x00000001
TPM_ALG_SHA = 0x00000004
TPM_ALG_HMAC = 0x00000005

# -- capability areas (GetCapability subset) ---------------------------------------
TPM_CAP_PROPERTY = 0x00000005
TPM_CAP_PROP_PCR = 0x00000101
TPM_CAP_PROP_MANUFACTURER = 0x00000103
TPM_CAP_PROP_KEYS = 0x00000104
TPM_CAP_PROP_MAX_KEYS = 0x00000110
TPM_CAP_PROP_COUNTERS = 0x0000010C
TPM_CAP_VERSION = 0x00000006

# -- fixed handles ------------------------------------------------------------------
TPM_KH_SRK = 0x40000000
TPM_KH_OWNER = 0x40000001
TPM_KH_EK = 0x40000006

# -- platform constants ----------------------------------------------------------------
NUM_PCRS = 24
DIGEST_SIZE = 20
NONCE_SIZE = 20
AUTHDATA_SIZE = 20
MAX_KEY_SLOTS = 10        # loaded-key slots, matching common 1.2 parts
MAX_SESSIONS = 16
MAX_COUNTERS = 8
MAX_NV_SPACE = 2048       # bytes of NV data area
#: PCRs 16-23 are resettable from the right locality (debug/DRTM range)
RESETTABLE_PCR_FIRST = 16
WELL_KNOWN_SECRET = b"\x00" * AUTHDATA_SIZE
