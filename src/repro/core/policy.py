"""Per-command vTPM authorization policy.

Ordinals group into a handful of **command classes** (read, measure,
use-key, storage-admin, owner-admin, session); rules grant a (subject,
instance, class) triple, with wildcards on any position.  The engine is
deny-by-default and compiles rules into a hash table so the per-command
decision is an O(1) amortized lookup over at most eight key shapes — this
is what keeps the monitor's overhead flat as policies grow (Table 3).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional, Set, Tuple

from repro.core.reason import Reason
from repro.sim.timing import charge
from repro.tpm import constants as tc
from repro.util.errors import AccessControlError

#: wildcard sentinel usable for subject and instance positions
ANY = "*"


class CommandClass(enum.Enum):
    """Coarse authorization classes over TPM ordinals."""

    READ = "read"              # non-mutating queries
    MEASURE = "measure"        # PCR extend/reset
    USE_KEY = "use-key"        # crypto with loaded keys, seal/unseal
    STORAGE_ADMIN = "storage-admin"  # key loading/creation, NV, counters
    OWNER_ADMIN = "owner-admin"      # ownership lifecycle
    SESSION = "session"        # auth-session management
    UNKNOWN = "unknown"        # unrecognised ordinals (never allowed)


_CLASS_BY_ORDINAL: Dict[int, CommandClass] = {
    tc.TPM_ORD_PcrRead: CommandClass.READ,
    tc.TPM_ORD_GetRandom: CommandClass.READ,
    tc.TPM_ORD_GetCapability: CommandClass.READ,
    tc.TPM_ORD_ReadCounter: CommandClass.READ,
    tc.TPM_ORD_ReadPubek: CommandClass.READ,
    tc.TPM_ORD_SelfTestFull: CommandClass.READ,
    tc.TPM_ORD_ContinueSelfTest: CommandClass.READ,
    tc.TPM_ORD_Startup: CommandClass.READ,
    tc.TPM_ORD_SaveState: CommandClass.READ,
    tc.TPM_ORD_Extend: CommandClass.MEASURE,
    tc.TPM_ORD_PCR_Reset: CommandClass.MEASURE,
    tc.TPM_ORD_Quote: CommandClass.USE_KEY,
    tc.TPM_ORD_Sign: CommandClass.USE_KEY,
    tc.TPM_ORD_Seal: CommandClass.USE_KEY,
    tc.TPM_ORD_Unseal: CommandClass.USE_KEY,
    tc.TPM_ORD_UnBind: CommandClass.USE_KEY,
    tc.TPM_ORD_GetPubKey: CommandClass.USE_KEY,
    tc.TPM_ORD_ActivateIdentity: CommandClass.USE_KEY,
    tc.TPM_ORD_CertifyKey: CommandClass.USE_KEY,
    tc.TPM_ORD_CreateWrapKey: CommandClass.STORAGE_ADMIN,
    tc.TPM_ORD_LoadKey2: CommandClass.STORAGE_ADMIN,
    tc.TPM_ORD_NV_DefineSpace: CommandClass.STORAGE_ADMIN,
    tc.TPM_ORD_NV_WriteValue: CommandClass.STORAGE_ADMIN,
    tc.TPM_ORD_NV_ReadValue: CommandClass.STORAGE_ADMIN,
    tc.TPM_ORD_CreateCounter: CommandClass.STORAGE_ADMIN,
    tc.TPM_ORD_IncrementCounter: CommandClass.STORAGE_ADMIN,
    tc.TPM_ORD_ReleaseCounter: CommandClass.STORAGE_ADMIN,
    tc.TPM_ORD_MakeIdentity: CommandClass.OWNER_ADMIN,
    tc.TPM_ORD_TakeOwnership: CommandClass.OWNER_ADMIN,
    tc.TPM_ORD_OwnerClear: CommandClass.OWNER_ADMIN,
    tc.TPM_ORD_ForceClear: CommandClass.OWNER_ADMIN,
    tc.TPM_ORD_ChangeAuth: CommandClass.STORAGE_ADMIN,
    tc.TPM_ORD_CreateMigrationBlob: CommandClass.STORAGE_ADMIN,
    tc.TPM_ORD_ConvertMigrationBlob: CommandClass.STORAGE_ADMIN,
    tc.TPM_ORD_DirWriteAuth: CommandClass.OWNER_ADMIN,
    tc.TPM_ORD_DirRead: CommandClass.READ,
    tc.TPM_ORD_GetTestResult: CommandClass.READ,
    tc.TPM_ORD_OIAP: CommandClass.SESSION,
    tc.TPM_ORD_OSAP: CommandClass.SESSION,
    tc.TPM_ORD_FlushSpecific: CommandClass.SESSION,
}

#: classes a vTPM owner needs for normal operation
OWNER_CLASSES = (
    CommandClass.READ,
    CommandClass.MEASURE,
    CommandClass.USE_KEY,
    CommandClass.STORAGE_ADMIN,
    CommandClass.OWNER_ADMIN,
    CommandClass.SESSION,
)


def classify_ordinal(ordinal: int) -> CommandClass:
    """Map an ordinal to its authorization class."""
    return _CLASS_BY_ORDINAL.get(ordinal, CommandClass.UNKNOWN)


@dataclass(frozen=True)
class PolicyRule:
    """Grant ``subject`` the right to run ``command_class`` on ``instance``.

    ``subject`` is an identity measurement hex string (or :data:`ANY`);
    ``instance`` is a vTPM instance id (or :data:`ANY`).
    """

    rule_id: int
    subject: str
    instance: object  # int instance id or ANY
    command_class: CommandClass

    def key(self) -> Tuple[str, object, CommandClass]:
        return (self.subject, self.instance, self.command_class)


class Decision(NamedTuple):
    """Outcome of a policy lookup: the code and the matching rule, if any."""

    reason: Reason
    rule_id: Optional[int] = None

    @property
    def allowed(self) -> bool:
        return self.reason.allowed


class PolicyEngine:
    """Deny-by-default rule store with compiled O(1) decisions."""

    def __init__(self) -> None:
        self._rules: Dict[int, PolicyRule] = {}
        self._index: Dict[Tuple[str, object, CommandClass], int] = {}
        # Secondary indexes so revocation sweeps are O(rules touched), not
        # O(all rules): rule ids by subject and by (exact) instance.
        self._by_subject: Dict[str, set] = {}
        self._by_instance: Dict[object, set] = {}
        self._ids = itertools.count(1)
        #: callables told of every rule added or revoked; the monitor's
        #: decision cache drops the entries the rule can change, so a
        #: revocation takes effect on the very next command
        self.listeners: list = []

    # -- administration ------------------------------------------------------

    def add_rule(
        self,
        subject: str,
        instance: object,
        command_class: CommandClass | Iterable[CommandClass],
    ) -> list[PolicyRule]:
        """Install one rule per class given; returns the created rules."""
        classes = (
            [command_class]
            if isinstance(command_class, CommandClass)
            else list(command_class)
        )
        if not classes:
            raise AccessControlError("rule must name at least one command class")
        created = []
        for cls in classes:
            charge("ac.policy.compile", 1)
            rule = PolicyRule(
                rule_id=next(self._ids),
                subject=subject,
                instance=instance,
                command_class=cls,
            )
            self._rules[rule.rule_id] = rule
            self._index[rule.key()] = rule.rule_id
            self._by_subject.setdefault(rule.subject, set()).add(rule.rule_id)
            self._by_instance.setdefault(rule.instance, set()).add(rule.rule_id)
            for listener in self.listeners:
                listener(rule)
            created.append(rule)
        return created

    def grant_owner(self, subject: str, instance: object) -> list[PolicyRule]:
        """The standard grant: everything an instance owner needs."""
        return self.add_rule(subject, instance, OWNER_CLASSES)

    def revoke_rule(self, rule_id: int) -> None:
        rule = self._rules.pop(rule_id, None)
        if rule is None:
            raise AccessControlError(f"no policy rule {rule_id}")
        self._discard_from(self._by_subject, rule.subject, rule_id)
        self._discard_from(self._by_instance, rule.instance, rule_id)
        key = rule.key()
        if self._index.get(key) == rule_id:
            # the newest surviving same-key rule takes over the key
            survivors = [
                other for other in self._by_subject.get(rule.subject, ())
                if self._rules[other].key() == key
            ]
            if survivors:
                self._index[key] = max(survivors)
            else:
                del self._index[key]
        for listener in self.listeners:
            listener(rule)

    @staticmethod
    def _discard_from(index: Dict[object, set], key: object, rule_id: int) -> None:
        ids = index.get(key)
        if ids is not None:
            ids.discard(rule_id)
            if not ids:
                del index[key]

    def revoke_subject(self, subject: str) -> int:
        """Remove every rule for a subject; returns how many were dropped."""
        doomed = sorted(self._by_subject.get(subject, ()))
        for rule_id in doomed:
            self.revoke_rule(rule_id)
        return len(doomed)

    def rules_for_instance(self, instance: object) -> list[PolicyRule]:
        """Rules whose instance position names ``instance`` exactly."""
        ids = self._by_instance.get(instance, ())
        return [self._rules[rule_id] for rule_id in sorted(ids)]

    def rules_for_subject(self, subject: str) -> list[PolicyRule]:
        """Rules whose subject position names ``subject`` exactly."""
        ids = self._by_subject.get(subject, ())
        return [self._rules[rule_id] for rule_id in sorted(ids)]

    @property
    def rule_count(self) -> int:
        return len(self._rules)

    # -- persistence ------------------------------------------------------------

    def serialize(self) -> bytes:
        """Stable byte form of the installed rules (admin backup/restore).

        Instances are stored as signed integers; the :data:`ANY` wildcard
        maps to -1.
        """
        from repro.util.bytesio import ByteWriter

        w = ByteWriter()
        w.raw(b"VTPMPOL1")
        rules = [self._rules[rid] for rid in sorted(self._rules)]
        w.u32(len(rules))
        for rule in rules:
            w.sized(rule.subject.encode("utf-8"))
            instance = -1 if rule.instance == ANY else int(rule.instance)
            w.u64(instance & 0xFFFFFFFFFFFFFFFF)
            w.sized(rule.command_class.value.encode("ascii"))
        return w.getvalue()

    @staticmethod
    def deserialize(data: bytes) -> "PolicyEngine":
        """Rebuild an engine from :meth:`serialize` output."""
        from repro.util.bytesio import ByteReader
        from repro.util.errors import MarshalError

        r = ByteReader(data)
        if r.raw(8) != b"VTPMPOL1":
            raise MarshalError("not a serialized policy")
        engine = PolicyEngine()
        for _ in range(r.u32()):
            subject = r.sized(max_size=256).decode("utf-8")
            raw_instance = r.u64()
            instance: object = (
                ANY if raw_instance == 0xFFFFFFFFFFFFFFFF else raw_instance
            )
            cls = CommandClass(r.sized(max_size=32).decode("ascii"))
            engine.add_rule(subject, instance, cls)
        r.expect_end()
        return engine

    # -- the hot path ---------------------------------------------------------

    def _rule_for(
        self, subject: str, instance: object, cls: CommandClass
    ) -> Optional[int]:
        """The most specific rule granting the triple, checking the four
        key shapes (wildcards are materialized as their own keys)."""
        index = self._index
        for key in ((subject, instance, cls), (subject, ANY, cls),
                    (ANY, instance, cls), (ANY, ANY, cls)):
            rule_id = index.get(key)
            if rule_id is not None:
                return rule_id
        return None

    def decide(self, subject: str, instance: object, ordinal: int) -> Decision:
        """Authorize one command: ``granted`` with the matching rule id,
        ``unknown-ordinal`` or ``no-grant``.

        Lookup cost is constant in the number of installed rules — the
        index is a hash table keyed by exact (subject, instance, class)
        triples.
        """
        charge("ac.policy.lookup")
        cls = classify_ordinal(ordinal)
        if cls is CommandClass.UNKNOWN:
            return Decision(Reason.UNKNOWN_ORDINAL)
        rule_id = self._rule_for(subject, instance, cls)
        return Decision(
            Reason.NO_GRANT if rule_id is None else Reason.GRANTED, rule_id
        )

    def granted_classes(self, subject: str, instance: object) -> Set[CommandClass]:
        """Every class some rule grants ``subject`` on ``instance``,
        wildcards included.  Charge-free: for oracles, not the command
        path."""
        return {
            cls for cls in CommandClass
            if self._rule_for(subject, instance, cls) is not None
        }
