"""The reference monitor on the vTPM command path.

The vTPM manager calls :meth:`Monitor.authorize` for every command packet
*before* it reaches a vTPM instance.  The baseline monitor reproduces
stock Xen (trust whatever the backend claims, no checks, no cost); the
access-control monitor performs the paper's checks:

1. **binding** — the caller domain's *measured identity* must equal the
   identity the instance was created for (defeats domid recycling and
   rogue backend re-binding);
2. **policy** — the (identity, instance, ordinal-class) triple must be
   granted (defeats over-broad command access, e.g. a guest driving
   owner-admin ordinals at another instance);
3. **audit** — the decision is appended to the hash-chained log.

Every outcome is one :class:`~repro.core.reason.Reason` code: the audit
record stores its value (an allow also names its rule, ``granted:7``)
and ``ac.decisions{outcome, reason}`` counts it.

The monitor also owns the **authorization decision cache**: the paper's
argument is that these checks are a small per-command constant, and for
the common case — the same bound guest re-issuing the same command class
at the same instance — the full identity + policy walk is provably
redundant.  A hit is keyed by (caller domid, *live* launch measurement,
instance, ordinal class) and charges only ``ac.policy.cache_hit``.  The
writers of every input to a decision invalidate the cache as they write,
so revocation takes effect on the very next command and a hit compares
nothing:

* a rule add or revoke (``PolicyEngine.listeners``) drops only the
  entries the rule's pattern matches: its class, its instance (or every
  instance for ``ANY``) and its subject (or every subject for ``ANY``) —
  exactly the lookups whose most specific rule it can change;
* identity re-registration or forgetting (``IdentityRegistry.listeners``)
  and instance creation or destruction drop the whole cache.

A rebuilt domain under a recycled domid misses the cache even without a
drop because the key includes the live measurement, and only *allow*
decisions are ever cached.  Audit records are still appended on every
command, hit or miss, so the hash chain is complete either way.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.core.audit import AuditLog
from repro.core.config import AccessControlConfig
from repro.core.identity import IdentityRegistry
from repro.core.policy import (
    ANY, CommandClass, PolicyEngine, PolicyRule, classify_ordinal,
)
from repro.core.reason import Reason
from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_SPAN
from repro.sim.timing import charge
from repro.tpm.constants import ORDINAL_NAMES, ordinal_name
from repro.tpm.marshal import ParsedCommand, parse_command
from repro.util.errors import IdentityError, MarshalError
from repro.xen.domain import Domain

#: ``ac.decisions{outcome, reason}`` handles, one per code
_AC_DECISIONS = {
    reason: obs_counters.counter("ac.decisions", reason=reason.value,
                                 outcome="allow" if reason.allowed else "deny")
    for reason in Reason
}
_AC_CACHE_HIT = obs_counters.counter("ac.cache", result="hit")
_AC_CACHE_MISS = obs_counters.counter("ac.cache", result="miss")
#: per-class ``ac.commands`` handles, filled on first sight of each class
_AC_COMMANDS: Dict[str, obs_counters.CounterHandle] = {}


def _describe(ordinal: int) -> Tuple[CommandClass, str, str]:
    """An ordinal's (class, class value, name), from the single sources
    :func:`classify_ordinal` and :func:`ordinal_name`."""
    command_class = classify_ordinal(ordinal)
    return command_class, command_class.value, ordinal_name(ordinal)


#: every named ordinal's :func:`_describe`, built once: a cache hit costs
#: one probe here instead of a classification and a name lookup
_ORDINALS: Dict[int, Tuple[CommandClass, str, str]] = {
    ordinal: _describe(ordinal) for ordinal in ORDINAL_NAMES
}


def _ac_commands(cls: str) -> obs_counters.CounterHandle:
    handle = _AC_COMMANDS.get(cls)
    if handle is None:
        handle = _AC_COMMANDS[cls] = obs_counters.counter(
            "ac.commands", cls=cls
        )
    return handle


class AuthorizationResult(NamedTuple):
    """What the monitor concluded for one command.

    ``parsed`` carries the frame the monitor parsed to classify its
    ordinal, so the dispatch layer below does not parse the same wire a
    second time; it is ``None`` when the monitor did not need to parse
    (baseline) or the frame was malformed.
    """

    reason: Reason
    parsed: Optional[ParsedCommand] = None

    @property
    def allowed(self) -> bool:
        return self.reason.allowed


_UNCHECKED = AuthorizationResult(Reason.UNCHECKED)


class Monitor:
    """Interface both monitors implement."""

    #: optional resilience gate: ``(instance_id, CommandClass) ->
    #: Reason.HEALTH_GATE or None``.  Installed by the supervisor;
    #: consulted by the access-control monitor so degraded-mode ordinal
    #: gating is enforced at the reference monitor, not only at the
    #: ring's admission layer.
    health_gate = None
    #: optional companion index (``Supervisor.unhealthy_instances``):
    #: instance ids with a non-healthy record.  When present, the gate
    #: call is skipped for ids not listed — one dict-membership test per
    #: command in the all-green steady state.  ``None`` means "no index,
    #: always consult the gate".
    health_index = None

    def authorize(
        self, caller: Domain, instance_id: int, bound_identity_hex: Optional[str],
        wire: bytes,
    ) -> AuthorizationResult:
        raise NotImplementedError

    def on_instance_created(
        self, instance_id: int, identity_hex: str, profile=None
    ) -> None:
        """Hook: a new instance was bound to an identity."""

    def on_instance_destroyed(self, instance_id: int) -> None:
        """Hook: an instance disappeared."""

    def on_fault(self, instance_id: int, exc: Exception) -> None:
        """Hook: a subsystem fault surfaced as a degraded response."""

    def on_rebind_denied(self, subject: str, instance_id: int) -> None:
        """Hook: a backend re-bind failed the identity-binding check."""


class BaselineMonitor(Monitor):
    """Stock Xen vTPM behaviour: no checks, no charges, allow everything."""

    def authorize(
        self, caller: Domain, instance_id: int, bound_identity_hex: Optional[str],
        wire: bytes,
    ) -> AuthorizationResult:
        return _UNCHECKED


#: TEST-ONLY fault-injection hook for the verification subsystem.  When
#: true, the decision cache ignores rule adds and revokes, so a cached
#: *allow* survives a revocation — exactly the class of bug the
#: conformance explorer exists to catch.  Never set outside
#: ``repro verify --inject-bug`` self-checks and tests.
INJECT_STALE_POLICY_EPOCH = False


class AccessControlMonitor(Monitor):
    """The paper's reference monitor."""

    def __init__(
        self,
        identities: IdentityRegistry,
        policy: PolicyEngine,
        audit: AuditLog,
        config: Optional[AccessControlConfig] = None,
    ) -> None:
        self.identities = identities
        self.policy = policy
        self.audit = audit
        self.config = config or AccessControlConfig()
        self.checks = 0
        self.denials = 0
        # -- decision cache ------------------------------------------------
        #: (domid, live measurement, instance, class value) ->
        #: (subject, rule id, {operation: audit id of its allow})
        self._cache: Dict[Tuple, Tuple[str, Optional[int], Dict[str, int]]] = {}
        #: rule id -> its allow record's reason text, so every record of
        #: one rule shares one string (a revoked rule's text is dropped)
        self._allow_texts: Dict[Optional[int], str] = {None: "unchecked"}
        self.cache_hits = 0
        self.cache_misses = 0
        policy.listeners.append(self._drop_rule)
        identities.listeners.append(self.invalidate_cache)

    # -- cache plumbing ----------------------------------------------------------

    def invalidate_cache(self) -> None:
        """Drop every cached decision, so the next command of every caller
        re-derives its decision."""
        self._cache.clear()

    def _drop_rule(self, rule: PolicyRule) -> None:
        """Drop the cached allows whose decision ``rule`` (just added or
        revoked) can change: same class, instance equal or the rule's is
        ``ANY``, cached subject equal or the rule's is ``ANY``."""
        self._allow_texts.pop(rule.rule_id, None)
        if INJECT_STALE_POLICY_EPOCH:  # test-only, see its comment
            return
        cls, instance, subject = (
            rule.command_class.value, rule.instance, rule.subject,
        )
        cache = self._cache
        for key in [
            key for key, (cached_subject, _, _) in cache.items()
            if key[3] == cls
            and (instance == ANY or key[2] == instance)
            and (subject == ANY or cached_subject == subject)
        ]:
            del cache[key]

    # -- lifecycle hooks ---------------------------------------------------------

    def on_instance_created(
        self, instance_id: int, identity_hex: str, profile=None
    ) -> None:
        """Grant the owning identity its rights on the instance.

        ``profile`` (a :class:`~repro.core.profiles.PolicyProfile`) narrows
        the grant; the default is the full owner profile.
        """
        self.invalidate_cache()
        if self.config.policy_check:
            if profile is None:
                self.policy.grant_owner(identity_hex, instance_id)
            else:
                profile.apply(self.policy, identity_hex, instance_id)

    def on_instance_destroyed(self, instance_id: int) -> None:
        self.invalidate_cache()
        for rule in self.policy.rules_for_instance(instance_id):
            self.policy.revoke_rule(rule.rule_id)

    # -- the per-command path ----------------------------------------------------

    def authorize(
        self, caller: Domain, instance_id: int, bound_identity_hex: Optional[str],
        wire: bytes,
    ) -> AuthorizationResult:
        tracer = obs_trace._current_tracer
        if tracer is None:
            result = self._authorize(
                caller, instance_id, bound_identity_hex, wire, NULL_SPAN, None
            )
        else:
            with tracer.start_span("authz", {"instance": instance_id}) as span:
                result = self._authorize(
                    caller, instance_id, bound_identity_hex, wire, span,
                    tracer,
                )
                if self.config.audit:
                    # every allow and deny path appends exactly one record
                    span.set("audit_seq", len(self.audit) - 1)
        if obs_counters._current_registry is not None:
            parsed = result.parsed
            _ac_commands(
                (_ORDINALS.get(parsed.ordinal) or _describe(parsed.ordinal))[1]
                if parsed is not None else "malformed"
            ).inc()
            _AC_DECISIONS[result.reason].inc()
        return result

    def _authorize(
        self, caller: Domain, instance_id: int, bound_identity_hex: Optional[str],
        wire: bytes, span, tracer,
    ) -> AuthorizationResult:
        self.checks += 1
        if tracer is None:
            try:
                parsed = parse_command(wire)
            except MarshalError:  # malformed frames: deny early
                return self._deny(
                    Reason.MALFORMED_FRAME, f"dom{caller.domid}",
                    instance_id, "malformed", None,
                )
        else:
            with tracer.start_span("parse"):
                try:
                    parsed = parse_command(wire)
                except MarshalError:
                    return self._deny(
                        Reason.MALFORMED_FRAME, f"dom{caller.domid}",
                        instance_id, "malformed", None,
                    )
        ordinal = parsed.ordinal
        config = self.config
        command_class, class_value, operation = (
            _ORDINALS.get(ordinal) or _describe(ordinal)
        )

        # Resilience gating runs before the decision cache: health state
        # changes drop no cached decision, so a cached allow must never
        # bypass a quarantine.  The gate itself is charge-free.
        # With the supervisor's unhealthy-instance index installed, the
        # steady-state cost is one membership test; the full gate walk
        # runs only while this instance is actually unhealthy.
        gate = self.health_gate
        if gate is not None:
            index = self.health_index
            if index is None or instance_id in index:
                veto = gate(instance_id, command_class)
                if veto is not None:
                    return self._deny(
                        veto, f"dom{caller.domid}", instance_id, operation,
                        parsed,
                    )

        cache_key: Optional[Tuple] = None
        if config.authz_cache:
            cache_key = (
                caller.domid, caller.measurement, instance_id, class_value,
            )
            hit = self._cache.get(cache_key)
            if hit is not None:
                self.cache_hits += 1
                if obs_counters._current_registry is not None:
                    _AC_CACHE_HIT.inc()
                charge("ac.policy.cache_hit")
                if tracer is not None:
                    span.set("cache", "hit")
                subject, rule_id, audit_ids = hit
                return self._allow(
                    subject, instance_id, operation, rule_id, audit_ids,
                    parsed, tracer,
                )
            self.cache_misses += 1
            span.set("cache", "miss")
            _AC_CACHE_MISS.inc()

        # 1. identity binding
        subject = f"dom{caller.domid}"
        if not config.identity_check:
            # Policy-only ablation: use the registered identity as the
            # subject without re-verifying it (trust-but-lookup), so policy
            # rules keyed by identity still apply.
            known = self.identities.lookup(caller.domid)
            if known is not None:
                subject = known.hex
        if config.identity_check:
            try:
                identity = self.identities.verify_current(caller)
            except IdentityError as exc:
                return self._deny(
                    exc.reason, subject, instance_id, operation, parsed
                )
            subject = identity.hex
            if bound_identity_hex is not None and subject != bound_identity_hex:
                return self._deny(
                    Reason.BINDING_MISMATCH, subject, instance_id, operation,
                    parsed,
                )

        # 2. policy
        rule_id = None
        if config.policy_check:
            reason, rule_id = self.policy.decide(subject, instance_id, ordinal)
            if not reason.allowed:
                return self._deny(
                    reason, subject, instance_id, operation, parsed
                )

        # Only allows are cached; denials always re-derive so a fixed
        # policy or repaired identity takes effect immediately.
        audit_ids: Dict[str, int] = {}
        if cache_key is not None:
            self._cache[cache_key] = (subject, rule_id, audit_ids)

        # 3. audit the allow
        return self._allow(
            subject, instance_id, operation, rule_id, audit_ids, parsed,
            tracer,
        )

    def on_fault(self, instance_id: int, exc: Exception) -> None:
        """A fault burned through the retry budget (or was a hard failure)
        and degraded into a ``TPM_FAIL`` response — chain it into the audit
        log so operators can distinguish chaos from attack."""
        if self.config.audit:
            self.audit.append_buffered(
                subject="manager",
                instance=instance_id,
                operation="FAULT-DEGRADED",
                allowed=False,
                reason=str(exc),
            )

    def on_rebind_denied(self, subject: str, instance_id: int) -> None:
        """A backend re-bind failed the fail-closed identity check: count
        it as a ``binding-mismatch`` denial and chain it into the audit log
        — this is the rogue re-binding attack being stopped at the
        configuration layer."""
        self.denials += 1
        reason = Reason.BINDING_MISMATCH
        _AC_DECISIONS[reason].inc()
        if self.config.audit:
            self.audit.append_buffered(
                subject, instance_id, "VTPM_Rebind", False, reason.value
            )

    def _allow(
        self, subject: str, instance_id: int, operation: str,
        rule_id: Optional[int], audit_ids: Dict[str, int],
        parsed: ParsedCommand, tracer,
    ) -> AuthorizationResult:
        """Audit an allow as ``granted:<rule id>`` (or ``unchecked`` when
        no policy rule was consulted).

        ``audit_ids`` maps an operation to its allow's audit id (a cached
        decision's map, so a hit appends by id).  Instance ids are
        ``int``, so a kept id records the instance as its fields would.
        """
        if self.config.audit:
            audit = self.audit
            ident = audit_ids.get(operation)
            if ident is None:
                text = self._allow_texts.get(rule_id)
                if text is None:
                    text = self._allow_texts[rule_id] = f"granted:{rule_id}"
                ident = audit_ids[operation] = audit.intern(
                    subject, instance_id, operation, True, text
                )
            if tracer is None:
                audit.append_id(ident)
            else:
                with tracer.start_span("audit"):
                    audit.append_id(ident)
        return AuthorizationResult(
            Reason.UNCHECKED if rule_id is None else Reason.GRANTED, parsed
        )

    def _deny(
        self, reason: Reason, subject: str, instance_id: int, operation: str,
        parsed: Optional[ParsedCommand],
    ) -> AuthorizationResult:
        self.denials += 1
        if self.config.audit:
            tracer = obs_trace._current_tracer
            if tracer is None:
                self.audit.append_buffered(
                    subject, instance_id, operation, False, reason.value
                )
            else:
                with tracer.start_span("audit"):
                    self.audit.append_buffered(
                        subject, instance_id, operation, False, reason.value
                    )
        return AuthorizationResult(reason, parsed)
