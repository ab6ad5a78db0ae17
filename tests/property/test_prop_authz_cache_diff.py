"""Differential oracle: the authz decision cache is semantically invisible.

Two improved-mode platforms run the *same* randomized interleaving of
read and measure commands, policy revocations/re-grants, single-rule
writes (an add or a revoke by id; exact, ``ANY``-subject, ``ANY``-instance
and doubly wild patterns; a specific rule shadowing a wildcard; a
same-key re-add; a bystander rule for a subject nobody runs as),
identity re-registrations (with and without a mutated kernel) and
forgettings, guest churn (instance destroy + recreate, exercising
domid/instance recycling) and explicit cache flushes.  The only difference between them is
``authz_cache`` on vs off.

If the cache is correct it can never change a decision, so the oracle
demands byte-identical responses command-for-command, an identical
allow/deny sequence, and an equal timestamp-free decision chain hash
(:meth:`~repro.core.audit.AuditLog.decision_chain_hash`), whose allow
records name the granting rule (``granted:<id>``).  The *full*
chain hashes legitimately differ — a cache hit charges less virtual time
than a policy walk, and the raw records timestamp each decision — which
is exactly why the decision chain exists.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AccessControlConfig, AccessMode
from repro.core.policy import ANY, CommandClass
from repro.harness.builder import build_platform
from repro.tpm import marshal
from repro.tpm.constants import TPM_ORD_Extend, TPM_ORD_PcrRead
from repro.util.bytesio import ByteWriter

_GUEST_NAMES = ("alice", "bob", "carol")
#: the classes the commands below exercise, and the rules name
_CLASSES = (CommandClass.READ, CommandClass.MEASURE)
#: a subject no guest runs as
_BYSTANDER = "ee" * 32


def _wire(command_class: int, index: int) -> bytes:
    """A PCRRead (class 0, read) or an Extend (class 1, measure)."""
    if command_class == 0:
        return marshal.build_command(
            TPM_ORD_PcrRead, ByteWriter().u32(index).getvalue()
        )
    return marshal.build_command(
        TPM_ORD_Extend,
        ByteWriter().u32(index).raw(bytes([index]) * 20).getvalue(),
    )


_GUEST = st.integers(0, 2)
_CLASS = st.integers(0, 1)
#: a rule's subject: the guest's own, ANY, or the bystander
_SUBJECT = st.integers(0, 2)
_ACTION = st.one_of(
    st.tuples(st.just("cmd"), _GUEST, _CLASS, st.integers(0, 7)),
    st.tuples(st.just("revoke"), _GUEST),
    st.tuples(st.just("grant"), _GUEST),
    # one single-class rule on the guest's instance or ANY.  With the
    # owner grant in place the guest's own exact pattern is a same-key
    # re-add; after an ANY one it shadows the wildcard.
    st.tuples(st.just("add"), _GUEST, _CLASS, _SUBJECT, st.booleans()),
    # a wildcard, then a more specific rule over it
    st.tuples(st.just("shadow"), _GUEST, _CLASS),
    # revoke, by id, the rule that grants the guest the class now
    st.tuples(st.just("revoke_granting"), _GUEST, _CLASS),
    # revoke, by id, the newest rule of one pattern
    st.tuples(
        st.just("revoke_newest"), _GUEST, _CLASS, _SUBJECT, st.booleans()
    ),
    st.tuples(st.just("reregister"), _GUEST, st.booleans()),
    st.tuples(st.just("forget"), _GUEST),
    st.tuples(st.just("churn"), _GUEST),
    st.tuples(st.just("flush")),
)


def _pattern(guest, subject: int, any_instance: bool):
    """A rule's (subject, instance) for ``guest``: ``subject`` picks its
    own identity, ANY or the bystander."""
    return (
        (guest.domain.measurement.hex(), ANY, _BYSTANDER)[subject],
        ANY if any_instance else guest.instance_id,
    )


class _World:
    """One platform plus the bookkeeping to apply an action script."""

    def __init__(
        self, cache_on: bool, seed: int, names=_GUEST_NAMES
    ) -> None:
        config = AccessControlConfig.all_on()
        if not cache_on:
            config = config.without("authz_cache")
        self.platform = build_platform(
            AccessMode.IMPROVED,
            seed=seed,
            ac_config=config,
            name=f"diff-{'on' if cache_on else 'off'}-{seed}",
        )
        self.guests = {
            name: self.platform.add_guest(name) for name in names
        }
        self.responses = []

    def apply(self, action) -> None:
        platform, kind = self.platform, action[0]
        policy = platform.policy
        guest = self.guests[_GUEST_NAMES[action[1]]] if len(action) > 1 else None
        if kind == "cmd":
            self.responses.append(
                guest.frontend.transport(_wire(action[2], action[3]))
            )
        elif kind == "revoke":
            policy.revoke_subject(guest.domain.measurement.hex())
        elif kind == "grant":
            policy.grant_owner(
                guest.domain.measurement.hex(), guest.instance_id
            )
        elif kind == "add":
            _, _, cls, subject, any_instance = action
            policy.add_rule(
                *_pattern(guest, subject, any_instance), _CLASSES[cls]
            )
        elif kind == "shadow":
            policy.add_rule(ANY, guest.instance_id, _CLASSES[action[2]])
            policy.add_rule(
                guest.domain.measurement.hex(), guest.instance_id,
                _CLASSES[action[2]],
            )
        elif kind == "revoke_granting":
            # the same (charged) lookup in both worlds, outside any command
            rule_id = policy.decide(
                guest.domain.measurement.hex(), guest.instance_id,
                (TPM_ORD_PcrRead, TPM_ORD_Extend)[action[2]],
            ).rule_id
            if rule_id is not None:
                policy.revoke_rule(rule_id)
        elif kind == "revoke_newest":
            _, _, cls, subject, any_instance = action
            subject, instance = _pattern(guest, subject, any_instance)
            ids = [
                rule.rule_id for rule in policy.rules_for_subject(subject)
                if rule.instance == instance
                and rule.command_class is _CLASSES[cls]
            ]
            if ids:
                policy.revoke_rule(max(ids))
        elif kind == "reregister":
            platform.identities.forget(guest.domain.domid)
            if action[2]:
                guest.domain.kernel_image += b"-patched"
            platform.identities.register(guest.domain)
        elif kind == "forget":
            platform.identities.forget(guest.domain.domid)
        elif kind == "churn":
            name = _GUEST_NAMES[action[1]]
            platform.remove_guest(name)
            self.guests[name] = platform.add_guest(name)
        elif kind == "flush":
            platform.monitor.invalidate_cache()

    def decisions(self):
        return [
            (r.subject, r.instance, r.operation, r.allowed, r.reason)
            for r in self.platform.audit.records()
        ]


def _assert_equal(cached: _World, uncached: _World) -> None:
    # Byte-identical responses, command for command …
    assert cached.responses == uncached.responses
    # … an identical (subject, instance, operation, verdict, reason)
    # audit sequence …
    assert cached.decisions() == uncached.decisions()
    # … and equal timestamp-free chain hashes over it.
    assert (
        cached.platform.audit.decision_chain_hash()
        == uncached.platform.audit.decision_chain_hash()
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(_ACTION, min_size=4, max_size=32), st.integers(0, 2**16))
def test_cache_on_and_off_are_observationally_equal(actions, seed):
    cached = _World(cache_on=True, seed=seed)
    uncached = _World(cache_on=False, seed=seed)
    for action in actions:
        cached.apply(action)
        uncached.apply(action)

    _assert_equal(cached, uncached)
    # Sanity: the cache-off monitor never caches.
    assert uncached.platform.monitor.cache_hits == 0


#: read-class rule writes for the one guest of
#: :func:`test_rule_writes_on_a_hot_cache`
_RULE_ACTION = st.one_of(
    st.tuples(st.just("add"), st.just(0), st.just(0), _SUBJECT, st.booleans()),
    st.tuples(st.just("revoke_granting"), st.just(0), st.just(0)),
    st.tuples(
        st.just("revoke_newest"), st.just(0), st.just(0), _SUBJECT,
        st.booleans(),
    ),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_RULE_ACTION, min_size=4, max_size=24), st.integers(0, 2**16))
def test_rule_writes_on_a_hot_cache(actions, seed):
    """One guest, its owner grant revoked first so that wildcards grant
    at once, reads after every read-class rule write: each write meets a
    hot cache, and a write that fails to drop a decision it changes (a
    wildcard's, a shadowed one's, a same-key one's) shows on the very
    next read."""
    cached = _World(cache_on=True, seed=seed, names=_GUEST_NAMES[:1])
    uncached = _World(cache_on=False, seed=seed, names=_GUEST_NAMES[:1])
    for action in [("revoke", 0)] + actions:
        for world in (cached, uncached):
            world.apply(action)
            world.apply(("cmd", 0, 0, 0))
    _assert_equal(cached, uncached)


#: :func:`test_identity_writes_on_a_hot_cache`: a grant after a patched
#: re-registration lets the new identity warm the cache again
_IDENTITY_ACTION = st.one_of(
    st.tuples(st.just("forget"), st.just(0)),
    st.tuples(st.just("reregister"), st.just(0), st.booleans()),
    st.tuples(st.just("grant"), st.just(0)),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_IDENTITY_ACTION, min_size=2, max_size=12), st.integers(0, 2**16))
def test_identity_writes_on_a_hot_cache(actions, seed):
    """One guest, a read before and after every identity write: each
    forget or re-registration meets a hot cache, and a write that fails to
    drop the caller's cached allow shows on the very next read."""
    cached = _World(cache_on=True, seed=seed, names=_GUEST_NAMES[:1])
    uncached = _World(cache_on=False, seed=seed, names=_GUEST_NAMES[:1])
    for action in actions:
        for world in (cached, uncached):
            world.apply(("cmd", 0, 0, 0))
            world.apply(action)
            world.apply(("cmd", 0, 0, 0))
    _assert_equal(cached, uncached)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16))
def test_hot_cache_diff_on_pure_command_streams(seed):
    """With no mutations at all the cache is maximally hot — the easiest
    place for a stale decision to hide is also checked."""
    cached = _World(cache_on=True, seed=seed)
    uncached = _World(cache_on=False, seed=seed)
    script = [("cmd", i % 3, i % 2, i % 8) for i in range(24)]
    for action in script:
        cached.apply(action)
        uncached.apply(action)
    _assert_equal(cached, uncached)
    assert cached.platform.monitor.cache_hits > 0
