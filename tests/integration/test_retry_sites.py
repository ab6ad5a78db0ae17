"""The four recovery sites of the Xen stack share one retry loop.

The ring kick (``xen.ring.notify``), storage save and load
(``vtpm.storage.save`` / ``vtpm.storage.load``) and the migration
transaction (``vtpm.migration``) all retry through
:func:`repro.faults.with_retry`.  These tests pin what each site does
when it fails: its retry schedule for a few transient faults below the
budget, and the exhaustion counter once the budget is spent.
"""

from types import SimpleNamespace

import pytest

from repro.core.config import AccessMode
from repro.faults import FaultInjector, FaultKind, FaultPlan, injector_scope, spec
from repro.harness.builder import build_platform
from repro.obs import CounterRegistry, registry_scope
from repro.sim.timing import get_context
from repro.util.errors import RetryExhausted
from repro.vtpm.migration import migrate_with_recovery


def _plan(*specs):
    return FaultPlan(specs=tuple(specs), seed=7, name="retry-sites")


def _platform(mode=AccessMode.IMPROVED, seed=3, name="retry-sites"):
    return build_platform(mode, seed=seed, name=name)


# -- per-site drivers: build a fresh stack, return the operation to fault ------


def _ring():
    platform = _platform(AccessMode.BASELINE)
    guest = platform.add_guest("g")
    return SimpleNamespace(run=lambda: guest.client.get_random(8))


def _save():
    platform = _platform()
    guest = platform.add_guest("g")
    return SimpleNamespace(
        run=lambda: platform.manager.save_instance(guest.instance_id)
    )


def _load():
    """Restore from two committed generations; ``fallback`` is the older
    one's state, ``read_newest`` reads the newer one."""
    platform = _platform()
    guest = platform.add_guest("g")
    storage, uuid = platform.storage, guest.domain.uuid
    identity_hex = platform.manager.identity_for(guest.domain)
    guest.client.extend(4, b"\x55" * 20)
    platform.manager.save_instance(guest.instance_id)
    fallback = storage.load_instance_state(uuid, identity_hex)
    guest.client.extend(4, b"\x56" * 20)
    platform.manager.save_instance(guest.instance_id)
    platform.manager.destroy_instance(guest.instance_id, persist=False)
    newest = storage._gen_name(uuid, storage.generations(uuid)[-1])
    return SimpleNamespace(
        run=lambda: storage.load_instance_state(uuid, identity_hex),
        storage=storage,
        fallback=fallback,
        newest=newest,
        read_newest=lambda: storage._read_generation(newest),
    )


def _migration():
    source = _platform(seed=81, name="src-r")
    destination = _platform(seed=82, name="dst-r")
    guest = source.add_guest("mover")
    target_vm = destination.xen.create_domain(
        guest.domain.name,
        kernel_image=guest.domain.kernel_image,
        config=dict(guest.domain.config),
    )
    return SimpleNamespace(run=lambda: migrate_with_recovery(
        source.migration, destination.migration, guest.domain.uuid, target_vm
    ))


#: site → (driver, fault that fails one attempt in the schedule tests,
#: fault that fails every attempt in the exhaustion test, attempt budget)
SITES = {
    "xen.ring.notify": (
        _ring, FaultKind.RING_DROP_NOTIFY, FaultKind.RING_DROP_NOTIFY, 5),
    "vtpm.storage.save": (
        _save, FaultKind.STORAGE_ENOSPC, FaultKind.STORAGE_TORN_WRITE, 3),
    "vtpm.storage.load": (
        _load, FaultKind.STORAGE_READ_CORRUPT, FaultKind.STORAGE_READ_CORRUPT, 3),
    "vtpm.migration": (
        _migration, FaultKind.MIGRATION_NET_DROP, FaultKind.MIGRATION_NET_DROP, 4),
}


class _RecoveryReasons(list):
    """Audit sink keeping the reasons of ``FAULT-RECOVERY`` records.

    Unlike an :class:`~repro.core.audit.AuditLog` it charges no virtual
    time, so an episode's elapsed time is the retry schedule alone.
    """

    def append(self, subject, instance, operation, allowed, reason):
        if operation == "FAULT-RECOVERY":
            super().append(reason)


def _episode(site, faults):
    """Run ``site``'s operation with its first ``faults`` attempts failing.

    Returns the virtual microseconds it took, the injector's retry and
    recovery counts, the reasons of its ``FAULT-RECOVERY`` audit records
    and the site's exhaustion counter.
    """
    driver, kind, _exhaust_kind, _budget = SITES[site]
    operation = driver()
    reasons = _RecoveryReasons()
    plan = _plan(spec(kind, at=range(faults))) if faults else _plan()
    injector = FaultInjector(plan, audit=reasons)
    clock = get_context().clock
    with registry_scope(CounterRegistry()) as counters:
        with injector_scope(injector):
            start_us = clock.now_us
            operation.run()
            elapsed_us = clock.now_us - start_us
    return (
        elapsed_us, injector.retries, injector.recoveries, list(reasons),
        counters.value("faults.retry_exhausted", site=site),
    )


def _recovered(elapsed_us):
    return [f"recovered after injected fault ({elapsed_us:.1f} us)"]


#: (site, faults) → (virtual us over the fault-free run, retries,
#: recoveries, FAULT-RECOVERY reasons).  A recovery's elapsed time also
#: holds the successful attempt itself.
SCHEDULES = {
    # Each dropped kick waits out the 10,000 us driver timeout.
    **{("xen.ring.notify", k): (k * 10_000.0, k, 1,
                                _recovered(k * 10_000.0 + 23.8))
       for k in range(1, 5)},
    # ENOSPC backoff doubles from 500 us: 500 * (2^k - 1).
    ("vtpm.storage.save", 1): (500.0, 1, 1, _recovered(8300.5)),
    ("vtpm.storage.save", 2): (1500.0, 2, 1, _recovered(9300.5)),
    # Re-reads of a corrupt generation back off from 400 us; three
    # corrupt reads exhaust it and the restore falls back a generation.
    ("vtpm.storage.load", 1): (5606.714, 1, 1, _recovered(10813.4)),
    ("vtpm.storage.load", 2): (11613.428, 2, 1, _recovered(16820.1)),
    ("vtpm.storage.load", 3): (18420.142, 3, 1, _recovered(23626.9)),
    # Each dropped package pays a rolled-back attempt plus 6,500 us.
    ("vtpm.migration", 1): (172481.916, 1, 1, _recovered(340687.3)),
    ("vtpm.migration", 2): (349020.632, 2, 1, _recovered(517226.0)),
    ("vtpm.migration", 3): (522683.948, 3, 1, _recovered(690889.3)),
}


@pytest.mark.parametrize("site,faults", sorted(SCHEDULES))
def test_retry_schedule_is_pinned(site, faults):
    clean_us, *_ = _episode(site, 0)
    elapsed_us, retries, recoveries, reasons, exhausted = _episode(site, faults)
    assert (round(elapsed_us - clean_us, 3), retries, recoveries,
            reasons) == SCHEDULES[site, faults]
    assert exhausted == (1 if site == "vtpm.storage.load" and faults == 3 else 0)


@pytest.mark.parametrize("site", sorted(SITES))
def test_exhaustion_is_counted_at_every_site(site):
    driver, _kind, kind, budget = SITES[site]
    operation = driver()
    loading = site == "vtpm.storage.load"
    # Every attempt fails; for a load, every read of the newest generation.
    plan = _plan(spec(kind, every=1,
                      match={"name": operation.newest} if loading else None))
    with registry_scope(CounterRegistry()) as counters:
        with injector_scope(FaultInjector(plan)):
            if loading:
                assert operation.read_newest() is None
            else:
                with pytest.raises(RetryExhausted) as err:
                    operation.run()
    assert counters.value("faults.retry_exhausted", site=site) == 1
    if loading:
        # The newest generation is unreadable, so a restore falls back.
        with injector_scope(FaultInjector(plan)):
            assert operation.run() == operation.fallback
        assert operation.storage.fallbacks == 1
    else:
        assert err.value.site == site
        assert err.value.attempts == budget
