"""Deterministic fault injection and recovery instrumentation.

The subsystem has three pieces:

* :mod:`repro.faults.plan` — :class:`FaultKind`, :class:`FaultSpec` and
  :class:`FaultPlan`: an immutable, seeded description of which faults
  fire at which hook sites and when;
* :mod:`repro.faults.injector` — :class:`FaultInjector` plus the ambient
  ``fire()`` hook the instrumented layers call (ring transfers, storage,
  TPM devices, migration);
* :mod:`repro.faults.retry` — :func:`with_retry`, the one bounded
  backoff-in-virtual-time loop every recovery path retries through (ring
  kick, back-end forwarding, restore, storage save and load, migration,
  fleet link); it alone notes retries and counts exhaustions.

With no injector installed every hook is a single ``None`` check, so the
fault-free fast path stays fault-free and free.
"""

from repro.faults.injector import (
    FaultEvent,
    FaultInjector,
    current,
    fire,
    injector_scope,
    install,
    note_recovery,
)
from repro.faults.plan import KIND_SITES, FaultKind, FaultPlan, FaultSpec, spec
from repro.faults.retry import DEFAULT_ATTEMPTS, DEFAULT_BACKOFF_US, with_retry

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "KIND_SITES",
    "DEFAULT_ATTEMPTS",
    "DEFAULT_BACKOFF_US",
    "current",
    "fire",
    "injector_scope",
    "install",
    "note_recovery",
    "spec",
    "with_retry",
]
