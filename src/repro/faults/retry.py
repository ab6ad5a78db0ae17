"""Bounded retry-with-backoff, paid for in virtual time.

Every recovery path of the stack retries through this one loop: the
front-end's ring kick (``xen.ring.notify``), back-end command forwarding
(``vtpm.backend.forward``, which the supervisor's health probe crosses
too), instance restore, storage save and load (``vtpm.storage.save`` /
``vtpm.storage.load``), the migration transaction (``vtpm.migration``,
``cluster.migrate``) and the fleet router's link forwarding
(``cluster.link``).  It attempts the operation, catches the failures the
caller names in ``retry_on`` (transient injected faults by default),
charges an exponentially growing backoff against the virtual clock, and
tries again.  Non-transient injected faults — the injector's model of a
hard crash — propagate untouched, and a failure that survives every
attempt is counted per site and surfaces as
:class:`~repro.util.errors.RetryExhausted`.

A site with failure-specific work — the ring's driver timeout, storage's
ENOSPC garbage collection, the migration's rollback — does it inside its
attempt function and re-raises; a site with its own flat retry cost
passes ``base_backoff_us=0`` and charges that cost there.

Two refinements keep the loop honest at fleet scale:

* **bounded seeded jitter** — when many instances hit the same transient
  fault at once, pure exponential backoff synchronizes their retry waves
  (every instance resends in lockstep, re-colliding forever).  Each
  backoff step is therefore stretched by a deterministic fraction in
  ``[0, 0.5)`` derived by hashing ``(site, jitter_token, attempt)``, so
  callers that pass a per-instance token (the back-end passes its
  instance id) de-correlate without sacrificing replay determinism.  The
  nominal step is the *minimum*, never shortened.
* **total-backoff cap** — the cumulative backoff charged by one
  ``with_retry`` episode is capped at :data:`DEFAULT_MAX_TOTAL_BACKOFF_US`,
  so a caller that raises ``attempts`` cannot stall the virtual clock
  unboundedly; attempts beyond the cap still run, they just stop paying.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.faults.injector import note_recovery, note_retry
from repro.obs import counters as obs_counters
from repro.sim.timing import charge, get_context
from repro.util.errors import FaultInjected, RetryExhausted

T = TypeVar("T")

#: default attempt budget for transient faults
DEFAULT_ATTEMPTS = 4
#: first backoff step; doubles per retry (virtual microseconds)
DEFAULT_BACKOFF_US = 250.0
#: ceiling on the *cumulative* backoff one episode may charge
DEFAULT_MAX_TOTAL_BACKOFF_US = 60_000.0
#: jitter stretches each step by up to this fraction (never shortens it)
JITTER_FRAC = 0.5


def backoff_jitter_frac(site: str, token: object, attempt: int) -> float:
    """Deterministic jitter fraction in ``[0, JITTER_FRAC)``.

    A pure function of (site, token, attempt) — no global state — so the
    same seeded run replays the identical backoff schedule, while two
    instances retrying the same site at the same moment diverge as long
    as they pass different tokens.
    """
    digest = hashlib.sha256(
        f"{site}|{token}|{attempt}".encode("utf-8")
    ).digest()
    return JITTER_FRAC * (int.from_bytes(digest[:8], "big") / 2.0 ** 64)


def with_retry(
    attempt: Callable[..., T],
    *args,
    site: str,
    attempts: int = DEFAULT_ATTEMPTS,
    base_backoff_us: float = DEFAULT_BACKOFF_US,
    retry_on: Tuple[Type[Exception], ...] = (FaultInjected,),
    jitter_token: Optional[object] = None,
) -> T:
    """Run ``attempt(*args)`` with bounded backoff on ``retry_on`` failures.

    Each retry charges ``fault.retry.backoff`` for ``base_backoff_us * 2^i``
    virtual microseconds (stretched by the seeded jitter when
    ``jitter_token`` is given), so recovery latency is measurable on the
    same clock as everything else.  The cumulative charge is capped at
    :data:`DEFAULT_MAX_TOTAL_BACKOFF_US`.  A :class:`FaultInjected` with
    ``transient=False`` propagates at once, whatever ``retry_on`` says.  A
    successful retry is recorded as one recovery (with the virtual time the
    whole episode took); an exhausted episode is counted per site in the
    ambient counter registry (``faults.retry_exhausted{site=…}``) before it
    raises.

    Positional arguments are forwarded to ``attempt`` so per-call hot paths
    (the back-end forwarding every command) need not allocate a closure.
    """
    start_us = get_context().clock.now_us
    last: Exception | None = None
    backoff_spent_us = 0.0
    for i in range(attempts):
        try:
            result = attempt(*args)
        except retry_on as exc:
            if isinstance(exc, FaultInjected) and not exc.transient:
                raise
            last = exc
            note_retry(site)
            step_us = base_backoff_us * (2.0 ** i)
            if jitter_token is not None:
                step_us *= 1.0 + backoff_jitter_frac(site, jitter_token, i)
            step_us = min(
                step_us, max(0.0, DEFAULT_MAX_TOTAL_BACKOFF_US - backoff_spent_us)
            )
            if step_us > 0.0:
                backoff_spent_us += step_us
                charge("fault.retry.backoff", step_us)
            continue
        if last is not None:
            note_recovery(site, get_context().clock.now_us - start_us)
        return result
    assert last is not None
    obs_counters.inc("faults.retry_exhausted", site=site)
    raise RetryExhausted(site, attempts, last)
