"""Per-guest circuit breaker over the back-end forwarding path.

A failing instance must stop consuming ring transfers, manager dispatch
and retry backoff for commands that are doomed anyway.  The breaker sits
in front of :meth:`VtpmBackend._forward` (via the
supervisor's admission verdict): while **open**, commands are shed at the
ring with busy responses and never reach the manager.

States follow the classic pattern, scheduled entirely in virtual time:

* **closed** — traffic flows; consecutive hard failures are counted.
* **open** — entered after ``failure_threshold`` consecutive failures
  (or forced by a supervised restart).  A cooldown with bounded seeded
  jitter is drawn from the breaker's own forked DRBG, so N breakers
  opened by one fault storm re-probe at staggered, reproducible times.
* **half-open** — after the cooldown elapses, exactly one probe command
  is admitted; its success closes the breaker, its failure re-opens it
  with a fresh cooldown.

Every state change is appended to :attr:`events` with its virtual
timestamp — the chaos demo asserts two same-seed runs produce identical
sequences.
"""

from __future__ import annotations

import enum
from typing import List, Tuple

from repro.crypto.random_source import RandomSource
from repro.obs import counters as obs_counters
from repro.sim.timing import get_context

#: consecutive hard failures that open a closed breaker
DEFAULT_FAILURE_THRESHOLD = 3
#: base cooldown before a half-open probe is allowed (virtual us)
DEFAULT_COOLDOWN_US = 50_000.0
#: cooldown jitter: up to this fraction added on top (never subtracted)
COOLDOWN_JITTER_FRAC = 0.5


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """One breaker, owned by the supervisor, keyed by guest."""

    def __init__(
        self,
        name: str,
        rng: RandomSource,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown_us: float = DEFAULT_COOLDOWN_US,
    ) -> None:
        self.name = name
        self._rng = rng
        self.failure_threshold = failure_threshold
        self.cooldown_us = cooldown_us
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_us = 0.0
        self.current_cooldown_us = 0.0
        self._probe_outstanding = False
        #: (state, virtual us) trail — the determinism oracle
        self.events: List[Tuple[str, float]] = []

    # -- internals -----------------------------------------------------------

    def _now_us(self) -> float:
        return get_context().clock.now_us

    def _enter(self, state: BreakerState) -> None:
        self.state = state
        self.events.append((state.value, self._now_us()))
        obs_counters.inc("resilience.breaker", breaker=self.name,
                         event=state.value)

    def _open(self) -> None:
        self.opened_at_us = self._now_us()
        # Seeded jitter staggers re-probes across breakers opened by the
        # same storm; drawn from this breaker's private DRBG stream, so
        # the schedule is reproducible per seed yet distinct per guest.
        self.current_cooldown_us = self.cooldown_us * (
            1.0 + self._rng.uniform(0.0, COOLDOWN_JITTER_FRAC)
        )
        self._probe_outstanding = False
        self._enter(BreakerState.OPEN)

    # -- the admission-side API ------------------------------------------------

    def allow(self) -> bool:
        """May one command pass right now?  (May move OPEN → HALF_OPEN.)"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self._now_us() - self.opened_at_us >= self.current_cooldown_us:
                self._enter(BreakerState.HALF_OPEN)
                self._probe_outstanding = True
                return True
            return False
        # HALF_OPEN: exactly one probe in flight at a time.
        if self._probe_outstanding:
            return False
        self._probe_outstanding = True
        return True

    def remaining_cooldown_us(self) -> float:
        """Virtual time until an open breaker will admit its probe."""
        if self.state is not BreakerState.OPEN:
            return 0.0
        return max(
            0.0,
            self.current_cooldown_us - (self._now_us() - self.opened_at_us),
        )

    # -- the outcome-side API ---------------------------------------------------

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._probe_outstanding = False
            self._enter(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._open()
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._open()

    def force_open(self) -> None:
        """Supervisor override: a restarted instance re-earns traffic via
        a cooldown + probe, whatever the failure count said."""
        self._open()

    # -- oracles ------------------------------------------------------------------

    def sequence(self) -> Tuple[Tuple[str, float], ...]:
        """The full (state, virtual us) trail, for determinism asserts."""
        return tuple(self.events)
