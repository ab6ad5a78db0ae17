"""Unit tests for the fault-injection subsystem itself: plans, the
injector's scheduling/observability, and the shared retry loop."""

import ast
from pathlib import Path

import pytest

import repro
from repro.core.audit import AuditLog
from repro.faults import (
    DEFAULT_ATTEMPTS,
    DEFAULT_BACKOFF_US,
    KIND_SITES,
    FaultInjector,
    FaultKind,
    FaultPlan,
    current,
    fire,
    injector_scope,
    install,
    spec,
    with_retry,
)
from repro.faults.retry import (
    DEFAULT_MAX_TOTAL_BACKOFF_US,
    JITTER_FRAC,
    backoff_jitter_frac,
)
from repro.obs import CounterRegistry, registry_scope
from repro.sim.timing import get_context
from repro.util.errors import FaultInjected, RetryExhausted, SimulationError


def _plan(*specs, seed=3, name="unit-plan"):
    return FaultPlan(specs=tuple(specs), seed=seed, name=name)


class TestFaultSpec:
    def test_exactly_one_schedule_required(self):
        with pytest.raises(SimulationError):
            spec(FaultKind.RING_STALL)
        with pytest.raises(SimulationError):
            spec(FaultKind.RING_STALL, every=2, at=(1,))

    def test_every_schedule_with_offset(self):
        s = spec(FaultKind.RING_STALL, every=3, offset=2)
        assert [i for i in range(10) if s.due_at(i)] == [2, 5, 8]

    def test_at_schedule(self):
        s = spec(FaultKind.DEVICE_TRANSIENT, at=(0, 4))
        assert [i for i in range(6) if s.due_at(i)] == [0, 4]

    def test_probability_defers_to_drbg(self):
        s = spec(FaultKind.STORAGE_ENOSPC, probability=0.5)
        assert s.due_at(0) is None

    def test_invalid_probability_rejected(self):
        with pytest.raises(SimulationError):
            spec(FaultKind.STORAGE_ENOSPC, probability=1.5)

    def test_match_globbing(self):
        s = spec(FaultKind.DEVICE_TRANSIENT, every=1, match={"device": "vtpm*"})
        assert s.matches_context({"device": "vtpm7"})
        assert not s.matches_context({"device": "hwtpm"})
        assert not s.matches_context({})

    def test_every_kind_has_a_site(self):
        for kind in FaultKind:
            assert kind in KIND_SITES


class TestFaultInjector:
    def test_fires_on_schedule_and_counts(self):
        plan = _plan(spec(FaultKind.DEVICE_TRANSIENT, every=2))
        injector = FaultInjector(plan)
        fired = [
            injector.fire("tpm.device.execute", device="vtpm1") is not None
            for _ in range(6)
        ]
        assert fired == [True, False, True, False, True, False]
        assert injector.fault_counts == {"device-transient": 3}

    def test_max_fires_caps_a_spec(self):
        plan = _plan(spec(FaultKind.DEVICE_TRANSIENT, every=1, max_fires=2))
        injector = FaultInjector(plan)
        events = [injector.fire("tpm.device.execute") for _ in range(5)]
        assert sum(e is not None for e in events) == 2

    def test_unmatched_context_spares_the_call(self):
        plan = _plan(
            spec(FaultKind.DEVICE_TRANSIENT, every=1, match={"device": "vtpm*"})
        )
        injector = FaultInjector(plan)
        assert injector.fire("tpm.device.execute", device="hwtpm") is None
        assert injector.fire("tpm.device.execute", device="vtpm3") is not None

    def test_unknown_site_is_silent(self):
        injector = FaultInjector(_plan(spec(FaultKind.RING_STALL, every=1)))
        assert injector.fire("vtpm.storage.write") is None

    def test_probabilistic_schedule_is_seed_deterministic(self):
        plan = _plan(spec(FaultKind.DEVICE_TRANSIENT, probability=0.3), seed=11)
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan)
            for _ in range(50):
                injector.fire("tpm.device.execute")
            runs.append(injector.event_signature())
        assert runs[0] == runs[1]
        assert 0 < len(runs[0]) < 50

    def test_event_signature_is_time_free(self):
        plan = _plan(spec(FaultKind.DEVICE_TRANSIENT, at=(1,)))
        first = FaultInjector(plan)
        get_context().clock.advance(12_345.0)
        second = FaultInjector(plan)
        for injector in (first, second):
            for _ in range(3):
                injector.fire("tpm.device.execute")
        assert first.event_signature() == second.event_signature()

    def test_events_mirror_into_audit_and_metrics(self):
        audit = AuditLog()
        plan = _plan(spec(FaultKind.RING_STALL, at=(0,)))
        injector = FaultInjector(plan, audit=audit)
        with registry_scope(CounterRegistry()) as counters:
            injector.fire("xen.ring.notify", port=3)
            injector.note_retry("xen.ring.notify")
            injector.note_recovery("xen.ring.notify", 42.0)
        operations = [record.operation for record in audit.records()]
        assert "FAULT:ring-stall" in operations
        assert "FAULT-RECOVERY" in operations
        assert audit.verify_chain()
        assert counters.value("faults.injected", kind="ring-stall") == 1
        assert counters.value("faults.retries", site="xen.ring.notify") == 1
        assert counters.value("faults.recoveries", site="xen.ring.notify") == 1
        assert (injector.retries, injector.recoveries) == (1, 1)
        assert injector.recovery_us == 42.0

    def test_report_summarises_the_run(self):
        plan = _plan(spec(FaultKind.DEVICE_TRANSIENT, every=1, max_fires=2))
        injector = FaultInjector(plan)
        for _ in range(4):
            injector.fire("tpm.device.execute")
        report = injector.report()
        assert report["faults"] == {"device-transient": 2}
        assert report["total_faults"] == 2
        assert report["plan"] == "unit-plan"


class TestAmbientInstallation:
    def test_no_injector_means_no_faults(self):
        assert current() is None
        assert fire("tpm.device.execute") is None

    def test_scope_installs_and_restores(self):
        injector = FaultInjector(_plan(spec(FaultKind.RING_STALL, every=1)))
        with injector_scope(injector) as active:
            assert current() is active
            assert fire("xen.ring.notify") is not None
        assert current() is None
        assert fire("xen.ring.notify") is None

    def test_scopes_nest(self):
        outer = FaultInjector(_plan())
        inner = FaultInjector(_plan())
        with injector_scope(outer):
            with injector_scope(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_install_returns_previous(self):
        injector = FaultInjector(_plan())
        assert install(injector) is None
        assert install(None) is injector


class TestWithRetry:
    def test_success_needs_no_budget(self):
        assert with_retry(lambda: 42, site="unit") == 42

    def test_transient_fault_retried_and_charged(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise FaultInjected("device-transient", "unit", transient=True)
            return "ok"

        before = get_context().clock.now_us
        assert with_retry(flaky, site="unit") == "ok"
        assert calls["n"] == 3
        # Two backoffs: 250 + 500 virtual microseconds.
        assert get_context().clock.now_us - before >= 750.0

    def test_non_transient_fault_propagates_immediately(self):
        def crash():
            raise FaultInjected("storage-torn-write", "unit", transient=False)

        with pytest.raises(FaultInjected):
            with_retry(crash, site="unit")

    def test_exhaustion_raises_retry_exhausted(self):
        def always():
            raise FaultInjected("device-transient", "unit", transient=True)

        with pytest.raises(RetryExhausted) as err:
            with_retry(always, site="unit")
        assert err.value.attempts == DEFAULT_ATTEMPTS
        assert isinstance(err.value.last, FaultInjected)

    def test_other_exceptions_pass_through(self):
        def boom():
            raise ValueError("unrelated")

        with pytest.raises(ValueError):
            with_retry(boom, site="unit")

    def test_recovery_noted_on_ambient_injector(self):
        injector = FaultInjector(_plan())
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise FaultInjected("device-transient", "unit", transient=True)
            return True

        with injector_scope(injector):
            assert with_retry(flaky, site="unit")
        assert injector.retries == 1
        assert injector.recoveries == 1

    def test_retry_on_retries_its_own_types(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ValueError("transient in this caller's terms")
            return "ok"

        assert with_retry(flaky, site="unit", retry_on=(ValueError,)) == "ok"
        assert calls["n"] == 3

    def test_retry_on_cannot_retry_a_hard_crash(self):
        calls = {"n": 0}

        def crash():
            calls["n"] += 1
            raise FaultInjected("storage-torn-write", "unit", transient=False)

        with pytest.raises(FaultInjected):
            with_retry(crash, site="unit", retry_on=(Exception,))
        assert calls["n"] == 1

    def test_exhaustion_is_counted_per_site(self):
        def always():
            raise FaultInjected("device-transient", "unit", transient=True)

        with registry_scope(CounterRegistry()) as counters:
            with pytest.raises(RetryExhausted):
                with_retry(always, site="unit", attempts=2)
        assert counters.value("faults.retry_exhausted", site="unit") == 1


class _BackoffSteps:
    """Ledger keeping each ``fault.retry.backoff`` charge in order."""

    def __init__(self):
        self.steps = []

    def record(self, op, cost_us):
        if op == "fault.retry.backoff":
            self.steps.append(cost_us)


def _backoff_steps(attempts, failures, **kwargs):
    """The backoff charges of one episode whose first attempts fail."""
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] <= failures:
            raise FaultInjected("device-transient", "unit", transient=True)
        return True

    ledger = _BackoffSteps()
    get_context().push_ledger(ledger)
    try:
        with_retry(flaky, site="unit", attempts=attempts, **kwargs)
    except RetryExhausted:
        pass
    finally:
        get_context().pop_ledger()
    return ledger.steps


class TestBackoffSchedule:
    def test_jitter_is_a_pure_bounded_fraction(self):
        for token in range(16):
            for attempt in range(6):
                frac = backoff_jitter_frac("unit", token, attempt)
                assert frac == backoff_jitter_frac("unit", token, attempt)
                assert 0.0 <= frac < JITTER_FRAC == 0.5

    def test_two_tokens_give_different_schedules(self):
        first = _backoff_steps(4, 3, jitter_token="vtpm1")
        second = _backoff_steps(4, 3, jitter_token="vtpm2")
        assert first != second
        assert first == _backoff_steps(4, 3, jitter_token="vtpm1")

    def test_jittered_step_never_below_nominal(self):
        for token in range(8):
            steps = _backoff_steps(4, 3, jitter_token=token)
            assert len(steps) == 3
            for i, step in enumerate(steps):
                nominal = DEFAULT_BACKOFF_US * 2 ** i
                frac = backoff_jitter_frac("unit", token, i)
                assert step == nominal * (1.0 + frac)
                assert step >= nominal

    def test_cumulative_backoff_is_capped(self):
        # Nominally 250 * (2^12 - 1) us; the eighth step is cut short at
        # the cap and the last four charge nothing.
        steps = _backoff_steps(12, 12, base_backoff_us=250.0)
        assert steps[:7] == [250.0 * 2 ** i for i in range(7)]
        assert len(steps) == 8
        assert sum(steps) == DEFAULT_MAX_TOTAL_BACKOFF_US


class TestOneRetryLoop:
    """``with_retry`` is the only retry loop: no module outside the fault
    subsystem notes a retry or raises :class:`RetryExhausted` itself."""

    @staticmethod
    def _calls(name):
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None)
                if called == name:
                    yield path.relative_to(root.parent).as_posix(), node.lineno

    def test_retries_are_noted_only_by_the_fault_subsystem(self):
        stray = [f"{path}:{line}" for path, line in self._calls("note_retry")
                 if not path.startswith("repro/faults/")]
        assert stray == []

    def test_retry_exhaustion_is_raised_only_by_with_retry(self):
        stray = [f"{path}:{line}" for path, line in self._calls("RetryExhausted")
                 if path != "repro/faults/retry.py"]
        assert stray == []

    def test_the_guard_sees_with_retry(self):
        assert [path for path, _ in self._calls("RetryExhausted")] == [
            "repro/faults/retry.py"
        ]
