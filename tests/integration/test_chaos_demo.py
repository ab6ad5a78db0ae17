"""The acceptance demo as a test: 1000 commands under the default chaos
plan, zero state loss, deterministic replay, observable faults."""

from repro.faults import FaultKind
from repro.harness.chaos import ChaosScenario
from repro.harness.scenario import run_demo, run_once
from repro.obs import CounterRegistry


class TestChaosDemo:
    def test_demo_end_to_end(self):
        # run_demo asserts the claims internally; a clean return IS the
        # acceptance criterion.
        counters = CounterRegistry()
        result = run_demo(ChaosScenario(seed=2026, commands=1000),
                          counters=counters)
        chaotic = result.chaotic
        # ≥4 distinct kinds, including the four named in the acceptance
        # criteria: ring stall, torn write, transient device error and an
        # interrupted migration.
        for kind in (
            FaultKind.RING_STALL,
            FaultKind.STORAGE_TORN_WRITE,
            FaultKind.DEVICE_TRANSIENT,
            FaultKind.MIGRATION_NET_DROP,
        ):
            assert chaotic.fault_counts.get(kind.value, 0) >= 1
        # Observability: faults, retries and recoveries all land in the
        # chaotic run's counter registry; every fault is on the audit chain.
        assert counters.total("faults.injected") == chaotic.total_faults
        assert counters.total("faults.retries") == chaotic.retries
        assert counters.total("faults.recoveries") == chaotic.recoveries
        assert chaotic.recoveries > 0
        assert chaotic.audit_fault_records >= chaotic.total_faults
        assert chaotic.mean_recovery_us > 0.0

    def test_default_plans_cover_every_kind(self):
        """Single-host chaos owns the device/storage/migration kinds; the
        cluster plan owns the fleet-scoped ones.  Together: everything."""
        from repro.cluster import default_cluster_plan

        plan = ChaosScenario(seed=1).default_plan()
        cluster_plan = default_cluster_plan(1, num_hosts=4, crash_step=8)
        assert set(plan.kinds()) | set(cluster_plan.kinds()) == set(FaultKind)
        assert set(plan.kinds()) & set(cluster_plan.kinds()) == set()

    def test_workload_without_plan_is_fault_free(self):
        report = run_once(ChaosScenario(seed=5, commands=120), plan=None)
        assert report.total_faults == 0
        assert report.retries == 0
        assert report.digests["anchor"] != report.digests["mover"]
