"""Tracing is an observer, not a participant.

The acceptance bar for the observability layer: running the *same* seeded
workload with tracing and counters enabled must produce byte-identical
state digests, the same fault sequence, and the same audit hash-chain
head as the untraced run — and the span trees it collects must be
structurally valid (every span closed, children nested inside parents,
no orphans left on the tracer stack).
"""

from __future__ import annotations

import pytest

from repro.core.config import AccessMode
from repro.harness.builder import build_platform, fresh_timing_context
from repro.harness.chaos import ChaosScenario
from repro.harness.scenario import run_once
from repro.obs import (
    CounterRegistry,
    InMemorySink,
    Tracer,
    load_jsonl,
    registry_scope,
    tracer_scope,
    validate_tree_dict,
)
from repro.tpm import marshal
from repro.tpm.constants import TPM_SUCCESS

SEED = 424242
COMMANDS = 120
SCENARIO = ChaosScenario(seed=SEED, commands=COMMANDS)


class TestChaosNonInterference:
    """The chaos demo, traced vs untraced, byte for byte."""

    @pytest.fixture(scope="class")
    def runs(self):
        plan = SCENARIO.default_plan()
        untraced = run_once(SCENARIO, plan)
        tracer = Tracer(InMemorySink())
        registry = CounterRegistry()
        traced = run_once(
            SCENARIO, plan,
            tracer=tracer, counters=registry,
        )
        return untraced, traced, tracer, registry

    def test_digests_identical(self, runs):
        untraced, traced, _, _ = runs
        assert traced.digests == untraced.digests

    def test_audit_chain_identical(self, runs):
        untraced, traced, _, _ = runs
        assert untraced.audit_chain_hex  # the oracle must not be vacuous
        assert traced.audit_chain_hex == untraced.audit_chain_hex

    def test_fault_sequence_identical(self, runs):
        untraced, traced, _, _ = runs
        assert traced.event_signature == untraced.event_signature
        assert traced.fault_counts == untraced.fault_counts

    def test_span_trees_structurally_valid(self, runs):
        _, _, tracer, _ = runs
        assert tracer.open_spans == 0  # nothing left dangling
        spans = tracer.sink.validate()  # raises on any malformed tree
        assert spans >= tracer.roots_emitted > 0
        # The same oracle holds after a serialization round trip.
        import json

        for root in tracer.sink.roots:
            node = json.loads(json.dumps(root.to_dict()))
            assert validate_tree_dict(node) == sum(1 for _ in root.walk())

    def test_counters_saw_the_run(self, runs):
        untraced, _, _, registry = runs
        assert registry.total("ac.decisions") > 0
        assert registry.total("faults.injected") == untraced.total_faults
        exposition = registry.exposition()
        assert (
            "ac.decisions{outcome=\"allow\",reason=\"granted\"}" in exposition
        )


class TestBatchedNonInterference:
    """The STATUS_BATCH vector path, traced vs untraced, byte for byte."""

    def _batched_run(self, tracer=None, registry=None):
        import contextlib

        fresh_timing_context()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer_scope(tracer))
            if registry is not None:
                stack.enter_context(registry_scope(registry))
            platform = build_platform(
                AccessMode.IMPROVED, seed=SEED, name="batch-ni"
            )
            guest = platform.add_guest("batcher")
            responses = []
            for round_no in range(6):
                wires = [marshal.pcr_read_wire(i % 8) for i in range(round_no + 2)]
                responses.extend(guest.frontend.transport_batch(wires))
            digest = platform.manager.instance(
                guest.instance_id
            ).device.save_state_blob()
            chain = platform.audit.chain_head()
        return responses, digest, chain

    def test_traced_batches_byte_identical(self):
        plain_responses, plain_digest, plain_chain = self._batched_run()
        tracer = Tracer(InMemorySink())
        registry = CounterRegistry()
        traced_responses, traced_digest, traced_chain = self._batched_run(
            tracer, registry
        )
        assert traced_responses == plain_responses
        assert all(
            marshal.parse_response(r).return_code == TPM_SUCCESS
            for r in traced_responses
        )
        assert traced_digest == plain_digest
        assert traced_chain == plain_chain
        # The batch shape reached the counters and the span trees.
        assert registry.total("ring.batched_frames") == sum(
            range(2, 8)
        )
        batch_spans = tracer.sink.spans_named("ring.send_batch")
        assert [s.attrs["frames"] for s in batch_spans] == list(range(2, 8))
        assert tracer.open_spans == 0
        assert tracer.sink.validate() > 0


class TestSampledNonInterference:
    """Head sampling keeps tracing an observer at every rate: a 1-in-N
    traced run stays byte-identical to the untraced run, counters stay
    exact, and the sampling schedule itself is replay-identical."""

    RATES = (1, 4, 64)

    @pytest.fixture(scope="class")
    def untraced(self):
        plan = SCENARIO.default_plan()
        return run_once(SCENARIO, plan)

    @pytest.mark.parametrize("rate", RATES)
    def test_sampled_chaos_is_byte_identical(self, untraced, rate):
        plan = SCENARIO.default_plan()
        tracer = Tracer(InMemorySink(), sample_rate=rate)
        registry = CounterRegistry()
        sampled = run_once(
            SCENARIO, plan,
            tracer=tracer, counters=registry,
        )
        assert sampled.digests == untraced.digests
        assert sampled.audit_chain_hex == untraced.audit_chain_hex
        assert sampled.event_signature == untraced.event_signature
        assert sampled.fault_counts == untraced.fault_counts
        # Counters are exact regardless of which trees were kept.
        assert registry.total("faults.injected") == untraced.total_faults
        # The kept trees are intact and nothing dangles.
        assert tracer.open_spans == 0
        assert tracer.roots_emitted + tracer.roots_skipped == (
            tracer.roots_seen
        )
        if rate > 1:
            assert tracer.roots_skipped > 0
        tracer.sink.validate()

    @pytest.mark.parametrize("rate", RATES)
    def test_sampled_cluster_is_byte_identical(self, rate):
        from repro.cluster import ClusterScenario, default_cluster_plan

        scenario = ClusterScenario(seed=SEED, hosts=3, guests=6, steps=10)
        plan = default_cluster_plan(SEED, 3, crash_step=7)
        untraced = run_once(scenario, plan)
        tracer = Tracer(InMemorySink(), sample_rate=rate)
        registry = CounterRegistry()
        sampled = run_once(scenario, plan, tracer=tracer, counters=registry)
        assert sampled.digests == untraced.digests
        assert sampled.response_digests == untraced.response_digests
        assert sampled.event_signature == untraced.event_signature
        assert sampled.placement_signature == untraced.placement_signature
        assert sampled.migration_signature == untraced.migration_signature
        assert tracer.open_spans == 0
        tracer.sink.validate()

    @pytest.mark.parametrize("rate", RATES)
    def test_sampling_schedule_replays_identically(self, rate):
        """Two same-seed runs keep the very same trees: the schedule is a
        pure function of the root index, untouched by either timebase."""
        def schedule():
            plan = SCENARIO.default_plan()
            tracer = Tracer(InMemorySink(), sample_rate=rate)
            run_once(
                SCENARIO, plan,
                tracer=tracer,
            )
            return (
                tracer.roots_seen,
                tracer.roots_skipped,
                [(r.name, r.start_virtual_us) for r in tracer.sink.roots],
            )

        assert schedule() == schedule()


class TestJsonlRoundTrip:
    def test_jsonl_stream_validates(self, tmp_path):
        from repro.obs import JsonlSink

        out = tmp_path / "trace.jsonl"
        fresh_timing_context()
        with out.open("w") as fh:
            sink = JsonlSink(fh)
            tracer = Tracer(sink)
            with tracer_scope(tracer):
                platform = build_platform(
                    AccessMode.IMPROVED, seed=7, name="jsonl-ni"
                )
                guest = platform.add_guest("writer")
                for i in range(5):
                    guest.frontend.transport(marshal.pcr_read_wire(i))
            sink.flush()
        trees = load_jsonl(out.read_text())
        assert len(trees) == tracer.roots_emitted
        assert sum(validate_tree_dict(t) for t in trees) == (
            tracer.spans_started
        )
