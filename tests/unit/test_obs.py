"""Unit tests for the observability layer (spans, counters, sinks) and its
timing-context binding rules."""

from __future__ import annotations

import json

import pytest

from repro.harness.builder import fresh_timing_context
from repro.obs import (
    NULL_SPAN,
    CounterRegistry,
    CountingSink,
    InMemorySink,
    JsonlSink,
    Tracer,
    current_registry,
    current_tracer,
    format_span_tree,
    load_jsonl,
    registry_scope,
    span,
    span_event,
    tracer_scope,
    validate_span_tree,
    validate_tree_dict,
)
from repro.sim.timing import charge, get_context
from repro.util.errors import ReproError


class TestSpans:
    def test_disabled_hook_returns_shared_null_span(self):
        assert current_tracer() is None
        s = span("anything", key="value")
        assert s is NULL_SPAN
        with s as inner:
            inner.set("x", 1)
            inner.add_event("ignored")
        span_event("also-ignored")  # must not raise with no tracer

    def test_span_carries_virtual_time_only(self):
        # Spans read the virtual clock only; wall time is measured from
        # outside the package.
        tracer = Tracer(InMemorySink())
        with tracer_scope(tracer):
            with span("work") as s:
                charge("tpm.cmd.base")
        assert s.closed
        assert s.duration_virtual_us > 0

    def test_nesting_follows_the_stack(self):
        tracer = Tracer(InMemorySink())
        with tracer_scope(tracer):
            with span("root"):
                with span("child-a"):
                    charge("tpm.cmd.base")
                with span("child-b") as b:
                    with span("grandchild"):
                        pass
                span_event("note", detail=7)
        (root,) = tracer.sink.roots
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [c.name for c in b.children] == ["grandchild"]
        assert root.events[0]["name"] == "note"
        validate_span_tree(root)
        assert tracer.open_spans == 0

    def test_mismatched_close_raises(self):
        tracer = Tracer(InMemorySink())
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(ReproError, match="mismatched span nesting"):
            tracer._finish(outer)

    def test_span_crossing_context_reset_raises(self):
        """A span left open across fresh_timing_context() would report a
        virtual interval mixing two epochs — it must refuse instead."""
        tracer = Tracer(InMemorySink())
        with tracer_scope(tracer):
            s = tracer.start_span("stale")
            fresh_timing_context()
            with pytest.raises(ReproError, match="timing-context reset"):
                s.__exit__(None, None, None)

    def test_validate_rejects_unclosed_and_nonnested(self):
        tracer = Tracer(InMemorySink())
        with tracer_scope(tracer):
            with span("root") as root:
                with span("child"):
                    charge("tpm.cmd.base")
        # Tamper: pull the child outside its parent's interval.
        root.children[0].end_virtual_us = root.end_virtual_us + 1.0
        with pytest.raises(ReproError, match="not nested"):
            validate_span_tree(root)
        root.children[0].end_virtual_us = None
        with pytest.raises(ReproError, match="never closed"):
            validate_span_tree(root)

    def test_find_and_walk(self):
        tracer = Tracer(InMemorySink())
        with tracer_scope(tracer):
            with span("a"):
                with span("b"):
                    pass
                with span("b"):
                    pass
        (root,) = tracer.sink.roots
        assert len(root.find("b")) == 2
        assert [s.name for s in root.walk()] == ["a", "b", "b"]


class TestCounters:
    def test_disabled_hooks_are_noops(self):
        from repro.obs import counters as obs_counters

        assert current_registry() is None
        obs_counters.inc("nothing")
        obs_counters.set_gauge("nothing", 1.0)

    def test_inc_value_total_and_labels(self):
        reg = CounterRegistry()
        reg.inc("ac.decisions", outcome="allow")
        reg.inc("ac.decisions", outcome="allow")
        reg.inc("ac.decisions", outcome="deny")
        assert reg.value("ac.decisions", outcome="allow") == 2
        assert reg.total("ac.decisions") == 3
        assert reg.value("missing") == 0

    def test_negative_increment_rejected(self):
        reg = CounterRegistry()
        with pytest.raises(ReproError, match="cannot decrease"):
            reg.inc("x", -1)

    def test_exposition_is_sorted_and_stable(self):
        reg = CounterRegistry()
        reg.inc("b.counter", cls="z")
        reg.inc("b.counter", cls="a")
        reg.inc("a.counter")
        reg.set_gauge("c.gauge", 2.5)
        assert reg.exposition() == (
            "a.counter 1\n"
            'b.counter{cls="a"} 1\n'
            'b.counter{cls="z"} 1\n'
            "c.gauge 2.5\n"
        )

    def test_scope_installs_and_restores(self):
        from repro.obs import counters as obs_counters

        reg = CounterRegistry()
        with registry_scope(reg):
            assert current_registry() is reg
            obs_counters.inc("seen")
        assert current_registry() is None
        assert reg.value("seen") == 1


class TestContextBinding:
    """The shared epoch rule: observation state binds to the timing
    context it first records under, and a cross-context write raises."""

    def test_registry_rejects_cross_context_writes(self):
        reg = CounterRegistry()
        reg.inc("x")
        fresh_timing_context()
        with pytest.raises(ReproError, match="earlier timing context"):
            reg.inc("x")

    def test_registry_reset_rebinds(self):
        reg = CounterRegistry()
        reg.inc("x")
        fresh_timing_context()
        reg.reset()
        reg.inc("x")
        assert reg.value("x") == 1


class TestSinks:
    def _tree(self):
        tracer = Tracer(InMemorySink())
        with tracer_scope(tracer):
            with span("root", domid=1):
                with span("child"):
                    charge("tpm.cmd.base")
                span_event("fault", kind="ring-stall")
        return tracer

    def test_in_memory_sink_validate_counts_spans(self):
        tracer = self._tree()
        assert tracer.sink.validate() == 2
        assert len(tracer.sink) == 1
        assert len(tracer.sink.spans_named("child")) == 1

    def test_counting_sink_counts_without_retaining(self):
        sink = CountingSink()
        tracer = Tracer(sink)
        with tracer_scope(tracer):
            with span("root"):
                with span("child"):
                    pass
        assert sink.roots == 1
        assert sink.spans == 2

    def test_jsonl_round_trip_and_dict_oracle(self, tmp_path):
        out = tmp_path / "t.jsonl"
        with out.open("w") as fh:
            sink = JsonlSink(fh)
            tracer = Tracer(sink)
            with tracer_scope(tracer):
                with span("root"):
                    with span("child"):
                        charge("tpm.cmd.base")
            sink.flush()
        (tree,) = load_jsonl(out.read_text())
        assert validate_tree_dict(tree) == 2
        broken = json.loads(json.dumps(tree))
        broken["children"][0]["virtual_us"][1] = (
            tree["virtual_us"][1] + 99.0
        )
        with pytest.raises(ReproError, match="not nested"):
            validate_tree_dict(broken)

    def test_jsonl_spans_carry_virtual_time_only(self, tmp_path):
        # No sink captures wall time: spans carry virtual time only, so
        # the JSONL trace is a pure function of the seed.
        out = tmp_path / "t.jsonl"
        with out.open("w") as fh:
            sink = JsonlSink(fh)
            tracer = Tracer(sink)
            with tracer_scope(tracer):
                with span("root"):
                    with span("child"):
                        charge("tpm.cmd.base")
            sink.flush()
        (tree,) = load_jsonl(out.read_text())
        assert "wall_ns" not in tree
        assert "wall_ns" not in tree["children"][0]
        assert validate_tree_dict(tree) == 2

    def test_format_span_tree_is_renderable(self):
        tracer = self._tree()
        lines = format_span_tree(tracer.sink.roots[0])
        text = "\n".join(lines)
        assert "root" in text and "child" in text
        assert "! fault" in text
        assert "domid=1" in text


class TestSampling:
    """Deterministic head sampling: 1-in-N trees, replay-identical."""

    def _run(self, rate, seed=0, roots=20):
        tracer = Tracer(InMemorySink(), sample_rate=rate, sample_seed=seed)
        with tracer_scope(tracer):
            for i in range(roots):
                with span("root", index=i):
                    with span("child"):
                        pass
        return tracer

    def test_rate_one_records_every_tree(self):
        tracer = self._run(rate=1)
        assert tracer.roots_seen == 20
        assert tracer.roots_emitted == 20
        assert tracer.roots_skipped == 0

    @pytest.mark.parametrize("rate", [0, -4])
    def test_rate_below_one_is_rejected(self, rate):
        with pytest.raises(ReproError, match="sample_rate must be >= 1"):
            Tracer(InMemorySink(), sample_rate=rate)

    def test_keeps_one_in_n_from_the_seed_residue(self):
        tracer = self._run(rate=4)
        assert tracer.roots_seen == 20
        assert tracer.roots_emitted == 5
        assert tracer.roots_skipped == 15
        kept = [root.attrs["index"] for root in tracer.sink.roots]
        assert kept == [0, 4, 8, 12, 16]

    def test_sample_seed_rotates_the_residue_class(self):
        tracer = self._run(rate=4, seed=1)
        kept = [root.attrs["index"] for root in tracer.sink.roots]
        assert kept == [1, 5, 9, 13, 17]

    def test_schedule_is_replay_identical(self):
        """Same seed, same workload — the very same trees are kept: the
        schedule is a pure function of (root index, seed), no RNG."""
        for rate in (1, 4, 64):
            first = self._run(rate=rate, roots=100)
            second = self._run(rate=rate, roots=100)
            assert (
                [r.attrs["index"] for r in first.sink.roots]
                == [r.attrs["index"] for r in second.sink.roots]
            )

    def test_suppressed_root_hides_the_tracer(self):
        """Inside a sampled-out root the ambient slot reads None, so every
        nested guarded site takes its free path; the tracer is reinstalled
        when the skip scope exits."""
        tracer = Tracer(InMemorySink(), sample_rate=2, sample_seed=1)
        with tracer_scope(tracer):
            with span("skipped"):  # index 0: sampled out
                assert current_tracer() is None
                assert span("nested") is NULL_SPAN
            assert current_tracer() is tracer
            with span("kept"):  # index 1: recorded
                assert current_tracer() is tracer
        assert tracer.roots_emitted == 1
        assert tracer.sink.roots[0].name == "kept"
        assert tracer.open_spans == 0

    def test_direct_start_span_during_skip_is_null(self):
        """Code holding a direct tracer reference (not the ambient slot)
        still gets a no-op span while a root is suppressed."""
        tracer = Tracer(InMemorySink(), sample_rate=2, sample_seed=1)
        with tracer_scope(tracer):
            with tracer.start_span("skipped"):
                assert tracer.start_span("direct") is NULL_SPAN
        assert tracer.roots_emitted == 0
        assert tracer.roots_skipped == 1

    def test_counters_stay_exact_under_sampling(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("sampling.events")
        tracer = Tracer(InMemorySink(), sample_rate=8)
        reg = CounterRegistry()
        with tracer_scope(tracer), registry_scope(reg):
            for i in range(32):
                with span("root", index=i):
                    handle.inc()
                    obs_counters.inc("sampling.named")
        assert tracer.roots_emitted == 4
        assert reg.value("sampling.events") == 32  # every tree, kept or not
        assert reg.value("sampling.named") == 32


class TestSpanPooling:
    """Non-retaining sinks recycle emitted spans; retaining sinks don't."""

    def test_pool_reuses_span_objects(self):
        tracer = Tracer(CountingSink())
        with tracer_scope(tracer):
            with span("root"):
                with span("child"):
                    pass
            assert len(tracer._pool) == 2
            recycled = tracer._pool[-1]
            reused = tracer.start_span("again")
            assert reused is recycled
            assert reused.children == [] and reused.events == []
            assert reused.attrs is None
            reused.__exit__(None, None, None)
        assert tracer.sink.roots == 2

    def test_retaining_sink_never_recycles(self):
        tracer = Tracer(InMemorySink())
        with tracer_scope(tracer):
            with span("root"):
                pass
        assert tracer._pool == []
        assert tracer.sink.roots[0].name == "root"

    def test_pool_is_capped(self):
        from repro.obs import trace as obs_trace

        tracer = Tracer(CountingSink())
        with tracer_scope(tracer):
            for _ in range(3):
                root = tracer.start_span("wide")
                for _ in range(600):
                    tracer.start_span("leaf").__exit__(None, None, None)
                root.__exit__(None, None, None)
        assert len(tracer._pool) <= obs_trace._POOL_CAP


class TestCounterHandles:
    """Pre-resolved handles share cells with the named path and follow
    registry installation and timing-context epochs exactly."""

    def test_handle_and_named_writes_share_one_cell(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("handles.shared", cls="x")
        reg = CounterRegistry()
        with registry_scope(reg):
            handle.inc()
            reg.inc("handles.shared", cls="x")
            handle.add(3)
        assert reg.value("handles.shared", cls="x") == 5

    def test_handle_is_a_noop_without_a_registry(self):
        from repro.obs import counters as obs_counters

        assert current_registry() is None
        obs_counters.counter("handles.off").inc()  # must not raise

    def test_handle_follows_registry_swap(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("handles.swap")
        first, second = CounterRegistry(), CounterRegistry()
        with registry_scope(first):
            handle.inc()
        with registry_scope(second):
            handle.inc(2)
        assert first.value("handles.swap") == 1
        assert second.value("handles.swap") == 2

    def test_handle_rebinds_after_reset(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("handles.reset")
        reg = CounterRegistry()
        with registry_scope(reg):
            handle.inc()
            stale_cell = handle._cell
            fresh_timing_context()
            reg.reset()
            handle.inc()
            assert handle._cell is not stale_cell
            assert reg.value("handles.reset") == 1

    def test_handle_cross_context_write_raises(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("handles.epoch")
        reg = CounterRegistry()
        with registry_scope(reg):
            handle.inc()
            fresh_timing_context()
            with pytest.raises(ReproError, match="earlier timing context"):
                handle.inc()

    def test_handle_negative_increment_rejected(self):
        from repro.obs import counters as obs_counters

        handle = obs_counters.counter("handles.negative")
        with registry_scope(CounterRegistry()):
            with pytest.raises(ReproError, match="cannot decrease"):
                handle.inc(-1)


class TestExpositionDeterminism:
    """Regression (satellite): exposition order is insertion-independent —
    ascending metric name then label tuple, handles and named merged."""

    def test_insertion_order_cannot_leak_into_exposition(self):
        from repro.obs import counters as obs_counters

        def fill(reg, order):
            with registry_scope(reg):
                for step in order:
                    step()
        h_ring = obs_counters.counter("ring.kicks")
        h_cls = obs_counters.counter("ac.commands", cls="read")
        ops = {
            "gauge": lambda: obs_counters.set_gauge("pool.depth", 3.0),
            "handle": h_ring.inc,
            "labeled": h_cls.inc,
            "named": lambda: obs_counters.inc("ac.commands", cls="measure"),
        }
        forward, backward = CounterRegistry(), CounterRegistry()
        fill(forward, [ops[k] for k in sorted(ops)])
        fill(backward, [ops[k] for k in sorted(ops, reverse=True)])
        assert forward.exposition() == backward.exposition()
        assert forward.exposition() == (
            'ac.commands{cls="measure"} 1\n'
            'ac.commands{cls="read"} 1\n'
            "pool.depth 3\n"
            "ring.kicks 1\n"
        )
