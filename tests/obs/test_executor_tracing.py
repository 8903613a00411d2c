"""End-to-end tracing through LocalExecutor: span trees, recovery, façade."""

import pytest

from repro.obs.context import Observability
from repro.obs.demo import build_demo_topology, demo_records, run_demo
from repro.obs.report import render_report, render_trace_tree
from repro.obs.tracing import critical_path, span_stats
from repro.platform.executor import LocalExecutor
from repro.platform.faults import FaultInjector


def _run(sample_rate=1.0, n_records=120, **kw):
    return run_demo(n_records=n_records, sample_rate=sample_rate, **kw)


class TestSpanTrees:
    def test_traced_tuple_yields_full_tree(self):
        executor, obs = _run(sample_rate=1.0, n_records=60)
        trace_ids = obs.collector.trace_ids()
        assert len(trace_ids) == 60  # every spout tuple sampled
        root = obs.collector.tree(trace_ids[0])
        components = [n.span.component for n in root.walk()]
        assert root.span.kind == "spout_emit"
        assert components[0] == "spout:sentences"
        assert any(c.startswith("bolt:split") for c in components)
        assert any(c.startswith("bolt:count") for c in components)
        assert any(c.startswith("bolt:sketch") for c in components)
        assert "acker" in components

    def test_queue_wait_and_process_time_recorded(self):
        __, obs = _run(sample_rate=1.0, n_records=40)
        process_spans = [
            s
            for t in obs.collector.trace_ids()
            for s in obs.collector.spans_for(t)
            if s.kind == "process"
        ]
        assert process_spans
        assert all(s.duration >= 0.0 for s in process_spans)
        assert all(s.queue_wait >= 0.0 for s in process_spans)
        assert any(s.queue_wait > 0.0 for s in process_spans)

    def test_fan_out_recorded_on_spout_and_split(self):
        __, obs = _run(sample_rate=1.0, n_records=30)
        tid = obs.collector.trace_ids()[0]
        root = obs.collector.tree(tid)
        # the spout emits one tuple downstream; split fans out one per word
        assert root.span.fan_out >= 1
        split = next(
            n for n in root.walk() if n.span.component.startswith("bolt:split")
        )
        assert split.span.fan_out >= 1

    def test_sampling_rate_zero_records_nothing(self):
        __, obs = _run(sample_rate=0.0, n_records=50)
        assert obs.collector.trace_ids() == []

    def test_sampling_is_partial_at_fractional_rate(self):
        __, obs = _run(sample_rate=0.2, n_records=200)
        n = len(obs.collector.trace_ids())
        assert 0 < n < 200

    def test_critical_path_spans_spout_to_leaf(self):
        __, obs = _run(sample_rate=1.0, n_records=30)
        tid = obs.collector.trace_ids()[0]
        path = critical_path(obs.collector.tree(tid))
        assert path[0].component == "spout:sentences"
        assert len(path) >= 2

    def test_span_stats_cover_all_components(self):
        __, obs = _run(sample_rate=1.0, n_records=30)
        spans = [
            s
            for t in obs.collector.trace_ids()
            for s in obs.collector.spans_for(t)
        ]
        stats = span_stats(spans)
        assert any(c.startswith("bolt:") for c in stats)
        assert all(v["hops"] > 0 for v in stats.values())


def _observable_state(sample_rate):
    """Count tables + sketch cardinality of one at-least-once demo run,
    bare (``sample_rate=None``) or under an Observability bundle."""
    obs = None
    if sample_rate is not None:
        obs = Observability.create(sample_rate=sample_rate, seed=7)
    topology = build_demo_topology(demo_records(400, 7), obs)
    executor = LocalExecutor(topology, semantics="at_least_once", obs=obs)
    executor.run()
    counts: dict = {}
    for bolt in executor.bolt_instances("count"):
        counts.update(bolt.counts)
    (sketch,) = executor.bolt_instances("sketch")
    return counts, round(sketch.synopsis["uniques"].estimate())


class TestWatchingDoesNotChangeTheStream:
    @pytest.mark.parametrize("sample_rate", [0.0, 0.01, 1.0])
    def test_instrumented_run_matches_bare_run(self, sample_rate):
        # Metrics, sampled tracing and synopsis instrumentation may cost
        # time, never answers: identical counts and uniques estimate.
        bare_counts, bare_uniques = _observable_state(None)
        counts, uniques = _observable_state(sample_rate)
        assert counts and counts == bare_counts
        assert uniques == bare_uniques


class TestCrashRecovery:
    def test_trace_survives_injected_crash(self):
        # the acceptance criterion: a traced tuple's tree survives at
        # least one injected crash/recovery end-to-end
        executor, obs = _run(
            sample_rate=1.0,
            n_records=200,
            semantics="exactly_once",
            crash_after=120,
            checkpoint_interval=50,
        )
        assert executor.metrics.recoveries >= 1
        event_kinds = {e.kind for e in obs.collector.events}
        assert {"crash", "recovery"} <= event_kinds

        multi = [
            t for t in obs.collector.trace_ids() if obs.collector.attempts(t) > 1
        ]
        assert multi, "expected at least one replayed (multi-attempt) trace"
        tid = multi[0]
        root = obs.collector.tree(tid)  # final attempt by default
        assert root.span.attempt == obs.collector.attempts(tid)
        components = [n.span.component for n in root.walk()]
        assert components[0] == "spout:sentences"
        assert "acker" in components
        # the first attempt is still reconstructable on demand
        first = obs.collector.tree(tid, attempt=1)
        assert first.span.attempt == 1

    def test_replay_spans_tagged(self):
        __, obs = _run(
            sample_rate=1.0,
            n_records=200,
            semantics="at_least_once",
            drop_probability=0.05,
        )
        kinds = {
            s.kind
            for t in obs.collector.trace_ids()
            for s in obs.collector.spans_for(t)
        }
        assert "replay" in kinds or "fail" in kinds


class TestFacadeMetrics:
    def test_summary_includes_components_and_high_water(self):
        executor, __ = _run(sample_rate=0.0, n_records=50)
        summary = executor.metrics.summary()
        assert "components" in summary
        comp = summary["components"]
        assert "spout:sentences" in comp
        for entry in comp.values():
            assert set(entry) >= {
                "emitted",
                "processed",
                "acked",
                "failed",
                "queue_high_water",
            }
        assert any(e["queue_high_water"] > 0 for e in comp.values())

    def test_metrics_flow_into_shared_registry(self):
        executor, obs = _run(sample_rate=0.0, n_records=30)
        fam = obs.registry.get("repro_component_emitted_total")
        assert fam is not None
        total = sum(s.value for s in fam.samples())
        assert total > 0

    def test_synopsis_instrumentation_wired_in_demo(self):
        __, obs = _run(sample_rate=0.0, n_records=40)
        calls = obs.registry.get("repro_synopsis_calls_total")
        assert calls is not None
        assert sum(s.value for s in calls.samples()) > 0
        mem = obs.registry.get("repro_synopsis_memory_bytes")
        (sample,) = [
            s for s in mem.samples() if s.labels_dict()["synopsis"] == "demo_summary"
        ]
        assert sample.value > 0


class TestReport:
    def test_render_report_sections(self):
        executor, obs = _run(sample_rate=1.0, n_records=40)
        text = render_report(executor.metrics, obs.collector)
        assert "== run summary ==" in text
        assert "== components ==" in text
        assert "== traces" in text

    def test_render_trace_tree_shows_timings(self):
        __, obs = _run(sample_rate=1.0, n_records=20)
        tid = obs.collector.trace_ids()[0]
        text = render_trace_tree(obs.collector, tid)
        assert "spout:sentences" in text
        assert "proc" in text


class TestObservabilityFactory:
    def test_create_defaults(self):
        obs = Observability.create()
        assert obs.sampler is not None
        assert obs.sampler.rate == pytest.approx(0.01)

    def test_rate_zero_disables_sampler(self):
        obs = Observability.create(sample_rate=0.0)
        assert obs.sampler is None

    def test_fault_injector_importable(self):
        # guard: the demo wires FaultInjector; keep the import path stable
        assert FaultInjector is not None
