"""The observability-overhead bench: schema-valid payload, sane overhead."""

import pytest

from repro.bench.obs import cluster_overhead, overhead_at_default_rate, run_obs_bench
from repro.bench.runner import validate_payload


@pytest.fixture(scope="module")
def payload():
    return run_obs_bench(n_items=600, repeats=1, seed=7, smoke=True)


class TestPayload:
    def test_schema_validates(self, payload):
        validate_payload(payload)  # raises on violation
        # v2 since the cluster telemetry rows carry extra columns
        assert payload["schema"] == "repro.bench/v2"

    def test_three_rates_measured(self, payload):
        names = [r["synopsis"] for r in payload["results"]]
        assert any("metrics" in n for n in names)
        assert any("trace@0.01" in n for n in names)
        assert any("trace@1" in n for n in names)

    def test_bare_and_instrumented_states_equal(self, payload):
        assert all(r["equivalent"] for r in payload["results"])

    def test_throughput_fields_positive(self, payload):
        for row in payload["results"]:
            assert row["seq_items_per_s"] > 0
            assert row["batch_items_per_s"] > 0
            assert row["speedup"] > 0

    def test_config_records_mode(self, payload):
        cfg = payload["config"]
        assert cfg["mode"] == "obs-overhead"
        assert cfg["smoke"] is True


class TestOverhead:
    def test_overhead_at_default_rate_extracted(self, payload):
        overhead = overhead_at_default_rate(payload)
        assert isinstance(overhead, float)
        # smoke workloads are noisy; just require it isn't catastrophic
        assert overhead > -0.9

    def test_missing_default_rate_rejected(self, payload):
        from repro.common.exceptions import ParameterError

        broken = dict(payload)
        broken["results"] = [
            r for r in payload["results"] if "trace@0.01" not in r["synopsis"]
        ]
        with pytest.raises(ParameterError):
            overhead_at_default_rate(broken)


class TestClusterRows:
    def test_cluster_row_present_with_v2_columns(self, payload):
        rows = [r for r in payload["results"] if "cluster_demo" in r["synopsis"]]
        assert rows, "no cluster telemetry rows in the payload"
        for row in rows:
            assert row["transport"] == "shm"
            assert row["n_workers"] == 2
            assert row["telemetry_interval"] > 0
            assert row["telemetry_flushes"] >= 2  # one forced flush/worker
            assert row["codec_pickled_bytes"] == 0  # shm plane stayed pickle-free

    def test_streaming_telemetry_preserves_state(self, payload):
        rows = [r for r in payload["results"] if "cluster_demo" in r["synopsis"]]
        assert all(r["equivalent"] for r in rows)

    def test_cluster_overhead_extracted(self, payload):
        overhead = cluster_overhead(payload)
        assert isinstance(overhead, float)
        # smoke workloads are noisy; just require it isn't catastrophic
        assert overhead > -0.9

    def test_missing_cluster_row_rejected(self, payload):
        from repro.common.exceptions import ParameterError

        broken = dict(payload)
        broken["results"] = [
            r for r in payload["results"] if "cluster_demo" not in r["synopsis"]
        ]
        with pytest.raises(ParameterError):
            cluster_overhead(broken)

    def test_cluster_rows_can_be_disabled(self):
        payload = run_obs_bench(
            n_items=200, repeats=1, seed=7, smoke=True, cluster=False
        )
        validate_payload(payload)
        assert not [
            r for r in payload["results"] if "cluster_demo" in r["synopsis"]
        ]
