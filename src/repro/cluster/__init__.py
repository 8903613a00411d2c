"""Multi-process sharded topology execution (Table 2's cluster design space).

The single-process :class:`~repro.platform.executor.LocalExecutor` realizes
Storm's model on one core; this package spreads the same topology across N
worker *processes*:

* :mod:`repro.cluster.plan` — the coordinator plans each bolt's declared
  ``parallelism`` into per-worker shard assignments (Storm worker slots,
  Samza partition→container mapping).
* :mod:`repro.cluster.worker` — the child-process event loop around the
  shared operator loop (:mod:`repro.platform.runner`): local-or-remote
  delivery, reply assembly, checkpoint capture, telemetry.
* :mod:`repro.cluster.coordinator` — :class:`ClusterExecutor`: feeds
  spouts, routes honouring the grouping contracts, tracks tuple trees
  (XOR acker), takes cluster-wide checkpoints, detects worker crashes and
  performs rollback recovery, and answers queries by merging
  shard-partial synopses (:meth:`ClusterExecutor.merged_synopsis`,
  merge-on-query).
* :mod:`repro.cluster.shm` / :mod:`repro.cluster.columnar` — the
  zero-copy data plane: tuple batches travel as columnar frames over
  shared-memory SPSC rings inherited through fork; ``multiprocessing``
  queues carry only control traffic (doorbells, acks, checkpoint
  barriers, crash/respawn). Per-worker metrics and spans stream home
  as :mod:`repro.obs.live` delta telemetry.

Field-grouped keys stay shard-local, so per-shard synopses are *exact*
partials of the single-process state; ``SynopsisBase.merge`` folds them
exactly at query time.
"""

from repro.common.lazy import lazy_exports

# Each name loads its submodule on first use: ``leaked_segments`` or the
# columnar codec must not pull in the coordinator.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.cluster.columnar": ("CodecStats", "component_table"),
        "repro.cluster.coordinator": ("ClusterExecutor",),
        "repro.cluster.elastic": (
            "AutoscaleDecision",
            "BackpressureAutoscaler",
            "PressurePolicy",
            "RescaleReport",
        ),
        "repro.cluster.plan": ("ShardPlan", "plan_topology"),
        "repro.cluster.shm": ("ShmChannel", "SpscRing", "leaked_segments"),
    },
)

__all__ = [
    "ClusterExecutor",
    "ShardPlan",
    "plan_topology",
    "SpscRing",
    "ShmChannel",
    "leaked_segments",
    "CodecStats",
    "component_table",
    "AutoscaleDecision",
    "BackpressureAutoscaler",
    "PressurePolicy",
    "RescaleReport",
]
