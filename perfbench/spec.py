"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

These tables are the single source of ``BENCHMARK.json`` (regenerate it
with ``python3 perfbench/run.py --write-manifest``).  The manifest format
only carries name, unit, direction and bound, so where each per-layer
number comes from and which end-to-end metric it should move on which
workload lives here; traced runs print the latter next to each value.
"""

RUN_SECONDS = 30

#: (name, why) of the workloads in BENCHMARK.json.  README.md gives the
#: full rationale, and why unique-burst and lpm-zipf (still runnable by
#: name) are left out: on the 2-vCPU VM this was tuned on, their
#: Python-bound bursts swing with minutes-long host contention by more
#: than any allowed bound.
WORKLOADS = [
    ("churn-durable",
     "A WAL-backed store alternating one small write with one burst of "
     "64 queries: WAL append, store write path and the post-write "
     "plane rebuild dominate."),
    ("cluster-burst",
     "2 worker processes over shared memory, bursts of 256 with a write "
     "after every 5th: IPC scatter/gather, seqlock publish and the "
     "worker-side rebuild."),
]

#: (name, unit, better, bound) — printed by every untraced run.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("search_qps", "1/s", "higher", 0.25),
    ("search_p50_ms", "ms", "lower", 0.25),
    ("search_p95_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("write_p90_ms", "ms", "lower", 0.25),
    ("sim_energy_fj_per_search", "fJ", "lower", 0.1),
    ("sim_latency_ns_per_search", "ns", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: (name, unit, better, source, should move) — printed by traced runs.
#: A metric whose layer a workload does not reach reads 0.
PER_LAYER = [
    ("service.self_ms_per_burst", "ms", "lower",
     "search_many (SearchService, or ClusterService on cluster-burst) "
     "minus the store/scatter spans it waits on",
     "search_p50_ms on unique-burst and lpm-zipf"),
    ("service.batch_mean", "count", "higher",
     "ServiceStats.mean_batch_size",
     "search_qps on unique-burst"),
    ("service.coalesced_frac", "ratio", "higher",
     "ServiceStats.coalesced_ratio",
     "search_qps on unique-burst"),
    ("service.write_self_ms", "ms", "lower",
     "SearchService.write / ClusterService.write minus the store ops "
     "inside it",
     "write_p50_ms on churn-durable"),
    ("store.self_ms_per_query", "ms", "lower",
     "CamStore.search_batch minus backend.search_batch",
     "search_qps on lpm-zipf"),
    ("store.cache_hit_rate", "ratio", "higher",
     "StoreStats.cache_hit_rate",
     "search_qps on lpm-zipf; 0 on unique-burst"),
    ("store.backend.self_ms_per_query", "ms", "lower",
     "FabricBackend.search_batch minus TcamFabric.search_batch",
     "search_qps on lpm-zipf"),
    ("store.matches_per_query", "count", "lower",
     "matches counted over served results",
     "explains store.self_ms_per_query and "
     "store.backend.self_ms_per_query"),
    ("fabric.self_ms_per_query", "ms", "lower",
     "TcamFabric.search_batch minus fused_count_matches",
     "search_qps on unique-burst"),
    ("kernels.ms_per_query", "ms", "lower",
     "fused_count_matches, patched at its import site in "
     "fecam.fabric.fabric (minus the plane rebuilds inside it)",
     "search_qps on unique-burst"),
    ("kernels.rows_examined_per_query", "count", "lower",
     "FabricStats.per_bank (worker_telemetry() on cluster-burst)",
     "sim_energy_fj_per_search on all workloads"),
    ("kernels.step1_eliminated_frac", "ratio", "higher",
     "FabricStats.per_bank (worker_telemetry() on cluster-burst)",
     "sim_energy_fj_per_search on all workloads"),
    ("planes.rebuilds_per_write", "count", "lower",
     "TernaryPlanes.build_derived + build_step1_index calls per write",
     "search_p50_ms on churn-durable; ~0 on unique-burst and lpm-zipf"),
    ("planes.rebuild_ms", "ms", "lower",
     "mean TernaryPlanes.build_derived + build_step1_index span",
     "search_p50_ms on churn-durable"),
    ("durable.wal_append_ms", "ms", "lower",
     "WriteAheadLog.append span",
     "write_p50_ms on churn-durable"),
    ("durable.wal_bytes_per_op", "B", "lower",
     "WAL segment bytes on disk per logged operation",
     "write_p50_ms on churn-durable"),
    ("cluster.scatter_ms_per_burst", "ms", "lower",
     "ClusterBackend.scatter_search span",
     "search_qps on cluster-burst"),
    ("cluster.publish_ms", "ms", "lower",
     "ClusterBackend.insert/update/delete spans",
     "write_p50_ms on cluster-burst"),
    ("cluster.worker_imbalance", "ratio", "lower",
     "max/mean worker searches from worker_telemetry()",
     "search_p95_ms on cluster-burst"),
    ("cluster.respawns", "count", "lower",
     "sum of worker restarts from worker_telemetry()",
     "failed-ops share on cluster-burst"),
    ("cluster.retries", "count", "lower",
     "scatter rounds re-sent after a worker failure "
     "(ClusterBackend._handle_failure calls)",
     "failed-ops share on cluster-burst"),
    ("trace.overhead_frac", "ratio", "lower",
     "1 - traced/untraced search_qps over interleaved blocks",
     "none; it checks the tracer itself"),
]


def manifest() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _, _ in PER_LAYER],
    }
