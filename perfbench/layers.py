"""Per-layer metrics of a traced run: span self times plus layer counters.

Times come from :mod:`tracer` spans recorded in the traced blocks of the
phase; counts come from the layers' own stats objects read before and
after the phase.  Worker
processes cannot be traced from outside, so the cluster numbers are
parent-side spans plus ``worker_telemetry()`` counts.  A metric whose
layer the workload does not reach reads 0.
"""

import threading

from tracer import Tracer, layer_targets, summarize

#: Per-layer self times must sum to the traced burst time within this.
SELF_SUM_TOLERANCE = 0.01


def make_tracer():
    return Tracer(layer_targets())


def _is_cluster(workload):
    from fecam.cluster import ClusterService
    return isinstance(workload.front, ClusterService)


def counters(workload):
    """Cumulative layer counters of the workload's live system."""
    front = workload.front
    service = front.stats
    store = front.read(lambda s: s.stats)
    out = {
        "batches": service.batches,
        "batched_requests": sum(size * count for size, count
                                in service.batch_size_hist.items()),
        "coalesced": service.coalesced, "direct": service.direct,
        "cache_hits": store.cache_hits,
        "cache_misses": store.cache_misses,
        "wal_bytes": 0, "wal_records": 0, "restarts": 0,
    }
    if _is_cluster(workload):
        workers = front.worker_stats()
        out["worker_searches"] = [w["searches"] for w in workers]
        out["array_searches"] = sum(out["worker_searches"])
        out["rows_examined"] = sum(w["rows_examined"] for w in workers)
        out["step1_eliminated"] = sum(w["step1_eliminated"]
                                      for w in workers)
        out["restarts"] = sum(w["restarts"] for w in workers)
        return out
    fabric = front.read(lambda s: s.backend.fabric.stats)
    out["array_searches"] = fabric.array_searches
    out["rows_examined"] = sum(b.rows_examined for b in fabric.per_bank)
    out["step1_eliminated"] = sum(b.step1_eliminated
                                  for b in fabric.per_bank)
    wal = getattr(front.store, "wal", None)
    if wal is not None:
        out["wal_bytes"] = wal.appended_bytes
        out["wal_records"] = wal.appended_records
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, tracer, facts, before, after):
    """``({name: (value, unit)}, notes)``; a first note starting with
    FAIL means the spans do not account for the traced burst time."""
    nodes, roots, orphans = tracer.spans(threading.main_thread().ident)
    search, search_total = summarize(nodes, roots, "service.search_many")
    write, _ = summarize(nodes, roots, "service.write")
    every = {}
    for node in nodes:
        every[node["name"]] = every.get(node["name"], 0) + 1
    rebuild_ms = sum(n["end"] - n["start"] for n in nodes
                     if n["name"] == "planes.rebuild") * 1e3
    bursts = search["service.search_many"]["count"]
    writes = write["service.write"]["count"]
    queries = facts["queries"][True]
    d = {key: after[key] - before[key] for key in before
         if key != "worker_searches"}

    def self_ms(table, name, per):
        return _ratio(table[name]["self"] * 1e3, per) if name in table \
            else 0.0

    def mean_ms(table, name):
        entry = table.get(name)
        return _ratio(entry["total"] * 1e3, entry["count"]) if entry \
            else 0.0

    imbalance = 0.0
    if "worker_searches" in before:
        per_worker = [a - b for a, b in zip(after["worker_searches"],
                                            before["worker_searches"])]
        imbalance = _ratio(max(per_worker),
                           sum(per_worker) / len(per_worker))
    untraced = _ratio(facts["queries"][False], facts["wall"][False])
    traced = _ratio(facts["queries"][True], facts["wall"][True])
    all_queries = facts["queries"][False] + facts["queries"][True]
    metrics = {
        "service.self_ms_per_burst":
            (self_ms(search, "service.search_many", bursts), "ms"),
        "service.batch_mean":
            (_ratio(d["batched_requests"], d["batches"]), "count"),
        "service.coalesced_frac":
            (_ratio(d["coalesced"], d["coalesced"] + d["direct"]), "ratio"),
        "service.write_self_ms":
            (self_ms(write, "service.write", writes), "ms"),
        "store.self_ms_per_query":
            (self_ms(search, "store.search_batch", queries), "ms"),
        "store.cache_hit_rate":
            (_ratio(d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
             "ratio"),
        "store.backend.self_ms_per_query":
            (self_ms(search, "backend.search_batch", queries), "ms"),
        "store.matches_per_query":
            (_ratio(facts["matches"], all_queries), "count"),
        "fabric.self_ms_per_query":
            (self_ms(search, "fabric.search_batch", queries), "ms"),
        "kernels.ms_per_query":
            (self_ms(search, "kernels.fused_count_matches", queries), "ms"),
        "kernels.rows_examined_per_query":
            (_ratio(d["rows_examined"], d["array_searches"]), "count"),
        "kernels.step1_eliminated_frac":
            (_ratio(d["step1_eliminated"], d["rows_examined"]), "ratio"),
        "planes.rebuilds_per_write":
            (_ratio(every.get("planes.rebuild", 0), writes), "count"),
        "planes.rebuild_ms":
            (_ratio(rebuild_ms, every.get("planes.rebuild", 0)), "ms"),
        "durable.wal_append_ms": (mean_ms(write, "durable.wal_append"),
                                  "ms"),
        "durable.wal_bytes_per_op":
            (_ratio(d["wal_bytes"], d["wal_records"]), "B"),
        "cluster.scatter_ms_per_burst":
            (mean_ms(search, "cluster.scatter_search"), "ms"),
        "cluster.publish_ms": (mean_ms(write, "cluster.publish"), "ms"),
        "cluster.worker_imbalance": (imbalance, "ratio"),
        "cluster.respawns": (float(after["restarts"]), "count"),
        "cluster.retries": (float(every.get("cluster.retry", 0)), "count"),
        "trace.overhead_frac": (1.0 - _ratio(traced, untraced), "ratio"),
    }
    self_sum = sum(entry["self"] for entry in search.values())
    error = abs(self_sum - search_total) / search_total \
        if search_total else 1.0
    notes = [f"layer self times sum to {self_sum * 1e3:.3f} ms of "
             f"{search_total * 1e3:.3f} ms traced burst time over {bursts} "
             f"bursts (error {error:.2e}, {len(orphans)} orphan spans)"]
    for name, entry in sorted(search.items(),
                              key=lambda item: -item[1]["self"]):
        notes.append(f"  {name:30s} self {entry['self'] * 1e3:10.3f} ms "
                     f"({_ratio(entry['self'], search_total):6.1%}) "
                     f"x{entry['count']}")
    if error > SELF_SUM_TOLERANCE or orphans:
        notes.insert(0, "FAIL: per-layer self times do not account for "
                        "the traced burst time")
    return metrics, notes
