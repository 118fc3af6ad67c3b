"""Span tracing around the public entry points of each layer.

The benchmark never edits the program: :class:`Tracer` swaps each traced
callable (a class attribute or a module global, patched where its caller
looks it up) for a wrapper that records ``(name, start, end, parent)``
in a per-thread list held in memory, and puts the original back on
:meth:`Tracer.uninstall`.  Nesting within one thread comes from a
per-thread stack.  The store, backend, fabric and kernel spans of a
``SearchService`` burst run on the service's dispatcher thread; such a
root span is attached to the client-thread span whose interval contains
it, which is exact here because the client is one closed-loop thread.

A span's self time is its duration minus the part of it its children
cover, so the self times of one tree sum to its root's duration.
"""

import bisect
import threading
import time
from collections import defaultdict


def layer_targets():
    """``(owner, attribute, span name)`` for every traced entry point."""
    import fecam.fabric.fabric as fabric_module
    import fecam.planes as planes_module
    from fecam.cluster import ClusterService
    from fecam.cluster.backend import ClusterBackend
    from fecam.durable import DurableCamStore
    from fecam.durable.wal import WriteAheadLog
    from fecam.fabric.fabric import TcamFabric
    from fecam.planes import TernaryPlanes
    from fecam.service import SearchService
    from fecam.store import CamStore
    from fecam.store.fabric import FabricBackend

    targets = [
        (SearchService, "search_many", "service.search_many"),
        (SearchService, "write", "service.write"),
        (ClusterService, "search_many", "service.search_many"),
        (ClusterService, "write", "service.write"),
        (CamStore, "search_batch", "store.search_batch"),
        (FabricBackend, "search_batch", "backend.search_batch"),
        (TcamFabric, "search_batch", "fabric.search_batch"),
        (fabric_module, "fused_count_matches", "kernels.fused_count_matches"),
        (TernaryPlanes, "build_derived", "planes.rebuild"),
        (planes_module, "build_step1_index", "planes.rebuild"),
        (WriteAheadLog, "append", "durable.wal_append"),
        (ClusterBackend, "scatter_search", "cluster.scatter_search"),
        # Private, but the only place a re-sent scatter round shows.
        (ClusterBackend, "_handle_failure", "cluster.retry"),
    ]
    for op in ("insert", "update", "delete"):
        targets += [(CamStore, op, "store.write_op"),
                    (DurableCamStore, op, "store.write_op"),
                    (ClusterBackend, op, "cluster.publish")]
    return targets


class Tracer:
    """In-memory span recorder; install/uninstall between operations."""

    def __init__(self, targets):
        self._targets = targets
        self._originals = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []          # (thread ident, span list)

    def _state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append((threading.get_ident(), spans))
        return spans, local.stack

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            spans, stack = self._state()
            index = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name in self._targets:
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------

    def spans(self, client_ident):
        """Span records ``{name, start, end, children}`` (list indices)
        with each dispatcher-thread root adopted by the client-thread
        root whose interval contains it.  Returns ``(nodes, roots,
        orphans)``: client roots, and other-thread roots no client span
        contains."""
        nodes, roots, others = [], [], []
        with self._lock:
            threads = list(self._threads)
        for ident, spans in threads:
            base = len(nodes)
            for name, start, end, parent in spans:
                if end is None:
                    raise RuntimeError(f"span {name} still open")
                index = len(nodes)
                nodes.append({"name": name, "start": start, "end": end,
                              "children": []})
                if parent is not None:
                    nodes[base + parent]["children"].append(index)
                elif ident == client_ident:
                    roots.append(index)
                else:
                    others.append(index)
        roots.sort(key=lambda n: nodes[n]["start"])
        starts = [nodes[n]["start"] for n in roots]
        orphans = []
        for node in others:
            span = nodes[node]
            pos = bisect.bisect_right(starts, span["start"]) - 1
            if pos < 0 or nodes[roots[pos]]["end"] < span["end"]:
                orphans.append(node)
            else:
                nodes[roots[pos]]["children"].append(node)
        return nodes, roots, orphans


def self_times(nodes):
    """Per-span self time: duration minus the covered part of it."""
    out = []
    for span in nodes:
        covered = 0.0
        for child in span["children"]:
            c = nodes[child]
            covered += max(0.0, min(c["end"], span["end"])
                           - max(c["start"], span["start"]))
        out.append(max(0.0, span["end"] - span["start"] - covered))
    return out


def summarize(nodes, roots, root_name):
    """Totals per span name over the trees rooted at ``root_name``.

    Returns ``(by_name, root_total)`` where ``by_name[name]`` holds the
    summed self time, summed duration and span count.
    """
    own = self_times(nodes)
    by_name = defaultdict(lambda: {"self": 0.0, "total": 0.0, "count": 0})
    root_total = 0.0
    stack = [n for n in roots if nodes[n]["name"] == root_name]
    for n in stack:
        root_total += nodes[n]["end"] - nodes[n]["start"]
    while stack:
        n = stack.pop()
        span = nodes[n]
        entry = by_name[span["name"]]
        entry["self"] += own[n]
        entry["total"] += span["end"] - span["start"]
        entry["count"] += 1
        stack.extend(span["children"])
    return by_name, root_total
