"""Closed-loop benchmark of the TCAM serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload unique-burst --seed 1 --seconds 20 --trace 0

One client thread drives one workload (see ``spec.WORKLOADS``) through
the public front doors for ``--seconds``; the program's own dispatcher
thread, worker processes and OpenMP threads supply the concurrency.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run that alternates traced and untraced blocks.  Both runs
finish with the correctness gate, and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--write-manifest`` rewrites ``BENCHMARK.json`` from ``spec.py``.

The benchmark reads and writes only inside the checkout: the WAL and the
cluster's shared-memory files go to ``.perfbench_work/`` at its root, and
the compiled kernel is built into the package's own cache directory.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import layers
import spec
from oracle import Mismatch
from workloads import (DEADLINE_S, MAX_SAMPLES, SAMPLE_EVERY, WORKLOADS,
                       SimCost)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A spare setup is timed this often during the phase; setup_s is the
#: median of those and the setup the phase runs on.
SETUP_EVERY_S = 2.0
#: Traced runs alternate untraced and traced blocks of this length.
TRACE_BLOCK_S = 1.0
#: Throughput and latency percentiles are medians over consecutive
#: blocks of this many operations of one kind (each block's p95 then
#: has at least ten samples beyond it).
BLOCK = 200


def percentile(values, p):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(int(-(-p * len(ordered) // 100)), 1)
    return ordered[rank - 1], len(ordered) - rank


class OpLog:
    """Attempts, failures and latencies per operation type."""

    def __init__(self):
        self.attempted = {"search": 0, "write": 0, "warm": 0}
        self.failed = {"search": 0, "write": 0, "warm": 0}
        self.latency = {"search": [], "write": [], "warm": []}
        self.errors = {}
        self.first_failure = None

    def run(self, index, kind, call, deadline):
        """Time ``call()``; an exception or a missed deadline is a failed
        op, whose latency counts as at least the deadline.  Returns the
        output (None when the call raised) and whether the op succeeded."""
        self.attempted[kind] += 1
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:    # any failure is counted, run goes on
            out, error = None, type(exc).__name__
        else:
            error = None
        elapsed = time.perf_counter() - start
        if error is None and elapsed > deadline:
            error = "DeadlineExceeded"
        if error is not None:
            self.failed[kind] += 1
            self.errors[error] = self.errors.get(error, 0) + 1
            if self.first_failure is None:
                self.first_failure = index
            elapsed = max(elapsed, deadline)
        self.latency[kind].append(elapsed)
        return out, error is None


def environment():
    """What the run ran on: kernel, threads, start method, CPUs, NumPy."""
    import ctypes
    import numpy
    from fecam import kernels
    from fecam.cluster.backend import resolve_start_method
    from fecam.kernels.build import build_library
    backend = kernels.backend_name()
    omp = os.environ.get("OMP_NUM_THREADS")
    if backend == "compiled" and omp is None:
        try:
            lib = ctypes.CDLL(build_library())
            omp = int(lib.omp_get_max_threads())
        except (AttributeError, OSError):
            omp = 1     # built without OpenMP
    return {"kernel_backend": backend, "omp_threads": omp,
            "cluster_start_method": resolve_start_method(),
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
            "env_pins": {name: os.environ[name] for name in
                         ("FECAM_KERNEL", "OMP_NUM_THREADS",
                          "FECAM_CLUSTER_START") if name in os.environ}}


def prepare_kernel():
    """Build or load the compiled kernel's library before any timing, so
    no run absorbs a compile; loading runs no parallel region."""
    from fecam import kernels
    kernels.active_kernel()


def phase(workload, log, seconds, tracer=None):
    """The measured closed loop.  Returns the facts the metrics need.

    The phase clock leaves out input generation, the untimed re-warm
    bursts, the simulated-cost sums and the spare setups.  A traced run
    alternates untraced and traced blocks of TRACE_BLOCK_S on that clock.
    """
    facts = {"wall": {False: 0.0, True: 0.0},
             "queries": {False: 0, True: 0}, "matches": 0,
             "progress": [],     # (phase clock, queries) per search op
             "sim_ops": [], "sim": SimCost(), "sim_failed": False,
             "samples": [], "setups": []}
    traced = False
    index = 0
    untimed = 0.0               # seconds kept off the phase clock
    start = last_setup = time.perf_counter()
    block_start = 0.0           # phase clock at the current trace block
    while True:
        now = time.perf_counter()
        if now - start >= seconds and (index >= workload.sim_ops
                                       or log.first_failure is not None):
            break
        if now - last_setup >= SETUP_EVERY_S:
            if traced:
                tracer.uninstall()
            facts["setups"].append(workload.spare_setup())
            if traced:
                tracer.install()
            last_setup = time.perf_counter()
            untimed += last_setup - now
        clock = time.perf_counter() - start - untimed
        if tracer is not None and clock - block_start >= TRACE_BLOCK_S:
            facts["wall"][traced] += clock - block_start
            traced = not traced
            (tracer.install if traced else tracer.uninstall)()
            block_start = time.perf_counter() - start - untimed
        t0 = time.perf_counter()
        kind, call, payload = workload.op(index)
        if index < workload.sim_ops:
            facts["sim_ops"].append((kind, payload))
        if kind == "warm" and traced:
            tracer.uninstall()      # re-warm bursts are not measured
        t1 = time.perf_counter()
        out, ok = log.run(index, kind, call, DEADLINE_S)
        t2 = time.perf_counter()
        if kind == "warm":
            if traced:
                tracer.install()
            t1 = time.perf_counter()
        elif kind == "search" and ok:
            results = workload.results(out)
            facts["queries"][traced] += len(results)
            facts["progress"].append((t2 - start - untimed - (t1 - t0),
                                      len(results)))
            if tracer is not None:
                facts["matches"] += sum(len(r.matches) for r in results)
            if index % SAMPLE_EVERY == 0 \
                    and len(facts["samples"]) < MAX_SAMPLES:
                facts["samples"].append((index, payload, out))
            if index < workload.sim_ops:
                facts["sim"].add(results)
        if index < workload.sim_ops and not ok:
            facts["sim_failed"] = True
        untimed += (t1 - t0) + (time.perf_counter() - t2)
        index += 1
    facts["wall"][traced] += time.perf_counter() - start - untimed \
        - block_start
    if traced:
        tracer.uninstall()
    facts["ops"] = index
    return facts


def check_sim(workload, facts):
    """Replay the first ops on a fresh reference store: the modelled
    cost summed from served results must match bit for bit."""
    if facts["sim_failed"]:
        raise AssertionError("an op of the simulated-cost prefix failed")
    measured = facts["sim"].totals()
    replayed = workload.replay_sim(facts["sim_ops"]).totals()
    if measured != replayed:
        raise AssertionError(f"simulated cost {measured} differs from "
                             f"its replay {replayed}")
    return measured


def blocks(samples):
    """Consecutive blocks of BLOCK samples; the remainder joins the last
    block (all samples form one block when there are fewer)."""
    count = max(len(samples) // BLOCK, 1)
    return [samples[i * BLOCK:(i + 1) * BLOCK if i < count - 1 else None]
            for i in range(count)]


def block_throughput(progress):
    """Queries per phase-clock second of each block of search ops."""
    out = []
    last = 0.0
    for block in blocks(progress):
        out.append(sum(q for _, q in block) / (block[-1][0] - last))
        last = block[-1][0]
    return out


def end_to_end(log, facts, sim):
    """``({name: (value, unit)}, notes)`` of an untraced run.

    Throughput and latency percentiles are medians over consecutive
    blocks of BLOCK operations, so an interval of host interference
    shorter than half the run moves them less than a pooled figure."""
    energy, latency, sim_n = sim
    qps = block_throughput(facts["progress"])
    metrics = {
        "setup_s": (statistics.median(facts["setups"]), "s"),
        "search_qps": (statistics.median(qps), "1/s"),
    }
    notes = [f"setup_s: median of {len(facts['setups'])} setups; "
             f"search_qps: median of {len(qps)} blocks"]
    for kind, ps in (("search", (50, 95)), ("write", (50, 90))):
        if not log.latency[kind]:
            raise RuntimeError(f"no {kind} op ran; give the run more time")
        parts = blocks(log.latency[kind])
        for p in ps:
            per_block = [percentile(part, p) for part in parts]
            metrics[f"{kind}_p{p}_ms"] = (
                statistics.median(v for v, _ in per_block) * 1e3, "ms")
            beyond = min(b for _, b in per_block)
            notes.append(f"{kind}_p{p}_ms: median of {len(parts)} blocks "
                         f"of {len(log.latency[kind])} samples, at least "
                         f"{beyond} beyond it in each"
                         + ("" if beyond >= 10 else " (FEWER THAN 10)"))
    metrics["sim_energy_fj_per_search"] = (energy / sim_n * 1e15, "fJ")
    metrics["sim_latency_ns_per_search"] = (latency / sim_n * 1e9, "ns")
    # The benchmark process only: cluster workers are not included.
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json from spec.py")
    args = parser.parse_args(argv)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(spec.manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "fecam")):
        print(f"no fecam sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    seconds = args.seconds or spec.RUN_SECONDS
    work_dir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return run(args, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass    # another run still uses it


def run(args, seconds, work_dir):
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    prepare_kernel()
    log = OpLog()
    tracer = layers.make_tracer() if args.trace else None
    correct = True
    problems = []
    try:
        start = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - start
        before = layers.counters(workload)
        facts = phase(workload, log, seconds, tracer)
        facts["setups"].append(setup_s)
        after = layers.counters(workload)
        try:
            hits = workload.gate(facts["samples"], log.first_failure)
        except Mismatch as exc:
            correct = False
            problems.append(str(exc))
            hits = 0
        workload.teardown()
        # Last: the replay runs the kernel in this process, and a
        # cluster worker forked after that could inherit a broken
        # OpenMP pool (see ROADMAP).
        try:
            sim = check_sim(workload, facts)
        except AssertionError as exc:
            correct = False
            problems.append(str(exc))
            sim = (0.0, 0.0, 1)
    finally:
        workload.teardown()
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# ops attempted {log.attempted} failed {log.failed} "
          f"errors {log.errors}")
    print(f"# samples: {len(log.latency['search'])} bursts, "
          f"{len(log.latency['write'])} writes, "
          f"{len(log.latency['warm'])} untimed re-warm bursts, "
          f"{sim[2]} sim queries, "
          f"{len(facts['samples'])} kept bursts, {hits} gate hits, "
          f"{len(facts['setups'])} setups")
    if hasattr(workload, "add_route_s"):
        print(f"# route registration (add_route, outside setup_s): "
              f"{workload.add_route_s:.3f} s")
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    if args.trace:
        metrics, notes = layers.per_layer(workload, tracer, facts,
                                          before, after)
        if notes[0].startswith("FAIL"):
            correct = False
        moves = {row[0]: row[4] for row in spec.PER_LAYER}
    else:
        metrics, notes = end_to_end(log, facts, sim)
        moves = {}
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        move = f"  (should move: {moves[name]})" if name in moves else ""
        print(f"{name:34s} {value:14.6g} {unit}{move}")
    attempted = sum(log.attempted.values())
    failed = sum(log.failed.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
