"""The closed-loop workloads, driven through the public front doors.

Each workload makes its inputs from the seed before anything is timed,
builds the system in :meth:`setup` (the part ``setup_s`` times), and
hands ``run.py`` one operation at a time from :meth:`op`: a search burst
or a small write transaction, in an order fixed by the seed.  The
reference side — the simulated-cost replay and the correctness gate —
lives here too, because it has to rebuild exactly what the workload
built.
"""

import contextlib
import shutil
import tempfile
import time

import numpy as np

from oracle import (Mismatch, check_served, compile_entries, hit_queries,
                    matches, stored_pairs)

WIDTH = 64
BANKS = 8
ROWS_PER_BANK = 4096
FILL = 0.5

#: Every operation gets this deadline: passed to the call where the
#: front door takes one, and checked on the measured time everywhere.
DEADLINE_S = 5.0
#: Every SAMPLE_EVERY-th search burst is kept for the correctness gate
#: (at most MAX_SAMPLES bursts, SAMPLE_QUERIES queries of each).
SAMPLE_EVERY = 97
MAX_SAMPLES = 24
SAMPLE_QUERIES = 8


def random_words(rng, n, alphabet, width=WIDTH):
    """``n`` random strings over ``alphabet`` (bytes), vectorized."""
    table = np.frombuffer(alphabet, dtype=np.uint8)
    symbols = rng.integers(0, len(alphabet), size=(n, width))
    text = table[symbols].tobytes().decode("ascii")
    return [text[i * width:(i + 1) * width] for i in range(n)]


def apply_write(target, op):
    """Apply one ``(kind, key, word)`` write to a store or an oracle
    dict (key -> word, kept in priority order)."""
    kind, key, word = op
    if isinstance(target, dict):
        if kind == "delete":
            del target[key]
        else:
            target[key] = word
    elif kind == "update":
        target.update(key, word)
    elif kind == "delete":
        target.delete(key)
    else:
        target.insert(word, key=key)


class WriteOps:
    """Small write transactions — update, delete, insert in turn — on
    keys chosen from the live set, deterministic for a given rng."""

    def __init__(self, rng, keys):
        self.rng = rng
        self.live = list(keys)
        self.next_key = max(self.live) + 1
        self.count = 0

    def next(self):
        kind = ("update", "delete", "insert")[self.count % 3]
        self.count += 1
        word = random_words(self.rng, 1, b"01X")[0]
        if kind == "insert":
            key = self.next_key
            self.next_key += 1
            self.live.append(key)
            return ("insert", key, word)
        pos = int(self.rng.integers(len(self.live)))
        key = self.live[pos]
        if kind == "delete":
            self.live[pos] = self.live[-1]
            self.live.pop()
            return ("delete", key, None)
        return ("update", key, word)


class SimCost:
    """Modelled energy (J) and latency (s) of served queries, summed in
    the order they are added."""

    def __init__(self):
        self.energy = 0.0
        self.latency = 0.0
        self.queries = 0

    def add(self, results):
        for result in results:
            self.energy += result.energy
            self.latency += result.latency
        self.queries += len(results)

    def totals(self):
        return self.energy, self.latency, self.queries


class Workload:
    """The surface ``run.py`` drives; subclasses fill in the system.

    The operation sequence repeats ``searches`` timed search bursts,
    ``writes`` timed write transactions, then ``rewarm`` untimed
    ("warm") bursts.  The read-only workloads write only in short slices
    spread over the run, each followed by an untimed re-warm that pays
    the plane rebuild (and refills the query cache), so their write
    metrics sample the whole run and no timed search follows a write.
    """

    name = ""
    burst = 0
    searches, writes, rewarm = 1, 0, 0
    #: The first operations, whose modelled energy and latency are
    #: summed in operation order and replayed on a reference store.
    sim_ops = 200

    def __init__(self, seed, work_dir):
        streams = np.random.SeedSequence(seed).spawn(5)
        (self.table_rng, self.query_rng, self.write_rng, self.warm_rng,
         self.gate_rng) = [np.random.default_rng(s) for s in streams]
        self.work_dir = work_dir
        self.log = []           # (op index, write op), in order
        self.base_generation = None
        self.stack = None

    def setup(self):
        """Build the system the phase runs on (what setup_s times)."""
        self.stack, self.front, self.base_generation = self.build()

    def spare_setup(self):
        """Time the build of a second instance, then drop it: setup
        samples taken while the phase runs see the same host as the
        rest of the run."""
        start = time.perf_counter()
        stack, _, _ = self.build()
        elapsed = time.perf_counter() - start
        stack.close()
        return elapsed

    def teardown(self):
        if self.stack is not None:
            self.stack.close()
            self.stack = None

    def kind(self, index):
        pos = index % (self.searches + self.writes + self.rewarm)
        if pos < self.searches:
            return "search"
        return "write" if pos < self.searches + self.writes else "warm"

    def op(self, index):
        """``(kind, call, payload)`` for operation ``index``."""
        kind = self.kind(index)
        if kind == "write":
            op = self.next_write()
            return kind, self.write_call(index, op), op
        payload = self.next_queries()
        return kind, self.search_call(self.front, payload), payload

    def results(self, out):
        """The served QueryResults of a search op's output."""
        return [served.result for served in out]

    def state_at(self, index, initial):
        """The oracle dict after every write before op ``index``."""
        state = dict(initial)
        for at, op in self.log:
            if at >= index:
                break
            apply_write(state, op)
        return state


class TableWorkload(Workload):
    """A random ternary table (8 banks x 4096 rows x 64 bits, 50% fill,
    ~1/3 X) behind a search front door."""

    burst = 256
    max_batch = 64      # the service's default dispatch size

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        n = int(BANKS * ROWS_PER_BANK * FILL)
        self.words = random_words(self.table_rng, n, b"01X")
        self.keys = list(range(n))
        self.warm_queries = random_words(self.warm_rng, self.burst, b"01")
        self.write_ops = WriteOps(self.write_rng, self.keys)
        self.front = None

    def config(self):
        from fecam.store import StoreConfig
        return StoreConfig(width=WIDTH, rows=BANKS * ROWS_PER_BANK,
                           banks=BANKS)

    def search_call(self, front, queries):
        return lambda: front.search_many(queries, timeout=DEADLINE_S)

    def write_call(self, index, op):
        self.log.append((index, op))
        front = self.front
        return lambda: front.write(lambda store: apply_write(store, op))

    def next_queries(self):
        return random_words(self.query_rng, self.burst, b"01")

    def next_write(self):
        return self.write_ops.next()

    def build(self):
        """``(stack, front door, generation)``: the system with its
        table loaded and one warm-up burst served."""
        stack = contextlib.ExitStack()
        front = self.open_front(stack)
        served = self.search_call(front, self.warm_queries)()
        return stack, front, served[0].generation

    # -- reference side ----------------------------------------------------------

    def reference_store(self):
        from fecam.store import CamStore
        store = CamStore(self.config())
        store.insert_many(self.words, keys=self.keys)
        return store

    def replay_sim(self, sim_ops):
        """Replay the first ops on a fresh in-process store; the
        modelled cost of every search, summed in op order."""
        store = self.reference_store()
        cost = SimCost()
        for kind, payload in sim_ops:
            if kind == "write":
                apply_write(store, payload)
                continue
            for start in range(0, len(payload), self.max_batch):
                batch = store.search_batch(
                    payload[start:start + self.max_batch])
                if kind == "search":
                    cost.add(batch)
        return cost

    def gate(self, samples, first_failure):
        """Check kept bursts against the oracle at their point in the op
        sequence, the final arena against the replayed writes, and a
        burst of hit queries served now.  Returns the hit count."""
        initial = dict(zip(self.keys, self.words))
        for index, queries, served in samples:
            if first_failure is not None and index >= first_failure:
                break   # a failed write may or may not have applied
            state = self.state_at(index, initial)
            expected = self.base_generation + sum(
                1 for at, _ in self.log if at < index)
            for s in served[:SAMPLE_QUERIES]:
                if s.generation != expected:
                    raise Mismatch(f"op {index}: served generation "
                                   f"{s.generation}, expected {expected}")
            check_served(compile_entries(state.items()),
                         queries[:SAMPLE_QUERIES],
                         [s.result for s in served[:SAMPLE_QUERIES]],
                         f"op {index}")
        pairs = self.front.read(stored_pairs)
        if first_failure is None:
            final = self.state_at(float("inf"), initial)
            if pairs != list(final.items()):
                raise Mismatch("final arena differs from the replayed "
                               "writes")
        compiled = compile_entries(pairs)
        queries = (hit_queries(self.gate_rng, [w for _, w in pairs], 64)
                   + random_words(self.gate_rng, 64, b"01"))
        served = self.search_call(self.front, queries)()
        check_served(compiled, queries, [s.result for s in served],
                     "hit burst")
        return sum(1 for q in queries if matches(compiled, q))


class UniqueBurst(TableWorkload):
    name = "unique-burst"
    searches, writes, rewarm = 400, 100, 1

    def open_front(self, stack):
        from fecam.service import SearchService
        from fecam.store import CamStore
        store = CamStore(self.config())
        store.insert_many(self.words, keys=self.keys)
        return stack.enter_context(SearchService(store))


class ChurnDurable(TableWorkload):
    name = "churn-durable"
    burst = 64
    searches, writes = 1, 1

    def open_front(self, stack):
        from fecam.durable import DurabilityConfig, DurableCamStore
        from fecam.service import SearchService
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=self.work_dir)
        stack.callback(shutil.rmtree, wal_dir, ignore_errors=True)
        store = DurableCamStore(self.config(),
                                durability=DurabilityConfig(wal_dir))
        stack.callback(store.close)
        store.insert_many(self.words, keys=self.keys)
        return stack.enter_context(SearchService(store))


class ClusterBurst(TableWorkload):
    name = "cluster-burst"
    searches, writes = 5, 1
    workers = 2

    def open_front(self, stack):
        from fecam.cluster import ClusterService
        front = stack.enter_context(ClusterService(
            config=self.config(), workers=self.workers,
            shm_dir=self.work_dir))
        front.insert_many(self.words, keys=self.keys)
        return front

    def search_call(self, front, queries):
        # ClusterService.search_many takes no timeout: its deadline is
        # the backend's read_timeout (+10 s RPC margin); run.py still
        # checks DEADLINE_S on the measured time.
        return lambda: front.search_many(queries)


class LpmZipf(Workload):
    """Nested IPv4 routes behind ``TcamRouter.serve()``; Zipf lookups."""

    name = "lpm-zipf"
    burst = 64
    searches, writes, rewarm = 1000, 100, 16
    sim_ops = 800
    #: The route table is one fixed FIB snapshot; the addresses looked
    #: up, their Zipf ranks and their order come from the run's seed.
    table_seed = 0
    routes = 8192
    population = 4096
    cache_size = 1024
    zipf_s = 1.1
    #: Prefix-length weights, /8 ... /32: BGP-like, most mass on /16-/24.
    length_weights = [1] * 8 + [20] + [6] * 7 + [50] + [1] * 8

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        from fecam.apps.router import int_to_ip
        self.table = self._nested_routes(
            np.random.default_rng(self.table_seed))
        rng = self.table_rng
        # Every address sits under a random route, so it matches that
        # route and each route the route is nested in.
        addresses = []
        for index in rng.integers(0, len(self.table), self.population):
            network, length = self.table[int(index)][:2]
            host = int(rng.integers(0, 1 << (32 - length))) \
                if length < 32 else 0
            addresses.append(int_to_ip(network | host))
        self.addresses = addresses
        weights = 1.0 / np.arange(1, self.population + 1) ** self.zipf_s
        self.cdf = np.cumsum(weights / weights.sum())
        self.warm = self._draw(self.warm_rng)
        self.router = None
        self.add_route_s = 0.0
        self.entries = None

    def _nested_routes(self, rng):
        """``[(network, length, cidr, hop)]``: lengths drawn from the
        weights above; every non-/8 route extends a random shorter
        route, so prefixes nest several deep."""
        from fecam.apps.router import int_to_ip
        p = np.array(self.length_weights, dtype=float)
        draws = iter(rng.choice(np.arange(8, 33), size=4 * self.routes,
                                p=p / p.sum()))
        by_length = {length: [] for length in range(8, 33)}
        seen = set()
        routes = []
        while len(routes) < self.routes:
            length = int(next(draws))
            counts = [len(by_length[n]) for n in range(8, length)]
            pick = int(rng.integers(sum(counts))) if sum(counts) else -1
            if length == 8 or pick < 0:
                network, length = int(rng.integers(1, 224)) << 24, 8
            else:
                base = 8
                while pick >= counts[base - 8]:
                    pick -= counts[base - 8]
                    base += 1
                parent = by_length[base][pick]
                bits = int(rng.integers(0, 1 << (length - base)))
                network = parent | (bits << (32 - length))
            if (network, length) in seen:
                continue
            seen.add((network, length))
            by_length[length].append(network)
            routes.append((network, length,
                           f"{int_to_ip(network)}/{length}",
                           f"hop-{len(routes)}"))
        return routes

    def _draw(self, rng):
        ranks = np.searchsorted(self.cdf, rng.random(self.burst))
        ranks = np.minimum(ranks, self.population - 1)
        return [self.addresses[int(r)] for r in ranks]

    def load_routes(self):
        """Register every route once (outside ``setup_s``: add_route
        rescans the table per call)."""
        from fecam.apps.router import TcamRouter
        from fecam.store import StoreConfig
        self.router = TcamRouter(
            capacity=len(self.table) + 1,
            store_config=StoreConfig(banks=4, cache_size=self.cache_size))
        start = time.perf_counter()
        for _, _, cidr, hop in self.table:
            self.router.add_route(cidr, hop)
        self.add_route_s = time.perf_counter() - start

    def build(self):
        if self.router is None:
            self.load_routes()
        # Re-adding a route marks the table dirty, so serve() rebuilds
        # the store from the route list.
        _, _, cidr, hop = self.table[0]
        self.router.add_route(cidr, hop)
        stack = contextlib.ExitStack()
        front = stack.enter_context(self.router.serve()).service
        served, _ = self.lookup(front, self.warm)
        return stack, front, served[0].generation

    def lookup(self, front, addresses):
        """``ServedRouter.lookup_batch`` with a deadline, keeping the
        served results (lookup_batch takes no timeout and returns only
        next hops)."""
        from fecam.apps.router import ip_to_int
        served = front.search_many(
            [format(ip_to_int(a), "032b") for a in addresses],
            timeout=DEADLINE_S)
        hops = [s.best.payload.next_hop if s.best is not None else None
                for s in served]
        return served, hops

    def results(self, out):
        return [served.result for served in out[0]]

    def next_queries(self):
        return self._draw(self.query_rng)

    def search_call(self, front, addresses):
        return lambda: self.lookup(front, addresses)

    def next_write(self):
        if self.entries is None:
            self.entries = self.front.read(lambda store: store.entries())
        entry = self.entries[int(self.write_rng.integers(len(self.entries)))]
        return entry.key, entry.word, entry.payload

    def write_call(self, index, op):
        # Rewrite a route's entry with its own content: the full write
        # path (planes, generation, cache invalidation), same table.
        key, word, route = op
        front = self.front
        return lambda: front.write(
            lambda store: store.update(key, word, payload=route))

    def reference_store(self):
        """A fresh store loaded like the served one, from the entries the
        gate read back (the service is closed by replay time)."""
        from fecam.store import CamStore
        entries = self.entries
        store = CamStore(self.router.store_config.with_geometry(
            width=32, rows=len(entries)))
        store.insert_many([m.word for m in entries],
                          keys=[m.key for m in entries],
                          priorities=[m.priority for m in entries],
                          payloads=[m.payload for m in entries])
        return store

    def replay_sim(self, sim_ops):
        from fecam.apps.router import ip_to_int
        store = self.reference_store()
        cost = SimCost()
        for kind, payload in [("warm", self.warm)] + sim_ops:
            if kind == "write":
                key, word, route = payload
                store.update(key, word, payload=route)
                continue
            queries = [format(ip_to_int(a), "032b") for a in payload]
            batch = store.search_batch(queries)
            if kind == "search":
                cost.add(batch)
        return cost

    def gate(self, samples, first_failure):
        """Kept lookups against ``lookup_reference`` and the brute-force
        matcher (the table never changes content), then a burst of
        population and random addresses served now."""
        from fecam.apps.router import int_to_ip, ip_to_int
        self.entries = self.front.read(lambda store: store.entries())
        compiled = compile_entries(self.front.read(stored_pairs))
        checks = [(addresses[:SAMPLE_QUERIES], out)
                  for _, addresses, out in samples]
        fresh = (list(self.gate_rng.choice(self.addresses, 48))
                 + [int_to_ip(int(v)) for v in
                    self.gate_rng.integers(0, 1 << 32, 16)])
        checks.append((fresh, self.lookup(self.front, fresh)))
        hits = 0
        for addresses, (served, hops) in checks:
            queries = [format(ip_to_int(a), "032b") for a in addresses]
            check_served(compiled, queries, [s.result for s in served],
                         "lpm")
            for address, hop in zip(addresses, hops):
                if hop != self.router.lookup_reference(address):
                    raise Mismatch(f"{address}: served {hop}, reference "
                                   f"{self.router.lookup_reference(address)}")
                hits += hop is not None
        return hits


WORKLOADS = {cls.name: cls for cls in (UniqueBurst, LpmZipf, ChurnDurable,
                                       ClusterBurst)}
