"""The benchmark's five workloads.

Every input is generated from the run's ``--seed``: graphs come from
``powerlaw_graph`` with the Table-3 statistics of ``DATASETS`` (relabelled
by degree, as ``load_dataset`` does, but seeded by the benchmark), and the
query mix and edge stream come from a ``numpy`` generator on the same seed.
The library only ever sees the generated inputs, through its public API.

A workload goes through ``start`` (service/cluster up, graphs registered),
``warm`` (every distinct query once, checked), ``run`` (the timed, closed
loop, every result checked) and ``stop``.  Why each workload exists is in
``README.md`` next to this file.
"""

from __future__ import annotations

import itertools
import statistics
from contextlib import nullcontext
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import LocalCluster
from repro.core import XSetAccelerator
from repro.core.config import xset_default
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS
from repro.graph.generators import powerlaw_graph
from repro.patterns import PATTERNS
from repro.service import QueryService

BATCHED = xset_default(engine="batched")
#: bound on one blocking wait; a query slower than this is a failure
RESULT_TIMEOUT = 120.0
#: consecutive queries per throughput block of the streaming workloads
BLOCK = 100


def make_graph(key: str, scale: float, seed: int, slot: int) -> CSRGraph:
    """The Table-3 stand-in for ``key``, its vertices shuffled by ``seed``.

    The structure is ``load_dataset``'s (same generator, parameters and
    per-dataset seed); the benchmark seed draws a vertex permutation
    before the degree relabelling, so ties among equal-degree vertices -
    and with them the symmetry-breaking order and the CSR bytes - change
    from seed to seed while the amount of work stays comparable.
    """
    spec = DATASETS[key]
    n = max(int(spec.num_vertices * scale), 64)
    max_deg = min(max(int(spec.max_degree * scale), 8), n - 1)
    mean_degree = 2.0 * spec.avg_degree / (1.0 + 0.8 * spec.triangle_boost)
    base = powerlaw_graph(
        num_vertices=n,
        avg_degree=min(mean_degree, max_deg),
        max_degree=max_deg,
        seed=spec.seed,
        triangle_boost=spec.triangle_boost,
    )
    perm = np.random.default_rng([seed, slot]).permutation(n)
    shuffled = CSRGraph.from_edges(
        n, [(int(perm[u]), int(perm[v])) for u, v in base.edges()]
    )
    graph = shuffled.relabeled_by_degree()
    graph.name = f"{key}@{scale}"
    return graph


def edge_stream(graph: CSRGraph, rng: np.random.Generator, steps: int):
    """``steps`` valid edge updates: ``(+1, u, v)`` inserts, ``(-1, u, v)``
    removes.  Half the inserts close a wedge, so they change triangle
    counts the way social-graph churn does."""
    adj = [set(map(int, graph.neighbors(v))) for v in range(graph.num_vertices)]
    edges = sorted((u, v) for u in range(len(adj)) for v in adj[u] if u < v)
    index = {e: i for i, e in enumerate(edges)}
    ops = []
    while len(ops) < steps:
        if rng.random() < 0.5 and edges:
            u, v = edges[int(rng.integers(len(edges)))]
            last = edges.pop()
            if last != (u, v):
                edges[index[(u, v)]] = last
                index[last] = index[(u, v)]
            del index[(u, v)]
            adj[u].discard(v)
            adj[v].discard(u)
            ops.append((-1, u, v))
            continue
        u = int(rng.integers(len(adj)))
        v = int(rng.integers(len(adj)))
        if rng.random() < 0.5 and adj[u]:
            mid = sorted(adj[u])[int(rng.integers(len(adj[u])))]
            if adj[mid]:
                v = sorted(adj[mid])[int(rng.integers(len(adj[mid])))]
        if u == v or v in adj[u]:
            continue
        u, v = min(u, v), max(u, v)
        adj[u].add(v)
        adj[v].add(u)
        index[(u, v)] = len(edges)
        edges.append((u, v))
        ops.append((1, u, v))
    return ops


def apply_ops(graph: CSRGraph, ops) -> CSRGraph:
    """``graph`` after ``ops``: the snapshot the reference recounts."""
    edges = set(graph.edges())
    for sign, u, v in ops:
        if sign > 0:
            edges.add((u, v))
        else:
            edges.discard((u, v))
    return CSRGraph.from_edges(graph.num_vertices, sorted(edges), name="snap")


@dataclass
class Timing:
    """What one timed loop measured.

    ``records`` holds one ``(pair, done_at, latency, tasks)`` per query,
    with ``done_at`` in seconds since the loop started.
    """

    records: list[tuple] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def latencies(self) -> list[float]:
        return [r[2] for r in self.records]

    def percentile_ms(self, q: float, kinds: dict | None) -> float:
        """Latency percentile; with ``kinds`` (``{pair: share}``), over the
        query kinds each at its median latency and weighted by its share,
        so that the few slow samples a kind gets in one run do not make
        the tail jitter."""
        if not kinds:
            return float(np.percentile(self.latencies, q, method="inverted_cdf")) * 1e3
        medians = self._median_by_pair()
        pairs = [p for p in kinds if p in medians]
        return float(np.percentile(
            [medians[p] for p in pairs], q,
            weights=[kinds[p] for p in pairs], method="inverted_cdf",
        )) * 1e3

    def _median_by_pair(self) -> dict:
        by_pair: dict = {}
        for pair, _, lat, _ in self.records:
            by_pair.setdefault(pair, []).append(lat)
        return {p: statistics.median(v) for p, v in by_pair.items()}

    def rates(self, kinds: dict | None) -> tuple[float, float]:
        """(queries/s, simulated tasks/s), robust to short host stalls.

        With ``kinds`` (sequential query-only loops), each query kind is
        charged its median latency and the rates are those of the mix at
        those latencies.  Otherwise the completions are cut into blocks of
        ``BLOCK`` consecutive queries; the median block's rate times the
        run's mean tasks per query is reported.
        """
        if kinds:
            medians = self._median_by_pair()
            tasks = {pair: t for pair, _, _, t in self.records}
            pairs = [p for p in kinds if p in medians]
            seconds = sum(kinds[p] * medians[p] for p in pairs)
            return (
                sum(kinds[p] for p in pairs) / seconds,
                sum(kinds[p] * tasks[p] for p in pairs) / seconds,
            )
        done = sorted(r[1] for r in self.records)
        mean_tasks = sum(r[3] for r in self.records) / len(self.records)
        blocks = [
            BLOCK / (done[i] - (done[i - BLOCK] if i >= BLOCK else 0.0))
            for i in range(BLOCK - 1, len(done), BLOCK)
        ]
        qps = statistics.median(blocks) if blocks else len(done) / self.elapsed
        return qps, qps * mean_tasks


def _span(tracer, name, qid=""):
    return nullcontext() if tracer is None else tracer.span(name, qid)


class Workload:
    """Base: subclasses set ``graph_specs`` and fill the four phases."""

    name = ""
    #: graph id -> (dataset key, scale)
    graph_specs: dict[str, tuple[str, float]] = {}
    #: the graph the incremental probe of the traced run edits
    lead_graph = ""
    #: engine behind every query of the workload
    engine = "batched"
    #: True for sequential query-only loops, whose rates and percentiles
    #: come from each query kind's median latency (``Timing.rates``)
    per_kind = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graphs: dict[str, CSRGraph] = {}

    def make_graphs(self) -> dict[str, CSRGraph]:
        return {
            gid: make_graph(key, scale, self.seed, slot)
            for slot, (gid, (key, scale)) in enumerate(
                self.graph_specs.items()
            )
        }

    def mix(self) -> list[tuple[str, str]]:
        """The (graph id, pattern) queries of the loop, in their proportions
        (the exact cycle for count-heavy and sim-event)."""
        raise NotImplementedError

    def weights(self) -> dict[tuple[str, str], float]:
        """Share of each distinct (graph id, pattern) in the query mix."""
        cycle = self.mix()
        out: dict[tuple[str, str], float] = {}
        for pair in cycle:
            out[pair] = out.get(pair, 0.0) + 1.0 / len(cycle)
        return out

    def reference_jobs(self) -> dict:
        return {
            pair: (self.graphs[pair[0]], pair[1]) for pair in self.weights()
        }

    def start(self) -> None:
        pass

    def warm(self, gate, refs) -> dict:
        """Run every distinct query once; returns ``{pair: SimReport}``."""
        raise NotImplementedError

    def run(self, seconds, gate, refs, tracer=None) -> Timing:
        raise NotImplementedError

    def post_check(self, gate) -> None:
        """Checks that need references computed after the timed loop."""

    def stop(self) -> None:
        pass

    def service_stats(self) -> list:
        """``ServiceStats`` of the services this workload drives."""
        return []

    def cluster_notes(self) -> list[dict]:
        return []


def _check_report(gate, what, expected, report) -> None:
    gate.check(what, expected, report.embeddings)


# -- serve-static -------------------------------------------------------------


class ServeStatic(Workload):
    """Closed loop of small queries against a process-pool service."""

    name = "serve-static"
    graph_specs = {"pp": ("PP", 0.25), "as": ("AS", 0.06), "yt": ("YT", 0.05)}
    lead_graph = "pp"
    patterns = ("3CF", "4CF", "DIA", "CYC", "TT")
    #: share of queries that repeat with caching on (and hit the cache)
    repeat_share = 0.25
    clients = 2
    mix_length = 50_000

    def mix(self):
        return [(g, p) for g in self.graph_specs for p in self.patterns]

    def start(self):
        rng = np.random.default_rng([self.seed, 1])
        pairs = self.mix()
        picks = rng.integers(len(pairs), size=self.mix_length)
        cached = rng.random(self.mix_length) < self.repeat_share
        self.stream = [
            (*pairs[i], bool(c)) for i, c in zip(picks.tolist(), cached)
        ]
        self.service = QueryService(BATCHED, mode="process", max_workers=2)
        for gid, graph in self.graphs.items():
            self.service.register_graph(graph, gid)

    def warm(self, gate, refs):
        reports = {}
        for pair in self.weights():
            report = self.service.count(
                pair[0], PATTERNS[pair[1]], timeout=RESULT_TIMEOUT
            )
            _check_report(gate, f"warm {pair}", refs[pair], report)
            reports[pair] = report
        return reports

    def run(self, seconds, gate, refs, tracer=None):
        timing = Timing()
        counter = itertools.count()
        t_start = time.perf_counter()
        t_end = t_start + seconds
        lock = threading.Lock()

        def client():
            records = []
            while time.perf_counter() < t_end:
                i = next(counter)
                gid, pname, cached = self.stream[i % len(self.stream)]
                qid = f"q{i}"
                t0 = time.perf_counter()
                try:
                    with _span(tracer, "query", qid):
                        with _span(tracer, "service.submit", qid):
                            handle = self.service.submit(
                                gid, PATTERNS[pname], use_cache=cached
                            )
                        with _span(tracer, "service.result", qid):
                            report = handle.result(RESULT_TIMEOUT)
                except Exception as exc:  # counted, the loop goes on
                    gate.fail(f"{gid}/{pname}", exc)
                    continue
                done = time.perf_counter()
                records.append(((gid, pname), done - t_start, done - t0, report.tasks))
                _check_report(gate, f"{gid}/{pname}", refs[gid, pname], report)
            with lock:
                timing.records.extend(records)

        threads = [
            # daemon: a terminated run does not wait out the loop
            threading.Thread(
                target=client, name=f"perfbench-client{k}", daemon=True
            )
            for k in range(self.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        timing.elapsed = time.perf_counter() - t_start
        return timing

    def stop(self):
        self.service.shutdown(wait=True)

    def service_stats(self):
        return [self.service.stats()]


# -- serve-dynamic ------------------------------------------------------------


class ServeDynamic(Workload):
    """Edge updates through a dynamic session, each followed by reads."""

    name = "serve-dynamic"
    graph_specs = {"pp": ("PP", 0.25)}
    lead_graph = "pp"
    watched = "3CF"
    others = ("4CF", "DIA", "CYC", "TT")
    max_steps = 4000
    #: every ``sample_every``-th step's snapshot is recounted by the reference
    sample_every = 64

    def mix(self):
        # the reads of four steps: the watched pattern once per step, each
        # other pattern twice (fresh read + repeat) in one of the four
        return [("pp", self.watched)] * 4 + [
            ("pp", p) for p in self.others for _ in range(2)
        ]

    def start(self):
        rng = np.random.default_rng([self.seed, 2])
        self.base = self.graphs["pp"]
        self.ops = edge_stream(self.base, rng, self.max_steps)
        self.reads = [
            self.others[i] for i in rng.integers(len(self.others), size=self.max_steps)
        ]
        self.service = QueryService(BATCHED, mode="process", max_workers=2)
        self.service.register_graph(self.base, "pp")
        self.session = self.service.dynamic_session("pp", PATTERNS[self.watched])
        self.samples: list[tuple[int, int, int]] = []

    def warm(self, gate, refs):
        gate.check("session initial count", refs["pp", self.watched], self.session.count)
        reports = {}
        for pair in self.weights():
            report = self.service.count(
                "pp", PATTERNS[pair[1]], timeout=RESULT_TIMEOUT
            )
            _check_report(gate, f"warm {pair}", refs[pair], report)
            reports[pair] = report
        return reports

    def run(self, seconds, gate, refs, tracer=None):
        timing = Timing()
        t0 = time.perf_counter()
        t_end = t0 + seconds
        while time.perf_counter() < t_end:
            step = self.session.updates_applied
            if step == len(self.ops):
                break
            sign, u, v = self.ops[step]
            qid = f"s{step}"
            try:
                with _span(tracer, "session.update", qid):
                    if sign > 0:
                        self.session.insert_edge(u, v)
                    else:
                        self.session.remove_edge(u, v)
                step += 1
                expected = self.session.count
                counts = []
                # the watched pattern (delta-patched hit), then another
                # pattern twice: a miss on the new snapshot, then its hit
                for pname in (self.watched, self.reads[step - 1], self.reads[step - 1]):
                    tq = time.perf_counter()
                    with _span(tracer, "query", qid):
                        with _span(tracer, "service.submit", qid):
                            handle = self.service.submit("pp", PATTERNS[pname])
                        with _span(tracer, "service.result", qid):
                            report = handle.result(RESULT_TIMEOUT)
                    done = time.perf_counter()
                    timing.records.append(
                        (("pp", pname), done - t0, done - tq, report.tasks)
                    )
                    counts.append(report.embeddings)
            except Exception as exc:  # counted, the loop goes on
                gate.fail(f"step {step}", exc)
                continue
            gate.check(f"step {step} {self.watched}", expected, counts[0])
            gate.check(f"step {step} repeat", counts[1], counts[2])
            if step % self.sample_every == 0:
                self.samples.append((step, expected, counts[1]))
        timing.elapsed = time.perf_counter() - t0
        return timing

    def post_check(self, gate):
        from gate import reference_counts

        jobs = {}
        for step, _, _ in self.samples:
            snap = apply_ops(self.base, self.ops[:step])
            jobs[step, "w"] = (snap, self.watched)
            jobs[step, "o"] = (snap, self.reads[step - 1])
        refs = reference_counts(jobs)
        for step, watched, other in self.samples:
            gate.check(f"snapshot {step} {self.watched}", refs[step, "w"], watched)
            gate.check(f"snapshot {step} {self.reads[step - 1]}", refs[step, "o"], other)

    def stop(self):
        self.service.shutdown(wait=True)

    def service_stats(self):
        return [self.service.stats()]


# -- count-heavy ----------------------------------------------------------------


class CountHeavy(Workload):
    """Sequential heavy counts whose leaf level dominates engine time."""

    name = "count-heavy"
    graph_specs = {"wv": ("WV", 0.18), "as": ("AS", 0.18)}
    lead_graph = "wv"
    per_kind = True

    def mix(self):
        # weighted so that p50 falls inside the AS/CYC queries and p90/p99
        # inside WV/TT, not on the boundary between two query kinds
        return [
            ("wv", "TT"), ("as", "CYC"), ("wv", "4CF"), ("as", "CYC"),
            ("wv", "4CF"), ("as", "CYC"), ("wv", "4CF"), ("as", "CYC"),
        ]

    def start(self):
        self.accel = XSetAccelerator(engine=self.engine)

    def _count(self, pair):
        return self.accel.count(self.graphs[pair[0]], PATTERNS[pair[1]])

    def warm(self, gate, refs):
        reports = {}
        for pair in self.weights():
            report = self._count(pair)
            _check_report(gate, f"warm {pair}", refs[pair], report)
            reports[pair] = report
        self.first = reports
        return reports

    def run(self, seconds, gate, refs, tracer=None):
        timing = Timing()
        cycle = self.mix()
        t0 = time.perf_counter()
        # whole cycles only, so every run measures the same query mix
        while True:
            for k, pair in enumerate(cycle):
                tq = time.perf_counter()
                try:
                    with _span(tracer, "accel.count", f"{pair}#{k}"):
                        report = self._count(pair)
                except Exception as exc:  # counted, the loop goes on
                    gate.fail(f"{pair}", exc)
                    continue
                done = time.perf_counter()
                timing.records.append((pair, done - t0, done - tq, report.tasks))
                self.check(gate, pair, refs, report)
            if time.perf_counter() - t0 >= seconds:
                break
        timing.elapsed = time.perf_counter() - t0
        return timing

    def check(self, gate, pair, refs, report):
        _check_report(gate, f"{pair}", refs[pair], report)


# -- sim-event ----------------------------------------------------------------


class SimEvent(CountHeavy):
    """The paper's event simulator: host speed of cycle-level runs."""

    name = "sim-event"
    # half the planned PP@0.25/AS@0.18/WV@0.18/YT@0.08 scales: a ~1.3 s
    # cycle gives the slowest query kind 16 samples in a 20 s run; the
    # full-size ~2.6 s cycle with 4 samples per 10 s run left its median
    # (p90) spreading 0.15 over seeds
    graph_specs = {
        "pp": ("PP", 0.12),
        "as": ("AS", 0.09),
        "wv": ("WV", 0.09),
        "yt": ("YT", 0.04),
    }
    lead_graph = "pp"
    engine = "event"

    def mix(self):
        # AS/DIA twice so that p50 falls inside one query kind
        return [
            ("pp", "3CF"), ("as", "DIA"), ("wv", "3CF"), ("as", "DIA"),
            ("yt", "TT"),
        ]

    def check(self, gate, pair, refs, report):
        first = self.first[pair]
        # the simulator is deterministic: counts, tasks and cycles repeat
        gate.check(
            f"{pair} repeat",
            (first.embeddings, first.tasks, first.cycles),
            (report.embeddings, report.tasks, report.cycles),
        )


# -- cluster-scatter ------------------------------------------------------------


class ClusterScatter(Workload):
    """Sequential scatter/merge queries through a 2-shard tcp cluster."""

    name = "cluster-scatter"
    per_kind = True
    graph_specs = {"small": ("PP", 0.05), "medium": ("PP", 0.25), "as": ("AS", 0.06)}
    lead_graph = "small"
    mix_length = 50_000

    def mix(self):
        return [
            ("small", "3CF"), ("small", "DIA"), ("small", "4CF"),
            ("small", "CYC"), ("medium", "3CF"), ("medium", "DIA"),
            ("as", "3CF"), ("as", "DIA"),
        ]

    def start(self):
        rng = np.random.default_rng([self.seed, 5])
        pairs = self.mix()
        self.stream = [
            pairs[i] for i in rng.integers(len(pairs), size=self.mix_length)
        ]
        self.cluster = LocalCluster(2, BATCHED, transport="tcp", mode="inline")
        self.coordinator = self.cluster.coordinator
        for gid, graph in self.graphs.items():
            self.coordinator.register_graph(graph, gid)
        self.notes: list[dict] = []

    def _query(self, pair):
        report = self.coordinator.query(
            pair[0], PATTERNS[pair[1]], use_cache=False
        )
        self.notes.append(report.notes["cluster"])
        return report

    def _check(self, gate, what, expected, report):
        partial = report.notes["cluster"]["partial"]
        gate.check(what, (expected, False), (report.embeddings, partial))

    def warm(self, gate, refs):
        reports = {}
        for pair in self.weights():
            report = self._query(pair)
            self._check(gate, f"warm {pair}", refs[pair], report)
            reports[pair] = report
        return reports

    def run(self, seconds, gate, refs, tracer=None):
        timing = Timing()
        t0 = time.perf_counter()
        t_end = t0 + seconds
        for i in itertools.count():
            if time.perf_counter() >= t_end:
                break
            pair = self.stream[i % len(self.stream)]
            tq = time.perf_counter()
            try:
                with _span(tracer, "cluster.query", f"q{i}"):
                    report = self._query(pair)
            except Exception as exc:  # counted, the loop goes on
                gate.fail(f"{pair}", exc)
                continue
            done = time.perf_counter()
            timing.records.append((pair, done - t0, done - tq, report.tasks))
            self._check(gate, f"{pair}", refs[pair], report)
        timing.elapsed = time.perf_counter() - t0
        return timing

    def stop(self):
        self.cluster.shutdown()

    def service_stats(self):
        return [w.service.stats() for w in self.cluster.workers]

    def cluster_notes(self):
        return self.notes


WORKLOADS = {
    cls.name: cls
    for cls in (ServeStatic, ServeDynamic, CountHeavy, SimEvent, ClusterScatter)
}
