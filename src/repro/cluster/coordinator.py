"""The coordinator: shard registration, scatter/gather, cluster health.

``register_graph`` cuts a CSR graph into contiguous vertex-range shards
(:mod:`repro.cluster.partition`) and ships each induced subgraph — with
its owned local root range — to every replica of one shard group.  A
query then scatters as per-shard root-restricted subqueries (fanned out
on a thread pool) and the replies gather through the exactly-once
:func:`repro.cluster.merge.merge_replies`.

Resilience reuses the service layer's own machinery at cluster scope:

* every *replica* gets a :class:`~repro.resilience.BreakerBoard` circuit
  — comm failures and timeouts trip it, and an open breaker skips the
  replica without burning a timeout on a peer known to be down;
* with ``cluster_replicas >= 2`` each shard is a
  :class:`~repro.cluster.replication.ReplicaGroup`: a failed subquery
  **fails over** to the next-healthiest replica (immediately within the
  first pass, with capped exponential backoff between retry rounds, all
  bounded by a per-query deadline budget), and an optional
  :class:`~repro.cluster.replication.HedgePolicy` duplicates straggler
  subqueries to a second replica, first success wins, the loser's reply
  dropped before the merge;
* a shard whose *every* replica fails degrades the query instead of
  failing it: the merged report carries
  ``notes["cluster"]["partial"] = True`` plus the failed shard names,
  and only a query with **zero** surviving shards raises
  :class:`~repro.errors.ClusterError` — with a single replica per shard
  this is exactly the pre-replication behaviour;
* a :class:`~repro.cluster.replication.HealthProber` (opt-in via
  ``probe_interval``) pings replicas over dedicated connections, evicts
  them from rotation after ``probe_failures`` consecutive failures, and
  reintegrates them after passing probes — re-registering every graph
  on the rejoining replica first, so it never serves a query it cannot
  answer;
* :meth:`Coordinator.health` gathers per-replica
  :class:`~repro.resilience.HealthReport`\\ s into a
  :class:`ClusterHealth` whose state is the worst replica state, forced
  to at least ``DEGRADED`` while any replica is unreachable or any
  breaker is non-closed.

Flight-recorder hygiene: a shard that keeps failing under sustained
chaos records **one** ``shard_failure`` event per incident (cleared by
the next success, which records ``shard_recovered``) — the black box
stays a readable story instead of one line per failed query.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as futures_wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..core.config import SystemConfig, xset_default
from ..errors import ClusterError, CommError
from ..graph.csr import CSRGraph
from ..obs import MetricsRegistry, Tracer
from ..obs.cluster import TraceContext, new_trace_id
from ..obs.export import chrome_trace_events
from ..obs.federation import FederatedMetrics, MetricsDeltaTracker
from ..obs.flight import FlightRecorder
from ..obs.slo import DEFAULT_SLOS, REPLICATED_SLOS, SLO, SLOStatus, \
    SLOTracker
from ..obs.summary import Window
from ..obs.tracing import Span
from ..patterns.plan import build_plan
from ..resilience import BreakerBoard, BreakerState, HealthReport, \
    HealthState
from ..sched.adaptive import CostPredictor, query_features
from ..sched.adaptive.selector import auto_engine
from ..service.cache import pattern_cache_key
from .comm.base import Connection, Transport, get_transport
from .merge import merge_replies
from .partition import ShardSpec, make_shards
from .replication import HealthProber, HedgePolicy, ReplicaGroup, \
    ReplicaState, RetryPolicy
from .worker import ShardWorker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import ExecutionProfile
    from ..patterns.pattern import Pattern
    from ..resilience.breaker import BreakerSnapshot
    from ..sim.report import SimReport

__all__ = ["Coordinator", "ClusterHealth", "LocalCluster"]

#: per-shard execution profiles retained for PE-lane trace export
PROFILE_LIMIT = 256

#: recent per-shard request latencies kept for hedge-delay estimation
LATENCY_WINDOW = 256

#: scatter deadline budget = predicted shard latency × this safety factor
#: (applied only to profile-backed predictions, clamped to
#: [DEADLINE_FLOOR, the configured deadline budget])
DEADLINE_SAFETY = 8.0
#: minimum prediction-derived scatter deadline (seconds)
DEADLINE_FLOOR = 1.0
#: cold-start hedge delay = predicted shard latency × this factor (used
#: before the latency window has enough samples for the percentile rule)
HEDGE_PREDICTION_FACTOR = 2.0


@dataclass(frozen=True)
class ClusterHealth:
    """Aggregated cluster condition (per-replica reports + comm breakers)."""

    state: HealthState
    #: replica name → its service's health report, or None if unreachable
    shards: "Mapping[str, HealthReport | None]" = field(default_factory=dict)
    #: coordinator-side comm breaker snapshots, keyed by replica name
    breakers: "Mapping[str, BreakerSnapshot]" = field(default_factory=dict)
    #: SLO name → point-in-time status (empty when no tracker is wired)
    slo: "Mapping[str, SLOStatus]" = field(default_factory=dict)
    #: shard group → replica → routing state ("healthy"/"suspect"/"evicted")
    replicas: "Mapping[str, Mapping[str, str]]" = field(default_factory=dict)

    @property
    def dead(self) -> tuple[str, ...]:
        return tuple(
            sorted(n for n, r in self.shards.items() if r is None)
        )

    @property
    def slo_violations(self) -> tuple[str, ...]:
        return tuple(
            sorted(n for n, st in self.slo.items() if not st.met)
        )

    @property
    def evicted(self) -> tuple[str, ...]:
        return tuple(sorted(
            replica
            for group in self.replicas.values()
            for replica, state in group.items()
            if state == "evicted"
        ))

    def summary(self) -> str:
        lines = [
            f"cluster health: {self.state.name.lower()} "
            f"({len(self.shards) - len(self.dead)}/{len(self.shards)} "
            f"shards reachable)"
        ]
        for name in sorted(self.shards):
            report = self.shards[name]
            if report is None:
                lines.append(f"  {name}: UNREACHABLE")
                continue
            lines.append(
                f"  {name}: {report.state.name.lower()}, queue "
                f"{report.queue_depth}/{report.queue_limit}, in flight "
                f"{report.in_flight}"
            )
        for name, snap in sorted(self.breakers.items()):
            if snap.state != "closed":
                lines.append(f"  breaker[{name}]: {snap.state}")
        for group in sorted(self.replicas):
            for replica, state in sorted(self.replicas[group].items()):
                if state != "healthy":
                    lines.append(f"  replica {replica}: {state}")
        for name in sorted(self.slo):
            lines.append(f"  slo {self.slo[name].line()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly view (CLI ``--json``, CI assertions)."""
        return {
            "state": self.state.name.lower(),
            "dead": list(self.dead),
            "shards": {
                name: (
                    None if report is None
                    else {
                        "state": report.state.name.lower(),
                        "queue_depth": report.queue_depth,
                        "queue_limit": report.queue_limit,
                        "in_flight": report.in_flight,
                        "shed": report.shed,
                        "abandoned": report.abandoned,
                        "rerouted": report.rerouted,
                    }
                )
                for name, report in self.shards.items()
            },
            "breakers": {
                name: {
                    "state": snap.state,
                    "failures": snap.failures,
                    "consecutive_failures": snap.consecutive_failures,
                    "last_failure_reason": snap.last_failure_reason,
                }
                for name, snap in self.breakers.items()
            },
            "slo": {
                name: status.to_dict()
                for name, status in self.slo.items()
            },
            "replicas": {
                group: dict(states)
                for group, states in self.replicas.items()
            },
        }


@dataclass
class _Replica:
    """Coordinator-side record of one connected replica."""

    name: str
    address: str
    shard: str
    transport: Transport
    conn: "Connection | None" = None
    probe_conn: "Connection | None" = None

    def _fresh(self, conn: "Connection | None") -> "Connection | None":
        # a poisoned tcp connection flags itself closed; an inproc
        # connection survives listener kill/reopen and never needs
        # replacing, so the flag check covers both
        if conn is not None and not getattr(conn, "_closed", False):
            return conn
        return None

    def connection(self) -> Connection:
        """The data-plane connection, re-dialled if poisoned."""
        conn = self._fresh(self.conn)
        if conn is None:
            conn = self.transport.connect(self.address)
            self.conn = conn
        return conn

    def probe_connection(self) -> Connection:
        """A dedicated probe connection: a slow query on the data plane
        must never make a liveness ping look like a death."""
        conn = self._fresh(self.probe_conn)
        if conn is None:
            conn = self.transport.connect(self.address)
            self.probe_conn = conn
        return conn

    def close(self) -> None:
        for conn in (self.conn, self.probe_conn):
            if conn is not None:
                try:
                    conn.close()
                except Exception:
                    pass
        self.conn = None
        self.probe_conn = None


@dataclass
class _ShardGroup:
    """One vertex-range shard and the replicas backing it."""

    name: str
    replicas: "list[_Replica]"
    group: ReplicaGroup


@dataclass(frozen=True)
class _ShardPlacement:
    """Where one slice of a registered graph lives."""

    shard: str
    lo: int
    hi: int
    local_lo: int
    local_hi: int
    halo_hops: int
    #: retained for re-shipping the slice to a rejoining replica
    spec: "ShardSpec | None" = None

    @property
    def owned(self) -> int:
        return self.hi - self.lo


def _normalize_shards(
    shards: "Sequence[tuple[str, object]]",
) -> "list[tuple[str, list[tuple[str, str]]]]":
    """Accept both shapes: ``(name, addr)`` and ``(name, [(replica,
    addr), ...])`` — the former is a single-replica group whose replica
    keeps the shard's name, which is what keeps breaker keys, flight
    events and federation labels identical to the pre-replication
    coordinator."""
    normalized: "list[tuple[str, list[tuple[str, str]]]]" = []
    for name, spec in shards:
        if isinstance(spec, str):
            normalized.append((name, [(name, spec)]))
        else:
            members = [(str(r), str(a)) for r, a in spec]
            if not members:
                raise ClusterError(
                    f"shard {name!r} has an empty replica list"
                )
            normalized.append((name, members))
    return normalized


class Coordinator:
    """Scatter/gather front-end over a set of (replicated) shard workers."""

    def __init__(
        self,
        shards: "Sequence[tuple[str, object]]",
        transport: "Transport | str",
        config: SystemConfig | None = None,
        *,
        request_timeout: float = 120.0,
        observability: bool = False,
        breaker_failure_threshold: int = 2,
        breaker_recovery_seconds: float = 30.0,
        slos: "Iterable[SLO] | None" = None,
        flight_dir: "str | Path | None" = None,
        retry: "RetryPolicy | None" = None,
        hedge: "HedgePolicy | None" = None,
        probe_interval: float = 0.0,
        probe_failures: int = 3,
        probe_recoveries: int = 2,
        probe_timeout: float = 5.0,
    ) -> None:
        if not shards:
            raise ClusterError("a cluster needs at least one shard")
        self.config = config or xset_default()
        self.transport = (
            get_transport(transport)
            if isinstance(transport, str)
            else transport
        )
        self.request_timeout = request_timeout
        self.retry = retry or RetryPolicy()
        self.hedge = hedge or HedgePolicy()
        self._groups: "list[_ShardGroup]" = []
        self._replicas: "list[_Replica]" = []
        self._replica_by_name: "dict[str, _Replica]" = {}
        self._group_by_replica: "dict[str, _ShardGroup]" = {}
        for name, members in _normalize_shards(shards):
            replicas = []
            for rname, addr in members:
                if rname in self._replica_by_name:
                    raise ClusterError(
                        f"duplicate replica name {rname!r}"
                    )
                replica = _Replica(
                    name=rname, address=addr, shard=name,
                    transport=self.transport,
                )
                try:
                    replica.connection()
                except CommError:
                    # tolerated: the replica may come up later; the
                    # breaker/prober decide what that means
                    pass
                replicas.append(replica)
                self._replica_by_name[rname] = replica
            sg = _ShardGroup(
                name=name,
                replicas=replicas,
                group=ReplicaGroup(name, [r.name for r in replicas]),
            )
            self._groups.append(sg)
            self._replicas.extend(replicas)
            for replica in replicas:
                self._group_by_replica[replica.name] = sg
        self._replicated = any(len(sg.replicas) > 1 for sg in self._groups)
        #: graph_id → per-shard placements (order matches self._groups)
        self._graphs: dict[str, list[_ShardPlacement]] = {}
        #: graph_id → replica names currently holding a registered copy
        self._registered: dict[str, set[str]] = {}
        # flight recorder before the breakers: the transition callback
        # writes into it
        self.flight = FlightRecorder(
            name="coordinator", flight_dir=flight_dir
        )
        #: shards/replicas with an open failure incident (dedupes
        #: shard_failure flight events under sustained chaos)
        self._open_incidents: set[str] = set()
        self._failover_dumped = False
        self._breakers = BreakerBoard(
            failure_threshold=breaker_failure_threshold,
            recovery_seconds=breaker_recovery_seconds,
            half_open_probes=1,
            on_transition=self._on_breaker_transition,
        )
        self.metrics = MetricsRegistry()
        self.metrics.gauge(
            "repro_cluster_shards", "shard groups in this cluster"
        ).set(len(self._groups))
        self.metrics.gauge(
            "repro_cluster_replicas", "shard replicas in this cluster"
        ).set(len(self._replicas))
        for sg in self._groups:
            self._sync_replica_gauges(sg)
        #: shard metric deltas merged under a shard= label, plus the
        #: coordinator's own registry under shard="coordinator"
        self.federation = FederatedMetrics()
        self._self_delta = MetricsDeltaTracker(self.metrics)
        if slos is None:
            slos = REPLICATED_SLOS if self._replicated else DEFAULT_SLOS
        self.slo = SLOTracker(tuple(slos))
        self._tracer = Tracer() if observability else None
        #: (shard name, profile) pairs for per-shard PE trace lanes
        self._profiles: "deque[tuple[str, ExecutionProfile]]" = deque(
            maxlen=PROFILE_LIMIT
        )
        #: per-shard recent request latencies (feeds the hedge delay)
        self._latency: "dict[str, Window]" = {
            sg.name: Window(LATENCY_WINDOW) for sg in self._groups
        }
        #: per-shard cost model: trained from each shard's measured
        #: subquery latency, keyed by (graph@shard, canonical pattern);
        #: drives prediction-derived scatter deadlines and cold-start
        #: hedge delays, and its accuracy histogram lands in metrics
        self.predictor = CostPredictor(registry=self.metrics)
        self._pool = ThreadPoolExecutor(
            max_workers=max(len(self._groups), len(self._replicas)),
            thread_name_prefix="cluster-scatter",
        )
        # hedged calls run on their own pool: a hedge submitted from a
        # scatter thread must never deadlock behind sibling scatters
        self._hedge_pool = (
            ThreadPoolExecutor(
                max_workers=max(2 * len(self._replicas), 4),
                thread_name_prefix="cluster-hedge",
            )
            if self.hedge.enabled
            else None
        )
        self.prober = HealthProber(
            self._probe_ping,
            [r.name for r in self._replicas],
            probe_failures=probe_failures,
            probe_recoveries=probe_recoveries,
            interval=probe_interval if probe_interval > 0 else 1.0,
            on_evict=self._evict_replica,
            on_rejoin=self._rejoin_replica,
        )
        self.probe_timeout = probe_timeout
        if probe_interval > 0:
            self.prober.start()
        self._shutdown = False

    # -- internals ---------------------------------------------------------

    def _span(self, name: str, **attrs):
        if self._tracer is None:
            return nullcontext()
        return self._tracer.span(name, **attrs)

    def _on_breaker_transition(self, shard, old, new) -> None:
        """Comm-breaker transitions land in the flight recorder."""
        self.flight.record(
            "breaker_trip" if new is BreakerState.OPEN
            else "breaker_transition",
            shard=shard,
            from_state=old.name.lower(),
            to_state=new.name.lower(),
        )

    def _end_scatter_span(self, span: "Span | None", outcome: str) -> None:
        if span is not None and self._tracer is not None:
            span.set_attr("outcome", outcome)
            self._tracer.end_span(span)

    def _record_shard_failure(self, name: str, **data) -> None:
        """First failure of an incident records a flight event; repeats
        under the same open incident stay out of the ring so sustained
        chaos cannot wash the black box out with one line per query."""
        if name in self._open_incidents:
            return
        self._open_incidents.add(name)
        self.flight.record("shard_failure", shard=name, **data)

    def _record_shard_success(self, name: str) -> None:
        if name in self._open_incidents:
            self._open_incidents.discard(name)
            self.flight.record("shard_recovered", shard=name)

    def _sync_replica_gauges(self, sg: _ShardGroup) -> None:
        for replica, state in sg.group.states().items():
            self.metrics.gauge(
                "repro_cluster_replica_state",
                "replica routing state (0 healthy / 1 suspect / 2 evicted)",
                shard=sg.name,
                replica=replica,
            ).set(state.value)

    def _call(
        self,
        replica: _Replica,
        payload: dict,
        span: "Span | None" = None,
        timeout: float | None = None,
    ):
        """One breaker-guarded request to one replica.

        ``span`` (a manually-started scatter span) is closed here, on
        the scatter pool thread, so its duration covers the request —
        not the coordinator's wait for slower siblings.
        """
        sg = self._group_by_replica[replica.name]
        breaker = self._breakers.for_engine(replica.name)
        if not breaker.allow():
            self._end_scatter_span(span, "breaker_open")
            raise ClusterError(
                f"shard {replica.name!r} breaker is open "
                f"(recent comm failures)"
            )
        try:
            conn = replica.connection()
            value = conn.request(
                payload,
                timeout=self.request_timeout if timeout is None
                else timeout,
            )
        except CommError as exc:
            breaker.record_failure(type(exc).__name__)
            sg.group.mark_failure(replica.name)
            self._sync_replica_gauges(sg)
            self.metrics.counter(
                "repro_cluster_shard_failures_total",
                "scatter requests lost to comm failures",
            ).inc()
            self._end_scatter_span(span, type(exc).__name__)
            raise
        breaker.record_success()
        prior = sg.group.state(replica.name)
        sg.group.mark_success(replica.name)
        if prior is not ReplicaState.HEALTHY:
            self._sync_replica_gauges(sg)
        self._end_scatter_span(span, "ok")
        return value

    def _scatter(
        self, payloads: "list[tuple]"
    ) -> "list[tuple[_Replica, object, BaseException | None]]":
        """Fan requests out; gather ``(replica, value, error)`` triples.

        Each item is ``(replica, payload)`` or ``(replica, payload,
        scatter_span)`` — the optional span travels to :meth:`_call`.
        """
        futures = [
            (
                item[0],
                self._pool.submit(
                    self._call,
                    item[0],
                    item[1],
                    item[2] if len(item) > 2 else None,
                ),
            )
            for item in payloads
        ]
        results = []
        for replica, future in futures:
            try:
                results.append((replica, future.result(), None))
            except BaseException as exc:
                results.append((replica, None, exc))
        return results

    def _placements(self, graph_id: str) -> list[_ShardPlacement]:
        placements = self._graphs.get(graph_id)
        if placements is None:
            raise ClusterError(
                f"unknown cluster graph id {graph_id!r}; registered: "
                f"{', '.join(sorted(self._graphs)) or '<none>'}"
            )
        return placements

    # -- replica routing ---------------------------------------------------

    def _candidates(
        self, sg: _ShardGroup, graph_id: "str | None"
    ) -> "list[_Replica]":
        """Failover order for one subquery: healthiest first, evicted
        out of rotation, restricted to replicas actually holding the
        graph (a rejoined-but-not-yet-re-registered replica must never
        be asked for a graph it lost)."""
        ranked = sg.group.ranked()
        if graph_id is not None:
            holding = self._registered.get(graph_id)
            if holding:
                routable = [r for r in ranked if r in holding]
                if not routable:
                    # every registered holder is evicted: last resort,
                    # try them anyway rather than dropping the shard
                    routable = [
                        r for r in sg.group.replica_names if r in holding
                    ]
                ranked = routable or ranked
        return [self._replica_by_name[name] for name in ranked]

    def _deadline_budget(self) -> float:
        return (
            self.retry.deadline
            if self.retry.deadline is not None
            else self.request_timeout
        )

    def _shard_request(
        self,
        sg: _ShardGroup,
        payload: dict,
        span: "Span | None" = None,
        budget: "float | None" = None,
        predicted: float = 0.0,
    ) -> "tuple[object, dict]":
        """One subquery against one shard group, with failover/hedging.

        Returns ``(reply value, meta)`` where meta records which
        replica served and how many failovers/hedges it took.  Raises
        :class:`ClusterError` only when every candidate replica failed
        within the retry and deadline budget.  ``budget`` overrides the
        retry deadline budget (prediction-derived scatter deadlines);
        ``predicted`` seeds the hedge delay before the latency window
        has enough samples for the percentile rule.
        """
        candidates = self._candidates(sg, payload.get("graph_id"))
        if not candidates:
            self._end_scatter_span(span, "no_replicas")
            raise ClusterError(
                f"shard {sg.name!r} has no routable replicas"
            )
        deadline = time.monotonic() + (
            budget if budget is not None else self._deadline_budget()
        )
        try:
            hedge_delay = (
                self.hedge.delay(self._latency[sg.name])
                if self._hedge_pool is not None and len(candidates) >= 2
                and payload.get("op") == "query"
                else None
            )
            if (
                hedge_delay is None
                and predicted > 0.0
                and self._hedge_pool is not None
                and len(candidates) >= 2
                and payload.get("op") == "query"
            ):
                # cold start: no latency history yet, but the cost model
                # already knows roughly how long this shard should take —
                # hedge when the primary runs well past its prediction
                hedge_delay = min(
                    max(
                        predicted * HEDGE_PREDICTION_FACTOR,
                        self.hedge.min_delay,
                    ),
                    self.hedge.max_delay,
                )
            if hedge_delay is not None:
                value, meta = self._hedged_request(
                    sg, candidates, payload, deadline, hedge_delay
                )
            else:
                value, meta = self._failover_request(
                    sg, candidates, payload, deadline
                )
        except BaseException as exc:
            self._end_scatter_span(span, type(exc).__name__)
            raise
        if span is not None:
            span.set_attr("replica", meta["replica"])
            if meta["failovers"]:
                span.set_attr("failovers", meta["failovers"])
        self._end_scatter_span(span, "ok")
        return value, meta

    def _note_failover(
        self, sg: _ShardGroup, source: str, target: str, error: str
    ) -> None:
        self.metrics.counter(
            "repro_cluster_replica_failovers_total",
            "subqueries failed over to another replica",
        ).inc()
        self.flight.record(
            "replica_failover",
            shard=sg.name,
            from_replica=source,
            to_replica=target,
            error=error,
        )
        if not self._failover_dumped:
            self._failover_dumped = True
            self.flight.auto_dump("replica-failover")

    def _timed_call(
        self, sg: _ShardGroup, replica: _Replica, payload: dict,
        deadline: float,
    ):
        """Returns ``(value, elapsed_seconds)`` — the measured latency
        feeds both the hedge window and the cost predictor."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ClusterError(
                f"shard {sg.name!r} deadline budget exhausted before "
                f"calling {replica.name!r}"
            )
        started = time.perf_counter()
        value = self._call(
            replica, payload,
            timeout=min(self.request_timeout, remaining),
        )
        elapsed = time.perf_counter() - started
        self._latency[sg.name].add(elapsed)
        return value, elapsed

    def _failover_request(
        self,
        sg: _ShardGroup,
        candidates: "list[_Replica]",
        payload: dict,
        deadline: float,
    ) -> "tuple[object, dict]":
        errors: dict[str, str] = {}
        attempts = len(candidates) * self.retry.rounds
        for attempt in range(attempts):
            round_index = attempt // len(candidates)
            if attempt and attempt % len(candidates) == 0:
                # wrapped around: every candidate failed this round —
                # back off (capped exponential) before hammering again
                pause = self.retry.backoff(round_index)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if pause > 0:
                    time.sleep(min(pause, max(remaining, 0.0)))
            replica = candidates[attempt % len(candidates)]
            try:
                value, elapsed = self._timed_call(
                    sg, replica, payload, deadline
                )
            except (CommError, ClusterError) as exc:
                errors[replica.name] = repr(exc)
                if attempt + 1 < attempts:
                    nxt = candidates[(attempt + 1) % len(candidates)]
                    self._note_failover(
                        sg, replica.name, nxt.name, type(exc).__name__
                    )
                continue
            return value, {
                "replica": replica.name,
                "failovers": attempt,
                "hedged": False,
                "elapsed": elapsed,
            }
        raise ClusterError(
            f"shard {sg.name!r} failed on every replica within its "
            f"retry budget ({attempts} attempt(s)): "
            f"{errors or 'deadline exhausted'}"
        )

    def _hedged_request(
        self,
        sg: _ShardGroup,
        candidates: "list[_Replica]",
        payload: dict,
        deadline: float,
        hedge_delay: float,
    ) -> "tuple[object, dict]":
        """Primary + (after ``hedge_delay``) one duplicate; first
        success wins, the loser's late reply is dropped and counted —
        exactly-once merging is preserved because only the winner's
        reply leaves this method."""
        assert self._hedge_pool is not None
        primary, backup = candidates[0], candidates[1]
        pending: "dict[Future, _Replica]" = {}
        errors: dict[str, str] = {}
        f_primary = self._hedge_pool.submit(
            self._timed_call, sg, primary, payload, deadline
        )
        pending[f_primary] = primary
        try:
            value, elapsed = f_primary.result(timeout=hedge_delay)
            return value, {
                "replica": primary.name, "failovers": 0, "hedged": False,
                "elapsed": elapsed,
            }
        except FutureTimeoutError:
            pass  # straggler: hedge fires below
        except (CommError, ClusterError) as exc:
            # primary failed outright before the hedge delay — this is
            # plain failover territory, not a hedge
            errors[primary.name] = repr(exc)
            pending.pop(f_primary, None)
            self._note_failover(
                sg, primary.name, backup.name, type(exc).__name__
            )
            value, meta = self._failover_request(
                sg, candidates[1:], payload, deadline
            )
            meta["failovers"] += 1
            return value, meta
        self.metrics.counter(
            "repro_cluster_hedged_queries_total",
            "straggler subqueries duplicated to a second replica",
        ).inc()
        self.flight.record(
            "hedged_query",
            shard=sg.name,
            primary=primary.name,
            hedge=backup.name,
            delay_s=round(hedge_delay, 4),
        )
        f_backup = self._hedge_pool.submit(
            self._timed_call, sg, backup, payload, deadline
        )
        pending[f_backup] = backup
        winner: "tuple[object, float, _Replica] | None" = None
        while pending and winner is None:
            remaining = deadline - time.monotonic()
            done, _ = futures_wait(
                list(pending),
                timeout=max(remaining, 0.0) if remaining > 0 else 0.0,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                break  # deadline exhausted with requests still in flight
            for future in done:
                replica = pending.pop(future)
                try:
                    value, elapsed = future.result()
                except (CommError, ClusterError) as exc:
                    errors[replica.name] = repr(exc)
                    continue
                winner = (value, elapsed, replica)
                break
        if winner is None:
            raise ClusterError(
                f"shard {sg.name!r} hedged subquery failed on both "
                f"replicas: {errors or 'deadline exhausted'}"
            )
        value, elapsed, replica = winner
        for future, loser in pending.items():
            future.add_done_callback(
                self._make_hedge_drop(sg, loser)
            )
        return value, {
            "replica": replica.name,
            "failovers": 0,
            "hedged": True,
            "elapsed": elapsed,
        }

    def _make_hedge_drop(self, sg: _ShardGroup, loser: _Replica):
        def _drop(future: Future) -> None:
            exc = future.exception()
            if exc is None:
                # the loser also answered correctly; its reply is
                # discarded here, before any merge could see it
                self.metrics.counter(
                    "repro_cluster_hedged_duplicates_dropped_total",
                    "correct duplicate replies dropped after a hedge",
                ).inc()
                self.flight.record(
                    "hedged_duplicate_dropped",
                    shard=sg.name,
                    replica=loser.name,
                )
        return _drop

    # -- probe-driven membership -------------------------------------------

    def _probe_ping(self, replica_name: str) -> bool:
        replica = self._replica_by_name[replica_name]
        try:
            reply = replica.probe_connection().request(
                {"op": "ping"}, timeout=self.probe_timeout
            )
        except Exception:
            return False
        return reply == "pong"

    def _evict_replica(self, replica_name: str) -> None:
        sg = self._group_by_replica[replica_name]
        sg.group.evict(replica_name)
        self._sync_replica_gauges(sg)
        self.metrics.counter(
            "repro_cluster_replica_evictions_total",
            "replicas evicted after consecutive failed probes",
        ).inc()
        self.flight.record(
            "replica_evicted", shard=sg.name, replica=replica_name
        )

    def _rejoin_replica(self, replica_name: str) -> bool:
        """Reintegrate a recovered replica (prober callback).

        Graphs are re-registered *before* the replica re-enters
        rotation; any re-registration failure vetoes the rejoin (the
        prober keeps it evicted and retries after its next passing
        probes).
        """
        replica = self._replica_by_name[replica_name]
        sg = self._group_by_replica[replica_name]
        shard_index = next(
            i for i, g in enumerate(self._groups) if g is sg
        )
        for gid, placements in self._graphs.items():
            placement = placements[shard_index]
            spec = placement.spec
            if spec is None:
                continue
            try:
                replica.connection().request(
                    {
                        "op": "register",
                        "graph_id": gid,
                        "graph": spec.graph,
                        "local_lo": spec.local_lo,
                        "local_hi": spec.local_hi,
                    },
                    timeout=self.request_timeout,
                )
            except Exception as exc:
                self.flight.record(
                    "replica_rejoin_failed",
                    shard=sg.name,
                    replica=replica_name,
                    graph_id=gid,
                    error=repr(exc),
                )
                return False
            self._registered.setdefault(gid, set()).add(replica_name)
        sg.group.reintegrate(replica_name)
        # the probe proved liveness and the graphs are back: waiting
        # out the breaker's recovery window would skip a replica known
        # to be healthy
        self._breakers.for_engine(replica_name).reset()
        self._sync_replica_gauges(sg)
        self.metrics.counter(
            "repro_cluster_replica_rejoins_total",
            "replicas reintegrated after passing recovery probes",
        ).inc()
        self.flight.record(
            "replica_rejoined", shard=sg.name, replica=replica_name
        )
        self._record_shard_success(replica_name)
        return True

    # -- graph lifecycle ---------------------------------------------------

    def register_graph(
        self, graph: CSRGraph, graph_id: str | None = None
    ) -> str:
        """Shard ``graph`` across the workers; returns the cluster id.

        Every replica of a shard group receives the identical slice.  A
        shard group with **zero** successful replicas fails the whole
        registration (rolled back everywhere); a group that registered
        on at least one replica tolerates failed siblings — the prober
        re-registers them on rejoin.
        """
        gid = graph_id or graph.name
        if gid in self._graphs:
            raise ClusterError(
                f"cluster graph id {gid!r} already registered"
            )
        with self._span("cluster.register", graph_id=gid):
            specs = make_shards(
                graph,
                num_shards=len(self._groups),
                halo_hops=self.config.cluster_halo_hops,
            )
            payloads = []
            for sg, spec in zip(self._groups, specs):
                for replica in sg.replicas:
                    payloads.append(
                        (
                            replica,
                            {
                                "op": "register",
                                "graph_id": gid,
                                "graph": spec.graph,
                                "local_lo": spec.local_lo,
                                "local_hi": spec.local_hi,
                            },
                        )
                    )
            results = self._scatter(payloads)
        ok_replicas = {
            replica.name for replica, _, exc in results if exc is None
        }
        group_failures: list[str] = []
        for sg in self._groups:
            if not any(r.name in ok_replicas for r in sg.replicas):
                group_failures.append(sg.name)
        if group_failures:
            # registration is all-or-nothing per cluster: roll back the
            # survivors so no shard holds a slice of a graph the
            # cluster never owned
            for replica, _, exc in results:
                if exc is None:
                    try:
                        self._call(
                            replica,
                            {"op": "unregister", "graph_id": gid},
                        )
                    except Exception:
                        pass
            raise ClusterError(
                f"failed to register {gid!r} on shard(s) "
                f"{', '.join(group_failures)}"
            )
        for replica, _, exc in results:
            if exc is not None:
                # the group survives on its siblings; the failed
                # replica re-registers via the prober's rejoin path
                self._record_shard_failure(
                    replica.name,
                    op="register",
                    graph_id=gid,
                    error=repr(exc),
                )
        self._graphs[gid] = [
            _ShardPlacement(
                shard=sg.name,
                lo=spec.lo,
                hi=spec.hi,
                local_lo=spec.local_lo,
                local_hi=spec.local_hi,
                halo_hops=spec.halo_hops,
                spec=spec,
            )
            for sg, spec in zip(self._groups, specs)
        ]
        self._registered[gid] = set(ok_replicas)
        return gid

    def unregister_graph(self, graph_id: str) -> None:
        """Drop ``graph_id`` on every reachable replica."""
        self._placements(graph_id)
        payloads = [
            (replica, {"op": "unregister", "graph_id": graph_id})
            for replica in self._replicas
        ]
        self._scatter(payloads)  # best effort; dead replicas tolerated
        del self._graphs[graph_id]
        self._registered.pop(graph_id, None)

    def graphs(self) -> tuple[str, ...]:
        return tuple(sorted(self._graphs))

    # -- queries -----------------------------------------------------------

    def query(
        self,
        graph_id: str,
        pattern: "Pattern",
        *,
        induced: bool | None = None,
        engine: str | None = None,
        config: SystemConfig | None = None,
        use_cache: bool = True,
    ) -> "SimReport":
        """Scatter one pattern query; gather the merged cluster report.

        A failing replica fails over to its siblings; a shard whose
        every replica fails (comm error, timeout, open breaker) degrades
        the result — ``report.notes["cluster"]`` flags the partial merge
        and names it.  Only a fully failed scatter raises.
        """
        placements = self._placements(graph_id)
        cfg = config or self.config
        plan = build_plan(pattern, induced=induced)
        halo = min(p.halo_hops for p in placements)
        if plan.stop_level > halo:
            raise ClusterError(
                f"pattern {pattern.name!r} needs a {plan.stop_level}-hop "
                f"halo but {graph_id!r} was sharded with halo_hops={halo}; "
                f"re-register with cluster_halo_hops >= {plan.stop_level}"
            )
        by_name = {sg.name: sg for sg in self._groups}
        targets = [
            (by_name[p.shard], p) for p in placements if p.owned > 0
        ]
        self.metrics.counter(
            "repro_cluster_queries_total", "cluster queries accepted"
        ).inc()
        # per-shard cost predictions: each shard's slice has its own
        # stats, so a skewed partition legitimately predicts unevenly
        predict_engine = engine or cfg.engine
        if predict_engine == "auto":
            predict_engine = auto_engine()
        pkey = pattern_cache_key(pattern, induced)
        predictions: "dict[str, tuple]" = {}
        for sg, placement in targets:
            spec = placement.spec
            if spec is None:
                continue
            feats = query_features(
                spec.graph, f"{graph_id}@{sg.name}", pkey
            )
            est = self.predictor.predict(feats, predict_engine)
            budget = None
            if est.source == "profile":
                # only measured history tightens the deadline — the
                # conservative prior would cut off legitimately slow
                # first-contact queries
                budget = min(
                    self._deadline_budget(),
                    max(est.seconds * DEADLINE_SAFETY, DEADLINE_FLOOR),
                )
            predictions[sg.name] = (feats, est, budget)
        tracer = self._tracer
        trace_id = new_trace_id() if tracer is not None else None
        started = time.perf_counter()
        scatter_spans: "dict[str, Span]" = {}
        with self._span(
            "cluster.query",
            graph_id=graph_id,
            pattern=pattern.name,
            fan_out=len(targets),
            trace_id=trace_id,
            lane="coordinator",
        ) as qspan:
            calls = []
            for sg, placement in targets:
                sspan = None
                trace_ctx = None
                if tracer is not None:
                    # one manually-started scatter span per shard: it is
                    # the ingest parent and its start is the re-anchor
                    # point for the shard's whole span tree
                    sspan = tracer.start_span(
                        "cluster.scatter",
                        parent=qspan,
                        shard=sg.name,
                        trace_id=trace_id,
                        lane="coordinator",
                    )
                    scatter_spans[sg.name] = sspan
                    trace_ctx = TraceContext(
                        trace_id=trace_id,
                        parent_span_id=sspan.span_id,
                        anchor=time.time(),
                    )
                calls.append(
                    (
                        sg,
                        placement,
                        {
                            "op": "query",
                            "graph_id": graph_id,
                            "pattern": pattern,
                            "induced": induced,
                            "engine": engine,
                            "config": config,
                            "use_cache": use_cache,
                            "timeout": self.request_timeout,
                            "trace": trace_ctx,
                        },
                        sspan,
                    )
                )
            futures = []
            for sg, placement, payload, sspan in calls:
                _, est, budget = predictions.get(
                    sg.name, (None, None, None)
                )
                futures.append(
                    (
                        sg,
                        placement,
                        self._pool.submit(
                            self._shard_request,
                            sg,
                            payload,
                            sspan,
                            budget=budget,
                            predicted=(
                                est.seconds if est is not None else 0.0
                            ),
                        ),
                    )
                )
            replies: "list[tuple[tuple[int, int], SimReport]]" = []
            served_by: dict[str, str] = {}
            failed: dict[str, str] = {}
            failovers = 0
            hedged = 0
            for sg, placement, future in futures:
                try:
                    value, meta = future.result()
                except BaseException as exc:
                    failed[sg.name] = repr(exc)
                    self._record_shard_failure(
                        sg.name,
                        op="query",
                        graph_id=graph_id,
                        error=repr(exc),
                    )
                    continue
                self._record_shard_success(sg.name)
                failovers += meta.get("failovers", 0)
                hedged += 1 if meta.get("hedged") else 0
                served_by[sg.name] = meta.get("replica", sg.name)
                shard_elapsed = meta.get("elapsed")
                prediction = predictions.get(sg.name)
                if prediction is not None and shard_elapsed:
                    feats, est, _ = prediction
                    self.predictor.observe(
                        feats, predict_engine, shard_elapsed
                    )
                    if est.seconds > 0.0:
                        self.predictor.record_accuracy(
                            est.seconds, shard_elapsed
                        )
                envelope = value if isinstance(value, dict) else {
                    "report": value
                }
                self.federation.apply(
                    envelope.get("shard", sg.name),
                    envelope.get("metrics"),
                )
                if tracer is not None:
                    self._adopt_shard_trace(
                        sg.name,
                        envelope,
                        scatter_spans.get(sg.name),
                    )
                replies.append(
                    (
                        (placement.lo, placement.hi),
                        envelope["report"],
                    )
                )
        elapsed = time.perf_counter() - started
        self.metrics.histogram(
            "repro_cluster_query_seconds",
            "end-to-end scatter/gather query latency",
        ).observe(elapsed)
        self.slo.record(elapsed, ok=not failed)
        if not replies:
            self.flight.record(
                "query_failed",
                graph_id=graph_id,
                pattern=pattern.name,
                failed_shards=sorted(failed),
            )
            self.flight.auto_dump("query-failed")
            raise ClusterError(
                f"query {pattern.name!r} on {graph_id!r} failed on every "
                f"shard: {failed}"
            )
        merged = merge_replies(
            replies,
            graph_name=graph_id,
            pattern_name=pattern.name,
        )
        merged.config_name = cfg.name
        merged.notes["cluster"] = {
            "shards": len(placements),
            "queried": len(targets),
            "ok": len(replies),
            "partial": bool(failed),
            "failed_shards": sorted(failed),
            "failures": failed,
            "served_by": served_by,
            "failovers": failovers,
            "hedged": hedged,
            "predicted_seconds": {
                name: round(est.seconds, 6)
                for name, (_, est, _) in predictions.items()
            },
        }
        if trace_id is not None:
            merged.notes["cluster"]["trace_id"] = trace_id
        if failed:
            self.metrics.counter(
                "repro_cluster_partial_results_total",
                "merged results missing at least one shard",
            ).inc()
            self.flight.record(
                "partial_result",
                graph_id=graph_id,
                pattern=pattern.name,
                failed_shards=sorted(failed),
            )
            self.flight.auto_dump("shard-failure")
        return merged

    def _adopt_shard_trace(
        self, shard: str, envelope: dict, sspan: "Span | None"
    ) -> None:
        """Re-anchor one shard's span tree under its scatter span.

        The batch is shifted so its earliest start (the shard's
        ``service.job``) lands exactly at the scatter span's start —
        shards have their own ``perf_counter`` origin, so only the
        coordinator timeline is meaningful after the merge.  Adopted
        spans get ``shard``/``lane`` attributes so the Chrome export
        gives each shard its own track.
        """
        tracer = self._tracer
        if tracer is None:
            return
        profile = envelope.get("profile")
        if profile is not None:
            self._profiles.append((shard, profile))
        spans = envelope.get("spans") or []
        if not spans:
            return
        adopted = tracer.ingest(
            spans,
            parent=sspan,
            align_to=sspan.start if sspan is not None else None,
        )
        replica = envelope.get("shard")
        for sp in adopted:
            sp.attrs.setdefault("shard", shard)
            if replica is not None:
                sp.attrs.setdefault("replica", replica)
            sp.attrs["lane"] = shard

    def count(self, graph_id: str, pattern: "Pattern", **kwargs) -> int:
        """Cluster-wide embedding count (raises on partial results)."""
        report = self.query(graph_id, pattern, **kwargs)
        if report.notes["cluster"]["partial"]:
            raise ClusterError(
                f"partial cluster result for {pattern.name!r} on "
                f"{graph_id!r}: shards "
                f"{report.notes['cluster']['failed_shards']} failed"
            )
        return report.embeddings

    # -- health / lifecycle ------------------------------------------------

    def health(self) -> ClusterHealth:
        """Gather per-replica health; aggregate to one cluster state.

        Replica replies piggyback metrics deltas (federated here) and
        the SLO tracker's statuses join the report: a burning error
        budget degrades the cluster even while every replica is
        individually healthy.  A non-healthy aggregate records a flight
        event and — once per state, when a flight dir is configured —
        auto-dumps the coordinator's ring.
        """
        results = self._scatter(
            [(r, {"op": "health"}) for r in self._replicas]
        )
        shards: dict[str, "HealthReport | None"] = {}
        worst = HealthState.HEALTHY
        any_dead = False
        for replica, value, exc in results:
            if exc is not None:
                shards[replica.name] = None
                any_dead = True
                self._record_shard_failure(
                    replica.name,
                    op="health",
                    error=repr(exc),
                )
                continue
            self._record_shard_success(replica.name)
            if isinstance(value, dict) and "report" in value:
                report = value["report"]
                self.federation.apply(
                    replica.name, value.get("metrics")
                )
            else:  # bare HealthReport (older shard)
                report = value
            shards[replica.name] = report
            if report.state.value > worst.value:
                worst = report.state
        snapshots = self._breakers.snapshots()
        breaker_open = any(s.state != "closed" for s in snapshots.values())
        slo_statuses = self.slo.evaluate()
        slo_violated = any(not st.met for st in slo_statuses.values())
        replica_states = {
            sg.name: {
                name: state.name.lower()
                for name, state in sg.group.states().items()
            }
            for sg in self._groups
        }
        any_evicted = any(
            state == "evicted"
            for group in replica_states.values()
            for state in group.values()
        )
        if (
            (any_dead or breaker_open or slo_violated or any_evicted)
            and worst is HealthState.HEALTHY
        ):
            worst = HealthState.DEGRADED
        if worst is not HealthState.HEALTHY:
            self.flight.record(
                "health_degraded",
                state=worst.name.lower(),
                dead=sorted(
                    name for name, r in shards.items() if r is None
                ),
                slo_violations=sorted(
                    name for name, st in slo_statuses.items()
                    if not st.met
                ),
            )
            self.flight.auto_dump(f"health-{worst.name.lower()}")
        return ClusterHealth(
            state=worst,
            shards=shards,
            breakers=snapshots,
            slo=slo_statuses,
            replicas=replica_states,
        )

    def stats(self) -> dict:
        """Per-replica worker stats (``op: stats``) keyed by name.

        Unreachable replicas map to None — the ``top`` dashboard
        renders them as DEAD rows instead of erroring out.
        """
        results = self._scatter(
            [(r, {"op": "stats"}) for r in self._replicas]
        )
        return {
            replica.name: (None if exc is not None else value)
            for replica, value, exc in results
        }

    def predictor_snapshot(self) -> dict:
        """Accuracy + coverage of the coordinator's per-shard cost model.

        The same shape as the service-level
        ``QueryService.stats().predictor`` snapshot: the accuracy window
        (predicted/actual ratio percentiles, fraction within 2x), the
        number of observations, profiled shapes, and learned per-engine
        throughput rates.
        """
        return self.predictor.snapshot()

    def shard_flight(self, shard: str) -> dict:
        """Fetch one live shard's flight-recorder ring (``op: flight``).

        ``shard`` may name a replica directly, or a shard group — the
        group resolves to its current preferred replica.
        """
        replica = self._replica_by_name.get(shard)
        if replica is None:
            for sg in self._groups:
                if sg.name == shard:
                    ranked = sg.group.ranked()
                    replica = self._replica_by_name[ranked[0]]
                    break
        if replica is None:
            raise ClusterError(f"unknown shard {shard!r}")
        return self._call(replica, {"op": "flight"})

    # -- observability surfaces --------------------------------------------

    @property
    def observability(self) -> bool:
        return self._tracer is not None

    @property
    def replicated(self) -> bool:
        """True when any shard group has more than one replica."""
        return self._replicated

    def replica_states(self) -> dict[str, dict[str, str]]:
        """``{shard: {replica: state}}`` routing view (CLI/tests)."""
        return {
            sg.name: {
                name: state.name.lower()
                for name, state in sg.group.states().items()
            }
            for sg in self._groups
        }

    def metrics_text(self) -> str:
        """One Prometheus exposition for the whole cluster.

        Shard series carry ``shard=<name>`` labels (with histogram
        aggregates under ``shard="all"``); the coordinator's own
        registry is folded in as ``shard="coordinator"`` through the
        same delta path.
        """
        self.federation.apply(
            "coordinator", self._self_delta.collect(), aggregate=False
        )
        return self.federation.render()

    def trace_events(self) -> list[dict]:
        """Chrome trace events: one merged cluster timeline.

        Coordinator spans share the ``coordinator`` lane; each shard's
        re-anchored span tree gets its own lane; each shard's PE
        activity (from shipped profiles) gets its own
        ``accelerator (cycles) — <shard>`` process.
        """
        if self._tracer is None:
            raise ClusterError(
                "tracing is disabled; construct the coordinator with "
                "observability=True"
            )
        pe_groups: dict[str, list] = {}
        for shard, profile in self._profiles:
            pe_groups.setdefault(shard, []).extend(profile.pe_events)
        return chrome_trace_events(
            self._tracer.finished(), pe_groups=pe_groups
        )

    def export_trace(self, path: str | None = None) -> list[dict]:
        """The merged cluster Chrome/Perfetto trace; written when ``path``
        is given.  Always returns the event list."""
        events = self.trace_events()
        if path is not None:
            payload = {"traceEvents": events, "displayTimeUnit": "ms"}
            Path(path).write_text(json.dumps(payload))
        return events

    def shutdown(self, stop_workers: bool = True) -> None:
        """Close connections (optionally stopping the workers first)."""
        if self._shutdown:
            return
        self._shutdown = True
        self.prober.stop()
        if stop_workers:
            self._scatter(
                [(r, {"op": "shutdown"}) for r in self._replicas]
            )
        for replica in self._replicas:
            replica.close()
        # join the pool threads now that no replica can block them —
        # unless this call runs on one of them, which cannot join itself
        me = threading.current_thread()
        for pool in (self._pool, self._hedge_pool):
            if pool is not None:
                pool.shutdown(
                    wait=me not in pool._threads, cancel_futures=True
                )

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Coordinator({len(self._groups)} shards, "
            f"{len(self._replicas)} replicas, "
            f"graphs={sorted(self._graphs)})"
        )


class LocalCluster:
    """Workers + coordinator in one process — the cluster's ``localhost``.

    Spins up ``num_shards`` shard groups of ``replicas``
    :class:`ShardWorker`\\ s each on the chosen transport and a
    :class:`Coordinator` over them.  With ``replicas=1`` (the default)
    workers keep the bare ``shard<i>`` names and the cluster behaves
    exactly like the pre-replication one; with more, replicas are named
    ``shard<i>/r<j>``.  ``mode`` selects each worker's service pool:
    ``inline`` for deterministic tests, ``process`` to give every shard
    its own OS process (how the scaling benchmark runs).
    :meth:`kill_shard` / :meth:`kill_replica` are the chaos hooks and
    :meth:`revive_replica` the recovery hook; killed workers are still
    resource-reclaimed by :meth:`shutdown`.
    """

    def __init__(
        self,
        num_shards: int | None = None,
        config: SystemConfig | None = None,
        *,
        transport: str = "inproc",
        mode: str = "inline",
        max_workers: int | None = None,
        observability: bool = False,
        request_timeout: float = 120.0,
        flight_dir: "str | Path | None" = None,
        replicas: int | None = None,
        retry: "RetryPolicy | None" = None,
        hedge: "HedgePolicy | None" = None,
        probe_interval: float = 0.0,
        probe_failures: int = 3,
        probe_recoveries: int = 2,
        probe_timeout: float = 5.0,
    ) -> None:
        self.config = config or xset_default()
        if num_shards is None:
            num_shards = self.config.cluster_shards or 2
        if num_shards < 1:
            raise ClusterError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if replicas is None:
            replicas = self.config.cluster_replicas
        if replicas < 1:
            raise ClusterError(
                f"replicas must be >= 1, got {replicas}"
            )
        self.transport_name = transport
        self.num_replicas = replicas
        tr = get_transport(transport)
        # observability propagates to every shard service: the workers
        # record the spans/profiles the coordinator re-anchors
        self.worker_groups: "list[list[ShardWorker]]" = []
        for i in range(num_shards):
            group = [
                ShardWorker(
                    f"shard{i}" if replicas == 1 else f"shard{i}/r{j}",
                    tr,
                    self.config,
                    mode=mode,
                    max_workers=max_workers,
                    observability=observability,
                )
                for j in range(replicas)
            ]
            self.worker_groups.append(group)
        self.workers: "list[ShardWorker]" = [
            worker for group in self.worker_groups for worker in group
        ]
        self.coordinator = Coordinator(
            [
                (
                    f"shard{i}",
                    [(w.name, w.address) for w in group],
                )
                for i, group in enumerate(self.worker_groups)
            ],
            tr,
            self.config,
            observability=observability,
            request_timeout=request_timeout,
            flight_dir=flight_dir,
            retry=retry,
            hedge=hedge,
            probe_interval=probe_interval,
            probe_failures=probe_failures,
            probe_recoveries=probe_recoveries,
            probe_timeout=probe_timeout,
        )

    def kill_shard(self, index: int) -> str:
        """Chaos: kill shard ``index``'s primary replica; returns its
        name.  With ``replicas=1`` this makes the whole shard
        unreachable (the pre-replication behaviour); with more, the
        siblings keep answering."""
        return self.kill_replica(index, 0)

    def kill_replica(self, shard_index: int, replica_index: int = 0) -> str:
        """Chaos: make one replica unreachable; returns its name."""
        worker = self.worker_groups[shard_index][replica_index]
        worker.kill()
        self.coordinator.flight.record("shard_kill", shard=worker.name)
        return worker.name

    def revive_replica(
        self, shard_index: int, replica_index: int = 0
    ) -> str:
        """Recovery: bring a killed replica back on its old address."""
        worker = self.worker_groups[shard_index][replica_index]
        worker.revive()
        self.coordinator.flight.record(
            "shard_revive", shard=worker.name
        )
        return worker.name

    def shutdown(self) -> None:
        """Stop everything; always reclaims shm, even for killed shards."""
        self.coordinator.shutdown(stop_workers=True)
        for worker in self.workers:
            worker.force_close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
