"""Per-layer numbers for the traced run.

A process-mode service or a cluster cannot be timed from inside without
instrumenting ``src/``, so the traced run re-times the workload's own
queries one layer lower at a time, in this process, and subtracts:

    engine (index, sweep levels, leaf, annotate) -> engine.run
      -> run_on_soc -> inline service -> process service
      -> 1-shard inproc cluster -> 2-shard inproc -> 2-shard tcp

Every timed call is a span (``spans.Tracer``); each number below is a
median over repeats of one distinct query, then a mean over the
workload's distinct queries weighted by their share of the query mix.
"""

from __future__ import annotations

import statistics
from contextlib import ExitStack

import numpy as np

from repro.cluster import LocalCluster
from repro.core.incremental import IncrementalGPM
from repro.engine import get_engine
from repro.engine.functional import FrontierExpander, FrontierLevel
from repro.engine.temporal import annotate_frontier_report
from repro.graph.store import share_graph
from repro.patterns import PATTERNS, build_plan
from repro.service import QueryService
from repro.sim.host import run_on_soc
from repro.sim.report import SimReport
from repro.siu.models import make_siu

from workloads import BATCHED, RESULT_TIMEOUT, edge_stream, make_graph

#: timed repeats per distinct query (after one untimed warm-up); the
#: engine ladder runs every query of the workload, so it repeats less
REPEATS = 5
ENGINE_REPEATS = 3
#: roots expanded per sweep chunk (bounds frontier memory, as the engine does)
ROOT_CHUNK = 4096
#: distinct queries re-timed through the service and cluster wrappers
WRAPPER_QUERIES = 2
#: slowest engine run (seconds) a wrapper query may have
WRAPPER_MAX_RUN = 0.005
#: edge updates applied by the incremental probe
PROBE_UPDATES = 24
WORK_FIELDS = ("tasks", "set_ops", "comparisons", "words_in", "words_out", "embeddings")


def _median_by_qid(tracer, name, qids):
    """Median over repeats of the summed ``name`` spans of each query."""
    per = {}
    for s in tracer.spans:
        if s.name == name and s.qid in qids:
            per[s.qid] = per.get(s.qid, 0.0) + (s.end - s.start)
    return statistics.median(per.get(q, 0.0) for q in qids)


def decompose(tracer, graph, pattern_name, qid, config=BATCHED):
    """One batched run taken apart at the engine's public seams.

    Returns the per-level aggregates; the caller checks that they equal
    ``engine.run``'s report, so the decomposition measures the real work.
    """
    with tracer.span("plan.build", qid):
        plan = build_plan(PATTERNS[pattern_name])
    siu = make_siu(config.siu_kind, config.segment_width, config.bitmap_width)
    with tracer.span("engine.index", qid):
        expander = FrontierExpander(graph, plan, siu.bitmap_width)
    roots = expander.roots()
    merged = [
        FrontierLevel(level=lv, tasks=0, embeddings=np.zeros((0, 0)))
        for lv in range(1, plan.stop_level + 1)
    ]
    for start in range(0, roots.shape[0], ROOT_CHUNK):
        emb = roots[start : start + ROOT_CHUNK]
        for level in range(1, plan.stop_level + 1):
            name = "engine.leaf" if level == plan.stop_level else "engine.sweep"
            with tracer.span(name, qid):
                step = expander.expand(level, emb)
            agg = merged[level - 1]
            agg.tasks += step.tasks
            agg.count += step.count
            agg.set_ops += step.set_ops
            agg.comparisons += step.comparisons
            agg.words_in += step.words_in
            agg.words_out += step.words_out
            emb = step.embeddings
            if emb.shape[0] == 0:
                break
    report = SimReport(
        config_name=config.name,
        graph_name=graph.name,
        pattern_name=pattern_name,
        frequency_ghz=config.frequency_ghz,
        num_sius=config.num_pes * config.sius_per_pe,
    )
    with tracer.span("engine.annotate", qid):
        annotate_frontier_report(report, merged, graph, config, siu)
    return plan, report, merged[-1]


def _work(report) -> tuple:
    return tuple(getattr(report, f) for f in WORK_FIELDS) + (report.cycles,)


def engine_layers(tracer, wl, gate) -> dict:
    """Engine and ``run_on_soc`` numbers over every distinct query."""
    weights = wl.weights()
    rows = {}
    engine = get_engine("batched")
    for pair, weight in weights.items():
        graph = wl.graphs[pair[0]]
        qids = []
        for rep in range(ENGINE_REPEATS + 1):
            qid = f"{pair[0]}/{pair[1]}#{rep}"
            plan, parts, leaf = decompose(tracer, graph, pair[1], qid)
            with tracer.span("engine.run", qid):
                report = engine.run(graph, plan, BATCHED)
            with tracer.span("sim.run_on_soc", qid):
                run_on_soc(graph, plan, BATCHED)
            gate.check(f"decomposed {pair}", _work(report), _work(parts))
            if rep:
                qids.append(qid)
        row = {
            name: _median_by_qid(tracer, name, qids)
            for name in (
                "plan.build", "engine.index", "engine.sweep", "engine.leaf",
                "engine.annotate", "engine.run", "sim.run_on_soc",
            )
        }
        row["leaf_count"] = leaf.count
        row["leaf_comparisons"] = leaf.comparisons
        row["report"] = report
        row["weight"] = weight
        rows[pair] = row

    def mean(key):
        return sum(r["weight"] * r[key] for r in rows.values())

    run = mean("engine.run")
    parts = sum(mean(k) for k in ("engine.index", "engine.sweep", "engine.leaf", "engine.annotate"))
    out = {
        "plan.build_us": mean("plan.build") * 1e6,
        "engine.index_ms": mean("engine.index") * 1e3,
        "engine.index_share": mean("engine.index") / run,
        "engine.sweep_ms": mean("engine.sweep") * 1e3,
        "engine.leaf_ms": mean("engine.leaf") * 1e3,
        "engine.leaf_share": mean("engine.leaf") / run,
        "engine.annotate_us": mean("engine.annotate") * 1e6,
        "engine.run_ms": run * 1e3,
        "engine.glue_ms": (run - parts) * 1e3,
        "engine.leaf_yield": sum(r["leaf_count"] for r in rows.values())
        / max(sum(r["leaf_comparisons"] for r in rows.values()), 1),
    }
    for f in WORK_FIELDS:
        out[f"engine.{f}"] = sum(getattr(r["report"], f) for r in rows.values())
    out["sim.host_us_per_task"] = 1e6 * sum(
        r["sim.run_on_soc"] for r in rows.values()
    ) / max(sum(r["report"].tasks for r in rows.values()), 1)
    return out, rows


def event_layers(tracer, wl) -> dict:
    """Host time per simulated task of the event simulator."""
    config = BATCHED.with_overrides(engine="event")
    seconds, tasks = 0.0, 0
    for pair in wl.weights():
        graph = wl.graphs[pair[0]]
        plan = build_plan(PATTERNS[pair[1]])
        qids = []
        for rep in range(2):
            qid = f"event {pair}#{rep}"
            with tracer.span("event.run_on_soc", qid):
                report = run_on_soc(graph, plan, config)
            qids.append(qid)
        seconds += _median_by_qid(tracer, "event.run_on_soc", qids)
        tasks += report.tasks
    return {"sim.host_us_per_task": seconds * 1e6 / tasks}


def wrapper_queries(wl, rows) -> tuple[dict, dict]:
    """``(graphs, {pair: weight})``: the workload's cheapest queries, or a
    PP@0.05/3CF probe when all of them are too slow for wrapper costs of
    a fraction of a millisecond to show above run-to-run noise."""
    cheap = sorted(
        (p for p in rows if rows[p]["engine.run"] <= WRAPPER_MAX_RUN),
        key=lambda p: rows[p]["engine.run"],
    )[:WRAPPER_QUERIES]
    if not cheap:
        return {"probe": make_graph("PP", 0.05, wl.seed, 99)}, {("probe", "3CF"): 1.0}
    total = sum(rows[p]["weight"] for p in cheap)
    return wl.graphs, {p: rows[p]["weight"] / total for p in cheap}


def wrapper_layers(tracer, graphs, pairs, gate, refs) -> tuple[dict, object, list]:
    """Dispatch, service and cluster self times on ``pairs``; also returns
    the process service's ``stats()`` and the cluster queries' notes."""
    gids = sorted({p[0] for p in pairs})
    notes = []
    with ExitStack() as stack:
        # clusters first, so they close last: the process pool forks its
        # workers on first use, and forked workers hold the clusters' tcp
        # sockets open until they exit, which stalls each shutdown ~40 s
        clusters = {
            name: stack.enter_context(
                LocalCluster(shards, BATCHED, transport=transport, mode="inline")
            )
            for name, shards, transport in (
                ("cluster.inproc1", 1, "inproc"),
                ("cluster.inproc2", 2, "inproc"),
                ("cluster.tcp2", 2, "tcp"),
            )
        }
        inline = stack.enter_context(QueryService(BATCHED, mode="inline"))
        proc = stack.enter_context(
            QueryService(BATCHED, mode="process", max_workers=2)
        )
        for gid in gids:
            inline.register_graph(graphs[gid], gid)
            proc.register_graph(graphs[gid], gid)
            for c in clusters.values():
                c.coordinator.register_graph(graphs[gid], gid)
        qids = {p: [] for p in pairs}
        for rep in range(REPEATS + 1):
            for pair in pairs:
                gid, pattern = pair[0], PATTERNS[pair[1]]
                qid = f"wrap {pair}#{rep}"
                graph, plan = graphs[gid], build_plan(pattern)
                with tracer.span("engine.run", qid):
                    get_engine("batched").run(graph, plan, BATCHED)
                with tracer.span("sim.run_on_soc", qid):
                    run_on_soc(graph, plan, BATCHED)
                with tracer.span("service.inline", qid):
                    got = [inline.count(gid, pattern, use_cache=False)]
                with tracer.span("service.process", qid):
                    with tracer.span("service.submit", qid):
                        handle = proc.submit(gid, pattern, use_cache=False)
                    got.append(handle.result(RESULT_TIMEOUT))
                for name, c in clusters.items():
                    with tracer.span(name, qid):
                        got.append(c.coordinator.query(gid, pattern, use_cache=False))
                    notes.append(got[-1].notes["cluster"])
                for report in got:
                    gate.check(f"ladder {pair}", refs[pair], report.embeddings)
                if rep:
                    qids[pair].append(qid)

        def mean(name):
            return sum(
                w * _median_by_qid(tracer, name, qids[p]) for p, w in pairs.items()
            )

        run = mean("engine.run")
        out = {
            "sim.dispatch_us": (mean("sim.run_on_soc") - run) * 1e6,
            "service.self_ms": (mean("service.inline") - run) * 1e3,
            "service.ipc_ms": (mean("service.process") - mean("service.inline")) * 1e3,
            "cluster.self_ms": (mean("cluster.inproc1") - mean("service.inline")) * 1e3,
            "cluster.scatter_ms": (mean("cluster.inproc2") - mean("cluster.inproc1")) * 1e3,
            "cluster.tcp_ms": (mean("cluster.tcp2") - mean("cluster.inproc2")) * 1e3,
        }
        stats = proc.stats()
    return out, stats, notes


def graph_layers(tracer, wl) -> dict:
    """Fingerprint and shm-segment cost of the workload's graphs."""
    fp, share = [], []
    for gid, graph in wl.graphs.items():
        qids = []
        for rep in range(REPEATS + 1):
            qid = f"graph {gid}#{rep}"
            with tracer.span("graph.fingerprint", qid):
                graph.fingerprint()
            with tracer.span("graph.share", qid):
                segment = share_graph(graph)
            segment.unlink()
            if rep:
                qids.append(qid)
        fp.append(_median_by_qid(tracer, "graph.fingerprint", qids))
        share.append(_median_by_qid(tracer, "graph.share", qids))
    return {
        "graph.fingerprint_ms": statistics.fmean(fp) * 1e3,
        "graph.share_ms": statistics.fmean(share) * 1e3,
    }


def incremental_layers(tracer, wl, gate) -> dict:
    """Edge updates on the lead graph: standalone delta vs service session."""
    graph = wl.graphs[wl.lead_graph]
    pattern = PATTERNS["3CF"]
    ops = edge_stream(graph, np.random.default_rng([wl.seed, 9]), PROBE_UPDATES)
    gpm = IncrementalGPM(graph, pattern)
    with QueryService(BATCHED, mode="process", max_workers=2) as service:
        service.register_graph(graph, "probe")
        session = service.dynamic_session("probe", pattern)
        service.count("probe", pattern, timeout=RESULT_TIMEOUT)
        for k, (sign, u, v) in enumerate(ops):
            for name, target in (("incremental.delta", gpm), ("probe.session", session)):
                with tracer.span(name, f"probe#{k}"):
                    if sign > 0:
                        target.insert_edge(u, v)
                    else:
                        target.remove_edge(u, v)
        gate.check("probe session count", gpm.count, session.count)
        report = service.count("probe", pattern, timeout=RESULT_TIMEOUT)
        gate.check("probe patched read", gpm.count, report.embeddings)
    delta = tracer.durations("incremental.delta")[-len(ops):]
    update = tracer.durations("probe.session")[-len(ops):]
    return {
        "incremental.delta_ms": statistics.median(delta) * 1e3,
        "incremental.hook_ms": (statistics.median(update) - statistics.median(delta)) * 1e3,
        "incremental.update_p50_ms": float(np.percentile(update, 50)) * 1e3,
        "incremental.update_p90_ms": float(np.percentile(update, 90)) * 1e3,
    }
