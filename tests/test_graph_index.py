"""The per-snapshot graph index and the plan / config-key memos.

``graph.index`` holds every table the engines derive from a graph's CSR
arrays (adjacency bitset or edge keys, row ends, BitmapCSR row words).  It
is built lazily, once per snapshot and process, never pickled, and read
only — like the graph's own arrays.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import sys

import numpy as np
import pytest

from repro.core.api import XSetAccelerator
from repro.core.config import xset_default
from repro.engine.functional import (
    FrontierExpander,
    expand_frontier,
    row_word_counts,
)
from repro.errors import PlanError
from repro.graph import CSRGraph, attach_graph, erdos_renyi, share_graph
from repro.graph.index import GraphIndex, index_build_counts
from repro.patterns import PATTERNS, build_plan, count_embeddings
from repro.service import QueryService
from repro.service.worker import worker_graph_cache_info
from repro.setops.bulk import PACKED_ADJ_MAX_VERTICES

ENGINES = ("event", "batched", "codegen")
BATCHED = xset_default(engine="batched")


def _builds_since(before: dict) -> dict:
    now = index_build_counts()
    return {kind: now[kind] - before[kind] for kind in now}


def _expected(graph: CSRGraph, name: str) -> int:
    return count_embeddings(graph, build_plan(PATTERNS[name])).embeddings


def _worker_infos(svc: QueryService, probes: int = 8) -> dict:
    """``worker_graph_cache_info()`` of every pool worker the probes reach."""
    infos = {}
    for _ in range(probes):
        info = svc._executor.submit(worker_graph_cache_info).result(
            timeout=60
        )
        infos[info["pid"]] = info
    return infos


class TestBuildOnce:
    def test_every_engine_and_width_shares_one_index(self, small_er):
        before = index_build_counts()
        for width in (0, 8):
            config = xset_default(bitmap_width=width)
            for name in ("3CF", "4CF", "DIA", "TT"):
                counts = {
                    engine: XSetAccelerator(config, engine=engine)
                    .count(small_er, PATTERNS[name])
                    .embeddings
                    for engine in ENGINES
                }
                assert set(counts.values()) == {_expected(small_er, name)}
        # one adjacency build for the snapshot, one row-word table per width
        assert _builds_since(before) == {"adjacency": 1, "row_words": 2}

    def test_expander_reuses_the_snapshot_tables(self, medium_er):
        plan = build_plan(PATTERNS["3CF"])
        a = FrontierExpander(medium_er, plan, 8)
        b = FrontierExpander(medium_er, build_plan(PATTERNS["TT"]), 8)
        assert a._adj_bits is b._adj_bits is medium_er.index.adj_bits
        assert a.row_words is b.row_words is medium_er.index.row_words(8)
        assert medium_er.index is GraphIndex.of(medium_er)

    @pytest.mark.parametrize("width", [0, 8])
    def test_cached_and_fresh_indexes_give_identical_levels(
        self, width, monkeypatch
    ):
        leaf_word_calls = []
        count_words = FrontierExpander._count_leaf_words

        def spy(self, level, emb):
            leaf_word_calls.append(level)
            return count_words(self, level, emb)

        monkeypatch.setattr(FrontierExpander, "_count_leaf_words", spy)
        graph = erdos_renyi(400, 24.0, seed=9, name="dense400")
        for name in ("3CF", "4CF", "DIA", "TT", "CYC"):
            plan = build_plan(PATTERNS[name])
            expand_frontier(graph, plan, bitmap_width=width)  # warm
            cached = expand_frontier(graph, plan, bitmap_width=width)
            twin = CSRGraph(indptr=graph.indptr, indices=graph.indices)
            fresh = expand_frontier(twin, plan, bitmap_width=width)
            assert len(cached) == len(fresh)
            for got, want in zip(cached, fresh):
                for f in dataclasses.fields(got):
                    a, b = getattr(got, f.name), getattr(want, f.name)
                    if isinstance(a, np.ndarray):
                        assert np.array_equal(a, b), (name, f.name)
                    else:
                        assert a == b, (name, f.name)
        # the word-kernel leaf (which reads adj_words and row_end) ran too
        assert leaf_word_calls

    def test_cached_tables_equal_a_fresh_build(self, skewed_graph):
        cached = skewed_graph.index
        fresh = GraphIndex(skewed_graph)
        assert fresh is not cached
        for attr in ("adj_bits", "adj_words", "row_end"):
            assert np.array_equal(getattr(cached, attr), getattr(fresh, attr))
        for width in (0, 4, 8):
            assert np.array_equal(
                cached.row_words(width), row_word_counts(skewed_graph, width)
            )

    def test_labelled_graph(self):
        graph = erdos_renyi(90, 9.0, seed=12).with_labels(
            np.arange(90) % 3
        )
        pattern = PATTERNS["3CF"].with_labels([0, 1, 2])
        want = count_embeddings(graph, build_plan(pattern)).embeddings
        before = index_build_counts()
        for engine in ENGINES:
            for _ in range(2):
                got = XSetAccelerator(engine=engine).count(graph, pattern)
                assert got.embeddings == want
        assert _builds_since(before) == {"adjacency": 1, "row_words": 1}

    def test_graph_above_the_bitset_cap_uses_edge_keys(self):
        graph = erdos_renyi(PACKED_ADJ_MAX_VERTICES + 500, 3.0, seed=2)
        accel = XSetAccelerator(engine="batched")
        for name in ("3CF", "TT"):
            assert accel.count(graph, PATTERNS[name]).embeddings == (
                _expected(graph, name)
            )
        index = graph.index
        assert index.adj_bits is None and index.adj_words is None
        assert index.edge_keys.size == graph.indices.size
        assert np.all(np.diff(index.edge_keys) > 0)


class TestServiceLifetime:
    def test_process_workers_build_at_most_once_per_snapshot(
        self, medium_er
    ):
        names = ("3CF", "4CF", "DIA", "TT")
        want = {name: _expected(medium_er, name) for name in names}
        svc = QueryService(BATCHED, mode="process", max_workers=2)
        try:
            gid = svc.register_graph(medium_er, "g")
            handles = [
                (name, svc.submit(gid, PATTERNS[name], use_cache=False))
                for name in names * 5
            ]
            for name, handle in handles:
                assert handle.result(timeout=120).embeddings == want[name]
            infos = _worker_infos(svc)
        finally:
            svc.shutdown()
        assert all(info["index_builds"] <= 1 for info in infos.values())
        assert sum(info["index_builds"] for info in infos.values()) >= 1

    def test_update_graph_rebuilds_the_worker_index(self, medium_er):
        names = ("3CF", "DIA", "TT")
        new = erdos_renyi(70, 9.0, seed=4, name="er70")
        svc = QueryService(BATCHED, mode="process", max_workers=1)
        try:
            gid = svc.register_graph(medium_er, "g")
            for name in names:
                got = svc.submit(gid, PATTERNS[name], use_cache=False)
                assert got.result(timeout=120).embeddings == (
                    _expected(medium_er, name)
                )
            (first,) = _worker_infos(svc, probes=1).values()
            svc.update_graph(gid, new)
            for name in names:
                got = svc.submit(gid, PATTERNS[name], use_cache=False)
                assert got.result(timeout=120).embeddings == (
                    _expected(new, name)
                )
            (second,) = _worker_infos(svc, probes=1).values()
        finally:
            svc.shutdown()
        assert second["pid"] == first["pid"]
        assert (first["index_builds"], second["index_builds"]) == (1, 2)
        assert second["graphs"] == [gid]

    def test_concurrent_first_queries_share_one_index(self):
        graph = erdos_renyi(300, 14.0, seed=21, name="er300")
        names = ("4CF", "TT", "DIA", "3CF") * 4
        want = {name: _expected(graph, name) for name in set(names)}
        before = index_build_counts()
        # more workers than cores, and frequent thread switches, so a
        # racy first build would show up as a second build or a bad count
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        svc = QueryService(BATCHED, mode="thread", max_workers=4)
        try:
            gid = svc.register_graph(graph, "g")
            handles = [
                (name, svc.submit(gid, PATTERNS[name], use_cache=False))
                for name in names
            ]
            for name, handle in handles:
                assert handle.result(timeout=120).embeddings == want[name]
        finally:
            svc.shutdown()
            sys.setswitchinterval(interval)
        assert _builds_since(before) == {"adjacency": 1, "row_words": 1}


class TestSnapshotHygiene:
    def test_pickle_repr_fingerprint_and_eq_ignore_the_index(
        self, medium_er
    ):
        payload = pickle.dumps(medium_er)
        fingerprint, text = medium_er.fingerprint(), repr(medium_er)
        XSetAccelerator(engine="batched").count(medium_er, PATTERNS["3CF"])
        assert medium_er._index is not None
        assert pickle.dumps(medium_er) == payload
        assert medium_er.fingerprint() == fingerprint
        assert repr(medium_er) == text
        clone = copy.copy(medium_er)
        assert clone._index is None and clone == medium_er
        assert pickle.loads(payload)._index is None

    def test_in_place_edits_raise(self, toy_graph):
        graph = toy_graph.with_labels([0, 1, 0, 1, 0, 1])
        for arr in (graph.indptr, graph.indices, graph.labels,
                    graph.degrees, graph.neighbors(2)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_unpickled_graph_stays_read_only(self, toy_graph):
        clone = pickle.loads(pickle.dumps(toy_graph))
        with pytest.raises(ValueError, match="read-only"):
            clone.indices[0] = 5

    def test_shm_attached_views_are_read_only(self, medium_er):
        segment = share_graph(medium_er.with_labels(np.zeros(60)))
        attached = attach_graph(segment.ref)
        try:
            graph = attached.graph
            for arr in (graph.indptr, graph.indices, graph.labels):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1
            del graph, arr
        finally:
            attached.close()
            segment.unlink()

    def test_index_tables_are_read_only(self, small_er):
        index = small_er.index
        for arr in (index.adj_bits, index.adj_words, index.row_end,
                    index.row_words(8)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


class TestMemoisation:
    def test_build_plan_returns_one_object_per_query_shape(self):
        dia = PATTERNS["DIA"]
        plan = build_plan(dia)
        assert build_plan(dia) is plan
        assert build_plan(dia, induced=False) is plan  # resolved default
        other = next(
            order
            for order in itertools.permutations(range(4))
            if order != plan.order and _valid_order(dia, order)
        )
        assert build_plan(dia, order=list(other)) is build_plan(
            dia, order=other
        )
        variants = [
            plan,
            build_plan(dia, induced=True),
            build_plan(dia, collection="enumerate"),
            build_plan(dia, order=other),
        ]
        assert len({id(v) for v in variants}) == len(variants)
        assert build_plan(PATTERNS["TT"]) is build_plan(
            PATTERNS["TT"], induced=True
        )

    def test_config_cache_key_is_computed_once(self):
        config = xset_default(engine="batched", scheduler_params={"a": 1})
        payload = pickle.dumps(config)
        key = config.cache_key()
        assert config.cache_key() is key
        assert pickle.dumps(config) == payload
        assert pickle.loads(payload).cache_key() == key
        assert config.with_overrides(num_pes=2).cache_key() != key


def _valid_order(pattern, order) -> bool:
    try:
        build_plan(pattern, order=order)
    except PlanError:
        return False
    return True
