"""The leaf word kernel: counting the last plan level from 64-bit adjacency
words must give the gather path's ``FrontierLevel`` field by field."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import functional
from repro.engine.functional import FrontierExpander, expand_frontier
from repro.graph import CSRGraph, erdos_renyi
from repro.patterns import PATTERNS, build_plan, count_embeddings
from repro.setops.bulk import PACKED_ADJ_MAX_VERTICES

FIELDS = (
    "level", "tasks", "count", "set_ops", "comparisons", "words_in",
    "words_out",
)


def leaf_rows(ex: FrontierExpander, plan) -> np.ndarray:
    """The partial embeddings that reach ``plan``'s leaf level."""
    emb = ex.roots()
    for level in range(1, plan.stop_level):
        emb = ex.expand(level, emb).embeddings
    return emb


def assert_same_leaf(graph, plan, bitmap_width=0):
    ex = FrontierExpander(graph, plan, bitmap_width)
    emb = leaf_rows(ex, plan)
    if emb.shape[0] == 0:
        return  # the sweep stops before an empty leaf
    gather = ex._expand_gather(plan.stop_level, emb)
    words = ex._count_leaf_words(plan.stop_level, emb)
    for f in FIELDS:
        assert getattr(words, f) == getattr(gather, f), (plan.pattern.name, f)
    assert words.embeddings.shape == gather.embeddings.shape


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_every_pattern_matches_gather(medium_er, skewed_graph, name):
    plan = build_plan(PATTERNS[name])
    for graph in (medium_er, skewed_graph):
        assert_same_leaf(graph, plan)
        assert_same_leaf(graph, plan, bitmap_width=8)


def test_leaf_shapes_are_covered():
    """The pattern set exercises choose2, exclusions and unbounded leaves."""
    leaves = {
        name: build_plan(p).levels[build_plan(p).stop_level]
        for name, p in PATTERNS.items()
    }
    assert build_plan(PATTERNS["DIA"]).collection == "choose2"
    for name in ("TT", "CYC", "HOUSE", "C5", "P3"):
        assert leaves[name].exclude, name
    assert any(lv.upper_bounds for lv in leaves.values())
    assert any(not lv.upper_bounds for lv in leaves.values())
    assert any(lv.anti_deps for lv in leaves.values())


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_word_boundaries(n):
    graph = erdos_renyi(n, 14.0, seed=n, name=f"er{n}")
    words = n // 64 + (n % 64 > 0)
    ex = FrontierExpander(graph, build_plan(PATTERNS["3CF"]))
    assert ex._adj_words.shape == (n, words)
    for name in sorted(PATTERNS):
        assert_same_leaf(graph, build_plan(PATTERNS[name]))


def test_large_leaf_takes_word_path_and_counts_exactly():
    graph = erdos_renyi(400, 40.0, seed=9, name="er400")
    for name in ("3CF", "TT", "CYC", "DIA"):
        plan = build_plan(PATTERNS[name])
        ex = FrontierExpander(graph, plan)
        emb = leaf_rows(ex, plan)
        lv = plan.levels[plan.stop_level]
        assert emb.shape[0] >= functional.LEAF_WORDS_MIN_ROWS, name
        assert ex._leaf_words_pay(lv, emb), name
        got = expand_frontier(graph, plan)[-1].count
        assert got == count_embeddings(graph, plan).embeddings, name


def test_small_leaf_always_gathers(monkeypatch, medium_er):
    def fail(*args, **kwargs):
        raise AssertionError("word kernel ran on a small leaf")

    monkeypatch.setattr(FrontierExpander, "_count_leaf_words", fail)
    plan = build_plan(PATTERNS["TT"])
    ex = FrontierExpander(medium_er, plan)
    emb = leaf_rows(ex, plan)
    assert emb.shape[0] < functional.LEAF_WORDS_MIN_ROWS
    ex.expand(plan.stop_level, emb)


def test_labelled_leaf_falls_back_to_gather(rng):
    graph = erdos_renyi(300, 30.0, seed=4).with_labels(
        rng.integers(0, 2, 300)
    )
    pattern = PATTERNS["3CF"].with_labels([0, 0, 0])
    plan = build_plan(pattern)
    ex = FrontierExpander(graph, plan)
    emb = leaf_rows(ex, plan)
    lv = plan.levels[plan.stop_level]
    assert lv.label is not None
    assert not ex._leaf_words_pay(lv, emb)
    got = expand_frontier(graph, plan)[-1].count
    assert got == count_embeddings(graph, plan).embeddings


def test_lower_bounded_leaf_falls_back_to_gather():
    graph = erdos_renyi(200, 30.0, seed=6)
    plan = build_plan(PATTERNS["3CF"])
    stop = plan.stop_level
    lv = dataclasses.replace(plan.levels[stop], lower_bounds=(0,))
    plan = dataclasses.replace(
        plan, levels=(*plan.levels[:stop], lv, *plan.levels[stop + 1 :])
    )
    ex = FrontierExpander(graph, plan)
    assert not ex._leaf_words_pay(lv, leaf_rows(ex, plan))


def test_graph_over_bitset_cap_falls_back_to_gather():
    n = PACKED_ADJ_MAX_VERTICES + 1
    # disjoint 5-cliques: 10 triangles each, a leaf of 10 rows per clique
    cliques = 1000
    edges = [
        (5 * c + i, 5 * c + j)
        for c in range(cliques)
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    graph = CSRGraph.from_edges(n, edges, name="cliques")
    plan = build_plan(PATTERNS["3CF"])
    ex = FrontierExpander(graph, plan)
    assert ex._adj_words is None
    emb = leaf_rows(ex, plan)
    assert emb.shape[0] >= functional.LEAF_WORDS_MIN_ROWS
    assert not ex._leaf_words_pay(plan.levels[plan.stop_level], emb)
    assert ex.expand(plan.stop_level, emb).count == 10 * cliques


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=140),
    degree=st.floats(min_value=1.0, max_value=24.0),
    seed=st.integers(min_value=0, max_value=10_000),
    name=st.sampled_from(sorted(PATTERNS)),
    bitmap_width=st.sampled_from([0, 8, 64]),
)
def test_random_graphs_match_gather(n, degree, seed, name, bitmap_width):
    graph = erdos_renyi(n, min(degree, n - 1.0), seed=seed)
    assert_same_leaf(graph, build_plan(PATTERNS[name]), bitmap_width)
