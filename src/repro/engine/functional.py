"""Functional layer: exact candidate-set expansion, no timing.

This module is the single source of truth for *what* a task computes —
which stored/neighbour set seeds the candidate set, which neighbour rows are
intersected or subtracted on top, and which bound/distinctness/label filters
prune the survivors.  Both execution engines consume it:

* the ``event`` backend expands one task at a time
  (:func:`expand_task`) and hands the per-operation records to the temporal
  layer for exact cycle annotation;
* the ``batched`` backend expands a whole frontier level at once with the
  bulk kernels in :mod:`repro.setops.bulk` (a large leaf level is counted
  from 64-bit adjacency words instead), charging analytic cycles in
  aggregate;
* the ``codegen`` backend replays the same per-level algebra from
  plan-specialised compiled source (:mod:`repro.patterns.codegen`), using
  :class:`FrontierExpander` only for its adjacency oracle and row-word
  geometry.

Nothing here touches the memory hierarchy, the SIU models or the clock, so
these kernels are trivially reusable by future backends (multiprocess
sharding, GPU, ...) that only need the functional result.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..patterns.executor import apply_filters
from ..patterns.plan import LevelSpec, MatchingPlan
from ..setops.bulk import (
    bulk_adjacency,
    bulk_adjacency_bits,
    edge_keys,
    gather_rows,
    packed_adjacency,
)
from ..setops.reference import difference_sorted, intersect_sorted

__all__ = [
    "SetOpRecord",
    "TaskExpansion",
    "expand_task",
    "leaf_count",
    "row_word_counts",
    "set_stream_words",
    "FrontierLevel",
    "expand_frontier",
]

# Leaf word kernel (``FrontierExpander._count_leaf_words``) and its cost
# rule (``_leaf_words_pay``).  Costs are in adjacency-word operations,
# fitted on PP/AS/WV/YT stand-in leaves of every built-in pattern.
#: fewest leaf rows worth evaluating the cost rule for; smaller leaves
#: always take the gather path
LEAF_WORDS_MIN_ROWS = 2048
#: fixed word-kernel cost per leaf row (index gathers, row bookkeeping)
LEAF_WORDS_ROW_COST = 22
#: fixed word-kernel cost per span group and operand (NumPy call overhead)
LEAF_WORDS_GROUP_COST = 2000
#: evenly spaced leaf rows the cost rule estimates its sums from
LEAF_RULE_SAMPLE = 1024
#: most 64-bit words one chunk of the word kernel holds per operand
LEAF_WORDS_CHUNK = 1 << 16

#: ``_LOW_BITS[k]`` keeps the low ``k`` bits of a word (k = 0..64)
_LOW_BITS = np.array(
    [(1 << k) - 1 for k in range(65)], dtype=np.uint64
)
#: ``_ONE_BIT[k]`` is bit ``k`` of a word
_ONE_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


# -- word-stream geometry (BitmapCSR) ---------------------------------------


def row_word_counts(graph: CSRGraph, width: int) -> np.ndarray:
    """BitmapCSR words per neighbour row, computed in one vectorised pass."""
    if width == 0:
        return graph.degrees.astype(np.int64)
    idx = graph.indices.astype(np.int64) // width
    if idx.size == 0:
        return np.zeros(graph.num_vertices, dtype=np.int64)
    flag = np.ones(idx.size, dtype=np.int64)
    flag[1:] = (idx[1:] != idx[:-1]).astype(np.int64)
    starts = graph.indptr[:-1]
    flag[starts[starts < idx.size]] = 1
    csum = np.concatenate([[0], np.cumsum(flag)])
    return csum[graph.indptr[1:]] - csum[graph.indptr[:-1]]


def set_stream_words(vertices: np.ndarray, width: int) -> int:
    """Stream length in BitmapCSR words of an arbitrary sorted set."""
    n = int(vertices.size)
    if width == 0 or n == 0:
        return n
    blocks = vertices // width
    return 1 + int(np.count_nonzero(blocks[1:] != blocks[:-1]))


# -- per-task expansion (event backend) -------------------------------------


@dataclass
class SetOpRecord:
    """One set operation of a task, functionally resolved.

    The temporal layer derives the operation's merge boundaries (and hence
    its exact cycle cost) from the three arrays — the simulator never
    re-derives what the functional layer already knows.
    """

    kind: str  # "set_int" | "set_diff"
    operand_vertex: int  # data vertex whose neighbour row is the B stream
    a: np.ndarray  # input set before the operation
    b: np.ndarray  # the neighbour row
    out: np.ndarray  # result


@dataclass
class TaskExpansion:
    """Functional outcome of one task: candidate set, ops, children."""

    #: how the seed set was obtained: "reuse" (ancestor's stored set, no
    #: computation), "stored" (ancestor's set extended by extra ops) or
    #: "neighbors" (a fresh neighbour-row load)
    mode: str
    #: ancestor level for "reuse"/"stored" modes
    source_level: int | None
    #: data vertex whose row seeds the set in "neighbors" mode
    source_vertex: int | None
    ops: list[SetOpRecord]
    result: np.ndarray  # final candidate set, before filters
    filtered: np.ndarray  # after bound/distinctness/label filters
    is_leaf: bool
    count: int  # leaf count contribution (0 for interior tasks)


def leaf_count(filtered_size: int, collection: str) -> int:
    """Embeddings contributed by one leaf task's filtered candidate set."""
    if collection == "choose2":
        return filtered_size * (filtered_size - 1) // 2
    return filtered_size  # enumerate / count_last


def expand_task(
    graph: CSRGraph, plan: MatchingPlan, task
) -> TaskExpansion:
    """Compute one task's candidate set (exact, no timing).

    For interior tasks the raw (pre-filter) set is stored on the task so
    descendants can extend it (prefix reuse / ``reuse_from``).
    """
    lv = plan.levels[task.level]
    emb = task.embedding
    ops: list[SetOpRecord] = []
    source_level: int | None = None
    source_vertex: int | None = None

    if lv.reuse_from is not None:
        mode = "reuse"
        source_level = lv.reuse_from
        s = task.ancestor(lv.reuse_from).raw_set
        assert s is not None
    else:
        if lv.base is not None:
            mode = "stored"
            source_level = lv.base
            s = task.ancestor(lv.base).raw_set
            assert s is not None
            op_deps, op_antis = lv.extra_deps, lv.extra_anti
        else:
            mode = "neighbors"
            source_vertex = emb[lv.deps[0]]
            s = graph.neighbors(source_vertex)
            op_deps, op_antis = lv.deps[1:], lv.anti_deps
        for kind, p in (
            *(("set_int", p) for p in op_deps),
            *(("set_diff", p) for p in op_antis),
        ):
            u = emb[p]
            b = graph.neighbors(u)
            out = (
                intersect_sorted(s, b)
                if kind == "set_int"
                else difference_sorted(s, b)
            )
            ops.append(SetOpRecord(kind=kind, operand_vertex=u, a=s, b=b,
                                   out=out))
            s = out

    filt = apply_filters(s, lv, emb, graph.labels)
    is_leaf = task.level == plan.stop_level
    if is_leaf:
        count = leaf_count(int(filt.size), plan.collection)
    else:
        count = 0
        task.raw_set = s  # descendants extend / re-read this set
    return TaskExpansion(
        mode=mode,
        source_level=source_level,
        source_vertex=source_vertex,
        ops=ops,
        result=s,
        filtered=filt,
        is_leaf=is_leaf,
        count=count,
    )


# -- whole-frontier expansion (batched backend) ------------------------------


@dataclass
class FrontierLevel:
    """One level-synchronous expansion step and its aggregate statistics.

    ``embeddings`` holds the surviving partial embeddings *after* this
    level's filters (one row per search-tree node); on the leaf level it is
    empty and ``count`` carries the closed-form embedding total instead.
    Aggregates (``words_*``, ``set_ops``, ``comparisons``) feed the
    analytic temporal model.
    """

    level: int
    tasks: int
    embeddings: np.ndarray
    count: int = 0
    set_ops: int = 0
    comparisons: int = 0
    words_in: int = 0
    words_out: int = 0


class FrontierExpander:
    """Reusable bulk expansion state for one ``(graph, plan)`` pair."""

    def __init__(
        self, graph: CSRGraph, plan: MatchingPlan, bitmap_width: int = 0
    ) -> None:
        self.graph = graph
        self.plan = plan
        # adjacency oracle: packed bitset (one byte gather per query) for
        # small graphs, sorted edge-key binary search beyond the size cap
        self._adj_bits = packed_adjacency(graph)
        self._keys = None if self._adj_bits is not None else edge_keys(graph)
        self._row_words = row_word_counts(graph, bitmap_width)
        # the same bitset as one 64-bit word row per vertex (rows are
        # word-padded); the leaf word kernel needs little-endian words
        self._adj_words = (
            self._adj_bits.view(np.uint64)
            if self._adj_bits is not None and sys.byteorder == "little"
            else None
        )
        # one past each vertex's last neighbour (rows are sorted), 0 for
        # an isolated vertex: no candidate of its row lies at or above it
        self._row_end = np.zeros(graph.num_vertices, dtype=np.int32)
        if self._adj_words is not None:
            has = graph.degrees > 0
            self._row_end[has] = (
                graph.indices[graph.indptr[1:][has] - 1] + 1
            )

    @property
    def row_words(self) -> np.ndarray:
        """BitmapCSR words per neighbour row (indexable by vertex)."""
        return self._row_words

    def adjacent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Boolean mask: does the edge ``(u[i], v[i])`` exist?

        Public because compiled plan kernels (``repro.patterns.codegen``)
        take it as their adjacency oracle.
        """
        if self._adj_bits is not None:
            return bulk_adjacency_bits(self._adj_bits, u, v)
        assert self._keys is not None
        return bulk_adjacency(self._keys, self.graph.num_vertices, u, v)

    def roots(self, vertices: np.ndarray | None = None) -> np.ndarray:
        """Level-0 frontier: one single-column row per (label-valid) root."""
        graph = self.graph
        # int32 embeddings: vertex IDs fit and the frontier matrices are
        # the engine's memory/bandwidth bottleneck
        if vertices is None:
            vertices = np.arange(graph.num_vertices, dtype=np.int32)
        else:
            vertices = np.asarray(vertices, dtype=np.int32)
        root_label = self.plan.levels[0].label
        if root_label is not None and graph.labels is not None:
            vertices = vertices[graph.labels[vertices] == root_label]
        return vertices.reshape(-1, 1)

    def expand(self, level: int, emb: np.ndarray) -> FrontierLevel:
        """Expand every row of ``emb`` through plan level ``level`` at once.

        Prefix-reuse annotations (``base``/``reuse_from``) are cache
        optimisations for the one-task-at-a-time engines; the bulk
        formulation computes each level directly from its full
        ``deps``/``anti_deps`` (algebraically identical), so every level is
        a gather plus a sequence of bulk masks.  A large leaf level is
        instead counted from adjacency words (:meth:`_count_leaf_words`)
        when :meth:`_leaf_words_pay` says that is cheaper; both paths give
        the same :class:`FrontierLevel`, aggregates included.
        """
        if (
            level == self.plan.stop_level
            and emb.shape[0] >= LEAF_WORDS_MIN_ROWS
            and self._leaf_words_pay(self.plan.levels[level], emb)
        ):
            return self._count_leaf_words(level, emb)
        return self._expand_gather(level, emb)

    def _expand_gather(self, level: int, emb: np.ndarray) -> FrontierLevel:
        """:meth:`expand` by candidate materialisation: one grouped
        neighbour gather, then a boolean mask per filter and set op."""
        graph = self.graph
        lv: LevelSpec = self.plan.levels[level]
        n_rows = int(emb.shape[0])
        out = FrontierLevel(
            level=level, tasks=n_rows, embeddings=emb[:0], count=0
        )
        if n_rows == 0:
            return out
        rw = self._row_words
        src = emb[:, lv.deps[0]]
        cand, owner = gather_rows(graph, src)
        out.words_in += int(rw[src].sum())
        # cheap per-candidate filters first — bounds, distinctness, labels
        # (bulk apply_filters) — to shrink the frontier before the dominant
        # adjacency probes; every filter is an independent per-element
        # predicate, so the surviving set is order-invariant
        keep = np.ones(cand.size, dtype=bool)
        if lv.upper_bounds:
            bound = emb[:, lv.upper_bounds].min(axis=1)
            keep &= cand < bound[owner]
        if lv.lower_bounds:
            bound = emb[:, lv.lower_bounds].max(axis=1)
            keep &= cand > bound[owner]
        for p in lv.exclude:
            keep &= cand != emb[owner, p]
        if lv.label is not None and graph.labels is not None:
            keep &= graph.labels[cand] == lv.label
        cand = cand[keep]
        owner = owner[keep]
        # bulk intersections / differences against the other matched rows
        for masks, invert in ((lv.deps[1:], False), (lv.anti_deps, True)):
            for p in masks:
                # one B-stream read per task (row), as the event engine does
                other_words = int(rw[emb[:, p]].sum())
                out.words_in += other_words
                out.set_ops += n_rows
                out.comparisons += int(cand.size) + other_words
                keep = self.adjacent(emb[owner, p], cand)
                if invert:
                    np.logical_not(keep, out=keep)
                cand = cand[keep]
                owner = owner[keep]
        out.words_out += int(cand.size)
        if level == self.plan.stop_level:
            if self.plan.collection == "choose2":
                sizes = np.bincount(owner, minlength=n_rows)
                out.count = int((sizes * (sizes - 1) // 2).sum())
            else:
                out.count = int(cand.size)
        else:
            out.embeddings = np.column_stack([emb[owner], cand])
        return out

    def _leaf_hi(self, lv: LevelSpec, emb: np.ndarray) -> np.ndarray:
        """Exclusive bit bound of each leaf row's candidate set: its upper
        bound, or one past its ``deps[0]`` row's last neighbour if lower."""
        hi = self._row_end[emb[:, lv.deps[0]]]
        for p in lv.upper_bounds:
            np.minimum(hi, emb[:, p], out=hi)
        return hi

    def _leaf_words_pay(self, lv: LevelSpec, emb: np.ndarray) -> bool:
        """The cost rule: is the word kernel estimated cheaper than the
        gather path for this leaf?

        Both estimates are in adjacency-word operations (one gathered
        candidate costs about one word).  The word kernel touches
        ``Σ span`` words per operand and pays a fixed cost per row and per
        span group and operand; the gather path makes one pass over the
        ``deps[0]`` rows' neighbours per gather, filter, full-size probe
        and ``choose2`` tally.  The sums are estimated from evenly spaced
        rows, so a leaf that gathers pays little for asking.  Labelled
        leaves, leaves with lower bounds and graphs without a
        little-endian word bitset always gather.
        """
        if (
            self._adj_words is None
            or lv.lower_bounds
            or (lv.label is not None and self.graph.labels is not None)
        ):
            return False
        n_rows = int(emb.shape[0])
        sample = emb[:: max(n_rows // LEAF_RULE_SAMPLE, 1)]
        scale = n_rows / sample.shape[0]
        span = (self._leaf_hi(lv, sample) + 63) >> 6
        # at most one group per nonzero span
        groups = int(span.max())
        ops = len(lv.deps) - 1 + len(lv.anti_deps)
        words = (
            float(span.sum()) * scale + LEAF_WORDS_GROUP_COST * groups
        ) * (ops + 1) + LEAF_WORDS_ROW_COST * n_rows
        # passes over the gathered candidates: the gather, the bound and
        # exclusion filters, the first set op, the choose2 tally and, with
        # no dep to shrink the set first, every further (anti) op
        passes = (
            1
            + bool(lv.upper_bounds)
            + len(lv.exclude)
            + (ops > 0)
            + (self.plan.collection == "choose2")
        )
        if len(lv.deps) == 1:
            passes += max(len(lv.anti_deps) - 1, 0)
        degrees = self.graph.degrees[sample[:, lv.deps[0]]]
        return words < float(degrees.sum()) * scale * passes

    def _count_leaf_words(self, level: int, emb: np.ndarray) -> FrontierLevel:
        """Count leaf level ``level`` from 64-bit adjacency words.

        Each row's candidate set starts as its ``deps[0]`` word row cut at
        :meth:`_leaf_hi`, less the ``exclude`` bits; each further dep is
        ANDed in and each anti dep AND-NOTed, in the gather path's order
        (SISA's |A∩B| / |A∖B| on bitvector sets).  A popcount after every
        step gives the exact set sizes the aggregates need, so no candidate
        is materialised.  Rows are grouped by word span ``ceil(hi / 64)``,
        so only a group's last word needs a mask, and chunked so no operand
        exceeds ``LEAF_WORDS_CHUNK`` words.
        """
        lv: LevelSpec = self.plan.levels[level]
        words = self._adj_words
        assert words is not None
        rw = self._row_words
        n_rows = int(emb.shape[0])
        hi = self._leaf_hi(lv, emb)
        # span ≤ 256 words under the bitset cap: int16 sorts by radix
        span = ((hi + 63) >> 6).astype(np.int16)
        order = np.argsort(span, kind="stable")
        emb_s, hi_s, span_s = emb[order], hi[order], span[order]
        src = emb_s[:, lv.deps[0]]
        cols = [emb_s[:, p] for p in (*lv.deps[1:], *lv.anti_deps)]
        n_and = len(lv.deps) - 1
        choose2 = self.plan.collection == "choose2"
        # sizes[j]: candidates summed over rows before set op j; the last
        # entry is the final (leaf) size
        sizes = [0] * (len(cols) + 1)
        count = 0
        starts = np.flatnonzero(np.diff(span_s)) + 1
        for a, b in zip([0, *starts.tolist()], [*starts.tolist(), n_rows]):
            s = int(span_s[a])
            if s == 0:
                continue  # empty candidate sets: every size is 0
            step = max(LEAF_WORDS_CHUNK // s, 1)
            for lo in range(a, b, step):
                rows = slice(lo, min(lo + step, b))
                acc = words[src[rows], :s]
                acc[:, -1] &= _LOW_BITS[hi_s[rows] - 64 * (s - 1)]
                for p in lv.exclude:
                    v = emb_s[rows, p]
                    hit = np.flatnonzero(v < 64 * s)
                    v = v[hit]
                    acc[hit, v >> 6] &= ~_ONE_BIT[v & 63]
                pop = np.bitwise_count(acc)
                sizes[0] += int(pop.sum())
                for j, col in enumerate(cols):
                    other = words[col[rows], :s]
                    if j >= n_and:
                        np.invert(other, out=other)
                    acc &= other
                    np.bitwise_count(acc, out=pop)
                    sizes[j + 1] += int(pop.sum())
                if choose2:
                    per_row = pop.sum(axis=1, dtype=np.int64)
                    count += int((per_row * (per_row - 1) // 2).sum())
        other_words = [int(rw[col].sum()) for col in cols]
        return FrontierLevel(
            level=level,
            tasks=n_rows,
            embeddings=emb[:0],
            count=count if choose2 else sizes[-1],
            set_ops=n_rows * len(cols),
            comparisons=sum(sizes[:-1]) + sum(other_words),
            words_in=int(rw[src].sum()) + sum(other_words),
            words_out=sizes[-1],
        )


def expand_frontier(
    graph: CSRGraph,
    plan: MatchingPlan,
    roots: np.ndarray | None = None,
    bitmap_width: int = 0,
) -> list[FrontierLevel]:
    """Run a full level-by-level expansion; returns the per-level records."""
    ex = FrontierExpander(graph, plan, bitmap_width)
    emb = ex.roots(roots)
    levels: list[FrontierLevel] = []
    for level in range(1, plan.stop_level + 1):
        step = ex.expand(level, emb)
        levels.append(step)
        emb = step.embeddings
    return levels
