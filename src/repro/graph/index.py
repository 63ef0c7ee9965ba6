"""Per-snapshot graph index: the lookup tables the engines probe.

The paper builds its BitmapCSR layout once, offline, before any query runs;
:class:`GraphIndex` is the software counterpart.  It holds every table an
engine derives from a graph's CSR arrays alone:

* ``adj_bits`` — the packed adjacency bitset (``V²/8`` bytes), or ``None``
  above :data:`~repro.setops.bulk.PACKED_ADJ_MAX_VERTICES`;
* ``adj_words`` — the same bitset viewed as one ``uint64`` word row per
  vertex (little-endian hosts only), for the leaf word kernel;
* ``edge_keys`` — sorted ``u * n + v`` keys, the adjacency oracle of
  graphs above the bitset cap;
* ``row_end`` — one past each vertex's last neighbour (0 if isolated);
* ``row_words(width)`` — BitmapCSR words per neighbour row, per width.

Each table is built lazily on first use, at most once, under a lock, so
concurrent first queries never see a half-built table.  The index belongs
to one :class:`~repro.graph.csr.CSRGraph` instance (``graph.index``) and
lives exactly as long as that snapshot: it is never pickled, compared or
shared between processes — each process builds its own on first query.
Every table is read-only, as are the graph's own arrays, so a cached
table can never disagree with the CSR it was built from.
"""

from __future__ import annotations

import os
import sys
import threading
import weakref
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..setops.bulk import edge_keys, packed_adjacency
from .csr import _read_only

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .csr import CSRGraph

__all__ = ["GraphIndex", "index_build_counts", "row_word_counts"]

#: tables built by this process (adjacency: bitset/keys + row ends;
#: row_words: one per (graph, width)); observability for tests
_BUILDS = {"adjacency": 0, "row_words": 0}
#: guards ``_BUILDS`` and the attachment of a graph's first index
_LOCK = threading.Lock()


def _after_fork() -> None:
    # a forked pool worker counts only its own builds, and must not
    # inherit a lock some other parent thread held at fork time
    global _LOCK
    _LOCK = threading.Lock()
    _BUILDS.update(adjacency=0, row_words=0)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork)


def index_build_counts() -> dict[str, int]:
    """Snapshot of the index tables this process has built so far."""
    with _LOCK:
        return dict(_BUILDS)


def _count_build(kind: str) -> None:
    with _LOCK:
        _BUILDS[kind] += 1


def row_word_counts(graph: "CSRGraph", width: int) -> np.ndarray:
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


class _Adjacency(NamedTuple):
    bits: np.ndarray | None
    words: np.ndarray | None
    keys: np.ndarray | None
    row_end: np.ndarray


class GraphIndex:
    """Lazily built, read-only lookup tables of one graph snapshot.

    Obtain it as ``graph.index``; constructing one directly gives a fresh,
    unshared index (what the tests compare the cached one against).
    """

    @classmethod
    def of(cls, graph: "CSRGraph") -> "GraphIndex":
        """``graph``'s own index, attached on first call (thread-safe)."""
        index = graph._index
        if index is None:
            with _LOCK:
                if graph._index is None:
                    graph._index = cls(graph)
                index = graph._index
        return index

    def __init__(self, graph: "CSRGraph") -> None:
        # weak: the graph owns its index, and a cycle would keep a retired
        # snapshot's arrays (and any shm mapping they alias) alive until
        # the cycle collector runs
        self._graph = weakref.ref(graph)
        self._lock = threading.Lock()
        self._adjacency: _Adjacency | None = None
        self._row_words: dict[int, np.ndarray] = {}

    def _source(self) -> "CSRGraph":
        graph = self._graph()
        if graph is None:
            raise ReferenceError("the graph this index belongs to is gone")
        return graph

    def _tables(self) -> _Adjacency:
        tables = self._adjacency
        if tables is None:
            with self._lock:
                if self._adjacency is None:
                    self._adjacency = self._build_adjacency()
                    _count_build("adjacency")
                tables = self._adjacency
        return tables

    def _build_adjacency(self) -> _Adjacency:
        graph = self._source()
        # adjacency oracle: packed bitset (one byte gather per query) for
        # small graphs, sorted edge-key binary search beyond the size cap
        bits = _read_only(packed_adjacency(graph))
        keys = _read_only(edge_keys(graph)) if bits is None else None
        # rows are word-padded, so the bitset is one 64-bit word row per
        # vertex; the leaf word kernel needs little-endian words
        words = (
            bits.view(np.uint64)
            if bits is not None and sys.byteorder == "little"
            else None
        )
        # rows are sorted, so no candidate of a row lies at or above its
        # last neighbour + 1
        row_end = np.zeros(graph.num_vertices, dtype=np.int32)
        has = graph.degrees > 0
        row_end[has] = graph.indices[graph.indptr[1:][has] - 1] + 1
        return _Adjacency(bits, words, keys, _read_only(row_end))

    @property
    def adj_bits(self) -> np.ndarray | None:
        """Packed adjacency bitset, or ``None`` above the size cap."""
        return self._tables().bits

    @property
    def adj_words(self) -> np.ndarray | None:
        """``adj_bits`` as ``uint64`` word rows (little-endian hosts)."""
        return self._tables().words

    @property
    def edge_keys(self) -> np.ndarray | None:
        """Sorted edge keys; built only for graphs above the bitset cap."""
        return self._tables().keys

    @property
    def row_end(self) -> np.ndarray:
        """One past each vertex's last neighbour, 0 for isolated ones."""
        return self._tables().row_end

    def row_words(self, width: int) -> np.ndarray:
        """BitmapCSR words per neighbour row at bitmap ``width``."""
        words = self._row_words.get(width)
        if words is None:
            with self._lock:
                words = self._row_words.get(width)
                if words is None:
                    words = _read_only(
                        row_word_counts(self._source(), width)
                    )
                    self._row_words[width] = words
                    _count_build("row_words")
        return words
