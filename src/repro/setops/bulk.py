"""Bulk (frontier-at-a-time) set-operation kernels.

The per-task kernels in :mod:`repro.setops.reference` intersect one pair of
sorted sets; these kernels process *thousands of tasks in one NumPy call*,
which is what makes the ``batched`` execution engine fast.  The key
representation is the packed edge-key array: an undirected CSR graph whose
rows are sorted yields ``u * n + v`` keys that are globally sorted, so any
batch of adjacency queries becomes one ``searchsorted`` — a bulk
intersection/difference is then a boolean mask over a gathered candidate
frontier (the set-centric formulation SISA builds its ISA around).

All kernels are pure functions of their inputs: no graph mutation, no
timing.  The temporal layer charges cycles for them separately.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "edge_keys",
    "bulk_membership",
    "bulk_adjacency",
    "packed_adjacency",
    "bulk_adjacency_bits",
    "gather_rows",
]

#: largest vertex count for which a packed adjacency bitset is built
#: (V * V / 8 bytes — 32 MB at the limit); beyond it adjacency queries
#: fall back to binary search over the edge-key array
PACKED_ADJ_MAX_VERTICES = 16384


def edge_keys(graph: CSRGraph) -> np.ndarray:
    """Sorted ``u * n + v`` key per directed CSR edge (one bulk probe set)."""
    n = np.int64(graph.num_vertices)
    src = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.degrees
    )
    return src * n + graph.indices.astype(np.int64)


def bulk_membership(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask: is each ``needles[i]`` present in sorted ``haystack``?"""
    if haystack.size == 0 or needles.size == 0:
        return np.zeros(needles.size, dtype=bool)
    pos = np.searchsorted(haystack, needles)
    hit = pos < haystack.size
    pos[~hit] = 0  # clamp in place: out-of-range probes re-checked below
    hit &= haystack[pos] == needles
    return hit


def bulk_adjacency(
    keys: np.ndarray,
    num_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Boolean mask: is there an edge ``(u[i], v[i])``?

    ``keys`` must come from :func:`edge_keys` of the same graph.
    """
    # one fused multiply into an int64 probe array, then add in place —
    # avoids two astype copies on the (large) u/v operands
    probe = np.multiply(u, np.int64(num_vertices), dtype=np.int64)
    probe += v
    return bulk_membership(keys, probe)


def packed_adjacency(
    graph: CSRGraph, max_vertices: int = PACKED_ADJ_MAX_VERTICES
) -> np.ndarray | None:
    """Bit-packed adjacency matrix, or ``None`` if the graph is too large.

    Row ``u``, bit ``v`` (little-endian within each byte) says whether the
    edge ``(u, v)`` exists.  One byte gather plus a shift answers an
    adjacency query — far cheaper than the ``O(log E)`` probe of
    :func:`bulk_adjacency` — at ``V²/8`` bytes of memory.  Each row is
    zero-padded to whole 64-bit words, so on a little-endian host
    ``bits.view(np.uint64)`` is the same matrix as one word row per vertex
    (bit ``v`` of row ``u`` in word ``v >> 6``, bit ``v & 63``) with no copy.
    """
    n = graph.num_vertices
    if n == 0 or n > max_vertices:
        return None
    bits = np.zeros((n, 8 * ((n + 63) // 64)), dtype=np.uint8)
    # pack in row chunks so the dense staging buffer stays small
    chunk = max(1, (1 << 22) // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dense = np.zeros((hi - lo, n), dtype=bool)
        span = slice(graph.indptr[lo], graph.indptr[hi])
        rows = np.repeat(
            np.arange(lo, hi, dtype=np.int64),
            graph.degrees[lo:hi],
        )
        dense[rows - lo, graph.indices[span]] = True
        packed = np.packbits(dense, axis=1, bitorder="little")
        bits[lo:hi, : packed.shape[1]] = packed
    return bits


def bulk_adjacency_bits(
    bits: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Boolean mask for edges ``(u[i], v[i])`` via a packed bitset."""
    sub = v & 7
    byte = bits[u, v >> 3]
    return (byte >> sub) & 1 != 0


def gather_rows(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the neighbour rows of ``vertices`` in one gather.

    Returns ``(values, owner)`` where ``values`` is the concatenation of
    ``graph.neighbors(vertices[i])`` for each ``i`` in order and
    ``owner[j]`` is the index ``i`` whose row produced ``values[j]``.
    This is the grouped neighbour gather every frontier expansion starts
    from.
    """
    vertices = np.asarray(vertices)
    deg = graph.degrees[vertices]
    total = int(deg.sum())
    owner = np.repeat(np.arange(vertices.size, dtype=np.int64), deg)
    if total == 0:
        return graph.indices[:0], owner
    # each output element's CSR position is its running index shifted by
    # (row start − row output offset), one repeat instead of two
    offsets = np.zeros(vertices.size, dtype=np.int64)
    np.cumsum(deg[:-1], out=offsets[1:])
    pos = np.arange(total, dtype=np.int64)
    pos += np.repeat(graph.indptr[vertices] - offsets, deg)
    return graph.indices[pos], owner
