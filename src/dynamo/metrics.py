"""Partition-quality and partition-similarity metrics, plus the exhaustive oracle.

``nmi`` and ``ari`` compare two labelings of the same vertex set and are
label-invariant and symmetric. ``exhaustive_best_partition`` enumerates every
set partition of a small graph and is the ground-truth oracle the heuristics
are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Union

from .errors import EmptyGraphError, GraphTooLargeError, VertexSetMismatchError
from .graph import Partition

Labeling = Union[Partition, Mapping[int, int]]

_EXHAUSTIVE_MAX_VERTICES = 12  # Bell(12) ~ 4.2e6 partitions
_CHUNK = 20_000


def _labels(p: Labeling) -> Mapping[int, int]:
    return p.assignment if isinstance(p, Partition) else p


@dataclass(frozen=True)
class ConfusionTable:
    """Joint membership counts between two labelings of the same vertex set."""

    counts: dict[tuple[int, int], int]
    row_sums: dict[int, int]
    col_sums: dict[int, int]
    n: int

    @classmethod
    def from_partitions(cls, c_t: Labeling, c_r: Labeling) -> "ConfusionTable":
        a = _labels(c_t)
        b = _labels(c_r)
        if set(a) != set(b):
            raise VertexSetMismatchError("partitions cover different vertex sets")
        counts: dict[tuple[int, int], int] = {}
        rows: dict[int, int] = {}
        cols: dict[int, int] = {}
        for v in a:
            x, y = a[v], b[v]
            counts[(x, y)] = counts.get((x, y), 0) + 1
            rows[x] = rows.get(x, 0) + 1
            cols[y] = cols.get(y, 0) + 1
        return cls(counts, rows, cols, len(a))

    def nmi(self) -> float:
        """Normalized mutual information, 2*I / (H_t + H_r), natural logarithm.

        When both labelings are single-community (both entropies zero) the
        partitions are identical and 1.0 is returned by convention; when exactly
        one side is single-community the mutual information is zero and so is the
        score.
        """
        n = self.n
        h_t = _entropy(self.row_sums, n)
        h_r = _entropy(self.col_sums, n)
        if h_t + h_r == 0.0:
            return 1.0
        info = 0.0
        for (x, y), nxy in self.counts.items():
            info += (nxy / n) * math.log(nxy * n / (self.row_sums[x] * self.col_sums[y]))
        value = 2.0 * info / (h_t + h_r)
        # clamp floating-point dust at the boundaries
        return min(1.0, max(0.0, value))

    def ari(self) -> float:
        """Adjusted rand index in the pair-counting form 2(ad-bc) / (b^2+c^2+2ad+(a+d)(b+c)).

        ``a``/``d`` count vertex pairs co-assigned/separated in both labelings,
        ``b``/``c`` the two disagreement directions. The denominator only vanishes
        when the labelings are identical, in which case 1.0 is returned.
        """
        a = sum(_pairs(nxy) for nxy in self.counts.values())
        same_t = sum(_pairs(r) for r in self.row_sums.values())
        same_r = sum(_pairs(c) for c in self.col_sums.values())
        total = _pairs(self.n)
        b = same_t - a
        c = same_r - a
        d = total - same_t - same_r + a
        denominator = b * b + c * c + 2 * a * d + (a + d) * (b + c)
        if denominator == 0:
            # b == c == 0 and a*d == 0: only identical labelings land here
            return 1.0
        return 2.0 * (a * d - b * c) / denominator


def nmi(c_t: Labeling, c_r: Labeling) -> float:
    """Normalized mutual information of two labelings (see :meth:`ConfusionTable.nmi`)."""
    return ConfusionTable.from_partitions(c_t, c_r).nmi()


def ari(c_t: Labeling, c_r: Labeling) -> float:
    """Adjusted rand index of two labelings (see :meth:`ConfusionTable.ari`)."""
    return ConfusionTable.from_partitions(c_t, c_r).ari()


def exhaustive_best_partition(g) -> tuple[Partition, float]:
    """Enumerate all set partitions and return a modularity maximizer with its Q.

    Guarded to at most 12 vertices. Q is evaluated in the direct pairwise form,
    independently of the aggregate-based :func:`modularity`. Exact ties are
    broken by the lexicographically smallest canonical label string.
    """
    verts = sorted(g.vertices)
    n = len(verts)
    if n == 0:
        raise EmptyGraphError("no vertices to partition")
    if n > _EXHAUSTIVE_MAX_VERTICES:
        raise GraphTooLargeError(f"{n} vertices exceed the exhaustive limit of "
                                 f"{_EXHAUSTIVE_MAX_VERTICES}")
    if g.total_weight <= 0.0:
        raise EmptyGraphError("modularity undefined for graphs with zero total weight")
    import numpy as np  # only this oracle needs numpy, so a `dynamo run` never loads it

    index = {v: i for i, v in enumerate(verts)}
    adjacency = np.zeros((n, n))
    for v in verts:
        adjacency[index[v], index[v]] = g.self_weight(v)
        for nbr, w in g.neighbors(v).items():
            adjacency[index[v], index[nbr]] = w
    strengths = adjacency.sum(axis=1)
    two_m = strengths.sum()

    labelings = _all_partition_labels(n)
    best_q = -np.inf
    best_row = None
    for start in range(0, labelings.shape[0], _CHUNK):
        chunk = labelings[start:start + _CHUNK]
        onehot = (chunk[:, :, None] == np.arange(n)[None, None, :]).astype(float)
        spread = np.matmul(adjacency[None, :, :], onehot)
        alpha = (onehot * spread).sum(axis=1)
        beta = np.einsum("i,pic->pc", strengths, onehot)
        q = (alpha - beta * beta / two_m).sum(axis=1) / two_m
        pos = int(np.argmax(q))  # first occurrence keeps the lexicographic winner
        if q[pos] > best_q:
            best_q = float(q[pos])
            best_row = chunk[pos].copy()

    assignment = {verts[i]: int(best_row[i]) for i in range(n)}
    return Partition.from_assignment(g, assignment), best_q


@lru_cache(maxsize=8)
def _all_partition_labels(n: int) -> np.ndarray:
    """All restricted growth strings of length ``n``, lexicographically ordered."""
    import numpy as np  # imported on first use, like in exhaustive_best_partition
    labels = np.zeros((1, 1), dtype=np.int8)
    highest = np.zeros(1, dtype=np.int8)
    for _ in range(n - 1):
        counts = highest.astype(np.int64) + 2
        parents = np.repeat(np.arange(labels.shape[0]), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        new_col = (np.arange(counts.sum()) - np.repeat(offsets, counts)).astype(np.int8)
        labels = np.hstack([labels[parents], new_col[:, None]])
        highest = np.maximum(highest[parents], new_col)
    labels.setflags(write=False)
    return labels


def _entropy(sizes: dict[int, int], n: int) -> float:
    h = 0.0
    for s in sizes.values():
        p = s / n
        h -= p * math.log(p)
    return h


def _pairs(k: int) -> int:
    return k * (k - 1) // 2
