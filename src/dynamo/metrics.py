"""Partition-similarity metrics: NMI and ARI from one confusion table.

``nmi`` and ``ari`` compare two labelings of the same vertex set and are
label-invariant and symmetric. They use the standard library only.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Union

from .errors import VertexSetMismatchError
from .graph import Partition

Labeling = Union[Partition, Mapping[int, int]]


def _labels(p: Labeling) -> Mapping[int, int]:
    return p.assignment if isinstance(p, Partition) else p


class ConfusionTable(NamedTuple):
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


def _entropy(sizes: dict[int, int], n: int) -> float:
    h = 0.0
    for s in sizes.values():
        p = s / n
        h -= p * math.log(p)
    return h


def _pairs(k: int) -> int:
    return k * (k - 1) // 2
