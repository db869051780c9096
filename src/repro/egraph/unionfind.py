"""Disjoint-set (union-find) structure for e-class ids.

E-class ids are dense non-negative integers handed out by :meth:`make_set`.
``find`` uses path compression; ``union`` is by size and returns the id that
survives as the canonical representative (the e-graph needs to know which of
the two merged classes keeps its metadata).
"""

from __future__ import annotations

from typing import List


class UnionFind:
    """Union-find over integer ids with path compression and union by size."""

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._size: List[int] = []

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self) -> int:
        """Create a fresh singleton set and return its id."""
        new_id = len(self._parent)
        self._parent.append(new_id)
        self._size.append(1)
        return new_id

    def find(self, item: int) -> int:
        """Canonical representative of ``item``'s set."""
        parent = self._parent
        root = parent[item]
        if root == item:  # already canonical: the common case on a clean e-graph
            return item
        while parent[root] != root:
            root = parent[root]
        # path compression
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; return the surviving root."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return root_a
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return root_a

    def same(self, a: int, b: int) -> bool:
        """Whether two ids belong to the same set."""
        return self.find(a) == self.find(b)
