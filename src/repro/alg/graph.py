"""Tiny helpers for the adjacency-mapping graph representation."""

from __future__ import annotations

from typing import Hashable, Iterable

Node = Hashable
Adjacency = dict


def undirected(edges: Iterable[tuple[Node, Node, float]]) -> dict:
    """Build a directed adjacency map containing both directions of each
    ``(u, v, weight)`` edge.

    >>> undirected([("a", "b", 1.0)])
    {'a': {'b': 1.0}, 'b': {'a': 1.0}}
    """
    adj: dict = {}
    for u, v, w in edges:
        adj.setdefault(u, {})[v] = w
        adj.setdefault(v, {})[u] = w
    return adj


def neighbors(adj: dict, node: Node) -> list:
    """Neighbors of ``node`` (empty list if unknown)."""
    return list(adj.get(node, {}))


def subgraph(adj: dict, nodes: Iterable[Node]) -> dict:
    """The sub-adjacency induced by ``nodes``."""
    keep = set(nodes)
    return {
        u: {v: w for v, w in nbrs.items() if v in keep}
        for u, nbrs in adj.items()
        if u in keep
    }

