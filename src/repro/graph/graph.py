"""Compressed-sparse-row social graph.

The social graph is the substrate every social-aware algorithm walks at
query time, so it is stored in a cache-friendly CSR layout backed by numpy
arrays: one offsets array of length ``num_users + 1`` plus parallel
neighbour/weight arrays.  Graphs are undirected and weighted; weights model
tie strength and must lie in ``(0, 1]``.

Two entry points are provided:

* :class:`SocialGraphBuilder` — incremental construction from edges.
* :meth:`SocialGraph.from_edges` — one-shot construction from an iterable.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import InvalidEdgeError, UnknownUserError

Edge = Tuple[int, int, float]


class SocialGraph:
    """Undirected, weighted social graph in CSR form.

    Parameters
    ----------
    num_users:
        Number of nodes; node ids are ``0 .. num_users - 1``.
    offsets, neighbours, weights:
        CSR arrays.  ``neighbours[offsets[u]:offsets[u + 1]]`` are the
        neighbours of ``u`` with matching ``weights`` entries.

    Instances are immutable once constructed; use :class:`SocialGraphBuilder`
    to assemble one incrementally.
    """

    __slots__ = ("_num_users", "_offsets", "_neighbours", "_weights")

    def __init__(self, num_users: int, offsets: np.ndarray,
                 neighbours: np.ndarray, weights: np.ndarray) -> None:
        if num_users < 0:
            raise InvalidEdgeError(f"num_users must be non-negative, got {num_users}")
        if offsets.shape[0] != num_users + 1:
            raise InvalidEdgeError(
                f"offsets must have length num_users + 1 = {num_users + 1}, "
                f"got {offsets.shape[0]}"
            )
        if neighbours.shape[0] != weights.shape[0]:
            raise InvalidEdgeError("neighbours and weights must have equal length")
        if offsets[-1] != neighbours.shape[0]:
            raise InvalidEdgeError("offsets[-1] must equal the number of directed edges")
        self._num_users = int(num_users)
        self._offsets = offsets
        self._neighbours = neighbours
        self._weights = weights

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(cls, num_users: int, edges: Iterable[Edge]) -> "SocialGraph":
        """Build a graph from ``(u, v, weight)`` triples.

        Each undirected edge should appear once; both directions are stored
        internally.  Duplicate edges keep the maximum weight.
        """
        builder = SocialGraphBuilder(num_users)
        for u, v, w in edges:
            builder.add_edge(u, v, w)
        return builder.build()

    @classmethod
    def empty(cls, num_users: int) -> "SocialGraph":
        """Return a graph with ``num_users`` nodes and no edges."""
        return cls(
            num_users,
            np.zeros(num_users + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_users(self) -> int:
        """Number of nodes in the graph."""
        return self._num_users

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._neighbours.shape[0] // 2)

    def validate_user(self, user_id: int) -> None:
        """Raise :class:`UnknownUserError` unless ``user_id`` is a valid node."""
        if not 0 <= user_id < self._num_users:
            raise UnknownUserError(user_id, self._num_users)

    def degree(self, user_id: int) -> int:
        """Number of neighbours of ``user_id``."""
        self.validate_user(user_id)
        return int(self._offsets[user_id + 1] - self._offsets[user_id])

    def neighbours(self, user_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbour_ids, weights)`` arrays for ``user_id``.

        The returned arrays are views into the CSR storage and must not be
        mutated by callers.
        """
        self.validate_user(user_id)
        start = self._offsets[user_id]
        end = self._offsets[user_id + 1]
        return self._neighbours[start:end], self._weights[start:end]

    def neighbour_ids(self, user_id: int) -> np.ndarray:
        """Return only the neighbour ids of ``user_id``."""
        return self.neighbours(user_id)[0]

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when an edge ``{u, v}`` exists."""
        self.validate_user(u)
        self.validate_user(v)
        nbrs, _ = self.neighbours(u)
        return bool(np.any(nbrs == v))

    def edge_weight(self, u: int, v: int) -> float:
        """Return the weight of edge ``{u, v}``, or ``0.0`` when absent."""
        nbrs, weights = self.neighbours(u)
        self.validate_user(v)
        matches = np.nonzero(nbrs == v)[0]
        if matches.shape[0] == 0:
            return 0.0
        return float(weights[matches[0]])

    def users(self) -> range:
        """Return the range of valid user ids."""
        return range(self._num_users)

    def iter_edges(self) -> Iterator[Edge]:
        """Yield each undirected edge once as ``(u, v, weight)`` with ``u < v``."""
        for u in range(self._num_users):
            nbrs, weights = self.neighbours(u)
            for v, w in zip(nbrs.tolist(), weights.tolist()):
                if u < v:
                    yield (u, int(v), float(w))

    def degrees(self) -> np.ndarray:
        """Return the degree of every node as an array."""
        return np.diff(self._offsets)

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the raw ``(offsets, neighbours, weights)`` CSR arrays.

        The arrays are the graph's own storage and must not be mutated;
        they exist so vectorized kernels (PPR power iteration, Monte-Carlo
        walks) can operate on the full adjacency without per-node slicing.
        """
        return self._offsets, self._neighbours, self._weights

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    def subgraph(self, user_ids: Sequence[int]) -> Tuple["SocialGraph", Dict[int, int]]:
        """Return the induced subgraph on ``user_ids`` plus the id remapping.

        The returned mapping translates original ids to compact ids in the
        subgraph.  Edges with either endpoint outside ``user_ids`` are
        dropped.
        """
        keep = sorted(set(int(u) for u in user_ids))
        for u in keep:
            self.validate_user(u)
        remap = {old: new for new, old in enumerate(keep)}
        edges: List[Edge] = []
        for u in keep:
            nbrs, weights = self.neighbours(u)
            for v, w in zip(nbrs.tolist(), weights.tolist()):
                if u < v and v in remap:
                    edges.append((remap[u], remap[int(v)], float(w)))
        return SocialGraph.from_edges(len(keep), edges), remap

    def to_edge_list(self) -> List[Edge]:
        """Return all undirected edges as a list (mostly for tests and IO)."""
        return list(self.iter_edges())

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the CSR arrays in bytes."""
        return int(self._offsets.nbytes + self._neighbours.nbytes + self._weights.nbytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return (
            self._num_users == other._num_users
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._neighbours, other._neighbours)
            and np.allclose(self._weights, other._weights)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SocialGraph(num_users={self._num_users}, num_edges={self.num_edges})"


class SocialGraphBuilder:
    """Incrementally assemble a :class:`SocialGraph`.

    The builder accepts undirected edges, rejects self loops and non-positive
    weights, and de-duplicates parallel edges by keeping the maximum weight.
    """

    def __init__(self, num_users: int) -> None:
        if num_users < 0:
            raise InvalidEdgeError(f"num_users must be non-negative, got {num_users}")
        self._num_users = int(num_users)
        self._edges: Dict[Tuple[int, int], float] = {}

    @property
    def num_users(self) -> int:
        """Number of nodes the built graph will have."""
        return self._num_users

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges added so far."""
        return len(self._edges)

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> bool:
        """Add the undirected edge ``{u, v}`` with the given tie strength.

        Returns ``True`` when the edge is new or its weight grew (a parallel
        edge keeps the maximum weight), ``False`` when nothing changed.
        """
        if not 0 <= u < self._num_users:
            raise UnknownUserError(u, self._num_users)
        if not 0 <= v < self._num_users:
            raise UnknownUserError(v, self._num_users)
        if u == v:
            raise InvalidEdgeError(f"self loops are not allowed (user {u})")
        if not 0.0 < weight <= 1.0:
            raise InvalidEdgeError(
                f"edge weight must be in (0, 1], got {weight} for edge ({u}, {v})"
            )
        key = (u, v) if u < v else (v, u)
        existing = self._edges.get(key)
        if existing is None or weight > existing:
            self._edges[key] = float(weight)
            return True
        return False

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the undirected edge was already added."""
        key = (u, v) if u < v else (v, u)
        return key in self._edges

    def build(self) -> SocialGraph:
        """Materialise the CSR arrays and return the immutable graph.

        One global lexsort over the doubled edge list replaces the old
        per-node scatter + per-node argsort (a Python loop over every node):
        sorting the directed edges by ``(source, neighbour)`` yields every
        adjacency block contiguous and neighbour-sorted in a single O(E log E)
        vectorized pass.  Keys are unique (the builder deduplicates edges),
        so the result is identical to the per-node stable sort it replaces.
        """
        num_edges = len(self._edges)
        us = np.fromiter((key[0] for key in self._edges), dtype=np.int64,
                         count=num_edges)
        vs = np.fromiter((key[1] for key in self._edges), dtype=np.int64,
                         count=num_edges)
        ws = np.fromiter(self._edges.values(), dtype=np.float64,
                         count=num_edges)
        sources = np.concatenate([us, vs])
        targets = np.concatenate([vs, us])
        doubled_weights = np.concatenate([ws, ws])
        order = np.lexsort((targets, sources))
        neighbours = targets[order]
        weights = doubled_weights[order]
        degrees = np.bincount(sources, minlength=self._num_users)
        offsets = np.zeros(self._num_users + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return SocialGraph(self._num_users, offsets, neighbours, weights)
