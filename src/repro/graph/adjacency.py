"""Dynamic undirected graph adjacency structure.

:class:`DynamicAdjacency` is the in-memory graph substrate shared by the
samplers (for the *sampled* graph), the exact counters (for the *full*
graph during training / evaluation), and the pattern matchers. It
supports O(1) expected-time edge insertion/deletion/lookup and provides
the neighbourhood queries pattern enumeration needs (neighbours, common
neighbours, degree).

This class sits on the per-event hot path of every sampler, so it is
written for speed:

* ``neighbors_view`` / ``iter_neighbors`` expose the internal neighbour
  set without copying (the legacy ``neighbors`` still returns a
  defensive ``frozenset``);
* ``common_neighbors`` is a C-level set intersection;
* ``add_edge_canonical`` / ``remove_edge_canonical`` skip
  re-canonicalisation when the caller already holds a canonical edge
  (every sampler does — stream events are canonical by construction);
* every vertex is interned to a dense int id on first insertion
  (:class:`~repro.graph.interning.VertexInterner`), giving the pattern
  enumerators an allocation-free, identity-consistent sort order;
* an optional :class:`~repro.graph.arena.AdjacencyArena` mirrors the
  neighbourhoods of *high-degree* vertices as sorted int64 slabs with a
  parallel payload lane, so the common-neighbour queries behind the
  triangle / clique estimators vectorise (``searchsorted`` + gather)
  exactly where the per-element Python loop stops being cheapest. The
  dict-of-sets stays authoritative: a vertex earns a slab when its
  degree reaches ``slab_cutoff`` and loses it (hysteresis) when it
  falls below half the cutoff, so sparse graphs never touch numpy.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import (
    ConfigurationError,
    EdgeExistsError,
    EdgeNotFoundError,
)
from repro.graph.arena import AdjacencyArena
from repro.graph.edges import Edge, Vertex, canonical_edge
from repro.graph.interning import VertexInterner

__all__ = ["DynamicAdjacency", "DEFAULT_SLAB_CUTOFF"]

#: Shared immutable empty neighbourhood returned for unknown vertices.
_EMPTY: frozenset = frozenset()

#: Default degree at which a vertex earns an arena slab. Below the
#: crossover the C-level set intersection wins (numpy's ~µs-scale
#: per-call overhead dominates tiny neighbourhoods); above it the
#: vectorised slab intersection wins by growing multiples. Measured on
#: the recording box, the full event (query savings minus slab
#: maintenance under churn) breaks even around expected common
#: neighbourhoods of ~100, i.e. degrees of a couple hundred on the
#: graphs the samplers hold; 192 keeps every sub-break-even regime on
#: the pure set path (sparse graphs never pay a byte of maintenance)
#: while the dense regimes that profit are comfortably above it.
DEFAULT_SLAB_CUTOFF = 192


class DynamicAdjacency:
    """An undirected simple graph under edge insertions and deletions.

    Vertices are created implicitly by edge insertion and removed
    implicitly when their last incident edge is deleted (so
    ``num_vertices`` counts non-isolated vertices, matching the induced
    graph G(t) of Section II).
    """

    __slots__ = (
        "_adj", "_num_edges", "_interner",
        "_arena", "_slab_cutoff", "_slab_hyst",
        "_payload_fn", "_payload2_fn",
    )

    def __init__(self) -> None:
        self._adj: dict[Vertex, set[Vertex]] = {}
        self._num_edges = 0
        self._interner = VertexInterner()
        #: Optional sorted-slab mirror of the high-degree vertices.
        self._arena: AdjacencyArena | None = None
        self._slab_cutoff = DEFAULT_SLAB_CUTOFF
        self._slab_hyst = DEFAULT_SLAB_CUTOFF // 2
        self._payload_fn = None
        self._payload2_fn = None

    # -- mutation ---------------------------------------------------------

    def add_edge(self, u: Vertex, v: Vertex) -> Edge:
        """Insert the undirected edge ``{u, v}`` and return its canonical form.

        Raises :class:`~repro.errors.EdgeExistsError` if already present
        and :class:`~repro.errors.SelfLoopError` if ``u == v``.
        """
        edge = canonical_edge(u, v)
        self.add_edge_canonical(edge)
        return edge

    def add_edge_canonical(
        self, edge: Edge, payload: float = 1.0, payload2: float = 0.0
    ) -> None:
        """Insert an edge already in canonical form (no re-sorting).

        The caller guarantees ``edge`` came from
        :func:`~repro.graph.edges.canonical_edge` (stream events always
        do); only the duplicate-edge check is performed here.
        ``payload`` is the per-edge arena-lane value (edge weight,
        sample membership, ...) and ``payload2`` the second-lane value
        (per-edge arrival time) for arenas with that lane active; both
        are ignored unless an arena is enabled and an endpoint holds
        (or now earns) a slab.
        """
        a, b = edge
        adj = self._adj
        neighbours = adj.get(a)
        if neighbours is None:
            adj[a] = {b}
            self._interner.intern(a)
        elif b in neighbours:
            raise EdgeExistsError(f"edge {edge!r} already present")
        else:
            neighbours.add(b)
        other = adj.get(b)
        if other is None:
            adj[b] = {a}
            self._interner.intern(b)
        else:
            other.add(a)
        self._num_edges += 1
        arena = self._arena
        if arena is not None and (
            # ~ns gate: with no slab anywhere and both endpoints below
            # the cutoff, the arena provably has nothing to do.
            arena._slabs
            or (other is not None and len(other) >= self._slab_cutoff)
            or (
                neighbours is not None
                and len(neighbours) >= self._slab_cutoff
            )
        ):
            self._note_add(a, b, payload, payload2)

    def remove_edge(self, u: Vertex, v: Vertex) -> Edge:
        """Delete the undirected edge ``{u, v}`` and return its canonical form.

        Vertices left isolated are dropped. Raises
        :class:`~repro.errors.EdgeNotFoundError` if the edge is absent.
        """
        edge = canonical_edge(u, v)
        self.remove_edge_canonical(edge)
        return edge

    def remove_edge_canonical(self, edge: Edge) -> None:
        """Delete an edge already in canonical form (no re-sorting)."""
        a, b = edge
        adj = self._adj
        neighbours = adj.get(a)
        if neighbours is None or b not in neighbours:
            raise EdgeNotFoundError(f"edge {edge!r} not present")
        neighbours.remove(b)
        if not neighbours:
            del adj[a]
        other = adj[b]
        other.remove(a)
        if not other:
            del adj[b]
        self._num_edges -= 1
        arena = self._arena
        if arena is not None and arena._slabs:
            self._note_remove(a, b)

    def clear(self) -> None:
        """Remove all edges and vertices (and reset interned ids)."""
        self._adj.clear()
        self._num_edges = 0
        self._interner.clear()
        if self._arena is not None:
            self._arena.clear()

    # -- arena (sorted-slab mirror of the high-degree vertices) -----------

    def enable_arena(
        self,
        payload_fn=None,
        cutoff: int | None = None,
        payload2_fn=None,
    ) -> None:
        """Mirror high-degree neighbourhoods into sorted payload slabs.

        ``payload_fn(u, w) -> float`` supplies the lane value of an
        *existing* edge when a vertex's slab is first built (incremental
        inserts carry their payload through
        :meth:`add_edge_canonical`); ``None`` fills lanes with 1.0.
        ``payload2_fn(u, w) -> float``, when given, activates the
        arena's second payload lane (e.g. per-edge arrival time) and
        fills it the same way at slab build; incremental inserts carry
        their lane-2 value through ``add_edge_canonical``'s
        ``payload2``. ``cutoff`` is the slab-earning degree (default
        :data:`DEFAULT_SLAB_CUTOFF`); a slab is dropped again when its
        live degree falls below ``cutoff // 2`` (hysteresis, so a
        vertex oscillating at the boundary does not thrash
        build/drop). Slabs for already-qualifying vertices are built
        immediately, so enabling on a populated graph is valid.
        """
        if cutoff is not None:
            if cutoff < 2:
                raise ValueError(f"cutoff must be >= 2, got {cutoff}")
            self._slab_cutoff = int(cutoff)
            self._slab_hyst = max(1, int(cutoff) // 2)
        self._payload_fn = payload_fn
        self._payload2_fn = payload2_fn
        if self._arena is None:
            self._arena = AdjacencyArena()
        if payload2_fn is not None:
            self._arena.ensure_lane2()
        for v, neighbours in self._adj.items():
            if len(neighbours) >= self._slab_cutoff:
                i = self._interner.id_of(v)
                if i not in self._arena:
                    self._build_slab(v, i)

    @property
    def arena(self) -> AdjacencyArena | None:
        """The sorted-slab mirror, or ``None`` when not enabled."""
        return self._arena

    @property
    def slab_cutoff(self) -> int:
        """Degree at which a vertex earns an arena slab."""
        return self._slab_cutoff

    def slabbed_vertices(self) -> list[Vertex]:
        """Labels of the vertices currently holding an arena slab."""
        if self._arena is None:
            return []
        label = self._interner.label
        return [label(i) for i in self._arena.slab_ids()]

    def _build_slab(self, v: Vertex, vertex_id: int) -> None:
        """Install ``v``'s slab from the authoritative neighbour set."""
        idmap = self._interner._ids
        pairs = sorted((idmap[w], w) for w in self._adj[v])
        k = len(pairs)
        ids = np.fromiter((p[0] for p in pairs), np.int64, k)
        pf = self._payload_fn
        if pf is None:
            lane = np.ones(k, dtype=np.float64)
        else:
            lane = np.fromiter((pf(v, p[1]) for p in pairs), np.float64, k)
        pf2 = self._payload2_fn
        if pf2 is None:
            self._arena.build(vertex_id, ids, lane)
        else:
            lane2 = np.fromiter(
                (pf2(v, p[1]) for p in pairs), np.float64, k
            )
            self._arena.build(vertex_id, ids, lane, lane2)

    def _note_add(
        self, a: Vertex, b: Vertex, payload: float, payload2: float = 0.0
    ) -> None:
        """Arena maintenance after ``{a, b}`` entered the sets.

        Exposed (underscored) for the sampler mega-loops, which inline
        the dict/set mutations and call this at the same choke point
        ``add_edge_canonical`` does.
        """
        idmap = self._interner._ids
        arena = self._arena
        ia = idmap[a]
        ib = idmap[b]
        if ia in arena:
            arena.insert(ia, ib, payload, payload2)
        elif len(self._adj[a]) >= self._slab_cutoff:
            self._build_slab(a, ia)
        if ib in arena:
            arena.insert(ib, ia, payload, payload2)
        elif len(self._adj[b]) >= self._slab_cutoff:
            self._build_slab(b, ib)

    def _note_remove(self, a: Vertex, b: Vertex) -> None:
        """Arena maintenance after ``{a, b}`` left the sets."""
        idmap = self._interner._ids
        arena = self._arena
        hyst = self._slab_hyst
        ia = idmap[a]
        ib = idmap[b]
        if ia in arena:
            if arena.remove(ia, ib) < hyst:
                arena.drop(ia)
        if ib in arena:
            if arena.remove(ib, ia) < hyst:
                arena.drop(ib)

    def set_edge_payload(self, edge: Edge, payload: float) -> None:
        """Update the arena-lane value of a live edge (both directions).

        No-op for endpoints without a slab (their lanes materialise
        from ``payload_fn`` if a slab is built later) and when no arena
        is enabled.
        """
        arena = self._arena
        if arena is None or not arena._slabs:
            return
        a, b = edge
        idmap = self._interner._ids
        ia = idmap.get(a)
        if ia is None:
            return
        ib = idmap.get(b)
        if ib is None:
            return
        if ia in arena:
            arena.set_payload(ia, ib, payload)
        if ib in arena:
            arena.set_payload(ib, ia, payload)

    def sync_arena_slabs(self, labels: Iterable[Vertex]) -> None:
        """Force the slabbed-vertex set to exactly ``labels``.

        Checkpoint restore uses this: which vertices hold slabs is
        *history-dependent* (hysteresis keeps a slab down to half the
        cutoff), so rebuilding a graph from its surviving edges alone
        can under-slab it; the checkpoint records the exact set and
        replays it here so the restored sampler's adaptive query
        routing — and therefore its float accumulation order — matches
        the uninterrupted run's.
        """
        if self._arena is None:
            raise ConfigurationError("no arena enabled on this graph")
        want: set[int] = set()
        idmap = self._interner._ids
        for v in labels:
            i = idmap[v]
            want.add(i)
            if i not in self._arena and v in self._adj:
                self._build_slab(v, i)
        for i in self._arena.slab_ids():
            if i not in want:
                self._arena.drop(i)

    # -- queries ----------------------------------------------------------

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return whether the undirected edge ``{u, v}`` is present."""
        if u == v:
            return False
        neighbours = self._adj.get(u)
        return neighbours is not None and v in neighbours

    def neighbors(self, v: Vertex) -> frozenset[Vertex]:
        """Return a defensive copy of the neighbour set of ``v``.

        Public-boundary API only: it copies on every call (unknown
        vertices share one empty frozenset instead of allocating).
        Every internal caller goes through :meth:`neighbors_view` /
        :meth:`iter_neighbors` (zero-copy) or the arena-backed
        intersection helpers; keep it that way.
        """
        neighbours = self._adj.get(v)
        if not neighbours:
            return _EMPTY
        return frozenset(neighbours)

    def neighbors_view(self, v: Vertex):
        """Return the *live* neighbour set of ``v`` without copying.

        The returned set is the internal adjacency entry: it must not be
        mutated, and it changes underneath the caller on subsequent
        ``add_edge`` / ``remove_edge`` calls (iterate before mutating).
        Unknown vertices yield a shared empty frozenset.
        """
        return self._adj.get(v, _EMPTY)

    def iter_neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate the neighbours of ``v`` without copying."""
        return iter(self._adj.get(v, ()))

    def degree(self, v: Vertex) -> int:
        """Return the degree of ``v`` (0 if ``v`` is unknown)."""
        return len(self._adj.get(v, ()))

    def common_neighbors(self, u: Vertex, v: Vertex) -> set[Vertex]:
        """Return vertices adjacent to both ``u`` and ``v``.

        This is the γ(M) primitive of Theorems 3/5: for triangle
        counting the per-event work is exactly this intersection (done
        at C level; Python's set intersection iterates the smaller
        operand).
        """
        nu = self._adj.get(u)
        if not nu:
            return set()
        nv = self._adj.get(v)
        if not nv:
            return set()
        return nu & nv

    def count_common(self, u: Vertex, v: Vertex) -> int:
        """|N(u) ∩ N(v)| — the γ(M) count without materialising the set.

        Routes through the arena slabs when both endpoints hold one
        (one ``searchsorted`` + mask instead of a set allocation);
        falls back to the C-level set intersection otherwise. The
        result is an exact integer either way, so callers need no
        routing-dependent tolerance.
        """
        nu = self._adj.get(u)
        if not nu:
            return 0
        nv = self._adj.get(v)
        if not nv:
            return 0
        arena = self._arena
        if (
            arena is not None
            and arena._slabs
            and len(nu) >= self._slab_hyst
            and len(nv) >= self._slab_hyst
        ):
            idmap = self._interner._ids
            iu = idmap[u]
            if iu in arena:
                iv = idmap[v]
                if iv in arena:
                    return arena.common_count(iu, iv)
        if nu.isdisjoint(nv):
            return 0
        return len(nu & nv)

    def common_payloads(self, u: Vertex, v: Vertex):
        """Payload-lane pairs over N(u) ∩ N(v), or ``None``.

        Returns ``(pa, pb)`` float arrays — the two per-edge payloads
        of each common neighbour, in ascending dense-id order — when
        *both* endpoints hold an arena slab; ``None`` when the
        vectorised path does not apply (no arena, either endpoint
        unslabbed, or a vertex unknown), in which case the caller runs
        its scalar loop. The two sides are symmetric (no guarantee
        which endpoint is first).
        """
        arena = self._arena
        if arena is None or not arena._slabs:
            return None
        nu = self._adj.get(u)
        if nu is None or len(nu) < self._slab_hyst:
            return None
        nv = self._adj.get(v)
        if nv is None or len(nv) < self._slab_hyst:
            return None
        idmap = self._interner._ids
        iu = idmap[u]
        if iu not in arena:
            return None
        iv = idmap[v]
        if iv not in arena:
            return None
        return arena.common_payloads(iu, iv)

    def common_payloads2(self, u: Vertex, v: Vertex):
        """Both payload lanes over N(u) ∩ N(v), or ``None``.

        Like :meth:`common_payloads` but returns ``(pa, pb, qa, qb)``
        with the second-lane values of the same slots (requires an
        arena enabled with ``payload2_fn``). ``None`` under the same
        conditions — the caller then runs its scalar loop.
        """
        arena = self._arena
        if arena is None or not arena._slabs:
            return None
        nu = self._adj.get(u)
        if nu is None or len(nu) < self._slab_hyst:
            return None
        nv = self._adj.get(v)
        if nv is None or len(nv) < self._slab_hyst:
            return None
        idmap = self._interner._ids
        iu = idmap[u]
        if iu not in arena:
            return None
        iv = idmap[v]
        if iv not in arena:
            return None
        return arena.common_payloads2(iu, iv)

    def arena_common_neighbors(self, u: Vertex, v: Vertex):
        """Common neighbours as a label set via the slabs, or ``None``.

        ``None`` means the vectorised path does not apply (no arena, no
        slabs yet, or either endpoint unslabbed) and the caller should
        use :meth:`common_neighbors`; the sub-µs guard chain makes this
        safe to call unconditionally on sparse hot paths.
        """
        arena = self._arena
        if arena is None or not arena._slabs:
            return None
        nu = self._adj.get(u)
        if nu is None or len(nu) < self._slab_hyst:
            return None
        nv = self._adj.get(v)
        if nv is None or len(nv) < self._slab_hyst:
            return None
        idmap = self._interner._ids
        iu = idmap[u]
        if iu not in arena:
            return None
        iv = idmap[v]
        if iv not in arena:
            return None
        label = self._interner._labels.__getitem__
        return {label(i) for i in arena.common_ids(iu, iv).tolist()}

    # -- interning ---------------------------------------------------------

    @property
    def interner(self) -> VertexInterner:
        """The label ↔ dense-id mapping for every vertex ever inserted."""
        return self._interner

    def vertex_id(self, v: Vertex) -> int:
        """Dense int id of ``v`` (KeyError if ``v`` was never inserted).

        Ids are assigned in first-insertion order and survive vertex
        removal, so they provide a stable, identity-consistent total
        order over all vertices seen so far.
        """
        return self._interner.id_of(v)

    def sort_by_id(self, vertices: Iterable[Vertex]) -> list[Vertex]:
        """Sort ``vertices`` by interned id — the allocation-free
        replacement for ``sorted(..., key=repr)`` in the enumerators."""
        return self._interner.sorted(vertices)

    @property
    def num_edges(self) -> int:
        """Number of edges currently alive."""
        return self._num_edges

    @property
    def num_vertices(self) -> int:
        """Number of non-isolated vertices."""
        return len(self._adj)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over the non-isolated vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in canonical form (each edge once)."""
        for u, neighbours in self._adj.items():
            for v in neighbours:
                edge = canonical_edge(u, v)
                if edge[0] == u:
                    yield edge

    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __len__(self) -> int:
        return self._num_edges

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DynamicAdjacency(vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )
