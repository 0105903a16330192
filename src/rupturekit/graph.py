"""Undirected graph model, connectivity analysis, and rupture-degree scoring.

Nodes are labeled 1..n.  Adjacency is kept both as an edge list and as
per-node bitmasks; the bitmask form is the hot path for the enumeration
oracle and the branch-and-bound solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputError, SizeLimitError

NODE_CLASSES = ("attackable", "intact", "generator", "hub", "load")

DEFAULT_ENUMERATION_CAP = 22

# budget tolerance of the enumeration oracle and the solvers
BUDGET_TOL = 1e-9


class Graph:
    """Simple undirected graph with per-node attack costs and pairwise
    link-addition costs for non-edges.  Every graph comes from one build
    step, `_build`, over data checked once: by `__init__`, or on the way
    to `from_checked` (see `__init__`)."""

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        attack_cost: Optional[Sequence[float]] = None,
        link_cost: Optional[Mapping[tuple[int, int], float]] = None,
        node_class: Optional[Sequence[str]] = None,
    ):
        """Check the data, then build the graph.  Each check, and where
        it runs instead for a graph parsed by `model_io.parse_instance` or
        rebuilt by `response.rebuilt_model`:

        - n >= 1.  Parsed: the NODES line.  Rebuilt: g's n.
        - Each edge joins two distinct nodes of 1..n; (j, i) is (i, j).
          Parsed: `parse_node` and the self-loop test.  Rebuilt: g's edges,
          and links `mceic_matrix` takes between two components.
        - n finite nonnegative attack costs, 1.0 each by default.  Parsed:
          `parse_cost`, 1.0 for a node no row names.  Rebuilt: g's.
        - Link-cost pairs of two distinct nodes of 1..n, with finite
          nonnegative costs, one per pair.  Parsed: `parse_node`, the pair
          test, `parse_cost` and the asymmetry test.  Rebuilt: none kept.
        - One known class per node, if any.  Parsed: the CLASSES rows,
          `load` for a node no row names.  Rebuilt: none kept.
        """
        if n < 1:
            raise InputError(f"node count must be >= 1, got {n}")
        norm = set()
        for i, j in edges:
            if i == j:
                raise InputError(f"self-loop at node {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputError(f"edge ({i},{j}) out of range 1..{n}")
            norm.add((min(i, j), max(i, j)))

        if attack_cost is None:
            attack_cost = (1.0,) * n
        else:
            if len(attack_cost) != n:
                raise InputError("attack_cost must have one entry per node")
            if not all(math.isfinite(c) and c >= 0 for c in attack_cost):
                raise InputError("attack costs must be finite and nonnegative")
            attack_cost = tuple(float(c) for c in attack_cost)

        link: dict[tuple[int, int], float] = {}
        for (i, j), d in (link_cost or {}).items():
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise InputError(f"link cost pair ({i},{j}) invalid")
            if not math.isfinite(d) or d < 0:
                raise InputError(
                    f"link cost for ({i},{j}) must be finite and nonnegative")
            key = (min(i, j), max(i, j))
            if key in link and abs(link[key] - d) > 1e-9:
                raise InputError(f"asymmetric link cost for pair {key}")
            link[key] = float(d)

        if node_class is not None:
            if len(node_class) != n:
                raise InputError("node_class must have one entry per node")
            for cls in node_class:
                if cls not in NODE_CLASSES:
                    raise InputError(f"unknown node class {cls!r}")
            node_class = tuple(node_class)
        self._build(n, norm, attack_cost, link, node_class)

    @classmethod
    def from_checked(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        attack_cost: tuple[float, ...],
        link_cost: dict[tuple[int, int], float],
        node_class: Optional[tuple[str, ...]] = None,
    ) -> "Graph":
        """The graph of data that passed every check of `__init__`, built
        without a second one, in the form `__init__` gives it: edges (i, j)
        with i < j, repeats allowed; float costs; link costs keyed (i, j)
        with i < j; a class tuple or None.  Nothing is copied."""
        g = cls.__new__(cls)
        g._build(n, edges, attack_cost, link_cost, node_class)
        return g

    def _build(self, n, edges, attack_cost, link_cost, node_class) -> None:
        self.n = n
        # dict.fromkeys drops repeats and keeps the order, so sorted pairs
        # stay one run for the sort
        self.edges: tuple[tuple[int, int], ...] = tuple(
            sorted(dict.fromkeys(edges)))
        self.edge_set = frozenset(self.edges)
        self.attack_cost: tuple[float, ...] = attack_cost
        self.link_cost: dict[tuple[int, int], float] = link_cost
        self.node_class: Optional[tuple[str, ...]] = node_class
        # adjacency bitmasks, adj[v] has bit (u-1) set for each neighbor u
        adj = [0] * (n + 1)
        for i, j in self.edges:
            adj[i] |= 1 << (j - 1)
            adj[j] |= 1 << (i - 1)
        self._adj = adj
        self._full_mask = (1 << n) - 1

    # -- basic accessors -------------------------------------------------

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _mask_to_nodes(self._adj[v])

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edge_set

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        comps = _component_masks(self._adj, self._full_mask)
        return len(comps) == 1

    def add_edges(self, new_edges: Iterable[tuple[int, int]]) -> "Graph":
        """Return a new graph with the given edges added."""
        merged = set(self.edges)
        for i, j in new_edges:
            merged.add((min(i, j), max(i, j)))
        link = {k: v for k, v in self.link_cost.items() if k not in merged}
        return Graph(self.n, merged, self.attack_cost, link, self.node_class)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class ComponentPartition:
    """Partition of surviving nodes into connected components, ordered by
    smallest contained node index."""

    components: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)

    @property
    def largest_size(self) -> int:
        return max(self.sizes, default=0)

    @property
    def count(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class CutSet:
    nodes: frozenset[int]
    is_cut: bool


@dataclass(frozen=True)
class RuptureScore:
    cut_size: int
    largest: int
    count: int
    rupture: int
    is_cut: bool

    @property
    def resilience(self) -> int:
        return -self.rupture


def _mask_to_nodes(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length())
        mask ^= b
    return out


def _component_masks(adj: Sequence[int], alive: int) -> list[int]:
    """Bitmasks of the connected components of the subgraph induced on
    `alive`, ordered by lowest contained bit."""
    comps = []
    rest = alive
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length()]
            frontier = nxt & alive & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _nodes_to_mask(nodes: Iterable[int]) -> int:
    mask = 0
    for v in nodes:
        mask |= 1 << (v - 1)
    return mask


def components(g: Graph, removed: Iterable[int] = ()) -> ComponentPartition:
    """Connected components of g after deleting `removed` and their edges."""
    removed = set(removed)
    for v in removed:
        if not (1 <= v <= g.n):
            raise InputError(f"removed node {v} out of range")
    alive = g._full_mask & ~_nodes_to_mask(removed)
    return _partition(_component_masks(g._adj, alive))


def _partition(masks: Iterable[int]) -> ComponentPartition:
    """The partition of the component masks, in their order."""
    return ComponentPartition(tuple(tuple(_mask_to_nodes(m)) for m in masks))


def _survivor_stats(g: Graph, removed_mask: int) -> tuple[int, int]:
    """(largest component size, component count) after removing the mask."""
    alive = g._full_mask & ~removed_mask
    masks = _component_masks(g._adj, alive)
    if not masks:
        return 0, 0
    return max(m.bit_count() for m in masks), len(masks)


def rupture_score(g: Graph, x: CutSet | Iterable[int]) -> RuptureScore:
    """Score a removal set: r = -|X| - m(G-X) + w(G-X).

    Non-cut removals are scored too, with is_cut=False; removing every
    node is an error.
    """
    return _score_masks(g, x.nodes if isinstance(x, CutSet) else frozenset(x))[0]


def _score_masks(g: Graph, nodes: frozenset[int]) -> tuple[RuptureScore, list[int]]:
    """The score of removing `nodes`, as rupture_score gives it, and the
    masks of the surviving components, from one component pass."""
    for v in nodes:
        if not (1 <= v <= g.n):
            raise InputError(f"cut node {v} out of range")
    alive = g._full_mask & ~_nodes_to_mask(nodes)
    if alive == 0:
        raise InputError("cut set removes all nodes")
    masks = _component_masks(g._adj, alive)
    m, omega = max(map(int.bit_count, masks)), len(masks)
    is_cut = omega >= 2 or alive.bit_count() == 1
    r = -len(nodes) - m + omega
    return RuptureScore(len(nodes), m, omega, r, is_cut), masks


def _better_cut(
    cand: tuple[int, int, tuple[int, ...]],
    best: Optional[tuple[int, int, tuple[int, ...]]],
) -> bool:
    """Tie-break: higher rupture, then smaller |X|, then lexicographically
    smallest sorted node tuple."""
    if best is None:
        return True
    cr, csz, ct = cand
    br, bsz, bt = best
    return (-cr, csz, ct) < (-br, bsz, bt)


def worst_cut_oracle(
    g: Graph,
    budget: float,
    attackable: Optional[Iterable[int]] = None,
    *,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> Optional[tuple[CutSet, RuptureScore]]:
    """Reference oracle: exhaustively enumerate budget-feasible cut sets and
    return the rupture maximizer, or None when no feasible cut set exists.

    Enumeration runs over subsets of `attackable` (all nodes by default);
    refuses instances whose enumerated set exceeds `enumeration_cap`.
    """
    if budget < 0:
        raise InputError("budget must be nonnegative")
    pool = sorted(attackable) if attackable is not None else list(g.nodes)
    if len(pool) > enumeration_cap:
        raise SizeLimitError(
            f"{len(pool)} enumerable nodes exceed the enumeration cap "
            f"{enumeration_cap}"
        )
    costs = {v: g.attack_cost[v - 1] for v in pool}
    min_cost = min(costs.values(), default=0.0)
    best: Optional[tuple[int, int, tuple[int, ...]]] = None
    for k in range(0, len(pool) + 1):
        if k * min_cost > budget + BUDGET_TOL:
            break
        for combo in combinations(pool, k):
            if sum(costs[v] for v in combo) > budget + BUDGET_TOL:
                continue
            removed_mask = _nodes_to_mask(combo)
            alive = g._full_mask & ~removed_mask
            if alive == 0:
                continue
            m, omega = _survivor_stats(g, removed_mask)
            if not (omega >= 2 or alive.bit_count() == 1):
                continue
            r = -k - m + omega
            cand = (r, k, combo)
            if _better_cut(cand, best):
                best = cand
    if best is None:
        return None
    r, k, combo = best
    cut = CutSet(frozenset(combo), True)
    return cut, rupture_score(g, cut)
