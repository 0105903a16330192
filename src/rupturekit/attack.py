"""Exact first-stage solver: find the budget-feasible node removal that
maximizes the rupture degree.

The search is a depth-first branch-and-bound over remove/keep decisions.
All consistency constraints of the companion MIP become deterministic once
the removal set is fixed, so leaves are scored exactly with the graph-core
routines; the full MIP remains available through the model-io export.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import InputError
from .graph import (
    ComponentPartition,
    CutSet,
    Graph,
    RuptureScore,
    _component_masks,
    _mask_to_nodes,
    _nodes_to_mask,
    components,
    rupture_score,
)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"

# budget tolerance, the same as the enumeration oracle's
BUDGET_TOL = 1e-9


@dataclass(frozen=True)
class AttackModel:
    """First-stage instance: which nodes may be removed and at what budget.

    `attackable` defaults to all nodes (targeted attack); the complement is
    treated as intact and is never removed (distributed attack).
    """

    graph: Graph
    budget: float
    attackable: frozenset[int] = frozenset()

    def __post_init__(self):
        if not math.isfinite(self.budget) or self.budget < 0:
            raise InputError("attack budget must be finite and nonnegative")
        if not self.attackable:
            object.__setattr__(self, "attackable", frozenset(self.graph.nodes))
        for v in self.attackable:
            if not (1 <= v <= self.graph.n):
                raise InputError(f"attackable node {v} out of range")

    @property
    def intact(self) -> frozenset[int]:
        return frozenset(self.graph.nodes) - self.attackable


@dataclass
class SolverStats:
    nodes_explored: int = 0
    # always 0: the search applies no cuts; kept for the rupturekit-result/1
    # JSON, which emits it under "stats"
    cuts_applied: int = 0
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "nodes_explored": self.nodes_explored,
            "cuts_applied": self.cuts_applied,
            "wall_time": self.wall_time,
        }


@dataclass
class AttackResult:
    status: str
    cut: Optional[CutSet] = None
    score: Optional[RuptureScore] = None
    partition: Optional[ComponentPartition] = None
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def objective(self) -> Optional[int]:
        return None if self.score is None else self.score.rupture


def scored_cut(g: Graph, nodes: Iterable[int],
               stats: Optional[SolverStats] = None) -> AttackResult:
    """A removal set scored as an optimal stage-one result: the solver's
    cut, or one given by the instance or the user.  A non-cut is scored
    too, with is_cut False."""
    nodes = frozenset(nodes)
    score = rupture_score(g, nodes)
    return AttackResult(STATUS_OPTIMAL, CutSet(nodes, score.is_cut), score,
                        components(g, nodes), stats or SolverStats())


def _is_simplicial(adj: list[int], v: int) -> bool:
    """True when the neighbours of v are pairwise adjacent."""
    nbrs = adj[v]
    rest = nbrs
    while rest:
        low = rest & -rest
        if nbrs & ~low & ~adj[low.bit_length()]:
            return False
        rest ^= low
    return True


def solve_attack(model: AttackModel) -> AttackResult:
    r"""Global maximizer of r = -|X| - m + w over budget-feasible cut sets.

    Depth-first branch-and-bound on remove/keep decisions.  Branching order
    is descending degree then index; removal is tried first so good
    incumbents appear early.  The attack budget is enforced exactly on every
    removal branch, so no knapsack cut over the removal indicators can prune
    a partial removal that this test admits.

    Each search node carries the kept set K (the intact and simplicial
    nodes plus every node decided "keep") as its component masks, its largest component
    size m(K) and its neighbour mask N(K).  Keeping a node merges it with
    the components it touches; removing one leaves the state as it is, so
    no node recomputes components, and at a leaf K is the surviving graph.
    The bound counts only the undecided nodes outside N(K) as possible new
    components: an undecided survivor next to K joins a kept component.
    So at most W = comp(K) + u components survive, u being the number of
    those nodes, and by pigeonhole the largest holds at least
    ceil((n - f) / W) of the n - f nodes not yet removed; removing t more
    nodes lowers that floor by at most t, so the bound takes t = 0 and
    never reads the budget.  This term is computed only at nodes that
    survive the cheaper m(K) bound and only when it is the larger one.
    The remove branch recurses and the keep branch loops, so the recursion
    depth is the number of removals plus one.

    The frontier term bounds |X| + m from below.  Each kept component C
    carries its neighbour mask next to its node mask; let D(C) be its
    undecided neighbours.  In any completion X each node of D(C) is either
    removed, adding one to |X|, or survives next to C, adding one to C's
    final component, so |X| + m >= f + |C| + |D(C)|.  Down the tree this
    sum never decreases: a removal adds one to f and takes at most one
    node out of D(C); keeping a node of D(C) moves it into C, and the
    merged component's neighbours include the rest of D(C); keeping any
    other node leaves C and D(C) as they are.  So the search carries the
    running maximum g_lo as one integer, taken over the intact and
    simplicial components at the root and then over each component the
    keep branch merges, and the bound reads
    r <= W - max(f + max(1, m(K)), g_lo) besides the pigeonhole term.

    Simplicial nodes, whose neighbours are pairwise adjacent (every
    degree-1 node is one), are never branched on: attackable ones are kept
    from the start, like intact nodes.  This is exact.  Let X be a cut set
    holding a simplicial node v.  The surviving neighbours of v lie in one
    component, so X \ {v} keeps the component count and grows one
    component by v, or adds v as a new component: its rupture is at least
    that of X, its size is smaller and it costs no more.  It is a cut set
    unless X = V \ {u} with u adjacent to v, where the two survivors
    u and v form one component.  So the cardinality tie-break never picks
    X, except for a single-survivor cut; when any node was fixed, every
    affordable single-survivor cut V \ {u} is scored after the search.
    """
    g = model.graph
    if not g.is_connected():
        raise InputError("attack stage requires a connected graph")
    start = time.perf_counter()
    stats = SolverStats()
    adj = g._adj
    fixed = frozenset(v for v in model.attackable if _is_simplicial(adj, v))
    order = sorted(model.attackable - fixed, key=lambda v: (-g.degree(v), v))
    budget = model.budget
    cost = g.attack_cost
    n = g.n
    # undecided[idx] is the mask of order[idx:]
    n_order = len(order)
    undecided = [0] * (n_order + 1)
    for idx in range(n_order - 1, -1, -1):
        undecided[idx] = undecided[idx + 1] | 1 << (order[idx] - 1)

    # best = (rupture, |X|, sorted node tuple)
    best: list[Optional[tuple[int, int, tuple[int, ...]]]] = [None]

    def leaf(removed_mask: int, comps: list[tuple[int, int]], m_k: int) -> None:
        # every node is decided, so the survivors are exactly K
        omega = len(comps)
        if not (omega >= 2 or (omega == 1 and m_k == 1)):
            return  # not a cut set
        size = removed_mask.bit_count()
        cand = (-size - m_k + omega, size, tuple(_mask_to_nodes(removed_mask)))
        b = best[0]
        if b is None or (-cand[0], cand[1], cand[2]) < (-b[0], b[1], b[2]):
            best[0] = cand

    def dfs(idx: int, removed_mask: int, spent: float,
            comps: list[tuple[int, int]], m_k: int, nbr_k: int,
            g_lo: int) -> None:
        # One call per removal: the remove branch recurses and the keep
        # branch rebinds the state and loops, so f is fixed per call.  A
        # comps list is never mutated, since the remove branch shares it.
        f = removed_mask.bit_count()
        alive = n - f
        while True:
            stats.nodes_explored += 1
            b = best[0]
            if b is not None:
                # Admissible bound.  With f nodes removed so far, kept set K
                # and u undecided nodes outside N(K), any completion removes
                # t >= 0 more nodes, so |X| = f + t.  Components of the
                # subgraph induced on K stay connected in any completion,
                # hence m >= max(1, m(K)), and m + |X| >= g_lo (the frontier
                # term, see the docstring).  A surviving component without a
                # node of K holds no node of N(K), since such a node is
                # joined to K, so it holds one of the u - t' surviving
                # undecided nodes outside N(K), where t' <= t of those u are
                # removed; at most comp(K) components hold a node of K.
                # Hence omega <= W = comp(K) + u, and the n - f - t
                # survivors fill at most W components, so by pigeonhole
                # m >= ceil((n-f-t) / W).  Then
                #   r <= W - max(f + t + max(1, m(K)), g_lo,
                #                f + t + ceil((n-f-t) / W))
                #     <= W - max(f + max(1, m(K)), g_lo, f + ceil((n-f) / W)),
                # since ceil((n-f) / W) <= ceil((n-f-t) / W) + t: t = 0 is
                # the worst case and the budget never enters.
                w = len(comps) + (undecided[idx] & ~nbr_k).bit_count()
                m_lo = m_k if m_k > 1 else 1
                lo = f + m_lo
                bound = w - (lo if lo > g_lo else g_lo)
                # equal-bound subtrees with f > |best X| cannot improve the
                # cardinality-then-lex tie-break
                if bound < b[0] or (bound == b[0] and f > b[1]):
                    return
                if alive > m_lo * w:
                    if not w:
                        return  # no completion leaves a survivor
                    # -ceil(alive / w) == -alive // w
                    bound = w - f + -alive // w
                    if bound < b[0] or (bound == b[0] and f > b[1]):
                        return
            if idx == n_order:
                leaf(removed_mask, comps, m_k)
                return
            v = order[idx]
            bit = 1 << (v - 1)
            # branch: remove v
            new_spent = spent + cost[v - 1]
            if new_spent <= budget + BUDGET_TOL:
                dfs(idx + 1, removed_mask | bit, new_spent, comps, m_k, nbr_k,
                    g_lo)
            # branch: keep v, merged with every kept component it touches
            adj_v = adj[v]
            merged = bit
            merged_nbr = adj_v
            kept = []
            for c in comps:
                if c[0] & adj_v:
                    merged |= c[0]
                    merged_nbr |= c[1]
                else:
                    kept.append(c)
            kept.append((merged, merged_nbr))
            comps = kept
            size = merged.bit_count()
            if size > m_k:
                m_k = size
            nbr_k |= adj_v
            idx += 1
            frontier = f + size + (merged_nbr & undecided[idx]).bit_count()
            if frontier > g_lo:
                g_lo = frontier

    always_kept = model.intact | fixed
    comps = []
    for c in _component_masks(adj, _nodes_to_mask(always_kept)):
        c_nbr = 0
        for v in _mask_to_nodes(c):
            c_nbr |= adj[v]
        comps.append((c, c_nbr))
    nbr = 0
    g_lo = m_k = 0
    for c, c_nbr in comps:
        nbr |= c_nbr
        m_k = max(m_k, c.bit_count())
        g_lo = max(g_lo, c.bit_count() + (c_nbr & undecided[0]).bit_count())
    dfs(0, 0, 0.0, comps, m_k, nbr, g_lo)
    if fixed:
        # the single-survivor cuts V \ {u}, the only optima that may hold a
        # simplicial node, scored apart from the search.  Costs are added
        # left to right, as the oracle sums a cut; they are nonnegative, so
        # the scan stops once the partial sum exceeds the budget.
        intact = model.intact
        limit = budget + BUDGET_TOL
        for u in g.nodes:
            if not intact <= {u}:
                continue
            spent = 0.0
            for w in g.nodes:
                if w != u:
                    spent += cost[w - 1]
                    if spent > limit:
                        break
            else:
                bit = 1 << (u - 1)
                leaf(g._full_mask & ~bit, [(bit, adj[u])], 1)
    stats.wall_time = time.perf_counter() - start

    if best[0] is None:
        return AttackResult(STATUS_INFEASIBLE, stats=stats)
    # score and partition are recomputed independently of the search
    return scored_cut(g, best[0][2], stats)

