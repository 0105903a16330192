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
from itertools import accumulate
from operator import and_, or_
from typing import Iterable, Optional

from .errors import InputError
from .graph import (
    BUDGET_TOL,
    ComponentPartition,
    CutSet,
    Graph,
    RuptureScore,
    _component_masks,
    _mask_to_nodes,
    _nodes_to_mask,
    _partition,
    _score_masks,
    _survivor_stats,
)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"


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
    # search nodes visited; a removal that exhausts the budget and is
    # scored in one step counts as one node
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


def scored_cut(g: Graph, nodes: Iterable[int],
               stats: Optional[SolverStats] = None) -> AttackResult:
    """A removal set scored as an optimal stage-one result: the solver's
    cut, or one given by the instance or the user.  A non-cut is scored
    too, with is_cut False."""
    nodes = frozenset(nodes)
    score, masks = _score_masks(g, nodes)
    return AttackResult(STATUS_OPTIMAL, CutSet(nodes, score.is_cut), score,
                        _partition(masks), stats or SolverStats())


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


def _neighbour_rows(adjs: list[int], k_max: int) -> list[list[int]]:
    """rows[k][idx] is the mask of nodes with at least k neighbours among
    the nodes whose adjacency masks are adjs[idx:], for 1 <= k <= k_max;
    the rows stop early at the first k that no node reaches.

    A node has k such neighbours when, for some j >= idx, it is adjacent to
    the node of adjs[j] and has k - 1 among adjs[j + 1:], so
    rows[k][idx] = rows[k][idx + 1] | (rows[k - 1][idx + 1] & adjs[idx]),
    with rows[0] holding every node: one AND per node and threshold, and
    an OR-accumulation.  Each row is built from the end and then
    reversed."""
    rev_adjs = adjs[::-1]
    row = [-1] * (len(adjs) + 1)
    rows = [row]
    for _ in range(k_max):
        row = list(accumulate(map(and_, row, rev_adjs), or_, initial=0))
        if not row[-1]:
            break
        rows.append(row)
    for row in rows:
        row.reverse()
    return rows


def _max_removals(costs: list[float], limit: float) -> Optional[int]:
    """An upper bound on how many of the nodes costing `costs` fit in
    `limit` when summed as floats, or None when the least cost is 0.

    Each of r removals costs at least c = min(costs), so r * c <= limit in
    exact arithmetic; the float sum of r nonnegative terms is at least
    (1 - 2^-53)^(r-1) times the exact one, and the quotient is rounded
    too.  The factor 1 + 1e-9 covers both for any r below about 10^6, so
    the count is never too small."""
    c_min = min(costs, default=0.0)
    if c_min <= 0.0:
        return None
    q = limit / c_min
    return len(costs) if q >= len(costs) else math.floor(q * (1 + 1e-9))


def _neighbourhood_cut(
    g: Graph, locked: int, limit: float,
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """A budget-feasible cut that isolates low-degree nodes, as the
    search's (rupture, |X|, sorted node tuple) key, or None.  `locked` is
    the mask of the nodes that may not be removed.

    The nodes are scanned in ascending (degree, index) order.  A node v
    outside X whose neighbours may all be removed is isolated by adding
    N(v) to X, when that stays within `limit` and improves the estimate
    -|X| - m + w that takes the isolated nodes I as singletons and the
    rest of the survivors as one component: -|X| - (n - |X| - |I|) + |I| + 1
    while some node is left over, which every step raises by 2, and
    -|X| - 1 + |I| once none is.  The neighbours of I are all in X, so v
    is adjacent to no node of I.  The scan stops once the budget affords
    no further node.  The final X is scored exactly, its costs summed in
    ascending node order as the oracle sums a cut."""
    n = g.n
    if n <= 2:
        return None
    adj = g._adj
    cost = g.attack_cost
    c_min = min(cost)
    x = 0
    spent = 0.0
    i_size = 0
    est = 1 - n
    for v in sorted(g.nodes, key=lambda v: adj[v].bit_count()):
        if spent + c_min > limit:
            break
        nbrs = adj[v]
        if x >> (v - 1) & 1 or nbrs & locked:
            continue
        new = nbrs & ~x
        step = spent
        for u in _mask_to_nodes(new):
            step += cost[u - 1]
        if step > limit:
            continue
        x_size = (x | new).bit_count()
        rest = n - x_size - i_size - 1
        step_est = (2 * i_size + 3 - n) if rest else i_size - x_size
        if step_est <= est:
            continue
        x |= new
        i_size += 1
        spent, est = step, step_est
    if not x:
        return None
    removed = _mask_to_nodes(x)
    total = 0.0
    for v in removed:
        total += cost[v - 1]
    if total > limit:
        return None
    m, omega = _survivor_stats(g, x)
    if omega < 2 and m > 1:
        return None  # one component of two nodes or more: not a cut
    size = len(removed)
    return (-size - m + omega, size, tuple(removed))


def solve_attack(model: AttackModel) -> AttackResult:
    r"""Global maximizer of r = -|X| - m + w over budget-feasible cut sets.

    Depth-first branch-and-bound on remove/keep decisions.  Branching order
    is descending degree then index; removal is tried first so good
    incumbents appear early.  The attack budget is enforced exactly on every
    removal branch, so no knapsack cut over the removal indicators can prune
    a partial removal that this test admits.

    Each search node carries the kept set K (the intact and simplicial
    nodes plus every node decided "keep") as its component masks, its
    largest component size m(K), held as max(1, m(K)), and the complement
    of its neighbour mask N(K).  Keeping a node merges it with the
    components it touches; removing one leaves the state as it is, so no
    node recomputes components, and at a leaf K is the surviving graph.
    The bound counts only the nodes of U, the undecided nodes outside
    N(K), as possible new components: an undecided survivor next to K
    joins a kept component.  The budget tightens that count.  With f
    removals made, at most t = t0 - f more are affordable, where t0 is the
    most removals the budget buys at the least cost over the branching
    order.  A surviving component without a node of K lies in U, and each
    undecided neighbour of it is removed; so a node of U with more than t
    undecided neighbours survives only in such a component of two nodes
    or more.  With H those nodes of U, at most
    W = comp(K) + |U \ H| + floor(|H| / 2) components survive.  H is read
    from rows built once before the search (the nodes with at least k
    neighbours among order[idx:], for each k up to t0 + 1), so the term
    costs at most one AND and one popcount per node.  When the least cost
    is zero, t0 is unbounded and the term is left out.
    The remove branch recurses and the keep branch loops, so the recursion
    depth is the number of removals plus one.

    The last affordable removal is scored in one step.  When f + 1 = t0,
    removing order[idx] leaves no further removal affordable, as t0 never
    under-counts; so the removal has exactly one completion, in which
    every node of order[idx + 1:] survives.  Its survivors are the kept
    components joined through the components of the subgraph induced on
    that suffix, which are built once per solve, from the end of the order
    in one pass, each with its neighbour mask.  Kept components are
    pairwise non-adjacent, and so are suffix components, so merging each
    suffix component with the components it touches gives the exact w and
    m.  The child's bound is tested first, and the completion is then
    scored as a leaf.  Because the score is exact and the removal fits the
    budget, scoring a completion that the walk would have pruned, by the
    bound or by the dominance test below, cannot change the cut or its
    tie-break.  If t0 over-counts, the step does not fire and the walk
    goes on as before.

    The search starts from the incumbent `_neighbourhood_cut` builds, so
    it prunes from the first node.  Any budget-feasible cut will do: a
    subtree is cut off only when its bound cannot beat the incumbent, or
    ties it with more removals, so no optimum, tie-break included, is cut
    off, and a better starting incumbent only prunes more.  The incumbent
    may hold a dominated node, which the search never removes; by the
    argument below it is then not optimal, unless it is a single-survivor
    cut, which is scored again after the search.

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
    keep branch merges.  The bound combines three terms, the largest kept
    component m(K), the frontier term g_lo and the budget-aware count H in
    W, and reads r <= W - max(f + max(1, m(K)), g_lo).

    Separator dominance.  Let X be a cut set holding a node v whose
    surviving neighbours lie in one component of G - X (or there are
    none).  Then X \ {v} keeps the component count and grows one
    component by v, or adds v as a new component: its rupture is at least
    that of X, its size is smaller and it costs no more.  It is a cut set
    unless X = V \ {u} with u adjacent to v, where the two survivors
    u and v form one component.  So the cardinality tie-break never picks
    X, except for a single-survivor cut, and the search drops two kinds
    of subtree:
      - Simplicial nodes, whose neighbours are pairwise adjacent (every
        degree-1 node is one), are never branched on: attackable ones are
        kept from the start, like intact nodes.
      - Components only merge down the tree, and an undecided neighbour
        of a kept component C either joins C or is removed.  So once the
        surviving neighbours a_v of a removed node v lie in C and its
        undecided neighbours, v is dominated in every completion.  The
        test reads only the component the keep branch merged last: the
        remove branch is skipped when a_v is covered (or empty), and a
        call made by a removal stops once a keep covers that removal's
        a_v.  The tests cost three bitwise operations per keep and one per
        removal.
    Single-survivor cuts V \ {u} are scored after every search in which
    one may fit the budget, that is unless the least attack cost rules out
    n - 1 removals.
    """
    g = model.graph
    if not g.is_connected():
        raise InputError("attack stage requires a connected graph")
    start = time.perf_counter()
    stats = SolverStats()
    adj = g._adj
    fixed = frozenset(v for v in model.attackable if _is_simplicial(adj, v))
    order = sorted(model.attackable - fixed, key=lambda v: (-g.degree(v), v))
    cost = g.attack_cost
    limit = model.budget + BUDGET_TOL
    # per branch index: the node's bit, attack cost, neighbour mask and its
    # complement
    n_order = len(order)
    bits = [1 << (v - 1) for v in order]
    costs = [cost[v - 1] for v in order]
    adjs = [adj[v] for v in order]
    non_adjs = [~a for a in adjs]
    # undecided[idx] is the mask of order[idx:]
    undecided = [0] * (n_order + 1)
    for idx in range(n_order - 1, -1, -1):
        undecided[idx] = undecided[idx + 1] | bits[idx]
    # many_nbrs[f][idx]: the nodes with more than t = t0 - f neighbours
    # among order[idx:], which no completion leaves as a singleton
    # component; a shared zero row where no node has that many, or where
    # the least cost is zero
    t0 = _max_removals(costs, limit)
    many_nbrs = [[0] * (n_order + 1)] * (n_order + 1)
    if t0 is not None:
        rows = _neighbour_rows(adjs, t0 + 1)
        for k in range(1, len(rows)):
            many_nbrs[t0 + 1 - k] = rows[k]

    # suffix[idx]: the components of the subgraph induced on order[idx:],
    # as (node mask, neighbour mask) pairs, built from the end; read only
    # after the t0-th removal, so for t0 >= 1 and idx >= t0
    suffix: list[list[tuple[int, int]]] = [[]] * (n_order + 1)
    if t0:
        for idx in range(n_order - 1, t0 - 1, -1):
            merged = bits[idx]
            merged_nbr = adj_v = adjs[idx]
            parts = []
            for c in suffix[idx + 1]:
                if c[0] & adj_v:
                    merged |= c[0]
                    merged_nbr |= c[1]
                else:
                    parts.append(c)
            parts.append((merged, merged_nbr))
            suffix[idx] = parts

    # best = (rupture, |X|, sorted node tuple)
    best: list[Optional[tuple[int, int, tuple[int, ...]]]] = [
        _neighbourhood_cut(g, _nodes_to_mask(model.intact), limit)]

    def leaf(removed_mask: int, omega: int, m: int) -> None:
        # a removal set whose survivors form omega components, the largest
        # of m nodes
        if not (omega >= 2 or (omega == 1 and m == 1)):
            return  # not a cut set
        size = removed_mask.bit_count()
        rupture = -size - m + omega
        b = best[0]
        # the incumbent wins on a higher rupture, then on fewer removals;
        # the node tuple is built only when it does not
        if b is not None and (rupture < b[0]
                              or rupture == b[0] and size > b[1]):
            return
        nodes = tuple(_mask_to_nodes(removed_mask))
        if b is None or rupture > b[0] or size < b[1] or nodes < b[2]:
            best[0] = (rupture, size, nodes)

    def last_removal(idx: int, removed_mask: int, spent: float,
                     comps: list[tuple[int, int]], m_k: int, non_nbr_k: int,
                     g_lo: int, last: int) -> None:
        # the t0-th removal, which leaves no further removal affordable:
        # its one completion keeps order[idx:], so its survivors are the
        # kept components joined through the components of that suffix.
        # One search node, tested first with the bound its dfs call would
        # test at entry.  It takes dfs's arguments, so that the remove
        # branch calls either; `spent` and `last` go unused.
        stats.nodes_explored += 1
        b = best[0]
        if b is not None:
            u = undecided[idx] & non_nbr_k
            w = (len(comps) + u.bit_count()
                 - (((u & many_nbrs[t0][idx]).bit_count() + 1) >> 1))
            lo = t0 + m_k
            bound = w - (lo if lo > g_lo else g_lo)
            if bound < b[0] or (bound == b[0] and t0 > b[1]):
                return
        # kept components are pairwise non-adjacent, and so are suffix
        # components, so merging each suffix component with the kept and
        # merged components it touches gives the survivors' components
        kept = ~(removed_mask | undecided[idx])
        masks = [c[0] for c in comps]
        omega = 0
        m = m_k
        for s_mask, s_nbr in suffix[idx]:
            if s_nbr & kept:
                rest = []
                for c in masks:
                    if c & s_nbr:
                        s_mask |= c
                    else:
                        rest.append(c)
                rest.append(s_mask)
                masks = rest
            else:
                omega += 1
            size = s_mask.bit_count()
            if size > m:
                m = size
        leaf(removed_mask, omega + len(masks), m)

    def dfs(idx: int, removed_mask: int, spent: float,
            comps: list[tuple[int, int]], m_k: int, non_nbr_k: int,
            g_lo: int, last: int) -> None:
        # One call per removal: the remove branch recurses and the keep
        # branch rebinds the state and loops, so f is fixed per call and
        # the call explores the search nodes first_idx..idx.  A comps list
        # is never mutated, since the remove branch shares it.  `last` is
        # the neighbour mask of the node whose removal made this call (-1
        # at the root), and `uncovered` the nodes not removed outside the
        # last merged component and its undecided neighbours: a removed
        # node whose surviving neighbours are all covered is dominated (see
        # the docstring).  Both sets covered are subsets of `alive`, so
        # XOR takes them out of it.
        first_idx = idx
        f = removed_mask.bit_count()
        many, remove = levels[f]
        alive = uncovered = ~removed_mask
        while True:
            b = best[0]
            if b is not None:
                # Admissible bound.  With f nodes removed so far, kept set K
                # and U the undecided nodes outside N(K), any completion
                # removes t' more nodes, t' <= t = t0 - f by the budget, so
                # |X| = f + t'.  Components of the subgraph induced on K
                # stay connected in any completion, hence
                # m >= max(1, m(K)), and m + |X| >= g_lo (the frontier term,
                # see the docstring).  A surviving component without a node
                # of K holds no node of N(K), since such a node is joined to
                # K, so it lies in U; and all its undecided neighbours are
                # removed, so it is a single node only if that node has at
                # most t' <= t undecided neighbours, that is lies outside
                # many[idx].  At most comp(K) components hold a node of K.
                # Hence omega <= W = comp(K) + |U \ H| + floor(|H| / 2) with
                # H = U & many[idx], and
                #   r <= W - max(f + t' + max(1, m(K)), g_lo)
                #     <= W - max(f + max(1, m(K)), g_lo).
                u = undecided[idx] & non_nbr_k
                # |U \ H| + floor(|H| / 2) == |U| - ceil(|H| / 2)
                w = (len(comps) + u.bit_count()
                     - (((u & many[idx]).bit_count() + 1) >> 1))
                lo = f + m_k
                bound = w - (lo if lo > g_lo else g_lo)
                # equal-bound subtrees with f > |best X| cannot improve the
                # cardinality-then-lex tie-break
                if bound < b[0] or (bound == b[0] and f > b[1]):
                    break
            if idx == n_order:
                # every node is decided, so the survivors are exactly K
                leaf(removed_mask, len(comps), m_k)
                break
            bit = bits[idx]
            adj_v = adjs[idx]
            # branch: remove order[idx]
            new_spent = spent + costs[idx]
            if new_spent <= limit and adj_v & uncovered:
                remove(idx + 1, removed_mask | bit, new_spent, comps, m_k,
                       non_nbr_k, g_lo, adj_v)
            # branch: keep order[idx], merged with every kept component it
            # touches
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
            non_nbr_k &= non_adjs[idx]
            idx += 1
            frontier_nbr = merged_nbr & undecided[idx]
            frontier = f + size + frontier_nbr.bit_count()
            if frontier > g_lo:
                g_lo = frontier
            uncovered = alive ^ (merged | frontier_nbr)
            if not last & uncovered:
                break
        stats.nodes_explored += idx - first_idx + 1

    # per removal count f: the rows of the bound's H term, and the call
    # that makes the next removal, which scores the t0-th in one step
    levels = [(many_nbrs[f], last_removal if f + 1 == t0 else dfs)
              for f in range(n_order + 1)]

    always_kept = model.intact | fixed
    comps = []
    for c in _component_masks(adj, _nodes_to_mask(always_kept)):
        c_nbr = 0
        for v in _mask_to_nodes(c):
            c_nbr |= adj[v]
        comps.append((c, c_nbr))
    nbr = g_lo = 0
    m_k = 1
    for c, c_nbr in comps:
        nbr |= c_nbr
        m_k = max(m_k, c.bit_count())
        g_lo = max(g_lo, c.bit_count() + (c_nbr & undecided[0]).bit_count())
    dfs(0, 0, 0.0, comps, m_k, ~nbr, g_lo, -1)
    # dfs holds itself and levels through its closure; unbinding both
    # frees the search state now instead of at a later cyclic garbage
    # collection
    del dfs, levels
    t_all = _max_removals(cost, limit)
    if t_all is None or t_all >= g.n - 1:
        # the single-survivor cuts V \ {u}, the only optima the search may
        # cut off, scored apart from it when one may fit.  Costs are added
        # left to right, as the oracle sums a cut; they are nonnegative, so
        # the scan stops once the partial sum exceeds the budget.
        intact = model.intact
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
                leaf(g._full_mask & ~bit, 1, 1)
    stats.wall_time = time.perf_counter() - start

    if best[0] is None:
        return AttackResult(STATUS_INFEASIBLE, stats=stats)
    # score and partition are recomputed independently of the search
    return scored_cut(g, best[0][2], stats)

