"""Second-stage optimization: pick budget-feasible inter-component links
that maximize post-attack resilience.

Only the cheapest link between each component pair (the MCEIC link) can
matter, so the search runs over the MCEIC pairs ``(m, n)``, ``m < n``.
Every plan is a forest over the components, and ties break by the lowest
total cost, then by the smallest sorted pair tuple.  The solver
enumerates the group ``S`` of components that becomes the largest merged
component: ``S`` is joined by its Kruskal tree and the rest of the budget
buys a Kruskal prefix over the other components.  That is exact, down to
the tie-break, by the greedy property of the spanning-forest matroid
(Kruskal 1956; Edmonds 1971), which also bounds the search: with k the
longest affordable Kruskal prefix over all pairs, no plan buys more than k
links, so only groups of at most k + 1 components are enumerated, and a
solve that would price more than ``SOLVER_MAX_GROUPS`` groups is refused
before it starts the level that would pass the cap; see
:func:`_solve_largest_group`.  Under the power rule a forest is still
enough, but the feasible forests are no longer a matroid: a lone load-load
link is infeasible, yet feasible once its backing link is added.  So that
rule is solved by :func:`brute_force_response`, which enumerates the
budget-feasible forests themselves and is also the default rule's
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .attack import BUDGET_TOL, AttackModel, AttackResult, solve_attack
from .errors import InputError, SizeLimitError
from .graph import ComponentPartition, Graph, rupture_score

LOAD_ONLY = "load-only"
HAS_GENERATOR = "has-generator"

# Groups one default-path solve may price: every group at s=16.  Pricing
# all 2^16 of them took at most 1.3 s on a 2-core Xeon with Python 3.11
# over a grid of budgets.
SOLVER_MAX_GROUPS = 2 ** 16
# Candidate links the forest enumeration takes, under the power rule and as
# the default rule's oracle: 21 covers 7 components, whose 36,961 forests
# it visits in under 0.1 s at an unlimited budget on a 2-core Xeon with
# Python 3.11.
ORACLE_MAX_LINKS = 21


@dataclass(frozen=True)
class MceicMatrix:
    """Minimum link-addition cost between each component pair, with the
    realizing node endpoints."""

    cost: dict[tuple[int, int], float]      # keys (m,n), m<n, 1-based
    endpoint: dict[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class ResponseModel:
    partition: ComponentPartition
    mceic: MceicMatrix
    budget: Optional[float]            # None = unlimited
    cut_size: int
    # given exactly when the power rule applies
    component_class: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.budget is not None and not (math.isfinite(self.budget)
                                            and self.budget >= 0):
            # None is the only unlimited budget
            raise InputError("response budget must be finite and nonnegative")
        if self.component_class is not None:
            if len(self.component_class) != self.partition.count:
                raise InputError("one class per component required")
            for cls in self.component_class:
                if cls not in (LOAD_ONLY, HAS_GENERATOR):
                    raise InputError(f"unknown component class {cls!r}")

    @property
    def effective_budget(self) -> float:
        return math.inf if self.budget is None else self.budget


@dataclass
class ReconstructionPlan:
    selected: tuple[tuple[int, int], ...]     # component pairs (m,n), m<n
    links: tuple[tuple[int, int], ...]        # realized node endpoints
    total_cost: float
    merged_partition: ComponentPartition
    rupture: int

    @property
    def resilience(self) -> int:
        return -self.rupture

    def to_dict(self) -> dict:
        return {
            "selected_pairs": [list(p) for p in self.selected],
            "links": [list(l) for l in self.links],
            "total_cost": self.total_cost,
            "rupture": self.rupture,
            "resilience": self.resilience,
            "merged_components": [list(c) for c in self.merged_partition.components],
        }


def mceic_matrix(g: Graph, p: ComponentPartition) -> MceicMatrix:
    """Pairwise minimum link costs between components, exact argmin
    endpoints, ties broken by lexicographically smallest (i,j).  With at
    most one component there are no pairs and the matrix is empty."""
    cost: dict[tuple[int, int], float] = {}
    endpoint: dict[tuple[int, int], tuple[int, int]] = {}
    for m, n in combinations(range(1, p.count + 1), 2):
        best: Optional[tuple[float, tuple[int, int]]] = None
        for i in p.components[m - 1]:
            for j in p.components[n - 1]:
                key = (min(i, j), max(i, j))
                if key in g.edge_set:
                    continue
                if key not in g.link_cost:
                    raise InputError(
                        f"missing link cost for cross-component pair {key}"
                    )
                d = g.link_cost[key]
                if best is None or (d, key) < best:
                    best = (d, key)
        if best is None:
            raise InputError(
                f"components {m} and {n} have no candidate link"
            )
        cost[(m, n)] = best[0]
        endpoint[(m, n)] = best[1]
    return MceicMatrix(cost, endpoint)


def _power_ok(selected: Iterable[tuple[int, int]], classes: Sequence[str]) -> bool:
    """Every selected link joining two load-only components must be backed
    by a selected link from one of its endpoints to a generator component."""
    chosen = set(selected)
    for m, n in chosen:
        if classes[m - 1] == LOAD_ONLY and classes[n - 1] == LOAD_ONLY:
            backed = any(
                ((min(e, i), max(e, i)) in chosen)
                for e in (m, n)
                for i in range(1, len(classes) + 1)
                if classes[i - 1] == HAS_GENERATOR
            )
            if not backed:
                return False
    return True


def _singleton_groups(p: ComponentPartition) -> list[int]:
    """Each component c (0-based) of the s components as its own group,
    packed as ``size << s | 1 << c``: two disjoint groups sum to their
    union, and the largest packed group is the one of largest size."""
    return [size << p.count | 1 << c for c, size in enumerate(p.sizes)]


def _join(group: list[int], a: int, b: int) -> list[int]:
    """The packed groups per component, ``group``, with the two different
    groups of components a and b (0-based) merged."""
    ga, gb = group[a], group[b]
    joined = ga + gb
    return [joined if g == ga or g == gb else g for g in group]


def _plan_from_selection(
    model: ResponseModel,
    pairs: Sequence[tuple[int, int]],
) -> ReconstructionPlan:
    """The plan of a forest of MCEIC pairs."""
    p = model.partition
    group = _singleton_groups(p)
    for m, n in pairs:
        group = _join(group, m - 1, n - 1)
    full = (1 << p.count) - 1
    # disjoint sorted tuples sort by their smallest node
    comps = tuple(sorted(
        tuple(sorted(v for c, nodes in enumerate(p.components)
                     if mask >> c & 1 for v in nodes))
        for mask in {packed & full for packed in group}
    ))
    part = ComponentPartition(comps)
    total = sum(model.mceic.cost[pair] for pair in pairs)
    rupture = -model.cut_size - part.largest_size + part.count
    links = tuple(model.mceic.endpoint[pair] for pair in pairs)
    return ReconstructionPlan(tuple(pairs), links, total, part, rupture)


# an MCEIC pair as Kruskal ranks it, by (cost, pair), with the bitmask of
# its two components
_RankedPair = tuple[float, tuple[int, int], int]


def _kruskal(ranked: Sequence[_RankedPair], limit: float, inside: int,
             parent: list[int], chosen: list[tuple[int, int]],
             total: float) -> tuple[float, bool]:
    """Extend the union-find `parent` and the links `chosen` by Kruskal
    over the `ranked` pairs inside the component set `inside`, until it is
    joined or the next link would take the total past `limit`.  Returns
    the new total and whether `inside` is joined."""
    need = inside.bit_count() - 1
    for c, pair, mask in ranked:
        if need <= 0 or total + c > limit:
            break  # costs only grow along the ranking
        if mask & inside != mask:
            continue
        a, b = pair
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
            total += c
            chosen.append(pair)
            need -= 1
    return total, need <= 0


def _solve_largest_group(m: ResponseModel) -> list[tuple[int, int]]:
    """Default-path search over the group S of components that becomes the
    largest merged component.

    Let k be the length of the longest Kruskal prefix over all MCEIC pairs
    that fits the budget.  A prefix of length t is a cheapest t-link forest
    (matroid greedy property), so no plan buys more than k links and
    |S| <= k + 1.  The groups are enumerated level by level, from k + 1
    components down, and the search stops at the first level whose largest
    groups cannot reach the incumbent: unless S holds all s components, R
    is nonempty, so at least max(2, s - k) groups remain and S scores at
    best -|X| - size(S) + max(2, s - k).  A group that can only tie the
    incumbent is still priced, so the tie-break is kept.  When the prefix
    joins every component, the top level is the one group of all s, which
    is the plan.

    For each S, Kruskal over the MCEIC pairs inside S in (cost, pair) order
    gives S's tree; S is skipped if the tree is over budget.  The same
    union-find then continues over the pairs inside the complement R,
    accepting links in ranked order until the next one would exceed the
    budget.  The result is scored r = -|X| - size(S) + (s - links) and the
    minimum of the key (r, rounded total cost, sorted pairs) wins.

    Why this is the same plan as minimizing that key over all set
    partitions with Kruskal-priced groups:

    - Rupture.  The optimum's largest group is some S.  A Kruskal prefix of
      length k is a minimum-weight k-edge forest on R (matroid greedy
      property), so the prefix finds the largest affordable k.  If a group
      in R grows larger than S, the evaluation overstates r; it cannot win,
      because the same partition is scored exactly when that larger group
      is taken as S.
    - Cost and tie-break.  Minimum-weight forests split into independent
      choices, one per cost class, and Kruskal in (cost, pair) order picks
      the smallest sorted-pair choice in every class.  S's tree is a
      disjoint set of the same size across candidates, so adding it keeps
      the sorted-tuple order.  The result is the same plan, not only the
      same rupture.

    Each forest component is the Kruskal tree of its own components, so
    transitively redundant links never enter a plan.

    Raises SizeLimitError before pricing a level that would take the
    groups priced past SOLVER_MAX_GROUPS.
    """
    s = m.partition.count
    full = (1 << s) - 1
    ranked: list[_RankedPair] = [
        (c, pair, (1 << (pair[0] - 1)) | (1 << (pair[1] - 1)))
        for c, pair in sorted((m.mceic.cost[pair], pair)
                              for pair in combinations(range(1, s + 1), 2))
    ]
    limit = m.effective_budget + BUDGET_TOL
    prefix: list[tuple[int, int]] = []
    _kruskal(ranked, limit, full, list(range(s + 1)), prefix, 0.0)
    # the components as packed groups, largest first: one sum over a group
    # gives both its size and its bitmask
    items = sorted(_singleton_groups(m.partition), reverse=True)
    # a one-component S needs no tree, so some group replaces this
    best: tuple[float, float, tuple[tuple[int, int], ...]] = (math.inf, 0.0, ())
    # with R nonempty at least max(2, s - k) groups remain, so a group
    # smaller than `least` = floor - r(incumbent) cannot reach the incumbent
    floor = max(2, s - len(prefix)) - m.cut_size
    least = 0
    priced = 0
    for j in range(len(prefix) + 1, 0, -1):
        if sum(items[:j]) >> s < least:
            break  # nor can any group of this level or below
        priced += math.comb(s, j)
        if priced > SOLVER_MAX_GROUPS:
            raise SizeLimitError(f"{priced} response groups exceed the "
                                 f"solver cap {SOLVER_MAX_GROUPS}")
        for packed in map(sum, combinations(items, j)):
            size = packed >> s
            if size < least:
                continue
            group = packed & full
            parent = list(range(s + 1))   # union-find over components
            chosen = []
            total, joined = _kruskal(ranked, limit, group, parent, chosen, 0.0)
            if not joined:
                continue  # S's tree is over budget
            total = _kruskal(ranked, limit, full ^ group, parent, chosen, total)[0]
            r = -m.cut_size - size + (s - len(chosen))
            rounded = round(total, 9)
            if (r, rounded) <= best[:2]:
                key = (r, rounded, tuple(sorted(chosen)))
                if key < best:
                    best = key
                    least = floor - r
    return list(best[2])


def solve_response(m: ResponseModel) -> ReconstructionPlan:
    """Exact minimizer of r = -|X| - m' + w' over budget-feasible forests of
    MCEIC pairs.

    Ties on the objective break by total cost, rounded to 9 decimals, then
    by the sorted pair tuple.  A forest loses nothing: dropping a link on a
    cycle keeps the merged groups, and under the power rule also the
    backing of every load-load link (see :func:`brute_force_response`).
    With at most one component the plan is empty, and so it is under the
    power rule when no component has a generator: every link then joins
    two load-only components and nothing can back it.  Otherwise the
    default rule runs :func:`_solve_largest_group` and the power rule the
    forest enumeration of :func:`brute_force_response`.

    Raises SizeLimitError past the cap of the search that would run,
    before it starts: ORACLE_MAX_LINKS candidate links (7 components)
    under the power rule, and otherwise SOLVER_MAX_GROUPS groups priced.
    """
    classes = m.component_class
    if m.partition.count <= 1 or (classes is not None
                                  and HAS_GENERATOR not in classes):
        return _plan_from_selection(m, [])
    if classes is None:
        return _plan_from_selection(m, _solve_largest_group(m))
    return brute_force_response(m)


def brute_force_response(m: ResponseModel) -> ReconstructionPlan:
    """Enumerate every budget-feasible forest of MCEIC pairs and keep the
    minimum of the key (r, rounded total cost, sorted pairs): the default
    rule's independent oracle and the power rule's search.

    The pairs are decided in order, included or skipped.  A pair is
    included only if it joins two different groups and its cost fits the
    rest of the budget, so the search visits each affordable forest once
    and scores it from its packed groups (see :func:`_singleton_groups`).

    Forests suffice under the power rule.  In a power-feasible selection
    with a cycle, drop a load-load link of the cycle, as it backs nothing;
    else a generator-generator one; else every cycle link joins a
    load-only component to a generator one, and each load on the cycle
    has two of them, so drop one and the other still backs it.  The merged
    groups and feasibility stay, and nonnegative costs do not grow.

    Raises SizeLimitError, before any enumeration, past ORACLE_MAX_LINKS
    candidate links.
    """
    s = m.partition.count
    if s <= 1:
        return _plan_from_selection(m, [])
    all_pairs = list(combinations(range(1, s + 1), 2))
    if len(all_pairs) > ORACLE_MAX_LINKS:
        raise SizeLimitError(f"{len(all_pairs)} candidate links exceed the "
                             f"enumeration cap {ORACLE_MAX_LINKS}")
    limit = m.effective_budget + BUDGET_TOL
    costs = [m.mceic.cost[pair] for pair in all_pairs]
    best: Optional[tuple[int, float, tuple[tuple[int, int], ...]]] = None

    def rec(z: int, group: list[int], selection: list[tuple[int, int]],
            total: float) -> None:
        nonlocal best
        if z == len(all_pairs):
            # each link merged two groups
            r = -m.cut_size - (max(group) >> s) + (s - len(selection))
            key = (r, round(total, 9), tuple(selection))
            if (best is None or key < best) and (
                    m.component_class is None
                    or _power_ok(selection, m.component_class)):
                best = key
            return
        a, b = all_pairs[z]
        if group[a - 1] != group[b - 1] and total + costs[z] <= limit:
            selection.append((a, b))
            rec(z + 1, _join(group, a - 1, b - 1), selection, total + costs[z])
            selection.pop()
        rec(z + 1, group, selection, total)

    rec(0, _singleton_groups(m.partition), [], 0.0)
    assert best is not None  # the empty selection always scores
    return _plan_from_selection(m, best[2])


def classify_components(g: Graph, p: ComponentPartition) -> tuple[str, ...]:
    """Label each component load-only or has-generator from node classes."""
    if g.node_class is None:
        raise InputError("graph has no node classes")
    labels = []
    for comp in p.components:
        if any(g.node_class[v - 1] == "generator" for v in comp):
            labels.append(HAS_GENERATOR)
        else:
            labels.append(LOAD_ONLY)
    return tuple(labels)


def rebuilt_model(
    g: Graph, plan: ReconstructionPlan, attack: AttackModel
) -> AttackModel:
    """The attack model on the reconstructed graph: g's edges plus the
    plan's realized links, g's attack costs, and `attack`'s budget and
    attackable set.  The graph carries no link costs, which the re-attack
    never reads.  It is built by `Graph.from_checked`: g was checked, and
    each realized link is an MCEIC pair (i, j), i < j, of nodes in two
    components of g (see `Graph.__init__`)."""
    rebuilt = Graph.from_checked(g.n, g.edges + plan.links, g.attack_cost, {})
    return AttackModel(rebuilt, attack.budget, attack.attackable)


def dynamic_worst_cut(
    g: Graph, plan: ReconstructionPlan, attack: AttackModel
) -> AttackResult:
    """Re-solve the attack stage on the reconstructed graph (original graph
    plus the plan's realized links)."""
    return solve_attack(rebuilt_model(g, plan, attack))
