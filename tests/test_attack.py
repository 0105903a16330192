import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rupturekit.attack import (
    BUDGET_TOL,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    AttackModel,
    _max_removals,
    _neighbour_rows,
    _neighbourhood_cut,
    scored_cut,
    solve_attack,
)
from rupturekit.bench import BenchConfig, gen_random
from rupturekit.errors import InputError
from rupturekit.graph import (
    CutSet,
    Graph,
    _mask_to_nodes,
    _nodes_to_mask,
    components,
    rupture_score,
    worst_cut_oracle,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def star(n):
    return Graph(n, [(1, i) for i in range(2, n + 1)])


def assert_matches_oracle(g, budget, attackable=frozenset()):
    """Same status, cut (tie-break included) and rupture as the oracle."""
    res = solve_attack(AttackModel(g, budget, attackable or frozenset()))
    ref = worst_cut_oracle(g, budget, attackable or None)
    if ref is None:
        assert res.status == STATUS_INFEASIBLE
    else:
        assert res.status == STATUS_OPTIMAL
        assert res.cut.nodes == ref[0].nodes
        assert res.score.rupture == ref[1].rupture


class TestAttackModel:
    def test_defaults_to_all_attackable(self):
        m = AttackModel(path_graph(4), 1.0)
        assert m.attackable == frozenset({1, 2, 3, 4})
        assert m.intact == frozenset()

    def test_intact_complement(self):
        m = AttackModel(path_graph(4), 1.0, frozenset({2, 3}))
        assert m.intact == frozenset({1, 4})

    def test_negative_budget_rejected(self):
        with pytest.raises(InputError):
            AttackModel(path_graph(4), -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, bad):
        with pytest.raises(InputError):
            AttackModel(path_graph(4), bad)


class TestSolveAttack:
    def test_star_removes_center(self):
        res = solve_attack(AttackModel(star(6), 2.0))
        assert res.status == STATUS_OPTIMAL
        assert res.cut.nodes == frozenset({1})
        assert res.score.rupture == 3

    def test_infeasible_clique(self):
        g = Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        res = solve_attack(AttackModel(g, 1.0))
        assert res.status == STATUS_INFEASIBLE
        assert res.cut is None

    def test_tie_break_matches_oracle(self):
        g = path_graph(7)
        res = solve_attack(AttackModel(g, 3.0))
        cut, sc = worst_cut_oracle(g, 3.0)
        assert res.score.rupture == sc.rupture
        assert res.cut.nodes == cut.nodes

    def test_distributed_attack_respects_intact(self):
        g = path_graph(5)
        res = solve_attack(AttackModel(g, 2.0, frozenset({3, 4})))
        assert res.status == STATUS_OPTIMAL
        assert res.cut.nodes <= {3, 4}

    def test_nonunit_costs(self):
        g = path_graph(5)
        g = Graph(5, g.edges, attack_cost=(1.0, 5.0, 1.0, 5.0, 1.0))
        res = solve_attack(AttackModel(g, 2.0))
        cut, sc = worst_cut_oracle(g, 2.0)
        assert res.score.rupture == sc.rupture

    def test_disconnected_input_rejected(self):
        g = Graph(4, [(1, 2), (3, 4)])
        with pytest.raises(InputError):
            solve_attack(AttackModel(g, 1.0))


class TestAgainstOracleRandom:
    def test_fifty_random_instances(self):
        rng = random.Random(11)
        for inst in gen_random(BenchConfig(seed=11, count=50, n_min=6, n_max=10)):
            g = inst.to_graph()
            budget = inst.budget_attack
            res = solve_attack(AttackModel(g, budget))
            ref = worst_cut_oracle(g, budget)
            if ref is None:
                assert res.status == STATUS_INFEASIBLE
            else:
                assert res.status == STATUS_OPTIMAL
                assert res.score.rupture == ref[1].rupture
                # full incumbent tie-break must agree with the enumeration
                assert res.cut.nodes == ref[0].nodes

    def test_pruning_sizes(self):
        # n=12-18 with budgets 2-4 is where the bound prunes most of the
        # tree; restricted attackable sets seed K with intact components
        rng = random.Random(23)
        config = BenchConfig(seed=23, count=30, n_min=12, n_max=18)
        for i, inst in enumerate(gen_random(config)):
            n = inst.n
            costs = inst.attack_cost
            if i % 2:
                costs = [rng.choice([0.5, 1.0, 2.0, 3.0]) for _ in range(n)]
            attackable = frozenset()
            if i % 3 == 0:
                attackable = frozenset(rng.sample(range(1, n + 1), n * 2 // 3))
            g = Graph(n, inst.edges, attack_cost=costs)
            assert_matches_oracle(g, float(rng.randint(2, 4)), attackable)

    def test_dense_graphs(self):
        # 3n edges and budgets 1-4, the attack benchmark's shape, leave few
        # and large surviving components
        rng = random.Random(31)
        for i in range(40):
            n = rng.randint(12, 16)
            config = BenchConfig(seed=rng.randrange(10**6), count=1,
                                 n_min=n, n_max=n, edge_count=3 * n)
            inst = gen_random(config)[0]
            costs = inst.attack_cost
            if i % 2:
                costs = [rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(n)]
            attackable = frozenset()
            if i % 4 == 0:
                attackable = frozenset(rng.sample(range(1, n + 1), n * 3 // 4))
            g = Graph(n, inst.edges, attack_cost=costs)
            assert_matches_oracle(g, float(rng.randint(1, 4)), attackable)

    def test_dense_graphs_deep_budgets(self):
        # 3n edges at budgets up to n/2 prune removals deep in the tree;
        # zero costs and restricted attackable sets included
        rng = random.Random(53)
        for i in range(40):
            n = rng.randint(12, 16)
            config = BenchConfig(seed=rng.randrange(10**6), count=1,
                                 n_min=n, n_max=n, edge_count=3 * n)
            inst = gen_random(config)[0]
            costs = inst.attack_cost
            if i % 2:
                costs = [rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(n)]
            attackable = frozenset()
            if i % 3 == 0:
                attackable = frozenset(rng.sample(range(1, n + 1), n * 3 // 4))
            g = Graph(n, inst.edges, attack_cost=costs)
            assert_matches_oracle(g, float(rng.randint(2, n // 2)), attackable)

    def test_pigeonhole_term_is_exact(self):
        # a tie-break case: the 5-node cut {2, 6, 7, 8, 9} and a 6-node cut
        # both reach rupture -4, and the cardinality tie-break must pick
        # the 5-node cut, so no bound may prune the subtree that holds it
        edges = [(1, 2), (1, 7), (1, 9), (1, 10), (2, 3), (2, 6), (2, 7),
                 (2, 10), (3, 4), (3, 6), (5, 6), (5, 7), (5, 8), (5, 9),
                 (5, 11), (6, 10), (7, 8), (7, 9), (7, 11), (8, 10),
                 (8, 11), (9, 11)]
        costs = (0.0, 1.0, 3.0, 0.5, 0.5, 0.5, 0.0, 0.25, 3.0, 1.0, 2.0)
        g = graph(11, edges, costs)
        res = solve_attack(AttackModel(g, 11.0))
        assert res.cut.nodes == worst_cut_oracle(g, 11.0)[0].nodes
        assert res.cut.nodes == frozenset({2, 6, 7, 8, 9})
        assert res.score.rupture == -4

    def test_intact_components_with_undecided_neighbours(self):
        # intact components whose neighbours are attackable give the
        # frontier term f + |C| + |N(C) & undecided| a value at the root
        rng = random.Random(41)
        for i in range(40):
            n = rng.randint(8, 14)
            config = BenchConfig(seed=rng.randrange(10**6), count=1,
                                 n_min=n, n_max=n,
                                 edge_count=rng.randint(n - 1, 2 * n))
            g0 = gen_random(config)[0].to_graph()
            # an intact node with its neighbourhood left attackable
            centres = rng.sample(range(1, n + 1), rng.randint(1, 3))
            intact = set(centres)
            if i % 2:
                intact |= set(g0.neighbors(centres[0])[:1])
            attackable = frozenset(g0.nodes) - intact
            assert any(set(g0.neighbors(v)) & attackable for v in intact)
            costs = [rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(n)]
            g = Graph(n, g0.edges, attack_cost=costs)
            assert_matches_oracle(g, float(rng.randint(0, n // 2)), attackable)


class TestBudgetAwareBound:
    """The bound's count of new components reads t, the removals still
    affordable: a node of U with more than t undecided neighbours cannot
    survive alone.  These cases keep t at 0, 1 or 2."""

    # (attack cost palette, budget): the budget buys at most 1-3 removals
    CASES = {
        "unit-1": ((1.0,), 1.0),
        "unit-2": ((1.0,), 2.0),
        "unit-3": ((1.0,), 3.0),
        # 0.1 + 0.1 + 0.1 == 0.30000000000000004 is still admitted
        "fractional": ((0.1, 0.3), 0.3),
        "fractional-mixed": ((0.1, 0.2, 0.3), 0.4),
        # a zero least cost leaves t unbounded: no tightening
        "zeros": ((0.0, 1.0), 2.0),
        "large": ((1e6, 2e6), 2e6),
        "large-thirds": ((1e6 / 3, 1e6), 1e6),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_oracle(self, name):
        palette, budget = self.CASES[name]
        rng = random.Random(name)
        for i in range(40):
            n = rng.randint(8, 14)
            edges = rng.choice([n - 1, 2 * n, 3 * n])
            config = BenchConfig(seed=rng.randrange(10**6), count=1,
                                 n_min=n, n_max=n, edge_count=edges)
            inst = gen_random(config)[0]
            costs = [rng.choice(palette) for _ in range(n)]
            attackable = frozenset()
            if i % 2:
                attackable = frozenset(rng.sample(range(1, n + 1), 2 * n // 3))
            g = Graph(n, inst.edges, attack_cost=costs)
            assert_matches_oracle(g, budget, attackable)

    def test_float_sum_admitted(self):
        # P7's best cut {2, 4, 6} costs 0.1 + 0.1 + 0.1 > 0.3 in floats
        g = Graph(7, path_graph(7).edges, attack_cost=(0.3, 0.1, 0.3, 0.1,
                                                       0.3, 0.1, 0.3))
        assert 0.1 + 0.1 + 0.1 > 0.3
        assert _max_removals([0.1] * 4 + [0.3], 0.3 + BUDGET_TOL) == 3
        res = solve_attack(AttackModel(g, 0.3))
        assert res.cut.nodes == frozenset({2, 4, 6})
        assert res.cut.nodes == worst_cut_oracle(g, 0.3)[0].nodes

    def test_float_sum_of_large_costs_admitted(self):
        # three removals at c sum to s with s / c just below 3 in floats
        c = 6278213.95896521
        budget = c + c + c
        assert (budget + BUDGET_TOL) / c < 3
        assert _max_removals([c] * 4, budget + BUDGET_TOL) == 3
        g = Graph(7, path_graph(7).edges,
                  attack_cost=(2 * c, c, 2 * c, c, 2 * c, c, 2 * c))
        res = solve_attack(AttackModel(g, budget))
        assert res.cut.nodes == frozenset({2, 4, 6})
        assert res.cut.nodes == worst_cut_oracle(g, budget)[0].nodes

    @pytest.mark.parametrize("n,edges,budget,cut", [
        # the optimum leaves {3}, {5}, {6} and {7} alone, each with all its
        # undecided neighbours among the last removals
        (9, [(1, 9), (2, 3), (2, 4), (2, 6), (2, 7), (3, 4), (4, 5), (4, 6),
             (4, 9), (7, 8), (8, 9)], 3.0, {2, 4, 8}),
        (11, [(1, 2), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (2, 3), (2, 4),
              (2, 10), (3, 5), (3, 7), (3, 9), (4, 8), (4, 9), (5, 9), (6, 7),
              (6, 8), (7, 8), (7, 9), (8, 11), (9, 10), (9, 11)], 2.0, {2, 9}),
    ])
    def test_node_with_t_neighbours_may_survive_alone(self, n, edges, budget,
                                                      cut):
        g = Graph(n, edges)
        assert worst_cut_oracle(g, budget)[0].nodes == cut
        assert_matches_oracle(g, budget)

    def test_zero_least_cost_has_no_count(self):
        assert _max_removals([0.0, 1.0], 5.0) is None
        assert _max_removals([], 5.0) is None

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 1e6, 1e6 / 3,
                                     3.5e6, 1e-10]),
                    min_size=1, max_size=9),
           st.data())
    def test_max_removals_never_undercounts(self, costs, data):
        # the budget is a float sum of some of the costs, so it is met
        # exactly; every subset the search would admit, summed in branch
        # order, has at most _max_removals members
        picked = data.draw(st.lists(st.integers(0, len(costs) - 1),
                                    unique=True))
        budget = 0.0
        for i in picked:
            budget += costs[i]
        limit = budget + BUDGET_TOL
        t0 = _max_removals(costs, limit)
        for r in range(t0 + 1, len(costs) + 1):
            for combo in combinations(costs, r):
                spent = 0.0
                for c in combo:
                    spent += c
                assert spent > limit

    def test_neighbour_rows_count_neighbours(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 12)
            edges = [p for p in combinations(range(1, n + 1), 2)
                     if rng.random() < 0.4]
            g = Graph(n, edges)
            order = rng.sample(range(1, n + 1), rng.randint(0, n))
            k_max = rng.randint(0, 5)
            rows = _neighbour_rows([g._adj[v] for v in order], k_max)
            for idx in range(len(order) + 1):
                suffix = set(order[idx:])
                for k in range(1, k_max + 1):
                    want = [v for v in g.nodes
                            if len(suffix.intersection(g.neighbors(v))) >= k]
                    # rows stop at the first k that no node reaches
                    got = rows[k][idx] if k < len(rows) else 0
                    assert _mask_to_nodes(got) == want
                    if idx == 0:
                        assert (k < len(rows)) == bool(want)


class TestLastRemoval:
    """A removal that leaves no further removal affordable, the t0-th, has
    one completion: every undecided node survives.  The search scores it in
    one step, joining the kept components through the components of the
    undecided suffix.  These cases place t0 where it is exact, where it
    over-counts, at zero and where it is unbounded."""

    # (attack cost palette, budgets)
    CASES = {
        "unit": ((1.0,), (1.0, 2.0, 3.0)),
        # float sums of the palette that sit at the budget: t0 counts
        # removals at 0.1, which costlier nodes do not reach
        "fractional": ((0.1, 0.2, 0.3), (0.1 + 0.2, 0.1 + 0.2 + 0.3,
                                         0.3 + 0.3, 0.2 + 0.2 + 0.2)),
        # t0 = 4 over-counts whenever a node of cost 3 is removed
        "one-three": ((1.0, 3.0), (4.0,)),
        # a zero cost among the branched nodes leaves t0 unbounded, so the
        # step never fires; the few draws without one fire it
        "zeros": ((0.0, 1.0), (1.0, 2.0)),
    }

    @staticmethod
    def sparse_graph(rng, n, costs):
        """A tree with at most two extra edges: the undecided suffix falls
        into several components."""
        config = BenchConfig(seed=rng.randrange(10**6), count=1, n_min=n,
                             n_max=n, edge_count=n - 1 + rng.randint(0, 2))
        return Graph(n, gen_random(config)[0].edges, attack_cost=costs)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_oracle(self, name):
        palette, budgets = self.CASES[name]
        rng = random.Random(name)
        for i in range(48):
            n = rng.randint(6, 12)
            costs = [rng.choice(palette) for _ in range(n)]
            if i % 3 == 2:
                config = BenchConfig(seed=rng.randrange(10**6), count=1,
                                     n_min=n, n_max=n, edge_count=2 * n)
                g = Graph(n, gen_random(config)[0].edges, attack_cost=costs)
            else:
                g = self.sparse_graph(rng, n, costs)
            # intact nodes seed the kept components before the search
            attackable = frozenset()
            if i % 2:
                attackable = frozenset(rng.sample(range(1, n + 1),
                                                  rng.randint(n // 2, n - 1)))
            assert_matches_oracle(g, rng.choice(budgets), attackable)

    def test_t0_over_counts(self):
        # costs {1, 3} at budget 4: the count t0 = 4 fits only unit costs,
        # so a removal of cost 3 leaves t0 unreached and the walk goes on
        g = Graph(8, path_graph(8).edges,
                  attack_cost=(1.0, 3.0, 1.0, 3.0, 1.0, 1.0, 3.0, 1.0))
        assert _max_removals(list(g.attack_cost), 4.0 + BUDGET_TOL) == 4
        assert_matches_oracle(g, 4.0)
        assert_matches_oracle(g, 4.0, frozenset({2, 3, 5, 6, 7}))

    def test_budget_below_least_cost(self):
        # t0 == 0: no removal fits, so no removal is the last one
        rng = random.Random(3)
        for _ in range(10):
            g = self.sparse_graph(rng, rng.randint(4, 9), None)
            assert _max_removals([1.0] * g.n, 0.5 + BUDGET_TOL) == 0
            res = solve_attack(AttackModel(g, 0.5))
            assert res.status == STATUS_INFEASIBLE
            assert worst_cut_oracle(g, 0.5) is None

    @pytest.mark.parametrize("n,edges,budget,attackable", [
        # C4 at budget 1: every one-node removal leaves a path, not a cut
        (4, [(1, 2), (2, 3), (3, 4), (1, 4)], 1.0, None),
        # C6 at budget 2: opposite nodes leave two paths of two
        (6, [(v, v % 6 + 1) for v in range(1, 7)], 2.0, None),
        # a 5-cycle with a pendant path, the pendant end intact
        (7, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (5, 6), (6, 7)], 2.0,
         frozenset({1, 2, 3, 4, 5, 6})),
        # two triangles joined by a path: kept components on both sides
        (8, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8),
             (7, 8)], 1.0, None),
    ], ids=["C4", "C6", "cycle-pendant-intact", "triangles-path"])
    def test_small_cases(self, n, edges, budget, attackable):
        assert_matches_oracle(Graph(n, edges), budget, attackable)


class TestScoredCut:
    """scored_cut scores and partitions a removal set in one pass."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_as_score_and_components(self, seed):
        rng = random.Random(seed)
        non_cuts = 0
        for inst in gen_random(BenchConfig(seed=seed, count=4, n_min=1,
                                           n_max=17)):
            g = inst.to_graph()
            for _ in range(25):
                nodes = rng.sample(range(1, g.n + 1), rng.randrange(g.n))
                res = scored_cut(g, nodes)
                score = rupture_score(g, nodes)
                assert res.score == score
                assert res.partition == components(g, nodes)
                assert res.cut == CutSet(frozenset(nodes), score.is_cut)
                assert res.status == STATUS_OPTIMAL
                non_cuts += not score.is_cut
        assert non_cuts

    def test_errors_in_order(self):
        g = path_graph(3)
        with pytest.raises(InputError, match="cut node 4 out of range"):
            scored_cut(g, [1, 2, 3, 4])
        with pytest.raises(InputError, match="cut set removes all nodes"):
            scored_cut(g, [1, 2, 3])


class TestSearchCounter:
    def test_nodes_explored_pinned(self):
        # exact and deterministic; 33,334 nodes with the bound that counted
        # every undecided node as a possible new component, 7,870 while
        # simplicial nodes were still branched on, 3,597 before the
        # pigeonhole term on the largest component, 3,485 before the
        # frontier term on kept components, 2,739 before the budget-aware
        # count of new components, 2,738 before the search started from
        # the neighbourhood-cut incumbent, 2,707 with the pigeonhole term,
        # 2,775 before separator dominance pruned removals whose surviving
        # neighbours can only end up in one component, 1,877 while a
        # removal that exhausts the budget was walked to its leaf one keep
        # at a time rather than scored as one node (same cut).
        # A looser bound or a worse initial incumbent raises this count.
        inst = gen_random(BenchConfig(seed=7, count=1, n_min=20, n_max=20))[0]
        res = solve_attack(AttackModel(inst.to_graph(), inst.budget_attack))
        assert res.cut.nodes == frozenset({6, 7, 11, 16, 17, 19})
        assert res.stats.nodes_explored == 1875

    def test_dense_budget_four_pinned(self):
        # 3n edges at budget 4, the attack benchmark's shape: 58,882 nodes
        # without the pigeonhole term, 7,724 without the frontier term,
        # 2,721 without the budget-aware count of new components, 1,925
        # without the neighbourhood-cut incumbent, 1,301 without separator
        # dominance, 977 while a removal that exhausts the budget was a
        # walk to its leaf, not one scored node (same cut)
        config = BenchConfig(seed=0, count=1, n_min=26, n_max=26,
                             edge_count=78, budget_attack=4.0)
        inst = gen_random(config)[0]
        res = solve_attack(AttackModel(inst.to_graph(), inst.budget_attack))
        assert res.cut.nodes == frozenset({6, 19, 22, 26})
        assert res.score.rupture == -21
        assert res.stats.nodes_explored == 567

    def test_reach_budget_four_pinned(self):
        # an instance of the reach probe (gen_random defaults, n 30-44) at
        # budget 4: 63,006 nodes without the frontier term, 10,004 without
        # the budget-aware count of new components, 8,612 without the
        # neighbourhood-cut incumbent, 7,465 without separator dominance,
        # 5,133 while a removal that exhausts the budget was a walk to its
        # leaf, not one scored node (same cut)
        config = BenchConfig(seed=3, count=1, n_min=30, n_max=44)
        inst = gen_random(config)[0]
        assert inst.n == 33
        res = solve_attack(AttackModel(inst.to_graph(), 4.0))
        assert res.cut.nodes == frozenset({5, 7, 17, 28})
        assert res.score.rupture == -24
        assert res.stats.nodes_explored == 2101


def clique_edges(k):
    return list(combinations(range(1, k + 1), 2))


def simplicial(g, v):
    nbrs = g.neighbors(v)
    return all(g.has_edge(a, b) for a, b in combinations(nbrs, 2))


def graph(n, edges, costs=None):
    return Graph(n, edges, attack_cost=costs)


# (graph, budget, attackable): mostly simplicial nodes, several with
# single-survivor optima, which the search alone never reaches
SIMPLICIAL_CASES = {
    # hub 1 and rim 2-6, no node simplicial: the hub costs more than the
    # budget, so the only cut is the rim, which separator dominance keeps
    # out of the search
    "wheel5_hub_priced_out": (
        graph(6, [(1, v) for v in range(2, 7)]
              + [(v, v + 1) for v in range(2, 6)] + [(2, 6)],
              (10.0,) + (1.0,) * 5), 5.0, None),
    **{f"K{k}": (graph(k, clique_edges(k)), k - 1.0, None)
       for k in range(3, 7)},
    "K4_pendants": (graph(6, clique_edges(4) + [(1, 5), (1, 6)]), 5.0, None),
    "K5_pendant": (graph(6, clique_edges(5) + [(5, 6)]), 5.0, None),
    "K4_pendant_on_each": (
        graph(8, clique_edges(4) + [(v, v + 4) for v in range(1, 5)]),
        7.0, None),
    "star6": (star(6), 5.0, None),
    "star6_zero_leaves": (graph(6, star(6).edges, (3.0, 0, 0, 0, 0, 0)),
                          0.0, None),
    "K5_zero_costs": (graph(5, clique_edges(5), (0.0,) * 5), 0.0, None),
    "K5_one_paid": (graph(5, clique_edges(5), (0, 0, 0, 0, 2.0)), 0.0, None),
    "K5_one_intact": (graph(5, clique_edges(5)), 4.0, frozenset({2, 3, 4, 5})),
    "K4_pendants_zero_costs": (
        graph(6, clique_edges(4) + [(1, 5), (2, 6)], (0.0,) * 6), 0.0, None),
    "path2": (path_graph(2), 1.0, None),
    "single_node": (graph(1, []), 1.0, None),
}


class TestSimplicialReduction:
    @pytest.mark.parametrize("name", sorted(SIMPLICIAL_CASES))
    def test_matches_oracle(self, name):
        assert_matches_oracle(*SIMPLICIAL_CASES[name])

    def test_single_survivor_budget_met_exactly(self):
        # K5 keeps every node, so only the single-survivor scan finds a cut;
        # fractional costs summed left to right meet the budget exactly
        costs = (0.1, 0.2, 0.3, 0.4, 0.7)
        g = graph(5, clique_edges(5), costs)
        budget = 0.0
        for c in costs[:4]:
            budget += c
        res = solve_attack(AttackModel(g, budget))
        assert res.status == STATUS_OPTIMAL
        assert res.cut.nodes == frozenset({1, 2, 3, 4})
        assert res.cut.nodes == worst_cut_oracle(g, budget)[0].nodes
        # below the budget's tolerance no single-survivor cut is affordable
        res = solve_attack(AttackModel(g, budget - 2e-9))
        assert res.status == STATUS_INFEASIBLE
        assert worst_cut_oracle(g, budget - 2e-9) is None

    def test_cases_hold_single_survivor_optima(self):
        # the table exercises the scan of single-survivor cuts
        single = 0
        for g, budget, attackable in SIMPLICIAL_CASES.values():
            ref = worst_cut_oracle(g, budget, attackable)
            single += ref is not None and len(ref[0].nodes) == g.n - 1
        assert single == 11


@st.composite
def attack_models(draw):
    """Connected graphs on 1-8 nodes (paths, stars, cliques, random trees
    plus extra edges, dense graphs with about 3n edges) or on 1-10 nodes
    (rebuilt: a tree plus links that join the components a cut leaves, the
    shape of a re-attack), attack costs from a small palette with zero,
    budgets from zero to n, and an optional restricted attackable set."""
    # trees drawn twice as often: they admit the most distinct cuts
    shape = draw(st.sampled_from(
        ["path", "star", "clique", "tree", "tree", "dense", "rebuilt"]))
    n = draw(st.integers(1, 10 if shape == "rebuilt" else 8))
    if shape == "rebuilt":
        edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
        cut = draw(st.frozensets(st.integers(1, n), max_size=n // 2))
        parts = components(Graph(n, edges), cut).components
        # a response plan's links: each joins two components at drawn ends
        for a, b in combinations(parts, 2):
            if draw(st.booleans()):
                edges.append((draw(st.sampled_from(a)),
                              draw(st.sampled_from(b))))
    elif shape == "path":
        edges = [(v, v + 1) for v in range(1, n)]
    elif shape == "star":
        edges = [(1, v) for v in range(2, n + 1)]
    elif shape == "clique":
        edges = list(combinations(range(1, n + 1), 2))
    else:
        edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
        others = [p for p in combinations(range(1, n + 1), 2) if p not in edges]
        if shape == "dense":
            # 3n edges as in the attack benchmark, which leave few and large
            # surviving components
            edges += draw(st.permutations(others))[:2 * n + 1]
        elif others:
            edges += draw(st.lists(st.sampled_from(others), max_size=n,
                                   unique=True))
    costs = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                          min_size=n, max_size=n))
    g = Graph(n, edges, attack_cost=costs)
    budget = draw(st.sampled_from([0.0, 1.0, 2.0, 3.0, float(n // 2), float(n)]))
    attackable = draw(st.one_of(
        st.just(frozenset()),
        st.frozensets(st.integers(1, n), min_size=1)))
    return AttackModel(g, budget, attackable)


class TestSolverMatchesOracle:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(attack_models())
    def test_same_cut_as_oracle(self, model):
        ref = worst_cut_oracle(model.graph, model.budget, model.attackable)
        res = solve_attack(model)
        if ref is None:
            assert res.status == STATUS_INFEASIBLE
            assert res.cut is None
        else:
            assert res.status == STATUS_OPTIMAL
            assert res.cut.nodes == ref[0].nodes
            assert res.score.rupture == ref[1].rupture

    # (graph, budget, attackable): the neighbourhood cut skips a node with
    # an intact neighbour and takes zero-cost nodes for free
    @pytest.mark.parametrize("g,budget,attackable", [
        (path_graph(7), 3.0, frozenset({1, 2, 3, 5, 7})),
        (star(6), 2.0, frozenset({2, 3, 4, 5, 6})),
        (graph(8, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (4, 8)]),
         2.0, frozenset({3, 5, 6, 7, 8})),
        (graph(7, path_graph(7).edges, (0.0,) * 7), 0.0, None),
        (graph(8, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (4, 8)],
               (1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 1.0, 1.0)), 1.0, None),
        (graph(6, clique_edges(4) + [(1, 5), (2, 6)], (0.0, 0.0, 1.0, 1.0,
                                                        0.0, 0.0)),
         0.0, frozenset({1, 3, 5})),
    ], ids=["path-restricted", "star-centre-intact", "tree-restricted",
            "path-zero-costs", "tree-some-zero-costs", "clique-zero-restricted"])
    def test_restricted_and_zero_cost_cases(self, g, budget, attackable):
        assert_matches_oracle(g, budget, attackable)


def initial_cut(model):
    return _neighbourhood_cut(model.graph, _nodes_to_mask(model.intact),
                              model.budget + BUDGET_TOL)


class TestNeighbourhoodCut:
    """The search's initial incumbent may be any budget-feasible cut."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(attack_models())
    def test_feasible_cut_scored_exactly(self, model):
        g = model.graph
        seed = initial_cut(model)
        if seed is None:
            return
        rupture, size, nodes = seed
        assert list(nodes) == sorted(set(nodes))
        assert set(nodes) <= model.attackable
        spent = 0.0
        for v in nodes:  # in ascending node order, as the oracle sums
            spent += g.attack_cost[v - 1]
        assert spent <= model.budget + BUDGET_TOL
        score = rupture_score(g, nodes)
        assert score.is_cut
        assert (score.rupture, score.cut_size) == (rupture, size)
        ref = worst_cut_oracle(g, model.budget, model.attackable)
        assert (-ref[1].rupture, len(ref[0].nodes),
                tuple(sorted(ref[0].nodes))) <= (-rupture, size, nodes)

    def test_star_centre(self):
        # isolating the first leaf removes the centre: the optimum
        assert initial_cut(AttackModel(star(6), 1.0)) == (3, 1, (1,))

    @pytest.mark.parametrize("g,locked,budget", [
        (path_graph(2), 0, 1.0),
        (graph(1, []), 0, 1.0),
        (path_graph(5), 0b11111, 5.0),  # every node intact
        (star(5), 0, 0.0),
        (path_graph(5), 0, 0.0),
    ], ids=["n2", "n1", "all-intact", "star-budget-0", "path-budget-0"])
    def test_none(self, g, locked, budget):
        assert _neighbourhood_cut(g, locked, budget + BUDGET_TOL) is None

    def test_seed_holding_simplicial_node(self):
        # a triangle 1-2-3 hung from the 4-cycle 4-5-6-7 by the edge 3-4:
        # isolating node 1 removes 2 and 3, and 2 is simplicial, so the
        # search's space holds the better cut {3} and never returns the seed
        g = graph(7, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                      (4, 7)])
        seed = initial_cut(AttackModel(g, 2.0))
        assert seed == (-4, 2, (2, 3)) and simplicial(g, 2)
        assert rupture_score(g, [3]).rupture > seed[0]
        assert 2 not in solve_attack(AttackModel(g, 2.0)).cut.nodes
        for budget in range(g.n + 1):
            assert_matches_oracle(g, float(budget))


class TestSimplicialNodesKept:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(attack_models())
    def test_cut_holds_no_simplicial_node(self, model):
        res = solve_attack(model)
        g = model.graph
        if res.status == STATUS_OPTIMAL and len(res.cut.nodes) != g.n - 1:
            assert not any(simplicial(g, v) for v in res.cut.nodes)
