import math
import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rupturekit import response
from rupturekit.attack import AttackModel, solve_attack
from rupturekit.bench import BenchConfig, check_response_oracle, gen_random
from rupturekit.errors import InputError, SizeLimitError
from rupturekit.graph import Graph, components, rupture_score
from rupturekit.response import (
    HAS_GENERATOR,
    LOAD_ONLY,
    ORACLE_MAX_LINKS,
    SOLVER_MAX_GROUPS,
    MceicMatrix,
    ResponseModel,
    brute_force_response,
    classify_components,
    dynamic_worst_cut,
    mceic_matrix,
    solve_response,
)


def attacked(g, cut):
    part = components(g, cut)
    return part, mceic_matrix(g, part), rupture_score(g, cut)


def simple_model(budget=None):
    # P7 minus {3, 5}: components {1,2}, {4}, {6,7}
    g = Graph(7, [(i, i + 1) for i in range(1, 7)],
              link_cost={(i, j): 1.0 + 0.1 * (i + j)
                         for i in range(1, 8) for j in range(i + 1, 8)
                         if j != i + 1})
    part, mc, sc = attacked(g, [3, 5])
    return g, ResponseModel(part, mc, budget, sc.cut_size)


class TestMceic:
    def test_pairwise_minimum(self):
        g = Graph(5, [(1, 2), (4, 5)],
                  link_cost={(1, 3): 3.0, (2, 3): 2.0, (1, 4): 9.0,
                             (1, 5): 8.0, (2, 4): 7.0, (2, 5): 9.0,
                             (3, 4): 1.0, (3, 5): 4.0})
        part = components(g, [])
        mc = mceic_matrix(g, part)
        assert mc.cost[1, 2] == 2.0
        assert mc.endpoint[1, 2] == (2, 3)
        assert mc.cost[2, 3] == 1.0

    def test_missing_cross_cost_rejected(self):
        g = Graph(3, [(1, 2)])
        with pytest.raises(InputError):
            mceic_matrix(g, components(g, []))

    def test_lex_tie_break(self):
        g = Graph(4, [(1, 2), (3, 4)],
                  link_cost={(1, 3): 2.0, (1, 4): 2.0, (2, 3): 2.0,
                             (2, 4): 2.0})
        mc = mceic_matrix(g, components(g, []))
        assert mc.endpoint[1, 2] == (1, 3)


class TestSolveResponse:
    def test_unlimited_budget_merges_everything(self):
        _, m = simple_model(budget=None)
        plan = solve_response(m)
        assert plan.merged_partition.count == 1
        # r = -|X| - m' + w' = -2 - 5 + 1
        assert plan.rupture == -6

    def test_zero_budget_adds_nothing(self):
        _, m = simple_model(budget=0.0)
        plan = solve_response(m)
        assert plan.links == ()
        assert plan.total_cost == 0.0

    def test_matches_brute_force(self):
        for budget in (0.0, 1.5, 2.3, 4.0, None):
            _, m = simple_model(budget=budget)
            a = solve_response(m)
            b = brute_force_response(m)
            assert a.rupture == b.rupture, budget
            assert a.links == b.links, budget

    def test_transitively_redundant_links_excluded(self):
        _, m = simple_model(budget=None)
        plan = solve_response(m)
        # connecting 3 components never needs more than 2 links
        assert len(plan.links) == 2

    def test_budget_is_respected(self):
        _, m = simple_model(budget=1.5)
        plan = solve_response(m)
        assert plan.total_cost <= 1.5 + 1e-9

    def test_zero_cost_ties_never_add_a_redundant_link(self):
        # four singletons, free links except (1,4) and (3,4): the free cycle
        # (1,2),(1,3),(2,3) plus (2,4) sorts before the tree's
        # (1,2),(1,3),(2,4), but its link (2,3) is redundant
        g = Graph(4, [], link_cost={(1, 2): 0.0, (1, 3): 0.0, (1, 4): 1.0,
                                    (2, 3): 0.0, (2, 4): 0.0, (3, 4): 1.0})
        part = components(g, [])
        m = ResponseModel(part, mceic_matrix(g, part), 0.0, 0)
        assert solve_response(m).selected == ((1, 2), (1, 3), (2, 4))
        assert brute_force_response(m).selected == ((1, 2), (1, 3), (2, 4))

    def test_default_path_never_enumerates_link_subsets(self, monkeypatch):
        def forbidden(m):
            raise AssertionError("link subsets enumerated on the default path")

        monkeypatch.setattr(response, "brute_force_response", forbidden)
        _, m = simple_model(budget=2.3)
        assert solve_response(m).rupture == brute_force_response(m).rupture


def singletons_model(s, budget=None, classes=None):
    g = Graph(s, [], link_cost={(i, j): 1.0 + 0.1 * ((i * j) % 7)
                                for i, j in combinations(range(1, s + 1), 2)})
    part = components(g, [])
    return ResponseModel(part, mceic_matrix(g, part), budget, 0, classes)


class TestDegenerateAndCaps:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_budget_must_be_finite_and_nonnegative(self, bad):
        # None is the only unlimited budget
        with pytest.raises(InputError):
            simple_model(budget=bad)

    @pytest.mark.parametrize("classes,message", [
        ((LOAD_ONLY, HAS_GENERATOR), "one class per component required"),
        ((LOAD_ONLY, "turbine", LOAD_ONLY), "unknown component class 'turbine'"),
    ])
    def test_component_classes_checked(self, classes, message):
        _, m = simple_model()
        with pytest.raises(InputError, match=message):
            replace(m, component_class=classes)

    @pytest.mark.parametrize("n,edges,cut", [
        (2, [(1, 2)], [1]),                        # K2 minus one node
        (4, [(1, 2), (2, 3), (3, 4), (1, 4)], [1]),  # C4 minus a non-cut node
    ])
    def test_one_component_gives_empty_plan(self, n, edges, cut):
        g = Graph(n, edges, link_cost={(1, 3): 1.0, (2, 4): 1.0} if n == 4 else None)
        part = components(g, cut)
        mc = mceic_matrix(g, part)
        assert mc.cost == {}
        m = ResponseModel(part, mc, None, len(cut))
        for plan in (solve_response(m), brute_force_response(m)):
            assert plan.selected == () and plan.links == ()
            assert plan.total_cost == 0.0
            assert plan.merged_partition == part
            assert plan.rupture == rupture_score(g, cut).rupture

    def test_default_cap_is_solved(self):
        # the only cost-1.0 links touch component 7 or 14; three of them
        # join four components, the most a budget of 3.0 can buy
        plan = solve_response(singletons_model(16, budget=3.0))
        assert plan.selected == ((1, 7), (1, 14), (2, 7))
        assert plan.total_cost == 3.0
        assert plan.rupture == -4 + (16 - 3)

    def test_small_budget_is_solved_past_sixteen(self):
        # a budget of 3.0 buys at most 3 links, so no group holds more
        # than 4 of the 17 components
        plan = solve_response(singletons_model(17, budget=3.0))
        assert plan.selected == ((1, 7), (1, 14), (2, 7))
        assert plan.total_cost == 3.0
        assert plan.rupture == 10

    def test_default_cap_exceeded(self):
        # a budget of 8.0 buys 8 cost-1.0 links, so groups of up to 9 of
        # the 20 components would be priced: C(20, 9) = 167,960 at the top
        # level alone
        with pytest.raises(SizeLimitError, match=f"{SOLVER_MAX_GROUPS}"):
            solve_response(singletons_model(20, budget=8.0))

    @pytest.mark.parametrize("budget", [None, 16.0])
    def test_full_merge_is_solved_past_the_cap(self, budget):
        # every link with i * j a multiple of 7 costs 1.0, and Kruskal
        # joins all 17 components with 16 of them through component 7, at
        # exactly 16.0
        s = 17
        plan = solve_response(singletons_model(s, budget=budget))
        assert plan.selected == ((1, 7), (1, 14), *((i, 7) for i in range(2, 7)),
                                 *((7, i) for i in range(8, 18) if i != 14))
        assert plan.total_cost == 16.0
        assert plan.merged_partition.count == 1
        assert plan.rupture == -s + 1

    def test_power_cap_exceeded(self):
        s = 13
        classes = (HAS_GENERATOR,) + (LOAD_ONLY,) * (s - 1)
        with pytest.raises(SizeLimitError):
            solve_response(singletons_model(s, classes=classes))

    def test_power_cap_checked_before_enumeration(self, monkeypatch):
        def forbidden(selected, classes):
            raise AssertionError("link subsets enumerated past the cap")

        monkeypatch.setattr(response, "_power_ok", forbidden)
        s = 8   # 28 candidate links
        classes = (LOAD_ONLY,) * (s - 1) + (HAS_GENERATOR,)
        for budget in (3.0, None):
            with pytest.raises(SizeLimitError, match=f"{ORACLE_MAX_LINKS}"):
                solve_response(singletons_model(s, budget, classes))

    def test_power_cap_is_solved(self):
        # 7 components, 21 candidate links: the enumeration's largest size
        s = 7
        classes = (HAS_GENERATOR,) + (LOAD_ONLY,) * (s - 1)
        m = singletons_model(s, budget=3.0, classes=classes)
        check_response_oracle(m, solve_response(m))
        # the star around the generator joins everything
        plan = solve_response(replace(m, budget=None))
        assert plan.merged_partition.count == 1
        assert response._power_ok(plan.selected, classes)

    def test_power_without_generator_is_empty_plan(self, monkeypatch):
        # every link joins two load-only components, so none can be backed
        def forbidden(m):
            raise AssertionError("link subsets enumerated")

        monkeypatch.setattr(response, "brute_force_response", forbidden)
        s = 13
        m = singletons_model(s, classes=(LOAD_ONLY,) * s)
        plan = solve_response(m)
        assert plan.selected == () and plan.links == ()
        assert plan.rupture == -1 + s


@st.composite
def response_models(draw, power=False):
    """Components built from paths and singletons, link costs from tied
    palettes that include 0.0, budgets from zero to unlimited; with
    `power`, 3-5 components under the power rule, since its check scores
    every link subset.  The classes are drawn per component: one drawn
    component and about one in four of the others hold a generator node,
    the rest are load-only, so load-load links often need backing and the
    rule binds."""
    lengths = draw(st.lists(st.integers(1, 3), min_size=3 if power else 1,
                            max_size=5 if power else 6))
    edges = []
    start = 1
    for length in lengths:
        edges += [(v, v + 1) for v in range(start, start + length - 1)]
        start += length
    n = start - 1
    palette = draw(st.sampled_from([(0.0,), (0.0, 1.0), (1.0,), (1.0, 2.0),
                                    (0.0, 0.5, 1.5), (1.0, 1.1, 1.2),
                                    (0.1, 0.2, 0.3), (0.3, 0.7, 2.0)]))
    edge_set = set(edges)
    link_cost = {p: draw(st.sampled_from(palette))
                 for p in combinations(range(1, n + 1), 2) if p not in edge_set}
    node_class = None
    if power:
        node_class = []
        backed = draw(st.integers(0, len(lengths) - 1))
        for c, length in enumerate(lengths):
            comp = ["load"] * length
            if c == backed or draw(st.sampled_from([False, False, False,
                                                    True])):
                comp[draw(st.integers(0, length - 1))] = "generator"
            node_class += comp
    g = Graph(n, edges, link_cost=link_cost, node_class=node_class)
    part = components(g, [])
    budget = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, None]))
    cut_size = draw(st.integers(0, 3))
    classes = classify_components(g, part) if power else None
    return ResponseModel(part, mceic_matrix(g, part), budget, cut_size,
                         classes)


def same_plan(m):
    a = solve_response(m)
    b = brute_force_response(m)
    assert (a.selected, a.links, a.total_cost, a.rupture) == (
        b.selected, b.links, b.total_cost, b.rupture)
    # a forest: each selected pair merges two groups
    assert len(a.selected) == m.partition.count - a.merged_partition.count
    return a


class TestSolverMatchesOracle:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(response_models())
    def test_same_plan_as_brute_force(self, m):
        same_plan(m)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(response_models(power=True))
    def test_power_plan_as_subset_enumeration(self, m):
        check_response_oracle(m, solve_response(m))


class TestFullMerge:
    # the Kruskal tree over all components is returned when it fits the
    # budget; within the budget tolerance it still fits, past it it does not
    OFFSETS = (0.0, 5e-10, -2e-9, -0.5)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(response_models(), st.sampled_from(OFFSETS))
    def test_budget_at_and_below_tree_cost(self, m, offset):
        budget = solve_response(replace(m, budget=None)).total_cost + offset
        assume(budget >= 0)
        plan = same_plan(replace(m, budget=budget))
        if offset >= 0:
            assert plan.merged_partition.count == 1

    @pytest.mark.parametrize("palette", [(0.0, 1.0), (1.0, 2.0),
                                         (0.0, 0.5, 1.5), (1.0, 1.1, 1.2)])
    def test_seven_components(self, palette):
        # seven singletons, 21 links: the oracle's largest size
        rng = random.Random(len(palette))
        g = Graph(7, [], link_cost={p: rng.choice(palette)
                                    for p in combinations(range(1, 8), 2)})
        part = components(g, [])
        m = ResponseModel(part, mceic_matrix(g, part), None, 0)
        tree = solve_response(m).total_cost
        for offset in self.OFFSETS[:3]:
            if tree + offset >= 0:
                plan = same_plan(replace(m, budget=tree + offset))
                assert (plan.merged_partition.count == 1) == (offset >= 0)


def priced_groups(monkeypatch):
    """Record the component mask of every group the default search prices.
    Each pricing starts a Kruskal run on a new union-find; so does the
    solve's first run, the prefix over all components."""
    runs = []
    last = [None]
    kruskal = response._kruskal

    def counted(ranked, limit, inside, parent, chosen, total):
        if parent is not last[0]:
            last[0] = parent
            runs.append(inside)
        return kruskal(ranked, limit, inside, parent, chosen, total)

    monkeypatch.setattr(response, "_kruskal", counted)
    return runs


class TestBudgetLimitedGroups:
    # positive tied costs, so a budget equal to the first k costs of the
    # Kruskal tree, summed in its order, buys exactly k links
    PALETTES = ((1.0, 2.0), (1.0, 1.1, 1.2), (0.1, 0.2, 0.3), (0.3, 0.7, 2.0))

    @pytest.mark.parametrize("s", range(2, 8))
    @pytest.mark.parametrize("seed", range(3))
    def test_same_plan_near_the_prefix_lengths(self, s, seed):
        rng = random.Random(100 * s + seed)
        edges, start = [], 1
        for _ in range(s):
            length = rng.randint(1, 3)
            edges += [(v, v + 1) for v in range(start, start + length - 1)]
            start += length
        palette = self.PALETTES[(s + seed) % len(self.PALETTES)]
        edge_set = set(edges)
        g = Graph(start - 1, edges, link_cost={
            p: rng.choice(palette)
            for p in combinations(range(1, start), 2) if p not in edge_set})
        part = components(g, [])
        m = ResponseModel(part, mceic_matrix(g, part), None, rng.randint(0, 3))
        tree = solve_response(m)
        costs = sorted(m.mceic.cost[p] for p in tree.selected)
        # budget -> the most links it buys
        most = {tree.total_cost: s - 1, tree.total_cost - 0.01: s - 2}
        for k in range(min(2, s - 1) + 1):
            budget = 0.0
            for c in costs[:k]:
                budget += c
            most[budget] = k
        for budget, links in most.items():
            plan = same_plan(replace(m, budget=budget))
            assert len(plan.selected) <= links

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(response_models(), st.data())
    def test_same_plan_at_prefix_budgets(self, m, data):
        # budgets at the first k sorted costs of the unlimited plan, summed
        # as floats, then moved within and past the budget tolerance
        k = data.draw(st.integers(0, m.partition.count - 1))
        offset = data.draw(st.sampled_from(TestFullMerge.OFFSETS))
        tree = solve_response(replace(m, budget=None))
        budget = 0.0
        for c in sorted(m.mceic.cost[p] for p in tree.selected)[:k]:
            budget += c
        budget += offset
        assume(budget >= 0)
        same_plan(replace(m, budget=budget))

    def test_level_that_ties_the_incumbent_is_priced(self):
        # components of sizes 3, 3, 1, 2 and a budget of 1.5, which buys
        # (3,4) then (2,3).  The top level's {2,3,4} scores r = -6 + 2 with
        # ((2,3),(3,4)); the next level's largest groups, {1,2}, reach the
        # same r with ((1,2),(3,4)), the smaller pair tuple
        g = Graph(9, [(1, 2), (2, 3), (4, 5), (5, 6), (8, 9)])
        part = components(g, [])
        assert part.sizes == (3, 3, 1, 2)
        cost = {(1, 2): 1.0, (1, 3): 5.0, (1, 4): 5.0, (2, 3): 1.0,
                (2, 4): 5.0, (3, 4): 0.5}
        mc = MceicMatrix(
            cost, {(a, b): (part.components[a - 1][0],
                            part.components[b - 1][0]) for a, b in cost})
        plan = same_plan(ResponseModel(part, mc, 1.5, 0))
        assert plan.selected == ((1, 2), (3, 4))
        assert plan.rupture == -4

    def test_groups_priced_are_budget_limited(self, monkeypatch):
        # a budget of 3.0 buys 3 links, so no group holds more than 4
        runs = priced_groups(monkeypatch)
        solve_response(singletons_model(16, budget=3.0))
        groups = runs[1:]
        assert 0 < len(groups) <= sum(math.comb(16, j) for j in range(1, 5))
        assert max(g.bit_count() for g in groups) == 4

    def test_full_merge_prices_one_group(self, monkeypatch):
        runs = priced_groups(monkeypatch)
        plan = solve_response(singletons_model(17, budget=16.0))
        assert plan.merged_partition.count == 1
        assert runs[1:] == [(1 << 17) - 1]

    def test_refused_level_is_never_priced(self, monkeypatch):
        # 19 singletons whose cost-1.0 links are the pairs (2i - 1, 2i), all
        # others 2.0: a budget of 6.0 buys 6 links, but a group of 7 holds
        # at most 3 cost-1.0 links, so no tree of 7 fits and no incumbent
        # sets a floor.  The C(19, 7) = 50,388 groups of 7 fit the cap and
        # are all priced, but the 27,132 groups of 6 would pass it
        s = 19
        g = Graph(s, [], link_cost={
            (i, j): 1.0 if i % 2 and j == i + 1 else 2.0
            for i, j in combinations(range(1, s + 1), 2)})
        part = components(g, [])
        runs = priced_groups(monkeypatch)
        with pytest.raises(SizeLimitError, match="77520"):
            solve_response(ResponseModel(part, mceic_matrix(g, part), 6.0, 0))
        groups = runs[1:]
        assert len(groups) == math.comb(19, 7) <= SOLVER_MAX_GROUPS
        assert {g.bit_count() for g in groups} == {7}


class TestPowerConstraint:
    def test_classification(self):
        g = Graph(5, [(1, 2), (4, 5)],
                  node_class=("generator", "load", "load", "load", "load"),
                  link_cost={(1, 3): 1.0, (1, 4): 1.0, (1, 5): 1.0,
                             (2, 3): 1.0, (2, 4): 1.0, (2, 5): 1.0,
                             (3, 4): 1.0, (3, 5): 1.0})
        part = components(g, [])
        assert classify_components(g, part) == (
            HAS_GENERATOR, LOAD_ONLY, LOAD_ONLY)

    def test_load_only_pair_needs_generator_path(self):
        # components: {1,2} with generator, {3} load, {4} load; joining the
        # two load components directly is forbidden unless each also ties
        # into a generator component
        g = Graph(4, [(1, 2)],
                  node_class=("generator", "load", "load", "load"),
                  link_cost={(1, 3): 5.0, (1, 4): 5.0, (2, 3): 5.0,
                             (2, 4): 5.0, (3, 4): 1.0})
        part = components(g, [])
        mc = mceic_matrix(g, part)
        classes = classify_components(g, part)
        free = ResponseModel(part, mc, 2.0, 0)
        constrained = replace(free, component_class=classes)
        plan_free = solve_response(free)
        plan_pc = solve_response(constrained)
        assert plan_free.links == ((3, 4),)
        # under the power rule the only affordable link is illegal
        assert plan_pc.links == ()

    def test_power_matches_subset_enumeration(self):
        g = Graph(6, [(1, 2), (3, 4)],
                  node_class=("generator", "load", "load", "load",
                              "load", "load"),
                  link_cost={(i, j): 1.0 + 0.2 * i + 0.1 * j
                             for i in range(1, 7) for j in range(i + 1, 7)
                             if (i, j) not in ((1, 2), (3, 4))})
        part = components(g, [])
        mc = mceic_matrix(g, part)
        classes = classify_components(g, part)
        for budget in (1.5, 3.0, None):
            m = ResponseModel(part, mc, budget, 0, classes)
            check_response_oracle(m, solve_response(m))

    def test_seeded_plans_match_subset_enumeration(self):
        # four or five singletons, one generator in four: the rule forbids
        # the default rule's plan in about a quarter of these models
        for seed in range(100):
            rng = random.Random(seed)
            s = rng.randint(4, 5)
            palette = rng.choice(TestBudgetLimitedGroups.PALETTES + ((0.0, 1.0),))
            g = Graph(s, [], node_class=[
                "generator" if rng.random() < 1 / 4 else "load"
                for _ in range(s)], link_cost={
                p: rng.choice(palette) for p in combinations(range(1, s + 1), 2)})
            part = components(g, [])
            m = ResponseModel(part, mceic_matrix(g, part),
                              rng.choice([1.0, 2.0, 3.0, None]),
                              rng.randint(0, 3), classify_components(g, part))
            check_response_oracle(m, solve_response(m))


class TestDynamicWorstCut:
    def test_reattack_on_reconstructed_graph(self):
        g, m = simple_model(budget=None)
        plan = solve_response(m)
        model = AttackModel(g, 2.0)
        dyn = dynamic_worst_cut(g, plan, model)
        base = rupture_score(Graph(g.n, g.edges + plan.links), dyn.cut)
        assert dyn.score.rupture == base.rupture

    def test_same_as_attack_on_the_graph_with_links(self):
        # the re-attack graph carries no link costs; the answer is that of
        # the full graph with the plan's links added
        for inst in gen_random(BenchConfig(seed=5, count=12, n_min=8,
                                           n_max=13)):
            g = inst.to_graph()
            for attackable in (frozenset(), frozenset(range(2, inst.n, 2))):
                model = AttackModel(g, inst.budget_attack, attackable)
                first = solve_attack(model)
                if first.status != "optimal":
                    continue
                part = first.partition
                for budget in (0.0, 2.5, None):
                    plan = solve_response(ResponseModel(
                        part, mceic_matrix(g, part), budget,
                        first.score.cut_size))
                    dyn = dynamic_worst_cut(g, plan, model)
                    full = Graph(g.n, g.edges + plan.links, g.attack_cost,
                                 g.link_cost, g.node_class)
                    ref = solve_attack(AttackModel(full, model.budget,
                                                   attackable))
                    assert dyn.status == ref.status
                    assert dyn.cut == ref.cut
                    assert dyn.score == ref.score
                    assert dyn.partition == ref.partition
