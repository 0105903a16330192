import math

import pytest

from rupturekit.errors import InputError, SizeLimitError
from rupturekit.graph import (
    ComponentPartition,
    CutSet,
    Graph,
    components,
    rupture_score,
    worst_cut_oracle,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def star(n):
    return Graph(n, [(1, i) for i in range(2, n + 1)])


class TestGraph:
    def test_edge_normalization(self):
        g = Graph(4, [(3, 1), (1, 3), (2, 4)])
        assert g.edges == ((1, 3), (2, 4))
        # ordered pairs, from an iterator, in any pair type
        assert Graph(4, iter([[2, 4], (1, 3), (1, 3)])).edges == ((1, 3), (2, 4))

    def test_link_cost_normalization(self):
        for link_cost in ({(3, 1): 2, (2, 4): 1, (1, 4): 0},  # any order
                          {(1, 3): 2, (2, 4): 1, (1, 4): 0}):  # i < j
            g = Graph(4, [(1, 2)], link_cost=link_cost)
            assert g.link_cost == {(1, 3): 2.0, (2, 4): 1.0, (1, 4): 0.0}
            assert all(type(d) is float for d in g.link_cost.values())

    @pytest.mark.parametrize("link_cost", [
        {(1, 3): 1.0, (1, 4): 1.0}, {(0, 3): 1.0}, {(2, 2): 1.0},
        {(1, 3): -1.0},
    ])
    def test_rejects_bad_link_cost(self, link_cost):
        with pytest.raises(InputError):
            Graph(3, [(1, 2)], link_cost=link_cost)

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(3, [(1, 4)])

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(3, [(2, 2)])

    def test_rejects_asymmetric_link_cost(self):
        with pytest.raises(InputError):
            Graph(3, [(1, 2)], link_cost={(1, 3): 1.0, (3, 1): 2.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_costs(self, bad):
        with pytest.raises(InputError):
            Graph(3, [(1, 2)], attack_cost=(1.0, bad, 1.0))
        with pytest.raises(InputError):
            Graph(3, [(1, 2)], link_cost={(1, 3): bad})

    def test_degree_and_neighbors(self):
        g = star(5)
        assert g.degree(1) == 4
        assert g.degree(3) == 1
        assert sorted(g.neighbors(1)) == [2, 3, 4, 5]

    def test_is_connected(self):
        assert path_graph(6).is_connected()
        assert not Graph(4, [(1, 2), (3, 4)]).is_connected()

    def test_add_edges_is_pure(self):
        g = Graph(4, [(1, 2)])
        g2 = g.add_edges([(3, 4)])
        assert g.edges == ((1, 2),)
        assert g2.edges == ((1, 2), (3, 4))


class TestComponents:
    def test_full_graph_single_component(self):
        p = components(path_graph(4))
        assert p.components == ((1, 2, 3, 4),)

    def test_removal_splits(self):
        p = components(path_graph(5), [3])
        assert p.components == ((1, 2), (4, 5))
        assert p.sizes == (2, 2)
        assert p.count == 2

    def test_isolated_vertices(self):
        g = Graph(3, [])
        p = components(g)
        assert p.count == 3


class TestRuptureScore:
    def test_path_middle_removal(self):
        # P5 minus {3}: |X|=1, m=2, w=2 -> r = -1 - 2 + 2 = -1
        sc = rupture_score(path_graph(5), [3])
        assert sc.rupture == -1
        assert sc.is_cut
        assert sc.resilience == 1

    def test_star_center(self):
        sc = rupture_score(star(6), [1])
        assert sc.rupture == -1 - 1 + 5

    def test_non_cut_scored(self):
        sc = rupture_score(path_graph(5), [1])
        assert not sc.is_cut
        assert sc.rupture == -1 - 4 + 1

    def test_single_survivor_counts_as_cut(self):
        sc = rupture_score(path_graph(3), [1, 2])
        assert sc.is_cut

    def test_removing_everything_rejected(self):
        with pytest.raises(InputError):
            rupture_score(path_graph(3), [1, 2, 3])


class TestWorstCutOracle:
    def test_star_optimum(self):
        found = worst_cut_oracle(star(6), 2.0)
        assert found is not None
        cut, sc = found
        assert cut.nodes == frozenset({1})
        assert sc.rupture == 3

    def test_no_feasible_cut(self):
        # K4 cannot be disconnected with one removal
        g = Graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        assert worst_cut_oracle(g, 1.0) is None

    def test_respects_attackable_set(self):
        # on P5 the unrestricted optimum removes {2, 4}; restricting to
        # {3, 4} forces a different cut
        found = worst_cut_oracle(path_graph(5), 2.0, attackable=[3, 4])
        assert found is not None
        cut, _ = found
        assert cut.nodes <= {3, 4}

    def test_leaf_only_attack_has_no_cut(self):
        assert worst_cut_oracle(star(6), 3.0, attackable=[2, 3, 4, 5, 6]) is None

    def test_tie_break_smallest_then_lex(self):
        # P4: {2} and {3} both give r = -1; smallest node wins
        found = worst_cut_oracle(path_graph(4), 2.0)
        cut, _ = found
        assert cut.nodes == frozenset({2})

    def test_budget_respected(self):
        g = path_graph(5)
        g = Graph(5, g.edges, attack_cost=(9.0, 9.0, 9.0, 9.0, 9.0))
        assert worst_cut_oracle(g, 1.0) is None

    def test_enumeration_cap(self):
        g = path_graph(30)
        with pytest.raises(SizeLimitError):
            worst_cut_oracle(g, 2.0)


def test_partition_sizes_sorted_by_smallest_member():
    p = components(Graph(6, [(1, 6), (2, 3), (4, 5)]))
    assert p.components == ((1, 6), (2, 3), (4, 5))
