import math
from dataclasses import replace

import pytest

from rupturekit import bench, response
from rupturekit.attack import STATUS_INFEASIBLE, AttackModel, solve_attack
from rupturekit.bench import (
    PIPELINE_CSV_HEADER,
    SWEEP_CSV_HEADER,
    BenchConfig,
    check_response_oracle,
    gen_random,
    power_subset_optimum,
    run_pipeline,
    sweep_budget,
)
from rupturekit.errors import InputError, OracleMismatchError, SizeLimitError
from rupturekit.graph import Graph, components, rupture_score
from rupturekit.model_io import InstanceFile, emit_instance


class TestGenRandom:
    def test_deterministic_under_seed(self):
        cfg = BenchConfig(seed=3, count=5, n_min=6, n_max=10)
        a = [emit_instance(i) for i in gen_random(cfg)]
        b = [emit_instance(i) for i in gen_random(cfg)]
        assert a == b

    def test_connected_with_requested_edges(self):
        cfg = BenchConfig(seed=7, count=3, n_min=11, n_max=11, edge_count=15)
        for inst in gen_random(cfg):
            g = inst.to_graph()
            assert len(inst.edges) == 15
            assert g.is_connected()

    def test_tree_edge_count(self):
        cfg = BenchConfig(seed=1, count=2, n_min=8, n_max=8, edge_count=7)
        for inst in gen_random(cfg):
            assert len(inst.edges) == 7
            assert inst.to_graph().is_connected()

    def test_complete_graph(self):
        cfg = BenchConfig(seed=1, count=1, n_min=5, n_max=5, edge_count=10)
        inst = gen_random(cfg)[0]
        assert len(inst.edges) == 10
        assert inst.link_cost == {}

    def test_impossible_edge_count(self):
        with pytest.raises(InputError):
            gen_random(BenchConfig(seed=1, count=1, n_min=5, n_max=5,
                                   edge_count=3))

    def test_link_costs_cover_all_non_edges(self):
        inst = gen_random(BenchConfig(seed=9, count=1, n_min=7, n_max=7))[0]
        from itertools import combinations

        non_edges = set(combinations(range(1, 8), 2)) - set(inst.edges)
        assert set(inst.link_cost) == non_edges
        for c in inst.link_cost.values():
            assert 1.0 <= c <= 3.0

    def test_default_attack_budget_is_half(self):
        inst = gen_random(BenchConfig(seed=2, count=1, n_min=9, n_max=9))[0]
        assert inst.budget_attack == 4.0


def star_instance(budget_response=None):
    link = {(i, j): 1.0 for i in range(2, 7) for j in range(i + 1, 7)}
    return InstanceFile(6, tuple((1, i) for i in range(2, 7)), (1.0,) * 6,
                        link, None, 3.0, budget_response, "targeted", ())


class TestRunPipeline:
    def test_star_unlimited(self):
        oc = run_pipeline(star_instance(math.inf), "star", oracle_check=True)
        assert oc.attack.cut.nodes == frozenset({1})
        assert len(oc.plan.links) == 4
        assert oc.plan.resilience == 5

    def test_csv_row_shape(self):
        oc = run_pipeline(star_instance(math.inf), "star")
        row = oc.csv_row().split(",")
        assert len(row) == len(PIPELINE_CSV_HEADER.split(","))
        assert row[0] == "star"

    def test_designated_skips_stage_one(self):
        inst = InstanceFile(4, ((1, 2), (2, 3), (3, 4)), (1.0,) * 4,
                            {(1, 3): 1.0, (1, 4): 1.0, (2, 4): 1.0},
                            None, 2.0, math.inf, "designated", (2,))
        oc = run_pipeline(inst, "p4")
        assert oc.attack.cut.nodes == frozenset({2})
        assert oc.attack.stats.nodes_explored == 0
        assert oc.plan is not None

    def test_infeasible_attack_clean(self):
        k4 = InstanceFile(4, tuple((i, j) for i in range(1, 5)
                                   for j in range(i + 1, 5)),
                          (1.0,) * 4, {}, None, 1.0, None, "targeted", ())
        oc = run_pipeline(k4, "k4")
        assert oc.plan is None
        assert "no budget-feasible attack" in oc.table_row()

    @pytest.mark.parametrize("attack_type, nodes", [("targeted", ()),
                                                     ("designated", (1,))])
    def test_oracle_check_covers_the_reattack(self, monkeypatch, attack_type,
                                              nodes):
        inst = replace(star_instance(math.inf), attack_type=attack_type,
                       attack_nodes=nodes)
        checked = []
        real = bench.worst_cut_oracle

        def recording_oracle(g, budget, attackable):
            checked.append(g.edges)
            return real(g, budget, attackable)

        monkeypatch.setattr(bench, "worst_cut_oracle", recording_oracle)
        oc = run_pipeline(inst, "star", oracle_check=True)
        rebuilt = tuple(sorted(inst.edges + oc.plan.links))
        # stage one is checked only when it was solved; the re-attack always
        stage_one = [inst.edges] if attack_type == "targeted" else []
        assert checked == stage_one + [rebuilt]


class TestPowerOracle:
    """Under the power rule the oracle check scores every link subset,
    cycles included, and never calls the solver's enumeration."""

    def model(self, budget):
        # three singletons, a generator at 1; the load-load link 2-3 is the
        # cheapest and needs a link from 2 or 3 to 1 to back it
        g = Graph(3, [], node_class=["generator", "load", "load"],
                  link_cost={(1, 2): 1.0, (1, 3): 1.0, (2, 3): 0.25})
        part = components(g, [])
        return response.ResponseModel(
            part, response.mceic_matrix(g, part), budget, 0,
            response.classify_components(g, part))

    def test_solver_plans_pass(self, monkeypatch):
        plans = {b: response.solve_response(self.model(b))
                 for b in (0.5, 1.25, None)}
        monkeypatch.setattr(bench, "brute_force_response", None)
        for b, plan in plans.items():
            check_response_oracle(self.model(b), plan)
        # 0.5 buys no link; 1.25 and an unlimited budget buy 2-3 backed by
        # one generator link, never the costlier cycle or the two
        # generator links
        assert power_subset_optimum(self.model(0.5)) == (2, 0.0)
        assert power_subset_optimum(self.model(1.25)) == (-2, 1.25)
        assert power_subset_optimum(self.model(None)) == (-2, 1.25)

    def test_subset_count(self):
        # three pairs and a least cost of 0.25: no link fits budget 0,
        # two fit 0.5 and all three fit 1.25
        assert [bench.power_subset_count(self.model(b))
                for b in (0.0, 0.5, 1.25, None)] == [1, 7, 8, 8]

    def test_cap_is_checked_before_enumerating(self, monkeypatch):
        m = self.model(None)
        monkeypatch.setattr(bench, "ORACLE_MAX_SUBSETS", 8)
        assert power_subset_optimum(m) == (-2, 1.25)
        monkeypatch.setattr(bench, "ORACLE_MAX_SUBSETS", 7)
        monkeypatch.setattr(bench, "_power_ok", None)  # never reached
        with pytest.raises(SizeLimitError,
                           match="8 link subsets exceed the oracle cap 7"):
            power_subset_optimum(m)

    def test_unbacked_link_caught(self):
        # the default rule buys 2-3 alone at budget 0.5
        m = self.model(0.5)
        plan = response.solve_response(replace(m, component_class=None))
        assert plan.selected == ((2, 3),)
        with pytest.raises(OracleMismatchError, match="breaks the power rule"):
            check_response_oracle(m, plan)


class TestSweep:
    def test_header_and_monotone(self):
        rows = sweep_budget(star_instance(), [0.0, 1.0, 2.0, math.inf])
        assert rows[0] == SWEEP_CSV_HEADER
        res = [int(r.split(",")[2]) for r in rows[1:]]
        assert res == sorted(res)

    def test_zero_budget_equals_attacked_score(self):
        inst = star_instance()
        rows = sweep_budget(inst, [0.0])
        attacked = rupture_score(inst.to_graph(), [1])
        assert int(rows[1].split(",")[2]) == attacked.resilience

    @staticmethod
    def attacked_edge_sets(monkeypatch):
        """The edge set of every graph attacked from now on, in order."""
        attacked = []

        def counting_solve_attack(model):
            attacked.append(model.graph.edges)
            return solve_attack(model)

        monkeypatch.setattr(bench, "solve_attack", counting_solve_attack)
        monkeypatch.setattr(response, "solve_attack", counting_solve_attack)
        return attacked

    def test_budgets_buying_the_same_links_share_a_reattack(self, monkeypatch):
        inst = gen_random(BenchConfig(seed=0, count=1, n_min=13, n_max=13))[0]
        grid = [0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 9.0, math.inf]
        # each budget swept alone re-attacks without sharing
        alone = [sweep_budget(inst, [b])[1] for b in grid]
        attacked = self.attacked_edge_sets(monkeypatch)
        rows = sweep_budget(inst, grid)
        assert rows[1:] == alone
        # the first-stage attack, then one re-attack per distinct link set
        reattacked = attacked[1:]
        assert len(reattacked) == len(set(reattacked))
        assert len(reattacked) < len(grid)
        # budgets 0 and 0.5 buy no link and reuse the first-stage attack
        assert [r.split(",")[1] for r in rows[1:3]] == ["0", "0"]
        assert attacked.count(inst.edges) == 1

    def test_nested_plan_keeps_a_solved_worst_cut(self, monkeypatch):
        # a plan whose links hold a solved link set keeps that set's worst
        # cut when the cut leaves as many components on the rebuilt
        # network; every answer, reused or solved, is that network's own
        inst = gen_random(BenchConfig(seed=0, count=1, n_min=13, n_max=13))[0]
        grid = [0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 9.0, math.inf]
        answers = []
        real = bench._nested_reattack

        def recording(g, plan, model, solved):
            res = real(g, plan, model, solved)
            answers.append((g, plan, model, res))
            return res

        monkeypatch.setattr(bench, "_nested_reattack", recording)
        attacked = self.attacked_edge_sets(monkeypatch)
        sweep_budget(inst, grid)
        # one call per distinct nonempty link set, and fewer solves
        assert len(answers) == 5
        assert len(attacked) - 1 == 4
        for g, plan, model, res in answers:
            want = solve_attack(response.rebuilt_model(g, plan, model))
            assert (res.status, res.cut.nodes, res.score.rupture) == (
                want.status, want.cut.nodes, want.score.rupture)

    def test_infeasible_subset_answers_its_supersets(self, monkeypatch):
        # a link set with no feasible cut leaves none for a plan holding it,
        # so no solve is made
        g = Graph(4, [(1, 2), (2, 3), (3, 4)])
        model = AttackModel(g, 0.5)
        solved = {frozenset(): solve_attack(model)}
        assert solved[frozenset()].status == STATUS_INFEASIBLE
        plan = response.ReconstructionPlan((), ((1, 3),), 1.0,
                                           components(g, []), 0)
        attacked = self.attacked_edge_sets(monkeypatch)
        res = bench._nested_reattack(g, plan, model, solved)
        assert res.status == STATUS_INFEASIBLE
        assert attacked == []

    def test_designated_reattacks_the_empty_plan(self, monkeypatch):
        # a given cut is scored, not solved, so the unchanged network is
        # attacked once, by the re-attack of the empty plan
        inst = replace(star_instance(), attack_type="designated",
                       attack_nodes=(2,))
        attacked = self.attacked_edge_sets(monkeypatch)
        rows = sweep_budget(inst, [0.0, 0.5])
        assert [r.split(",")[1] for r in rows[1:]] == ["0", "0"]
        assert attacked == [inst.edges]

    def test_mceic_matrix_built_once_per_sweep(self, monkeypatch):
        built = []

        def counting_mceic_matrix(g, part):
            built.append(part)
            return response.mceic_matrix(g, part)

        monkeypatch.setattr(bench, "mceic_matrix", counting_mceic_matrix)
        rows = sweep_budget(star_instance(), [0.0, 1.0, 2.0, math.inf])
        assert len(rows) == 5
        assert len(built) == 1
