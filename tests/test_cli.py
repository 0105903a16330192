import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from rupturekit import bench, model_io
from rupturekit.cli import main
from rupturekit.errors import RupturekitError
from rupturekit.model_io import (
    InstanceFile,
    InstanceFormatError,
    emit_instance,
    export_mip,
)


@pytest.fixture
def runner():
    return CliRunner()


class TestAttackCommand:
    def test_nine_node(self, runner, nine_node_path):
        res = runner.invoke(main, ["attack", str(nine_node_path),
                                   "--oracle-check"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["attack"]["cut"] == [5]
        assert doc["attack"]["resilience"] == -1

    def test_infeasible_exit_code(self, runner, tmp_path):
        k4 = tmp_path / "k4.txt"
        k4.write_text(
            "FORMAT rupturekit-instance 1\nNODES 4\nEDGES 6\n"
            "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
            "BUDGETS\nattack 1.000000\nATTACK\ntargeted\nEND\n"
        )
        for flags in ([], ["--oracle-check"]):
            res = runner.invoke(main, ["attack", str(k4), *flags])
            assert res.exit_code == 2, res.output

    def test_input_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("FORMAT wrong 1\n")
        res = runner.invoke(main, ["attack", str(bad)])
        assert res.exit_code == 3

    def test_oracle_mismatch_exit_code(self, runner, nine_node_path,
                                       monkeypatch):
        real = bench.worst_cut_oracle

        def other_cut(g, budget, attackable):
            # same rupture, another cut: the check must compare the cut
            cut, score = real(g, budget, attackable)
            assert cut.nodes == {5}
            return replace(cut, nodes=frozenset({4})), score

        monkeypatch.setattr(bench, "worst_cut_oracle", other_cut)
        res = runner.invoke(main, ["attack", str(nine_node_path),
                                   "--oracle-check"])
        assert res.exit_code == 5
        assert "disagrees with the oracle" in res.output

    def test_missing_file(self, runner):
        res = runner.invoke(main, ["attack", "missing.txt"])
        assert res.exit_code == 3

    def test_unlimited_budget_is_input_error(self, runner, nine_node_path):
        res = runner.invoke(main, ["attack", str(nine_node_path),
                                   "--budget-attack", "unlimited"])
        assert res.exit_code == 3
        assert "attack budget must be finite" in res.output


class TestRespondCommand:
    def test_nine_node_budget(self, runner, nine_node_path):
        res = runner.invoke(main, ["respond", str(nine_node_path),
                                   "--cut-x", "5",
                                   "--budget-response", "1.5",
                                   "--oracle-check"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["response"]["links"] == [[1, 4]]
        assert doc["response"]["resilience"] == 1

    def test_power_constrained_14_bus(self, runner, ieee14_path):
        res = runner.invoke(main, ["respond", str(ieee14_path),
                                   "--cut-x", "2 4 6 9",
                                   "--power-constraint", "--oracle-check"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert len(doc["response"]["links"]) == 2


def power_star_text(classes, link_cost, response):
    """A star with centre 6 and leaves 1-5, attack budget 1, the given node
    classes, leaf-to-leaf link costs and response budget."""
    lines = ["FORMAT rupturekit-instance 1", "NODES 6", "EDGES 5"]
    lines += [f"{v} 6" for v in range(1, 6)]
    lines.append("LINK_COSTS")
    lines += [f"{i} {j} {c:.6f}" for (i, j), c in sorted(link_cost.items())]
    lines.append("CLASSES")
    lines += [f"{v} {cls}" for v, cls in enumerate(classes, start=1)]
    lines += ["BUDGETS", "attack 1.000000", f"response {response:.6f}",
              "ATTACK", "targeted", "END"]
    return "\n".join(lines) + "\n"


class TestPowerPlansAreForests:
    """Under the power rule the solver and the oracle agree on the whole plan
    on ties: zero-cost cycles and fractional costs whose float sums differ."""

    def run(self, runner, tmp_path, text):
        path = tmp_path / "star.txt"
        path.write_text(text)
        return runner.invoke(main, ["pipeline", str(path), "--power-constraint",
                                    "--oracle-check"])

    def test_zero_cost_cycle(self, runner, tmp_path):
        # free links inside {1,2,3} and {4,5}: a free cycle adds nothing
        cost = {(i, j): 0.0 if {i, j} <= {1, 2, 3} or {i, j} <= {4, 5}
                else 1.0
                for i in range(1, 6) for j in range(i + 1, 6)}
        res = self.run(runner, tmp_path,
                       power_star_text(["generator"] * 6, cost, 0.0))
        assert res.exit_code == 0, res.output
        assert "links_added=3  budget_used=0.000000" in res.output

    def test_fractional_cost_tie(self, runner, tmp_path):
        # .3 + .7 + .3 + .7 and .3 + .3 + .7 + .7 are two floats, one cost
        cost = {(1, 2): .7, (1, 3): .7, (1, 4): 2, (1, 5): .3, (2, 3): 2,
                (2, 4): .7, (2, 5): .3, (3, 4): 2, (3, 5): .7, (4, 5): .7}
        classes = ["load", "generator", "load", "generator", "load", "load"]
        res = self.run(runner, tmp_path, power_star_text(classes, cost, 3.0))
        assert res.exit_code == 0, res.output
        assert "links_added=4  budget_used=2.000000" in res.output


K2 = ("FORMAT rupturekit-instance 1\nNODES 2\nEDGES 1\n1 2\n"
      "BUDGETS\nattack 1.000000\nATTACK\ntargeted\nEND\n")
C4_DESIGNATED = ("FORMAT rupturekit-instance 1\nNODES 4\nEDGES 4\n"
                 "1 2\n1 4\n2 3\n3 4\nLINK_COSTS\n1 3 1.000000\n"
                 "2 4 1.000000\nATTACK\ndesignated 1\nEND\n")


class TestPowerOracleCap:
    """The power-rule oracle counts its link subsets before it enumerates
    them: seven singletons after cut {1}, one generator, unit MCEIC costs."""

    def run(self, runner, tmp_path, budget):
        n = 8
        inst = InstanceFile(
            n, tuple((1, v) for v in range(2, n + 1)), (1.0,) * n,
            {(i, j): 1.0 for i in range(2, n + 1) for j in range(i + 1, n + 1)},
            ("load", "generator") + ("load",) * 6, 1.0, budget)
        path = tmp_path / "star.txt"
        path.write_text(emit_instance(inst))
        return runner.invoke(main, ["respond", str(path), "--cut-x", "1",
                                    "--power-constraint", "--oracle-check"])

    def test_under_the_cap(self, runner, tmp_path):
        # 4 links: sum of C(21, k) for k <= 4 is 7,547 subsets
        res = self.run(runner, tmp_path, 4.0)
        assert res.exit_code == 0, res.output
        assert len(json.loads(res.output)["response"]["links"]) == 4

    def test_over_the_cap(self, runner, tmp_path):
        # 6 links: 82,160 subsets
        res = self.run(runner, tmp_path, 6.0)
        assert res.exit_code == 4, res.output
        assert ("error: 82160 link subsets exceed the oracle cap 65536"
                in res.output)


def star_text(leaves):
    """K(1, leaves) with unit link costs between all leaves."""
    n = leaves + 1
    lines = ["FORMAT rupturekit-instance 1", f"NODES {n}", f"EDGES {leaves}"]
    lines += [f"1 {v}" for v in range(2, n + 1)]
    lines.append("LINK_COSTS")
    lines += [f"{i} {j} 1.000000"
              for i in range(2, n + 1) for j in range(i + 1, n + 1)]
    lines += ["ATTACK", "targeted", "END"]
    return "\n".join(lines) + "\n"


class TestOneSurvivingComponent:
    """Attacks that leave at most one component get an empty plan."""

    def test_pipeline_k2(self, runner, tmp_path):
        path = tmp_path / "k2.txt"
        path.write_text(K2)
        res = runner.invoke(main, ["pipeline", str(path), "--csv",
                                   "--oracle-check"])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[1] == "k2.txt,2,1,0.000000,0,1,1,1,1,1"

    def test_sweep_k2(self, runner, tmp_path):
        path = tmp_path / "k2.txt"
        path.write_text(K2)
        res = runner.invoke(main, ["sweep", str(path), "--grid", "0,unlimited"])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[1:] == ["0.000000,0,1,1",
                                               "unlimited,0,1,1"]

    def test_pipeline_c4_designated_non_cut(self, runner, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text(C4_DESIGNATED)
        res = runner.invoke(main, ["pipeline", str(path), "--csv"])
        assert res.exit_code == 0, res.output
        row = res.output.splitlines()[1].split(",")
        assert row[3:8] == ["0.000000", "0", "1", "3", "3"]

    def test_respond_c4_non_cut(self, runner, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text(C4_DESIGNATED)
        res = runner.invoke(main, ["respond", str(path), "--cut-x", "1",
                                   "--oracle-check"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["response"]["links"] == []
        assert doc["response"]["resilience"] == 3


def nine_node_variant(nine_node_path, tmp_path, attack_line, budget="1.000000"):
    """nine_node.txt with another ATTACK line and attack budget."""
    text = nine_node_path.read_text()
    text = text.replace("\ntargeted\n", f"\n{attack_line}\n")
    text = text.replace("\nattack 1.000000\n", f"\nattack {budget}\n")
    path = tmp_path / f"{attack_line.split()[0]}.txt"
    path.write_text(text)
    return path


class TestStageWiring:
    """Attack types and command-line overrides reach each stage."""

    @pytest.fixture
    def designated(self, nine_node_path, tmp_path):
        return nine_node_variant(nine_node_path, tmp_path, "designated 5 6")

    @pytest.fixture
    def distributed(self, nine_node_path, tmp_path):
        return nine_node_variant(nine_node_path, tmp_path,
                                 "distributed 1 5 6", "2.000000")

    def test_pipeline_designated(self, runner, designated):
        # the given cut {5, 6} is scored; the re-attack at budget 1 finds no cut
        res = runner.invoke(main, ["pipeline", str(designated), "--csv"])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[1] == (
            "designated.txt,9,9,5.300000,10,2,0,8,,")

    def test_pipeline_distributed(self, runner, distributed):
        res = runner.invoke(main, ["pipeline", str(distributed), "--csv",
                                   "--oracle-check"])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[1] == (
            "distributed.txt,9,9,5.300000,10,1,-1,8,2,6")

    def test_sweep_designated(self, runner, designated):
        res = runner.invoke(main, ["sweep", str(designated),
                                   "--grid", "0,1,1.5,2.5,unlimited"])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[1:] == [
            "0.000000,0,0,1", "1.000000,1,1,1", "1.500000,1,2,1",
            "2.500000,2,4,1", "unlimited,4,8,0"]

    def test_sweep_distributed(self, runner, distributed):
        # the re-attacks keep the file's attackable set {1, 5, 6}
        res = runner.invoke(main, ["sweep", str(distributed),
                                   "--grid", "0,1,1.5,2.5,unlimited"])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[1:] == [
            "0.000000,0,-1,1", "1.000000,1,0,1", "1.500000,1,1,2",
            "2.500000,2,3,1", "unlimited,4,8,2"]

    def test_attack_overrides(self, runner, nine_node_path):
        # the file's budget is 1.0; at 2.0 over {1, 2, 3, 6} the cut is {1, 6}
        res = runner.invoke(main, ["attack", str(nine_node_path),
                                   "--budget-attack", "2",
                                   "--attackable", "1,2,3,6", "--oracle-check"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)["attack"]
        assert doc["cut"] == [1, 6]
        assert doc["rupture"] == -3
        assert doc["components"] == [[2, 3], [4, 5, 8, 9], [7]]

    def test_attackable_overrides_distributed_set(self, runner, distributed):
        res = runner.invoke(main, ["attack", str(distributed)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["attack"]["cut"] == [5]
        # removing 2 and 3 leaves the rest connected
        res = runner.invoke(main, ["attack", str(distributed),
                                   "--attackable", "2 3"])
        assert res.exit_code == 2, res.output

    def test_respond_unlimited_overrides_file_budget(self, runner, ieee14_path):
        # the file's response budget of 3.0 buys two links
        res = runner.invoke(main, ["respond", str(ieee14_path),
                                   "--cut-x", "2 4 6 9",
                                   "--budget-response", "unlimited",
                                   "--oracle-check"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)["response"]
        assert doc["links"] == [[1, 12], [3, 8], [8, 11], [7, 14]]
        assert doc["total_cost"] == 6.3
        assert doc["resilience"] == 13


class TestRespondErrors:
    def test_size_guard_exit_code(self, runner, tmp_path):
        path = tmp_path / "star.txt"
        path.write_text(star_text(20))
        # a budget of 8 buys 8 unit-cost links, so groups of up to 9 of the
        # 20 leaves would be priced, past the group cap
        res = runner.invoke(main, ["respond", str(path), "--cut-x", "1",
                                   "--budget-response", "8"])
        assert res.exit_code == 4

    def test_oracle_mismatch_exit_code(self, runner, nine_node_path,
                                       monkeypatch):
        real = bench.brute_force_response

        def wrong_oracle(model):
            # the oracle of a zero budget adds no link
            return real(replace(model, budget=0.0))

        monkeypatch.setattr(bench, "brute_force_response", wrong_oracle)
        res = runner.invoke(main, ["respond", str(nine_node_path),
                                   "--cut-x", "5", "--budget-response", "1.5",
                                   "--oracle-check"])
        assert res.exit_code == 5
        assert "disagrees with the oracle" in res.output


class TestPipelineCommand:
    def test_power_oracle_mismatch_exit_code(self, runner, ieee14_path,
                                             monkeypatch):
        real = bench.solve_response

        def worse_plan(model):
            # the plan of a zero budget adds no link
            return real(replace(model, budget=0.0))

        args = ["pipeline", str(ieee14_path), "--power-constraint",
                "--oracle-check"]
        assert runner.invoke(main, args).exit_code == 0
        # the forest enumeration is the power-rule solver, so the check
        # must not trust it either
        monkeypatch.setattr(bench, "solve_response", worse_plan)
        monkeypatch.setattr(bench, "brute_force_response", worse_plan)
        res = runner.invoke(main, args)
        assert res.exit_code == 5
        assert "response solver disagrees with the oracle" in res.output


    def test_csv_output(self, runner, nine_node_path):
        res = runner.invoke(main, ["pipeline", str(nine_node_path), "--csv"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0] == ("instance,n,edges,budget_used,mceic_links,"
                            "x_star_size,res_initial,res_reconstructed,"
                            "x_dyn_size,res_dynamic")
        assert lines[1].startswith("nine_node.txt,9,9,")

    def test_rows_follow_argument_order(self, runner, nine_node_path,
                                        ieee14_path):
        for paths, names in (
            ((nine_node_path, ieee14_path), ("nine_node.txt", "ieee14.txt")),
            ((ieee14_path, nine_node_path), ("ieee14.txt", "nine_node.txt")),
        ):
            res = runner.invoke(main, ["pipeline", *map(str, paths), "--csv"])
            assert res.exit_code == 0, res.output
            rows = res.output.strip().splitlines()[1:]
            assert tuple(row.split(",")[0] for row in rows) == names


    def test_reattack_oracle_mismatch_exit_code(self, runner, nine_node_path,
                                                monkeypatch, nine_node):
        real = bench.worst_cut_oracle
        attacked = nine_node.to_graph()

        def links_ignored(g, budget, attackable):
            # right on the attacked graph; on the rebuilt one, where no cut
            # is affordable, it answers the attacked graph's cut {5}
            return real(attacked, budget, attackable)

        monkeypatch.setattr(bench, "worst_cut_oracle", links_ignored)
        res = runner.invoke(main, ["pipeline", str(nine_node_path), "--csv"])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["pipeline", str(nine_node_path), "--csv",
                                   "--oracle-check"])
        assert res.exit_code == 5
        assert "attack solver disagrees with the oracle" in res.output


class TestSweepCommand:
    def test_paper_grid(self, runner, nine_node_path):
        res = runner.invoke(main, ["sweep", str(nine_node_path),
                                   "--grid", "0.5,1.5,unlimited"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0] == "budget,links_added,resilience,robustness"
        res_col = [line.split(",")[2] for line in lines[1:]]
        assert res_col == ["-1", "1", "8"]

    def test_no_reattack_cut_reads_zero(self, runner, nine_node_path):
        # from budget 6 the plan's four links leave the re-attack no
        # budget-feasible cut: sweep's robustness reads 0, while pipeline
        # leaves x_dyn_size and res_dynamic empty
        res = runner.invoke(main, ["sweep", str(nine_node_path),
                                   "--grid", "4.5,6,unlimited"])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[1:] == [
            "4.500000,3,6,1", "6.000000,4,8,0", "unlimited,4,8,0"]
        res = runner.invoke(main, ["pipeline", str(nine_node_path), "--csv"])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[1] == "nine_node.txt,9,9,5.300000,10,1,-1,8,,"

    def test_bad_grid(self, runner, nine_node_path):
        res = runner.invoke(main, ["sweep", str(nine_node_path),
                                   "--grid", "banana"])
        assert res.exit_code == 3

    def test_infeasible_exit_code(self, runner, tmp_path):
        # removing either end of a path leaves one component
        path = tmp_path / "p4.txt"
        path.write_text(
            "FORMAT rupturekit-instance 1\nNODES 4\nEDGES 3\n"
            "1 2\n2 3\n3 4\nBUDGETS\nattack 2.000000\n"
            "ATTACK\ndistributed 1 4\nEND\n"
        )
        for command in (["attack"], ["pipeline"], ["sweep", "--grid", "0"]):
            res = runner.invoke(main, [command[0], str(path), *command[1:]])
            assert res.exit_code == 2, (command, res.output)


class TestExportCommand:
    def test_byte_identical_runs(self, runner, nine_node_path):
        args = ["export-mip", str(nine_node_path), "--formulation", "reduced",
                "--cut-x", "5"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == 0, a.output
        assert a.output == b.output

    def test_missing_cut_is_input_error(self, runner, nine_node_path):
        res = runner.invoke(main, ["export-mip", str(nine_node_path),
                                   "--formulation", "response"])
        assert res.exit_code == 3

    @pytest.mark.parametrize("formulation", ["response", "reduced"])
    def test_duplicate_cut_nodes_same_text(self, runner, nine_node_path,
                                           formulation):
        args = ["export-mip", str(nine_node_path), "--formulation", formulation]
        once = runner.invoke(main, [*args, "--cut-x", "5"])
        twice = runner.invoke(main, [*args, "--cut-x", "5,5"])
        assert once.exit_code == 0, once.output
        assert twice.output == once.output

    def test_no_surviving_node_is_input_error(self, runner, nine_node_path):
        res = runner.invoke(main, ["export-mip", str(nine_node_path),
                                   "--formulation", "response",
                                   "--cut-x", "1,2,3,4,5,6,7,8,9"])
        assert res.exit_code == 3
        assert "surviving node" in res.output

    @pytest.mark.parametrize("flags", [
        ["--formulation", "attack", "--cut-x", "5"],
        ["--formulation", "attack", "--power-constraint"],
        ["--formulation", "response", "--cut-x", "5", "--power-constraint"],
    ])
    def test_ignored_option_is_input_error(self, runner, nine_node_path, flags):
        res = runner.invoke(main, ["export-mip", str(nine_node_path), *flags])
        assert res.exit_code == 3

    def test_bridge_term_guard_exit_code(self, runner, tmp_path):
        # two 300-node components: under the row cap, over the term cap
        inst = InstanceFile(601, tuple((v, v + 1) for v in range(1, 601)),
                            (1.0,) * 601, {})
        path = tmp_path / "p601.txt"
        path.write_text(emit_instance(inst))
        res = runner.invoke(main, ["export-mip", str(path), "--formulation",
                                   "response", "--cut-x", "301"])
        assert res.exit_code == 4
        assert "r7i terms" in res.output

    def test_reduced_power_constraint_accepted(self, runner, ieee14_path):
        res = runner.invoke(main, ["export-mip", str(ieee14_path),
                                   "--formulation", "reduced",
                                   "--cut-x", "2,4,6,9", "--power-constraint"])
        assert res.exit_code == 0, res.output
        assert " r21_4_5: " in res.output

    @pytest.mark.parametrize("formulation,cut", [
        ("attack", None), ("response", [5]), ("reduced", [5]),
    ])
    def test_stdout_is_the_export_text(self, runner, nine_node_path, nine_node,
                                       formulation, cut):
        # no added newline, no stripping
        args = ["export-mip", str(nine_node_path), "--formulation", formulation]
        if cut:
            args += ["--cut-x", ",".join(map(str, cut))]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert res.stdout == export_mip(nine_node, formulation, cut)


NON_FINITE_INSTANCE = [  # (line in nine_node.txt, its replacement)
    ("5 1.000000", "5 nan"),              # an attack cost
    ("8 9 1.000000", "8 9 nan"),          # a link cost
    ("attack 1.000000", "attack nan"),
    ("attack 1.000000", "attack inf"),
    ("response unlimited", "response nan"),
]
COMMANDS = [["attack"], ["respond", "--cut-x", "5"], ["pipeline"],
            ["sweep", "--grid", "1"], ["export-mip"]]


class TestNonFiniteNumbers:
    """float() takes 'nan' and 'inf'; every command refuses them with exit 3
    and never prints NaN."""

    @pytest.mark.parametrize("line,bad", NON_FINITE_INSTANCE,
                             ids=[bad for _, bad in NON_FINITE_INSTANCE])
    def test_instance_file(self, runner, nine_node_path, tmp_path, line, bad):
        text = nine_node_path.read_text()
        assert f"\n{line}\n" in text
        path = tmp_path / "bad.txt"
        path.write_text(text.replace(f"\n{line}\n", f"\n{bad}\n"))
        for command in COMMANDS:
            res = runner.invoke(main, [command[0], str(path), *command[1:]])
            assert res.exit_code == 3, (command, res.output)
            assert "error: line " in res.output
            assert "NaN" not in res.output

    @pytest.mark.parametrize("args", [
        ["attack", "{path}", "--budget-attack", "nan"],
        ["attack", "{path}", "--budget-attack", "inf"],
        ["respond", "{path}", "--cut-x", "5", "--budget-response", "nan"],
        ["respond", "{path}", "--cut-x", "5", "--budget-response", "inf"],
        ["sweep", "{path}", "--grid", "nan,1"],
        ["sweep", "{path}", "--grid", "1,inf"],
        ["gen", "--budget-attack", "nan", "--out-dir", "{tmp}"],
        ["gen", "--budget-response", "nan", "--out-dir", "{tmp}"],
        ["cuts", "--coeffs", "4 nan 3", "--capacity", "6"],
        ["cuts", "--coeffs", "4 3 3", "--capacity", "nan"],
    ], ids=lambda args: " ".join(a for a in args if "{" not in a))
    def test_option(self, runner, nine_node_path, tmp_path, args):
        argv = [a.format(path=nine_node_path, tmp=tmp_path) for a in args]
        res = runner.invoke(main, argv)
        assert res.exit_code == 3, res.output
        assert "NaN" not in res.output
        assert list(tmp_path.iterdir()) == []  # gen wrote no instance


class TestCutsCommand:
    def test_fixture_knapsack(self, runner):
        res = runner.invoke(main, ["cuts", "--coeffs", "4 3 3 6",
                                   "--capacity", "6"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        coeffs = [tuple(c["coeffs"]) for c in doc["cuts"]]
        assert (1, 1, 0, 1) in coeffs

    def test_verify_cap(self, runner):
        # 24 coefficients are verified, 25 are refused by the size guard
        at_cap = runner.invoke(main, ["cuts", "--coeffs", "1 " * 24,
                                      "--capacity", "11.5"])
        assert at_cap.exit_code == 0, at_cap.output
        assert json.loads(at_cap.output)["cuts"]
        res = runner.invoke(main, ["cuts", "--coeffs", "1 " * 25,
                                   "--capacity", "11.5"])
        assert res.exit_code == 4
        assert "verify_cut limited to 24 variables, got 25" in res.output


class TestRuptureCommand:
    def test_score(self, runner, nine_node_path):
        res = runner.invoke(main, ["rupture", str(nine_node_path),
                                   "--cut-x", "5"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["rupture"] == 1
        assert doc["component_count"] == 5

    def test_duplicate_nodes_print_the_scored_cut(self, runner, nine_node_path):
        once = runner.invoke(main, ["rupture", str(nine_node_path),
                                    "--cut-x", "5"])
        twice = runner.invoke(main, ["rupture", str(nine_node_path),
                                     "--cut-x", "5 5"])
        assert twice.exit_code == 0, twice.output
        assert json.loads(twice.output)["cut"] == [5]
        assert twice.output == once.output


class TestGenCommand:
    def test_writes_instances(self, runner, tmp_path):
        res = runner.invoke(main, ["gen", "--seed", "4", "--count", "2",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        files = sorted(tmp_path.glob("instance_4_*.txt"))
        assert len(files) == 2
        from rupturekit.model_io import parse_instance

        for f in files:
            parse_instance(f.read_text())


README = Path(__file__).resolve().parents[1] / "README.md"
ERROR_KINDS = RupturekitError.__subclasses__()
SUBCOMMANDS = ["gen", "attack", "respond", "pipeline", "sweep", "export-mip",
               "cuts", "rupture"]


class TestExitCodes:
    """One handler on the click group maps every error to its exit code."""

    def test_error_kinds_match_the_docs(self):
        text = README.read_text()
        paragraph = text[text.index("Exit codes:"):].split("\n\n", 1)[0]
        documented = {name: int(code) for code, name in
                      re.findall(r"`(\d)` [^`]*\(`(\w+Error)`\)", paragraph)}
        assert documented == {kind.__name__: kind.exit_code
                              for kind in ERROR_KINDS}
        assert len({kind.exit_code for kind in ERROR_KINDS}) == len(ERROR_KINDS)
        for kind in ERROR_KINDS:
            assert f"(exit code {kind.exit_code})" in kind.__doc__

    @pytest.mark.parametrize("kind", [*ERROR_KINDS, InstanceFormatError],
                             ids=lambda kind: kind.__name__)
    def test_error_kind_exit_code(self, runner, nine_node_path, monkeypatch,
                                  kind):
        def fail(text):
            raise kind(7, "boom") if kind is InstanceFormatError else kind("boom")

        monkeypatch.setattr(model_io, "parse_instance", fail)
        res = runner.invoke(main, ["attack", str(nine_node_path)])
        assert res.exit_code == kind.exit_code, res.output
        assert "error: " in res.output and "boom" in res.output

    def test_unexpected_exception_is_a_bug(self, runner, nine_node_path,
                                           monkeypatch):
        def fail(text):
            raise KeyError("boom")

        monkeypatch.setattr(model_io, "parse_instance", fail)
        res = runner.invoke(main, ["attack", str(nine_node_path)])
        assert res.exit_code == 1
        assert isinstance(res.exception, KeyError)

    @pytest.mark.parametrize("content", [None, b"\xff\xfe not text"],
                             ids=["directory", "not-utf8"])
    def test_unreadable_file(self, runner, tmp_path, content):
        path = tmp_path / "instance.txt"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        res = runner.invoke(main, ["attack", str(path)])
        assert res.exit_code == 3, res.output
        assert "error: " in res.output

    @pytest.mark.parametrize("args", [
        ["respond", "{path}"],
        ["rupture", "{path}"],
        ["export-mip", "{path}", "--formulation", "bogus"],
        ["gen", "--count", "x"],
        ["attack", "{path}", "--bogus"],
        ["--bogus"],
        ["nosuch"],
    ], ids=["missing-cut-x", "rupture-missing-cut-x", "formulation-choice",
            "count-not-integer", "unknown-option", "unknown-group-option",
            "unknown-command"])
    def test_usage_error_exit_code(self, runner, nine_node_path, args):
        res = runner.invoke(main, [a.format(path=nine_node_path) for a in args])
        assert res.exit_code == 3, res.output
        assert "Usage: " in res.output  # click's usage text is kept

    @pytest.mark.parametrize("command", [[], *([c] for c in SUBCOMMANDS)],
                             ids=["main", *SUBCOMMANDS])
    def test_help_exits_zero(self, runner, command):
        res = runner.invoke(main, [*command, "--help"])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("Usage: ")
