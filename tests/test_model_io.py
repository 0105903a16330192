import dataclasses
import hashlib
import json
import math
import random
from itertools import combinations

import pytest

from rupturekit import bench
from rupturekit.attack import AttackModel, scored_cut, solve_attack
from rupturekit.errors import InputError, SizeLimitError
from rupturekit.graph import Graph, components
from rupturekit.model_io import (
    EXPORT_MAX_BRIDGE_TERMS,
    EXPORT_MAX_ROWS,
    InstanceFile,
    InstanceFormatError,
    emit_instance,
    export_mip,
    export_row_count,
    parse_instance,
    response_bridge_terms,
    result_to_json,
)
from rupturekit.response import (
    classify_components,
    mceic_matrix,
    rebuilt_model,
    solve_response,
)

MINIMAL = """\
FORMAT rupturekit-instance 1
NODES 2
EDGES 1
1 2
ATTACK_COSTS
1 1.000000
2 1.000000
ATTACK
targeted
END
"""


class TestParse:
    def test_minimal(self):
        inst = parse_instance(MINIMAL)
        assert inst.n == 2
        assert inst.edges == ((1, 2),)
        assert inst.attack_cost == (1.0, 1.0)

    def test_comments_and_blank_lines_ignored(self):
        text = MINIMAL.replace("EDGES 1", "# a comment\n\nEDGES 1")
        assert parse_instance(text) == parse_instance(MINIMAL)

    def test_bad_version(self):
        with pytest.raises(InstanceFormatError):
            parse_instance(MINIMAL.replace("instance 1", "instance 9"))

    def test_out_of_range_node_reports_line(self):
        bad = MINIMAL.replace("1 2\nATTACK_COSTS", "1 7\nATTACK_COSTS")
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(bad)
        assert exc.value.line == 4

    def test_unknown_attack_type(self):
        with pytest.raises(InstanceFormatError):
            parse_instance(MINIMAL.replace("targeted", "sideways"))

    def test_asymmetric_link_cost_rejected(self):
        text = MINIMAL.replace(
            "ATTACK\n", "LINK_COSTS\n1 2 1.000000\n2 1 2.000000\nATTACK\n")
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    def test_designated_needs_nodes(self):
        with pytest.raises(InstanceFormatError):
            parse_instance(MINIMAL.replace("targeted", "designated"))

    def test_unlimited_response_budget(self):
        text = MINIMAL.replace(
            "ATTACK\n", "BUDGETS\nattack 1.000000\nresponse unlimited\nATTACK\n")
        inst = parse_instance(text)
        assert math.isinf(inst.budget_response)
        assert inst.budget_attack == 1.0

    def test_unlimited_attack_budget_rejected(self):
        text = MINIMAL.replace("ATTACK\n", "BUDGETS\nattack unlimited\nATTACK\n")
        with pytest.raises(InstanceFormatError):
            parse_instance(text)

    # float() takes these; 'unlimited' is the only infinite response budget
    @pytest.mark.parametrize("old,new", [
        ("2 1.000000\nATTACK\n", "2 nan\nATTACK\n"),
        ("2 1.000000\nATTACK\n", "2 inf\nATTACK\n"),
        ("ATTACK\n", "LINK_COSTS\n1 2 nan\nATTACK\n"),
        ("ATTACK\n", "LINK_COSTS\n1 2 inf\nATTACK\n"),
        ("ATTACK\n", "BUDGETS\nattack nan\nATTACK\n"),
        ("ATTACK\n", "BUDGETS\nattack inf\nATTACK\n"),
        ("ATTACK\n", "BUDGETS\nresponse nan\nATTACK\n"),
        ("ATTACK\n", "BUDGETS\nresponse inf\nATTACK\n"),
    ], ids=["attack-cost-nan", "attack-cost-inf", "link-cost-nan",
            "link-cost-inf", "attack-budget-nan", "attack-budget-inf",
            "response-budget-nan", "response-budget-inf"])
    def test_non_finite_number_rejected(self, old, new):
        text = MINIMAL.replace(old, new, 1)
        bad_line = new.split("\n")[-3]
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert exc.value.line == text.splitlines().index(bad_line) + 1


    # headers are exact, and every row is checked for its section's width
    @pytest.mark.parametrize("old,new,line,message", [
        ("ATTACK\n", "ATTACK_TYPE\n", 8, "unknown section 'ATTACK_TYPE'"),
        ("NODES 2\n", "NODES 2 extra\n", 2, "expected 'NODES <count>'"),
        ("EDGES 1\n", "EDGES\n", 3, "expected 'EDGES <count>'"),
        ("2 1.000000\n", "2 1.000000 3\n", 7, "ATTACK_COSTS row needs 2 fields, got 3"),
        ("2 1.000000\n", "x 1.000000\n", 7, "bad node 'x'"),
        ("ATTACK\n", "LINK_COSTS\n1 2\nATTACK\n", 9, "LINK_COSTS row needs 3 fields, got 2"),
        ("ATTACK\n", "BUDGETS\nattack\nATTACK\n", 9, "BUDGETS row needs 2 fields, got 1"),
        ("ATTACK\n", "BUDGETS\ndefence 1\nATTACK\n", 9, "unknown budget 'defence'"),
        ("ATTACK\n", "ATTACK_COSTS\nATTACK\n", 8, "repeated section ATTACK_COSTS"),
        ("1 2\nATTACK_COSTS", "1 2\n1 2\nATTACK_COSTS", 3, "EDGES declares 1 edges, found 2"),
        ("targeted\n", "targeted\ntargeted\n", 8, "ATTACK takes one row"),
        ("targeted\n", "", 8, "ATTACK takes one row"),
        ("END\n", "", 9, "unexpected end of file"),
    ], ids=["attack-type-header", "nodes-extra-value", "edges-no-count",
            "attack-costs-width", "bad-node", "link-costs-width", "budgets-width",
            "unknown-budget", "repeated-section", "edge-count", "two-attack-rows",
            "no-attack-row", "no-end"])
    def test_malformed_line_rejected(self, old, new, line, message):
        text = MINIMAL.replace(old, new, 1)
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


# several rows in each bulk section, which is read column by column
FOUR = """\
FORMAT rupturekit-instance 1
NODES 4
EDGES 3
1 2
2 3
3 4
ATTACK_COSTS
1 1.000000
2 2.000000
3 1.500000
4 1.000000
LINK_COSTS
1 3 2.000000
1 4 3.000000
2 4 2.500000
ATTACK
targeted
END
"""


def parse_error(text):
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    return exc.value.line, str(exc.value)


class TestBulkSections:
    def test_four(self):
        inst = parse_instance(FOUR)
        assert inst.edges == ((1, 2), (2, 3), (3, 4))
        assert inst.attack_cost == (1.0, 2.0, 1.5, 1.0)
        assert inst.link_cost == {(1, 3): 2.0, (1, 4): 3.0, (2, 4): 2.5}

    # a bad token or value names its own row, wherever it sits in the section
    @pytest.mark.parametrize("old,new,line,message", [
        ("2 3\n", "2 x\n", 5, "bad node 'x'"),
        ("3 4\n", "3 9\n", 6, "node 9 out of range 1..4"),
        ("2 3\n", "3 3\n", 5, "self-loop at node 3"),
        ("3 1.500000", "3 1.5e", 10, "bad attack cost '1.5e'"),
        ("2 2.000000", "2 -2", 9, "attack cost must be nonnegative"),
        ("3 1.500000", "0 1.500000", 10, "node 0 out of range 1..4"),
        ("1 4 3.000000", "1 4 x", 14, "bad link cost 'x'"),
        ("1 4 3.000000", "1 4 nan", 14, "bad link cost 'nan'"),
        ("1 4 3.000000", "4 4 3.000000", 14,
         "link cost pair must be distinct nodes"),
        ("2 4 2.500000", "2 4 2.5 1", 15, "LINK_COSTS row needs 3 fields, got 4"),
    ], ids=["edge-token", "edge-range", "edge-loop", "attack-cost-token",
            "attack-cost-negative", "attack-cost-node", "link-cost-token",
            "link-cost-nan", "link-cost-pair", "link-cost-width"])
    def test_bad_row(self, old, new, line, message):
        text = FOUR.replace(old, new, 1)
        assert parse_error(text) == (line, f"line {line}: {message}")

    def test_first_error_in_file_order(self):
        # a bad row before a bad header: the row is reported
        text = FOUR.replace("2 3\n", "2 x\n").replace("ATTACK\n", "ATTACKS\n")
        assert parse_error(text) == (5, "line 5: bad node 'x'")
        # a bad header before a bad row: the header is reported
        text = FOUR.replace("LINK_COSTS", "LINK_COST").replace("2 4 2.5", "2 x 2.5")
        assert parse_error(text) == (12, "line 12: unknown section 'LINK_COST'")

    def test_comment_in_link_cost_row(self):
        text = FOUR.replace("1 4 3.000000", "1 4 3.000000  # a dear one")
        assert parse_instance(text) == parse_instance(FOUR)
        text = FOUR.replace("1 4 3.000000", "1 4 # 3.000000")
        assert parse_error(text) == (
            14, "line 14: LINK_COSTS row needs 3 fields, got 2")

    @pytest.mark.parametrize("repeat", ["1 4 3.000000", "4 1 3.0"])
    def test_repeated_pair_with_equal_cost(self, repeat):
        text = FOUR.replace("2 4 2.500000", f"{repeat}\n2 4 2.500000")
        assert parse_instance(text) == parse_instance(FOUR)

    @pytest.mark.parametrize("repeat", ["1 4 3.5", "4 1 3.5"])
    def test_repeated_pair_with_asymmetric_cost(self, repeat):
        text = FOUR.replace("2 4 2.500000", f"{repeat}\n2 4 2.500000")
        assert parse_error(text) == (
            15, "line 15: asymmetric link cost for pair 1-4")

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_read_what_columns_read(self, seed):
        # reversed pairs and zero-padded nodes are valid rows that only the
        # row readers take, so this text is read row by row
        config = bench.BenchConfig(seed=seed, count=1, n_min=9, n_max=12)
        text = emit_instance(bench.gen_random(config)[0])
        lines = text.splitlines()
        section = None
        for k, line in enumerate(lines):
            fields = line.split()
            if fields[0][0].isupper():
                section = fields[0]
            elif section in ("EDGES", "LINK_COSTS"):
                lines[k] = " ".join([fields[1], fields[0], *fields[2:]])
            elif section == "ATTACK_COSTS":
                lines[k] = f"0{fields[0]} {fields[1]}"
        assert parse_instance("\n".join(lines)) == parse_instance(text)


def relayout(text, row):
    """`text` with each row of a bulk section rewritten by row(section,
    fields), which returns the row's new lines."""
    out, section = [], None
    for line in text.splitlines():
        fields = line.split()
        if fields[0][0].isupper():
            section = fields[0]
            out.append(line)
        elif section in ("EDGES", "ATTACK_COSTS", "LINK_COSTS"):
            out += row(section, fields)
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def reversed_pair(section, fields):
    if section == "ATTACK_COSTS":
        return [" ".join(fields)]
    return [" ".join([fields[1], fields[0], *fields[2:]])]


def zero_padded(section, fields):
    nodes = 1 if section == "ATTACK_COSTS" else 2
    return [" ".join([f"0{v}" for v in fields[:nodes]] + fields[nodes:])]


def repeated_link_cost(section, fields):
    if section != "LINK_COSTS":
        return [" ".join(fields)]
    return [" ".join(fields)] + reversed_pair(section, fields)


def repeated_edges(text):
    """Each edge row twice, under an EDGES count that counts the rows."""
    m = int(text.splitlines()[2].split()[1])
    return relayout(text, lambda sec, f: [" ".join(f)] * (
        2 if sec == "EDGES" else 1)).replace(f"EDGES {m}\n", f"EDGES {2 * m}\n")


def defaults_left_out(text):
    """Without the rows that only restate a default: attack cost 1.0 and
    class load."""
    out, section = [], None
    for line in text.splitlines():
        fields = line.split()
        if fields[0][0].isupper():
            section = fields[0]
        if (section, fields[1:]) not in (("ATTACK_COSTS", ["1.000000"]),
                                         ("CLASSES", ["load"])):
            out.append(line)
    return "\n".join(out) + "\n"


def commented(text):
    return "\n".join(
        f"# before {line}\n{line}" if line[0].isupper() else f"{line}  # row"
        for line in text.splitlines()) + "\n"


# layouts the parser reads like canonical text, many through its row readers
LAYOUTS = {
    "extra-spaces": lambda t: t.replace(" ", "   ").replace("\n", "  \n"),
    "leading-spaces": lambda t: t.replace("\n", "\n  "),
    "tabs": lambda t: t.replace(" ", "\t"),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "blank-lines": lambda t: t.replace("\n", "\n\n"),
    "blank-before-headers": lambda t: relayout(
        t, lambda sec, f: [" ".join(f)]).replace("\nATTACK", "\n\nATTACK"),
    "comments": commented,
    "reversed-pairs": lambda t: relayout(t, reversed_pair),
    "zero-padded": lambda t: relayout(t, zero_padded),
    "repeated-link-costs": lambda t: relayout(t, repeated_link_cost),
    "repeated-edges": repeated_edges,
    "defaults-left-out": defaults_left_out,
    "after-end": lambda t: t + "anything\nEDGES x\n",
}


def graph_fields(g):
    return {name: getattr(g, name)
            for name in ("n", "edges", "edge_set", "attack_cost", "link_cost",
                         "node_class", "_adj", "_full_mask")}


def checked_graph(inst):
    """The instance's graph through Graph(...) and all of its checks."""
    return Graph(inst.n, inst.edges, inst.attack_cost, inst.link_cost,
                 inst.node_class)


def layout_instances():
    return [emit_instance(inst) for seed in range(3) for inst in
            bench.gen_random(bench.BenchConfig(seed=seed, n_min=8, n_max=12))]


class TestLayouts:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_same_instance_as_canonical(self, layout, nine_node_path,
                                        ieee14_path):
        texts = layout_instances() + [nine_node_path.read_text(),
                                      ieee14_path.read_text()]
        for text in texts:
            want = parse_instance(text)
            got = parse_instance(LAYOUTS[layout](text))
            assert got == want
            assert graph_fields(got.to_graph()) == graph_fields(want.to_graph())

    @pytest.mark.parametrize("link_section", ["", "LINK_COSTS\n", "LINK_COSTS\n\n"])
    def test_empty_sections(self, link_section):
        # one node: no edges, and no link costs even under a LINK_COSTS header
        want = parse_instance(emit_instance(
            InstanceFile(1, (), (2.0,), {}, budget_attack=1.0)))
        text = ("FORMAT rupturekit-instance 1\nNODES 1\nEDGES 0\n"
                f"{link_section}ATTACK_COSTS\n1 2.0\nBUDGETS\nattack 1\n"
                "ATTACK\ntargeted\nEND\n")
        got = parse_instance(text)
        assert got == want
        assert graph_fields(got.to_graph()) == graph_fields(checked_graph(want))


class TestOneCheck:
    """A parsed or rebuilt graph skips Graph's checks; it must still be
    the graph they give."""

    @pytest.mark.parametrize("n", range(1, 61))
    def test_parsed_and_rebuilt_graphs(self, n):
        inst = bench.gen_random(bench.BenchConfig(seed=n, n_min=n, n_max=n))[0]
        parsed = parse_instance(emit_instance(inst))
        self.check(parsed)
        assert graph_fields(parsed.to_graph()) == graph_fields(inst.to_graph())

    def test_fixtures(self, nine_node, ieee14):
        # cuts whose cross-component pairs all have link costs
        self.check(nine_node, [5])
        self.check(ieee14, [2, 4, 6, 9])

    def check(self, inst, cut=None):
        g = inst.to_graph()
        assert graph_fields(g) == graph_fields(checked_graph(inst))
        assert all(type(c) is float for c in g.attack_cost)
        assert all(type(d) is float for d in g.link_cost.values())
        if cut is None:
            # the least-degree node's neighbours cut it off
            v = min(g.nodes, key=lambda u: (g.degree(u), u))
            cut = g.neighbors(v) if g.n > 1 else []
        cut = scored_cut(g, cut)
        plan = solve_response(bench.response_model(g, cut, None))
        model = AttackModel(g, 1.0)
        rebuilt = rebuilt_model(g, plan, model)
        assert graph_fields(rebuilt.graph) == graph_fields(
            Graph(g.n, g.edges + plan.links, g.attack_cost))
        assert (rebuilt.budget, rebuilt.attackable) == (
            model.budget, model.attackable)

    def test_graph_kept_out_of_eq_and_repr(self, nine_node):
        made = dataclasses.replace(nine_node)
        assert made == nine_node and repr(made) == repr(nine_node)
        assert made.to_graph() is not nine_node.to_graph()
        assert nine_node.to_graph() is nine_node.to_graph()
        # a changed copy gets a graph of its own fields
        costs = (3.0,) * nine_node.n
        assert dataclasses.replace(
            nine_node, attack_cost=costs).to_graph().attack_cost == costs

    def test_direct_instance_is_checked(self):
        with pytest.raises(InputError, match="self-loop at node 2"):
            InstanceFile(3, ((2, 2),), (1.0,) * 3, {}).to_graph()
        with pytest.raises(InputError, match=r"link cost pair \(1,4\) invalid"):
            InstanceFile(3, ((1, 2),), (1.0,) * 3, {(1, 4): 1.0}).to_graph()


class TestInstanceFile:
    @pytest.mark.parametrize("field,bad", [
        ("budget_attack", math.nan), ("budget_attack", math.inf),
        ("budget_attack", -1.0), ("budget_response", math.nan),
        ("budget_response", -1.0),
    ])
    def test_budget_rejected(self, field, bad):
        with pytest.raises(InputError):
            InstanceFile(2, ((1, 2),), (1.0, 1.0), {}, **{field: bad})

    def test_unlimited_response_budget_accepted(self):
        inst = InstanceFile(2, ((1, 2),), (1.0, 1.0), {}, budget_response=math.inf)
        assert math.isinf(inst.budget_response)


class TestEmit:
    def test_minimal_roundtrip_byte_identical(self):
        inst = parse_instance(MINIMAL)
        assert emit_instance(inst) == MINIMAL

    def test_roundtrip_identity(self, nine_node):
        assert parse_instance(emit_instance(nine_node)) == nine_node

    def test_emit_idempotent(self, ieee14):
        once = emit_instance(ieee14)
        assert emit_instance(parse_instance(once)) == once


class TestResultJson:
    def test_schema_and_shape(self, nine_node):
        res = solve_attack(AttackModel(nine_node.to_graph(), 1.0))
        doc = json.loads(result_to_json("nine", attack=res))
        assert doc["schema"] == "rupturekit-result/1"
        assert doc["attack"]["cut"] == [5]
        assert doc["attack"]["resilience"] == -1
        assert doc["cut_audit"] == []

    def test_notes_preserved(self):
        doc = json.loads(result_to_json("x", notes=["deviation: y"]))
        assert doc["notes"] == ["deviation: y"]

    def test_nan_is_refused(self):
        with pytest.raises(ValueError):
            result_to_json("x", notes=[math.nan])


class TestExportMip:
    def test_attack_export_deterministic(self, nine_node):
        a = export_mip(nine_node, "attack")
        b = export_mip(nine_node, "attack")
        assert a == b
        assert a.startswith("\\ rupturekit mip export v1")
        assert "Maximize" in a
        assert " r4f: " in a

    def test_attack_export_distributed_rows(self, nine_node):
        text = export_mip(_distributed_nine(nine_node), "attack")
        assert " r20b_2: " in text  # intact node pinned active
        assert " r4b_1: " in text

    def test_response_export_needs_cut(self, nine_node):
        with pytest.raises(InputError):
            export_mip(nine_node, "response")

    def test_response_export_rows(self, nine_node):
        text = export_mip(nine_node, "response", cut=[5])
        assert "Minimize" in text
        assert " r7b_lo_1: " in text
        assert " r7f: " in text
        assert " r7c: " in text

    def test_reduced_export_rows(self, nine_node):
        text = export_mip(nine_node, "reduced", cut=[5])
        assert " r19b: " in text
        assert " r19d: " in text
        assert "xhat_10" in text

    def test_reduced_power_rows(self, ieee14):
        text = export_mip(ieee14, "reduced", cut=[2, 4, 6, 9], power=True)
        # load-only components 4 and 5 get a power-routing row
        assert " r21_4_5: " in text

    def test_unknown_formulation(self, nine_node):
        with pytest.raises(InputError):
            export_mip(nine_node, "dual")

    def test_size_guard(self):
        big = InstanceFile(201, ((1, 2),), (1.0,) * 201, {})
        with pytest.raises(SizeLimitError):
            export_mip(big, "attack")

    def test_size_guard_counts_attack_rows(self):
        assert export_row_count("attack", 60) == 216_181
        assert export_row_count("attack", 125) <= EXPORT_MAX_ROWS
        assert export_row_count("attack", 126) > EXPORT_MAX_ROWS

    def test_size_guard_counts_response_bridge_terms(self):
        # P601 minus node 301: two 300-node components pass the row guard,
        # but each r7i row holds a 90,000-link bridge
        inst = InstanceFile(601, tuple((v, v + 1) for v in range(1, 601)),
                            (1.0,) * 601, {})
        part = components(inst.to_graph(), [301])
        assert export_row_count("response", 601, part) == 1_080_008
        assert response_bridge_terms(part) == 2 * 90_000 * 90_001
        assert response_bridge_terms(part) > EXPORT_MAX_BRIDGE_TERMS
        with pytest.raises(SizeLimitError):
            export_mip(inst, "response", cut=[301])


def _random_weighted():
    """n=12 with attack costs from {0, 0.5, 1, 2, 3.25} (zero costs drop
    terms from r4f) and finite attack and response budgets."""
    inst = bench.gen_random(bench.BenchConfig(
        seed=5, n_min=12, n_max=12, budget_attack=2.5, budget_response=6.0))[0]
    costs = tuple((0.0, 0.5, 1.0, 2.0, 3.25)[k % 5] for k in range(inst.n))
    return dataclasses.replace(inst, attack_cost=costs)


def _distributed_nine(nine_node):
    return dataclasses.replace(nine_node, attack_type="distributed",
                               attack_nodes=(1, 5))


_RANDOM30 = bench.gen_random(bench.BenchConfig(
    seed=3, n_min=30, n_max=30, edge_count=60))[0]

# attack exports whose renderer takes a special case: at n = 1 r4e's only
# coefficient is 0 and the row prints as 0, at n = 2 it is 1 and prints bare,
# n = 10 is the first size whose node labels reach two digits, n = 30 has
# both kinds of node pair at a benchmark size, and its distributed variant
# keeps every third node intact, so r20b rows hold one- and two-digit nodes
_ATTACK_CASES = {
    "one_node": InstanceFile(1, (), (2.0,), {}, budget_attack=1.0),
    "two_node": InstanceFile(2, ((1, 2),), (1.0, 1.0), {}, budget_attack=1.0),
    "random10": bench.gen_random(bench.BenchConfig(
        seed=1, n_min=10, n_max=10))[0],
    "random30": _RANDOM30,
    "distributed30": dataclasses.replace(
        _RANDOM30, attack_type="distributed",
        attack_nodes=tuple(v for v in range(1, 31) if v % 3)),
}


# SHA-256 of the exported text, pinned so a rewrite of the renderer must
# keep every byte.  The random cut leaves four components.
EXPORT_DIGESTS = [
    ("nine_node", "attack", None, False,
     "d241701a0992636348cf86a0a3102873d379f9ab58d6b14ddd76f446dd5813a6"),
    ("nine_node", "response", [5], False,
     "cb3183c8449030f55e924e85da8caee61733a009666e80f13148116b01601c0f"),
    ("nine_node", "reduced", [5], False,
     "205e8c895f9aa30005fc6d6c87a026a89f39d587f785bac6b72f775439b4258d"),
    ("ieee14", "reduced", [2, 4, 6, 9], True,
     "3a61721f5079ff8c71f1366afd32c9a74eeb8876bdd614f8500eae7be0f849b1"),
    ("distributed", "attack", None, False,
     "d4b99d0dc9e427cd5e21ed2af28e8b0e2ced969b69fb794d753f95eefc136edc"),
    ("random", "attack", None, False,
     "5fb34194f8f99cf6abfb9039258790eb5dc3fd0cf3c4872dff066160c48eb63a"),
    ("random", "response", [3, 4, 6, 11, 12], False,
     "e282a0f70626a9530e7202789a4dac54aef1b2ad56a1188c0d3f64bc952651a8"),
    ("random", "reduced", [3, 4, 6, 11, 12], False,
     "1c572b94e88c16a5e6d8bc0b2fa65816152ac8e4fa1f5b68942dde09d4b152ec"),
    ("one_node", "attack", None, False,
     "4d5d46cf38cc99a1fe7b041bc35c6c605da3f222e5f52647de9cd32a25c30350"),
    ("two_node", "attack", None, False,
     "d1e53bf8653eac04ba7117b9e8d074138cb842a81aaa49917ad13d3c22bcf03f"),
    ("no_budget", "attack", None, False,
     "9edf2f20fb5af56bba849b08f59902df279253ea5ad4eb5ff5d9cde043ee4591"),
    ("random30", "attack", None, False,
     "0150443b14f90514cfee42d1c07a5b3226fecddd68306b243e99d653e104cc22"),
    ("random10", "attack", None, False,
     "2b52689dbf4d0fe55974ae8854b340f6575bc57e71801e6d4cfe362e483d7031"),
    ("distributed30", "attack", None, False,
     "613ebc3429479e9d5ce140a2cfbfefe828aef7829b0b346639bddc59bfb90078"),
]


def _export_case(request, name):
    if name == "distributed":
        return _distributed_nine(request.getfixturevalue("nine_node"))
    if name == "no_budget":  # r4f's right-hand side falls back to 0.0
        return dataclasses.replace(request.getfixturevalue("nine_node"),
                                   budget_attack=None)
    if name == "random":
        return _random_weighted()
    if name in _ATTACK_CASES:
        return _ATTACK_CASES[name]
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name,which,cut,power,digest", EXPORT_DIGESTS)
def test_export_bytes_pinned(request, name, which, cut, power, digest):
    text = export_mip(_export_case(request, name), which, cut, power)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("name,which,cut,power,digest", EXPORT_DIGESTS)
def test_export_row_count_matches_text(request, name, which, cut, power, digest):
    inst = _export_case(request, name)
    lines = export_mip(inst, which, cut, power).splitlines()
    start = lines.index("Subject To") + 1
    end = next(k for k in range(start, len(lines)) if not lines[k].startswith(" "))
    part = components(inst.to_graph(), cut or ())
    loads = 0
    if power:
        loads = classify_components(inst.to_graph(), part).count("load-only")
    assert export_row_count(which, inst.n, part, loads) == end - start


def _hub_and_paths(s, seed):
    """Node 1 joined to s paths of 1-3 nodes, so removing it leaves s
    components, with link costs from a tied palette that includes 0."""
    rng = random.Random(seed)
    edges, start = [], 2
    for _ in range(s):
        length = rng.randint(1, 3)
        edges.append((1, start))
        edges += [(v, v + 1) for v in range(start, start + length - 1)]
        start += length
    edge_set = set(edges)
    link_cost = {p: rng.choice((0.0, 0.25, 1.0, 1.5, 3.0))
                 for p in combinations(range(1, start), 2) if p not in edge_set}
    return InstanceFile(start - 1, tuple(edges), (1.0,) * (start - 1),
                        link_cost, budget_response=2.0)


@pytest.mark.parametrize("s", range(2, 13))
def test_reduced_link_vector_names(s):
    # xhat_z is the z-th component pair in combinations order; the pinned
    # digests reach only s <= 5
    from lp_text import ROW, _terms

    inst = _hub_and_paths(s, seed=s)
    lines = export_mip(inst, "reduced", cut=[1]).splitlines()
    part = components(inst.to_graph(), [1])
    assert part.count == s
    cost = mceic_matrix(inst.to_graph(), part).cost
    pairs = list(combinations(range(1, s + 1), 2))
    xhat = [f"xhat_{z}" for z in range(1, len(pairs) + 1)]
    binaries = lines[lines.index("Binaries") + 1:lines.index("End")]
    assert [v.strip() for v in binaries if "xhat" in v] == xhat
    rows = {}
    for line in lines:
        match = ROW.match(line)
        if match:
            rows[match[1]] = _terms(match[2])[0]
    assert {v: rows["r19d"].get(v, 0.0) for v in xhat} == {
        v: cost[pair] for v, pair in zip(xhat, pairs)}
    for m in range(1, s + 1):
        terms = rows[f"r19c_lo_{m}"]
        assert {v: c for v, c in terms.items() if "xhat" in v} == {
            v: part.sizes[sum(pair) - m - 1]
            for v, pair in zip(xhat, pairs) if m in pair}


LP_TEXT = """\
\\ a hand-written model in the exporter's LP subset
Minimize
 obj: -x - 2.000000 y + 0.500000 z + 3.000000
Subject To
 c1: x + y + z <= 3.000000
 c2: -y + x = 0.000000
 c3: 2.000000 z >= 0.500000
Bounds
 z >= 0.250000
Binaries
 x
 y
Generals
 z
End
"""


class TestLpText:
    """The test-side LP reader that feeds exports to scipy's MIP solver."""

    def test_parse(self):
        from lp_text import parse_lp

        lp = parse_lp(LP_TEXT)
        assert lp["names"] == ["x", "y", "z"]
        assert lp["c"].tolist() == [-1.0, -2.0, 0.5]
        assert lp["constant"] == 3.0
        assert lp["A"].tolist() == [[1, 1, 1], [1, -1, 0], [0, 0, 2]]
        assert lp["lb"].tolist() == [-math.inf, 0.0, 0.5]
        assert lp["ub"].tolist() == [3.0, 0.0, math.inf]
        assert lp["bounds"][0].tolist() == [0.0, 0.0, 0.25]
        assert lp["bounds"][1].tolist() == [1.0, 1.0, math.inf]
        assert lp["integral"].tolist() == [1, 1, 1]

    def test_solve(self):
        pytest.importorskip("scipy")
        from lp_text import parse_lp, solve_lp

        objective, x = solve_lp(parse_lp(LP_TEXT))
        assert objective == pytest.approx(0.5)
        assert [round(x[v]) for v in "xyz"] == [1, 1, 1]
