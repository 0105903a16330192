"""Generate the answer corpus that tests/test_answer_corpus.py re-solves.

Each entry holds one seeded instance and the exact answers of the three
stages: the stage-one status, cut and rupture; the response's selected
component pairs, realized links, total cost and rupture; and the re-attack
on the rebuilt network.  Search counters are left out, since a faster
search may change them.  Instances reach n=30 and s=24 components, beyond
the brute-force oracles, with restricted attackable sets, zero, fractional
and large attack costs, tie-heavy link costs, and finite and unlimited
response budgets.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_answer_corpus.py

It prints the name of each entry whose answers differ from the committed
tests/data/answer_corpus.json, or that the file lacks, then rewrites it.
Regenerating the corpus is an answer change: say which entries moved and
why.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations
from pathlib import Path

from rupturekit.attack import AttackModel, solve_attack
from rupturekit.bench import LINK_COST_CHOICES, BenchConfig, gen_random
from rupturekit.errors import SizeLimitError
from rupturekit.graph import Graph
from rupturekit.response import (
    ResponseModel,
    dynamic_worst_cut,
    mceic_matrix,
    solve_response,
)

OUT = Path(__file__).with_name("answer_corpus.json")
SEED = 20261018

# attack cost palettes; "large" costs are scaled with the budget
COST_PALETTES = {
    "unit": None,
    "fractional": (0.1, 0.2, 0.3),
    "zeros": (0.0, 0.5, 1.0, 2.0),
    "large": (1e6, 2e6, 3.5e6),
}
# link cost palettes; None keeps gen_random's 1.0..3.0 draw
LINK_PALETTES = (None, None, (1.0, 2.0), (0.0, 1.0), (1.0, 1.1, 1.2))
RESPONSE_BUDGETS = (None, None, 0.0, 1.0, 2.5, 4.0, 7.3)
# (shape, n range, edge count as a function of n, removals afforded); a
# "spider" replaces gen_random's tree by a path of n // 5 hubs with every
# other node hung on a random hub, so cutting every hub leaves
# s = n - n // 5 components, 18 to 24
SHAPES = (
    ("tree", (12, 30), lambda n: n - 1, lambda n: n // 3),
    ("sparse", (8, 30), None, lambda n: 4),
    ("sparse", (8, 24), None, lambda n: n // 2),
    ("dense", (14, 30), lambda n: 3 * n, lambda n: 4),
    ("spider", (22, 30), lambda n: n - 1, lambda n: n // 4),
)
PER_SHAPE = 40


def instances():
    """The corpus inputs as dicts, in a fixed order."""
    rng = random.Random(SEED)
    out = []
    for shape, (n_min, n_max), edge_count, removals in SHAPES:
        for i in range(PER_SHAPE):
            n = rng.randint(n_min, n_max)
            config = BenchConfig(seed=rng.randrange(10**6), count=1,
                                 n_min=n, n_max=n,
                                 edge_count=edge_count and edge_count(n))
            inst = gen_random(config)[0]
            palette_name = sorted(COST_PALETTES)[i % len(COST_PALETTES)]
            palette = COST_PALETTES[palette_name]
            k = removals(n)
            if palette is None:
                costs = [1.0] * n
                budget = float(k)
            else:
                costs = [rng.choice(palette) for _ in range(n)]
                # k removals at the palette's median cost, summed as floats
                budget = 0.0
                for _ in range(k):
                    budget += palette[len(palette) // 2]
            attackable = None
            if i % 3 == 1:
                attackable = sorted(rng.sample(range(1, n + 1), 2 * n // 3))
            link_palette = LINK_PALETTES[i % len(LINK_PALETTES)]
            edges = set(inst.edges)
            if shape == "spider":
                hubs = n // 5
                edges = {(h, h + 1) for h in range(1, hubs)} | {
                    (rng.randint(1, hubs), v) for v in range(hubs + 1, n + 1)}
            # a spider's non-edges include gen_random's tree edges, which
            # have no cost there
            link_cost = [
                inst.link_cost[p]
                if link_palette is None and p in inst.link_cost
                else rng.choice(link_palette or LINK_COST_CHOICES)
                for p in combinations(range(1, n + 1), 2) if p not in edges
            ]
            out.append({
                "name": f"{len(out):03d}-{shape}-{palette_name}",
                "n": n,
                "edges": [list(e) for e in sorted(edges)],
                "attack_cost": costs,
                "link_cost": link_cost,
                "attack_budget": budget,
                "attackable": attackable,
                "response_budget": rng.choice(RESPONSE_BUDGETS),
            })
    return out


def to_graph(entry) -> Graph:
    """The entry's graph; link costs are listed over the non-edges in
    lexicographic pair order."""
    n = entry["n"]
    edges = [tuple(e) for e in entry["edges"]]
    edge_set = set(edges)
    pairs = [p for p in combinations(range(1, n + 1), 2) if p not in edge_set]
    return Graph(n, edges, tuple(entry["attack_cost"]),
                 dict(zip(pairs, entry["link_cost"])))


def _attack_answer(res) -> dict:
    if res.cut is None:
        return {"status": res.status}
    return {"status": res.status, "cut": sorted(res.cut.nodes),
            "rupture": res.score.rupture}


def answers(entry) -> dict:
    """Solve the three stages of one entry."""
    g = to_graph(entry)
    model = AttackModel(g, entry["attack_budget"],
                        frozenset(entry["attackable"] or ()))
    first = solve_attack(model)
    out = {"attack": _attack_answer(first)}
    if first.cut is None:
        return out
    part = first.partition
    out["components"] = part.count
    rm = ResponseModel(part, mceic_matrix(g, part), entry["response_budget"],
                       first.score.cut_size)
    try:
        plan = solve_response(rm)
    except SizeLimitError:
        out["response"] = {"error": "SizeLimitError"}
        return out
    out["response"] = {
        "selected": [list(p) for p in plan.selected],
        "links": [list(l) for l in plan.links],
        "total_cost": plan.total_cost,
        "rupture": plan.rupture,
    }
    out["reattack"] = _attack_answer(dynamic_worst_cut(g, plan, model))
    return out


def main() -> None:
    committed = ({e["name"]: e["answers"] for e in json.loads(OUT.read_text())}
                 if OUT.exists() else {})
    lines = []
    for entry in instances():
        entry["answers"] = answers(entry)
        if entry["name"] not in committed:
            print(f"new: {entry['name']}", file=sys.stderr)
        elif committed[entry["name"]] != entry["answers"]:
            print(f"moved: {entry['name']}", file=sys.stderr)
        lines.append(json.dumps(entry, separators=(",", ":")))
    OUT.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} entries to {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
