"""The benchmark's workloads: seeded operation lists and their checks.

Every operation is one ``rupturekit`` command line.  Inputs come from
``bench.gen_random`` with the workload's size parameters and a seed derived
from ``--seed``.  Instances are grouped into strata by the quantity the hot
layer's cost depends on (surviving components ``s`` for the response
solver, node count ``n`` for the attack and the export), so every seed
does about the same amount of work while the graphs, costs and
tie-breaks change with the seed.

Each operation carries a check.  On every seed the check re-derives what it
can independently of the solvers under test (re-scoring cuts, the
unlimited-budget optimum, sweep monotonicity, export determinism).  On
``DEFAULT_SEED``, and on the seed-independent fixture operations, it also
compares against the reference answers stored in ``refs/``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

from rupturekit import bench, model_io
from rupturekit.attack import STATUS_OPTIMAL, AttackModel, solve_attack
from rupturekit.graph import components, rupture_score

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"
REFS = HERE / "refs"

DEFAULT_SEED = 0
WORKLOADS = ("pipeline", "attack", "sweep", "export")
SCALES = ("full", "smoke")
SWEEP_GRID = "0,1,2,3,4.5,6,9,unlimited"
CANDIDATE_CAP = 120   # random draws allowed to fill the component strata

# Pipeline and sweep instances: gen_random with n=17, 18 edges and attack
# budget 4, so the attack and the dynamic re-attack stay small and the
# response solver's Bell(s) set partitions dominate.  (s_min, s_max, count):
# draws are assigned to the first open stratum holding their component
# count s; the middle stratum is the largest, so the median operation
# comes from one homogeneous group.
RESPONSE_INSTANCE = {"n": 17, "edges": 18, "budget_attack": 4.0}
PIPELINE_STRATA = {
    "full": ((2, 7, 3), (8, 8, 5), (9, 9, 2)),
    "smoke": ((2, 6, 1), (7, 7, 1)),
}
SWEEP_STRATA = {
    "full": ((7, 7, 6),),
    "smoke": ((2, 6, 1),),
}
# (n, count) with 3n edges and attack budget 4: a small fixed budget makes
# the branch-and-bound cost follow n rather than the luck of the incumbent;
# n <= 24 makes the attack verify its budget cuts over 2^n points
ATTACK_STRATA = {
    "full": ((24, 1), (26, 5)),
    "smoke": ((12, 1), (14, 1)),
}
ATTACK_BUDGET = 4.0
# attack formulation at every size; response and reduced formulations,
# which need a cut, at the sizes in the second tuple
EXPORT_SIZES = {
    "full": ((30, 35, 40, 45, 50, 55, 60), (30, 45, 60)),
    "smoke": ((30,), (30,)),
}


class Mismatch(Exception):
    """An operation's output disagrees with the expected answer."""


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[str], None]
    # the reference answer applies on every seed (fixture inputs)
    fixed_input: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    scale: str
    ops: list[Op]
    refs: dict = field(default_factory=dict)   # op name -> reference answer


def reference_answer(workload: str, stdout: str):
    """The part of an operation's output that the references pin down."""
    if workload == "attack":
        att = json.loads(stdout)["attack"]
        return {"cut": att["cut"], "rupture": att["rupture"],
                "components": att["components"]}
    if workload == "export":
        return hashlib.sha256(stdout.encode()).hexdigest()
    return stdout


def load_refs(workload: str) -> dict:
    path = REFS / f"{workload}.json"
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    if data.get("seed") != DEFAULT_SEED:
        raise ValueError(f"{path} holds answers for seed {data.get('seed')}")
    return data["answers"]


def check_against_refs(wl: Workload, op: Op, stdout: str) -> None:
    if not (op.fixed_input or (wl.seed == DEFAULT_SEED and wl.scale == "full")):
        return
    if op.name not in wl.refs:
        raise Mismatch("no reference answer stored")
    got = reference_answer(wl.name, stdout)
    if got != wl.refs[op.name]:
        raise Mismatch("output differs from the reference answer")


def build(workload: str, seed: int, scale: str, workdir: Path) -> Workload:
    """Generate the workload's inputs under ``workdir`` and its operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    builder = {"pipeline": _pipeline, "attack": _attack,
               "sweep": _sweep, "export": _export}[workload]
    wl = Workload(workload, seed, scale, [])
    builder(wl, workdir)
    wl.refs = load_refs(workload)
    return wl


def _sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def _write(workdir: Path, name: str, inst: model_io.InstanceFile) -> str:
    path = workdir / name
    path.write_text(model_io.emit_instance(inst))
    return str(path)


def _field(msg: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{msg}: got {got!r}, expected {want!r}")


def _by_components(seed: int, strata):
    """Draw instances until every component-count stratum is full.

    Returns (instance, attack result) pairs in stratum order.
    """
    n = RESPONSE_INSTANCE["n"]
    pool = bench.gen_random(bench.BenchConfig(
        seed, CANDIDATE_CAP, n, n, RESPONSE_INSTANCE["edges"],
        RESPONSE_INSTANCE["budget_attack"]))
    taken = [[] for _ in strata]
    for inst in pool:
        res = solve_attack(AttackModel(inst.to_graph(), inst.budget_attack))
        s = res.partition.count
        for k, (lo, hi, count) in enumerate(strata):
            if lo <= s <= hi and len(taken[k]) < count:
                taken[k].append((inst, res))
                break
        if all(len(t) == c for t, (_, _, c) in zip(taken, strata)):
            return [pair for t in taken for pair in t]
    raise RuntimeError(f"seed {seed}: {CANDIDATE_CAP} draws did not fill the strata")


def _mceic_tree_cost(inst: model_io.InstanceFile, comps) -> float:
    """Minimum spanning tree weight over the cheapest links between
    components, computed from the raw link costs (Prim)."""
    edges = set(inst.edges)
    s = len(comps)
    cost = [[math.inf] * s for _ in range(s)]
    for a, b in combinations(range(s), 2):
        best = min(inst.link_cost[(min(i, j), max(i, j))]
                   for i in comps[a] for j in comps[b]
                   if (min(i, j), max(i, j)) not in edges)
        cost[a][b] = cost[b][a] = best
    seen = {0}
    total = 0.0
    while len(seen) < s:
        w, v = min((cost[u][v], v) for u in seen for v in range(s) if v not in seen)
        seen.add(v)
        total += w
    return total


def _pipeline(wl: Workload, workdir: Path) -> None:
    picked = _by_components(wl.seed, PIPELINE_STRATA[wl.scale])
    for idx, (inst, res) in enumerate(picked):
        name = f"pipeline_{idx:02d}.txt"
        path = _write(workdir, name, inst)
        score = rupture_score(inst.to_graph(), res.cut)
        s = res.partition.count
        want = {
            "instance": name, "n": str(inst.n), "edges": str(len(inst.edges)),
            "mceic_links": str(s * (s - 1) // 2),
            "x_star_size": str(score.cut_size),
            "res_initial": str(score.resilience),
            # with an unlimited budget every component is merged
            "res_reconstructed": str(inst.n - 1),
        }
        tree = _mceic_tree_cost(inst, res.partition.components)
        wl.ops.append(Op(f"pipeline/{idx:02d}", ["pipeline", path, "--csv"],
                         _pipeline_check(want, tree, inst.budget_attack)))


def _pipeline_check(want: dict, tree: float, budget: float):
    def check(stdout: str) -> None:
        lines = stdout.splitlines()
        _field("pipeline header", lines[0], bench.PIPELINE_CSV_HEADER)
        _field("pipeline rows", len(lines), 2)
        row = dict(zip(bench.PIPELINE_CSV_HEADER.split(","), lines[1].split(",")))
        for key, value in want.items():
            _field(f"pipeline {key}", row[key], value)
        if abs(float(row["budget_used"]) - tree) > 1e-5:
            raise Mismatch(f"pipeline budget_used {row['budget_used']} is not "
                           f"the MCEIC spanning tree cost {tree:.6f}")
        if int(row["x_dyn_size"]) > budget:
            raise Mismatch("dynamic cut exceeds the attack budget")
    return check


def _attack(wl: Workload, workdir: Path) -> None:
    for k, (n, count) in enumerate(ATTACK_STRATA[wl.scale]):
        cfg = bench.BenchConfig(_sub_seed(wl.seed, k), count, n, n, 3 * n,
                                ATTACK_BUDGET)
        for j, inst in enumerate(bench.gen_random(cfg)):
            name = f"attack_{n}_{j:02d}.txt"
            path = _write(workdir, name, inst)
            wl.ops.append(Op(f"attack/{n}/{j:02d}", ["attack", path],
                             _attack_check(inst)))


def _attack_check(inst: model_io.InstanceFile):
    def check(stdout: str) -> None:
        att = json.loads(stdout)["attack"]
        _field("attack status", att["status"], STATUS_OPTIMAL)
        g = inst.to_graph()
        cut = att["cut"]
        spent = sum(g.attack_cost[v - 1] for v in cut)
        if spent > inst.budget_attack + 1e-9:
            raise Mismatch(f"attack cut costs {spent} over budget {inst.budget_attack}")
        score = rupture_score(g, cut)
        if not score.is_cut:
            raise Mismatch("reported attack set is not a cut set")
        _field("attack rupture", att["rupture"], score.rupture)
        _field("attack components", att["components"],
               [list(c) for c in components(g, cut).components])
    return check


def _sweep(wl: Workload, workdir: Path) -> None:
    grid = SWEEP_GRID.split(",")
    picked = _by_components(_sub_seed(wl.seed, 1), SWEEP_STRATA[wl.scale])
    for idx, (inst, res) in enumerate(picked):
        path = _write(workdir, f"sweep_{idx:02d}.txt", inst)
        wl.ops.append(Op(f"sweep/{idx:02d}", ["sweep", path, "--grid", SWEEP_GRID],
                         _sweep_check(grid, res.partition.count, inst.n)))
    for fixture in ("nine_node", "ieee14"):
        path = str(FIXTURES / f"{fixture}.txt")
        wl.ops.append(Op(f"sweep/{fixture}", ["sweep", path, "--grid", SWEEP_GRID],
                         _sweep_check(grid, None, None), fixed_input=True))
    wl.ops.append(Op("pipeline/ieee14/power",
                     ["pipeline", str(FIXTURES / "ieee14.txt"), "--power-constraint"],
                     lambda stdout: None, fixed_input=True))


def _sweep_check(grid: list[str], s: Optional[int], n: Optional[int]):
    def check(stdout: str) -> None:
        lines = stdout.splitlines()
        _field("sweep header", lines[0], bench.SWEEP_CSV_HEADER)
        rows = [line.split(",") for line in lines[1:]]
        _field("sweep rows", len(rows), len(grid))
        labels = [r[0] for r in rows]
        _field("sweep budgets", labels,
               [g if g == "unlimited" else f"{float(g):.6f}" for g in grid])
        resilience = [int(r[2]) for r in rows]
        if any(b < a for a, b in zip(resilience, resilience[1:])):
            raise Mismatch(f"sweep resilience decreases with budget: {resilience}")
        if s is not None:
            if max(int(r[1]) for r in rows) > s - 1:
                raise Mismatch("sweep adds more links than a spanning tree")
            _field("sweep unlimited resilience", resilience[-1], n - 1)
    return check


def _export(wl: Workload, workdir: Path) -> None:
    sizes, cut_sizes = EXPORT_SIZES[wl.scale]
    for k, n in enumerate(sizes):
        inst = bench.gen_random(
            bench.BenchConfig(_sub_seed(wl.seed, k), 1, n, n, 2 * n))[0]
        path = _write(workdir, f"export_{n}.txt", inst)
        g = inst.to_graph()
        # removing the neighbours of a least-degree node isolates it
        v = min(g.nodes, key=lambda u: (g.degree(u), u))
        cut = " ".join(str(u) for u in g.neighbors(v))
        for form in ("attack", "response", "reduced") if n in cut_sizes else ("attack",):
            argv = ["export-mip", path, "--formulation", form]
            if form != "attack":
                argv += ["--cut-x", cut]
            wl.ops.append(Op(f"export/{n}/{form}", argv, _export_check(form)))


def _export_check(form: str):
    seen: list[str] = []

    def check(stdout: str) -> None:
        head = stdout.split("\n", 2)[:2]
        _field("export header", head,
               [f"\\ rupturekit mip export v{model_io.MIP_FORMAT_VERSION}",
                f"\\ formulation: {form}"])
        if not stdout.endswith("\nEnd\n"):
            raise Mismatch("export text does not end with 'End'")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if not seen:
            seen.append(digest)
        elif seen[0] != digest:
            raise Mismatch("export text differs between passes")
    return check
