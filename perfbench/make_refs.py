"""Regenerate the reference answers in ``refs/`` for the default seed.

    python3 perfbench/make_refs.py [workload ...]

Runs every operation of each workload once at full scale on
``DEFAULT_SEED`` through the CLI, requires its own checks to pass, and
cross-checks the answers against the enumeration oracles where they fit:
``worst_cut_oracle`` for every attack (raising its node cap where the
budget keeps the enumeration small) and ``brute_force_response`` for every
response with at most seven components.  Only then are the answers written.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import run

run.use_checkout_source()

import workloads  # noqa: E402
from rupturekit import bench, model_io  # noqa: E402
from rupturekit.graph import components, worst_cut_oracle  # noqa: E402
from rupturekit.response import (  # noqa: E402
    ResponseModel,
    brute_force_response,
    mceic_matrix,
)

ORACLE_MAX_SUBSETS = 300_000
BRUTE_FORCE_MAX_COMPONENTS = 7


def _subsets(n: int, budget: float) -> int:
    return sum(math.comb(n, k) for k in range(int(budget) + 1))


def _oracle_cut(inst: model_io.InstanceFile):
    """The oracle's worst cut, or None when enumeration is too large."""
    budget = inst.budget_attack
    if _subsets(inst.n, budget) > ORACLE_MAX_SUBSETS:
        return None
    cut, score = worst_cut_oracle(inst.to_graph(), budget,
                                  enumeration_cap=inst.n)
    return sorted(cut.nodes), score


def _oracle_plan(inst, cut, budget):
    """Brute-force response plan after ``cut``, or None when too large."""
    g = inst.to_graph()
    part = components(g, cut)
    if not 2 <= part.count <= BRUTE_FORCE_MAX_COMPONENTS:
        return None
    rm = ResponseModel(part, mceic_matrix(g, part), budget, len(cut))
    return brute_force_response(rm)


def _instance(argv) -> model_io.InstanceFile:
    return model_io.parse_instance(Path(argv[1]).read_text())


def cross_check(op, stdout: str) -> list[str]:
    """Oracle comparisons for one operation; returns what was compared."""
    done = []
    if op.argv[0] == "attack":
        inst = _instance(op.argv)
        ref = _oracle_cut(inst)
        if ref is not None:
            att = json.loads(stdout)["attack"]
            if (att["cut"], att["rupture"]) != (ref[0], ref[1].rupture):
                raise SystemExit(f"{op.name}: attack disagrees with worst_cut_oracle")
            done.append("worst_cut_oracle")
    elif op.argv[0] == "pipeline" and "--csv" in op.argv:
        inst = _instance(op.argv)
        ref = _oracle_cut(inst)
        header = bench.PIPELINE_CSV_HEADER.split(",")
        row = dict(zip(header, stdout.splitlines()[1].split(",")))
        if ref is not None:
            if (int(row["x_star_size"]), int(row["res_initial"])) != (
                    len(ref[0]), ref[1].resilience):
                raise SystemExit(f"{op.name}: attack disagrees with worst_cut_oracle")
            done.append("worst_cut_oracle")
            plan = _oracle_plan(inst, ref[0], None)
            if plan is not None:
                if (int(row["res_reconstructed"]), f"{plan.total_cost:.6f}") != (
                        plan.resilience, row["budget_used"]):
                    raise SystemExit(f"{op.name}: response disagrees with "
                                     "brute_force_response")
                done.append("brute_force_response")
    elif op.argv[0] == "sweep":
        inst = _instance(op.argv)
        if inst.attack_type in ("designated", "random"):
            cut = sorted(inst.attack_nodes)
        else:
            ref = _oracle_cut(inst)
            cut = None if ref is None else ref[0]
        if cut is not None:
            for line in stdout.splitlines()[1:]:
                label, links, resilience, _ = line.split(",")
                budget = None if label == "unlimited" else float(label)
                plan = _oracle_plan(inst, cut, budget)
                if plan is None:
                    break
                if (len(plan.links), plan.resilience) != (int(links), int(resilience)):
                    raise SystemExit(f"{op.name}: budget {label} disagrees with "
                                     "brute_force_response")
            else:
                done.append("brute_force_response")
    return done


def main(names: list[str]) -> int:
    workdir = run.OUT / "make-refs"
    try:
        for name in names or workloads.WORKLOADS:
            wl = workloads.build(name, workloads.DEFAULT_SEED, "full", workdir / name)
            answers = {}
            for op in wl.ops:
                code, stdout = run.invoke(op.argv)
                if code != 0:
                    raise SystemExit(f"{op.name}: exit code {code}")
                op.check(stdout)
                checked = cross_check(op, stdout)
                answers[op.name] = workloads.reference_answer(name, stdout)
                print(f"{op.name}: ok {' '.join(checked)}", flush=True)
            path = workloads.REFS / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(
                {"seed": workloads.DEFAULT_SEED, "answers": answers},
                indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
