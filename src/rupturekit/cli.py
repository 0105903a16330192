"""Command-line front end.

Exit codes: 0 success, 2 infeasible, 3 input error, 4 size guard,
5 solver/oracle mismatch.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Optional

import click

from . import bench, model_io
from .attack import STATUS_OPTIMAL, scored_cut, solve_attack
from .cuts import KnapsackConstraint, cuts_for_knapsack
from .errors import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_ORACLE,
    EXIT_SIZE,
    InfeasibleError,
    InputError,
    OracleMismatchError,
    SizeLimitError,
)
from .response import solve_response


def _fail(exc: Exception) -> "int":
    if isinstance(exc, SizeLimitError):
        code = EXIT_SIZE
    elif isinstance(exc, InfeasibleError):
        code = EXIT_INFEASIBLE
    elif isinstance(exc, OracleMismatchError):
        code = EXIT_ORACLE
    else:
        code = EXIT_INPUT
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _load(path: str) -> model_io.InstanceFile:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(str(exc))
    return model_io.parse_instance(text)


def _parse_nodes(raw: Optional[str]) -> tuple[int, ...]:
    if not raw:
        return ()
    try:
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise InputError(f"bad node list {raw!r}")


def _parse_budget(raw: Optional[str]) -> Optional[float]:
    if raw is None:
        return None
    if raw == "unlimited":
        return math.inf
    try:
        v = float(raw)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):  # float() also takes 'nan' and 'inf'
        raise InputError(f"bad budget {raw!r}")
    if v < 0:
        raise InputError("budgets must be nonnegative")
    return v


@click.group()
def main():
    """Worst-case attack and link-addition response toolkit."""


@main.command()
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--count", default=1, show_default=True, type=int)
@click.option("--n-min", default=8, show_default=True, type=int)
@click.option("--n-max", default=12, show_default=True, type=int)
@click.option("--edges", "edge_count", default=None, type=int)
@click.option("--budget-attack", default=None)
@click.option("--budget-response", default=None)
@click.option("--out-dir", default=".", show_default=True)
def gen(seed, count, n_min, n_max, edge_count, budget_attack, budget_response, out_dir):
    """Generate seeded random connected instances."""
    try:
        cfg = bench.BenchConfig(
            seed, count, n_min, n_max, edge_count,
            _parse_budget(budget_attack), _parse_budget(budget_response),
        )
        instances = bench.gen_random(cfg)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for idx, inst in enumerate(instances):
            path = out / f"instance_{seed}_{idx:03d}.txt"
            path.write_text(model_io.emit_instance(inst))
            click.echo(str(path))
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes
        _fail(exc)


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--budget-attack", default=None)
@click.option("--attackable", default=None, help="restrict removals to these nodes")
@click.option("--oracle-check", is_flag=True)
def attack(instance, budget_attack, attackable, oracle_check):
    """Solve the worst-case removal for one instance."""
    try:
        inst = _load(instance)
        model = bench.attack_model(inst, _parse_budget(budget_attack),
                                   frozenset(_parse_nodes(attackable)))
        res = solve_attack(model)
        if oracle_check:
            bench.check_attack_oracle(model, res)
        if res.status != STATUS_OPTIMAL:
            raise InfeasibleError("no budget-feasible cut set exists")
        click.echo(model_io.result_to_json(Path(instance).name, attack=res),
                   nl=False)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--cut-x", required=True, help="realized removal set, e.g. '2 4 6'")
@click.option("--budget-response", default=None)
@click.option("--power-constraint", is_flag=True)
@click.option("--oracle-check", is_flag=True)
def respond(instance, cut_x, budget_response, power_constraint, oracle_check):
    """Solve the budget-constrained link addition after a given cut."""
    try:
        inst = _load(instance)
        g = inst.to_graph()
        cut = scored_cut(g, _parse_nodes(cut_x))
        budget = _parse_budget(budget_response)
        if budget is None:
            budget = inst.budget_response
        rm = bench.response_model(g, cut, budget, power_constraint)
        plan = solve_response(rm)
        if oracle_check:
            bench.check_response_oracle(rm, plan)
        click.echo(model_io.result_to_json(Path(instance).name, plan=plan),
                   nl=False)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command()
@click.argument("instances", nargs=-1, required=True, type=click.Path())
@click.option("--oracle-check", is_flag=True)
@click.option("--power-constraint", is_flag=True)
@click.option("--csv", "as_csv", is_flag=True, help="emit the benchmark CSV table")
def pipeline(instances, oracle_check, power_constraint, as_csv):
    """Run attack, response, and dynamic worst cut on each instance."""
    try:
        loaded = [(Path(p).name, _load(p)) for p in instances]
        outcomes = [bench.run_pipeline(inst, name, oracle_check, power_constraint)
                    for name, inst in loaded]
        if as_csv:
            click.echo(bench.PIPELINE_CSV_HEADER)
        for oc in outcomes:
            click.echo(oc.csv_row() if as_csv else oc.table_row())
        if any(oc.attack.status != STATUS_OPTIMAL for oc in outcomes):
            raise InfeasibleError("at least one instance admits no feasible attack")
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--grid", required=True,
              help="comma-separated response budgets; 'unlimited' allowed")
def sweep(instance, grid):
    """Emit the budget-sweep CSV for one instance."""
    try:
        inst = _load(instance)
        values = [_parse_budget(tok.strip()) for tok in grid.split(",")]
        for row in bench.sweep_budget(inst, values, Path(instance).name):
            click.echo(row)
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command("export-mip")
@click.argument("instance", type=click.Path())
@click.option("--formulation", type=click.Choice(["attack", "response", "reduced"]),
              default="attack", show_default=True)
@click.option("--cut-x", default=None)
@click.option("--power-constraint", is_flag=True)
def export_mip(instance, formulation, cut_x, power_constraint):
    """Write the chosen formulation as LP-style text to stdout."""
    try:
        inst = _load(instance)
        cut = _parse_nodes(cut_x) or None
        # one write of the text as built: click.echo would run its ANSI
        # stripping over megabytes whenever stdout is not a terminal
        sys.stdout.write(model_io.export_mip(inst, formulation, cut,
                                             power_constraint))
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command()
@click.option("--coeffs", required=True, help="knapsack weights, e.g. '4 3 3 6'")
@click.option("--capacity", required=True, type=float)
def cuts(coeffs, capacity):
    """Audit the lifted cover inequalities for one knapsack constraint."""
    try:
        weights = tuple(float(t) for t in coeffs.replace(",", " ").split())
        k = KnapsackConstraint(weights, capacity)
        found = cuts_for_knapsack(k)
        click.echo(json.dumps(
            {"knapsack": {"coeffs": list(weights), "capacity": capacity},
             "cuts": [c.to_dict() for c in found]},
            indent=2, sort_keys=True))
    except ValueError:
        _fail(InputError(f"bad coefficient list {coeffs!r}"))
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--cut-x", required=True)
def rupture(instance, cut_x):
    """Score a given removal set on an instance."""
    try:
        inst = _load(instance)
        res = scored_cut(inst.to_graph(), _parse_nodes(cut_x))
        score = res.score
        click.echo(json.dumps({
            "cut": sorted(res.cut.nodes),
            "is_cut": score.is_cut,
            "rupture": score.rupture,
            "resilience": score.resilience,
            "largest_component": score.largest,
            "component_count": score.count,
            "components": [list(c) for c in res.partition.components],
        }, indent=2, sort_keys=True))
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


if __name__ == "__main__":
    main()
