"""Command-line front end.

Exit codes: 0 success, 2 infeasible, 3 input error (also an unreadable
file or a usage error), 4 size guard, 5 solver/oracle mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional

import click

from . import bench, model_io
from .attack import STATUS_OPTIMAL, scored_cut, solve_attack
from .cuts import KnapsackConstraint, cuts_for_knapsack
from .errors import InfeasibleError, InputError, RupturekitError
from .response import solve_response


def _load(path: str) -> model_io.InstanceFile:
    return model_io.parse_instance(Path(path).read_text())


def _parse_nodes(raw: Optional[str], n: int) -> tuple[int, ...]:
    return tuple(model_io.parse_node(tok, n)
                 for tok in (raw or "").replace(",", " ").split())


def _parse_budget(raw: Optional[str]) -> Optional[float]:
    return None if raw is None else model_io.parse_budget(raw)


class _Group(click.Group):
    """The command group.  Both of its steps run under `_exit_codes`:
    `parse_args` reads the group's own options, `invoke` runs a command."""

    def parse_args(self, ctx, args):
        return _exit_codes(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return _exit_codes(super().invoke, ctx)


def _exit_codes(call, *args):
    """The one error handler: a toolkit error exits with its `exit_code`,
    an unreadable file or a usage error with 3 (click still prints the
    usage text).  Any other exception is a bug and keeps its traceback."""
    try:
        return call(*args)
    except click.UsageError as exc:
        exc.exit_code = InputError.exit_code
        raise
    except (RupturekitError, OSError, UnicodeDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(getattr(exc, "exit_code", InputError.exit_code))


@click.group(cls=_Group)
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


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--budget-attack", default=None)
@click.option("--attackable", default=None, help="restrict removals to these nodes")
@click.option("--oracle-check", is_flag=True)
def attack(instance, budget_attack, attackable, oracle_check):
    """Solve the worst-case removal for one instance."""
    inst = _load(instance)
    model = bench.attack_model(inst, _parse_budget(budget_attack),
                               frozenset(_parse_nodes(attackable, inst.n)))
    res = solve_attack(model)
    if oracle_check:
        bench.check_attack_oracle(model, res)
    if res.status != STATUS_OPTIMAL:
        raise InfeasibleError("no budget-feasible cut set exists")
    click.echo(model_io.result_to_json(Path(instance).name, attack=res),
               nl=False)


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--cut-x", required=True, help="realized removal set, e.g. '2 4 6'")
@click.option("--budget-response", default=None)
@click.option("--power-constraint", is_flag=True)
@click.option("--oracle-check", is_flag=True)
def respond(instance, cut_x, budget_response, power_constraint, oracle_check):
    """Solve the budget-constrained link addition after a given cut."""
    inst = _load(instance)
    g = inst.to_graph()
    cut = scored_cut(g, _parse_nodes(cut_x, inst.n))
    budget = _parse_budget(budget_response)
    if budget is None:
        budget = inst.budget_response
    rm = bench.response_model(g, cut, budget, power_constraint)
    plan = solve_response(rm)
    if oracle_check:
        bench.check_response_oracle(rm, plan)
    click.echo(model_io.result_to_json(Path(instance).name, plan=plan),
               nl=False)


@main.command()
@click.argument("instances", nargs=-1, required=True, type=click.Path())
@click.option("--oracle-check", is_flag=True)
@click.option("--power-constraint", is_flag=True)
@click.option("--csv", "as_csv", is_flag=True, help="emit the benchmark CSV table")
def pipeline(instances, oracle_check, power_constraint, as_csv):
    """Run attack, response, and dynamic worst cut on each instance."""
    loaded = [(Path(p).name, _load(p)) for p in instances]
    outcomes = [bench.run_pipeline(inst, name, oracle_check, power_constraint)
                for name, inst in loaded]
    if as_csv:
        click.echo(bench.PIPELINE_CSV_HEADER)
    for oc in outcomes:
        click.echo(oc.csv_row() if as_csv else oc.table_row())
    if any(oc.attack.status != STATUS_OPTIMAL for oc in outcomes):
        raise InfeasibleError("at least one instance admits no feasible attack")


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--grid", required=True,
              help="comma-separated response budgets; 'unlimited' allowed")
def sweep(instance, grid):
    """Emit the budget-sweep CSV for one instance."""
    inst = _load(instance)
    values = [_parse_budget(tok.strip()) for tok in grid.split(",")]
    for row in bench.sweep_budget(inst, values):
        click.echo(row)


@main.command("export-mip")
@click.argument("instance", type=click.Path())
@click.option("--formulation", type=click.Choice(["attack", "response", "reduced"]),
              default="attack", show_default=True)
@click.option("--cut-x", default=None)
@click.option("--power-constraint", is_flag=True)
def export_mip(instance, formulation, cut_x, power_constraint):
    """Write the chosen formulation as LP-style text to stdout."""
    inst = _load(instance)
    cut = _parse_nodes(cut_x, inst.n) or None
    # one write of the text as built: click.echo would run its ANSI
    # stripping over megabytes whenever stdout is not a terminal
    sys.stdout.write(model_io.export_mip(inst, formulation, cut,
                                         power_constraint))


@main.command()
@click.option("--coeffs", required=True, help="knapsack weights, e.g. '4 3 3 6'")
@click.option("--capacity", required=True, type=float)
def cuts(coeffs, capacity):
    """Audit the lifted cover inequalities for one knapsack constraint."""
    weights = tuple(model_io.parse_cost(t, "coefficient")
                    for t in coeffs.replace(",", " ").split())
    k = KnapsackConstraint(weights, capacity)
    found = cuts_for_knapsack(k)
    click.echo(json.dumps(
        {"knapsack": {"coeffs": list(weights), "capacity": capacity},
         "cuts": [c.to_dict() for c in found]},
        indent=2, sort_keys=True))


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--cut-x", required=True)
def rupture(instance, cut_x):
    """Score a given removal set on an instance."""
    inst = _load(instance)
    res = scored_cut(inst.to_graph(), _parse_nodes(cut_x, inst.n))
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


if __name__ == "__main__":
    main()
