"""Random instance generation, the two-stage pipeline, and budget sweeps.

Everything here is deterministic under a fixed seed so benchmark tables can
be regenerated byte-for-byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .attack import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    AttackModel,
    AttackResult,
    scored_cut,
    solve_attack,
)
from .errors import (
    InfeasibleError,
    InputError,
    OracleMismatchError,
    SizeLimitError,
)
from .graph import (
    Graph,
    _nodes_to_mask,
    _survivor_stats,
    max_affordable,
    worst_cut_oracle,
)
from .model_io import InstanceFile, default_attack_budget
from .response import (
    MceicMatrix,
    ReconstructionPlan,
    ResponseModel,
    _power_ok,
    brute_force_response,
    classify_components,
    dynamic_worst_cut,
    mceic_matrix,
    rebuilt_model,
    solve_response,
)

# link costs are drawn uniformly from {1.0, 1.1, ..., 3.0}
LINK_COST_CHOICES = tuple(round(1.0 + 0.1 * k, 1) for k in range(21))

PIPELINE_CSV_HEADER = (
    "instance,n,edges,budget_used,mceic_links,x_star_size,"
    "res_initial,res_reconstructed,x_dyn_size,res_dynamic"
)
SWEEP_CSV_HEADER = "budget,links_added,resilience,robustness"

# Link subsets power_subset_optimum may enumerate, counted before it starts
# (see power_subset_count).  It took 4-15 us a subset at s=6-7 on a 2-core
# Xeon with Python 3.11 (31.5 s for all 2^21 at s=7), so the cap keeps a
# check within about a second.
ORACLE_MAX_SUBSETS = 2 ** 16


@dataclass(frozen=True)
class BenchConfig:
    seed: int = 0
    count: int = 1
    n_min: int = 8
    n_max: int = 12
    edge_count: Optional[int] = None   # None: uniform in [n-1, min(2n, max)]
    budget_attack: Optional[float] = None   # None: floor(n/2)
    budget_response: Optional[float] = None  # None: unlimited

    def __post_init__(self):
        if self.count < 1:
            raise InputError("instance count must be >= 1")
        if not (1 <= self.n_min <= self.n_max):
            raise InputError("bad node-count range")


def gen_random(config: BenchConfig) -> list[InstanceFile]:
    """Connected instances: random spanning tree plus uniform extra edges;
    unit attack costs; link costs for every non-edge."""
    rng = random.Random(config.seed)
    out = []
    for _ in range(config.count):
        n = rng.randint(config.n_min, config.n_max)
        max_edges = n * (n - 1) // 2
        if config.edge_count is None:
            m = rng.randint(n - 1, min(2 * n, max_edges))
        else:
            m = config.edge_count
            if not (n - 1 <= m <= max_edges):
                raise InputError(
                    f"edge count {m} impossible for {n} nodes"
                )
        order = list(range(1, n + 1))
        rng.shuffle(order)
        edges = set()
        for idx in range(1, n):
            anchor = order[rng.randrange(idx)]
            v = order[idx]
            edges.add((min(anchor, v), max(anchor, v)))
        rest = [e for e in combinations(range(1, n + 1), 2) if e not in edges]
        edges.update(rng.sample(rest, m - len(edges)))
        link_cost = {
            e: rng.choice(LINK_COST_CHOICES)
            for e in combinations(range(1, n + 1), 2)
            if e not in edges
        }
        budget_a = (default_attack_budget(n) if config.budget_attack is None
                    else config.budget_attack)
        budget_r = (math.inf if config.budget_response is None
                    else config.budget_response)
        out.append(InstanceFile(
            n, tuple(sorted(edges)), (1.0,) * n, link_cost,
            None, budget_a, budget_r, "targeted", (),
        ))
    return out


@dataclass
class PipelineOutcome:
    instance_name: str
    instance: InstanceFile
    attack: AttackResult
    plan: Optional[ReconstructionPlan]
    dynamic: Optional[AttackResult]

    def csv_row(self) -> str:
        inst = self.instance
        s = 0 if self.attack.partition is None else self.attack.partition.count
        mceic_links = s * (s - 1) // 2  # one MCEIC link per component pair
        used = 0.0 if self.plan is None else self.plan.total_cost
        res_init = "" if self.attack.score is None else self.attack.score.resilience
        res_rec = "" if self.plan is None else self.plan.resilience
        x_dyn = ""
        res_dyn = ""
        if self.dynamic is not None and self.dynamic.score is not None:
            x_dyn = self.dynamic.score.cut_size
            res_dyn = self.dynamic.score.resilience
        x_star = "" if self.attack.score is None else self.attack.score.cut_size
        return (
            f"{self.instance_name},{inst.n},{len(inst.edges)},{used:.6f},"
            f"{mceic_links},{x_star},{res_init},{res_rec},{x_dyn},{res_dyn}"
        )

    def table_row(self) -> str:
        if self.attack.status != STATUS_OPTIMAL or self.attack.score is None:
            return f"{self.instance_name}: no budget-feasible attack"
        cells = [
            f"|X*|={self.attack.score.cut_size}",
            f"res_attacked={self.attack.score.resilience}",
        ]
        if self.plan is not None:
            cells.append(f"res_reconstructed={self.plan.resilience}")
            cells.append(f"links_added={len(self.plan.links)}")
            cells.append(f"budget_used={self.plan.total_cost:.6f}")
        if self.dynamic is not None and self.dynamic.score is not None:
            cells.append(f"|X'*|={self.dynamic.score.cut_size}")
            cells.append(f"res_dynamic={self.dynamic.score.resilience}")
        return f"{self.instance_name}: " + "  ".join(cells)


def attack_model(inst: InstanceFile, budget: Optional[float] = None,
                 attackable: frozenset[int] = frozenset()) -> AttackModel:
    """Stage-one model.  The budget is `budget`, else the file's, else
    floor(n/2); a nonempty `attackable` replaces the file's set."""
    if budget is None:
        budget = inst.budget_attack
    if budget is None:
        budget = default_attack_budget(inst.n)
    return AttackModel(inst.to_graph(), budget,
                       attackable or inst.attackable_nodes())


def attack_stage(inst: InstanceFile, oracle_check: bool = False
                 ) -> tuple[AttackModel, AttackResult]:
    """The instance's attack model and stage-one result: for designated
    and random attacks the given removal set, scored; otherwise the
    worst-case cut."""
    model = attack_model(inst)
    if inst.given_cut:
        return model, scored_cut(model.graph, inst.attack_nodes)
    res = solve_attack(model)
    if oracle_check:
        check_attack_oracle(model, res)
    return model, res


def response_model(g: Graph, attack: AttackResult, budget: Optional[float],
                   power: bool = False,
                   mceic: Optional[MceicMatrix] = None) -> ResponseModel:
    """Stage-two model after `attack`'s cut; a `budget` of None or
    math.inf is unlimited.  A sweep passes the MCEIC matrix it built once."""
    part = attack.partition
    if mceic is None:
        mceic = mceic_matrix(g, part)
    if budget is not None and math.isinf(budget):
        budget = None
    return ResponseModel(part, mceic, budget, attack.score.cut_size,
                         classify_components(g, part) if power else None)


def run_pipeline(
    inst: InstanceFile,
    name: str = "instance",
    oracle_check: bool = False,
    power: bool = False,
) -> PipelineOutcome:
    """attack -> response -> dynamic worst cut on one instance.  With
    `oracle_check`, every solved stage is checked against its oracle: the
    attack (unless the cut is given), the response and the re-attack."""
    model, attack_res = attack_stage(inst, oracle_check)
    if attack_res.status != STATUS_OPTIMAL:
        return PipelineOutcome(name, inst, attack_res, None, None)
    rm = response_model(model.graph, attack_res, inst.budget_response, power)
    plan = solve_response(rm)
    if oracle_check:
        check_response_oracle(rm, plan)
    dynamic = dynamic_worst_cut(model.graph, plan, model)
    if oracle_check:
        check_attack_oracle(rebuilt_model(model.graph, plan, model), dynamic)
    return PipelineOutcome(name, inst, attack_res, plan, dynamic)


def check_attack_oracle(model: AttackModel, res: AttackResult) -> None:
    """Raise OracleMismatchError unless the enumeration oracle returns the
    same status, cut and rupture as the solver."""
    ref = worst_cut_oracle(model.graph, model.budget, model.attackable)
    got = (res.status, res.cut.nodes if res.cut else None,
           res.score.rupture if res.score else None)
    want = ((STATUS_INFEASIBLE, None, None) if ref is None
            else (STATUS_OPTIMAL, ref[0].nodes, ref[1].rupture))
    if got != want:
        raise OracleMismatchError(
            f"attack solver disagrees with the oracle: {got[0]} cut "
            f"{sorted(got[1] or ())} rupture {got[2]}, oracle {want[0]} cut "
            f"{sorted(want[1] or ())} rupture {want[2]}"
        )


def power_subset_count(m: ResponseModel) -> int:
    """A bound on the link subsets power_subset_optimum enumerates:
    sum over k <= t of C(p, k), with p the MCEIC pairs and t the most
    links the budget buys, from max_affordable."""
    costs = list(m.mceic.cost.values())
    t = max_affordable(costs, m.limit)
    return sum(math.comb(len(costs), k) for k in range(t + 1))


def power_subset_optimum(m: ResponseModel) -> tuple[int, float]:
    """The least (rupture, total cost rounded to 9 decimals) over every
    subset of the MCEIC pairs that fits the budget and passes the power
    rule, cycles included, so it also tests that forests suffice.  The
    subsets are pruned by budget in pair order and their merged groups
    found by union-find: no search is shared with the power-rule solver,
    the forest enumeration of brute_force_response.

    Raises SizeLimitError, before any enumeration, when power_subset_count
    passes ORACLE_MAX_SUBSETS."""
    subsets = power_subset_count(m)
    if subsets > ORACLE_MAX_SUBSETS:
        raise SizeLimitError(f"{subsets} link subsets exceed the oracle cap "
                             f"{ORACLE_MAX_SUBSETS}")
    s = m.partition.count
    sizes = m.partition.sizes
    pairs = list(combinations(range(1, s + 1), 2))
    limit = m.limit
    best: Optional[tuple[int, float]] = None

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(z: int, chosen: list[tuple[int, int]], total: float) -> None:
        nonlocal best
        if z == len(pairs):
            if not _power_ok(chosen, m.component_class):
                return
            parent = list(range(s + 1))
            for a, b in chosen:
                parent[find(parent, a)] = find(parent, b)
            merged: dict[int, int] = {}
            for comp in range(1, s + 1):
                root = find(parent, comp)
                merged[root] = merged.get(root, 0) + sizes[comp - 1]
            key = (-m.cut_size - max(merged.values()) + len(merged),
                   round(total, 9))
            if best is None or key < best:
                best = key
            return
        c = m.mceic.cost[pairs[z]]
        if total + c <= limit:
            chosen.append(pairs[z])
            rec(z + 1, chosen, total + c)
            chosen.pop()
        rec(z + 1, chosen, total)

    rec(0, [], 0.0)
    assert best is not None  # the empty selection always passes
    return best


def check_response_oracle(rm: ResponseModel, plan: ReconstructionPlan) -> None:
    """Raise OracleMismatchError unless an enumeration oracle agrees with
    the solver.  Under the default rule brute_force_response must return
    the same selected links and rupture.  Under the power rule, where that
    function is the solver, the plan must be a power-feasible forest within
    the budget with the (rupture, rounded cost) of power_subset_optimum."""
    if rm.component_class is None:
        ref = brute_force_response(rm)
        if (ref.selected, ref.rupture) == (plan.selected, plan.rupture):
            return
        fault = (f"rupture {plan.rupture}, oracle {list(ref.selected)} "
                 f"rupture {ref.rupture}")
    elif plan.total_cost > rm.limit:
        fault = "exceeds the budget"
    elif not _power_ok(plan.selected, rm.component_class):
        fault = "breaks the power rule"
    elif len(plan.selected) != rm.partition.count - plan.merged_partition.count:
        fault = "is not a forest"
    else:
        got = (plan.rupture, round(plan.total_cost, 9))
        want = power_subset_optimum(rm)
        if got == want:
            return
        fault = f"has (rupture, cost) {got}, oracle {want}"
    raise OracleMismatchError(
        f"response solver disagrees with the oracle: selected "
        f"{list(plan.selected)} {fault}"
    )


def _nested_reattack(
    g: Graph, plan: ReconstructionPlan, model: AttackModel,
    solved: dict[frozenset[tuple[int, int]], AttackResult],
) -> AttackResult:
    """The re-attack of `plan`: the answer of a solved link subset when it
    still holds, else a solve.  `solved` maps link sets to their exact
    re-attack results on g under `model`'s budget and attackable set.

    Take solved links L and the plan's links L' with L a subset of L'.
    Adding links never raises a removal set's rupture -|X| - m + w, since
    components only merge: w does not grow and m does not shrink.  Nor
    does it turn a non-cut into a cut: a non-cut leaves no survivor or one
    component of two nodes or more, and so it does with more links.  The
    budget and the attackable set are shared, so every budget-feasible cut Y
    of g + L' is one of g + L, with r'(Y) <= r(Y) <= r(X) for L's worst
    cut X.  If X leaves as many components on g + L' as on g + L, no link
    of L' joins two of them: X keeps its components, so its rupture and
    its cut status, and it is optimal on g + L'.  Any Y that ties it has
    r(Y) = r(X) too, so it loses the cardinality-then-lex tie-break on
    g + L' as it does on g + L.  Hence X is g + L''s answer, tie-break
    included.  And if L has no feasible cut, neither has L'."""
    rebuilt = rebuilt_model(g, plan, model)
    links = frozenset(plan.links)
    for key, res in solved.items():
        if not key <= links:
            continue
        if res.status != STATUS_OPTIMAL:
            return AttackResult(STATUS_INFEASIBLE)
        mask = _nodes_to_mask(res.cut.nodes)
        if _survivor_stats(rebuilt.graph, mask)[1] == res.score.count:
            return scored_cut(rebuilt.graph, res.cut.nodes)
    return solve_attack(rebuilt)


def sweep_budget(inst: InstanceFile, grid: Sequence[float]) -> list[str]:
    """CSV rows (budget, links_added, resilience, robustness) for a grid of
    response budgets against the fixed worst-case attack."""
    model, attack_res = attack_stage(inst)
    if attack_res.status != STATUS_OPTIMAL:
        raise InfeasibleError("budget sweep requires a solvable attack stage")
    g = model.graph
    mc = mceic_matrix(g, attack_res.partition)
    rows = [SWEEP_CSV_HEADER]
    # budgets that buy the same links rebuild the same network, and the
    # empty plan leaves the attacked one, which stage one already solved;
    # a plan holding a solved link set may keep that set's answer
    dynamic: dict[frozenset[tuple[int, int]], AttackResult] = {}
    if not inst.given_cut:
        dynamic[frozenset()] = attack_res
    for b in grid:
        plan = solve_response(response_model(g, attack_res, b, mceic=mc))
        key = frozenset(plan.links)
        dyn = dynamic.get(key)
        if dyn is None:
            dyn = dynamic[key] = _nested_reattack(g, plan, model, dynamic)
        robustness = dyn.score.cut_size if dyn.score is not None else 0
        label = "unlimited" if math.isinf(b) else f"{b:.6f}"
        rows.append(
            f"{label},{len(plan.links)},{plan.resilience},{robustness}"
        )
    return rows
