"""A check of power-rule response plans that shares no search with the
solver: every budget-feasible, power-feasible subset of the MCEIC pairs is
scored, cycles included, so the check also tests that forests suffice."""

from itertools import combinations

from rupturekit import response
from rupturekit.attack import BUDGET_TOL


def power_subset_optimum(m):
    """The minimum (r, total cost rounded to 9 decimals) over every subset
    of the MCEIC pairs that fits the budget, pruned in pair order, and
    passes the power rule; merged groups by union-find."""
    s = m.partition.count
    pairs = list(combinations(range(1, s + 1), 2))
    limit = m.effective_budget + BUDGET_TOL
    best = None

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(z, chosen, total):
        nonlocal best
        if z == len(pairs):
            if not response._power_ok(chosen, m.component_class):
                return
            parent = list(range(s + 1))
            for a, b in chosen:
                parent[find(parent, a)] = find(parent, b)
            sizes = {}
            for c in range(1, s + 1):
                root = find(parent, c)
                sizes[root] = sizes.get(root, 0) + m.partition.sizes[c - 1]
            key = (-m.cut_size - max(sizes.values()) + len(sizes),
                   round(total, 9))
            best = key if best is None else min(best, key)
            return
        c = m.mceic.pair_cost(*pairs[z])
        if total + c <= limit:
            chosen.append(pairs[z])
            rec(z + 1, chosen, total + c)
            chosen.pop()
        rec(z + 1, chosen, total)

    rec(0, [], 0.0)
    return best


def check_power_plan(m, plan):
    """Assert that `plan` is a power-feasible forest within the budget with
    the optimum rupture and cost of :func:`power_subset_optimum`."""
    assert plan.total_cost <= m.effective_budget + BUDGET_TOL
    assert response._power_ok(plan.selected, m.component_class)
    # a forest: each selected pair merges two groups
    assert len(plan.selected) == m.partition.count - plan.merged_partition.count
    assert (plan.rupture, round(plan.total_cost, 9)) == power_subset_optimum(m)
