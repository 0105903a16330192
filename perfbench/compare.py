"""Compare two result sets, parent and change, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --record FILE`` appended, one
JSON object per run.  Untraced runs of the same workload are paired in file
order (run i of the parent with run i of the change), so record them
alternating which side runs first.  For each workload and end-to-end
metric the table gives each side's median and quartiles, the fraction of
pairs the change wins (ties count for neither) and a verdict:

- improved: the change's median is better by more than the parent's own
  quartile spread, the change wins at least nine tenths of the pairs and
  at least ten pairs were run;
- worse: the change's median is worse than the parent's by more than the
  metric's bound from BENCHMARK.json;
- unresolved: a better median that fails the win or pair count, or a
  parent quartile spread wider than the bound, unless every change run
  beats every parent run;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    """Untraced records grouped by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], lower_better: bool,
            bound: float) -> tuple[str, float]:
    """(verdict, win fraction of the change over paired runs)."""
    sign = 1.0 if lower_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    spread = q3 - q1
    worse_by = sign * (med_c - med_p) / med_p
    if sign * (med_c - med_p) < 0 and abs(med_c - med_p) > spread:
        if win_frac >= WIN_SHARE and len(pairs) >= MIN_PAIRS:
            return "improved", win_frac
        return "unresolved", win_frac
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if worse_by > bound:
        if spread / med_p > bound and not all_worse:
            return "unresolved", win_frac
        return "worse", win_frac
    if spread / med_p > bound and not all_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    print("workload  metric  unit  parent(q1/med/q3)  change(q1/med/q3)  "
          "pairs  win  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            v, win = verdict(pv, cv, m["better"] == "lower", m["bound"])
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{workload}  {name}  {m['unit']}  "
                  f"{'/'.join(_fmt(x) for x in pq)}  {'/'.join(_fmt(x) for x in cq)}  "
                  f"{min(len(pv), len(cv))}  {win:.2f}  {v}")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            print(f"{workload}  ops_failed_frac  ratio  {side} {failed}/{attempted}")
    for side, runs in (("parent", parent), ("change", change)):
        stamps = {json.dumps(r["stamp"], sort_keys=True)
                  for recs in runs.values() for r in recs}
        for s in sorted(stamps):
            print(f"# {side} stamp {s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
