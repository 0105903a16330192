"""Parse the LP text of `export_mip` into `scipy.optimize.milp` arrays.

It reads the subset of the LP format that the exporter writes: one
objective line with an optional constant, one row per line (an entry of
the exporter's row list may span several lines), `<=`, `>=` and `=`
rows, `Bounds` lines of the form `name >= value`, and `Binaries` and
`Generals`.  Variables default to `[0, inf)`, as in the LP format.
"""

import re

import numpy as np

TOKEN = re.compile(r"[+-]|[0-9.]+|[A-Za-z_]\w*")
ROW = re.compile(r"^ (\w+): (.*) (<=|>=|=) (\S+)$")


def _terms(expr):
    """({variable: coefficient}, constant) of one expression."""
    coefs, const, sign, num = {}, 0.0, 1.0, None
    for tok in TOKEN.findall(expr):
        if tok in "+-":
            if num is not None:
                const += sign * num
            sign, num = (1.0 if tok == "+" else -1.0), None
        elif tok[0].isdigit():
            num = float(tok)
        else:
            coefs[tok] = coefs.get(tok, 0.0) + sign * (1.0 if num is None else num)
            sign, num = 1.0, None
    if num is not None:
        const += sign * num
    return coefs, const


def parse_lp(text):
    """A dict with `sense`, `names`, `c`, `constant`, `A`, `lb`, `ub` (row
    bounds), `bounds` (per-variable lower and upper) and `integral`."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("\\")]
    sense = lines[0]
    obj, constant = _terms(lines[1].split(":", 1)[1])
    rows, section = [], "Subject To"
    lower, binaries, generals = {}, [], []
    for ln in lines[3:]:
        if not ln.startswith(" "):
            section = ln
        elif section == "Subject To":
            name, expr, op, rhs = ROW.match(ln).groups()
            coefs, const = _terms(expr)
            rhs = float(rhs) - const
            rows.append((coefs, rhs if op != "<=" else -np.inf,
                         rhs if op != ">=" else np.inf))
        elif section == "Bounds":
            var, value = ln.split(">=")
            lower[var.strip()] = float(value)
        else:
            (binaries if section == "Binaries" else generals).append(ln.strip())
    names = sorted({v for coefs, _, _ in rows for v in coefs} | set(obj))
    col = {v: k for k, v in enumerate(names)}
    A = np.zeros((len(rows), len(names)))
    for r, (coefs, _, _) in enumerate(rows):
        for v, a in coefs.items():
            A[r, col[v]] = a
    lo = np.array([lower.get(v, 0.0) for v in names])
    hi = np.full(len(names), np.inf)
    hi[[col[v] for v in binaries]] = 1.0
    integral = np.zeros(len(names))
    integral[[col[v] for v in binaries + generals]] = 1
    return {"sense": sense, "names": names, "col": col,
            "c": np.array([obj.get(v, 0.0) for v in names]),
            "constant": constant, "A": A,
            "lb": np.array([r[1] for r in rows]),
            "ub": np.array([r[2] for r in rows]),
            "bounds": (lo, hi), "integral": integral}


def solve_lp(lp):
    """(objective value in the export's own sense, {variable: value})."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    flip = -1.0 if lp["sense"] == "Maximize" else 1.0
    res = milp(flip * lp["c"], integrality=lp["integral"],
               bounds=Bounds(*lp["bounds"]),
               constraints=LinearConstraint(lp["A"], lp["lb"], lp["ub"]))
    assert res.success, res.message
    return flip * res.fun + lp["constant"], dict(zip(lp["names"], res.x))
