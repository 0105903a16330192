"""Instance/result serialization and text export of the full MIP
formulations for external cross-checking.

The instance format is line-oriented with explicit section headers so
fixtures stay diff-able; every format carries a version tag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations, compress, islice
from operator import lt
from typing import Optional, Sequence

from .attack import AttackResult
from .errors import InputError, SizeLimitError
from .graph import NODE_CLASSES, ComponentPartition, Graph, components
from .response import (
    HAS_GENERATOR,
    LOAD_ONLY,
    ReconstructionPlan,
    classify_components,
    mceic_matrix,
)

INSTANCE_FORMAT = "rupturekit-instance"
INSTANCE_VERSION = 1
RESULT_SCHEMA = "rupturekit-result/1"
MIP_FORMAT_VERSION = 1

ATTACK_TYPES = ("targeted", "designated", "random", "distributed")

EXPORT_EPSILON = 1e-3
EXPORT_MAX_ROWS = 2_000_000
# the response's r7i rows each carry a whole component-pair bridge, so their
# terms grow with the square of the rows; 2 x 47-node components fit
EXPORT_MAX_BRIDGE_TERMS = 10_000_000


class InstanceFormatError(InputError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class InstanceFile:
    n: int
    edges: tuple[tuple[int, int], ...]
    attack_cost: tuple[float, ...]
    link_cost: dict[tuple[int, int], float]
    node_class: Optional[tuple[str, ...]] = None
    budget_attack: Optional[float] = None
    budget_response: Optional[float] = None   # math.inf = unlimited
    attack_type: str = "targeted"
    attack_nodes: tuple[int, ...] = ()        # X for designated/random,
                                              # attackable set for distributed
    _graph: Optional[Graph] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        if self.attack_type not in ATTACK_TYPES:
            raise InputError(f"unknown attack type {self.attack_type!r}")
        if self.given_cut and not self.attack_nodes:
            raise InputError(f"{self.attack_type} attack requires a node set")
        for v in self.attack_nodes:
            if not (1 <= v <= self.n):
                raise InputError(f"attack node {v} out of range")
        # the export writes the budgets into its rows without building a model
        if self.budget_attack is not None and not (
                math.isfinite(self.budget_attack) and self.budget_attack >= 0):
            raise InputError("attack budget must be finite and nonnegative")
        if self.budget_response is not None and (
                math.isnan(self.budget_response) or self.budget_response < 0):
            raise InputError("response budget must be nonnegative or math.inf")

    @property
    def given_cut(self) -> bool:
        """True when the attack names its removal set (designated or
        random), which stage one then scores instead of solving."""
        return self.attack_type in ("designated", "random")

    def to_graph(self) -> Graph:
        """The graph `parse_instance` built, else one `Graph(...)` checks."""
        if self._graph is not None:
            return self._graph
        return Graph(self.n, self.edges, self.attack_cost, self.link_cost,
                     self.node_class)

    def attackable_nodes(self) -> frozenset[int]:
        if self.attack_type == "distributed":
            return frozenset(self.attack_nodes)
        return frozenset(range(1, self.n + 1))


# the three lines that open an instance, in order: each word of a usage is
# one field, which must read as written or, for <count>, be a decimal count
_OPENING = (f"FORMAT {INSTANCE_FORMAT} {INSTANCE_VERSION}", "NODES <count>",
            "EDGES <count>")


def parse_instance(text: str) -> InstanceFile:
    """Strict parser with line-numbered errors; it also builds the graph.

    After the `FORMAT`, `NODES` and `EDGES` lines, a line that starts with
    an upper-case letter is a section header, which must be one of the
    exact names and appear once; every other line up to `END` (`#` starts
    a comment) is a row of the section opened last, `EDGES` first.  Each
    row is checked for its section's width, and each token goes through a
    line-agnostic reader (`parse_node`, `parse_cost`, `parse_budget`) whose
    error gets the row's line number here.

    A bulk section (EDGES, ATTACK_COSTS, LINK_COSTS) is split once as a
    block of stripped lines and taken by columns if they, joined again,
    give the block back; the columns are checked as wholes.  Else it is
    read row by row, which reports its first bad row; sections go in file
    order, so the first error in the file is the one reported.

    These make every check of `Graph.__init__` (its docstring says which),
    so the graph is built here, once, by `Graph.from_checked`.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    bare = list(map(str.strip, lines))  # a blank line is empty
    try:
        end = bare.index("END")
    except ValueError:
        raise InstanceFormatError(len(lines), "unexpected end of file") from None
    # the first three nonblank lines, then END, where a missing one shows
    opening = [*islice(compress(range(end), bare), 3), end]
    for k, usage in zip(opening, _OPENING):
        words, fields = usage.split(), bare[k].split()
        if len(fields) != len(words) or not all(
                f.isdecimal() if w == "<count>" else f == w
                for w, f in zip(words, fields)):
            raise InstanceFormatError(k + 1, f"expected '{usage}'")
    n_ln, m_ln = opening[1] + 1, opening[2] + 1
    n, m = int(bare[n_ln - 1].split()[1]), int(bare[m_ln - 1].split()[1])
    if n < 1:
        raise InstanceFormatError(n_ln, "node count must be >= 1")

    edges: list[tuple[int, int]] = []
    attack_cost: dict[int, float] = {}
    link_cost: dict[tuple[int, int], float] = {}
    node_class: dict[int, str] = {}
    budget: dict[str, float] = {}
    attack: list[tuple[str, tuple[int, ...]]] = []

    def edge(i, j):
        i, j = parse_node(i, n), parse_node(j, n)
        if i == j:
            raise InputError(f"self-loop at node {i}")
        edges.append((min(i, j), max(i, j)))

    def attack_cost_row(v, c):
        attack_cost[parse_node(v, n)] = parse_cost(c, "attack cost")

    def link_cost_row(i, j, d):
        i, j = parse_node(i, n), parse_node(j, n)
        if i == j:
            raise InputError("link cost pair must be distinct nodes")
        d = parse_cost(d, "link cost")
        key = (min(i, j), max(i, j))
        if abs(link_cost.get(key, d) - d) > 1e-9:
            raise InputError(f"asymmetric link cost for pair {key[0]}-{key[1]}")
        link_cost[key] = d

    def class_row(v, cls):
        v = parse_node(v, n)
        if cls not in NODE_CLASSES:
            raise InputError(f"unknown node class {cls!r}")
        node_class[v] = cls

    def budget_row(key, token):
        if key not in ("attack", "response"):
            raise InputError(f"unknown budget {key!r}")
        # only the response budget may be unlimited
        read = parse_budget if key == "response" else parse_cost
        budget[key] = read(token, f"{key} budget")

    def attack_row(kind, *nodes):
        if kind not in ATTACK_TYPES:
            raise InputError(f"unknown attack type {kind!r}")
        if kind == "targeted" and nodes:
            raise InputError("targeted attack takes no node list")
        if kind != "targeted" and not nodes:
            raise InputError(f"{kind} attack needs a node list")
        attack.append((kind, tuple(parse_node(v, n) for v in nodes)))

    # Column readers of the bulk sections: each raises KeyError or
    # ValueError, changing nothing, where a row reader would raise.  Nodes
    # are the decimals 1..n; other spellings (07), pairs not written i < j
    # and repeated link-cost pairs are left to the rows too.
    node_of = dict(zip(map(str, range(1, n + 1)), range(1, n + 1)))

    def nodes(col):
        return list(map(node_of.__getitem__, col))  # or KeyError

    def pairs(i, j):
        i, j = nodes(i), nodes(j)
        if not all(map(lt, i, j)):
            raise ValueError
        return zip(i, j)

    def costs(col):
        # a nan or inf makes the sum non-finite; a sum that overflows
        # only sends the section to the rows
        col = list(map(float, col))
        if not math.isfinite(sum(col)) or min(col, default=0.0) < 0:
            raise ValueError
        return col

    def link_cost_columns(i, j, d):
        # link_cost is still empty: the section appears once
        link_cost.update(zip(pairs(i, j), costs(d)))
        if len(link_cost) < len(d):  # a repeated pair
            link_cost.clear()
            raise ValueError

    sections = {  # header -> (fields per row, None for any; row reader;
                  # column reader or None)
        "EDGES": (2, edge, lambda i, j: edges.extend(pairs(i, j))),
        "ATTACK_COSTS": (2, attack_cost_row, lambda v, c: attack_cost.update(
            zip(nodes(v), costs(c)))),
        "LINK_COSTS": (3, link_cost_row, link_cost_columns),
        "CLASSES": (2, class_row, None), "BUDGETS": (2, budget_row, None),
        "ATTACK": (None, attack_row, None),
    }

    def read_section(name, start, stop):
        width, read, read_columns = sections[name]
        if read_columns is not None:
            block = "\n".join(bare[start:stop])
            tokens = block.split()
            cols = [tokens[c::width] for c in range(width)]
            if "\n".join(map(" ".join, zip(*cols))) == block:
                try:
                    return read_columns(*cols)
                except (KeyError, ValueError):
                    pass  # the rows name the fault, or read the layout
        ln = 0
        try:
            for ln, line in enumerate(bare[start:stop], start + 1):
                fields = line.split()
                if not fields:
                    continue
                if width is not None and len(fields) != width:
                    raise InputError(
                        f"{name} row needs {width} fields, got {len(fields)}")
                read(*fields)
        except InputError as exc:
            raise InstanceFormatError(ln, str(exc)) from None

    # section headers: the lines after the opening whose first token starts
    # with an upper-case letter
    heads = [k for k in range(m_ln, end) if bare[k][:1].isupper()]
    seen = {"EDGES": m_ln}
    name, start = "EDGES", m_ln
    for k in heads:
        read_section(name, start, k)
        name = " ".join(bare[k].split())
        if name not in sections:
            raise InstanceFormatError(k + 1, f"unknown section {name!r}")
        if name in seen:
            raise InstanceFormatError(k + 1, f"repeated section {name}")
        seen[name] = k + 1
        start = k + 1
    read_section(name, start, end)
    if len(edges) != m:
        raise InstanceFormatError(m_ln, f"EDGES declares {m} edges, found {len(edges)}")
    if "ATTACK" in seen and len(attack) != 1:
        raise InstanceFormatError(seen["ATTACK"], "ATTACK takes one row")
    attack_type, attack_nodes = attack[0] if attack else ("targeted", ())

    graph = Graph.from_checked(
        n, edges, tuple(attack_cost.get(v, 1.0) for v in range(1, n + 1)),
        link_cost, tuple(node_class.get(v, "load") for v in range(1, n + 1))
        if "CLASSES" in seen else None)
    inst = InstanceFile(n, graph.edges, graph.attack_cost, link_cost,
                        graph.node_class, budget.get("attack"),
                        budget.get("response"), attack_type, attack_nodes)
    object.__setattr__(inst, "_graph", graph)
    return inst


def parse_node(token: str, n: int) -> int:
    """`token` as a node of 1..n."""
    try:
        v = int(token)
    except ValueError:
        raise InputError(f"bad node {token!r}") from None
    if not 1 <= v <= n:
        raise InputError(f"node {v} out of range 1..{n}")
    return v


def parse_cost(token: str, what: str) -> float:
    """`token` as a finite nonnegative number; float() alone also takes
    nan and inf."""
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InputError(f"bad {what} {token!r}")
    if value < 0:
        raise InputError(f"{what} must be nonnegative")
    return value


def parse_budget(token: str, what: str = "budget") -> float:
    """A cost, or math.inf for `unlimited`."""
    return math.inf if token == "unlimited" else parse_cost(token, what)


def emit_instance(inst: InstanceFile) -> str:
    """Canonical emitter: fixed section order, sorted entries, 6-digit
    costs; parse(emit(x)) == x and emit is idempotent on canonical text."""
    out = [f"FORMAT {INSTANCE_FORMAT} {INSTANCE_VERSION}"]
    out.append(f"NODES {inst.n}")
    out.append(f"EDGES {len(inst.edges)}")
    for i, j in sorted(inst.edges):
        out.append(f"{i} {j}")
    out.append("ATTACK_COSTS")
    for v in range(1, inst.n + 1):
        out.append(f"{v} {inst.attack_cost[v - 1]:.6f}")
    if inst.link_cost:
        out.append("LINK_COSTS")
        for (i, j), d in sorted(inst.link_cost.items()):
            out.append(f"{i} {j} {d:.6f}")
    if inst.node_class is not None:
        out.append("CLASSES")
        for v in range(1, inst.n + 1):
            out.append(f"{v} {inst.node_class[v - 1]}")
    if inst.budget_attack is not None or inst.budget_response is not None:
        out.append("BUDGETS")
        if inst.budget_attack is not None:
            out.append(f"attack {inst.budget_attack:.6f}")
        if inst.budget_response is not None:
            if math.isinf(inst.budget_response):
                out.append("response unlimited")
            else:
                out.append(f"response {inst.budget_response:.6f}")
    out.append("ATTACK")
    if inst.attack_nodes:
        out.append(inst.attack_type + " " + " ".join(str(v) for v in sorted(inst.attack_nodes)))
    else:
        out.append(inst.attack_type)
    out.append("END")
    return "\n".join(out) + "\n"


# -- result serialization ----------------------------------------------------


def result_to_dict(
    instance_name: str,
    attack: Optional[AttackResult] = None,
    plan: Optional[ReconstructionPlan] = None,
    dynamic: Optional[AttackResult] = None,
    notes: Optional[Sequence[str]] = None,
) -> dict:
    def attack_dict(res: Optional[AttackResult]) -> Optional[dict]:
        if res is None:
            return None
        d: dict = {"status": res.status, "stats": res.stats.to_dict()}
        if res.cut is not None and res.score is not None:
            d.update(
                cut=sorted(res.cut.nodes),
                rupture=res.score.rupture,
                resilience=res.score.resilience,
                largest_component=res.score.largest,
                component_count=res.score.count,
                components=[list(c) for c in res.partition.components],
            )
        return d

    return {
        "schema": RESULT_SCHEMA,
        "instance": instance_name,
        "attack": attack_dict(attack),
        "response": plan.to_dict() if plan is not None else None,
        "dynamic_worst": attack_dict(dynamic),
        "cut_audit": [],
        "notes": list(notes) if notes else [],
    }


def result_to_json(*args, **kwargs) -> str:
    return json.dumps(result_to_dict(*args, **kwargs), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


# -- MIP export --------------------------------------------------------------


def _fmt(coef: float) -> str:
    return f"{coef:.6f}"


def _expr(terms: Sequence[tuple[float, str]], constant: float = 0.0) -> str:
    """Signed terms joined as LP text; a unit coefficient is left out and
    the constant always shows its magnitude."""
    parts = [
        f"{'+-'[c < 0]} {v}" if abs(c) == 1 else f"{'+-'[c < 0]} {abs(c):.6f} {v}"
        for c, v in terms if c != 0]
    if constant != 0:
        parts.append(f"{'+-'[constant < 0]} {abs(constant):.6f}")
    text = " ".join(parts)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


class _LpWriter:
    def __init__(self, sense: str, header: Sequence[str]):
        self.sense = sense
        self.header = list(header)
        self.obj: str = "0"
        self.rows: list[str] = []  # an entry may hold several lines
        self.bounds: list[str] = []
        self.binaries: list[str] = []
        self.generals: list[str] = []

    def objective(self, terms, constant=0.0):
        self.obj = _expr(terms, constant)

    def row(self, name: str, terms, op: str, rhs: float):
        self.rows.append(f" {name}: {_expr(terms)} {op} {_fmt(rhs)}")

    def render(self) -> str:
        out = [f"\\ {h}" for h in self.header]
        out += [self.sense, f" obj: {self.obj}", "Subject To"]
        out += self.rows
        for title, names in (("Bounds", self.bounds), ("Binaries", self.binaries),
                             ("Generals", self.generals)):
            if names:
                out.append(f"{title}\n " + "\n ".join(names))
        out.append("End\n")  # the text's final newline
        return "\n".join(out)


def export_row_count(which: str, n: int, part: Optional[ComponentPartition] = None,
                     loads: int = 0) -> int:
    """Rows under `Subject To` in the export, known before any text is
    built: from `n` for the attack, from the surviving components `part`
    for the response, and for the reduced model also from the number of
    load-only components that get a power row."""
    if which == "attack":
        return 4 * n + 1 + math.comb(n, 2) * (2 * n + 2)
    s, r = part.count, sum(part.sizes)
    if which == "response":
        cross_pairs = (r * r - sum(k * k for k in part.sizes)) // 2
        return 3 * s + 2 + r * r + cross_pairs * (3 * s + 2)
    return 2 * s + 2 + math.comb(loads, 2)


def _check_rows(rows: int) -> None:
    if rows > EXPORT_MAX_ROWS:
        raise SizeLimitError(f"{rows} rows exceed the export cap {EXPORT_MAX_ROWS}")


def response_bridge_terms(part: ComponentPartition) -> int:
    """Terms in the response export's r7i rows.  A component pair with
    p = |V_m|·|V_n| node pairs has 2p such rows, each holding the p-link
    bridge and one q variable: 2·p·(p+1) terms."""
    return sum(2 * p * (p + 1)
               for p in (a * b for a, b in combinations(part.sizes, 2)))


def export_mip(
    inst: InstanceFile,
    which: str,
    cut: Optional[Sequence[int]] = None,
    power: bool = False,
) -> str:
    """Render the chosen formulation as deterministic LP-style text.

    `which` is one of 'attack', 'response', 'reduced'; the latter two
    require the realized cut set to derive the surviving components, and
    only 'reduced' takes the power rule.
    """
    if which not in ("attack", "response", "reduced"):
        raise InputError(f"unknown formulation {which!r}")
    if power and which != "reduced":
        raise InputError(f"{which} export takes no power constraint")
    if which == "attack":
        if cut is not None:
            raise InputError("attack export takes no cut set")
        return _export_attack(inst)
    if cut is None:
        raise InputError(f"{which} export requires the realized cut set")
    cut = sorted(set(cut))
    g = inst.to_graph()
    part = components(g, cut)
    if which == "response":
        return _export_response(inst, cut, part)
    return _export_reduced(inst, g, cut, part, power)


def _export_attack(inst: InstanceFile) -> str:
    n = inst.n
    _check_rows(export_row_count("attack", n))
    nodes = range(1, n + 1)  # the nodes, and one potential component per node
    g = inst.to_graph()
    attackable = inst.attackable_nodes()
    w = _LpWriter("Maximize", [
        f"rupturekit mip export v{MIP_FORMAT_VERSION}",
        "formulation: attack",
        f"attack_type: {inst.attack_type}",
    ])
    # each name is formatted once: v[i][c - 1] is v_i_c, y[i][j - 1] is
    # y_i_j (y_i_i is never written) and on_c[c][i - 1] is v_i_c again
    v = [[]] + [[f"v_{i}_{c}" for c in nodes] for i in nodes]
    y = [[]] + [[f"y_{i}_{j}" for j in nodes] for i in nodes]
    y_off = [[]] + [y[i][:i - 1] + y[i][i:] for i in nodes]  # j != i
    on_c = [[]] + [[v[i][c - 1] for i in nodes] for c in nodes]

    # Rows whose coefficients are all +-1 are written as the lines _expr would
    # render, joined from the names above; only r4f, whose coefficients are
    # the attack costs, goes through w.row.
    w.obj = (" + ".join([x for i in nodes for x in v[i]]) + " - alphaA + "
             + " + ".join(f"bA_{c}" for c in nodes) + f" - {_fmt(n)}")
    rows = w.rows
    for i in nodes:
        # intact nodes stay active: the assignment row becomes an equality
        name, op = (f"r4b_{i}", "<=") if i in attackable else (f"r20b_{i}", "=")
        rows.append(f" {name}: {' + '.join(v[i])} {op} 1.000000")
    rows.extend(f" r4c_{c}: {' + '.join(on_c[c])} - alphaA <= 0.000000"
                for c in nodes)
    rows.extend(f" r4d_{c}: bA_{c} - {' - '.join(on_c[c])} <= 0.000000"
                for c in nodes)
    # r4e's v coefficient is -(n - 1): bare at n = 2, and zero at n = 1,
    # which leaves the row no term, so _expr prints 0
    scale = "" if n == 2 else f"{_fmt(n - 1.0)} "
    for i in nodes:
        lhs = " + ".join(y_off[i])
        lhs += "".join(f" - {scale}{x}" for x in v[i]) if n > 1 else "0"
        rows.append(f" r4e_{i}: {lhs} <= 0.000000")
    budget = inst.budget_attack if inst.budget_attack is not None else 0.0
    w.row("r4f", [(-inst.attack_cost[i - 1], x) for i in nodes for x in v[i]],
          "<=", budget - sum(inst.attack_cost))
    rows.extend(f" r4g_{i}_{j}: {y[i][j - 1]} - {y[j][i - 1]} = 0.000000"
                for i, j in combinations(nodes, 2))
    # The r4h, r4i and r4j rows of a pair i > j depend only on whether i and
    # j are adjacent.  Each kind's 2n + 1 lines are rendered once, with the
    # control characters \x01 and \x02, which LP text never holds, standing
    # for i and j.  Per node i, each kind is filled in with i and split at
    # j's places; every pair j < i then joins its kind's pieces with j, as
    # one multi-line entry of w.rows.
    yij = "y_\x01_\x02"
    vi = [f"v_\x01_{c}" for c in nodes]
    vj = [f"v_\x02_{c}" for c in nodes]
    adjacent = [f" r4h_\x01_\x02: {' + '.join(vi + vj)} - {yij} <= 1.000000"]
    apart = [f" r4h_\x01_\x02: -{yij} <= 0.000000"]
    for c, xi, xj in zip(nodes, vi, vj):
        adjacent.append(f" r4i_\x01_\x02_{c}: {yij} + {xi} - {xj} <= 1.000000")
        adjacent.append(f" r4j_\x01_\x02_{c}: {yij} - {xi} + {xj} <= 1.000000")
        apart.append(f" r4i_\x01_\x02_{c}: {yij} <= 0.000000")
        apart.append(f" r4j_\x01_\x02_{c}: {yij} <= 0.000000")
    adjacent, apart = "\n".join(adjacent), "\n".join(apart)
    labels = [str(j) for j in nodes]
    for i, label, nbrs in zip(nodes, labels, g._adj[1:]):
        pieces = (apart.replace("\x01", label).split("\x02"),
                  adjacent.replace("\x01", label).split("\x02"))
        rows.extend(j.join(pieces[nbrs >> k & 1])
                    for k, j in enumerate(labels[:i - 1]))

    for names in v[1:] + y_off[1:]:
        w.binaries += names
    w.binaries.extend(f"bA_{c}" for c in nodes)
    w.generals.append("alphaA")
    return w.render()


def _export_response(inst: InstanceFile, cut: list[int],
                     part: ComponentPartition) -> str:
    s = part.count
    if s == 0:
        raise InputError("response export needs a surviving node")
    _check_rows(export_row_count("response", inst.n, part))
    terms = response_bridge_terms(part)
    if terms > EXPORT_MAX_BRIDGE_TERMS:
        raise SizeLimitError(f"{terms} r7i terms exceed the export cap "
                             f"{EXPORT_MAX_BRIDGE_TERMS}")
    n_r = sorted(set(range(1, inst.n + 1)).difference(cut))
    big_m = float(inst.n + 1)
    eps = EXPORT_EPSILON
    budget = inst.budget_response
    if budget is None or math.isinf(budget):
        budget = sum(inst.link_cost.values())  # effectively non-binding
    w = _LpWriter("Minimize", [
        f"rupturekit mip export v{MIP_FORMAT_VERSION}",
        "formulation: response",
        f"cut: {' '.join(str(v) for v in cut)}",
    ])
    v = {i: [f"vR_{i}_{c}" for c in range(1, s + 1)] for i in n_r}  # v[i][c - 1]

    obj = [(-1.0, "alphaR")]
    obj.extend((1.0, f"bR_{c}") for c in range(1, s + 1))
    obj.extend((eps, f"tR_{c}") for c in range(1, s + 1))
    w.objective(obj, constant=-float(len(cut)))

    for c in range(1, s + 1):
        w.row(f"r7b_lo_{c}",
              [(1.0, v[i][c - 1]) for i in n_r] + [(-1.0, "alphaR")], "<=", 0.0)
        w.row(f"r7b_hi_{c}",
              [(1.0, "alphaR")] + [(-1.0, v[i][c - 1]) for i in n_r]
              + [(big_m, f"tR_{c}")], "<=", big_m)
    w.row("r7c", [(1.0, f"tR_{c}") for c in range(1, s + 1)], ">=", 1.0)
    for i in n_r:
        w.row(f"r7d_{i}", [(1.0, x) for x in v[i]], "=", 1.0)
    for c in range(1, s + 1):
        w.row(f"r7e_{c}",
              [(1.0, v[i][c - 1]) for i in n_r] + [(-float(len(n_r)), f"bR_{c}")],
              "<=", 0.0)
    budget_terms = []
    for i, j in combinations(n_r, 2):
        d = inst.link_cost.get((i, j))
        if d is not None:
            budget_terms.append((d, f"yR_{i}_{j}"))
    w.row("r7f", budget_terms, "<=", budget)
    # the unit-coefficient row families are written as their LP lines
    rows = w.rows
    for i, j in combinations(n_r, 2):
        rows.append(f" r7g_{i}_{j}: yR_{i}_{j} - yR_{j}_{i} = 0.000000")
        rows.append(f" r7h_{i}_{j}: qR_{i}_{j} - qR_{j}_{i} = 0.000000")
    for cm, cn in combinations(range(1, s + 1), 2):
        vm, vn = part.components[cm - 1], part.components[cn - 1]
        bridge = [(1.0, f"yR_{u}_{wv}") for u in vm for wv in vn]
        for i in vm:
            for j in vn:
                q = f"qR_{i}_{j}"
                w.row(f"r7i_lo_{cm}_{cn}_{i}_{j}",
                      [(1.0, q)] + [(-c, var) for c, var in bridge], "<=", 0.0)
                w.row(f"r7i_hi_{cm}_{cn}_{i}_{j}",
                      bridge + [(-big_m, q)], "<=", 0.0)
                for k, vi, vj in zip(range(1, s + 1), v[i], v[j]):
                    rows.append(f" r7j_{i}_{j}_{k}: {vi} + {vj} - {q} <= 1.000000")
                    rows.append(f" r7k_{i}_{j}_{k}: {q} + {vi} - {vj} <= 1.000000")
                    rows.append(f" r7l_{i}_{j}_{k}: {q} - {vi} + {vj} <= 1.000000")

    for i in n_r:
        w.binaries.extend(v[i])
    w.binaries.extend(f"yR_{i}_{j}" for i in n_r for j in n_r if i != j)
    w.binaries.extend(f"qR_{i}_{j}" for i in n_r for j in n_r if i != j)
    w.binaries.extend(f"bR_{c}" for c in range(1, s + 1))
    w.binaries.extend(f"tR_{c}" for c in range(1, s + 1))
    w.generals.append("alphaR")
    return w.render()


def _export_reduced(inst: InstanceFile, g: Graph, cut: list[int],
                    part: ComponentPartition, power: bool) -> str:
    s = part.count
    if s < 2:
        raise InputError("reduced export needs a disconnected attacked network")
    classes = classify_components(g, part) if power else ()
    gens = [m for m, label in enumerate(classes, 1) if label == HAS_GENERATOR]
    loads = [m for m, label in enumerate(classes, 1) if label == LOAD_ONLY]
    _check_rows(export_row_count("reduced", inst.n, part, len(loads)))
    # the link vector: xhat_z is the z-th component pair in combinations order
    xhat = {pair: f"xhat_{z}"
            for z, pair in enumerate(combinations(range(1, s + 1), 2), 1)}
    mc = mceic_matrix(g, part)
    big_m = float(inst.n + 1)
    eps = EXPORT_EPSILON
    budget = inst.budget_response
    if budget is None or math.isinf(budget):
        budget = sum(mc.cost.values())
    w = _LpWriter("Minimize", [
        f"rupturekit mip export v{MIP_FORMAT_VERSION}",
        "formulation: reduced",
        f"cut: {' '.join(str(v) for v in cut)}",
    ])

    obj = [(-1.0, "alphaR")]
    obj.extend((-1.0, name) for name in xhat.values())
    obj.extend((eps, f"tR_{m}") for m in range(1, s + 1))
    w.objective(obj, constant=float(s - len(cut)))

    w.row("r19b", [(1.0, f"tR_{m}") for m in range(1, s + 1)], ">=", 1.0)
    sizes = part.sizes
    for m in range(1, s + 1):
        cross = [(float(sizes[nn - 1]), xhat[min(m, nn), max(m, nn)])
                 for nn in range(1, s + 1) if nn != m]
        w.row(f"r19c_lo_{m}",
              cross + [(-1.0, "alphaR")], "<=", -float(sizes[m - 1]))
        w.row(f"r19c_hi_{m}",
              [(1.0, "alphaR")] + [(-c, var) for c, var in cross]
              + [(big_m, f"tR_{m}")], "<=", big_m + float(sizes[m - 1]))
    w.row("r19d",
          [(mc.cost[pair], name) for pair, name in xhat.items()],
          "<=", budget)
    for m, nn in combinations(loads, 2):
        terms = [(1.0, xhat[m, nn])]
        for i in gens:
            terms.append((-1.0, xhat[min(m, i), max(m, i)]))
            terms.append((-1.0, xhat[min(nn, i), max(nn, i)]))
        w.row(f"r21_{m}_{nn}", terms, "<=", 0.0)

    w.binaries.extend(xhat.values())
    for m in range(1, s + 1):
        w.binaries.append(f"tR_{m}")
    w.bounds.append("alphaR >= 0")
    return w.render()
