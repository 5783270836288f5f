"""SPICE-subset netlist parser and modified-nodal-analysis assembly.

Grammar (line oriented; `*` starts a comment line; blank lines ignored)::

    element   = name node node [value] {key "=" value-or-variation}
    name      = letter {letter | digit | "_"}     first letter picks the kind
    kinds     = R C L V I D M    (M takes three nodes: drain gate source)
    value     = number [suffix]                    suffix: f p n u m k meg g
    variation = ["relative:"] family "(" number {"," number} ")"
    family    = gauss | gaussian | uniform | gamma | beta
    directive = ".op" | ".tran" step stop | ".end"

`variation=` attaches to the element's principal parameter (r, c, l, dc, or
is for diodes); `variation.<param>=` names the parameter explicitly.
Relative variations multiply the nominal value; absolute ones replace it;
source values (V, I) cannot vary.  Every diagnostic, the structural checks
included (no node but ground, a dangling node, a subnetwork with no path
to ground, a loop of voltage sources, a parameter varied twice), comes
from parse_netlist in the format "file:line:col: message".

Elaboration builds a StochasticDae by full modified nodal analysis: one
unknown per non-ground node plus one branch current per voltage source and
per inductor.  Capacitor charges and inductor fluxes go to q; resistive and
nonlinear currents go to f, and the source values are subtracted from it as
its last step, so f is the whole residual d q/dt + f = 0.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from .polychaos import FAMILIES, Distribution, _Immutable
from .models import StochasticDae, shockley_current, mosfet_current

__all__ = [
    "NetlistError",
    "Element",
    "Variation",
    "Analysis",
    "Netlist",
    "parse_netlist",
    "elaborate",
]

GROUND = "0"

_SUFFIX = {"f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6,
           "m": 1e-3, "k": 1e3, "meg": 1e6, "g": 1e9}

_NUMBER_RE = re.compile(
    r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(meg|f|p|n|u|m|k|g)?",
    re.IGNORECASE)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NODE_RE = re.compile(r"[A-Za-z0-9_]+")

# principal parameter per kind, positional value requirement, allowed keys
_KIND_INFO = {
    "R": ("r", True, ()),
    "C": ("c", True, ()),
    "L": ("l", True, ()),
    "V": ("dc", True, ()),
    "I": ("dc", True, ()),
    "D": ("is", False, ("is", "nvt")),
    "M": ("kp", False, ("kp", "vth", "lam")),
}

_KIND_DEFAULTS = {
    "D": {"is": 1e-9, "nvt": 0.02585},
    "M": {"lam": 0.0},
}

# variation family spelling -> distribution kind; printing uses the first
# spelling of a kind
_SPELLINGS = {"gauss": "gaussian", **{kind: kind for kind in FAMILIES}}


class NetlistError(ValueError):
    """Parse failure; message is 'file:line:col: reason'."""


class Element(_Immutable):
    kind: str
    name: str
    nodes: tuple[str, ...]
    params: dict
    line: int
    col: int

    def __init__(self, kind, name, nodes, params, line=0, col=0):
        self.__dict__.update(kind=kind, name=name, nodes=nodes,
                             params=params, line=line, col=col)


class Variation(_Immutable):
    element: str
    param: str
    distribution: Distribution
    mode: str  # "absolute" | "relative"

    def __init__(self, element, param, distribution, mode):
        self.__dict__.update(element=element, param=param,
                             distribution=distribution, mode=mode)


class Analysis(_Immutable):
    kind: str
    args: tuple

    def __init__(self, kind, args=()):
        self.__dict__.update(kind=kind, args=args)


class Netlist(_Immutable):
    elements: tuple
    variations: tuple
    analyses: tuple

    def __init__(self, elements, variations, analyses):
        self.__dict__.update(elements=elements, variations=variations,
                             analyses=analyses)


def _parse_value(token: str, where: Callable[[], str]) -> float:
    m = _NUMBER_RE.fullmatch(token)
    if m is None:
        raise NetlistError(where() + f" invalid number '{token}'")
    v = float(m.group(1))
    if m.group(2):
        v *= _SUFFIX[m.group(2).lower()]
    return v


def _parse_variation(value: str, where: Callable[[], str]):
    mode = "absolute"
    body = value
    if body.startswith("relative:"):
        mode = "relative"
        body = body[len("relative:"):]
    m = re.fullmatch(r"([A-Za-z]+)\(([^()]*)\)", body)
    if m is None or m.group(1).lower() not in _SPELLINGS:
        raise NetlistError(
            where() + f" malformed variation '{value}' (expected "
            "[relative:]family(args) with family one of "
            + ", ".join(_SPELLINGS) + ")")
    family = m.group(1).lower()
    args = [_parse_value(a.strip(), where)
            for a in m.group(2).split(",") if a.strip()]

    closed_forms = FAMILIES[_SPELLINGS[family]]
    k = len(closed_forms.params)
    if len(args) != k:
        raise NetlistError(
            where() + f" {family} takes {k} arguments, got {len(args)}")
    try:
        return closed_forms.make(*args), mode
    except ValueError as err:   # a parameter out of the family's range
        raise NetlistError(where() + f" {err}") from err


def parse_netlist(text: str, filename: str = "<netlist>") -> Netlist:
    elements: list[Element] = []
    variations: list[Variation] = []
    analyses: list[Analysis] = []
    seen_names: dict[str, int] = {}
    varied: set[tuple[str, str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith("*"):
            continue
        # token list with 1-based column positions
        tokens = [(m.start() + 1, m.group())
                  for m in re.finditer(r"\S+", line)]

        def at(col):
            return f"{filename}:{lineno}:{col}:"

        first_col, first = tokens[0]
        if first.startswith("."):
            d = first.lower()
            if d == ".op":
                analyses.append(Analysis("op"))
            elif d == ".tran":
                if len(tokens) != 3:
                    raise NetlistError(
                        at(first_col) + " .tran needs two arguments: "
                        "step stop")
                step = _parse_value(tokens[1][1], lambda c=tokens[1][0]: at(c))
                stop = _parse_value(tokens[2][1], lambda c=tokens[2][0]: at(c))
                analyses.append(Analysis("tran", (step, stop)))
            elif d == ".end":
                break
            else:
                raise NetlistError(at(first_col) + f" unknown directive '{first}'")
            continue

        if not _NAME_RE.fullmatch(first):
            raise NetlistError(at(first_col) + f" invalid element name '{first}'")
        kind = first[0].upper()
        if kind not in _KIND_INFO:
            raise NetlistError(
                at(first_col) + f" unknown element kind '{first[0]}' "
                "(supported: R C L V I D M)")
        if first in seen_names:
            raise NetlistError(
                at(first_col) + f" duplicate element name '{first}' "
                f"(first defined on line {seen_names[first]})")
        seen_names[first] = lineno

        principal, takes_value, extra_keys = _KIND_INFO[kind]
        n_nodes = 3 if kind == "M" else 2
        pos = 1
        nodes = []
        for _ in range(n_nodes):
            if pos >= len(tokens) or "=" in tokens[pos][1]:
                raise NetlistError(
                    at(len(line) + 1) + f" {first}: expected {n_nodes} node "
                    f"names, got {len(nodes)}")
            col, tok = tokens[pos]
            if not _NODE_RE.fullmatch(tok):
                raise NetlistError(at(col) + f" invalid node name '{tok}'")
            nodes.append(tok)
            pos += 1

        params = dict(_KIND_DEFAULTS.get(kind, {}))
        if takes_value:
            if pos >= len(tokens) or "=" in tokens[pos][1]:
                raise NetlistError(
                    at(len(line) + 1) + f" {first}: expected a value "
                    f"(token {pos + 1})")
            col, tok = tokens[pos]
            params[principal] = _parse_value(tok, lambda c=col: at(c))
            pos += 1

        for col, tok in tokens[pos:]:
            if "=" not in tok:
                raise NetlistError(
                    at(col) + f" expected key=value, got '{tok}'")
            key, _, value = tok.partition("=")
            key = key.lower()
            if key == "variation" or key.startswith("variation."):
                param = key.partition(".")[2] or principal
                if kind in ("V", "I") and param == "dc":
                    raise NetlistError(
                        at(col) + f" variations on source values are not "
                        f"supported ({first}); vary passive parameters")
                if (first, param) in varied:
                    raise NetlistError(
                        at(col) + f" parameter '{param}' of {first} carries "
                        "two variation annotations")
                varied.add((first, param))
                dist, mode = _parse_variation(value, lambda c=col: at(c))
                variations.append(Variation(first, param, dist, mode))
            elif key in extra_keys:
                params[key] = _parse_value(value, lambda c=col: at(c))
            else:
                raise NetlistError(
                    at(col) + f" unknown parameter '{key}' for element "
                    f"kind {kind}")

        if kind == "M":
            missing = [k for k in ("kp", "vth") if k not in params]
            if missing:
                raise NetlistError(
                    at(len(line) + 1) + f" {first}: missing required "
                    f"parameter(s) {', '.join(missing)}")
        elements.append(Element(kind, first, tuple(nodes), params,
                                lineno, first_col))

    # cross checks: variations reference real parameters, a node other
    # than ground and ground exist, no node is touched by a single terminal
    # only, no voltage sources form a loop, every node reaches ground
    by_name = {e.name: e for e in elements}
    for var in variations:
        elem = by_name[var.element]
        if var.param not in elem.params:
            raise NetlistError(
                f"{filename}:{elem.line}:{elem.col}: variation references "
                f"unknown parameter '{var.param}' of {elem.name}")

    touched: dict[str, list] = {}
    for e in elements:
        for nd in e.nodes:
            touched.setdefault(nd, []).append(e)
    if set(touched) <= {GROUND}:
        line, col = (elements[0].line, elements[0].col) if elements \
            else (1, 1)
        raise NetlistError(
            f"{filename}:{line}:{col}: no node other than ground "
            f"'{GROUND}': nothing to solve")
    if GROUND not in touched:
        raise NetlistError(
            f"{filename}:1:1: no ground node '{GROUND}' in the circuit")
    for nd, elems in sorted(touched.items()):
        # a single-terminal node is dangling unless its one element ties
        # it straight to ground (a trivial but complete branch)
        if nd != GROUND and len(elems) == 1 and GROUND not in elems[0].nodes:
            e = elems[0]
            raise NetlistError(
                f"{filename}:{e.line}:{e.col}: dangling node '{nd}' "
                f"(only {e.name} touches it)")
    _connectivity_check(elements, filename)

    return Netlist(tuple(elements), tuple(variations), tuple(analyses))


def _connectivity_check(elements: list, filename: str):
    """Union-find over the terminals, the voltage sources first: a source
    whose terminals the sources before it already join closes a loop of
    sources, whose currents no equation fixes.  Then every node must
    reach ground; a failure names the first element that touches a
    floating node."""
    parent: dict[str, str] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for e in sorted(elements, key=lambda e: e.kind != "V"):
        if e.kind == "V" and find(e.nodes[0]) == find(e.nodes[1]):
            raise NetlistError(
                f"{filename}:{e.line}:{e.col}: {e.name} closes a loop of "
                "voltage sources; the structure is singular")
        for nd in e.nodes[1:]:
            union(e.nodes[0], nd)
    root = find(GROUND)
    floating = sorted(nd for nd in parent
                      if nd != GROUND and find(nd) != root)
    if floating:
        e = next(e for e in elements if find(e.nodes[0]) != root)
        raise NetlistError(
            f"{filename}:{e.line}:{e.col}: floating subnetwork: node(s) "
            + ", ".join(floating)
            + f" have no path to ground '{GROUND}'; the structure is "
            "singular")


# ---------------------------------------------------------------------------
# modified nodal analysis


def _incidence(pairs, n: int) -> np.ndarray:
    """(m, n) matrix: +1 at each pair's first index, -1 at its second.

    Index -1 is ground and gets no column.  With it, the branch quantities
    of a group of elements are x @ A.T and their stamps are y @ A.
    """
    A = np.zeros((len(pairs), n))
    for row, (a, b) in enumerate(pairs):
        if a >= 0:
            A[row, a] += 1.0
        if b >= 0:
            A[row, b] -= 1.0
    return A


def _stamps(A: np.ndarray, B: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """(m, len(flat)) stamp table of a group over the flat (n * n) entries
    `flat`: row e holds the outer product of A[e] and B[e] at those entries,
    so g @ table is A.T diag(g) B there, for conductances g (..., m) of the
    group: one gemm per stack."""
    rows, cols = np.divmod(flat, A.shape[1])
    return A[:, rows] * B[:, cols]


def _param_resolver(items, var_plan) -> Callable:
    """Compiles resolved values of (element, parameter) pairs.

    The returned function maps xi (..., d) to the (..., m) values:
    relative variations multiply the nominal value, absolute ones replace
    it, and unvaried parameters keep it.
    """
    base = np.array([e.params[p] for e, p in items], dtype=float)
    plans = [var_plan.get((e.name, p)) for e, p in items]
    if all(plan is None for plan in plans):
        return lambda xi: base
    k = np.array([0 if plan is None else plan[1] for plan in plans])
    rel = np.array([plan is not None and plan[0] == "relative"
                    for plan in plans])
    ab = np.array([plan is not None and plan[0] == "absolute"
                   for plan in plans])
    if rel.all():
        return lambda xi: base * xi[..., k]
    if ab.all():
        return lambda xi: xi[..., k]

    def resolve(xi):
        vals = xi[..., k]
        return np.where(ab, vals, np.where(rel, base * vals, base))

    return resolve


def elaborate(nl: Netlist) -> StochasticDae:
    """Assemble the stochastic DAE by full modified nodal analysis.

    The elements are compiled once into one incidence matrix per element
    group and index arrays into xi, so q, f and their Jacobians evaluate a
    stack of states and parameters in one call each.
    """
    node_index: dict[str, int] = {}
    for e in nl.elements:
        for nd in e.nodes:
            if nd != GROUND and nd not in node_index:
                node_index[nd] = len(node_index)
    n_nodes = len(node_index)

    branch_index: dict[str, int] = {}
    for e in nl.elements:
        if e.kind in ("V", "L"):
            branch_index[e.name] = n_nodes + len(branch_index)
    n = n_nodes + len(branch_index)

    labels = tuple(f"v({nd})" for nd in node_index) + tuple(
        f"i({name})" for name in branch_index)

    # (mode, variation index) per varied (element, parameter)
    var_plan = {(v.element, v.param): (v.mode, k)
                for k, v in enumerate(nl.variations)}
    d = len(nl.variations)
    distributions = tuple(v.distribution for v in nl.variations)

    v_sources = [e for e in nl.elements if e.kind == "V"]
    i_sources = [e for e in nl.elements if e.kind == "I"]

    def idx(node: str) -> int:
        return -1 if node == GROUND else node_index[node]

    # the sources' drive, subtracted from f as its last step: B u, for B
    # the (n, m) incidence of the m sources on their rows, u their values
    B = np.zeros((n, len(v_sources) + len(i_sources)))
    for j, e in enumerate(v_sources):
        B[branch_index[e.name], j] = 1.0
    for j, e in enumerate(i_sources, start=len(v_sources)):
        a, b = idx(e.nodes[0]), idx(e.nodes[1])
        if a >= 0:
            B[a, j] = -1.0
        if b >= 0:
            B[b, j] = 1.0
    src = B @ np.array([e.params["dc"] for e in v_sources + i_sources])

    def group(kind):
        return [e for e in nl.elements if e.kind == kind]

    def terminals(elems, first=0, second=1):
        return [(idx(e.nodes[first]), idx(e.nodes[second])) for e in elems]

    # voltage-source and inductor branch equations are linear and fixed
    G0 = np.zeros((n, n))
    for e in nl.elements:
        if e.kind in ("V", "L"):
            k = branch_index[e.name]
            sgn = 1.0 if e.kind == "V" else -1.0
            for node, s in ((idx(e.nodes[0]), 1.0), (idx(e.nodes[1]), -1.0)):
                if node >= 0:
                    G0[node, k] += s
                    G0[k, node] += s * sgn

    res, dio, mos = group("R"), group("D"), group("M")
    A_r = _incidence(terminals(res), n)
    A_d = _incidence(terminals(dio), n)
    A_gs = _incidence(terminals(mos, 1, 2), n)
    A_ds = _incidence(terminals(mos, 0, 2), n)
    r_val = _param_resolver([(e, "r") for e in res], var_plan)
    d_is = _param_resolver([(e, "is") for e in dio], var_plan)
    d_nvt = _param_resolver([(e, "nvt") for e in dio], var_plan)
    m_kp, m_vth, m_lam = (_param_resolver([(e, p) for e in mos], var_plan)
                          for p in ("kp", "vth", "lam"))

    # charges of capacitors and fluxes of inductors: value * (x @ A.T)
    storage = [e for e in nl.elements if e.kind in ("C", "L")]
    A_q = _incidence([(idx(e.nodes[0]), idx(e.nodes[1])) if e.kind == "C"
                      else (branch_index[e.name], -1) for e in storage], n)
    q_val = _param_resolver([(e, "c" if e.kind == "C" else "l")
                             for e in storage], var_plan)

    # stamp pairs (A, B), one row per conductance; a MOSFET's current moves
    # with gm on its gate-source and gds on its drain-source voltage,
    # stamped at drain and source
    f_pairs = ((A_r, A_r), (A_d, A_d), (A_ds, A_gs), (A_ds, A_ds))
    df_pattern = G0 != 0
    for left, right in f_pairs:
        df_pattern |= np.abs(left).T @ np.abs(right) != 0
    dq_pattern = np.abs(A_q).T @ np.abs(A_q) != 0
    # the stamp tables hold only the pattern's entries, in row-major order
    f_flat, q_flat = np.flatnonzero(df_pattern), np.flatnonzero(dq_pattern)
    S_f = np.concatenate([_stamps(left, right, f_flat)
                          for left, right in f_pairs])
    S_q = _stamps(A_q, A_q, q_flat)
    G0_flat = G0.reshape(-1)[f_flat]

    def jacobian(x, parts, S, flat, const=None):
        """The (..., n, n) Jacobian with conductances `parts` of S's rows,
        each (..., m_i) or (m_i,), from one gemm, plus `const` if given, at
        the stored entries `flat` and zero elsewhere."""
        lead = x.shape[:-1]
        g = np.concatenate([np.broadcast_to(p, lead + np.shape(p)[-1:])
                            for p in parts], axis=-1)
        stamped = g @ S
        out = np.zeros(lead + (n * n,))
        out[..., flat] = stamped if const is None else stamped + const
        return out.reshape(lead + (n, n))

    # every kernel takes x (..., n) and xi (..., d) whose leading axes are
    # equal or absent from xi, and returns arrays with x's leading axes
    def q(x, xi):
        x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
        out = np.zeros(x.shape)
        if storage:
            out += (q_val(xi) * (x @ A_q.T)) @ A_q
        return out

    def dq_dx(x, xi):
        x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
        return jacobian(x, [q_val(xi)], S_q, q_flat)

    def f(x, xi, t):
        x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
        out = x @ G0.T
        if res:
            out += ((1.0 / r_val(xi)) * (x @ A_r.T)) @ A_r
        if dio:
            i_d, _ = shockley_current(x @ A_d.T, d_is(xi), d_nvt(xi))
            out += i_d @ A_d
        if mos:
            i_ds, _, _ = mosfet_current(x @ A_gs.T, x @ A_ds.T,
                                        m_kp(xi), m_vth(xi), m_lam(xi))
            out += i_ds @ A_ds
        out -= src
        return out

    def df_dx(x, xi, t):
        x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
        parts = [1.0 / r_val(xi)]   # an empty group adds no columns
        if dio:
            parts.append(shockley_current(x @ A_d.T, d_is(xi), d_nvt(xi))[1])
        if mos:
            parts += mosfet_current(x @ A_gs.T, x @ A_ds.T, m_kp(xi),
                                    m_vth(xi), m_lam(xi))[1:]
        return jacobian(x, parts, S_f, f_flat, G0_flat)

    return StochasticDae(
        n=n, d=d, distributions=distributions,
        q=q, f=f, dq_dx=dq_dx, df_dx=df_dx,
        x0_guess=np.zeros(n), labels=labels,
        dq_pattern=dq_pattern, df_pattern=df_pattern)
