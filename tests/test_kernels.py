"""Compiled model kernels: stacked calls, an element-loop oracle, FD checks.

Elaborated netlists and the diode rectifier evaluate q, f and their
Jacobians on stacks of states and parameters.  Each stacked call must equal
the row-by-row calls, the netlist kernels must equal a per-element stamping
loop written here independently of the compiler, and df_dx must match
central differences of f.  States range over [-3, 6] V so that MOSFETs run
reversed (vds < 0), in cutoff, triode and saturation, and diodes run past
their 40 n_vt knee.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uqsim.models import (_OPAMP_LIKE_NETLIST, _fd_jacobian, builtin_model,
                          mosfet_current, shockley_current)
from uqsim.netlist import GROUND, elaborate, parse_netlist

DIODE_LADDER = """\
V1 n0 0 1.0
R1 n0 n1 1k variation=relative:uniform(0.9,1.1)
D1 n1 0 is=1e-9 variation.is=uniform(5e-10,2e-9)
C1 n1 0 1u
R2 n1 n2 1.2k variation=relative:uniform(0.9,1.1)
D2 n2 0 is=2e-9 nvt=0.03
C2 n2 0 0.8u variation=relative:uniform(0.8,1.2)
D3 n2 n3
R3 n3 0 2k
"""

RLC_SOURCES = """\
I1 0 a 1m
R1 a b 1k variation=gauss(1k,50)
L1 b c 10m variation=relative:uniform(0.9,1.1)
C1 c 0 1u variation=uniform(0.5u,1.5u)
R2 c 0 2k variation=relative:gauss(1,0.05)
V1 d 0 0.5
R3 d c 500
L2 d a 1m
"""

NETLISTS = {"diode-ladder": DIODE_LADDER, "opamp-like": _OPAMP_LIKE_NETLIST,
            "rlc-sources": RLC_SOURCES}
V_RANGE = (-3.0, 6.0)


def element_loop(nl, labels):
    """q, f, dq_dx, df_dx of one state by stamping element after element."""
    pos = {label: k for k, label in enumerate(labels)}
    n = len(labels)
    plan = {(v.element, v.param): (v.mode, k)
            for k, v in enumerate(nl.variations)}

    def node(name):
        return -1 if name == GROUND else pos[f"v({name})"]

    def resolved(e, xi):
        p = dict(e.params)
        for name in p:
            if (e.name, name) in plan:
                mode, k = plan[(e.name, name)]
                p[name] = p[name] * xi[k] if mode == "relative" else xi[k]
        return p

    def evaluate(x, xi):
        F, Q = np.zeros(n), np.zeros(n)
        JF, JQ = np.zeros((n, n)), np.zeros((n, n))

        def v(a, b):
            return (x[a] if a >= 0 else 0.0) - (x[b] if b >= 0 else 0.0)

        def add(vec, mat, rows, cols):
            for r, val in rows:
                if r >= 0:
                    vec[r] += val
            for r, c, val in cols:
                if r >= 0 and c >= 0:
                    mat[r, c] += val

        def two_terminal(vec, mat, a, b, i, g):
            add(vec, mat, [(a, i), (b, -i)],
                [(a, a, g), (a, b, -g), (b, a, -g), (b, b, g)])

        for e in nl.elements:
            p = resolved(e, xi)
            a, b = node(e.nodes[0]), node(e.nodes[1])
            if e.kind == "R":
                g = 1.0 / p["r"]
                two_terminal(F, JF, a, b, g * v(a, b), g)
            elif e.kind == "D":
                i, g = shockley_current(v(a, b), p["is"], p["nvt"])
                two_terminal(F, JF, a, b, i, g)
            elif e.kind == "C":
                two_terminal(Q, JQ, a, b, p["c"] * v(a, b), p["c"])
            elif e.kind in ("V", "L"):
                k = pos[f"i({e.name})"]
                s = 1.0 if e.kind == "V" else -1.0
                add(F, JF, [(a, x[k]), (b, -x[k]), (k, s * v(a, b))],
                    [(a, k, 1.0), (b, k, -1.0), (k, a, s), (k, b, -s)])
                if e.kind == "L":
                    add(Q, JQ, [(k, p["l"] * x[k])], [(k, k, p["l"])])
            elif e.kind == "M":
                d, gate, s = (node(nd) for nd in e.nodes)
                i, gm, gds = mosfet_current(v(gate, s), v(d, s), p["kp"],
                                            p["vth"], p["lam"])
                rows = []
                for r, sg in ((d, 1.0), (s, -1.0)):
                    rows += [(r, d, sg * gds), (r, gate, sg * gm),
                             (r, s, sg * (-gm - gds))]
                add(F, JF, [(d, i), (s, -i)], rows)
        return Q, F, JQ, JF

    return evaluate


def assert_close(got, want, rtol=1e-13):
    """Equal up to rounding: sums may run in another order when stacked."""
    want = np.asarray(want)
    scale = max(np.max(np.abs(want)), 1e-300)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


def model_case(name):
    if name == "diode-rectifier":
        return builtin_model("diode_rectifier"), None
    nl = parse_netlist(NETLISTS[name])
    return elaborate(nl), nl


CASES = ("diode-ladder", "opamp-like", "rlc-sources", "diode-rectifier")


def check_kernels(model, nl, X, P):
    """Stacked == rows == element loop, and df_dx == central differences."""
    stacked = (model.q(X, P), model.f(X, P, 0.0),
               model.dq_dx(X, P), model.df_dx(X, P, 0.0))
    n = model.n
    for got, shape in zip(stacked, [(n,), (n,), (n, n), (n, n)]):
        assert got.shape == (len(X),) + shape
    assert_close(model.f_many(X, P, 0.0), stacked[1])
    assert_close(model.jac_f_many(X, P, 0.0), stacked[3])
    oracle = element_loop(nl, model.labels) if nl is not None else None
    for i, (x, xi) in enumerate(zip(X, P)):
        rows = (model.q(x, xi), model.f(x, xi, 0.0), model.dq_dx(x, xi),
                model.df_dx(x, xi, 0.0))
        for got, row in zip(stacked, rows):
            assert_close(got[i], row)
        if oracle is not None:
            for got, want in zip(rows, oracle(x, xi)):
                assert_close(got, want, rtol=1e-12)
        # row by row: a row's finite-difference noise scales with its own
        # currents, and a kink inside the stencil costs up to ~1e-6
        fd = _fd_jacobian(lambda y: model.f(y, xi, 0.0), x)
        for got, want in zip(rows[3], fd):
            assert_close(got, want, rtol=1e-5)


@st.composite
def stacks(draw, model):
    """Up to 5 rows of states in V_RANGE and parameters within 20 % of
    their means (positive, as every varied parameter here is)."""
    N = draw(st.integers(1, 5))
    volts = st.floats(*V_RANGE, allow_nan=False)
    X = np.array(draw(st.lists(volts, min_size=N * model.n,
                               max_size=N * model.n))).reshape(N, model.n)
    X[:, [lab.startswith("i(") for lab in model.labels]] *= 1e-3
    factor = st.floats(0.8, 1.2)
    P = model.nominal_parameters() * np.array(draw(st.lists(
        factor, min_size=N * model.d, max_size=N * model.d))).reshape(
            N, model.d)
    return X, P


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stacked_kernels(name, data):
    model, nl = model_case(name)
    X, P = data.draw(stacks(model))
    check_kernels(model, nl, X, P)


def test_every_device_region_is_checked():
    # a fixed draw from the same ranges reaches every region of both
    # device laws; the kernels are checked on exactly those rows
    rng = np.random.default_rng(7)
    opamp, opamp_nl = model_case("opamp-like")
    X = rng.uniform(*V_RANGE, size=(400, opamp.n))
    X[:, [lab.startswith("i(") for lab in opamp.labels]] *= 1e-3
    P = opamp.nominal_parameters() * rng.uniform(0.8, 1.2, (400, opamp.d))
    pos = {lab: k for k, lab in enumerate(opamp.labels)}

    def volt(name):
        if name == GROUND:
            return np.zeros(len(X))
        return X[:, pos[f"v({name})"]]

    seen = dict.fromkeys(("cutoff", "reversed", "forward", "saturation",
                          "triode"), False)
    for e in opamp_nl.elements:
        if e.kind == "M":
            d, g, s = (volt(nd) for nd in e.nodes)
            vds = d - s
            vov = g - s - np.minimum(vds, 0.0) - e.params["vth"]
            on = vov > 0
            for key, hit in (("cutoff", ~on), ("reversed", on & (vds < 0)),
                             ("forward", on & (vds > 0)),
                             ("saturation", on & (np.abs(vds) >= vov)),
                             ("triode", on & (np.abs(vds) < vov))):
                seen[key] |= bool(hit.any())
    assert all(seen.values()), seen
    check_kernels(opamp, opamp_nl, X, P)

    ladder, ladder_nl = model_case("diode-ladder")
    X = rng.uniform(*V_RANGE, size=(200, ladder.n))
    X[:, [lab.startswith("i(") for lab in ladder.labels]] *= 1e-3
    P = ladder.nominal_parameters() * rng.uniform(0.8, 1.2, (200, ladder.d))
    v1 = X[:, ladder.labels.index("v(n1)")]
    assert np.any(v1 > 40 * 0.02585) and np.any(v1 < 40 * 0.02585)
    check_kernels(ladder, ladder_nl, X, P)


def test_device_laws_broadcast_like_scalar_calls():
    v = np.array([-0.5, 0.3, 1.034, 1.2, 4.0])
    i, g = shockley_current(v, 1e-9, 0.02585)
    for k, vk in enumerate(v):
        assert (i[k], g[k]) == pytest.approx(
            shockley_current(float(vk), 1e-9, 0.02585), rel=1e-15)
    assert isinstance(shockley_current(0.3, 1e-9, 0.02585)[0], float)

    vgs = np.array([0.2, 1.5, 1.5, 1.1, 2.0])
    vds = np.array([1.0, 0.4, -0.4, 2.0, -3.0])
    stacked = mosfet_current(vgs, vds, 2e-3, 0.7, 0.05)
    for k in range(len(vgs)):
        one = mosfet_current(float(vgs[k]), float(vds[k]), 2e-3, 0.7, 0.05)
        assert all(isinstance(val, float) for val in one)
        assert tuple(a[k] for a in stacked) == pytest.approx(one, rel=1e-15)
