"""Netlist grammar, diagnostics, and modified nodal analysis."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import dc_newton
from uqsim import netlist
from uqsim.netlist import NetlistError, elaborate, parse_netlist

DIVIDER = "V1 1 0 1\nR1 1 2 1k\nR2 2 0 1k\n"


# the parser's round-trip oracle: a canonical text form of a Netlist


def _format_number(v: float) -> str:
    return repr(float(v))


def _format_distribution(dist) -> str:
    name = next(s for s, kind in netlist._SPELLINGS.items()
                if kind == dist.kind)
    args = ",".join(_format_number(p) for p in dist.params)
    return f"{name}({args})"


def netlist_fields(nl: netlist.Netlist) -> tuple:
    """A Netlist's parsed content as nested tuples, element positions left
    out: what parsing print_netlist's text back must reproduce."""
    return (
        tuple((e.kind, e.name, e.nodes, e.params) for e in nl.elements),
        tuple((v.element, v.param, v.mode, v.distribution.kind,
               v.distribution.params, v.distribution.support)
              for v in nl.variations),
        tuple((a.kind, a.args) for a in nl.analyses))


def print_netlist(nl: netlist.Netlist) -> str:
    """Canonical text form; parsing it back gives the same
    netlist_fields."""
    vars_by_element: dict[str, list] = {}
    for v in nl.variations:
        vars_by_element.setdefault(v.element, []).append(v)
    lines = []
    for e in nl.elements:
        principal, takes_value, extra_keys = netlist._KIND_INFO[e.kind]
        parts = [e.name, *e.nodes]
        if takes_value:
            parts.append(_format_number(e.params[principal]))
        for k in extra_keys:
            if k in e.params:
                parts.append(f"{k}={_format_number(e.params[k])}")
        for v in vars_by_element.get(e.name, ()):
            key = ("variation" if v.param == principal
                   else f"variation.{v.param}")
            prefix = "relative:" if v.mode == "relative" else ""
            parts.append(f"{key}={prefix}{_format_distribution(v.distribution)}")
        lines.append(" ".join(parts))
    for a in nl.analyses:
        if a.kind == "op":
            lines.append(".op")
        else:
            lines.append(".tran " + " ".join(_format_number(x)
                                             for x in a.args))
    return "\n".join(lines) + "\n"


class TestGrammar:
    def test_plain_resistor(self):
        nl = parse_netlist("R1 1 0 1k")
        (e,) = nl.elements
        assert e.kind == "R" and e.name == "R1"
        assert e.nodes == ("1", "0")
        assert e.params["r"] == 1000.0

    def test_variation_attaches_distribution(self):
        nl = parse_netlist("R1 1 0 1k variation=uniform(0.9k,1.1k)")
        (v,) = nl.variations
        assert v.element == "R1" and v.param == "r" and v.mode == "absolute"
        assert v.distribution.kind == "uniform"
        assert v.distribution.params == (900.0, 1100.0)

    def test_relative_variation(self):
        nl = parse_netlist("R1 1 0 1k variation=relative:gauss(1,0.05)")
        (v,) = nl.variations
        assert v.mode == "relative"
        assert v.distribution.kind == "gaussian"

    def test_missing_value_is_syntax_error(self):
        with pytest.raises(NetlistError, match=r"<netlist>:1:\d+: .*token 4"):
            parse_netlist("R1 1 0")

    def test_unit_suffixes(self):
        text = ("R1 a 0 1meg\nR2 a 0 2.2k\nC1 a 0 3u\nC2 a 0 4n\n"
                "C3 a 0 5p\nC4 a 0 6f\nR3 a 0 7m\nR4 a 0 8g\n")
        nl = parse_netlist(text)
        values = [e.params[list(e.params)[0]] for e in nl.elements]
        expected = [1e6, 2200.0, 3e-6, 4e-9, 5e-12, 6e-15, 7e-3, 8e9]
        assert values == pytest.approx(expected, rel=1e-15)

    def test_suffix_case_insensitive(self):
        nl = parse_netlist("R1 1 0 1MEG\nR2 1 0 2K\n")
        assert nl.elements[0].params["r"] == 1e6
        assert nl.elements[1].params["r"] == 2000.0

    def test_duplicate_name_reports_both_lines(self):
        with pytest.raises(NetlistError,
                           match=r":2:1: duplicate element name 'R1'"):
            parse_netlist("R1 1 0 1k\nR1 1 0 2k\n")

    def test_unknown_kind(self):
        with pytest.raises(NetlistError, match="unknown element kind 'X'"):
            parse_netlist("X1 1 0 1k")

    def test_bad_number(self):
        with pytest.raises(NetlistError, match="invalid number '1kk'"):
            parse_netlist("R1 1 0 1kk")

    def test_comments_and_blanks_skipped(self):
        nl = parse_netlist("* a comment\n\nR1 1 0 1k\n  \n* another\n")
        assert len(nl.elements) == 1

    def test_directives(self):
        nl = parse_netlist("R1 1 0 1k\n.op\n.tran 1u 1m\n")
        assert nl.analyses[0].kind == "op"
        tran = nl.analyses[1]
        assert (tran.kind, tran.args) == ("tran", (1e-6, 1e-3))

    def test_end_stops_parsing(self):
        nl = parse_netlist("R1 1 0 1k\n.end\nthis is not parsed\n")
        assert len(nl.elements) == 1

    def test_unknown_directive(self):
        with pytest.raises(NetlistError, match=r"unknown directive '\.ac'"):
            parse_netlist("R1 1 0 1k\n.ac 10\n")

    def test_mosfet_element(self):
        nl = parse_netlist(
            "M1 d g 0 kp=2m vth=0.7 lam=0.05 variation.vth=gauss(0.7,0.02)\n"
            "R1 d 0 1k\nR2 g 0 1k\n")
        m = nl.elements[0]
        assert m.nodes == ("d", "g", "0")
        assert m.params == {"kp": 2e-3, "vth": 0.7, "lam": 0.05}
        (v,) = nl.variations
        assert v.param == "vth" and v.mode == "absolute"

    def test_mosfet_requires_kp_vth(self):
        with pytest.raises(NetlistError, match="missing required"):
            parse_netlist("M1 d g 0 kp=2m\nR1 d 0 1k\nR2 g 0 1k\n")

    def test_diode_defaults(self):
        nl = parse_netlist("V1 1 0 1\nD1 1 2 nvt=0.05\nR1 2 0 1k\n")
        d = nl.elements[1]
        assert d.params == {"is": 1e-9, "nvt": 0.05}

    def test_unknown_parameter_key(self):
        with pytest.raises(NetlistError, match="unknown parameter 'beta'"):
            parse_netlist("R1 1 0 1k beta=2")

    def test_malformed_variation(self):
        with pytest.raises(NetlistError, match="malformed variation"):
            parse_netlist("R1 1 0 1k variation=lognormal(1,2)")

    def test_variation_argument_count(self):
        with pytest.raises(NetlistError,
                           match="gamma takes 1 arguments, got 2"):
            parse_netlist("R1 1 0 1k variation=relative:gamma(1,2)")

    def test_variation_unknown_param(self):
        with pytest.raises(NetlistError,
                           match="unknown parameter 'tc' of R1"):
            parse_netlist("R1 1 0 1k variation.tc=gauss(0,1)")

    def test_no_ground_error(self):
        with pytest.raises(NetlistError, match="no ground node '0'"):
            parse_netlist("R1 1 2 1k\nR2 2 1 1k\n")

    def test_dangling_node_error(self):
        with pytest.raises(NetlistError, match="dangling node '3'"):
            parse_netlist("V1 1 0 1\nR1 1 0 1k\nR2 1 3 1k\n")

    @pytest.mark.parametrize("text,message", [
        ("R1 1 0 1k variation=gauss(1k,-1)\n",
         "1:11: gaussian stddev must be positive"),
        ("R1 1 0 1k\n.tran 1u\n", "2:1: .tran needs two arguments"),
        ("1R 1 0 1k\n", "1:1: invalid element name '1R'"),
        ("R1 1\n", "1:5: R1: expected 2 node names, got 1"),
        ("R1 1 a-b 1k\n", "1:6: invalid node name 'a-b'"),
        ("R1 1 0 1k foo\n", "1:11: expected key=value, got 'foo'"),
    ], ids=["negative-stddev", "tran-one-argument", "name-starts-with-digit",
            "one-node", "node-with-dash", "bare-token"])
    def test_syntax_errors_are_located(self, text, message):
        with pytest.raises(NetlistError) as err:
            parse_netlist(text)
        assert str(err.value).startswith(f"<netlist>:{message}")


class TestRoundTrip:
    RICH = ("V1 in 0 5.0\n"
            "I1 0 out 1m\n"
            "R1 in mid 2.2k variation=relative:uniform(0.9,1.1)\n"
            "C1 mid 0 1u variation=gauss(1u,0.1u)\n"
            "L1 mid out 10m\n"
            "D1 out 0 is=1e-12 nvt=0.026\n"
            "M1 out mid 0 kp=1m vth=0.6 lam=0.02 "
            "variation.vth=gauss(0.6,0.03)\n"
            ".op\n"
            ".tran 1u 2m\n")

    def test_print_parse_round_trip(self):
        nl = parse_netlist(self.RICH)
        assert netlist_fields(parse_netlist(print_netlist(nl))) == \
            netlist_fields(nl)

    @pytest.mark.parametrize("spec", ["gauss(1,0.1)", "gaussian(1,0.1)",
                                      "uniform(0.9,1.1)", "gamma(2)",
                                      "beta(2,3)"])
    def test_every_family_round_trips(self, spec):
        nl = parse_netlist(f"V1 1 0 1\nR1 1 2 1k variation=relative:{spec}\n"
                           "R2 2 0 1k\n")
        text = print_netlist(nl)
        assert netlist_fields(parse_netlist(text)) == netlist_fields(nl)
        assert ("variation=relative:gauss(" in text) == spec.startswith("gauss")

    @given(r1=st.floats(1.0, 1e6), lo=st.floats(0.5, 0.99),
           hi=st.floats(1.01, 1.5), c=st.floats(1e-12, 1e-3))
    def test_round_trip_arbitrary_values(self, r1, lo, hi, c):
        nl = parse_netlist(
            f"V1 1 0 1\nR1 1 2 {r1!r} variation=relative:uniform({lo!r},{hi!r})\n"
            f"C1 2 0 {c!r}\n")
        assert netlist_fields(parse_netlist(print_netlist(nl))) == \
            netlist_fields(nl)


class TestElaborate:
    def test_divider_dimensions(self):
        dae = elaborate(parse_netlist(DIVIDER))
        assert dae.n == 3 and dae.d == 0
        assert dae.labels == ("v(1)", "v(2)", "i(V1)")

    def test_divider_matches_direct_linear_solve(self):
        dae = elaborate(parse_netlist(DIVIDER))
        x = dc_newton(dae, np.zeros(0))
        # direct assembly: unknowns v1, v2, i_V
        g = 1e-3
        A = np.array([[g, -g, 1.0],
                      [-g, 2 * g, 0.0],
                      [1.0, 0.0, 0.0]])
        b = np.array([0.0, 0.0, 1.0])
        assert np.max(np.abs(x - np.linalg.solve(A, b))) < 1e-12

    def test_divider_with_variation(self):
        text = ("V1 1 0 1\nR1 1 2 1k\n"
                "R2 2 0 1k variation=relative:uniform(0.9,1.1)\n")
        dae = elaborate(parse_netlist(text))
        assert dae.d == 1
        x = dc_newton(dae, np.array([1.1]))
        assert abs(x[1] - 1.1 / 2.1) < 1e-12

    def test_unknown_count_invariant(self):
        # nodes + voltage sources + inductors
        text = ("V1 1 0 1\nR1 1 2 1k\nL1 2 3 1m\nC1 3 0 1u\nR2 3 0 1k\n")
        dae = elaborate(parse_netlist(text))
        assert dae.n == 3 + 1 + 1
        assert dae.labels[-2:] == ("i(V1)", "i(L1)")

    def test_rl_dc_current(self):
        text = "V1 1 0 1\nR1 1 2 1k\nL1 2 0 10m\n"
        dae = elaborate(parse_netlist(text))
        x = dc_newton(dae, np.zeros(0))
        state = dict(zip(dae.labels, x))
        assert abs(state["v(2)"]) < 1e-12          # inductor shorts in DC
        assert abs(state["i(L1)"] - 1e-3) < 1e-12  # full source current

    def test_current_source_injection(self):
        dae = elaborate(parse_netlist("I1 0 2 1m\nR1 2 0 1k\n"))
        x = dc_newton(dae, np.zeros(0))
        assert abs(x[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("nodes,v1", [("1 0", -1.0), ("0 1", 1.0),
                                          ("1 1", 0.0)])
    def test_current_source_drives_its_second_node(self, nodes, v1):
        # 1 mA into 1 kOhm; a source from a node to itself drives nothing
        dae = elaborate(parse_netlist(f"I1 {nodes} 1m\nR1 1 0 1k\n"))
        x = dc_newton(dae, np.zeros(0))
        assert x[0] == pytest.approx(v1, abs=1e-12)

    def test_capacitor_charge_in_q(self):
        text = "V1 1 0 1\nR1 1 2 1k\nC1 2 0 2u\n"
        dae = elaborate(parse_netlist(text))
        x = np.array([1.0, 0.25, 0.0])
        qvec = dae.q(x, np.zeros(0))
        assert qvec[1] == pytest.approx(2e-6 * 0.25)
        assert qvec[0] == 0.0 and qvec[2] == 0.0

    def test_floating_subnetwork_rejected(self):
        # located at R2, the first element on a floating node
        text = "V1 1 0 1\nR1 1 0 1k\nR2 5 6 1k\nR3 6 5 2k\n"
        with pytest.raises(NetlistError, match="^<netlist>:3:1: floating"):
            elaborate(parse_netlist(text))

    def test_varied_source_rejected(self):
        text = "V1 1 0 1 variation=gauss(1,0.1)\nR1 1 0 1k\n"
        with pytest.raises(NetlistError, match="^<netlist>:1:10: .*source"):
            elaborate(parse_netlist(text))

    def test_duplicate_variation_rejected(self):
        # located at the second annotation
        text = ("V1 1 0 1\n"
                "R1 1 0 1k variation=gauss(1k,1) variation=uniform(0.9k,1.1k)\n")
        with pytest.raises(NetlistError, match="^<netlist>:2:33: .*two"):
            elaborate(parse_netlist(text))

    def test_kcl_at_nonlinear_solution(self):
        text = "V1 1 0 1\nD1 1 2\nR1 2 0 1k\n"
        dae = elaborate(parse_netlist(text))
        x = dc_newton(dae, np.zeros(0))
        residual = dae.f(x, np.zeros(0), 0.0)
        assert np.max(np.abs(residual)) < 1e-9

    def test_gemm_stamps_match_the_batched_matmul_kernel(self):
        # node c is a star of three resistors, so its diagonal sums three
        # conductances; the reference is the kernel the stamp tables
        # replaced, A.T diag(g) A as one batched matmul
        def conductance(A, g):
            return A.T @ (np.asarray(g)[..., :, None] * A)

        text = ("I1 0 c 1m\n"
                "R1 c a 1k variation=relative:uniform(0.9,1.1)\n"
                "R2 c b 2k variation=relative:uniform(0.9,1.1)\n"
                "R3 c 0 3k variation=relative:uniform(0.9,1.1)\n"
                "R4 a 0 1k\nR5 b 0 1k\n")
        dae = elaborate(parse_netlist(text))
        assert dae.labels == ("v(c)", "v(a)", "v(b)")
        rng = np.random.default_rng(11)
        P = rng.uniform(0.9, 1.1, size=(64, 3))
        r = np.concatenate([np.array([1e3, 2e3, 3e3]) * P,
                            np.full((64, 2), 1e3)], axis=1)
        A = netlist._incidence([(0, 1), (0, 2), (0, -1), (1, -1), (2, -1)],
                               3)
        ref = conductance(A, 1.0 / r)
        J = dae.df_dx(np.zeros((64, 3)), P, 0.0)
        assert np.allclose(J, ref, rtol=4e-16, atol=0.0)
        assert np.array_equal(dae.df_dx(np.zeros(3), P[0], 0.0), J[0])
        assert np.array_equal(dae.df_pattern, ref[0] != 0)
        assert not dae.dq_pattern.any()

    def test_stamp_tables_hold_only_stored_entries(self):
        # dense (m, n * n) tables of a 100-stage diode-RC ladder peaked at
        # 33.7 MB for 303 stored Jacobian entries, growing with the cube
        # of the stage count
        import tracemalloc
        lines = ["V1 n0 0 1.0"]
        for k in range(1, 101):
            lines += [f"R{k} n{k - 1} n{k} 1k "
                      "variation=relative:uniform(0.9,1.1)",
                      f"D{k} n{k} 0 is=1e-9 nvt=0.02585", f"C{k} n{k} 0 1u"]
        nl = parse_netlist("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            dae = elaborate(nl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        x = np.full(dae.n, 0.3)
        J = dae.df_dx(x, np.ones(100), 0.0)
        assert np.array_equal(J != 0, dae.df_pattern)
        assert np.count_nonzero(dae.df_pattern) == 303
        assert np.array_equal(dae.dq_dx(x, np.ones(100)) != 0,
                              dae.dq_pattern)

    def test_analytic_jacobians_match_fd(self):
        from uqsim.models import _fd_jacobian
        text = ("V1 1 0 1\nR1 1 2 1k\nL1 2 3 1m\nC1 3 0 1u\nD1 3 4 \n"
                "R2 4 0 2k\nM1 4 3 0 kp=1m vth=0.3\n")
        dae = elaborate(parse_netlist(text))
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 0.8, size=dae.n)
        xi = np.zeros(0)
        Jf = dae.df_dx(x, xi, 0.0)
        assert np.max(np.abs(Jf - _fd_jacobian(
            lambda y: dae.f(y, xi, 0.0), x))) < 1e-4
        Jq = dae.dq_dx(x, xi)
        assert np.max(np.abs(Jq - _fd_jacobian(
            lambda y: dae.q(y, xi), x))) < 1e-10
