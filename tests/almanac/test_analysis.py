"""Static-analysis tests: utility extraction, placement, polling."""

import pytest

from repro.almanac.analysis import (
    ConstEnv,
    analyze_poll_var,
    analyze_util,
    const_eval,
    encode_polling_subjects,
    resolve_placements,
)
from repro.almanac.parser import parse
from repro.errors import AlmanacAnalysisError
from repro.net import filters as flt
from repro.net.addresses import Prefix
from repro.switchsim.chassis import RESOURCE_TYPES


def parse_machine(source):
    (machine,) = parse(source).machines
    return machine


class PathController:
    """The paper's SIII-B-a worked example paths."""

    def __init__(self, paths=None, switches=None):
        self._paths = paths if paths is not None else {
            (1, 2, 5, 3, 4), (1, 2, 6, 3, 4), (1, 2, 7, 8, 9)}
        self._switches = switches or [1, 2, 3, 4, 5, 6, 7, 8, 9]

    def all_switches(self):
        return list(self._switches)

    def paths_matching(self, fil):
        return set(self._paths)


def machine_with_util(util_body, extra_decls=""):
    return parse_machine(f"""
machine M {{
  place all;
  {extra_decls}
  state s {{
    util (res) {{ {util_body} }}
  }}
}}""")


def analyze(util_body, externals=None, extra_decls=""):
    machine = machine_with_util(util_body, extra_decls)
    env = ConstEnv.for_machine(machine, externals)
    return analyze_util(machine.states[0].util, env, RESOURCE_TYPES)


class TestUtilAnalysis:
    def test_paper_example_constraints_and_utility(self):
        """SIII-B-b: kappa[res.vCPU>=1 and res.RAM>=100] = {r1-1, r2-100}."""
        pw = analyze("""
if (res.vCPU >= 1 and res.RAM >= 100) then {
  return min(res.vCPU, res.PCIe);
}""")
        assert len(pw.pieces) == 1
        piece = pw.pieces[0]
        constraints = {(c.variables(), c.const) for c in piece.constraints}
        assert (("vCPU",), -1.0) in constraints
        assert (("RAM",), -100.0) in constraints
        assert len(piece.utility.terms) == 2

    def test_constant_utility(self):
        pw = analyze("return 100;")
        assert pw.evaluate({r: 0.0 for r in RESOURCE_TYPES}) == 100.0

    def test_or_condition_splits_pieces(self):
        pw = analyze("""
if (res.vCPU >= 1 or res.RAM >= 100) then { return 10; }""")
        assert len(pw.pieces) == 2

    def test_max_splits_into_alternatives(self):
        pw = analyze("return max(res.vCPU, res.RAM);")
        assert len(pw.pieces) == 2

    def test_min_of_max_distributes(self):
        pw = analyze("return min(res.PCIe, max(res.vCPU, res.RAM));")
        assert len(pw.pieces) == 2
        assert all(len(p.utility.terms) == 2 for p in pw.pieces)

    def test_arithmetic_on_resources(self):
        pw = analyze("return res.vCPU * 2 + res.RAM / 10 - 1;")
        value = pw.evaluate({"vCPU": 3.0, "RAM": 100.0, "TCAM": 0,
                             "PCIe": 0})
        assert value == pytest.approx(15.0)

    def test_min_plus_linear_stays_concave(self):
        pw = analyze("return min(res.vCPU, res.PCIe) + 5;")
        value = pw.evaluate({"vCPU": 1.0, "PCIe": 2.0, "RAM": 0, "TCAM": 0})
        assert value == pytest.approx(6.0)

    def test_external_constants_fold(self):
        pw = analyze("if (res.vCPU >= floor) then { return weight; }",
                     externals={"floor": 2, "weight": 42},
                     extra_decls="external long floor; external long weight;")
        assert pw.evaluate({"vCPU": 3.0, "RAM": 0, "TCAM": 0, "PCIe": 0}) \
            == 42

    def test_missing_util_means_zero(self):
        machine = parse_machine("machine M { place all; state s { } }")
        pw = analyze_util(machine.states[0].util, ConstEnv(), RESOURCE_TYPES)
        assert pw.evaluate({r: 5.0 for r in RESOURCE_TYPES}) == 0.0

    def test_forbidden_statement_rejected(self):
        with pytest.raises(AlmanacAnalysisError):
            analyze("while (res.vCPU >= 1) { return 1; }")

    def test_forbidden_call_rejected(self):
        with pytest.raises(AlmanacAnalysisError):
            analyze("return size(res.vCPU);")

    def test_nonlinear_product_rejected(self):
        with pytest.raises(AlmanacAnalysisError):
            analyze("return res.vCPU * res.RAM;")

    def test_unknown_resource_rejected(self):
        with pytest.raises(AlmanacAnalysisError):
            analyze("return res.GPUs;")

    def test_no_return_rejected(self):
        with pytest.raises(AlmanacAnalysisError):
            analyze("if (res.vCPU >= 1) then { }")

    def test_sum_of_two_mins_rejected(self):
        with pytest.raises(AlmanacAnalysisError):
            analyze("return min(res.vCPU, res.RAM) "
                    "+ min(res.PCIe, res.TCAM);")


class TestPollAnalysis:
    def _poll_var(self, init, externals=None, extra=""):
        machine = parse_machine(f"""
machine M {{
  place all;
  {extra}
  poll p = {init};
  state s {{ }}
}}""")
        env = ConstEnv.for_machine(machine, externals)
        decl = [d for d in machine.var_decls if d.is_trigger][0]
        return analyze_poll_var(decl, env, RESOURCE_TYPES)

    def test_paper_ival_inverse(self):
        """List. 2: ival = 10/res().PCIe -> inverse = PCIe/10."""
        info = self._poll_var(
            'Poll { .ival = 10 / res().PCIe, .what = port ANY }')
        assert info.interval_at({"PCIe": 1000.0}) == pytest.approx(0.01)
        inverse = info.ival.inverse_linear()
        assert inverse.coeffs == {"PCIe": 0.1}
        assert not info.ival.denominator.is_constant

    def test_constant_interval(self):
        info = self._poll_var('Poll { .ival = 0.5, .what = port ANY }')
        assert info.ival.numerator.is_constant
        assert info.ival.denominator.is_constant
        assert info.interval_at({}) == 0.5

    def test_what_filter_evaluated(self):
        info = self._poll_var(
            'Poll { .ival = 1, .what = srcIP "10.0.0.0/8" and dstPort 80 }')
        assert isinstance(info.what, flt.AndFilter)

    def test_time_trigger(self):
        machine = parse_machine("""
machine M { place all; time tick = 0.25; state s { } }""")
        info = analyze_poll_var(machine.var_decls[0], ConstEnv(),
                                RESOURCE_TYPES)
        assert info.kind == "time"
        assert info.interval_at({}) == 0.25
        assert isinstance(info.what, flt.TrueFilter)

    def test_missing_fields_rejected(self):
        with pytest.raises(AlmanacAnalysisError):
            self._poll_var("Poll { .ival = 1 }")

    def test_wrong_struct_rejected(self):
        with pytest.raises(AlmanacAnalysisError):
            self._poll_var("Probe { .ival = 1, .what = port ANY }")


class TestPollingSubjects:
    def test_any_port_covers_all(self):
        subjects = encode_polling_subjects(flt.SwitchPortFilter(flt.ANY_PORT), 4)
        assert subjects == frozenset(("port", i) for i in range(4))

    def test_specific_ports(self):
        fil = flt.or_(flt.SwitchPortFilter(1), flt.SwitchPortFilter(3))
        assert encode_polling_subjects(fil, 8) \
            == frozenset({("port", 1), ("port", 3)})

    def test_packet_filters_map_to_tcam_subject(self):
        fil = flt.SrcIpFilter(Prefix.parse("10.0.0.0/8"))
        subjects = encode_polling_subjects(fil, 8)
        assert len(subjects) == 1
        (kind, _canon), = subjects
        assert kind == "tcam"

    def test_equal_filters_share_subjects(self):
        a = flt.and_(flt.SrcIpFilter(Prefix.parse("10.0.0.0/8")), flt.DstPortFilter(80))
        b = flt.and_(flt.DstPortFilter(80), flt.SrcIpFilter(Prefix.parse("10.0.0.0/8")))
        assert encode_polling_subjects(a, 8) == encode_polling_subjects(b, 8)


class TestPlacementResolution:
    def _sites(self, place_clause, controller=None):
        machine = parse_machine(f"""
machine M {{ {place_clause} state s {{ }} }}""")
        return resolve_placements(machine, ConstEnv(),
                                  controller or PathController())

    def test_place_all_one_seed_per_switch(self):
        sites = self._sites("place all;")
        assert [s.switches for s in sites] \
            == [(n,) for n in range(1, 10)]

    def test_place_any_one_seed_any_switch(self):
        sites = self._sites("place any;")
        assert len(sites) == 1
        assert sites[0].switches == tuple(range(1, 10))

    def test_place_explicit_ids(self):
        assert [s.switches for s in self._sites("place all 3, 5;")] \
            == [(3,), (5,)]
        assert [s.switches for s in self._sites("place any 3, 5;")] \
            == [(3, 5)]

    def test_unknown_switch_id_rejected(self):
        with pytest.raises(AlmanacAnalysisError):
            self._sites("place all 99;")

    def test_paper_receiver_range_eq_1(self):
        """pi[[any receiver ex range == 1]] over the SIII-B-a paths."""
        sites = self._sites("place any receiver range == 1;")
        # per-path candidate sets {3}, {3}, {8}, deduplicated
        assert sorted(s.switches for s in sites) == [(3,), (8,)]

    def test_paper_midpoint_range_eq_0(self):
        """pi[[all midpoint ex range == 0]] = {{5}, {6}, {7}}."""
        sites = self._sites("place all midpoint range == 0;")
        assert sorted(s.switches for s in sites) == [(5,), (6,), (7,)]

    def test_paper_receiver_range_le_1(self):
        """pi[[any receiver ex range <= 1]] = {{3,4},{8,9}} after dedup."""
        sites = self._sites("place any receiver range <= 1;")
        assert sorted(s.switches for s in sites) == [(3, 4), (8, 9)]

    def test_sender_anchor(self):
        sites = self._sites("place all sender range == 0;")
        assert sorted(s.switches for s in sites) == [(1,)]

    def test_no_matching_paths_rejected(self):
        controller = PathController(paths=set())
        with pytest.raises(AlmanacAnalysisError):
            self._sites("place all receiver range == 0;", controller)

    def test_no_place_directive_rejected(self):
        machine = parse_machine("machine M { state s { } }")
        with pytest.raises(AlmanacAnalysisError):
            resolve_placements(machine, ConstEnv(), PathController())


class TestConstEval:
    def test_arithmetic_and_strings(self):
        env = ConstEnv({"x": 4})
        machine = parse_machine("""
machine M { place all; state s { } }""")
        from repro.almanac.parser import Parser
        from repro.almanac.lexer import tokenize

        def ev(text):
            return const_eval(Parser(tokenize(text)).parse_expression(), env)

        assert ev("1 + 2 * 3") == 7
        assert ev("x / 2") == 2
        assert ev('"a" + "b"') == "ab"
        assert ev("x >= 4 and true") is True
        assert ev("not false") is True

    def test_filter_composition(self):
        from repro.almanac.parser import Parser
        from repro.almanac.lexer import tokenize
        expr = Parser(tokenize(
            'srcIP "10.1.1.4" and dstIP "10.0.1.0/24"')).parse_expression()
        fil = const_eval(expr, ConstEnv())
        assert isinstance(fil, flt.AndFilter)

    def test_unbound_variable_rejected(self):
        from repro.almanac.parser import Parser
        from repro.almanac.lexer import tokenize
        expr = Parser(tokenize("mystery + 1")).parse_expression()
        with pytest.raises(AlmanacAnalysisError):
            const_eval(expr, ConstEnv())

    def test_missing_external_rejected(self):
        machine = parse_machine("""
machine M { place all; external long t; state s { } }""")
        with pytest.raises(AlmanacAnalysisError):
            ConstEnv.for_machine(machine)

    def test_unknown_external_rejected(self):
        machine = parse_machine("""
machine M { place all; external long t; state s { } }""")
        with pytest.raises(AlmanacAnalysisError):
            ConstEnv.for_machine(machine, {"t": 1, "bogus": 2})
