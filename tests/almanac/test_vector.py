"""Vector kernel tests: eligibility, bit parity with scalar closures,
and the no-side-effect fallback contract."""

import pytest

np = pytest.importorskip("numpy")

from repro.almanac import MachineInstance, flatten_machine
from repro.almanac.parser import parse
from repro.almanac.vector import INT_INPUT_LIMIT, compile_vector_kernels


class StubHost:
    def __init__(self):
        self.harvester_msgs = []
        self.transitions = []

    def now(self):
        return 0.0

    def resources(self):
        return {"vCPU": 1.0, "RAM": 512.0, "TCAM": 16.0, "PCIe": 1000.0}

    def add_tcam_rule(self, rule):
        pass

    def remove_tcam_rule(self, pattern):
        pass

    def get_tcam_rule(self, pattern):
        return None

    def send_to_harvester(self, value):
        self.harvester_msgs.append(value)

    def send_to_machine(self, machine, dst, value):
        pass

    def set_trigger_interval(self, var, interval):
        pass

    def transit_hook(self, old, new):
        self.transitions.append((old, new))

    def exec_external(self, command, arg):
        return 0

    def log(self, message):
        pass


def compile_machine(source, machine=None):
    program = parse(source)
    name = machine or program.machines[-1].name
    return flatten_machine(program, name)


def make_instances(compiled, n, externals=None):
    instances = []
    for i in range(n):
        inst = MachineInstance(compiled, StubHost(), externals=externals,
                               instance_id=f"i{i}")
        inst.start()
        instances.append(inst)
    return instances


AFFINE = """
machine Affine {
  place all;
  poll tick = Poll { .ival = 0.01, .what = port ANY };
  long total = 0;
  long count = 0;
  state s {
    when (tick as v) do {
      count = count + 1;
      total = total + 2 * v - 1;
      send total to harvester;
    }
  }
}
"""


def affine_kernel():
    compiled = compile_machine(AFFINE)
    kernels = compile_vector_kernels(compiled)
    assert ("s", "tick") in kernels
    return compiled, kernels[("s", "tick")]


class TestEligibility:
    def _kernels(self, body, decls="long acc = 0;"):
        source = f"""
machine M {{
  place all;
  poll tick = Poll {{ .ival = 0.01, .what = port ANY }};
  {decls}
  state s {{
    when (tick as v) do {{ {body} }}
  }}
}}
"""
        return compile_vector_kernels(compile_machine(source))

    def test_affine_body_accepted(self):
        assert self._kernels("acc = acc + v;")

    def test_if_rejected(self):
        # A branch runs on the scalar closures; no lane masks here.
        assert not self._kernels(
            "if (v > 3 and acc < 10) then { acc = acc + 1; }"
            " else { acc = acc - 1; }")

    def test_while_rejected(self):
        assert not self._kernels("while (acc < 3) { acc = acc + 1; }")

    def test_division_rejected(self):
        # _sem_div has exact-int semantics a float64 lane can't honor.
        assert not self._kernels("acc = v / 2;")

    def test_transit_rejected(self):
        source = """
machine M {
  place all;
  poll tick = Poll { .ival = 0.01, .what = port ANY };
  state a { when (tick as v) do { transit b; } }
  state b { }
}
"""
        assert not compile_vector_kernels(compile_machine(source))

    def test_call_rejected(self):
        assert not self._kernels("acc = size(v);")

    def test_string_local_rejected(self):
        assert not self._kernels('string s2 = "x"; acc = acc + 1;')

    def test_second_send_rejected(self):
        assert not self._kernels(
            "send acc to harvester; send v to harvester;")

    def test_single_send_accepted(self):
        assert self._kernels("acc = acc + v; send acc to harvester;")

    def test_nonaffine_product_rejected(self):
        assert not self._kernels("acc = v * v;")

    def test_trigger_var_write_rejected(self):
        # Changing the poll interval (tick.ival) is host interaction.
        assert not self._kernels("tick.ival = 0.5;")


class TestBitParity:
    def _parity(self, data, mutate=None):
        compiled, kernel = affine_kernel()
        n = len(data)
        vec = make_instances(compiled, n)
        ref = make_instances(compiled, n)
        if mutate:
            for inst in (*vec, *ref):
                mutate(inst)
        assert kernel.fire(vec, list(data))
        for inst, value in zip(ref, data):
            inst.fire_trigger_var("tick", value)
        for v_inst, r_inst in zip(vec, ref):
            for name in ("total", "count"):
                v_val = v_inst._mvars[name]
                r_val = r_inst._mvars[name]
                assert v_val == r_val
                assert type(v_val) is type(r_val)
            assert v_inst.host.harvester_msgs == r_inst.host.harvester_msgs
            assert [type(m) for m in v_inst.host.harvester_msgs] \
                == [type(m) for m in r_inst.host.harvester_msgs]
            assert v_inst.events_handled == r_inst.events_handled

    def test_int_data(self):
        self._parity([1, 7, -3, 0, 250, 13, 2, 2 ** 20])

    def test_float_data_propagates_floatness(self):
        self._parity([1.5, -0.25, 1e-9, 3.0])

    def test_mixed_int_float_lanes(self):
        self._parity([1, 2.5, 3, -4.25, 0, 0.0])

    def test_prior_state_participates(self):
        def bump(inst):
            inst._mvars["total"] = 99
        self._parity([0, 1, 2, 3], mutate=bump)


class TestFallbackContract:
    def test_oversized_int_refused_without_side_effects(self):
        compiled, kernel = affine_kernel()
        instances = make_instances(compiled, 3)
        instances[1]._mvars["total"] = INT_INPUT_LIMIT * 2
        before = [dict(inst._mvars) for inst in instances]
        handled = [inst.events_handled for inst in instances]
        assert kernel.fire(instances, [1, 2, 3]) is False
        assert [dict(inst._mvars) for inst in instances] == before
        assert [inst.events_handled for inst in instances] == handled
        assert all(not inst.host.harvester_msgs for inst in instances)

    def test_non_numeric_data_refused(self):
        compiled, kernel = affine_kernel()
        instances = make_instances(compiled, 2)
        assert kernel.fire(instances, [1, "stats"]) is False
        assert all(inst._mvars["count"] == 0 for inst in instances)

    def test_bool_value_refused(self):
        # bools are ints in Python but not in Almanac; refuse the batch.
        compiled, kernel = affine_kernel()
        instances = make_instances(compiled, 2)
        instances[0]._mvars["count"] = True
        assert kernel.fire(instances, [1, 2]) is False

    def test_oversized_datum_refused(self):
        compiled, kernel = affine_kernel()
        instances = make_instances(compiled, 2)
        assert kernel.fire(instances, [1, INT_INPUT_LIMIT * 4]) is False


class TestCaching:
    def test_kernels_cached_on_compiled_machine(self):
        compiled = compile_machine(AFFINE)
        first = compile_vector_kernels(compiled)
        assert compile_vector_kernels(compiled) is first
