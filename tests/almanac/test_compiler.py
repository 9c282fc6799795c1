"""Compiler pipeline tests (source -> blueprint)."""

import pytest

from repro.almanac.compiler import compile_machine, compile_source
from repro.almanac.parser import parse
from repro.errors import AlmanacAnalysisError

HH_LIKE = """
machine HH {
  place all;
  poll pollStats = Poll { .ival = 10 / res().PCIe, .what = port ANY };
  external long threshold;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (pollStats as stats) do { transit detected; }
  }
  state detected {
    util (res) { return 100; }
    when (enter) do { transit observe; }
  }
}
"""


class FakeController:
    def all_switches(self):
        return [1, 2, 3]

    def paths_matching(self, fil):
        return {(1, 2, 3)}


class TestCompileSource:
    def test_blueprint_fields(self):
        blueprint = compile_source(HH_LIKE, controller=FakeController(),
                                   externals={"threshold": 100})
        assert blueprint.machine_name == "HH"
        assert len(blueprint.sites) == 3
        assert blueprint.initial_state == "observe"
        assert len(blueprint.poll_vars) == 1
        assert "<" in blueprint.xml_payload  # XML payload present

    def test_state_utilities_per_state(self):
        blueprint = compile_source(HH_LIKE, controller=FakeController(),
                                   externals={"threshold": 100})
        observe = blueprint.utility_for_state("observe")
        detected = blueprint.utility_for_state("detected")
        env = {"vCPU": 2.0, "RAM": 200.0, "TCAM": 0.0, "PCIe": 1.5}
        assert observe.evaluate(env) == pytest.approx(1.5)
        assert detected.evaluate(env) == 100.0
        with pytest.raises(AlmanacAnalysisError):
            blueprint.utility_for_state("ghost")

    def test_min_utility_over_states(self):
        blueprint = compile_source(HH_LIKE, controller=FakeController(),
                                   externals={"threshold": 100})
        # observe at its minimal corner: min(1, 0) = 0
        assert min(pw.min_utility()
                   for pw in blueprint.state_utilities.values()) == 0.0

    def test_single_machine_inferred(self):
        blueprint = compile_source(HH_LIKE, externals={"threshold": 1})
        assert blueprint.machine_name == "HH"

    def test_multiple_machines_need_name(self):
        source = HH_LIKE + "machine Other { place all; state s { } }"
        with pytest.raises(AlmanacAnalysisError):
            compile_source(source, externals={"threshold": 1})
        blueprint = compile_source(source, machine_name="Other")
        assert blueprint.machine_name == "Other"

    def test_inherited_placement_and_externals(self):
        source = HH_LIKE + """
machine Child extends HH {
  state detected { util (res) { return 7; } }
}"""
        program = parse(source)
        blueprint = compile_machine(program, "Child", FakeController(),
                                    externals={"threshold": 5})
        assert len(blueprint.sites) == 3  # inherited place all
        env = {r: 0.0 for r in ("vCPU", "RAM", "TCAM", "PCIe")}
        assert blueprint.utility_for_state("detected").evaluate(env) == 7.0
        # the payload must let a soil re-flatten the extends chain
        from repro.almanac.xmlcodec import decode_program
        decoded = decode_program(blueprint.xml_payload)
        assert {m.name for m in decoded.machines} == {"HH", "Child"}
