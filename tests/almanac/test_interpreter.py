"""Almanac semantics: state machines, events, inheritance, migration.

Runs on the production executor; ``test_reference_interpreter.py`` re-runs
every class here on the reference tree-walker.
"""

import pytest

from repro.almanac import MachineInstance, flatten_machine
from repro.almanac.machine import MAX_TRANSIT_CHAIN
from repro.almanac.parser import parse
from repro.errors import AlmanacRuntimeError
from repro.net import filters as flt


#: The class ``instance()`` builds; test_reference_interpreter.py swaps it.
EXECUTOR = MachineInstance


class StubHost:
    def __init__(self, resources=None):
        self._resources = resources or {"vCPU": 1.0, "RAM": 512.0,
                                        "TCAM": 16.0, "PCIe": 1000.0}
        self.rules = []
        self.removed = []
        self.harvester_msgs = []
        self.machine_msgs = []
        self.interval_updates = []
        self.transitions = []
        self.exec_calls = []
        self.logged = []

    def now(self):
        return 42.0

    def resources(self):
        return dict(self._resources)

    def add_tcam_rule(self, rule):
        self.rules.append(rule)

    def remove_tcam_rule(self, pattern):
        self.removed.append(pattern)

    def get_tcam_rule(self, pattern):
        return None

    def send_to_harvester(self, value):
        self.harvester_msgs.append(value)

    def send_to_machine(self, machine, dst, value):
        self.machine_msgs.append((machine, dst, value))

    def set_trigger_interval(self, var, interval):
        self.interval_updates.append((var, interval))

    def transit_hook(self, old, new):
        self.transitions.append((old, new))

    def exec_external(self, command, arg):
        self.exec_calls.append((command, arg))
        return 7.5

    def log(self, message):
        self.logged.append(message)


def instance(source, machine=None, externals=None, host=None):
    program = parse(source)
    name = machine or program.machines[-1].name
    compiled = flatten_machine(program, name)
    return EXECUTOR(compiled, host or StubHost(), externals=externals)


class TestBasicExecution:
    def test_start_fires_enter_of_initial_state(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  state first { when (enter) do { send "hello" to harvester; } }
  state second { }
}""", host=host)
        inst.start()
        assert host.harvester_msgs == ["hello"]
        assert inst.current_state == "first"

    def test_double_start_rejected(self):
        inst = instance("machine M { place all; state s { } }")
        inst.start()
        with pytest.raises(AlmanacRuntimeError):
            inst.start()

    def test_transit_fires_exit_and_enter(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  state a {
    when (enter) do { transit b; }
    when (exit) do { send "bye-a" to harvester; }
  }
  state b { when (enter) do { send "hi-b" to harvester; } }
}""", host=host)
        inst.start()
        assert host.harvester_msgs == ["bye-a", "hi-b"]
        assert host.transitions == [("a", "b")]

    def test_transit_to_unknown_state(self):
        inst = instance("""
machine M { place all; state s { when (enter) do { transit nowhere; } } }""")
        with pytest.raises(AlmanacRuntimeError):
            inst.start()

    def test_transit_cycle_capped(self):
        inst = instance("""
machine M {
  place all;
  state a { when (enter) do { transit b; } }
  state b { when (enter) do { transit a; } }
}""")
        with pytest.raises(AlmanacRuntimeError, match="transit chain"):
            inst.start()
        assert MAX_TRANSIT_CHAIN >= 16

    def test_while_loop_and_locals(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  state s {
    when (enter) do {
      int total = 0;
      int i = 1;
      while (i <= 10) { total = total + i; i = i + 1; }
      send total to harvester;
    }
  }
}""", host=host)
        inst.start()
        assert host.harvester_msgs == [55]

    def test_runaway_loop_capped(self):
        inst = instance("""
machine M {
  place all;
  state s { when (enter) do { while (1 == 1) { } } }
}""")
        with pytest.raises(AlmanacRuntimeError, match="while loop"):
            inst.start()

    def test_undefined_variable(self):
        inst = instance("""
machine M { place all; state s { when (enter) do { x = 1; } } }""")
        with pytest.raises(AlmanacRuntimeError):
            inst.start()


class TestTriggers:
    def test_trigger_var_binds_data(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  poll p = Poll { .ival = 1, .what = port ANY };
  state s {
    when (p as stats) do { send size(stats) to harvester; }
  }
}""", host=host)
        inst.start()
        assert inst.fire_trigger_var("p", [1, 2, 3])
        assert host.harvester_msgs == [3]

    def test_unmatched_trigger_returns_false(self):
        inst = instance("machine M { place all; state s { } }")
        inst.start()
        assert not inst.fire_trigger_var("nothing", None)

    def test_recv_pattern_matches_by_type(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  long threshold;
  state s {
    when (recv long t from harvester) do { threshold = t; }
    when (recv list l from harvester) do { send size(l) to harvester; }
  }
}""", host=host)
        inst.start()
        assert inst.fire_recv(500)
        assert inst.snapshot()["machine_vars"]["threshold"] == 500
        assert inst.fire_recv([1, 2])
        assert host.harvester_msgs == [2]

    def test_recv_source_machine_filter(self):
        inst = instance("""
machine M {
  place all;
  state s {
    when (recv long x from Other) do { transit s; }
  }
}""")
        inst.start()
        assert not inst.fire_recv(1, source_machine="")  # harvester
        assert inst.fire_recv(1, source_machine="Other")

    def test_realloc_trigger(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  state s {
    when (realloc) do { send res().vCPU to harvester; }
  }
}""", host=host)
        inst.start()
        assert inst.fire_realloc()
        assert host.harvester_msgs == [1.0]

    def test_trigger_assignment_reschedules(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  poll p = Poll { .ival = 1, .what = port ANY };
  state s {
    when (p as data) do { p.ival = 0.5; }
  }
}""", host=host)
        inst.start()
        inst.fire_trigger_var("p", [])
        assert host.interval_updates == [("p", 0.5)]


class TestMachineLevelEvents:
    def test_apply_to_all_states(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  long x;
  state a { when (enter) do { } }
  state b { }
  when (recv long v from harvester) do { x = v; }
}""", host=host)
        inst.start()
        assert inst.fire_recv(5)
        inst._transit("b")
        assert inst.fire_recv(6)
        assert inst.snapshot()["machine_vars"]["x"] == 6

    def test_state_event_overrides_machine_event(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  state a {
    when (recv long v from harvester) do { send "state" to harvester; }
  }
  when (recv long v from harvester) do { send "machine" to harvester; }
}""", host=host)
        inst.start()
        inst.fire_recv(1)
        assert host.harvester_msgs == ["state"]


class TestInheritance:
    SOURCE = """
machine Base {
  place all;
  long counter;
  state main {
    when (recv long v from harvester) do { counter = counter + v; }
  }
  state alarm { when (enter) do { send "base-alarm" to harvester; } }
}
machine Child extends Base {
  state alarm { when (enter) do { send "child-alarm" to harvester; } }
}
"""

    def test_child_overrides_state(self):
        host = StubHost()
        inst = instance(self.SOURCE, machine="Child", host=host)
        inst.start()
        inst._transit("alarm")
        assert host.harvester_msgs == ["child-alarm"]

    def test_child_inherits_vars_and_states(self):
        inst = instance(self.SOURCE, machine="Child")
        inst.start()
        assert inst.current_state == "main"
        inst.fire_recv(3)
        inst.fire_recv(4)
        assert inst.snapshot()["machine_vars"]["counter"] == 7

    def test_variable_shadowing_rejected(self):
        program = parse(self.SOURCE + """
machine Bad extends Base { long counter; state extra { } }""")
        with pytest.raises(AlmanacRuntimeError, match="shadows"):
            flatten_machine(program, "Bad")

    def test_inheritance_cycle_detected(self):
        program = parse("""
machine A extends B { state s { } }
machine B extends A { state s { } }
""")
        with pytest.raises(AlmanacRuntimeError, match="cycle"):
            flatten_machine(program, "A")

    def test_unknown_parent(self):
        program = parse("machine A extends Ghost { state s { } }")
        with pytest.raises(AlmanacRuntimeError, match="not found"):
            flatten_machine(program, "A")


class TestStdlibIntegration:
    def test_tcam_api(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  state s {
    when (enter) do {
      addTCAMRule(makeRule(dstPort 80, makeDropAction()));
      removeTCAMRule(dstPort 80);
    }
  }
}""", host=host)
        inst.start()
        assert len(host.rules) == 1
        assert host.rules[0]["act"] == {"action": "drop"}
        assert host.removed == [flt.DstPortFilter(80)]

    def test_exec_external(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  state s { when (enter) do { send exec("prog", 1) to harvester; } }
}""", host=host)
        inst.start()
        assert host.exec_calls == [("prog", 1)]
        assert host.harvester_msgs == [7.5]

    def test_map_builtins(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  state s {
    when (enter) do {
      list m = makeMap();
      mapInc(m, "a", 2);
      mapInc(m, "a", 3);
      mapSet(m, "b", 1);
      send mapGet(m, "a") to harvester;
      send mapSize(m) to harvester;
    }
  }
}""", host=host)
        inst.start()
        assert host.harvester_msgs == [5, 2]

    def test_ip_builtins(self):
        host = StubHost()
        inst = instance("""
machine M {
  place all;
  state s {
    when (enter) do {
      send ipstr(prefixOf(167772161, 24)) to harvester;
    }
  }
}""", host=host)
        inst.start()
        assert host.harvester_msgs == ["10.0.0.0"]

    def test_division_by_zero(self):
        inst = instance("""
machine M { place all; state s { when (enter) do { int x = 1 / 0; } } }""")
        with pytest.raises(AlmanacRuntimeError, match="division"):
            inst.start()

    def test_unknown_function(self):
        inst = instance("""
machine M { place all; state s { when (enter) do { frobnicate(); } } }""")
        with pytest.raises(AlmanacRuntimeError, match="unknown function"):
            inst.start()


class TestUserFunctions:
    def test_function_call_and_return(self):
        host = StubHost()
        inst = instance("""
function long double(long x) { return x * 2; }
machine M {
  place all;
  state s { when (enter) do { send double(21) to harvester; } }
}""", host=host)
        inst.start()
        assert host.harvester_msgs == [42]

    def test_arity_mismatch(self):
        inst = instance("""
function long f(long x) { return x; }
machine M { place all; state s { when (enter) do { f(1, 2); } } }""")
        with pytest.raises(AlmanacRuntimeError, match="arguments"):
            inst.start()


class TestMigrationSnapshot:
    SOURCE = """
machine M {
  place all;
  long counter;
  state a { when (recv long v from harvester) do { counter = counter + v; } }
  state b { when (enter) do { send "entered-b" to harvester; } }
}"""

    def test_snapshot_restore_preserves_state(self):
        inst = instance(self.SOURCE)
        inst.start()
        inst.fire_recv(10)
        inst._transit("b")
        snapshot = inst.snapshot()

        host2 = StubHost()
        inst2 = instance(self.SOURCE, host=host2)
        inst2.restore(snapshot)
        # resume, not restart: no enter events fired on restore
        assert host2.harvester_msgs == []
        assert inst2.current_state == "b"
        assert inst2.snapshot()["machine_vars"]["counter"] == 10

    def test_restore_wrong_machine_rejected(self):
        inst = instance(self.SOURCE)
        inst.start()
        snapshot = inst.snapshot()
        snapshot["machine"] = "Other"
        inst2 = instance(self.SOURCE)
        with pytest.raises(AlmanacRuntimeError):
            inst2.restore(snapshot)

    def test_restore_unknown_state_rejected(self):
        inst = instance(self.SOURCE)
        inst.start()
        snapshot = inst.snapshot()
        snapshot["state"] = "ghost"
        inst2 = instance(self.SOURCE)
        with pytest.raises(AlmanacRuntimeError):
            inst2.restore(snapshot)

    def test_externals_required_and_validated(self):
        source = """
machine M { place all; external long t; state s { } }"""
        with pytest.raises(AlmanacRuntimeError, match="no value"):
            instance(source)
        with pytest.raises(AlmanacRuntimeError, match="unknown external"):
            instance(source, externals={"t": 1, "zz": 2})
