"""Differential tests: compiled closures vs the reference tree-walker.

Every scenario runs the exact same machine and trigger script on both
executors and asserts *identical* host traces, final variable snapshots,
transition counts, and error behavior.  This is the contract that lets
every deployment run on the closures while the interpreter stays the
executable specification.
"""

import copy

from repro.almanac import MachineInstance, codegen, flatten_machine
from repro.almanac.interpreter import ReferenceInterpreter
from repro.almanac.parser import parse
from repro.errors import AlmanacRuntimeError
from repro.tasks.heavy_hitter import ALMANAC_SOURCE as HH_SOURCE

class RecordingHost:
    """Deterministic host that journals every interaction.

    Payloads are deep-copied at record time so later in-place mutation by
    the seed cannot retroactively edit the trace; ``now()`` advances a
    private clock, so the trace also proves both backends make the same
    *number* of host calls in the same order.
    """

    def __init__(self):
        self.trace = []
        self._clock = 0.0

    def now(self):
        self._clock += 0.5
        return self._clock

    def resources(self):
        return {"vCPU": 2.0, "RAM": 256.0, "TCAM": 8.0, "PCIe": 1000.0}

    def add_tcam_rule(self, rule):
        self.trace.append(("rule+", copy.deepcopy(rule)))

    def remove_tcam_rule(self, pattern):
        self.trace.append(("rule-", pattern))

    def get_tcam_rule(self, pattern):
        self.trace.append(("rule?", pattern))
        return None

    def send_to_harvester(self, value):
        self.trace.append(("harvester", copy.deepcopy(value)))

    def send_to_machine(self, machine, dst, value):
        self.trace.append(("machine", machine, dst, copy.deepcopy(value)))

    def set_trigger_interval(self, var, interval):
        self.trace.append(("ival", var, interval))

    def transit_hook(self, old, new):
        self.trace.append(("transit", old, new))

    def exec_external(self, command, arg):
        self.trace.append(("exec", command, copy.deepcopy(arg)))
        return 3.25

    def log(self, message):
        self.trace.append(("log", message))


def run_machine(source, script=(), machine=None, externals=None,
                executor=MachineInstance):
    """Run a trigger script against a fresh instance; return its outcome."""
    program = parse(source)
    name = machine or program.machines[-1].name
    compiled = flatten_machine(program, name)
    host = RecordingHost()
    instance = executor(compiled, host, externals=externals)
    errors = []
    try:
        instance.start()
    except AlmanacRuntimeError as exc:
        errors.append(("start", str(exc)))
    for op in script:
        kind = op[0]
        try:
            if kind == "var":
                instance.fire_trigger_var(op[1], copy.deepcopy(op[2]))
            elif kind == "recv":
                source_machine = op[2] if len(op) > 2 else ""
                instance.fire_recv(copy.deepcopy(op[1]),
                                   source_machine=source_machine)
            elif kind == "realloc":
                instance.fire_realloc()
            else:  # pragma: no cover - script typo guard
                raise ValueError(f"unknown script op {kind!r}")
        except AlmanacRuntimeError as exc:
            errors.append((kind, str(exc)))
    return {
        "trace": host.trace,
        "state": instance.current_state,
        "snapshot": instance.snapshot(),
        "transitions": instance.transitions,
        "events_handled": instance.events_handled,
        "errors": errors,
    }


def assert_backends_identical(source, script=(), machine=None,
                              externals=None):
    interpreted = run_machine(source, script, machine, externals,
                              executor=ReferenceInterpreter)
    compiled = run_machine(source, script, machine, externals,
                           executor=MachineInstance)
    assert compiled == interpreted
    return compiled


# A machine built to exercise every construct the compiler lowers:
# constant-foldable subtrees, division semantics, short-circuit and/or,
# filters, structs + field assignment, lists, while loops, user functions
# (including recursion and machine-var access), shadowing, transit chains
# with statements after ``transit``, machine-level events, trigger
# reassignment, exec/log/now/res builtins, and sends.
KITCHEN_SINK = """
function long fib(long n) {
  if (n <= 1) then { return n; }
  return fib(n - 1) + fib(n - 2);
}

function long weigh(long v) {
  // Reads the machine variable `bias` from a function body.
  return v * 3 + bias + 10 / 4 + (2 * 3 - 1);
}

machine Sink {
  place all;
  external long bias;
  time tick = 2;
  long total;
  long count;
  list window;
  string tag;

  state gather {
    long localCap = bias + 100;
    when (tick as v) do {
      count = count + 1;
      total = total + weigh(v);
      append(window, v);
      long shadow = 5;
      if (v > 10 and count <> 3 or v == 7) then {
        long shadow = shadow + 1;
        tag = concat_lists([], []) == [] and "big" or tag;
        send Report { .n = count, .sum = total, .items = window }
          to harvester;
      } else {
        log("small");
      }
      int i = 0;
      while (i < 3) {
        total = total + i;
        i = i + 1;
      }
      if (total > localCap) then {
        transit react;
        // Statements after transit still run in the old handler frame.
        send "after-transit" to harvester;
      }
    }
    when (recv long bump from harvester) do {
      bias = bump;
      tick = 1 + 1 / 2;
      send fib(bump - bump + 9) to harvester;
    }
  }

  state react {
    when (enter) do {
      addTCAMRule(makeRule(port 3 and not srcIP "10.0.0.0/8",
                           makeDropAction()));
      send exec("probe", window) to harvester;
      send res().vCPU + res().PCIe / 4 to harvester;
      send now() to harvester;
    }
    when (realloc) do {
      removeTCAMRule(port 3 and not srcIP "10.0.0.0/8");
      total = 0 - 1;
      transit gather;
    }
  }

  when (recv string label from harvester) do {
    tag = label;
    log(tag);
  }
}
"""

SINK_SCRIPT = (
    ("var", "tick", 7),
    ("var", "tick", 2),
    ("recv", 4),
    ("var", "tick", 30),
    ("realloc",),
    ("recv", "named"),
    ("var", "tick", 50),
    ("var", "tick", 200),
    ("realloc",),
)


class TestDifferentialTraces:
    def test_kitchen_sink_trace_identical(self):
        outcome = assert_backends_identical(
            KITCHEN_SINK, SINK_SCRIPT, externals={"bias": 2})
        # The scenario must actually exercise the interesting paths.
        kinds = {entry[0] for entry in outcome["trace"]}
        assert {"harvester", "transit", "rule+", "rule-", "exec", "log",
                "ival"} <= kinds
        assert outcome["transitions"] >= 2
        assert outcome["errors"] == []

    def test_heavy_hitter_trace_identical(self):
        stats = [
            {"__struct__": "PortStat", "port": p,
             "rate_bps": 2_000_000.0 if p % 3 == 0 else 10_000.0}
            for p in range(8)
        ]
        quiet = [
            {"__struct__": "PortStat", "port": p, "rate_bps": 5_000.0}
            for p in range(8)
        ]
        action = {"__struct__": "Action", "action": "rate_limit",
                  "rate_bps": 1e6}
        script = (
            ("var", "pollStats", quiet),
            ("var", "pollStats", stats),
            ("recv", 500_000),
            ("var", "pollStats", stats),
            ("var", "pollStats", quiet),
        )
        outcome = assert_backends_identical(
            HH_SOURCE, script, machine="HH",
            externals={"threshold": 1_000_000, "accuracy": 10.0,
                       "hitterAction": action})
        assert any(entry[0] == "rule+" for entry in outcome["trace"])
        assert outcome["transitions"] >= 2

    def test_runtime_errors_identical(self):
        source = """
machine Err {
  place all;
  long n;
  state s {
    when (recv long v from harvester) do {
      n = v / (v - v);
    }
    when (recv string v from harvester) do {
      n = n + v;
    }
    when (recv list v from harvester) do {
      frobnicate(v);
    }
  }
}"""
        outcome = assert_backends_identical(
            source, (("recv", 5), ("recv", "oops"), ("recv", [1])))
        assert len(outcome["errors"]) == 3
        assert "division by zero" in outcome["errors"][0][1]
        assert "type error in '+'" in outcome["errors"][1][1]
        assert "unknown function" in outcome["errors"][2][1]

    def test_unary_minus_type_error_identical(self):
        # The typechecker accepts `-` on any operand; a non-numeric one
        # must surface as a contained seed error, not a raw TypeError.
        source = """
machine Neg {
  place all;
  string s;
  list l;
  state st {
    when (recv string v from harvester) do { s = -v; }
    when (recv list v from harvester) do { l = -v; }
    when (recv long v from harvester) do { send -(-v) to harvester; }
    when (recv bool v from harvester) do { send -"lit" to harvester; }
  }
}"""
        outcome = assert_backends_identical(
            source, (("recv", "x"), ("recv", [1]), ("recv", 3),
                     ("recv", True)))
        assert [kind for kind, _msg in outcome["errors"]] == ["recv"] * 3
        assert all("type error in unary '-' (line" in msg
                   for _kind, msg in outcome["errors"])
        assert ("harvester", 3) in outcome["trace"]

    def test_undefined_and_undeclared_variables_identical(self):
        source = """
machine Undef {
  place all;
  state s {
    when (recv long v from harvester) do { send ghost to harvester; }
    when (recv string v from harvester) do { ghost = 1; }
  }
}"""
        outcome = assert_backends_identical(
            source, (("recv", 1), ("recv", "x")))
        assert "undefined variable" in outcome["errors"][0][1]
        assert "undeclared variable" in outcome["errors"][1][1]

    def test_state_var_reinitialized_per_entry_identical(self):
        source = """
machine Fresh {
  place all;
  state a {
    long seen;
    list bag;
    when (recv long v from harvester) do {
      seen = seen + v;
      append(bag, v);
      send seen to harvester;
      send size(bag) to harvester;
      if (v > 10) then { transit b; }
    }
  }
  state b { when (enter) do { transit a; } }
}"""
        assert_backends_identical(
            source, (("recv", 1), ("recv", 2), ("recv", 99), ("recv", 3)))

    def test_snapshot_roundtrip_across_backends(self):
        # A snapshot taken on one executor restores on the other and the
        # machines continue identically (migration is executor-agnostic).
        script = (("var", "tick", 7), ("recv", 4))
        tail = (("var", "tick", 30), ("realloc",))
        results = []
        for snap_executor, resume_executor in (
                (MachineInstance, ReferenceInterpreter),
                (ReferenceInterpreter, MachineInstance)):
            program = parse(KITCHEN_SINK)
            compiled = flatten_machine(program, "Sink")
            first = snap_executor(compiled, RecordingHost(),
                                  externals={"bias": 2})
            first.start()
            for op in script:
                if op[0] == "var":
                    first.fire_trigger_var(op[1], op[2])
                else:
                    first.fire_recv(op[1])
            snapshot = copy.deepcopy(first.snapshot())
            host = RecordingHost()
            second = resume_executor(compiled, host, externals={"bias": 2})
            second.restore(snapshot)
            for op in tail:
                if op[0] == "var":
                    second.fire_trigger_var(op[1], op[2])
                else:
                    second.fire_realloc()
            results.append((host.trace, second.snapshot(),
                            second.current_state))
        assert results[0] == results[1]


class TestBackendSelection:
    def test_closure_code_cached_per_machine(self):
        program = parse("machine M { place all; state s { } }")
        compiled = flatten_machine(program, "M")
        assert codegen.compile_closures(compiled) is \
            codegen.compile_closures(compiled)


class TestCompiledSemanticsDirect:
    """Spot checks that don't need the interpreter to agree (they assert
    absolute behavior of the compiled backend)."""

    def test_constant_folding_preserves_division_semantics(self):
        # 10 / 4 must stay 2.5 and 9 / 3 must stay the int 3 after folding.
        outcome = run_machine("""
machine M {
  place all;
  state s {
    when (enter) do {
      send 10 / 4 to harvester;
      send 9 / 3 to harvester;
    }
  }
}""")
        values = [entry[1] for entry in outcome["trace"]]
        assert values == [2.5, 3]
        assert isinstance(values[1], int)

    def test_constant_division_by_zero_raises_at_runtime(self):
        # Folding must not turn a runtime error into a compile-time crash,
        # nor silently drop it.
        outcome = run_machine("""
machine M {
  place all;
  state s { when (enter) do { send 1 / 0 to harvester; } }
}""")
        assert outcome["errors"] == [
            ("start", "division by zero (line 4)")]
        # start() raised: nothing was sent.
        assert not any(e[0] == "harvester" for e in outcome["trace"])

    def test_transit_chain_cap_applies_compiled(self):
        outcome = run_machine("""
machine M {
  place all;
  state a { when (enter) do { transit b; } }
  state b { when (enter) do { transit a; } }
}""")
        assert outcome["errors"] and "transit chain" in outcome["errors"][0][1]
