"""Differential tests: compiled closures vs the reference tree-walker.

Every scenario runs the exact same machine and trigger script on both
executors and asserts *identical* host traces, final variable snapshots,
transition counts, and error behavior.  This is the contract that lets
every deployment run on the closures while the interpreter stays the
executable specification.
"""

import copy
import dataclasses
import random
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.almanac import MachineInstance, codegen, flatten_machine
from repro.almanac import astnodes as ast
from repro.almanac.parser import parse
from repro.errors import AlmanacRuntimeError
from repro.net.addresses import parse_ip
from repro.net.packet import (
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    Flow,
    FlowKey,
    ProbeBatch,
)
from repro.sim.engine import Simulator
from repro.switchsim.asic import Asic, PortStats
from repro.tasks import (
    ALMANAC_SOURCES,
    make_ddos_task,
    make_dns_reflection_task,
    make_entropy_task,
    make_flood_defender_task,
    make_flow_size_dist_task,
    make_heavy_hitter_task,
    make_hierarchical_hh_task,
    make_new_tcp_conn_task,
    make_partial_tcp_task,
    make_port_scan_task,
    make_slowloris_task,
    make_ssh_brute_force_task,
    make_superspreader_task,
    make_syn_flood_task,
    make_traffic_change_task,
)
from repro.tasks.heavy_hitter import ALMANAC_SOURCE as HH_SOURCE
from tests.almanac import reference_interpreter as interpreter_module
from tests.almanac.reference_interpreter import ReferenceInterpreter

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
                executor=MachineInstance, extra_builtins=None):
    """Run a trigger script against a fresh instance; return its outcome.

    ``loops`` maps each counted loop the closure compiler lowered to
    ``(entries, fallbacks)``: how often it ran, and how many condition
    tests took the generic closures; ``materialized`` maps it to the probe
    batches bound for it that were turned into packets and ``passes`` to
    the entries its row pass served.  Only the production executor runs
    closures, so :func:`assert_backends_identical` compares without them.
    A :class:`ProbeBatch` goes to the production executor as it is and to
    the tree-walker as its packets, the way the soil and the oracle each
    see a probe.
    """
    program = parse(source)
    name = machine or program.machines[-1].name
    compiled = flatten_machine(program, name)
    host = RecordingHost()
    instance = executor(compiled, host, externals=externals,
                        extra_builtins=extra_builtins)
    errors = []
    try:
        instance.start()
    except AlmanacRuntimeError as exc:
        errors.append(("start", str(exc)))
    for op in script:
        kind = op[0]
        try:
            if kind == "var":
                data = op[2]
                if not isinstance(data, ProbeBatch):
                    data = copy.deepcopy(data)
                elif executor is not MachineInstance:
                    data = data.packets()
                instance.fire_trigger_var(op[1], data)
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
        "loops": {loop.line: (loop.entries, loop.fallbacks) for loop in
                  codegen.compile_closures(compiled).counted_loops},
        "materialized": {loop.line: loop.materialized for loop in
                         codegen.compile_closures(compiled).counted_loops},
        "passes": {loop.line: loop.passes for loop in
                   codegen.compile_closures(compiled).counted_loops},
    }


def assert_backends_identical(source, script=(), machine=None,
                              externals=None, extra_builtins=None):
    interpreted = run_machine(source, script, machine, externals,
                              executor=ReferenceInterpreter,
                              extra_builtins=extra_builtins)
    compiled = run_machine(source, script, machine, externals,
                           executor=MachineInstance,
                           extra_builtins=extra_builtins)
    counters = {key: compiled.pop(key)
                for key in ("loops", "materialized", "passes")}
    for key in counters:
        interpreted.pop(key)
    assert compiled == interpreted
    compiled.update(counters)
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


# ----------------------------------------------------------------------
# Counted loops: ``while (i < size(L)) { B; i = i + 1; }`` is lowered to an
# inline test and step.  Each scenario runs on both executors and pins the
# engagement it expects; the comment names a mutation of
# ``codegen._compile_counted_loop`` / ``_counted_loop_vars`` it catches.
# ----------------------------------------------------------------------
def _loop_machine(body, decls="", functions=""):
    return functions + """
machine Loop {
  place all;
  list L;
""" + decls + """
  state s {
    when (recv long n from harvester) do {
""" + body + """
    }
  }
}"""


class TestCountedLoops:
    def test_body_growing_the_list_through_an_alias(self):
        # Mutation caught: len(L) read once at loop entry (3 iterations).
        outcome = assert_backends_identical(_loop_machine("""
      list A = L;
      append(L, 0); append(L, 1); append(L, 2);
      int i = 0;
      while (i < size(L)) {
        if (size(A) < n) then { append(A, i); }
        i = i + 1;
      }
      send i to harvester;"""), (("recv", 6), ("recv", 11)))
        assert [e[1] for e in outcome["trace"]] == [6, 11]
        assert list(outcome["loops"].values()) == [(2, 0)]

    def test_body_that_writes_the_index_is_not_lowered(self):
        # Mutation caught: no written-names check (the inline step would
        # add 1 to the tested value and lose the body's write).
        outcome = assert_backends_identical(_loop_machine("""
      list l = [1, 2, 3, 4, 5, 6, 7];
      int i = 0;
      while (i < size(l)) {
        i = i + n;
        i = i + 1;
      }
      send i to harvester;"""), (("recv", 2),))
        assert outcome["trace"] == [("harvester", 9)]
        assert outcome["loops"] == {}

    def test_float_index_takes_the_generic_closures(self):
        # Mutation caught: the guard accepts floats (no fallback counted).
        outcome = assert_backends_identical(_loop_machine("""
      list l = [1, 2, 3];
      float i = 0.5;
      while (i < size(l)) { i = i + 1; }
      send i to harvester;"""), (("recv", 0),))
        assert outcome["trace"] == [("harvester", 3.5)]
        assert list(outcome["loops"].values()) == [(1, 4)]

    def test_map_string_and_int_sequences(self):
        # Mutation caught: no ``type(L) is list`` guard (``len`` of an int
        # escapes as a raw TypeError instead of the builtin's error).
        outcome = assert_backends_identical(_loop_machine("""
      list m = makeMap();
      mapSet(m, 1, 1);
      mapSet(m, 2, 2);
      int i = 0;
      while (i < size(m)) { i = i + 1; }
      string text = "abc";
      int j = 0;
      while (j < size(text)) { j = j + 1; }
      send [i, j] to harvester;
      int k = 0;
      while (k < size(n)) { k = k + 1; }"""), (("recv", 5),))
        assert outcome["trace"] == [("harvester", [2, 3])]
        assert len(outcome["errors"]) == 1
        assert "builtin size() failed" in outcome["errors"][0][1]
        assert sorted(outcome["loops"].values()) == [(1, 1), (1, 3), (1, 4)]

    def test_size_overridden_by_an_extra_builtin(self):
        # Mutation caught: no identity check on ``rt.builtins["size"]``.
        outcome = assert_backends_identical(_loop_machine("""
      list l = [1, 2, 3];
      int i = 0;
      while (i < size(l)) { i = i + 1; }
      send i to harvester;"""), (("recv", 0),),
            extra_builtins={"size": lambda value: 2 * len(value)})
        assert outcome["trace"] == [("harvester", 6)]
        assert list(outcome["loops"].values()) == [(1, 7)]

    def test_size_overridden_by_a_user_function_is_not_lowered(self):
        # Mutation caught: no check for a user ``function size``.
        outcome = assert_backends_identical(_loop_machine("""
      list l = [1, 2, 3, 4, 5];
      int i = 0;
      while (i < size(l)) { i = i + 1; }
      send i to harvester;""", functions="""
function long size(list l) { return 2; }
"""), (("recv", 0),))
        assert outcome["trace"] == [("harvester", 2)]
        assert outcome["loops"] == {}

    def test_runaway_counted_loop_hits_the_cap(self, monkeypatch):
        # Mutation caught: the cap tested with ``>=`` (one append fewer).
        for module in (codegen, interpreter_module):
            monkeypatch.setattr(module, "MAX_LOOP_ITERATIONS", 50)
        outcome = assert_backends_identical(_loop_machine("""
      list A = L;
      append(A, 0);
      int i = 0;
      while (i < size(L)) { append(A, i); i = i + 1; }"""), (("recv", 0),))
        assert outcome["errors"] == [
            ("recv", "while loop exceeded 50 iterations (line 12)")]
        assert len(outcome["snapshot"]["machine_vars"]["L"]) == 51
        assert list(outcome["loops"].values()) == [(1, 0)]


# ----------------------------------------------------------------------
# Every probe machine of the task library on real probe batches: packet
# lists sampled by a seeded ASIC whose traffic runs through three incidents.
# ----------------------------------------------------------------------
PROBE_TASKS = [
    make_ddos_task(), make_flow_size_dist_task(),
    make_hierarchical_hh_task(inherited=False), make_flood_defender_task(),
    make_superspreader_task(), make_ssh_brute_force_task(),
    make_port_scan_task(), make_dns_reflection_task(), make_slowloris_task(),
    make_entropy_task(), make_new_tcp_conn_task(), make_syn_flood_task(),
    make_partial_tcp_task(),
]

_SAMPLES_LOOP = re.compile(r"while \(i < size\(samples\)\)")

#: The library probe machines whose samples loop the row-statement grammar
#: admits (accumulate, distinct sets, append, row-flag filters): each runs
#: it as one row pass.
ROW_PASS_MACHINES = {"DDoS", "PortScan", "EntropyEstim", "SynFlood",
                     "Slowloris", "PartialTcpFlow"}


def _loop_bodies(source):
    """``{line: body}`` of every ``while`` in ``source``."""
    found = {}

    def walk(node):
        if isinstance(node, ast.While):
            found[node.line] = node.body
        if isinstance(node, (list, tuple)):
            for item in node:
                walk(item)
        elif dataclasses.is_dataclass(node):
            for field in dataclasses.fields(node):
                walk(getattr(node, field.name))
    walk(parse(source))
    return found


def _reacts(node):
    """Whether ``node`` sends, transits or calls into the TCAM."""
    if isinstance(node, (ast.Send, ast.Transit)):
        return True
    if isinstance(node, ast.Call) and "TCAM" in node.func:
        return True
    if isinstance(node, (list, tuple)):
        return any(_reacts(item) for item in node)
    return dataclasses.is_dataclass(node) and any(
        _reacts(getattr(node, field.name))
        for field in dataclasses.fields(node))


def _trigger_kinds(task):
    compiled = flatten_machine(parse(task.source),
                               task.machines[0].machine_name)
    return {decl.name: decl.typ for decl in compiled.trigger_decls}


def _probe_filter(task, var):
    config = task.machines[0]
    compiled = flatten_machine(parse(task.source), config.machine_name)
    instance = MachineInstance(compiled, RecordingHost(),
                               externals=config.externals)
    return instance.snapshot()["machine_vars"][var]["what"]


def _probe_batches(filters, steps=16, seed=3):
    """``({filter: [probe batch per step]}, [port-stat rows per step])``
    from one seeded ASIC: random background traffic and three incidents
    that each hold for three steps — a SYN flood with DNS reflection onto
    one victim, then a port scan and a superspreader, then a Slowloris
    crowd with SSH guessing — then rate churn on the background.  The
    rows are the ASIC's own ``PortStats``, as a poll hands them to a
    seed."""
    rng = random.Random(seed)
    sim = Simulator()
    asic = Asic(sim, num_ports=8)
    background = []

    def attach(src, dst, sport, dport, proto, rate, size, flags=0):
        flow = Flow(FlowKey(src, dst, sport, dport, proto), rate_bps=rate,
                    start_time=sim.now, packet_size=size,
                    default_tcp_flags=flags)
        asic.attach_flow(flow, rng.randrange(8), rng.randrange(8))
        return flow

    client, server = parse_ip("10.0.0.0"), parse_ip("10.1.0.0")
    for _ in range(60):
        proto = rng.choice([PROTO_TCP, PROTO_TCP, PROTO_UDP])
        background.append(attach(
            client + rng.randrange(256), server + rng.randrange(16),
            rng.choice([53, 1024 + rng.randrange(60000)]),
            rng.choice([22, 53, 80, 443, 8080]), proto,
            rng.choice([1e3, 1e4, 5e4]), rng.choice([64, 500, 1500]),
            rng.choice([0, 0, TCP_SYN]) if proto == PROTO_TCP else 0))
    victim = server + 7
    incidents = {
        4: lambda: (
            [attach(parse_ip("10.9.0.0") + k, victim, 2000 + k, 80,
                    PROTO_TCP, 5e5, 1500, TCP_SYN) for k in range(80)]
            + [attach(parse_ip("10.7.0.0") + k, victim, 53, 3000 + k,
                      PROTO_UDP, 1e6, 3000) for k in range(30)]),
        7: lambda: (
            [attach(parse_ip("10.8.0.1"), victim, 4444, port, PROTO_TCP,
                    1e6, 64, TCP_SYN) for port in range(1000, 1050)]
            + [attach(parse_ip("10.4.0.1"), parse_ip("10.2.0.0") + k,
                      4000 + k, 80, PROTO_TCP, 1e6, 500)
               for k in range(60)]),
        10: lambda: (
            [attach(parse_ip("10.5.0.0") + k, server + 9, 6000 + k, 80,
                    PROTO_TCP, 1e5, 100) for k in range(60)]
            + [attach(parse_ip("10.6.0.0") + k, victim, 5000 + k, 22,
                      PROTO_TCP, 5e4, 100, TCP_SYN) for k in range(20)]),
    }
    running = []
    batches = {fil: [] for fil in filters}
    stats = []
    for step in range(steps):
        sim.run(until=0.05 * step)
        if step in incidents or step == 13:
            for flow in running:
                flow.stop(sim.now)
            running = incidents[step]() if step in incidents else []
        if step == 13:
            for flow in rng.sample(background, 30):
                flow.set_rate(rng.choice([0.0, 2e3, 3e5]), sim.now)
        for fil in filters:
            batches[fil].append(asic.sample_packets(fil, 64))
        stats.append(asic.read_port_stats_batch())
    return batches, stats


class TestProbeBatches:
    def test_every_probe_machine_of_the_library_is_covered(self):
        covered = {task.machines[0].machine_name for task in PROBE_TASKS}
        with_probe = set()
        for source, machine in ALMANAC_SOURCES.values():
            compiled = flatten_machine(parse(source), machine)
            if any(d.typ == "probe" for d in compiled.trigger_decls):
                with_probe.add(machine)
        assert covered == with_probe and len(covered) == 13

    def test_probe_handlers_identical_and_counted_loops_engage(
            self, monkeypatch):
        kinds = {task.task_id: _trigger_kinds(task) for task in PROBE_TASKS}
        probe_of = {task.task_id: next(var for var, typ in
                                       kinds[task.task_id].items()
                                       if typ == "probe")
                    for task in PROBE_TASKS}
        filters = {task.task_id: _probe_filter(task, probe_of[task.task_id])
                   for task in PROBE_TASKS}
        batches, port_stats = _probe_batches(set(filters.values()))
        made = []
        packets_of = ProbeBatch.packets

        def counted_packets(batch):
            made.append(batch)
            return packets_of(batch)
        monkeypatch.setattr(ProbeBatch, "packets", counted_packets)
        reacted, packets = set(), 0
        on_passes, on_entry = set(), set()
        for task in PROBE_TASKS:
            config = task.machines[0]
            script = []
            for step, batch in enumerate(batches[filters[task.task_id]]):
                script.append(("var", probe_of[task.task_id], batch))
                packets += len(batch)
                if step % 4 == 3:
                    for var, typ in kinds[task.task_id].items():
                        if typ != "probe":
                            script.append(
                                ("var", var,
                                 port_stats[step] if typ == "poll" else None))
            made.clear()
            outcome = assert_backends_identical(
                task.source, script, machine=config.machine_name,
                externals=config.externals)
            assert outcome["errors"] == []
            # The tree-walker gets each batch as its packets, one call per
            # firing; the production executor made the rest.
            firings = len(batches[filters[task.task_id]])
            made_by_closures = len(made) - firings
            if any(entry[0] == "rule+" for entry in outcome["trace"]):
                reacted.add(task.task_id)
            lines = task.source.splitlines()
            sample_loops = {number for number, text in
                            enumerate(lines, start=1)
                            if _SAMPLES_LOOP.search(text)}
            assert sample_loops, task.task_id
            loops, passes = outcome["loops"], outcome["passes"]
            # Every `while (i < size(samples))` was lowered and ran inline
            # on every iteration; so did every other lowered loop it entered.
            assert sample_loops <= set(loops), task.task_id
            assert all(loops[line][0] > 0 for line in sample_loops)
            assert all(fallbacks == 0 for _, fallbacks in loops.values())
            assert set(outcome["materialized"].values()) == {0}
            # No loop that sends, transits or calls into the TCAM runs as
            # a pass.
            bodies = _loop_bodies(task.source)
            assert all(passes[line] == 0 for line in loops
                       if _reacts(bodies[line])), task.task_id
            if all(passes[line] == loops[line][0] for line in sample_loops):
                # Every entry ran its row pass on the batch, and no batch
                # was turned into packets.
                assert made_by_closures == 0, task.task_id
                on_passes.add(config.machine_name)
            else:
                # A samples loop no pass serves (a computed key, a user
                # function) lets the samples escape: the handler turns each
                # batch into packets on entry, once per firing.
                assert all(passes[line] == 0 for line in sample_loops)
                assert made_by_closures == firings, task.task_id
                on_entry.add(config.machine_name)
            if config.machine_name == "FloodDefender":
                # The loop in ``countMisses`` (a computed key) is no pass.
                assert set(passes.values()) == {0}
        # The batches carried the incidents far enough to trip reactions.
        assert packets == 13 * 16 * 64
        assert len(reacted) >= 7
        assert on_passes == ROW_PASS_MACHINES
        assert on_entry == {"FlowSizeDist", "HHHFull", "Superspreader",
                            "SshBruteForce", "DnsReflection", "NewTcpConn",
                            "FloodDefender"}

    def test_port_stat_loops_run_as_a_pass(self):
        # getHH's and TrafficChange's loops over the ASIC's own PortStats
        # rows run as a pass on every entry; on dict rows (struct values)
        # the row-kind guard sends every entry to the closures.
        # Mutation caught: no row-kind guard (the pass then reads a
        # ``_StructWithAttributes`` row's attributes, where the closures
        # read its items).
        _, port_stats = _probe_batches(())
        tasks = (make_heavy_hitter_task(threshold=2e6),
                 make_traffic_change_task(factor=2))
        for task in tasks:
            config = task.machines[0]
            loop = next(number for number, text in
                        enumerate(task.source.splitlines(), start=1)
                        if re.search(r"while \(i < size\(stats\)\)", text))
            struct_rows = [[dict(dataclasses.asdict(row),
                                 __struct__="PortStat") for row in rows]
                           for rows in port_stats]
            attribute_rows = [[_StructWithAttributes(row) for row in rows]
                              for rows in struct_rows]
            for rows, passed in ((port_stats, True), (struct_rows, False),
                                 (attribute_rows, False)):
                outcome = assert_backends_identical(
                    task.source, [("var", "pollStats", step)
                                  for step in rows],
                    machine=config.machine_name, externals=config.externals)
                assert outcome["errors"] == []
                assert outcome["trace"], task.task_id
                entries = outcome["loops"][loop][0]
                assert entries == len(port_stats)
                assert outcome["passes"][loop] == (entries if passed else 0)
                assert all(count == 0 for line, count in
                           outcome["passes"].items() if line != loop)
            if config.machine_name == "HH":
                assert any(entry[0] == "rule+" for entry in outcome["trace"])

    # ------------------------------------------------------------------
    # Escapes and edges: each runs on both executors (production on the
    # batch, the tree-walker on its packets) and names the one-line
    # mutation of the batch lowering it fails.
    # ------------------------------------------------------------------
    def test_packet_stored_in_a_machine_list_escapes(self):
        # Mutation caught: the batch offered to a loop without a row pass
        # (``_batch_shape`` asked of every counted loop): the first loop, a
        # sum into a machine variable, then counts both materialisations.
        outcome = assert_backends_identical(_probe_machine("""
      int i = 0;
      while (i < size(samples)) { total = total + get(samples, i).size;
                                  i = i + 1; }
      int j = 0;
      while (j < size(samples)) {
        packet p = get(samples, j);
        append(kept, p);
        j = j + 1;
      }
      send size(kept) to harvester;"""), _fire(_batch(), _batch(rows=2)))
        assert outcome["trace"] == [("harvester", 5), ("harvester", 7)]
        assert outcome["snapshot"]["machine_vars"]["kept"] \
            == _batch().packets() + _batch(rows=2).packets()
        # Neither loop is a row pass, so neither is a batch loop: the
        # second let the samples escape, and both firings handed the
        # handler packets that no loop counts.
        assert list(outcome["materialized"].values()) == [0, 0]

    def test_send_p_escapes(self):
        # Mutation caught: no prologue for a handler whose samples escape
        # (``_batch_only`` always true: the batch reaches the generic
        # loop's ``get``, which rejects it).
        outcome = assert_backends_identical(_probe_machine("""
      int i = 0;
      while (i < size(samples)) {
        packet p = get(samples, i);
        if (p.is_syn) then { send p to harvester; }
        i = i + 1;
      }"""), _fire(_batch()))
        assert outcome["trace"] == [("harvester", _batch().packets()[1])]
        assert list(outcome["materialized"].values()) == [0]

    def test_samples_used_outside_a_loop_materialize_on_entry(self):
        # Mutation caught: ``any`` for ``all`` in ``_batch_only``, so that
        # ``size(samples)`` outside a loop passes as a covered use (the
        # batch reaches ``append``, which rejects it).  The loop sums into
        # a local, so it is a batch loop and counts the materialisation.
        outcome = assert_backends_identical(_probe_machine("""
      send size(samples) to harvester;
      append(samples, get(samples, 0));
      long sum = 0;
      int i = 0;
      while (i < size(samples)) { sum = sum + get(samples, i).size;
                                  i = i + 1; }
      send sum to harvester;"""), _fire(_batch(rows=3)))
        assert outcome["errors"] == []
        assert outcome["trace"] == [("harvester", 3), ("harvester", 600)]
        assert list(outcome["materialized"].values()) == [1]
        assert list(outcome["passes"].values()) == [1]

    def test_index_starting_negative_or_past_zero(self):
        # Mutation caught: the loop's ``packets()`` after a declined pass
        # left out (the closures' ``get`` then rejects the batch).
        for start, bound in (("-3", "5"), ("2", "5"), ("-7", "5")):
            outcome = assert_backends_identical(_probe_machine(f"""
      int i = {start};
      while (i < size(samples)) {{
        packet p = get(samples, i);
        send p.src_port + p.size to harvester;
        i = i + 1;
      }}
      int j = {start};
      while (j < size(samples)) {{
        send get(samples, j).size - get(samples, j).dst_port
          to harvester;
        j = j + 1;
      }}"""), _fire(_batch(rows=int(bound))))
            assert list(outcome["materialized"].values()) == [0, 0]
            # A loop the pass admits, alone in its handler: the pass
            # declines a negative start, and the loop turns the batch into
            # its packets once.
            volume = assert_backends_identical(_probe_machine(f"""
      list volume = makeMap();
      int k = {start};
      while (k < size(samples)) {{
        packet p = get(samples, k);
        mapInc(volume, p.dst_port, p.size);
        k = k + 1;
      }}
      send volume to harvester;"""), _fire(_batch(rows=int(bound))))
            declined = start.startswith("-")
            assert list(volume["materialized"].values()) == [int(declined)]
            assert list(volume["passes"].values()) == [int(not declined)]
            if start == "-7":
                assert outcome["errors"] == [(
                    "var", "builtin get() failed (line 11): "
                           "list index out of range")]
                assert volume["errors"] == [(
                    "var", "builtin get() failed (line 12): "
                           "list index out of range")]
            else:
                assert outcome["errors"] == volume["errors"] == []
                assert len(outcome["trace"]) == 2 * (5 - int(start))
                assert volume["trace"] == [("harvester", (
                    {80: 300, 81: 800} if start == "2" else
                    {80: 700, 81: 1800}))]

    def test_escaped_samples_take_the_pass_as_packet_rows(self):
        # A handler whose samples escape hands its loop their packets; a
        # loop of row statements still runs as a pass, on the packets'
        # attributes.
        outcome = assert_backends_identical(_probe_machine("""
      send size(samples) to harvester;
      list volume = makeMap();
      int i = 0;
      while (i < size(samples)) {
        packet p = get(samples, i);
        if (p.is_syn or p.size > 150) then {
          mapInc(volume, p.dst_port, p.size);
        }
        i = i + 1;
      }
      send volume to harvester;"""), _fire(_batch(), _batch(rows=3)))
        assert outcome["trace"] == [
            ("harvester", 5), ("harvester", {81: 1000, 80: 300}),
            ("harvester", 3), ("harvester", {81: 400})]
        assert list(outcome["materialized"].values()) == [2]
        assert list(outcome["passes"].values()) == [2]
        # A pass reading ``timestamp``, a field no batch column holds, is
        # no batch loop: its samples escape too.  Mutation caught: the
        # batch offered to every loop with a row pass (``_batch_shape``
        # not asked), whose column read of ``timestamp`` then raises
        # AttributeError.
        outcome = assert_backends_identical(_probe_machine("""
      list seen = makeMap();
      int i = 0;
      while (i < size(samples)) {
        packet p = get(samples, i);
        mapInc(seen, p.src_port, p.timestamp);
        i = i + 1;
      }
      send seen to harvester;"""), _fire(_batch(rows=3)))
        assert outcome["errors"] == []
        assert outcome["trace"] == [("harvester", {1000: 2.5, 1001: 5.0})]
        assert list(outcome["materialized"].values()) == [0]
        assert list(outcome["passes"].values()) == [1]

    def test_user_function_get_is_not_read_as_columns(self):
        # Mutation caught: no user-function check on the builtins a row
        # pass calls (the pass reads the batch's ``size`` column instead of
        # calling the user's ``get``).
        outcome = assert_backends_identical(_probe_machine("""
      long sum = 0;
      int i = 0;
      while (i < size(samples)) {
        packet p = get(samples, i);
        sum = sum + p.size;
        i = i + 1;
      }
      send sum to harvester;""", functions="""
function packet get(list l, long i) { return Row { .size = i * 10 }; }
"""), _fire(_batch(rows=4)))
        assert outcome["trace"] == [("harvester", 60)]
        assert list(outcome["materialized"].values()) == [0]
        assert list(outcome["passes"].values()) == [0]

    def test_host_shadowed_size_and_get_materialize_in_the_loop(self):
        # Mutation caught: no builtin identity check in the row pass (the
        # pass sums all five rows' sizes, not what the host's ``size`` and
        # ``get`` report).
        body = """
      long sum = 0;
      int i = 0;
      while (i < size(samples)) { sum = sum + get(samples, i).size;
                                  i = i + 1; }
      send sum to harvester;"""
        for extra, sent in (({"size": lambda l: min(len(l), 2)}, 300),
                            ({"get": lambda l, i: l[0]}, 500)):
            outcome = assert_backends_identical(
                _probe_machine(body), _fire(_batch()), extra_builtins=extra)
            assert outcome["trace"] == [("harvester", sent)]
            assert list(outcome["materialized"].values()) == [1]
            assert list(outcome["passes"].values()) == [0]
            assert list(outcome["loops"].values())[0][1] \
                == (3 if "size" in extra else 0)


class _StructWithAttributes(dict):
    """A struct value that also answers attribute reads, with zeros: the
    closures read a dict row's items, so a row pass must not read it."""

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return 0.0


def _probe_machine(body, functions=""):
    """A one-handler machine whose probe ``pkts`` binds ``samples``."""
    return functions + """
machine Probe {
  place all;
  probe pkts = Probe { .ival = 1, .what = port ANY };
  long total = 0;
  list kept;
  state s {
    when (pkts as samples) do {""" + body + """
    }
  }
}"""


_FLAG_CYCLE = (0, TCP_SYN, TCP_SYN | TCP_ACK, TCP_FIN, TCP_RST)


def _batch(rows=5, now=2.5):
    """A probe batch of ``rows`` samples whose last one repeats a flow, as
    the ASIC's apportionment repeats heavy flows."""
    flows = [Flow(FlowKey(parse_ip("10.0.0.1") + k, parse_ip("10.1.0.1"),
                          1000 + k, 80 + k % 2, PROTO_TCP),
                  rate_bps=1e3, packet_size=100 * (k + 1),
                  default_tcp_flags=_FLAG_CYCLE[k % 5])
             for k in range(rows - 1)]
    flows.append(flows[-1])
    return ProbeBatch(flows, now, ProbeBatch.columns_of(flows))


def _fire(*batches):
    return [("var", "pkts", batch) for batch in batches]


# ----------------------------------------------------------------------
# Row passes against the tree-walker: loop bodies drawn from the row-
# statement grammar run on probe batches and on port-stat rows, under
# runtime states each built to trip one of the pass's guards.
# ----------------------------------------------------------------------
_ROW_MACHINE = """
machine Rows {
  place all;
  probe pkts = Probe { .ival = 1, .what = port ANY };
  poll pollStats = Poll { .ival = 1, .what = port ANY };
  list volume = makeMap();
  list sources = makeMap();
  list kept;
  long th = 700;
  long start = 0;
  float accInit = 0.5;
  long rowsKept = 0;
  long rowsCollected = 0;
  state s {
    when (pkts as samples) do {%(probe)s
    }
    when (pollStats as samples) do {
      if (rowsKept == 1) then { kept = samples; }
      if (rowsCollected == 1) then { mapSet(sources, 3, samples); }%(poll)s
    }
    when (recv string cmd from harvester) do {
      if (cmd == "alias") then { sources = volume; }
      if (cmd == "zero") then { mapSet(sources, 1, 0); }
      if (cmd == "five") then { mapSet(sources, 1, 5); }
      if (cmd == "listcount") then { mapSet(volume, 2, [1]); }
      if (cmd == "strth") then { th = "x"; }
      if (cmd == "stracc") then { accInit = "s"; }
      if (cmd == "keptmap") then { kept = makeMap(); }
      if (cmd == "volumelist") then { volume = [5]; }
      if (cmd == "rowskept") then { rowsKept = 1; }
      if (cmd == "rowscollected") then { rowsCollected = 1; }
    }
    when (recv long n from harvester) do { start = n; }
  }
}"""

_ROW_LOOP = """
      float acc = accInit;
      int i = start;
      while (i < size(samples)) {
        packet p = get(samples, i);
%s
        i = i + 1;
      }
      send acc to harvester;"""

#: The row fields a drawn body names, per row kind: two keys (small ints,
#: so keys repeat), two values and two flags.
_FIELDS = {
    "probe": {"key0": "dst_ip", "key1": "dst_port", "val0": "size",
              "val1": "src_port", "flag0": "is_syn", "flag1": "is_synack"},
    "poll": {"key0": "port", "key1": "port", "val0": "rate_bps",
             "val1": "tx_bytes", "flag0": "rate_bps", "flag1": "tx_packets"},
}

_DISTINCT = ("list seen = mapGet(sources, p.<key0>); if (seen == 0) then { "
             "list fresh; mapSet(sources, p.<key0>, fresh); seen = fresh; } "
             "if (not contains(seen, p.<val0>)) then { "
             "append(seen, p.<val0>); }")

#: Runtime state per case, each but ``none`` and ``pastend`` (a pass with
#: no rows to walk) aimed at one guard of the row pass: the script ops
#: that build it, the row kinds it fires, the builtins it shadows, and the
#: statements a drawn body gets so that the guard has something to check.
#: ``cap`` fires a batch past the (lowered) loop cap.
_GUARD_CASES = {
    "none": ((), ("probe", "poll"), None, ""),
    "pastend": ((("recv", 20),), ("probe", "poll"), None, ""),
    "negative": ((("recv", -2),), ("probe", "poll"), None, ""),
    "cap": ((), ("probe", "poll"), None, ""),
    "size": ((), ("probe", "poll"), {"size": lambda l: min(len(l), 3)}, ""),
    "get": ((), ("probe", "poll"), {"get": lambda l, i: l[0]}, ""),
    "mapInc": ((), ("probe", "poll"),
               {"mapInc": lambda m, k, a=1: m.setdefault(k, 7)},
               "mapInc(volume, p.<key1>);"),
    "alias": ((("recv", "alias"),), ("probe", "poll"), None,
              "mapInc(volume, p.<key0>, p.<val1>); " + _DISTINCT),
    "zero": ((("recv", "zero"),), ("probe", "poll"), None, _DISTINCT),
    "five": ((("recv", "five"),), ("probe", "poll"), None, _DISTINCT),
    "listcount": ((("recv", "listcount"),), ("probe", "poll"), None,
                  "mapInc(volume, p.<key1>, 2);"),
    "strth": ((("recv", "strth"),), ("probe", "poll"), None,
              "if (p.<val0> >= th) then { append(kept, p.<val1>); }"),
    "stracc": ((("recv", "stracc"),), ("probe", "poll"), None,
               "acc = acc + p.<val0>;"),
    "keptmap": ((("recv", "keptmap"),), ("probe", "poll"), None,
                "append(kept, p.<key0>);"),
    "volumelist": ((("recv", "volumelist"),), ("probe", "poll"), None,
                   "mapInc(volume, p.<key0>);"),
    "rowskept": ((("recv", "rowskept"),), ("poll",), None,
                 "append(kept, p.<val1>);"),
    "rowscollected": ((("recv", "rowscollected"),), ("poll",), None,
                      _DISTINCT),
    "dictrows": ((), ("poll",), None, ""),
    "introws": ((), ("poll",), None, ""),
    "strrow": ((), ("poll",), None, "mapInc(volume, p.<key0>, p.<val0>);"),
}

_MAX_ROWS = 8


def _row_read(role):
    return st.tuples(st.sampled_from(["p", "get(samples, i)"]),
                     st.sampled_from([role + "0", role + "1"])).map(
        lambda pair: "%s.<%s>" % pair)


def _row_condition():
    operand = st.sampled_from(["th", "500", "1.5"])
    atom = st.one_of(
        _row_read("flag"),
        st.tuples(_row_read("val"),
                  st.sampled_from(["==", "<>", "<", "<=", ">", ">="]),
                  operand).map(" ".join))
    return st.recursive(atom, lambda inner: st.one_of(
        inner.map(lambda c: f"not ({c})"),
        st.tuples(inner, st.sampled_from(["and", "or"]), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})")), max_leaves=3)


def _row_statement():
    amount = st.one_of(_row_read("val"), st.sampled_from(["2", "2.5", "th"]))
    leaf = st.one_of(
        st.tuples(_row_read("key"), amount).map(
            lambda t: "mapInc(volume, %s, %s);" % t),
        _row_read("key").map(lambda k: f"mapInc(volume, {k});"),
        _row_read("val").map(lambda v: f"append(kept, {v});"),
        st.tuples(_row_read("key"), _row_read("val")).map(
            lambda t: ("list seen = mapGet(sources, %s); "
                       "if (seen == 0) then { list fresh; "
                       "mapSet(sources, %s, fresh); seen = fresh; } "
                       "if (not contains(seen, %s)) then { "
                       "append(seen, %s); }") % (t[0], t[0], t[1], t[1])),
        _row_read("val").map(lambda v: f"acc = acc + {v};"))
    return st.recursive(leaf, lambda body: st.tuples(
        _row_condition(), st.lists(body, max_size=2),
        st.none() | st.lists(body, min_size=1, max_size=2)).map(
            lambda t: "if (%s) then { %s }%s" % (
                t[0], " ".join(t[1]),
                "" if t[2] is None else " else { %s }" % " ".join(t[2]))),
        max_leaves=5)


def _probe_rows(draw, count):
    flows = [Flow(FlowKey(draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                          draw(st.integers(1000, 1003)),
                          draw(st.integers(1, 3)), PROTO_TCP),
                  rate_bps=1e3, packet_size=draw(st.sampled_from([64, 700])),
                  default_tcp_flags=draw(st.sampled_from(_FLAG_CYCLE)))
             for _ in range(count)]
    return ProbeBatch(flows, 1.0, ProbeBatch.columns_of(flows))


def _poll_rows(draw, count, case):
    rows = [PortStats(draw(st.integers(1, 3)), 1.0,
                      draw(st.sampled_from([0.0, 250.0, 900.5])),
                      draw(st.sampled_from([0.0, 3.0])),
                      draw(st.sampled_from([0.0, 600.0, 1200.25])))
            for _ in range(count)]
    if case == "strrow" and rows:
        rows[draw(st.integers(0, count - 1))].rate_bps = "7"
    if case == "dictrows":
        return [dict(dataclasses.asdict(row), __struct__="PortStat")
                for row in rows]
    if case == "introws":
        return [row.port for row in rows]
    return rows


@st.composite
def _row_cases(draw, case):
    """``(on the grammar?, source, script)`` of one drawn loop body under
    ``case``'s runtime state; one body in four also sends (off the
    grammar: its loop keeps the closures)."""
    ops, kinds, _extra, witness = _GUARD_CASES[case]
    statements = draw(st.lists(_row_statement(), min_size=1, max_size=4))
    statements.insert(draw(st.integers(0, len(statements))), witness)
    on_grammar = draw(st.integers(0, 3)) > 0
    if not on_grammar:
        statements.insert(draw(st.integers(0, len(statements))),
                          "send p.<key0> to harvester;")
    body = " ".join(statements)
    source = _ROW_MACHINE % {
        kind: _ROW_LOOP % re.sub(r"<(\w+)>",
                                 lambda m: _FIELDS[kind][m.group(1)], body)
        for kind in ("probe", "poll")}
    script = list(ops)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        count = (draw(st.integers(_MAX_ROWS + 1, _MAX_ROWS + 3))
                 if case == "cap" else draw(st.integers(0, _MAX_ROWS)))
        if kind == "probe":
            script.append(("var", "pkts", _probe_rows(draw, count)))
        else:
            script.append(("var", "pollStats",
                           _poll_rows(draw, count, case)))
    return on_grammar, source, script


class TestRowPasses:
    def test_row_passes_match_the_tree_walker(self):
        # Every drawn loop runs identically on both executors.  A loop of
        # row statements takes the pass on every entry in a benign state,
        # and each guard's own state sends some entry to the closures.
        # Mutations caught (one per guard, recorded in docs/performance.md
        # "Row loops as one pass"): the builtin identity check, `i >= 0`,
        # the loop cap, the list-row value check, the counts / sets /
        # list target type checks, `L` among a target's values, the
        # counts-vs-sets alias check, the operand and accumulator checks.
        fell_back, passed = set(), set()

        def check(case, drawn):
            on_grammar, source, script = drawn
            outcome = assert_backends_identical(
                source, script, extra_builtins=_GUARD_CASES[case][2])
            entries = sum(entries for entries, _ in
                          outcome["loops"].values())
            passes = sum(outcome["passes"].values())
            if not on_grammar:
                assert passes == 0
            elif case in ("none", "pastend"):
                assert passes == entries
            if passes:
                passed.add(case)
            if on_grammar and passes < entries:
                fell_back.add(case)

        def runner(case):
            @settings(max_examples=15, derandomize=True, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])
            @given(_row_cases(case))
            def run(drawn):
                check(case, drawn)
            return run

        saved = codegen.MAX_LOOP_ITERATIONS
        for module in (codegen, interpreter_module):
            module.MAX_LOOP_ITERATIONS = _MAX_ROWS
        try:
            for case in _GUARD_CASES:
                runner(case)()
        finally:
            for module in (codegen, interpreter_module):
                module.MAX_LOOP_ITERATIONS = saved
        assert fell_back == set(_GUARD_CASES) - {"none", "pastend"}
        assert {"none", "pastend"} <= passed
