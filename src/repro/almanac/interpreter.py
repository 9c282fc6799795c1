"""Almanac state-machine interpreter.

A :class:`CompiledMachine` is the flattened, inheritance-resolved form of a
``machine`` declaration; a :class:`MachineInstance` executes it against a
:class:`~repro.almanac.stdlib.HostInterface`.  The soil drives instances by
calling the ``fire_*`` methods when triggers occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.almanac import astnodes as ast
from repro.almanac.stdlib import (
    HostInterface,
    host_builtins,
    make_struct,
    pure_builtins,
)
from repro.errors import AlmanacRuntimeError
from repro.net import filters as flt
from repro.net.addresses import Prefix

#: Iteration cap for ``while`` loops; a seed must never wedge its switch.
MAX_LOOP_ITERATIONS = 1_000_000

#: Cap on chained ``transit`` calls within one event dispatch.
MAX_TRANSIT_CHAIN = 64

# The closure-compilation backend (repro.almanac.codegen) imports this
# module for shared semantics helpers, so it is imported lazily here.
_codegen = None


def _get_codegen():
    global _codegen
    if _codegen is None:
        from repro.almanac import codegen
        _codegen = codegen
    return _codegen

_TYPE_DEFAULTS: Dict[str, Any] = {
    "bool": False, "int": 0, "long": 0, "float": 0.0, "string": "",
    "list": None,  # fresh list per instance; see _default_value
    "packet": None, "action": None, "filter": None,
}


def _default_value(typ: str) -> Any:
    if typ == "list":
        return []
    return _TYPE_DEFAULTS.get(typ)


# ---------------------------------------------------------------------------
# Flattening (inheritance resolution)
# ---------------------------------------------------------------------------


@dataclass
class CompiledState:
    name: str
    var_decls: List[ast.VarDecl]
    util: Optional[ast.UtilDecl]
    events: List[ast.Event]  # state events first, then inherited machine ones


@dataclass
class CompiledMachine:
    """Inheritance-flattened machine, ready to instantiate or serialize."""

    name: str
    var_decls: List[ast.VarDecl]
    states: Dict[str, CompiledState]
    initial_state: str
    placements: List[ast.Placement]
    functions: Dict[str, ast.FunctionDecl]

    @property
    def external_names(self) -> List[str]:
        return [d.name for d in self.var_decls if d.external]

    @property
    def trigger_decls(self) -> List[ast.VarDecl]:
        return [d for d in self.var_decls if d.is_trigger]


def _trigger_signature(trigger: ast.Trigger) -> Tuple:
    """Identity of a trigger for machine-level-event override resolution."""
    if isinstance(trigger, ast.EnterTrigger):
        return ("enter",)
    if isinstance(trigger, ast.ExitTrigger):
        return ("exit",)
    if isinstance(trigger, ast.ReallocTrigger):
        return ("realloc",)
    if isinstance(trigger, ast.VarTrigger):
        return ("var", trigger.var)
    if isinstance(trigger, ast.RecvTrigger):
        return ("recv", trigger.pat_type, trigger.source)
    raise AlmanacRuntimeError(f"unknown trigger {trigger!r}")


def flatten_machine(program: ast.Program, name: str) -> CompiledMachine:
    """Resolve ``extends`` chains and machine-level events.

    Rules (SIII-A-a): single inheritance; child states override parent
    states by name; variables cannot be overridden or shadowed.
    Machine-level events apply to every state unless the state declares an
    event with the same trigger signature.
    """
    chain: List[ast.MachineDecl] = []
    current: Optional[str] = name
    seen = set()
    while current is not None:
        if current in seen:
            raise AlmanacRuntimeError(f"inheritance cycle at {current!r}")
        seen.add(current)
        try:
            decl = program.machine(current)
        except KeyError:
            raise AlmanacRuntimeError(
                f"machine {current!r} not found (extends chain of {name!r})")
        chain.append(decl)
        current = decl.extends
    chain.reverse()  # base first

    var_decls: List[ast.VarDecl] = []
    var_names: set = set()
    states: Dict[str, CompiledState] = {}
    state_order: List[str] = []
    machine_events: List[ast.Event] = []
    placements: List[ast.Placement] = []
    for decl in chain:
        for var in decl.var_decls:
            if var.name in var_names:
                raise AlmanacRuntimeError(
                    f"variable {var.name!r} shadows an inherited variable "
                    f"in machine {decl.name!r}")
            var_names.add(var.name)
            var_decls.append(var)
        for state in decl.states:
            if state.name not in states:
                state_order.append(state.name)
            states[state.name] = CompiledState(
                name=state.name, var_decls=list(state.var_decls),
                util=state.util, events=list(state.events))
        machine_events.extend(decl.events)
        if decl.placements:
            placements = list(decl.placements)  # child overrides placement
    if not state_order:
        raise AlmanacRuntimeError(f"machine {name!r} declares no states")

    # Merge machine-level events into every state, letting state-level
    # events with the same signature win.
    for state in states.values():
        local = {_trigger_signature(e.trigger) for e in state.events}
        for event in machine_events:
            if _trigger_signature(event.trigger) not in local:
                state.events.append(event)

    functions = {f.name: f for f in program.functions}
    return CompiledMachine(
        name=name, var_decls=var_decls, states=states,
        initial_state=state_order[0], placements=placements,
        functions=functions)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Scope:
    """A chain of variable frames (machine vars < state vars < locals)."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.vars: Dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name: str) -> Any:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        raise AlmanacRuntimeError(f"undefined variable {name!r}")

    def assign(self, name: str, value: Any) -> None:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                scope.vars[name] = value
                return
            scope = scope.parent
        raise AlmanacRuntimeError(f"assignment to undeclared variable {name!r}")

    def declare(self, name: str, value: Any) -> None:
        self.vars[name] = value

    def __contains__(self, name: str) -> bool:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                return True
            scope = scope.parent
        return False


class MachineInstance:
    """A running seed: one instantiated state machine on one host."""

    def __init__(self, compiled: CompiledMachine, host: HostInterface,
                 externals: Optional[Mapping[str, Any]] = None,
                 instance_id: str = "",
                 extra_builtins: Optional[Mapping[str, Callable[..., Any]]]
                 = None, backend: Optional[str] = None,
                 tracer: Optional[Any] = None) -> None:
        self.compiled = compiled
        self.host = host
        self.instance_id = instance_id or compiled.name
        # Duck-typed repro.obs.trace.Tracer (no import: the interpreter
        # stays observability-agnostic).  The dispatch fast path below
        # costs exactly one attribute load + branch when this is None —
        # the disabled-instrumentation bound gated by run_perf.py.
        self._tracer = tracer
        self.builtins: Dict[str, Callable[..., Any]] = {}
        self.builtins.update(pure_builtins())
        self.builtins.update(host_builtins(host))
        if extra_builtins:
            self.builtins.update(extra_builtins)
        self.machine_scope = _Scope()
        self.state_scope = _Scope(self.machine_scope)
        # Pinned references to the scope dicts: the compiled backend reads
        # and writes variables through these instead of walking the chain.
        self._mvars = self.machine_scope.vars
        self._svars = self.state_scope.vars
        self.current_state = compiled.initial_state
        self.transitions = 0
        self.events_handled = 0
        self._transit_depth = 0
        self._started = False
        codegen = _get_codegen()
        if backend is None:
            backend = codegen.default_backend()
        if backend == codegen.BACKEND_COMPILED:
            self._code = codegen.compile_closures(compiled)
        elif backend == codegen.BACKEND_INTERPRET:
            self._code = None
        else:
            raise AlmanacRuntimeError(f"unknown backend {backend!r}")
        self.backend = backend
        externals = dict(externals or {})
        self._init_machine_vars(externals)

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def _init_machine_vars(self, externals: Dict[str, Any]) -> None:
        # Externals first so later initializers may reference them
        # regardless of declaration order (List. 2 declares the poll
        # variable before the externals it parameterizes).
        for decl in self.compiled.var_decls:
            if not decl.external:
                continue
            if decl.name in externals:
                self.machine_scope.declare(decl.name, externals.pop(decl.name))
            elif decl.init is not None:
                self.machine_scope.declare(
                    decl.name, self._eval(decl.init, self.machine_scope))
            else:
                raise AlmanacRuntimeError(
                    f"external variable {decl.name!r} has no value")
        for decl in self.compiled.var_decls:
            if decl.external:
                continue
            if decl.init is not None:
                if decl.is_trigger:
                    # Trigger initializers may divide by an allocated
                    # resource (ival = 10/res().PCIe); with a zero
                    # allocation the trigger is simply not armed yet, so
                    # the runtime value stays undefined rather than failing
                    # the whole deployment.
                    try:
                        value = self._eval(decl.init, self.machine_scope)
                    except AlmanacRuntimeError:
                        value = None
                else:
                    value = self._eval(decl.init, self.machine_scope)
            else:
                value = _default_value(decl.typ)
            self.machine_scope.declare(decl.name, value)
        if externals:
            raise AlmanacRuntimeError(
                f"unknown external variables {sorted(externals)} for "
                f"machine {self.compiled.name!r}")

    def start(self) -> None:
        """Enter the initial state (fires its ``enter`` events)."""
        if self._started:
            raise AlmanacRuntimeError("machine already started")
        self._started = True
        self._enter_state(self.current_state)

    # ------------------------------------------------------------------
    # State machinery
    # ------------------------------------------------------------------
    @property
    def state(self) -> CompiledState:
        return self.compiled.states[self.current_state]

    def _enter_state(self, name: str) -> None:
        if self._code is not None:
            _get_codegen().enter_state(self, name)
            return
        state = self.compiled.states[name]
        self.state_scope = _Scope(self.machine_scope)
        self._svars = self.state_scope.vars
        for decl in state.var_decls:
            if decl.is_trigger:
                raise AlmanacRuntimeError(
                    "trigger variables must be machine-level "
                    f"({decl.name!r} in state {name!r})")
            value = (self._eval(decl.init, self.state_scope)
                     if decl.init is not None else _default_value(decl.typ))
            self.state_scope.declare(decl.name, value)
        self._dispatch(lambda t: isinstance(t, ast.EnterTrigger), {})

    def _transit(self, new_state: str) -> None:
        if new_state not in self.compiled.states:
            raise AlmanacRuntimeError(
                f"transit to unknown state {new_state!r}")
        self._transit_depth += 1
        if self._transit_depth > MAX_TRANSIT_CHAIN:
            raise AlmanacRuntimeError(
                f"transit chain exceeded {MAX_TRANSIT_CHAIN} hops "
                f"(cycle between states?)")
        try:
            old_state = self.current_state
            if self._code is not None:
                _get_codegen().fire_exit(self)
            else:
                self._dispatch(lambda t: isinstance(t, ast.ExitTrigger), {})
            self.current_state = new_state
            self.transitions += 1
            self.host.transit_hook(old_state, new_state)
            self._enter_state(new_state)
        finally:
            self._transit_depth -= 1

    # ------------------------------------------------------------------
    # External trigger entry points (called by the soil)
    # ------------------------------------------------------------------
    def fire_trigger_var(self, var: str, data: Any) -> bool:
        """A poll/probe/time variable fired; returns True if handled."""
        tr = self._tracer
        if tr is not None and tr.enabled:
            return self._traced_fire_var(var, data)
        if self._code is not None:
            return _get_codegen().fire_var(self, var, data)

        def matches(trigger: ast.Trigger) -> bool:
            return isinstance(trigger, ast.VarTrigger) and trigger.var == var

        return self._dispatch(matches, {"__data__": data})

    def _traced_fire_var(self, var: str, data: Any) -> bool:
        if self._code is not None:
            handled = _get_codegen().fire_var(self, var, data)
        else:
            handled = self._dispatch(
                lambda t: isinstance(t, ast.VarTrigger) and t.var == var,
                {"__data__": data})
        self._tracer.instant(
            f"fire {var}", track=f"seed/{self.instance_id}", cat="seed",
            args={"trace_id": self.instance_id, "handled": handled,
                  "state": self.current_state})
        return handled

    def fire_recv(self, value: Any, source_machine: str = "",
                  source_host: Any = None) -> bool:
        """A message arrived; pattern-match against recv events."""
        tr = self._tracer
        if tr is not None and tr.enabled:
            tr.instant(f"recv {source_machine or 'msg'}",
                       track=f"seed/{self.instance_id}", cat="seed",
                       args={"trace_id": self.instance_id,
                             "state": self.current_state})
        if self._code is not None:
            return _get_codegen().fire_recv(self, value, source_machine)

        def matches(trigger: ast.Trigger) -> bool:
            if not isinstance(trigger, ast.RecvTrigger):
                return False
            if trigger.source != source_machine:
                return False
            return _value_matches_type(value, trigger.pat_type)

        return self._dispatch(matches, {"__data__": value})

    def fire_realloc(self) -> bool:
        """The optimizer changed this seed's resources (SIII-A-c)."""
        if self._code is not None:
            return _get_codegen().fire_realloc(self)
        return self._dispatch(
            lambda t: isinstance(t, ast.ReallocTrigger), {})

    # ------------------------------------------------------------------
    # Dispatch and execution
    # ------------------------------------------------------------------
    def _dispatch(self, predicate: Callable[[ast.Trigger], bool],
                  bindings: Dict[str, Any]) -> bool:
        handled = False
        state_at_entry = self.current_state
        for event in list(self.state.events):
            if not predicate(event.trigger):
                continue
            handled = True
            self.events_handled += 1
            scope = _Scope(self.state_scope)
            trigger = event.trigger
            if isinstance(trigger, ast.VarTrigger) and trigger.bind:
                scope.declare(trigger.bind, bindings.get("__data__"))
            if isinstance(trigger, ast.RecvTrigger):
                scope.declare(trigger.pat_name, bindings.get("__data__"))
            try:
                self._exec_block(event.actions, scope)
            except _ReturnSignal:
                pass
            # A transit inside the handler switched states; stop delivering
            # this trigger to the old state's remaining events.
            if self.current_state != state_at_entry:
                break
        return handled

    def _exec_block(self, statements: List[ast.Stmt], scope: _Scope) -> None:
        for stmt in statements:
            self._exec(stmt, scope)

    def _exec(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, scope)
        elif isinstance(stmt, ast.VarDecl):
            value = (self._eval(stmt.init, scope)
                     if stmt.init is not None else _default_value(stmt.typ))
            scope.declare(stmt.name, value)
        elif isinstance(stmt, ast.If):
            if _truthy(self._eval(stmt.cond, scope)):
                self._exec_block(stmt.then_body, _Scope(scope))
            elif stmt.else_body:
                self._exec_block(stmt.else_body, _Scope(scope))
        elif isinstance(stmt, ast.While):
            iterations = 0
            while _truthy(self._eval(stmt.cond, scope)):
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise AlmanacRuntimeError(
                        f"while loop exceeded {MAX_LOOP_ITERATIONS} "
                        f"iterations (line {stmt.line})")
                self._exec_block(stmt.body, _Scope(scope))
        elif isinstance(stmt, ast.Return):
            value = self._eval(stmt.value, scope) if stmt.value else None
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.Transit):
            self._transit(stmt.state)
        elif isinstance(stmt, ast.Send):
            value = self._eval(stmt.value, scope)
            if stmt.dest_machine == "":
                self.host.send_to_harvester(value)
            else:
                dst = (self._eval(stmt.dest_host, scope)
                       if stmt.dest_host is not None else None)
                self.host.send_to_machine(stmt.dest_machine, dst, value)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, scope)
        else:
            raise AlmanacRuntimeError(f"unknown statement {stmt!r}")

    def _exec_assign(self, stmt: ast.Assign, scope: _Scope) -> None:
        value = self._eval(stmt.value, scope)
        if stmt.fieldname is not None:
            target = scope.lookup(stmt.target)
            if isinstance(target, dict):
                target[stmt.fieldname] = value
            else:
                raise AlmanacRuntimeError(
                    f"cannot assign field {stmt.fieldname!r} on "
                    f"{type(target).__name__} (line {stmt.line})")
            self._after_trigger_update(stmt.target, target)
            return
        scope.assign(stmt.target, value)
        self._after_trigger_update(stmt.target, value)

    def _after_trigger_update(self, name: str, value: Any) -> None:
        """Re-arm the timer when a trigger variable's ival changed."""
        for decl in self.compiled.trigger_decls:
            if decl.name != name:
                continue
            interval = (value.get("ival") if isinstance(value, dict)
                        else value)
            if isinstance(interval, (int, float)) and interval > 0:
                self.host.set_trigger_interval(name, float(interval))
            return

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def _eval(self, expr: ast.Expr, scope: _Scope) -> Any:
        if isinstance(expr, ast.Lit):
            return expr.value
        if isinstance(expr, ast.AnyLit):
            return flt.ANY_PORT
        if isinstance(expr, ast.Var):
            return scope.lookup(expr.name)
        if isinstance(expr, ast.ListLit):
            return [self._eval(item, scope) for item in expr.items]
        if isinstance(expr, ast.StructLit):
            fields = {name: self._eval(value, scope)
                      for name, value in expr.fields}
            return make_struct(expr.struct, **fields)
        if isinstance(expr, ast.FieldAccess):
            obj = self._eval(expr.obj, scope)
            return _field(obj, expr.fieldname, expr.line)
        if isinstance(expr, ast.FilterAtom):
            return self._eval_filter_atom(expr, scope)
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval(expr.operand, scope)
            if expr.op == "not":
                if isinstance(operand, flt.Filter):
                    return flt.NotFilter(operand)
                return not _truthy(operand)
            if expr.op == "-":
                return -operand
            raise AlmanacRuntimeError(f"unknown unary op {expr.op!r}")
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, scope)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, scope)
        raise AlmanacRuntimeError(f"cannot evaluate {expr!r}")

    def _eval_filter_atom(self, expr: ast.FilterAtom, scope: _Scope) -> flt.Filter:
        arg = self._eval(expr.arg, scope)
        if expr.kind in ("srcIP", "dstIP"):
            prefix = (Prefix.parse(arg) if isinstance(arg, str)
                      else Prefix.host(int(arg)))
            return (flt.SrcIpFilter(prefix) if expr.kind == "srcIP"
                    else flt.DstIpFilter(prefix))
        if expr.kind == "port":
            return flt.SwitchPortFilter(int(arg))
        if expr.kind == "srcPort":
            return flt.SrcPortFilter(int(arg))
        if expr.kind == "dstPort":
            return flt.DstPortFilter(int(arg))
        if expr.kind == "proto":
            return flt.ProtoFilter(int(arg))
        if expr.kind == "tcpFlags":
            return flt.TcpFlagsFilter(int(arg))
        raise AlmanacRuntimeError(f"unknown filter atom {expr.kind!r}")

    def _eval_binop(self, expr: ast.BinOp, scope: _Scope) -> Any:
        op = expr.op
        if op == "and":
            left = self._eval(expr.left, scope)
            if isinstance(left, flt.Filter):
                right = self._eval(expr.right, scope)
                return flt.and_(left, right)
            if not _truthy(left):
                return False
            return _truthy(self._eval(expr.right, scope))
        if op == "or":
            left = self._eval(expr.left, scope)
            if isinstance(left, flt.Filter):
                right = self._eval(expr.right, scope)
                return flt.or_(left, right)
            if _truthy(left):
                return True
            return _truthy(self._eval(expr.right, scope))
        left = self._eval(expr.left, scope)
        right = self._eval(expr.right, scope)
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise AlmanacRuntimeError(
                        f"division by zero (line {expr.line})")
                if isinstance(left, int) and isinstance(right, int):
                    return left // right if left % right == 0 else left / right
                return left / right
            if op == "==":
                return left == right
            if op == "<>":
                return left != right
            if op == "<=":
                return left <= right
            if op == ">=":
                return left >= right
            if op == "<":
                return left < right
            if op == ">":
                return left > right
        except TypeError as exc:
            raise AlmanacRuntimeError(
                f"type error in {op!r} (line {expr.line}): {exc}") from None
        raise AlmanacRuntimeError(f"unknown operator {op!r}")

    def _eval_call(self, expr: ast.Call, scope: _Scope) -> Any:
        args = [self._eval(arg, scope) for arg in expr.args]
        function = self.compiled.functions.get(expr.func)
        if function is not None:
            return self._call_function(function, args)
        builtin = self.builtins.get(expr.func)
        if builtin is not None:
            try:
                return builtin(*args)
            except AlmanacRuntimeError:
                raise
            except Exception as exc:
                raise AlmanacRuntimeError(
                    f"builtin {expr.func}() failed (line {expr.line}): "
                    f"{exc}") from exc
        raise AlmanacRuntimeError(
            f"unknown function {expr.func!r} (line {expr.line})")

    def _call_function(self, function: ast.FunctionDecl,
                       args: List[Any]) -> Any:
        if len(args) != len(function.params):
            raise AlmanacRuntimeError(
                f"{function.name}() takes {len(function.params)} arguments, "
                f"got {len(args)}")
        # Functions close over machine scope (they may call builtins and
        # other functions but see machine variables read-only by convention).
        scope = _Scope(self.machine_scope)
        for (_typ, name), value in zip(function.params, args):
            scope.declare(name, value)
        try:
            self._exec_block(function.body, scope)
        except _ReturnSignal as signal:
            return signal.value
        return None

    # ------------------------------------------------------------------
    # Migration support (SIV: seed state is transferred between switches)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Serializable inner state for migration."""
        return {
            "machine": self.compiled.name,
            "state": self.current_state,
            "machine_vars": dict(self.machine_scope.vars),
            "state_vars": dict(self.state_scope.vars),
            "transitions": self.transitions,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Adopt a snapshot taken on another switch (no enter events fire:
        the seed *resumes*, it does not restart)."""
        if snapshot["machine"] != self.compiled.name:
            raise AlmanacRuntimeError(
                f"snapshot of {snapshot['machine']!r} cannot restore a "
                f"{self.compiled.name!r} instance")
        if snapshot["state"] not in self.compiled.states:
            raise AlmanacRuntimeError(
                f"snapshot references unknown state {snapshot['state']!r}")
        self.machine_scope.vars.update(snapshot["machine_vars"])
        self.current_state = snapshot["state"]
        self.state_scope = _Scope(self.machine_scope)
        self._svars = self.state_scope.vars
        self.state_scope.vars.update(snapshot["state_vars"])
        self.transitions = snapshot.get("transitions", 0)
        self._started = True


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if value is None:
        return False
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, (list, str, dict)):
        return len(value) > 0
    return True


def _field(obj: Any, name: str, line: int) -> Any:
    if isinstance(obj, dict):
        try:
            return obj[name]
        except KeyError:
            raise AlmanacRuntimeError(
                f"struct has no field {name!r} (line {line})") from None
    try:
        return getattr(obj, name)
    except AttributeError:
        raise AlmanacRuntimeError(
            f"{type(obj).__name__} has no field {name!r} (line {line})"
        ) from None


def _value_matches_type(value: Any, typ: str) -> bool:
    """Runtime pattern matching for recv triggers."""
    if typ in ("int", "long"):
        return isinstance(value, int) and not isinstance(value, bool)
    if typ == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if typ == "bool":
        return isinstance(value, bool)
    if typ == "string":
        return isinstance(value, str)
    if typ == "list":
        return isinstance(value, list)
    if typ == "filter":
        return isinstance(value, flt.Filter)
    if typ == "action":
        return isinstance(value, dict) and "action" in value
    if typ == "packet":
        from repro.net.packet import Packet
        return isinstance(value, Packet)
    return True
