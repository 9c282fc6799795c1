"""Flattened Almanac machines and the semantics both executors share.

A :class:`CompiledMachine` is the inheritance-resolved form of a ``machine``
declaration.  The production executor (:mod:`repro.almanac.codegen`) and the
reference tree-walker (:mod:`repro.almanac.interpreter`) both run it, and
both take their limits, defaults and value helpers from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.almanac import astnodes as ast
from repro.errors import AlmanacRuntimeError
from repro.net import filters as flt

#: Iteration cap for ``while`` loops; a seed must never wedge its switch.
MAX_LOOP_ITERATIONS = 1_000_000

#: Cap on chained ``transit`` calls within one event dispatch.
MAX_TRANSIT_CHAIN = 64

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


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


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
