"""Abstract syntax tree for Almanac (grammar of Fig. 3).

All nodes are plain dataclasses: the parser builds them, the type checker
and static analyses walk them, the interpreter executes them, and the XML
codec serializes them generically via ``dataclasses.fields``.  Every node
carries the source ``line`` for error reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions."""

    line: int = 0


@dataclass
class Lit(Expr):
    """Literal: int, float, bool, or string."""

    value: object = None


@dataclass
class AnyLit(Expr):
    """The ``ANY`` wildcard (used in ``port ANY``)."""


@dataclass
class Var(Expr):
    """Variable reference."""

    name: str = ""


@dataclass
class BinOp(Expr):
    """Binary operator: and or + - * / == <> < > <= >=."""

    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class UnaryOp(Expr):
    """Unary operator: ``not`` or arithmetic negation ``-``."""

    op: str = ""
    operand: Optional[Expr] = None


@dataclass
class Call(Expr):
    """Function call: builtin (res, min, max, ...) or user ``fundec``."""

    func: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class FieldAccess(Expr):
    """``obj.field`` — struct/record member access."""

    obj: Optional[Expr] = None
    fieldname: str = ""


@dataclass
class FilterAtom(Expr):
    """A filter primitive: ``srcIP ex``, ``dstIP ex``, ``port ex``, ...

    ``kind`` is one of srcIP, dstIP, port, srcPort, dstPort, proto,
    tcpFlags.  Filter atoms compose with ``and``/``or``/``not`` into filter
    expressions (evaluated by ``phi^s`` at deployment).
    """

    kind: str = ""
    arg: Optional[Expr] = None


@dataclass
class StructLit(Expr):
    """``Name { .field = ex, ... }`` — e.g. ``Poll { .ival=..., .what=... }``."""

    struct: str = ""
    fields: List[Tuple[str, Expr]] = field(default_factory=list)


@dataclass
class ListLit(Expr):
    """``[ex, ex, ...]`` — list literal (``[]`` for the empty list)."""

    items: List[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements (actions)
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for actions."""

    line: int = 0


@dataclass
class Assign(Stmt):
    """``x = ex;`` — also used for trigger-variable reassignment."""

    target: str = ""
    value: Optional[Expr] = None
    # Optional field path for struct member assignment: x.f = ex
    fieldname: Optional[str] = None


@dataclass
class VarDecl(Stmt):
    """``[external] typ x [= ex];`` — also state-local declarations."""

    typ: str = ""
    name: str = ""
    init: Optional[Expr] = None
    external: bool = False
    is_trigger: bool = False  # typ in (time, poll, probe)


@dataclass
class If(Stmt):
    """``if (ex) then { ... } [else { ... }]``"""

    cond: Optional[Expr] = None
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    """``while (ex) { ... }``"""

    cond: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class Return(Stmt):
    """``return ex;``"""

    value: Optional[Expr] = None


@dataclass
class Transit(Stmt):
    """``transit sname;`` — explicit state transition."""

    state: str = ""


@dataclass
class Send(Stmt):
    """``send ex to (mname [@dst] | harvester);``"""

    value: Optional[Expr] = None
    dest_machine: str = ""  # "" means harvester
    dest_host: Optional[Expr] = None  # None means broadcast / harvester


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect (function call)."""

    expr: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Triggers & events
# ---------------------------------------------------------------------------


@dataclass
class Trigger:
    """Base class for event triggers."""

    line: int = 0


@dataclass
class EnterTrigger(Trigger):
    """``when (enter)`` — fires when the state is entered."""


@dataclass
class ExitTrigger(Trigger):
    """``when (exit)`` — fires when the state is left."""


@dataclass
class ReallocTrigger(Trigger):
    """``when (realloc)`` — fires when the placement optimizer changes the
    seed's resource allocation (SIII-A-c)."""


@dataclass
class VarTrigger(Trigger):
    """``when (y [as x])`` — a trigger variable fired; data bound to x."""

    var: str = ""
    bind: Optional[str] = None


@dataclass
class RecvTrigger(Trigger):
    """``when (recv pat from src)`` — message reception with pattern match.

    The common pattern is a formal argument ``typ name``; a message of the
    matching type binds to ``name``.  ``source`` is a machine name or ""
    for the harvester; ``source_host`` optionally pins the sender location.
    """

    pat_type: str = ""
    pat_name: str = ""
    source: str = ""  # "" = harvester
    source_host: Optional[Expr] = None


@dataclass
class Event:
    """``when (trg) do { ac... }``"""

    trigger: Trigger = field(default_factory=Trigger)
    actions: List[Stmt] = field(default_factory=list)
    line: int = 0


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

Q_ALL = "all"
Q_ANY = "any"

ANCHOR_SENDER = "sender"
ANCHOR_RECEIVER = "receiver"
ANCHOR_MIDPOINT = "midpoint"


@dataclass
class RangeSpec:
    """``[sender|receiver] [midpoint] [ex] range op ex`` (Fig. 3, ra)."""

    anchor: str = ANCHOR_RECEIVER
    path_filter: Optional[Expr] = None  # closed boolean filter formula
    op: str = "=="
    distance: Optional[Expr] = None
    line: int = 0


@dataclass
class Placement:
    """``place (all | any) [ex-list | range-spec];``"""

    quantifier: str = Q_ALL
    switch_exprs: List[Expr] = field(default_factory=list)
    range_spec: Optional[RangeSpec] = None
    line: int = 0


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class UtilDecl:
    """``util (x) { ac... }`` — per-state utility callback (SIII-A-f)."""

    param: str = "res"
    body: List[Stmt] = field(default_factory=list)
    line: int = 0


@dataclass
class StateDecl:
    """``state sname { xd... [ut] ev... }``"""

    name: str = ""
    var_decls: List[VarDecl] = field(default_factory=list)
    util: Optional[UtilDecl] = None
    events: List[Event] = field(default_factory=list)
    line: int = 0


@dataclass
class MachineDecl:
    """``machine mname [extends mname] { pl... xd... st... ev... }``

    ``events`` are machine-level events (syntactic sugar applying to every
    state, overridable per state — SIII-A-b note).
    """

    name: str = ""
    extends: Optional[str] = None
    placements: List[Placement] = field(default_factory=list)
    var_decls: List[VarDecl] = field(default_factory=list)
    states: List[StateDecl] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)
    line: int = 0


@dataclass
class FunctionDecl:
    """``function typ name(typ x, ...) { ac... }`` — auxiliary functions."""

    return_type: str = "int"
    name: str = ""
    params: List[Tuple[str, str]] = field(default_factory=list)  # (typ, name)
    body: List[Stmt] = field(default_factory=list)
    line: int = 0


@dataclass
class StructDecl:
    """``struct Name { typ field; ... }`` — record type declaration."""

    name: str = ""
    fields: List[Tuple[str, str]] = field(default_factory=list)  # (typ, name)
    line: int = 0


@dataclass
class Program:
    """A complete Almanac compilation unit: strdec fundec ma..."""

    structs: List[StructDecl] = field(default_factory=list)
    functions: List[FunctionDecl] = field(default_factory=list)
    machines: List[MachineDecl] = field(default_factory=list)

    def machine(self, name: str) -> MachineDecl:
        for machine in self.machines:
            if machine.name == name:
                return machine
        raise KeyError(name)


# Names of the trigger types (tty in the grammar).
TRIGGER_TYPES = ("time", "poll", "probe")

# Plain value types (typ in the grammar).
VALUE_TYPES = ("bool", "int", "long", "float", "string", "list", "packet",
               "action", "filter")
