"""Almanac's production executor: closure compilation and the seed runtime.

:func:`compile_closures` lowers a
:class:`~repro.almanac.machine.CompiledMachine` once, at deployment, into
pre-bound Python closures, and a :class:`MachineInstance` runs them:

* **constant folding** — literal subtrees collapse to constants at compile
  time (with the language's exact arithmetic semantics);
* **pre-resolved variable slots** — event/function locals live in a flat
  Python list indexed by compile-time slot numbers; state and machine
  variables compile to a single dict access on the instance's
  ``_svars``/``_mvars`` dicts instead of a scope-chain walk;
* **pre-compiled trigger dispatch tables** — each state carries its
  handlers keyed by ``(state, trigger_signature)``: enter/exit/realloc
  lists, a ``var -> handlers`` dict for poll/probe/time triggers, and an
  ordered recv table, so firing a trigger is a dict lookup, not a predicate
  scan over every event;
* **specialised hot shapes** — builtin calls with one to three arguments
  bind them one by one, ``if``/``while`` conditions that yield a bool skip
  ``_truthy``, and ``while (i < size(L)) { ...; i = i + 1; }`` runs its
  test and step inline while ``i`` is an int, ``L`` a list and ``size``
  the stdlib's own, falling back to the generic closures per iteration
  otherwise;
* **columnar probe loops** — a counted loop over a probe handler's
  samples ``L`` that reads rows only as ``get(L, i).f``, or as ``p.f``
  after ``packet p = get(L, i)``, gets a second body in which each such
  read is one load from a :class:`~repro.net.packet.ProbeBatch` column;
  it runs while ``L`` is a batch, and a probe handler keeps its samples a
  batch only when every use of them is such a loop.

Every deployment runs on this executor.  The tree-walker in
``tests/almanac/reference_interpreter.py`` is the executable
specification: it subclasses :class:`MachineInstance`, replaces every
evaluation step with an AST walk, and ``tests/almanac/test_codegen.py``
asserts byte-identical traces between the two.  Machine and state variables are plain dicts on
both, so snapshots (migration, crash restart) move freely between them.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.almanac import astnodes as ast
from repro.almanac.machine import (
    MAX_LOOP_ITERATIONS,
    MAX_TRANSIT_CHAIN,
    CompiledMachine,
    _default_value,
    _field,
    _ReturnSignal,
    _truthy,
    _value_matches_type,
)
from repro.almanac.stdlib import HostInterface, host_builtins, pure_builtins
from repro.errors import AlmanacRuntimeError
from repro.net import filters as flt
from repro.net.addresses import Prefix
from repro.net.packet import BATCH_COLUMNS, ProbeBatch

#: Frame shared by code regions that declare no locals.
_EMPTY_FRAME: List[Any] = []

_NOT_CONST = object()

#: The stdlib's ``size`` and ``get``: counted loops inline ``len`` only
#: while a seed's ``size`` builtin is this very function, and read probe
#: batch columns only while its ``get`` is too.
_STDLIB_SIZE = pure_builtins()["size"]
_STDLIB_GET = pure_builtins()["get"]

#: The packet fields a columnar loop body reads without a ``Packet``.
_ROW_FIELDS = frozenset(BATCH_COLUMNS)


# ---------------------------------------------------------------------------
# Compiled artifacts
# ---------------------------------------------------------------------------


class _Function:
    """A user ``fundec`` lowered to slot-addressed closures."""

    __slots__ = ("name", "nparams", "nslots", "body")

    def __init__(self, name: str, nparams: int) -> None:
        self.name = name
        self.nparams = nparams
        self.nslots = nparams
        self.body: Tuple[Callable, ...] = ()

    def invoke(self, rt: Any, args: List[Any]) -> Any:
        if len(args) != self.nparams:
            raise AlmanacRuntimeError(
                f"{self.name}() takes {self.nparams} arguments, "
                f"got {len(args)}")
        frame = [None] * self.nslots
        frame[:len(args)] = args
        try:
            for stmt in self.body:
                stmt(rt, frame)
        except _ReturnSignal as signal:
            return signal.value
        return None


class _Handler:
    """One event body: locals frame size, trigger binding slot, statements."""

    __slots__ = ("nslots", "bind_slot", "body")

    def __init__(self, nslots: int, bind_slot: Optional[int],
                 body: Tuple[Callable, ...]) -> None:
        self.nslots = nslots
        self.bind_slot = bind_slot
        self.body = body


class _StateCode:
    """Per-state dispatch tables keyed by trigger signature."""

    __slots__ = ("name", "var_inits", "enter", "exit", "realloc",
                 "var_handlers", "recv_handlers")

    def __init__(self, name: str) -> None:
        self.name = name
        self.var_inits: Tuple[Tuple[str, Callable], ...] = ()
        self.enter: Tuple[_Handler, ...] = ()
        self.exit: Tuple[_Handler, ...] = ()
        self.realloc: Tuple[_Handler, ...] = ()
        self.var_handlers: Dict[str, Tuple[_Handler, ...]] = {}
        self.recv_handlers: Tuple[Tuple[str, str, _Handler], ...] = ()


class MachineCode:
    """A fully lowered machine, shared by every instance of it."""

    __slots__ = ("machine_name", "trigger_names", "functions",
                 "machine_inits", "states", "counted_loops")

    def __init__(self, machine_name: str) -> None:
        self.machine_name = machine_name
        self.trigger_names: frozenset = frozenset()
        self.functions: Dict[str, _Function] = {}
        self.machine_inits: Dict[str, Callable] = {}
        self.states: Dict[str, _StateCode] = {}
        #: One record per loop lowered by :func:`_compile_counted_loop`.
        self.counted_loops: List[_CountedLoop] = []


# ---------------------------------------------------------------------------
# Compile-time symbol table
# ---------------------------------------------------------------------------


class _Ctx:
    """Lexical context for one executable region (handler/function/init).

    Locals get monotonically increasing frame slots; block scoping only
    affects visibility, mirroring the interpreter's nested ``_Scope``s.
    """

    __slots__ = ("code", "machine_vars", "state_vars", "scopes", "nslots",
                 "probe_slot", "batch_uses", "batch_loops", "rows",
                 "loop_records")

    def __init__(self, code: MachineCode, machine_vars: frozenset,
                 state_vars: frozenset) -> None:
        self.code = code
        self.machine_vars = machine_vars
        self.state_vars = state_vars
        self.scopes: List[Dict[str, int]] = [{}]
        self.nslots = 0
        #: The slot of a probe handler's bound samples: the one list a
        #: probe batch can reach, so the one a columnar loop may read.
        self.probe_slot: Optional[int] = None
        #: ids of the ``Var`` nodes that read the samples where a probe batch
        #: may stay a batch: the ``L`` of a columnar loop.
        self.batch_uses: set = set()
        #: The record of each columnar loop compiled in this region.
        self.batch_loops: List[_CountedLoop] = []
        #: The columnar loops whose second body is being compiled, as
        #: ``(L, i, p or None, slot of L, slot of i)``.
        self.rows: Tuple[tuple, ...] = ()
        #: One engagement record per loop statement, however often its
        #: body is compiled (a columnar body compiles inner loops again).
        self.loop_records: Dict[int, _CountedLoop] = {}

    def push_block(self) -> None:
        self.scopes.append({})

    def pop_block(self) -> None:
        self.scopes.pop()

    def declare(self, name: str) -> int:
        slot = self.nslots
        self.nslots += 1
        self.scopes[-1][name] = slot
        return slot

    def resolve(self, name: str) -> Tuple[Optional[str], Any]:
        for scope in reversed(self.scopes):
            if name in scope:
                return "local", scope[name]
        if name in self.state_vars:
            return "state", name
        if name in self.machine_vars:
            return "machine", name
        return None, name


# ---------------------------------------------------------------------------
# Expression lowering
# ---------------------------------------------------------------------------


def _const(value: Any) -> Callable:
    def lit(rt, frame):
        return value
    lit._const_value = value
    return lit


def _const_of(fn: Callable) -> Any:
    return getattr(fn, "_const_value", _NOT_CONST)


_ARITH_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "==": operator.eq, "<>": operator.ne, "<=": operator.le,
    ">=": operator.ge, "<": operator.lt, ">": operator.gt,
}

_FILTER_ATOMS: Dict[str, Callable] = {
    "port": flt.SwitchPortFilter,
    "srcPort": flt.SrcPortFilter,
    "dstPort": flt.DstPortFilter,
    "proto": flt.ProtoFilter,
    "tcpFlags": flt.TcpFlagsFilter,
}


def _sem_div(left: Any, right: Any, line: int) -> Any:
    """The interpreter's ``/``: exact-int division stays integral."""
    if right == 0:
        raise AlmanacRuntimeError(f"division by zero (line {line})")
    if isinstance(left, int) and isinstance(right, int):
        return left // right if left % right == 0 else left / right
    return left / right


def _compile_load(name: str, ctx: _Ctx) -> Callable:
    kind, ref = ctx.resolve(name)
    if kind == "local":
        slot = ref

        def load_local(rt, frame):
            return frame[slot]
        return load_local
    if kind == "state":
        def load_state(rt, frame):
            try:
                return rt._svars[name]
            except KeyError:
                raise AlmanacRuntimeError(
                    f"undefined variable {name!r}") from None
        return load_state
    if kind == "machine":
        def load_machine(rt, frame):
            try:
                return rt._mvars[name]
            except KeyError:
                raise AlmanacRuntimeError(
                    f"undefined variable {name!r}") from None
        return load_machine

    def load_missing(rt, frame):
        raise AlmanacRuntimeError(f"undefined variable {name!r}")
    return load_missing


def _compile_expr(expr: ast.Expr, ctx: _Ctx) -> Callable:
    if isinstance(expr, ast.Lit):
        return _const(expr.value)
    if isinstance(expr, ast.AnyLit):
        return _const(flt.ANY_PORT)
    if isinstance(expr, ast.Var):
        return _compile_load(expr.name, ctx)
    if isinstance(expr, ast.ListLit):
        item_fns = tuple(_compile_expr(item, ctx) for item in expr.items)

        def list_lit(rt, frame):
            return [fn(rt, frame) for fn in item_fns]
        return list_lit
    if isinstance(expr, ast.StructLit):
        struct_name = expr.struct
        pairs = tuple((name, _compile_expr(value, ctx))
                      for name, value in expr.fields)

        def struct_lit(rt, frame):
            value = {"__struct__": struct_name}
            for fname, fn in pairs:
                value[fname] = fn(rt, frame)
            return value
        return struct_lit
    if isinstance(expr, ast.FieldAccess):
        if ctx.rows:
            load = _compile_column_load(expr, ctx)
            if load is not None:
                return load
        obj_fn = _compile_expr(expr.obj, ctx)
        fieldname = expr.fieldname
        line = expr.line

        def field_access(rt, frame):
            obj = obj_fn(rt, frame)
            if type(obj) is dict:
                try:
                    return obj[fieldname]
                except KeyError:
                    raise AlmanacRuntimeError(
                        f"struct has no field {fieldname!r} "
                        f"(line {line})") from None
            return _field(obj, fieldname, line)
        return field_access
    if isinstance(expr, ast.FilterAtom):
        return _compile_filter_atom(expr, ctx)
    if isinstance(expr, ast.UnaryOp):
        return _compile_unary(expr, ctx)
    if isinstance(expr, ast.BinOp):
        return _compile_binop(expr, ctx)
    if isinstance(expr, ast.Call):
        return _compile_call(expr, ctx)

    def cannot_eval(rt, frame):
        raise AlmanacRuntimeError(f"cannot evaluate {expr!r}")
    return cannot_eval


def _compile_filter_atom(expr: ast.FilterAtom, ctx: _Ctx) -> Callable:
    arg_fn = _compile_expr(expr.arg, ctx)
    kind = expr.kind
    if kind in ("srcIP", "dstIP"):
        cls = flt.SrcIpFilter if kind == "srcIP" else flt.DstIpFilter

        def ip_atom(rt, frame):
            arg = arg_fn(rt, frame)
            prefix = (Prefix.parse(arg) if isinstance(arg, str)
                      else Prefix.host(int(arg)))
            return cls(prefix)
        return ip_atom
    cls = _FILTER_ATOMS.get(kind)
    if cls is None:
        def bad_atom(rt, frame):
            arg_fn(rt, frame)
            raise AlmanacRuntimeError(f"unknown filter atom {kind!r}")
        return bad_atom

    def atom(rt, frame):
        return cls(int(arg_fn(rt, frame)))
    return atom


def _compile_unary(expr: ast.UnaryOp, ctx: _Ctx) -> Callable:
    operand_fn = _compile_expr(expr.operand, ctx)
    op = expr.op
    if op == "not":
        value = _const_of(operand_fn)
        if value is not _NOT_CONST and not isinstance(value, flt.Filter):
            return _const(not _truthy(value))

        def not_fn(rt, frame):
            value = operand_fn(rt, frame)
            if isinstance(value, flt.Filter):
                return flt.NotFilter(value)
            return not _truthy(value)
        return not_fn
    if op == "-":
        value = _const_of(operand_fn)
        if value is not _NOT_CONST:
            try:
                return _const(-value)
            except Exception:
                pass

        line = expr.line

        def neg(rt, frame):
            operand = operand_fn(rt, frame)
            try:
                return -operand
            except TypeError as exc:
                raise AlmanacRuntimeError(
                    f"type error in unary '-' (line {line}): {exc}"
                ) from None
        return neg

    def bad_unary(rt, frame):
        operand_fn(rt, frame)
        raise AlmanacRuntimeError(f"unknown unary op {op!r}")
    return bad_unary


def _compile_binop(expr: ast.BinOp, ctx: _Ctx) -> Callable:
    op = expr.op
    left_fn = _compile_expr(expr.left, ctx)
    right_fn = _compile_expr(expr.right, ctx)
    line = expr.line
    if op == "and":
        left_const = _const_of(left_fn)
        if (left_const is not _NOT_CONST
                and not isinstance(left_const, flt.Filter)):
            if not _truthy(left_const):
                return _const(False)
            right_const = _const_of(right_fn)
            if (right_const is not _NOT_CONST
                    and not isinstance(right_const, flt.Filter)):
                return _const(_truthy(right_const))

            def and_rhs(rt, frame):
                return _truthy(right_fn(rt, frame))
            return and_rhs

        def and_fn(rt, frame):
            left = left_fn(rt, frame)
            if isinstance(left, flt.Filter):
                return flt.and_(left, right_fn(rt, frame))
            if not _truthy(left):
                return False
            return _truthy(right_fn(rt, frame))
        return and_fn
    if op == "or":
        left_const = _const_of(left_fn)
        if (left_const is not _NOT_CONST
                and not isinstance(left_const, flt.Filter)):
            if _truthy(left_const):
                return _const(True)
            right_const = _const_of(right_fn)
            if (right_const is not _NOT_CONST
                    and not isinstance(right_const, flt.Filter)):
                return _const(_truthy(right_const))

            def or_rhs(rt, frame):
                return _truthy(right_fn(rt, frame))
            return or_rhs

        def or_fn(rt, frame):
            left = left_fn(rt, frame)
            if isinstance(left, flt.Filter):
                return flt.or_(left, right_fn(rt, frame))
            if _truthy(left):
                return True
            return _truthy(right_fn(rt, frame))
        return or_fn
    if op == "/":
        left_const, right_const = _const_of(left_fn), _const_of(right_fn)
        if left_const is not _NOT_CONST and right_const is not _NOT_CONST:
            try:
                return _const(_sem_div(left_const, right_const, line))
            except Exception:
                pass  # keep the runtime closure so errors fire at eval time

        def div(rt, frame):
            left = left_fn(rt, frame)
            right = right_fn(rt, frame)
            try:
                return _sem_div(left, right, line)
            except AlmanacRuntimeError:
                raise
            except TypeError as exc:
                raise AlmanacRuntimeError(
                    f"type error in {op!r} (line {line}): {exc}") from None
        return div
    op_fn = _ARITH_OPS.get(op)
    if op_fn is None:
        def bad_binop(rt, frame):
            left_fn(rt, frame)
            right_fn(rt, frame)
            raise AlmanacRuntimeError(f"unknown operator {op!r}")
        return bad_binop
    left_const, right_const = _const_of(left_fn), _const_of(right_fn)
    if left_const is not _NOT_CONST and right_const is not _NOT_CONST:
        try:
            return _const(op_fn(left_const, right_const))
        except Exception:
            pass

    def binop(rt, frame):
        left = left_fn(rt, frame)
        right = right_fn(rt, frame)
        try:
            return op_fn(left, right)
        except TypeError as exc:
            raise AlmanacRuntimeError(
                f"type error in {op!r} (line {line}): {exc}") from None
    return binop


def _compile_call(expr: ast.Call, ctx: _Ctx) -> Callable:
    arg_fns = tuple(_compile_expr(arg, ctx) for arg in expr.args)
    name = expr.func
    line = expr.line
    function = ctx.code.functions.get(name)
    if function is not None:
        def call_function(rt, frame):
            return function.invoke(rt, [fn(rt, frame) for fn in arg_fns])
        return call_function

    # The builtin is looked up at call time (extra and per-host builtins
    # may shadow the stdlib); one to three arguments are bound one by one
    # instead of through a per-call list and ``*args``.
    def unknown() -> AlmanacRuntimeError:
        return AlmanacRuntimeError(f"unknown function {name!r} (line {line})")

    def failed(exc: Exception) -> AlmanacRuntimeError:
        return AlmanacRuntimeError(
            f"builtin {name}() failed (line {line}): {exc}")

    if len(arg_fns) == 1:
        (arg0,) = arg_fns

        def call_builtin1(rt, frame):
            x0 = arg0(rt, frame)
            builtin = rt.builtins.get(name)
            if builtin is None:
                raise unknown()
            try:
                return builtin(x0)
            except AlmanacRuntimeError:
                raise
            except Exception as exc:
                raise failed(exc) from exc
        return call_builtin1
    if len(arg_fns) == 2:
        arg0, arg1 = arg_fns

        def call_builtin2(rt, frame):
            x0 = arg0(rt, frame)
            x1 = arg1(rt, frame)
            builtin = rt.builtins.get(name)
            if builtin is None:
                raise unknown()
            try:
                return builtin(x0, x1)
            except AlmanacRuntimeError:
                raise
            except Exception as exc:
                raise failed(exc) from exc
        return call_builtin2
    if len(arg_fns) == 3:
        arg0, arg1, arg2 = arg_fns

        def call_builtin3(rt, frame):
            x0 = arg0(rt, frame)
            x1 = arg1(rt, frame)
            x2 = arg2(rt, frame)
            builtin = rt.builtins.get(name)
            if builtin is None:
                raise unknown()
            try:
                return builtin(x0, x1, x2)
            except AlmanacRuntimeError:
                raise
            except Exception as exc:
                raise failed(exc) from exc
        return call_builtin3

    def call_builtin(rt, frame):
        args = [fn(rt, frame) for fn in arg_fns]
        builtin = rt.builtins.get(name)
        if builtin is None:
            raise unknown()
        try:
            return builtin(*args)
        except AlmanacRuntimeError:
            raise
        except Exception as exc:
            raise failed(exc) from exc
    return call_builtin


# ---------------------------------------------------------------------------
# Statement lowering
# ---------------------------------------------------------------------------


def _compile_stmt(stmt: ast.Stmt, ctx: _Ctx) -> Callable:
    if isinstance(stmt, ast.Assign):
        return _compile_assign(stmt, ctx)
    if isinstance(stmt, ast.VarDecl):
        # Compile the initializer before declaring so the init sees the
        # *outer* binding of a shadowed name, as the interpreter does.
        init_fn = (_compile_expr(stmt.init, ctx)
                   if stmt.init is not None else None)
        slot = ctx.declare(stmt.name)
        if init_fn is not None:
            def declare_init(rt, frame):
                frame[slot] = init_fn(rt, frame)
            return declare_init
        if stmt.typ == "list":
            def declare_list(rt, frame):
                frame[slot] = []
            return declare_list
        default = _default_value(stmt.typ)

        def declare_default(rt, frame):
            frame[slot] = default
        return declare_default
    if isinstance(stmt, ast.If):
        cond_fn = _compile_expr(stmt.cond, ctx)
        ctx.push_block()
        then_body = tuple(_compile_stmt(s, ctx) for s in stmt.then_body)
        ctx.pop_block()
        ctx.push_block()
        else_body = tuple(_compile_stmt(s, ctx) for s in stmt.else_body)
        ctx.pop_block()
        cond_const = _const_of(cond_fn)
        if cond_const is not _NOT_CONST:
            taken = then_body if _truthy(cond_const) else else_body

            def run_taken(rt, frame):
                for s in taken:
                    s(rt, frame)
            return run_taken
        # Conditions test ``is True`` / ``is False`` first: comparisons
        # and ``and``/``or`` yield bools, which need no ``_truthy``.
        if else_body:
            def if_else(rt, frame):
                cond = cond_fn(rt, frame)
                if cond is True or (cond is not False and _truthy(cond)):
                    for s in then_body:
                        s(rt, frame)
                else:
                    for s in else_body:
                        s(rt, frame)
            return if_else

        def if_only(rt, frame):
            cond = cond_fn(rt, frame)
            if cond is True or (cond is not False and _truthy(cond)):
                for s in then_body:
                    s(rt, frame)
        return if_only
    if isinstance(stmt, ast.While):
        cond_fn = _compile_expr(stmt.cond, ctx)
        counted = _counted_loop_vars(stmt, ctx)
        ctx.push_block()
        body = tuple(_compile_stmt(s, ctx) for s in stmt.body)
        ctx.pop_block()
        line = stmt.line
        if counted is not None:
            return _compile_counted_loop(stmt, ctx, cond_fn, body, *counted)

        def while_loop(rt, frame):
            iterations = 0
            while True:
                cond = cond_fn(rt, frame)
                if cond is not True and (cond is False or not _truthy(cond)):
                    break
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise AlmanacRuntimeError(
                        f"while loop exceeded {MAX_LOOP_ITERATIONS} "
                        f"iterations (line {line})")
                for s in body:
                    s(rt, frame)
        return while_loop
    if isinstance(stmt, ast.Return):
        if stmt.value is None:
            def return_none(rt, frame):
                raise _ReturnSignal(None)
            return return_none
        value_fn = _compile_expr(stmt.value, ctx)

        def return_value(rt, frame):
            raise _ReturnSignal(value_fn(rt, frame))
        return return_value
    if isinstance(stmt, ast.Transit):
        target = stmt.state

        def transit(rt, frame):
            rt._transit(target)
        return transit
    if isinstance(stmt, ast.Send):
        value_fn = _compile_expr(stmt.value, ctx)
        if stmt.dest_machine == "":
            def send_harvester(rt, frame):
                rt.host.send_to_harvester(value_fn(rt, frame))
            return send_harvester
        machine = stmt.dest_machine
        dest_fn = (_compile_expr(stmt.dest_host, ctx)
                   if stmt.dest_host is not None else None)

        def send_machine(rt, frame):
            value = value_fn(rt, frame)
            dst = dest_fn(rt, frame) if dest_fn is not None else None
            rt.host.send_to_machine(machine, dst, value)
        return send_machine
    if isinstance(stmt, ast.ExprStmt):
        # Statement executors ignore return values, so the expression
        # closure doubles as the statement closure.
        return _compile_expr(stmt.expr, ctx)

    def unknown_stmt(rt, frame):
        raise AlmanacRuntimeError(f"unknown statement {stmt!r}")
    return unknown_stmt


def _compile_assign(stmt: ast.Assign, ctx: _Ctx) -> Callable:
    name = stmt.target
    value_fn = _compile_expr(stmt.value, ctx)
    # The interpreter re-arms timers on *any* assignment to a trigger
    # variable's name, regardless of which scope the write lands in.
    is_trigger = name in ctx.code.trigger_names
    if stmt.fieldname is not None:
        fieldname = stmt.fieldname
        line = stmt.line
        load_fn = _compile_load(name, ctx)

        def assign_field(rt, frame):
            value = value_fn(rt, frame)
            target = load_fn(rt, frame)
            if isinstance(target, dict):
                target[fieldname] = value
            else:
                raise AlmanacRuntimeError(
                    f"cannot assign field {fieldname!r} on "
                    f"{type(target).__name__} (line {line})")
            if is_trigger:
                rt._after_trigger_update(name, target)
        return assign_field
    kind, ref = ctx.resolve(name)
    if kind == "local":
        slot = ref
        if is_trigger:
            def assign_local_trigger(rt, frame):
                value = value_fn(rt, frame)
                frame[slot] = value
                rt._after_trigger_update(name, value)
            return assign_local_trigger

        def assign_local(rt, frame):
            frame[slot] = value_fn(rt, frame)
        return assign_local
    if kind == "state":
        if is_trigger:
            def assign_state_trigger(rt, frame):
                value = value_fn(rt, frame)
                rt._svars[name] = value
                rt._after_trigger_update(name, value)
            return assign_state_trigger

        def assign_state(rt, frame):
            rt._svars[name] = value_fn(rt, frame)
        return assign_state
    if kind == "machine":
        if is_trigger:
            def assign_machine_trigger(rt, frame):
                value = value_fn(rt, frame)
                rt._mvars[name] = value
                rt._after_trigger_update(name, value)
            return assign_machine_trigger

        def assign_machine(rt, frame):
            rt._mvars[name] = value_fn(rt, frame)
        return assign_machine

    def assign_missing(rt, frame):
        value_fn(rt, frame)
        raise AlmanacRuntimeError(
            f"assignment to undeclared variable {name!r}")
    return assign_missing


# ---------------------------------------------------------------------------
# Counted loops: ``while (i < size(L)) { B; i = i + 1; }``
# ---------------------------------------------------------------------------


class _CountedLoop:
    """Engagement record of one lowered counted loop: how often it was
    entered, how many of its condition tests took the generic closures,
    and — for a loop with a columnar body — how many entries ran that body
    and how many probe batches bound for it were turned into packets."""

    __slots__ = ("line", "entries", "fallbacks", "columnar", "materialized")

    def __init__(self, line: int) -> None:
        self.line = line
        self.entries = 0
        self.fallbacks = 0
        self.columnar = 0
        self.materialized = 0


def _written_names(stmts: List[ast.Stmt]) -> set:
    """Every name ``stmts`` assign or declare, nested blocks included."""
    names: set = set()
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            names.add(stmt.target)
        elif isinstance(stmt, ast.VarDecl):
            names.add(stmt.name)
        elif isinstance(stmt, ast.If):
            names |= _written_names(stmt.then_body)
            names |= _written_names(stmt.else_body)
        elif isinstance(stmt, ast.While):
            names |= _written_names(stmt.body)
    return names


def _counted_loop_vars(stmt: ast.While,
                       ctx: _Ctx) -> Optional[Tuple[int, str]]:
    """``(slot of i, name of L)`` when ``stmt`` is provably a counted loop:
    ``i`` is a local that is not a trigger name, the body ends in
    ``i = i + 1`` and otherwise neither writes nor re-declares ``i`` or
    ``L``, and no user function shadows ``size``."""
    cond, body = stmt.cond, stmt.body
    if not (isinstance(cond, ast.BinOp) and cond.op == "<"
            and isinstance(cond.left, ast.Var)
            and isinstance(cond.right, ast.Call)
            and cond.right.func == "size" and len(cond.right.args) == 1
            and isinstance(cond.right.args[0], ast.Var) and body):
        return None
    index, seq = cond.left.name, cond.right.args[0].name
    kind, slot = ctx.resolve(index)
    if (kind != "local" or index in ctx.code.trigger_names
            or "size" in ctx.code.functions
            or ctx.resolve(seq)[0] is None):
        return None
    step = body[-1]
    if not (isinstance(step, ast.Assign) and step.target == index
            and step.fieldname is None
            and isinstance(step.value, ast.BinOp) and step.value.op == "+"
            and isinstance(step.value.left, ast.Var)
            and step.value.left.name == index
            and isinstance(step.value.right, ast.Lit)
            and type(step.value.right.value) is int
            and step.value.right.value == 1):
        return None
    if {index, seq} & _written_names(body[:-1]):
        return None
    return slot, seq


def _var_uses(node: Any, name: str, found: List[ast.Var]) -> List[ast.Var]:
    """Append every ``Var`` node reading ``name`` under ``node``."""
    if isinstance(node, ast.Var):
        if node.name == name:
            found.append(node)
    elif isinstance(node, (list, tuple)):
        for item in node:
            _var_uses(item, name, found)
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            _var_uses(getattr(node, field.name), name, found)
    return found


def _is_row_get(expr: Any, seq: str, index: str) -> bool:
    """``expr`` is ``get(L, i)`` with exactly the loop's ``L`` and ``i``."""
    return (isinstance(expr, ast.Call) and expr.func == "get"
            and len(expr.args) == 2
            and isinstance(expr.args[0], ast.Var) and expr.args[0].name == seq
            and isinstance(expr.args[1], ast.Var)
            and expr.args[1].name == index)


def _row_read(expr: Any, spec: tuple) -> bool:
    """``expr`` reads one packet field of the row ``spec``'s loop is at:
    ``p.f`` or ``get(L, i).f`` for a field a probe batch has a column for."""
    seq, index, row = spec[:3]
    if not (isinstance(expr, ast.FieldAccess)
            and expr.fieldname in _ROW_FIELDS):
        return False
    obj = expr.obj
    if isinstance(obj, ast.Var):
        return row is not None and obj.name == row
    return _is_row_get(obj, seq, index)


def _stray_use(node: Any, spec: tuple) -> bool:
    """Whether ``node`` reads the loop's ``L`` or ``p`` other than through
    a row read."""
    if _row_read(node, spec):
        return False
    if isinstance(node, ast.Var):
        return node.name == spec[0] or node.name == spec[2]
    if isinstance(node, (list, tuple)):
        return any(_stray_use(item, spec) for item in node)
    if dataclasses.is_dataclass(node):
        return any(_stray_use(getattr(node, field.name), spec)
                   for field in dataclasses.fields(node))
    return False


def _columnar_shape(stmt: ast.While, ctx: _Ctx, seq: str
                    ) -> Optional[Tuple[Optional[str], List[ast.Var]]]:
    """``(p or None, the Var nodes of L it covers)`` when a counted loop's
    body reads ``L`` only row by row: ``L`` is a probe handler's samples,
    no user function shadows ``get``, an optional ``T p = get(L, i)`` first
    binds a ``p`` never written afterwards, and every other ``L`` and every
    ``p`` is the object of a packet-field read of the current row."""
    if (ctx.probe_slot is None or ctx.resolve(seq) != ("local", ctx.probe_slot)
            or "get" in ctx.code.functions):
        return None
    index = stmt.cond.left.name
    inner = stmt.body[:-1]
    row = None
    if (inner and isinstance(inner[0], ast.VarDecl)
            and _is_row_get(inner[0].init, seq, index)):
        row = inner[0].name
        if row in _written_names(inner[1:]):
            return None
    if _stray_use(inner if row is None else inner[1:], (seq, index, row)):
        return None
    return row, _var_uses(inner, seq, [stmt.cond.right.args[0]])


def _compile_column_load(expr: ast.FieldAccess, ctx: _Ctx
                         ) -> Optional[Callable]:
    """A row read of an enclosing columnar loop as one column load, or
    None when ``expr`` is not one.  ``get(L, i).f`` keeps ``get``'s error
    for an ``i`` below ``-len(L)``; ``p.f`` needs no check, the loop made
    it when it bound ``p``."""
    for spec in reversed(ctx.rows):
        if _row_read(expr, spec):
            break
    else:
        return None
    seq_slot, index_slot = spec[3], spec[4]
    fieldname = expr.fieldname
    checked = not isinstance(expr.obj, ast.Var)
    line = expr.obj.line
    column = operator.attrgetter(fieldname)
    if not checked:
        def load_column(rt, frame):
            return column(frame[seq_slot])[frame[index_slot]]
        return load_column

    def load_column_checked(rt, frame):
        try:
            return column(frame[seq_slot])[frame[index_slot]]
        except IndexError as exc:
            raise AlmanacRuntimeError(
                f"builtin get() failed (line {line}): {exc}") from exc
    return load_column_checked


def _check_row(batch: ProbeBatch, i: int, line: int) -> None:
    """Raise what ``get(L, i)`` raises when ``i`` is no row of ``batch``."""
    try:
        batch.flows[i]
    except IndexError as exc:
        raise AlmanacRuntimeError(
            f"builtin get() failed (line {line}): {exc}") from exc


def _compile_counted_loop(stmt: ast.While, ctx: _Ctx, cond_fn: Callable,
                          body: Tuple[Callable, ...], index_slot: int,
                          seq_name: str) -> Callable:
    """The loop with ``i < len(L)`` and ``i + 1`` inline.

    An iteration takes the inline test while ``i`` is an int, ``L`` a list
    and ``size`` still the stdlib's own; otherwise it evaluates the
    generic condition closure, and a non-int ``i`` steps through the
    generic increment.  ``L`` and ``len(L)`` are re-read every iteration,
    so a body that grows ``L`` through an alias behaves as the generic
    loop does, iteration cap and error messages included.

    When the body reads ``L`` only row by row (:func:`_columnar_shape`) it
    is compiled a second time with every row read a column load, and an
    entry with a :class:`~repro.net.packet.ProbeBatch` in ``L`` and an int
    ``i`` runs that body while ``size`` and ``get`` are the stdlib's own.
    Otherwise — or once they stop being — the batch in ``L``'s slot is
    replaced by its packets and the loop goes on as above.
    """
    line = stmt.line
    # A local ``L`` is read from its frame slot, any other through its load
    # closure (which raises the generic path's "undefined variable").
    kind, seq_slot = ctx.resolve(seq_name)
    load_seq = _compile_load(seq_name, ctx) if kind != "local" else None
    inner, step_fn = body[:-1], body[-1]
    record = ctx.loop_records.get(id(stmt))
    if record is None:
        record = ctx.loop_records[id(stmt)] = _CountedLoop(line)
        ctx.code.counted_loops.append(record)
    columnar: Optional[Tuple[Callable, ...]] = None
    row_line: Optional[int] = None
    shape = _columnar_shape(stmt, ctx, seq_name)
    if shape is not None:
        row, uses = shape
        ctx.batch_uses.update(id(v) for v in uses)
        ctx.batch_loops.append(record)
        columnar_stmts = stmt.body[:-1]
        if row is not None:
            row_line = columnar_stmts[0].init.line
            columnar_stmts = columnar_stmts[1:]
        ctx.rows += ((seq_name, stmt.cond.left.name, row, seq_slot,
                      index_slot),)
        ctx.push_block()
        columnar = tuple(_compile_stmt(s, ctx) for s in columnar_stmts)
        ctx.pop_block()
        ctx.rows = ctx.rows[:-1]

    def counted_loop(rt, frame):
        record.entries += 1
        builtins = rt.builtins
        iterations = 0
        if columnar is not None:
            batch = frame[seq_slot]
            if batch.__class__ is ProbeBatch:
                i = frame[index_slot]
                if (type(i) is int and builtins.get("size") is _STDLIB_SIZE
                        and builtins.get("get") is _STDLIB_GET):
                    record.columnar += 1
                    n = len(batch.flows)
                    while True:
                        if not i < n:
                            return
                        iterations += 1
                        if iterations > MAX_LOOP_ITERATIONS:
                            raise AlmanacRuntimeError(
                                f"while loop exceeded {MAX_LOOP_ITERATIONS} "
                                f"iterations (line {line})")
                        if row_line is not None and i < -n:
                            _check_row(batch, i, row_line)
                        for s in columnar:
                            s(rt, frame)
                        i += 1
                        frame[index_slot] = i
                        if not (builtins.get("size") is _STDLIB_SIZE
                                and builtins.get("get") is _STDLIB_GET):
                            break
                record.materialized += 1
                frame[seq_slot] = batch.packets()
        while True:
            i = frame[index_slot]
            seq = frame[seq_slot] if load_seq is None else load_seq(rt, frame)
            if (type(i) is int and type(seq) is list
                    and builtins.get("size") is _STDLIB_SIZE):
                if not i < len(seq):
                    break
            else:
                record.fallbacks += 1
                cond = cond_fn(rt, frame)
                if cond is not True and (cond is False or not _truthy(cond)):
                    break
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise AlmanacRuntimeError(
                    f"while loop exceeded {MAX_LOOP_ITERATIONS} "
                    f"iterations (line {line})")
            for s in inner:
                s(rt, frame)
            # The body writes no ``i``: it still holds the tested value.
            if type(i) is int:
                frame[index_slot] = i + 1
            else:
                step_fn(rt, frame)
    return counted_loop


# ---------------------------------------------------------------------------
# Machine lowering
# ---------------------------------------------------------------------------


def _default_closure(typ: str) -> Callable:
    if typ == "list":
        def fresh_list(rt, frame):
            return []
        return fresh_list
    return _const(_default_value(typ))


def _trigger_in_state_raiser(name: str, state: str) -> Callable:
    def raise_trigger_in_state(rt, frame):
        raise AlmanacRuntimeError(
            "trigger variables must be machine-level "
            f"({name!r} in state {state!r})")
    return raise_trigger_in_state


def _batch_only(name: str, stmts: List[ast.Stmt], ctx: _Ctx) -> bool:
    """Every use of the local ``name`` in ``stmts`` (compiled in ``ctx``)
    lets a probe batch stay one: none writes it, and each read is the list
    of a columnar loop."""
    return (name not in _written_names(stmts)
            and all(id(v) in ctx.batch_uses
                    for v in _var_uses(stmts, name, [])))


def _materialize_prologue(bind_slot: int,
                          records: Tuple[_CountedLoop, ...]) -> Callable:
    """A probe handler's first statement when its samples escape: a batch
    becomes its packets, counted on the handler's columnar loops over it."""
    def materialize_samples(rt, frame):
        data = frame[bind_slot]
        if data.__class__ is ProbeBatch:
            frame[bind_slot] = data.packets()
            for record in records:
                record.materialized += 1
    return materialize_samples


def _compile_handler(event: ast.Event, code: MachineCode,
                     machine_vars: frozenset, state_vars: frozenset,
                     probe_vars: frozenset) -> _Handler:
    ctx = _Ctx(code, machine_vars, state_vars)
    bind_slot: Optional[int] = None
    trigger = event.trigger
    if isinstance(trigger, ast.VarTrigger) and trigger.bind:
        bind_slot = ctx.declare(trigger.bind)
    elif isinstance(trigger, ast.RecvTrigger):
        bind_slot = ctx.declare(trigger.pat_name)
    probe = (isinstance(trigger, ast.VarTrigger) and trigger.var in probe_vars
             and trigger.bind)
    if probe:
        ctx.probe_slot = bind_slot
    body = tuple(_compile_stmt(s, ctx) for s in event.actions)
    if probe and not _batch_only(trigger.bind, event.actions, ctx):
        records = tuple({id(record): record
                         for record in ctx.batch_loops}.values())
        body = (_materialize_prologue(bind_slot, records),) + body
    return _Handler(ctx.nslots, bind_slot, body)


def compile_closures(compiled: CompiledMachine) -> MachineCode:
    """Lower ``compiled`` to closures; cached on the machine object so every
    instance of the same flattened machine shares one compilation."""
    code = getattr(compiled, "_closure_code", None)
    if code is not None:
        return code
    code = MachineCode(compiled.name)
    code.trigger_names = frozenset(d.name for d in compiled.trigger_decls)
    probe_vars = frozenset(d.name for d in compiled.trigger_decls
                           if d.typ == "probe")
    machine_vars = frozenset(d.name for d in compiled.var_decls)

    # Two passes over functions so mutually recursive calls resolve.
    for fname, fdecl in compiled.functions.items():
        code.functions[fname] = _Function(fname, len(fdecl.params))
    for fname, fdecl in compiled.functions.items():
        function = code.functions[fname]
        ctx = _Ctx(code, machine_vars, frozenset())
        for _typ, pname in fdecl.params:
            ctx.declare(pname)
        function.body = tuple(_compile_stmt(s, ctx) for s in fdecl.body)
        function.nslots = ctx.nslots

    init_ctx = _Ctx(code, machine_vars, frozenset())
    code.machine_inits = {
        decl.name: _compile_expr(decl.init, init_ctx)
        for decl in compiled.var_decls if decl.init is not None}

    for sname, state in compiled.states.items():
        state_code = _StateCode(sname)
        visible: set = set()
        inits: List[Tuple[str, Callable]] = []
        for decl in state.var_decls:
            if decl.is_trigger:
                # The interpreter rejects this on state entry; emit a
                # raiser in declaration order so earlier inits still run.
                inits.append((decl.name,
                              _trigger_in_state_raiser(decl.name, sname)))
                continue
            ctx = _Ctx(code, machine_vars, frozenset(visible))
            if decl.init is not None:
                init_fn = _compile_expr(decl.init, ctx)
            else:
                init_fn = _default_closure(decl.typ)
            inits.append((decl.name, init_fn))
            visible.add(decl.name)
        state_code.var_inits = tuple(inits)

        state_vars = frozenset(
            d.name for d in state.var_decls if not d.is_trigger)
        enter: List[_Handler] = []
        exit_: List[_Handler] = []
        realloc: List[_Handler] = []
        var_handlers: Dict[str, List[_Handler]] = {}
        recv: List[Tuple[str, str, _Handler]] = []
        for event in state.events:
            handler = _compile_handler(event, code, machine_vars, state_vars,
                                       probe_vars)
            trigger = event.trigger
            if isinstance(trigger, ast.EnterTrigger):
                enter.append(handler)
            elif isinstance(trigger, ast.ExitTrigger):
                exit_.append(handler)
            elif isinstance(trigger, ast.ReallocTrigger):
                realloc.append(handler)
            elif isinstance(trigger, ast.VarTrigger):
                var_handlers.setdefault(trigger.var, []).append(handler)
            elif isinstance(trigger, ast.RecvTrigger):
                recv.append((trigger.source, trigger.pat_type, handler))
        state_code.enter = tuple(enter)
        state_code.exit = tuple(exit_)
        state_code.realloc = tuple(realloc)
        state_code.var_handlers = {
            var: tuple(handlers) for var, handlers in var_handlers.items()}
        state_code.recv_handlers = tuple(recv)
        code.states[sname] = state_code

    compiled._closure_code = code
    return code


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


class MachineInstance:
    """A running seed: one instantiated state machine on one host.

    The soil drives it through the ``fire_*`` methods when triggers occur.
    """

    def __init__(self, compiled: CompiledMachine, host: HostInterface,
                 externals: Optional[Mapping[str, Any]] = None,
                 instance_id: str = "",
                 extra_builtins: Optional[Mapping[str, Callable[..., Any]]]
                 = None, tracer: Optional[Any] = None) -> None:
        self.compiled = compiled
        self.host = host
        self.instance_id = instance_id or compiled.name
        # Duck-typed repro.obs.trace.Tracer (no import: the executor stays
        # observability-agnostic).  The dispatch fast path below costs
        # exactly one attribute load + branch when this is None (see
        # tests/obs/test_trace.py, TestDisabledFastPath).
        self._tracer = tracer
        self.builtins: Dict[str, Callable[..., Any]] = {}
        self.builtins.update(pure_builtins())
        self.builtins.update(host_builtins(host))
        if extra_builtins:
            self.builtins.update(extra_builtins)
        self._mvars: Dict[str, Any] = {}
        self._svars: Dict[str, Any] = {}
        self.current_state = compiled.initial_state
        self.transitions = 0
        self.events_handled = 0
        self._transit_depth = 0
        self._started = False
        self._code = compile_closures(compiled)
        self._init_machine_vars(dict(externals or {}))

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def _init_machine_vars(self, externals: Dict[str, Any]) -> None:
        mvars = self._mvars
        # Externals first so later initializers may reference them
        # regardless of declaration order (List. 2 declares the poll
        # variable before the externals it parameterizes).
        for decl in self.compiled.var_decls:
            if not decl.external:
                continue
            if decl.name in externals:
                mvars[decl.name] = externals.pop(decl.name)
            elif decl.init is not None:
                mvars[decl.name] = self._eval_init(decl)
            else:
                raise AlmanacRuntimeError(
                    f"external variable {decl.name!r} has no value")
        for decl in self.compiled.var_decls:
            if decl.external:
                continue
            if decl.init is None:
                value = _default_value(decl.typ)
            else:
                try:
                    value = self._eval_init(decl)
                except AlmanacRuntimeError:
                    # Trigger initializers may divide by an allocated
                    # resource (ival = 10/res().PCIe); with a zero
                    # allocation the trigger is simply not armed yet, so
                    # the runtime value stays undefined rather than failing
                    # the whole deployment.
                    if not decl.is_trigger:
                        raise
                    value = None
            mvars[decl.name] = value
        if externals:
            raise AlmanacRuntimeError(
                f"unknown external variables {sorted(externals)} for "
                f"machine {self.compiled.name!r}")

    def _eval_init(self, decl: ast.VarDecl) -> Any:
        return self._code.machine_inits[decl.name](self, _EMPTY_FRAME)

    def start(self) -> None:
        """Enter the initial state (fires its ``enter`` events)."""
        if self._started:
            raise AlmanacRuntimeError("machine already started")
        self._started = True
        self._enter_state(self.current_state)

    # ------------------------------------------------------------------
    # State machinery
    # ------------------------------------------------------------------
    def _run_handlers(self, handlers: Any, data: Any) -> bool:
        """Execute handlers with the language's dispatch semantics: count
        every executed event, swallow top-level returns, stop delivering
        once a handler transits away from the dispatching state."""
        handled = False
        state_at_entry = self.current_state
        for handler in handlers:
            handled = True
            self.events_handled += 1
            nslots = handler.nslots
            frame = [None] * nslots if nslots else _EMPTY_FRAME
            bind_slot = handler.bind_slot
            if bind_slot is not None:
                frame[bind_slot] = data
            try:
                for stmt in handler.body:
                    stmt(self, frame)
            except _ReturnSignal:
                pass
            if self.current_state != state_at_entry:
                break
        return handled

    def _enter_state(self, name: str) -> None:
        state_code = self._code.states[name]
        svars: Dict[str, Any] = {}
        self._svars = svars
        for vname, init_fn in state_code.var_inits:
            svars[vname] = init_fn(self, _EMPTY_FRAME)
        self._run_handlers(state_code.enter, None)

    def _fire_exit(self) -> None:
        self._run_handlers(self._code.states[self.current_state].exit, None)

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
            self._fire_exit()
            self.current_state = new_state
            self.transitions += 1
            self.host.transit_hook(old_state, new_state)
            self._enter_state(new_state)
        finally:
            self._transit_depth -= 1

    def _after_trigger_update(self, name: str, value: Any) -> None:
        """Re-arm the timer when a trigger variable's ival changed."""
        if name not in self._code.trigger_names:
            return
        interval = value.get("ival") if isinstance(value, dict) else value
        if isinstance(interval, (int, float)) and interval > 0:
            self.host.set_trigger_interval(name, float(interval))

    # ------------------------------------------------------------------
    # External trigger entry points (called by the soil)
    # ------------------------------------------------------------------
    def fire_trigger_var(self, var: str, data: Any) -> bool:
        """A poll/probe/time variable fired; returns True if handled."""
        tr = self._tracer
        if tr is not None and tr.enabled:
            return self._traced_fire_var(var, data)
        return self._fire_var(var, data)

    def _traced_fire_var(self, var: str, data: Any) -> bool:
        handled = self._fire_var(var, data)
        self._tracer.instant(
            f"fire {var}", track=f"seed/{self.instance_id}", cat="seed",
            args={"trace_id": self.instance_id, "handled": handled,
                  "state": self.current_state})
        return handled

    def _fire_var(self, var: str, data: Any) -> bool:
        handlers = self._code.states[self.current_state].var_handlers.get(var)
        if not handlers:
            return False
        return self._run_handlers(handlers, data)

    def fire_recv(self, value: Any, source_machine: str = "",
                  source_host: Any = None) -> bool:
        """A message arrived; pattern-match against recv events."""
        tr = self._tracer
        if tr is not None and tr.enabled:
            tr.instant(f"recv {source_machine or 'msg'}",
                       track=f"seed/{self.instance_id}", cat="seed",
                       args={"trace_id": self.instance_id,
                             "state": self.current_state})
        return self._fire_recv(value, source_machine)

    def _fire_recv(self, value: Any, source_machine: str) -> bool:
        # A generator, so each pattern is matched only if no earlier
        # handler transited away (exactly when the tree-walker tests it).
        recv_handlers = self._code.states[self.current_state].recv_handlers
        return self._run_handlers(
            (handler for source, pat_type, handler in recv_handlers
             if source == source_machine
             and _value_matches_type(value, pat_type)), value)

    def fire_realloc(self) -> bool:
        """The optimizer changed this seed's resources (SIII-A-c)."""
        return self._run_handlers(
            self._code.states[self.current_state].realloc, None)

    # ------------------------------------------------------------------
    # Migration support (SIV: seed state is transferred between switches)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Serializable inner state for migration."""
        return {
            "machine": self.compiled.name,
            "state": self.current_state,
            "machine_vars": dict(self._mvars),
            "state_vars": dict(self._svars),
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
        self._mvars.update(snapshot["machine_vars"])
        self.current_state = snapshot["state"]
        self._svars = dict(snapshot["state_vars"])
        self.transitions = snapshot.get("transitions", 0)
        self._started = True


def vector_kernel(compiled: CompiledMachine, state: str,
                  var: str) -> Optional[Any]:
    """Batch-capable kernel for ``(state, var)``, or None when the handler
    is not provably vectorizable.  Compilation is lazy and cached on the
    machine object (see :mod:`repro.almanac.vector`); the scalar closures
    above remain the reference path every kernel is differentially tested
    against."""
    from repro.almanac.vector import compile_vector_kernels
    return compile_vector_kernels(compiled).get((state, var))


__all__ = ["MachineCode", "MachineInstance", "compile_closures",
           "vector_kernel"]
