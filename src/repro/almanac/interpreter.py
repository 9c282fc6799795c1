"""Almanac's executable specification: a tree-walking interpreter.

:class:`ReferenceInterpreter` is a
:class:`~repro.almanac.codegen.MachineInstance` whose every evaluation step
(variable initialisers, state entry, trigger dispatch, statements,
expressions) re-walks the AST through a scope chain instead of running
compiled closures.  It is the oracle that
``tests/almanac/test_codegen.py`` compares the production executor
against; nothing under ``src/`` constructs it.  Lifecycle, transit
bookkeeping, tracing and snapshot/restore are inherited, so the two classes
are driven through the same constructor and ``fire_*`` entry points and
exchange snapshots freely.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.almanac import astnodes as ast
from repro.almanac.codegen import MachineInstance
from repro.almanac.machine import (
    MAX_LOOP_ITERATIONS,
    CompiledState,
    _default_value,
    _field,
    _ReturnSignal,
    _truthy,
    _value_matches_type,
)
from repro.almanac.stdlib import make_struct
from repro.errors import AlmanacRuntimeError
from repro.net import filters as flt
from repro.net.addresses import Prefix


class _Scope:
    """A chain of variable frames (machine vars < state vars < locals)."""

    def __init__(self, parent: Optional["_Scope"] = None,
                 frame: Optional[Dict[str, Any]] = None) -> None:
        self.vars: Dict[str, Any] = {} if frame is None else frame
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


class ReferenceInterpreter(MachineInstance):
    """The tree-walking executor: same surface, no compiled closures."""

    # The scope chain is rebuilt over the instance's variable dicts on
    # every access, so state entry and restore() need no extra bookkeeping.
    @property
    def machine_scope(self) -> _Scope:
        return _Scope(frame=self._mvars)

    @property
    def state_scope(self) -> _Scope:
        return _Scope(self.machine_scope, self._svars)

    @property
    def state(self) -> CompiledState:
        return self.compiled.states[self.current_state]

    def _eval_init(self, decl: ast.VarDecl) -> Any:
        return self._eval(decl.init, self.machine_scope)

    def _enter_state(self, name: str) -> None:
        state = self.compiled.states[name]
        self._svars = {}
        scope = self.state_scope
        for decl in state.var_decls:
            if decl.is_trigger:
                raise AlmanacRuntimeError(
                    "trigger variables must be machine-level "
                    f"({decl.name!r} in state {name!r})")
            value = (self._eval(decl.init, scope)
                     if decl.init is not None else _default_value(decl.typ))
            scope.declare(decl.name, value)
        self._dispatch(lambda t: isinstance(t, ast.EnterTrigger), {})

    def _fire_exit(self) -> None:
        self._dispatch(lambda t: isinstance(t, ast.ExitTrigger), {})

    def _fire_var(self, var: str, data: Any) -> bool:
        def matches(trigger: ast.Trigger) -> bool:
            return isinstance(trigger, ast.VarTrigger) and trigger.var == var

        return self._dispatch(matches, {"__data__": data})

    def _fire_recv(self, value: Any, source_machine: str) -> bool:
        def matches(trigger: ast.Trigger) -> bool:
            if not isinstance(trigger, ast.RecvTrigger):
                return False
            if trigger.source != source_machine:
                return False
            return _value_matches_type(value, trigger.pat_type)

        return self._dispatch(matches, {"__data__": value})

    def fire_realloc(self) -> bool:
        """The optimizer changed this seed's resources (SIII-A-c)."""
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
                try:
                    return -operand
                except TypeError as exc:
                    raise AlmanacRuntimeError(
                        f"type error in unary '-' (line {expr.line}): {exc}"
                    ) from None
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
