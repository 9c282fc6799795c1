"""Static semantic checks for Almanac programs.

Run by the seeder before deployment (and available standalone via
:func:`check_program`).  The checker is deliberately conservative — the
language is dynamically typed at runtime — and reports *definite* errors:

* references to undeclared variables / states / machines;
* ``transit`` to states that do not exist;
* duplicate state or variable names;
* ``send ... to M`` naming a machine absent from the program;
* trigger events (``when (y ...)``) on variables that are not triggers;
* calls to functions that are neither builtins nor declared;
* arity mismatches on declared-function calls;
* ``external`` initializers that are not deployment-time constants.

Each problem is a :class:`Diagnostic`; ``check_program`` returns them all
rather than stopping at the first, so an operator sees every issue in one
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.almanac import astnodes as ast
from repro.almanac.machine import flatten_machine
from repro.almanac.stdlib import pure_builtins
from repro.errors import AlmanacError, AlmanacTypeError

#: Builtins provided by the host at runtime (List. 1) — always callable.
_HOST_BUILTINS = frozenset({
    "res", "addTCAMRule", "removeTCAMRule", "getTCAMRule", "exec", "now",
    "log",
})


def _optional_builtins() -> frozenset:
    """Names soils may inject (sketch API); accepted by the checker since
    their absence is a deployment-time concern, not a program error."""
    from repro.sketches.almanac_bridge import sketch_builtins
    return frozenset(sketch_builtins())


@dataclass(frozen=True)
class Diagnostic:
    """One problem found by the checker."""

    machine: str
    message: str
    line: int = 0

    def __str__(self) -> str:
        where = f" (line {self.line})" if self.line else ""
        return f"[{self.machine}] {self.message}{where}"


class _MachineChecker:
    def __init__(self, program: ast.Program, machine: ast.MachineDecl,
                 diagnostics: List[Diagnostic]) -> None:
        self.program = program
        self.machine = machine
        self.diagnostics = diagnostics
        self.machine_names = {m.name for m in program.machines}
        self.functions = {f.name: f for f in program.functions}
        self.builtins = (set(pure_builtins()) | _HOST_BUILTINS
                         | _optional_builtins())
        try:
            compiled = flatten_machine(program, machine.name)
            self.state_names = set(compiled.states)
            self.machine_vars = {d.name for d in compiled.var_decls}
            self.trigger_vars = {d.name for d in compiled.var_decls
                                 if d.is_trigger}
            self.flattened = compiled
        except AlmanacError as exc:
            self._report(str(exc), machine.line)
            self.state_names = {s.name for s in machine.states}
            self.machine_vars = {d.name for d in machine.var_decls}
            self.trigger_vars = {d.name for d in machine.var_decls
                                 if d.is_trigger}
            self.flattened = None

    def _report(self, message: str, line: int = 0) -> None:
        self.diagnostics.append(
            Diagnostic(self.machine.name, message, line))

    # ------------------------------------------------------------------
    def check(self) -> None:
        self._check_duplicates()
        if self.flattened is None:
            return
        for state in self.flattened.states.values():
            state_vars = {d.name for d in state.var_decls}
            for event in state.events:
                self._check_trigger(event.trigger)
                bound = self._trigger_bindings(event.trigger)
                self._check_block(event.actions,
                                  self.machine_vars | state_vars | bound)
            if state.util is not None:
                self._check_util(state)
        for function in self.functions.values():
            params = {name for _typ, name in function.params}
            self._check_block(function.body, self.machine_vars | params,
                              in_function=True)

    def _check_duplicates(self) -> None:
        seen_states: Set[str] = set()
        for state in self.machine.states:
            if state.name in seen_states:
                self._report(f"duplicate state {state.name!r}", state.line)
            seen_states.add(state.name)
        seen_vars: Set[str] = set()
        for decl in self.machine.var_decls:
            if decl.name in seen_vars:
                self._report(f"duplicate variable {decl.name!r}", decl.line)
            seen_vars.add(decl.name)

    def _check_trigger(self, trigger: ast.Trigger) -> None:
        if isinstance(trigger, ast.VarTrigger):
            if trigger.var not in self.trigger_vars:
                kind = ("a regular variable" if trigger.var
                        in self.machine_vars else "undeclared")
                self._report(
                    f"event trigger {trigger.var!r} is {kind}, not a "
                    f"time/poll/probe variable", trigger.line)
        if isinstance(trigger, ast.RecvTrigger) and trigger.source:
            if trigger.source not in self.machine_names:
                self._report(
                    f"recv from unknown machine {trigger.source!r}",
                    trigger.line)

    @staticmethod
    def _trigger_bindings(trigger: ast.Trigger) -> Set[str]:
        if isinstance(trigger, ast.VarTrigger) and trigger.bind:
            return {trigger.bind}
        if isinstance(trigger, ast.RecvTrigger):
            return {trigger.pat_name}
        return set()

    # ------------------------------------------------------------------
    def _check_block(self, statements, scope: Set[str],
                     in_function: bool = False) -> None:
        local = set(scope)
        for stmt in statements:
            self._check_stmt(stmt, local, in_function)

    def _check_stmt(self, stmt: ast.Stmt, scope: Set[str],
                    in_function: bool) -> None:
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                self._check_expr(stmt.init, scope)
            scope.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            if stmt.target not in scope:
                self._report(
                    f"assignment to undeclared variable {stmt.target!r}",
                    stmt.line)
            self._check_expr(stmt.value, scope)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.cond, scope)
            self._check_block(stmt.then_body, scope, in_function)
            self._check_block(stmt.else_body, scope, in_function)
        elif isinstance(stmt, ast.While):
            self._check_expr(stmt.cond, scope)
            self._check_block(stmt.body, scope, in_function)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_expr(stmt.value, scope)
        elif isinstance(stmt, ast.Transit):
            if in_function:
                self._report("transit is not allowed inside functions",
                             stmt.line)
            elif stmt.state not in self.state_names:
                self._report(f"transit to unknown state {stmt.state!r}",
                             stmt.line)
        elif isinstance(stmt, ast.Send):
            self._check_expr(stmt.value, scope)
            if stmt.dest_machine and \
                    stmt.dest_machine not in self.machine_names:
                self._report(
                    f"send to unknown machine {stmt.dest_machine!r}",
                    stmt.line)
            if stmt.dest_host is not None:
                self._check_expr(stmt.dest_host, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)

    def _check_expr(self, expr: Optional[ast.Expr], scope: Set[str]) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Var):
            if expr.name not in scope:
                self._report(f"undeclared variable {expr.name!r}", expr.line)
        elif isinstance(expr, ast.BinOp):
            self._check_expr(expr.left, scope)
            self._check_expr(expr.right, scope)
        elif isinstance(expr, ast.UnaryOp):
            self._check_expr(expr.operand, scope)
        elif isinstance(expr, ast.FilterAtom):
            self._check_expr(expr.arg, scope)
        elif isinstance(expr, ast.FieldAccess):
            self._check_expr(expr.obj, scope)
        elif isinstance(expr, ast.ListLit):
            for item in expr.items:
                self._check_expr(item, scope)
        elif isinstance(expr, ast.StructLit):
            for _name, value in expr.fields:
                self._check_expr(value, scope)
        elif isinstance(expr, ast.Call):
            self._check_call(expr, scope)

    def _check_call(self, expr: ast.Call, scope: Set[str]) -> None:
        for arg in expr.args:
            self._check_expr(arg, scope)
        function = self.functions.get(expr.func)
        if function is not None:
            if len(expr.args) != len(function.params):
                self._report(
                    f"{expr.func}() takes {len(function.params)} "
                    f"argument(s), got {len(expr.args)}", expr.line)
            return
        if expr.func not in self.builtins:
            self._report(f"call to unknown function {expr.func!r}",
                         expr.line)

    def _check_util(self, state) -> None:
        util = state.util
        allowed = {util.param} | self.machine_vars
        # Only if/return with expressions over res fields + constants; the
        # deep restrictions live in analysis.UtilAnalyzer — here we just
        # verify name resolution.
        self._check_block(util.body, allowed)


def check_program(program: ast.Program) -> List[Diagnostic]:
    """Check every machine; returns all diagnostics (empty = clean)."""
    diagnostics: List[Diagnostic] = []
    for machine in program.machines:
        _MachineChecker(program, machine, diagnostics).check()
    return diagnostics


def assert_well_formed(program: ast.Program) -> None:
    """Raise :class:`AlmanacTypeError` listing every diagnostic, if any."""
    diagnostics = check_program(program)
    if diagnostics:
        summary = "; ".join(str(d) for d in diagnostics[:10])
        more = f" (+{len(diagnostics) - 10} more)" \
            if len(diagnostics) > 10 else ""
        raise AlmanacTypeError(
            f"{len(diagnostics)} problem(s): {summary}{more}")
