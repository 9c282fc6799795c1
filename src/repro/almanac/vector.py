"""Vectorized trigger dispatch for affine Almanac handlers.

The closure backend (:mod:`repro.almanac.codegen`) executes one seed per
Python call.  When many co-located seeds of the *same* machine receive the
same trigger at the same instant (the soil's fused poll groups), the per
seed interpreter overhead dominates.  This module compiles a handler into
a :class:`VectorKernel` that services a whole batch of instances in numpy
array passes — one gather, one array-order evaluation of the handler
body, one scatter.

Eligibility is deliberately narrow so the kernel is *provably* equivalent
to the scalar closures:

* exactly one handler for the ``(state, trigger var)`` pair;
* every statement is an assignment to a numeric machine/state/local
  variable, a numeric local declaration, or a ``send ... to harvester``
  (at most one send in the whole body, so cross-seed message order is
  preserved);
* every expression is **affine** in the numeric variables — certified by
  lowering it onto :class:`repro.almanac.poly.LinPoly` whose coefficient
  items also give a worst-case magnitude bound;
* no division (`_sem_div` has exact-int semantics), no branches,
  transits, loops, calls, field accesses, or trigger-variable writes.

Bit-exactness: expressions are *certified* affine via ``LinPoly`` but
*evaluated* in original AST order with float64 numpy ops, so float
results round exactly like the scalar closures.  Integer variables are
evaluated in float64 too; a compile-time magnitude bound (from the
polynomial's coefficients) plus a runtime ``|v| <= 2**31`` gather check
guarantee every intermediate stays exactly representable, and per-element
"was int" flags restore Python ``int`` on scatter.  Any batch the kernel
cannot prove safe is refused at :meth:`VectorKernel.fire` time and the
caller falls back to the scalar loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.almanac import astnodes as ast
from repro.almanac.poly import LinPoly

#: Gathered integers (and integral trigger data) must fit in 32 bits so
#: that every certified-affine intermediate stays exact in float64.
INT_INPUT_LIMIT = 2 ** 31
#: No intermediate value may be provably able to exceed this (float64
#: integer exactness threshold).
_EXACT_LIMIT = 2.0 ** 53

_NUMERIC_TYPES = ("int", "long", "float")


class _Ineligible(Exception):
    """Raised during compilation when a handler cannot be vectorized."""


# ---------------------------------------------------------------------------
# Compile-time environment
# ---------------------------------------------------------------------------


class _Col:
    """One batch column: a machine/state variable or a handler local."""

    __slots__ = ("name", "kind", "bound")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind  # "machine" | "state" | "local" | "data"
        # Worst-case |value| for exactness certification; inputs start at
        # the runtime-checked gather limit.
        self.bound = float(INT_INPUT_LIMIT)


class _Env:
    """Name resolution for one handler (mirrors codegen's ``_Ctx``)."""

    def __init__(self, machine_vars: frozenset, state_vars: frozenset,
                 trigger_names: frozenset) -> None:
        self.machine_vars = machine_vars
        self.state_vars = state_vars
        self.trigger_names = trigger_names
        self.cols: Dict[str, _Col] = {}
        self.sends = 0

    def resolve(self, name: str) -> _Col:
        col = self.cols.get(name)
        if col is not None:
            return col
        if name in self.trigger_names:
            raise _Ineligible(f"trigger variable {name!r}")
        if name in self.state_vars:
            kind = "state"
        elif name in self.machine_vars:
            kind = "machine"
        else:
            raise _Ineligible(f"unresolved name {name!r}")
        col = _Col(name, kind)
        self.cols[name] = col
        return col


# ---------------------------------------------------------------------------
# Expression certification + emission
# ---------------------------------------------------------------------------


def _certify(expr: ast.Expr, env: _Env) -> Tuple[LinPoly, float, bool]:
    """Prove ``expr`` affine in the batch columns.

    Returns ``(poly, bound, integral)``: the affine form over column
    names, a worst-case magnitude bound, and whether the expression is
    integral whenever all its column inputs are.
    """
    if isinstance(expr, ast.Lit):
        value = expr.value
        if type(value) is int:
            return LinPoly.constant(value), abs(float(value)), True
        if type(value) is float:
            return LinPoly.constant(value), abs(value), False
        raise _Ineligible(f"non-numeric literal {value!r}")
    if isinstance(expr, ast.Var):
        col = env.resolve(expr.name)
        return LinPoly.variable(expr.name), col.bound, True
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        poly, bound, integral = _certify(expr.operand, env)
        return -poly, bound, integral
    if isinstance(expr, ast.BinOp):
        op = expr.op
        if op in ("+", "-", "*"):
            lp, lb, li = _certify(expr.left, env)
            rp, rb, ri = _certify(expr.right, env)
            if op == "+":
                poly, bound = lp + rp, lb + rb
            elif op == "-":
                poly, bound = lp - rp, lb + rb
            else:
                # Affine * affine stays affine only when one side is
                # constant — LinPoly.multiply enforces exactly that.
                try:
                    poly = lp.multiply(rp)
                except Exception:
                    raise _Ineligible("non-affine product") from None
                bound = lb * rb
            if bound >= _EXACT_LIMIT:
                raise _Ineligible("magnitude bound exceeds float64 exactness")
            return poly, bound, li and ri
        raise _Ineligible(f"operator {op!r}")
    raise _Ineligible(f"expression {type(expr).__name__}")


def _emit(expr: ast.Expr, env: _Env) -> Callable:
    """Emit an AST-order float64 evaluator (bit-parity with the scalar
    closures); call only after :func:`_certify` accepted the expression."""
    if isinstance(expr, ast.Lit):
        value = float(expr.value)

        def lit(cols):
            return value
        return lit
    if isinstance(expr, ast.Var):
        name = expr.name

        def load(cols):
            return cols[name]
        return load
    if isinstance(expr, ast.UnaryOp):
        operand = _emit(expr.operand, env)

        def neg(cols):
            return -operand(cols)
        return neg
    # BinOp + - *
    left = _emit(expr.left, env)
    right = _emit(expr.right, env)
    op = expr.op
    if op == "+":
        def add(cols):
            return left(cols) + right(cols)
        return add
    if op == "-":
        def sub(cols):
            return left(cols) - right(cols)
        return sub

    def mul(cols):
        return left(cols) * right(cols)
    return mul


def _emit_int_flag(expr: ast.Expr, env: _Env,
                   integral: bool) -> Callable:
    """Per-element "result is a Python int" flag for an affine expr."""
    names = sorted(_expr_names(expr))

    def flags(cols, int_flags, n):
        if not integral:
            return _false_flags(n)
        out = None
        for name in names:
            flag = int_flags[name]
            out = flag if out is None else out & flag
        if out is None:
            return _true_flags(n)
        return out
    return flags


def _true_flags(n: int):
    return np.ones(n, dtype=bool)


def _false_flags(n: int):
    return np.zeros(n, dtype=bool)


# ---------------------------------------------------------------------------
# Statement compilation
# ---------------------------------------------------------------------------


def _compile_stmt(stmt: ast.Stmt, env: _Env) -> Callable:
    """Compile one statement into ``op(state)`` where ``state`` is the
    runtime :class:`_BatchState`."""
    if isinstance(stmt, ast.Assign):
        if stmt.fieldname is not None:
            raise _Ineligible("field assignment")
        if stmt.target in env.trigger_names:
            raise _Ineligible("trigger-variable assignment")
        poly, bound, integral = _certify(stmt.value, env)
        value_fn = _emit(stmt.value, env)
        flags_fn = _emit_int_flag(stmt.value, env, integral)
        target = env.resolve(stmt.target)
        target.bound = max(target.bound, bound)
        name = target.name

        def assign(bs):
            bs.cols[name] = _as_array(value_fn(bs.cols), bs.n)
            bs.int_flags[name] = flags_fn(bs.cols, bs.int_flags, bs.n)
        return assign
    if isinstance(stmt, ast.VarDecl):
        if stmt.typ not in _NUMERIC_TYPES:
            raise _Ineligible(f"local of type {stmt.typ!r}")
        if stmt.init is not None:
            _, bound, integral = _certify(stmt.init, env)
            value_fn = _emit(stmt.init, env)
            flags_fn = _emit_int_flag(stmt.init, env, integral)
        else:
            default = _TYPE_NUMERIC_DEFAULTS[stmt.typ]
            bound = abs(float(default))
            is_int = type(default) is int
            value_fn = lambda cols, _v=float(default): _v  # noqa: E731
            flags_fn = (lambda cols, int_flags, n, _i=is_int:
                        _true_flags(n) if _i else _false_flags(n))
        col = _Col(stmt.name, "local")
        col.bound = bound
        env.cols[stmt.name] = col
        name = stmt.name

        def declare(bs):
            bs.cols[name] = _as_array(value_fn(bs.cols), bs.n)
            bs.int_flags[name] = flags_fn(bs.cols, bs.int_flags, bs.n)
        return declare
    if isinstance(stmt, ast.Send):
        if stmt.dest_machine != "":
            raise _Ineligible("send to machine")
        env.sends += 1
        if env.sends > 1:
            # A second send could interleave across seeds differently
            # from the scalar seed-major order.
            raise _Ineligible("multiple sends")
        _, _, integral = _certify(stmt.value, env)
        value_fn = _emit(stmt.value, env)
        flags_fn = _emit_int_flag(stmt.value, env, integral)

        def send(bs):
            values = _as_array(value_fn(bs.cols), bs.n)
            flags = flags_fn(bs.cols, bs.int_flags, bs.n)
            for host, value, is_int in zip(bs.hosts, values, flags):
                host.send_to_harvester(int(value) if is_int
                                       else float(value))
        return send
    raise _Ineligible(f"statement {type(stmt).__name__}")


_TYPE_NUMERIC_DEFAULTS = {"int": 0, "long": 0, "float": 0.0}


def _as_array(value, n: int):
    if isinstance(value, np.ndarray):
        return value
    return np.full(n, value, dtype=np.float64)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


class _BatchState:
    """Mutable execution state threaded through the compiled ops."""

    __slots__ = ("cols", "int_flags", "hosts", "n")

    def __init__(self, cols, int_flags, hosts, n):
        self.cols = cols
        self.int_flags = int_flags
        self.hosts = hosts
        self.n = n


class VectorKernel:
    """A compiled, batch-capable handler for one ``(state, var)`` pair."""

    __slots__ = ("state", "var", "gather_cols", "ops", "data_name")

    def __init__(self, state: str, var: str,
                 gather_cols: Tuple[_Col, ...],
                 ops: Tuple[Callable, ...],
                 data_name: Optional[str]) -> None:
        self.state = state
        self.var = var
        self.gather_cols = gather_cols
        self.ops = ops
        self.data_name = data_name

    def fire(self, instances: List[Any], data_values: List[Any]) -> bool:
        """Run the handler for every instance at once.

        Returns False — with **no** side effects — when any gathered value
        or trigger datum fails the numeric/exactness checks; the caller
        must then fall back to the per-instance scalar path.
        """
        n = len(instances)
        cols: Dict[str, Any] = {}
        int_flags: Dict[str, Any] = {}
        limit = INT_INPUT_LIMIT
        for col in self.gather_cols:
            values = [None] * n
            flags = [False] * n
            name = col.name
            from_machine = col.kind == "machine"
            for i, inst in enumerate(instances):
                store = inst._mvars if from_machine else inst._svars
                try:
                    value = store[name]
                except KeyError:
                    return False
                t = type(value)
                if t is int:
                    if not -limit <= value <= limit:
                        return False
                    flags[i] = True
                elif t is not float:
                    return False
                values[i] = value
            cols[name] = np.array(values, dtype=np.float64)
            int_flags[name] = np.array(flags, dtype=bool)
        if self.data_name is not None:
            values = [None] * n
            flags = [False] * n
            for i, value in enumerate(data_values):
                t = type(value)
                if t is int:
                    if not -limit <= value <= limit:
                        return False
                    flags[i] = True
                elif t is not float:
                    return False
                values[i] = value
            cols[self.data_name] = np.array(values, dtype=np.float64)
            int_flags[self.data_name] = np.array(flags, dtype=bool)
        hosts = [inst.host for inst in instances]
        bs = _BatchState(cols, int_flags, hosts, n)
        for op in self.ops:
            op(bs)
        # Read-only columns go back unchanged: every gathered value
        # round-trips float64 exactly.
        for col in self.gather_cols:
            name = col.name
            values = bs.cols[name]
            flags = bs.int_flags[name]
            from_machine = col.kind == "machine"
            for i, inst in enumerate(instances):
                store = inst._mvars if from_machine else inst._svars
                value = values[i]
                store[name] = int(value) if flags[i] else float(value)
        for inst in instances:
            inst.events_handled += 1
        return True


# ---------------------------------------------------------------------------
# Machine-level compilation
# ---------------------------------------------------------------------------


def compile_vector_kernels(compiled: Any) -> Dict[Tuple[str, str],
                                                  "VectorKernel"]:
    """Compile every eligible ``(state, var)`` handler of ``compiled``.

    The result is cached on the machine object (like the closure code) so
    all instances share one compilation.  Ineligible handlers are simply
    absent from the map — callers fall back to the scalar path.
    """
    cache = getattr(compiled, "_vector_kernels", None)
    if cache is not None:
        return cache
    kernels: Dict[Tuple[str, str], VectorKernel] = {}
    trigger_names = frozenset(d.name for d in compiled.trigger_decls)
    machine_vars = frozenset(d.name for d in compiled.var_decls)
    for sname, state in compiled.states.items():
        state_vars = frozenset(
            d.name for d in state.var_decls if not d.is_trigger)
        by_var: Dict[str, List[ast.Event]] = {}
        for event in state.events:
            trigger = event.trigger
            if isinstance(trigger, ast.VarTrigger):
                by_var.setdefault(trigger.var, []).append(event)
        for var, events in by_var.items():
            if len(events) != 1:
                continue  # multi-handler dispatch order is scalar-only
            kernel = _compile_handler(sname, var, events[0],
                                      machine_vars, state_vars,
                                      trigger_names)
            if kernel is not None:
                kernels[(sname, var)] = kernel
    compiled._vector_kernels = kernels
    return kernels


def _compile_handler(state: str, var: str, event: ast.Event,
                     machine_vars: frozenset, state_vars: frozenset,
                     trigger_names: frozenset) -> Optional[VectorKernel]:
    env = _Env(machine_vars, state_vars, trigger_names)
    bind = event.trigger.bind
    if bind:
        env.cols[bind] = _Col(bind, "data")
    try:
        ops = tuple(_compile_stmt(s, env) for s in event.actions)
    except _Ineligible:
        return None
    gather = tuple(c for c in env.cols.values()
                   if c.kind in ("machine", "state"))
    # The data column is materialized only when the handler reads it.
    data_used = bool(bind) and _name_used(event.actions, bind)
    return VectorKernel(state=state, var=var, gather_cols=gather, ops=ops,
                        data_name=bind if data_used else None)


def _name_used(stmts: List[ast.Stmt], name: str) -> bool:
    """Whether ``name`` is referenced anywhere in the handler body."""
    return any(name in _expr_names(expr)
               for stmt in stmts for expr in _stmt_exprs(stmt))


def _stmt_exprs(stmt: ast.Stmt) -> List[ast.Expr]:
    if isinstance(stmt, ast.Assign):
        return [stmt.value]
    if isinstance(stmt, ast.VarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, ast.Send):
        return [stmt.value]
    return []


def _expr_names(expr: Optional[ast.Expr]) -> set:
    if expr is None:
        return set()
    if isinstance(expr, ast.Var):
        return {expr.name}
    if isinstance(expr, ast.UnaryOp):
        return _expr_names(expr.operand)
    if isinstance(expr, ast.BinOp):
        return _expr_names(expr.left) | _expr_names(expr.right)
    return set()


__all__ = ["VectorKernel", "compile_vector_kernels", "INT_INPUT_LIMIT"]
