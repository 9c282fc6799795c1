"""Static analysis of Almanac machines (SIII-B).

Three analyses feed the placement optimizer:

1. **Placement resolution** (``pi``) — ``place`` directives, evaluated
   against the SDN controller's path view, yield the seed set ``S^m`` and
   each seed's candidate switches ``N^s``.
2. **Utility extraction** (``kappa``/``epsilon``) — each state's ``util``
   callback becomes a :class:`~repro.almanac.poly.PiecewiseUtility`:
   constraint polynomials ``C^s`` and utility polynomials ``u^s``.
3. **Polling analysis** — each ``poll``/``probe`` trigger variable yields
   its interval function ``y.ival(r_i)`` (a rational whose inverse is
   linear) and its polling subject ``y.what`` (``phi_enc`` of the filter).

Deployment-time constants (``external`` variable values, machine-level
constant initializers) are bound before analysis via :class:`ConstEnv`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.almanac import astnodes as ast
from repro.almanac.poly import (
    ConcaveUtility,
    LinPoly,
    PiecewiseUtility,
    RationalFunc,
    UtilityPiece,
)
from repro.errors import AlmanacAnalysisError
from repro.net import filters as flt
from repro.net.addresses import Prefix

# ---------------------------------------------------------------------------
# Constant evaluation (phi^s: deployment-time expression closing)
# ---------------------------------------------------------------------------


class ConstEnv:
    """Deployment-time bindings: external variables + constant initializers."""

    def __init__(self, bindings: Optional[Mapping[str, object]] = None) -> None:
        self._bindings: Dict[str, object] = dict(bindings or {})

    def bind(self, name: str, value: object) -> None:
        self._bindings[name] = value

    def lookup(self, name: str) -> object:
        try:
            return self._bindings[name]
        except KeyError:
            raise AlmanacAnalysisError(
                f"variable {name!r} is not a deployment-time constant") from None

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    @classmethod
    def for_machine(cls, machine: ast.MachineDecl,
                    externals: Optional[Mapping[str, object]] = None) -> "ConstEnv":
        """Bind externals and any machine variables with literal initializers."""
        env = cls()
        externals = dict(externals or {})
        declared_externals = set()
        for decl in machine.var_decls:
            if decl.external:
                declared_externals.add(decl.name)
                if decl.name in externals:
                    env.bind(decl.name, externals[decl.name])
                elif decl.init is not None:
                    try:
                        env.bind(decl.name, const_eval(decl.init, env))
                    except AlmanacAnalysisError:
                        pass
                else:
                    raise AlmanacAnalysisError(
                        f"external variable {decl.name!r} of machine "
                        f"{machine.name!r} has no value at deployment")
            elif decl.init is not None and not decl.is_trigger:
                try:
                    env.bind(decl.name, const_eval(decl.init, env))
                except AlmanacAnalysisError:
                    pass  # runtime-only initializer; fine unless analysis needs it
        unknown = set(externals) - declared_externals
        if unknown:
            raise AlmanacAnalysisError(
                f"machine {machine.name!r} has no external variables "
                f"{sorted(unknown)}")
        return env


def const_eval(expr: ast.Expr, env: ConstEnv) -> object:
    """Evaluate an expression to a constant (number, string, bool, Filter)."""
    if isinstance(expr, ast.Lit):
        return expr.value
    if isinstance(expr, ast.AnyLit):
        return flt.ANY_PORT
    if isinstance(expr, ast.Var):
        return env.lookup(expr.name)
    if isinstance(expr, ast.FilterAtom):
        return _filter_atom(expr, env)
    if isinstance(expr, ast.UnaryOp):
        value = const_eval(expr.operand, env)
        if expr.op == "not":
            if isinstance(value, flt.Filter):
                return flt.NotFilter(value)
            return not value
        if expr.op == "-":
            return -_as_number(value, expr)
        raise AlmanacAnalysisError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinOp):
        return _const_binop(expr, env)
    if isinstance(expr, ast.ListLit):
        return [const_eval(item, env) for item in expr.items]
    raise AlmanacAnalysisError(
        f"expression is not a deployment-time constant "
        f"(line {getattr(expr, 'line', '?')})")


def _filter_atom(expr: ast.FilterAtom, env: ConstEnv) -> flt.Filter:
    arg = const_eval(expr.arg, env)
    if expr.kind in ("srcIP", "dstIP"):
        prefix = Prefix.parse(arg) if isinstance(arg, str) else Prefix.host(arg)
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
    raise AlmanacAnalysisError(f"unknown filter atom {expr.kind!r}")


def _as_number(value: object, expr: ast.Expr) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AlmanacAnalysisError(
            f"expected a number, got {value!r} (line {expr.line})")
    return value


def _const_binop(expr: ast.BinOp, env: ConstEnv) -> object:
    left = const_eval(expr.left, env)
    right = const_eval(expr.right, env)
    op = expr.op
    if isinstance(left, flt.Filter) or isinstance(right, flt.Filter):
        if not (isinstance(left, flt.Filter) and isinstance(right, flt.Filter)):
            raise AlmanacAnalysisError(
                f"cannot combine a filter with a non-filter (line {expr.line})")
        if op == "and":
            return flt.and_(left, right)
        if op == "or":
            return flt.or_(left, right)
        raise AlmanacAnalysisError(
            f"operator {op!r} is not defined on filters (line {expr.line})")
    if op == "and":
        return bool(left) and bool(right)
    if op == "or":
        return bool(left) or bool(right)
    if op == "+":
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        return _as_number(left, expr) + _as_number(right, expr)
    if op == "-":
        return _as_number(left, expr) - _as_number(right, expr)
    if op == "*":
        return _as_number(left, expr) * _as_number(right, expr)
    if op == "/":
        denominator = _as_number(right, expr)
        if denominator == 0:
            raise AlmanacAnalysisError(f"division by zero (line {expr.line})")
        return _as_number(left, expr) / denominator
    if op == "==":
        return left == right
    if op == "<>":
        return left != right
    if op == "<=":
        return _as_number(left, expr) <= _as_number(right, expr)
    if op == ">=":
        return _as_number(left, expr) >= _as_number(right, expr)
    if op == "<":
        return _as_number(left, expr) < _as_number(right, expr)
    if op == ">":
        return _as_number(left, expr) > _as_number(right, expr)
    raise AlmanacAnalysisError(f"unknown operator {op!r} (line {expr.line})")


# ---------------------------------------------------------------------------
# Utility extraction (kappa / epsilon of SIII-B-b)
# ---------------------------------------------------------------------------

_UTIL_OPS = ("and", "or", "==", "<=", ">=", "+", "-", "*", "/")

#: Conjunction of >=0 constraints; a condition in DNF is a list of these.
_Conjunct = Tuple[LinPoly, ...]


class UtilAnalyzer:
    """Turns a ``util`` block into a :class:`PiecewiseUtility`.

    Enforces the syntactic restrictions of SIII-A-f: only
    ``if-then-else``/``return`` statements, the operator subset, and only
    ``min``/``max`` calls.
    """

    def __init__(self, util: ast.UtilDecl, env: ConstEnv,
                 resource_names: Sequence[str]) -> None:
        self.util = util
        self.env = env
        self.resource_names = tuple(resource_names)
        self.param = util.param

    def analyze(self) -> PiecewiseUtility:
        pieces: List[UtilityPiece] = []
        self._walk(self.util.body, path=(), pieces=pieces)
        if not pieces:
            raise AlmanacAnalysisError(
                f"util block (line {self.util.line}) never returns")
        return PiecewiseUtility(pieces)

    # -- statement walking -----------------------------------------------
    def _walk(self, body: Sequence[ast.Stmt], path: _Conjunct,
              pieces: List[UtilityPiece]) -> bool:
        """Walk statements under path condition ``path``.

        Returns True if every control path through ``body`` returns.
        """
        for index, stmt in enumerate(body):
            if isinstance(stmt, ast.Return):
                if stmt.value is None:
                    raise AlmanacAnalysisError(
                        f"util return needs a value (line {stmt.line})")
                for alternative in self._eval_utility(stmt.value):
                    pieces.append(UtilityPiece(constraints=path,
                                               utility=alternative))
                return True
            if isinstance(stmt, ast.If):
                conjuncts = self._eval_condition(stmt.cond)
                then_done = all(
                    self._walk(stmt.then_body, path + conjunct, pieces)
                    for conjunct in conjuncts)
                if stmt.else_body:
                    # A sound linear 'else' needs negated conditions, which
                    # are disjunctions of strict inequalities - not LP
                    # friendly.  The paper's examples use if/else-if chains
                    # with disjoint conditions; we accept the else branch
                    # under the *parent* path (its pieces are alternatives;
                    # the optimizer activates at most one anyway).
                    else_done = self._walk(stmt.else_body, path, pieces)
                    if then_done and else_done:
                        return True
                continue
            raise AlmanacAnalysisError(
                f"util bodies allow only if-then-else and return "
                f"(line {stmt.line})")
        return False

    # -- conditions -> DNF ----------------------------------------------
    def _eval_condition(self, expr: ast.Expr) -> List[_Conjunct]:
        if isinstance(expr, ast.BinOp):
            if expr.op == "and":
                left = self._eval_condition(expr.left)
                right = self._eval_condition(expr.right)
                return [lc + rc for lc in left for rc in right]
            if expr.op == "or":
                return (self._eval_condition(expr.left)
                        + self._eval_condition(expr.right))
            if expr.op in ("<=", ">=", "=="):
                left = self._eval_linear(expr.left)
                right = self._eval_linear(expr.right)
                if expr.op == ">=":
                    return [(left - right,)]
                if expr.op == "<=":
                    return [(right - left,)]
                return [(left - right, right - left)]
        if isinstance(expr, ast.Lit) and expr.value is True:
            return [()]
        raise AlmanacAnalysisError(
            f"util conditions allow only and/or of >=, <=, == comparisons "
            f"(line {getattr(expr, 'line', '?')})")

    # -- linear expressions ------------------------------------------------
    def _eval_linear(self, expr: ast.Expr) -> LinPoly:
        if isinstance(expr, ast.Lit):
            return LinPoly.constant(_as_number(expr.value, expr))
        if isinstance(expr, ast.Var):
            if expr.name in self.env:
                return LinPoly.constant(
                    _as_number(self.env.lookup(expr.name), expr))
            raise AlmanacAnalysisError(
                f"util may only reference resources and constants; "
                f"{expr.name!r} is neither (line {expr.line})")
        if isinstance(expr, ast.FieldAccess):
            return LinPoly.variable(self._resource_field(expr))
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            return -self._eval_linear(expr.operand)
        if isinstance(expr, ast.BinOp):
            if expr.op not in _UTIL_OPS:
                raise AlmanacAnalysisError(
                    f"operator {expr.op!r} is not allowed in util "
                    f"(line {expr.line})")
            left = self._eval_linear(expr.left)
            right = self._eval_linear(expr.right)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left.multiply(right)
            if expr.op == "/":
                return left.divide(right)
            raise AlmanacAnalysisError(
                f"comparison used as a value in util (line {expr.line})")
        raise AlmanacAnalysisError(
            f"expression not linear in resources "
            f"(line {getattr(expr, 'line', '?')})")

    def _resource_field(self, expr: ast.FieldAccess) -> str:
        obj = expr.obj
        is_param = isinstance(obj, ast.Var) and obj.name == self.param
        is_res_call = isinstance(obj, ast.Call) and obj.func == "res"
        if not (is_param or is_res_call):
            raise AlmanacAnalysisError(
                f"util field access must be on the resource parameter "
                f"(line {expr.line})")
        if expr.fieldname not in self.resource_names:
            raise AlmanacAnalysisError(
                f"unknown resource type {expr.fieldname!r}; known: "
                f"{list(self.resource_names)} (line {expr.line})")
        return expr.fieldname

    # -- utility expressions (with min/max) ------------------------------
    def _eval_utility(self, expr: ast.Expr) -> List[ConcaveUtility]:
        """Alternatives (from ``max``) of concave (``min``) utilities."""
        if isinstance(expr, ast.Call):
            if expr.func == "min":
                alternative_lists = [self._eval_utility(a) for a in expr.args]
                # min distributes over max: cross-product the alternatives,
                # union the min-terms.
                combos: List[Tuple[LinPoly, ...]] = [()]
                for alternatives in alternative_lists:
                    combos = [existing + alt.terms
                              for existing in combos
                              for alt in alternatives]
                return [ConcaveUtility(terms) for terms in combos]
            if expr.func == "max":
                alternatives: List[ConcaveUtility] = []
                for arg in expr.args:
                    alternatives.extend(self._eval_utility(arg))
                return alternatives
            if expr.func == "res":
                raise AlmanacAnalysisError(
                    f"res() must be followed by a field access "
                    f"(line {expr.line})")
            raise AlmanacAnalysisError(
                f"util allows only min/max calls, not {expr.func!r} "
                f"(line {expr.line})")
        if isinstance(expr, ast.BinOp) and expr.op in ("+", "-", "*", "/"):
            left_alts = self._eval_utility(expr.left)
            right_alts = self._eval_utility(expr.right)
            results = []
            for left in left_alts:
                for right in right_alts:
                    results.append(self._combine(expr.op, left, right, expr))
            return results
        # Base case: a plain linear expression.
        return [ConcaveUtility.linear(self._eval_linear(expr))]

    def _combine(self, op: str, left: ConcaveUtility, right: ConcaveUtility,
                 expr: ast.Expr) -> ConcaveUtility:
        # min(a..)+c (c linear) = min(a+c..); multi-term both sides is not
        # concave-representable.
        if op == "+":
            if len(right.terms) == 1:
                addend = right.terms[0]
                return ConcaveUtility(tuple(t + addend for t in left.terms))
            if len(left.terms) == 1:
                addend = left.terms[0]
                return ConcaveUtility(tuple(t + addend for t in right.terms))
            raise AlmanacAnalysisError(
                f"sum of two min() expressions is not supported "
                f"(line {expr.line})")
        if op == "-":
            if len(right.terms) != 1:
                raise AlmanacAnalysisError(
                    f"subtracting a min() expression is not supported "
                    f"(line {expr.line})")
            subtrahend = right.terms[0]
            return ConcaveUtility(tuple(t - subtrahend for t in left.terms))
        if op == "*":
            factor = self._extract_positive_const(right) \
                if right.is_constant else self._extract_positive_const(left)
            other = left if right.is_constant else right
            return ConcaveUtility(tuple(t.scale(factor) for t in other.terms))
        if op == "/":
            factor = self._extract_positive_const(right)
            return ConcaveUtility(
                tuple(t.scale(1.0 / factor) for t in left.terms))
        raise AlmanacAnalysisError(f"operator {op!r} unsupported in util")

    @staticmethod
    def _extract_positive_const(value: ConcaveUtility) -> float:
        if not value.is_constant or len(value.terms) != 1:
            raise AlmanacAnalysisError(
                "min()/max() may only be scaled by positive constants")
        const = value.terms[0].const
        if const <= 0:
            raise AlmanacAnalysisError(
                "min()/max() may only be scaled by positive constants")
        return const


def analyze_util(util: Optional[ast.UtilDecl], env: ConstEnv,
                 resource_names: Sequence[str]) -> PiecewiseUtility:
    """Analyze one state's utility; a missing ``util`` means "zero utility,
    no constraints" (the seed runs but adds nothing to MU)."""
    if util is None:
        return PiecewiseUtility(
            [UtilityPiece(constraints=(), utility=ConcaveUtility.constant(0.0))])
    return UtilAnalyzer(util, env, resource_names).analyze()


# ---------------------------------------------------------------------------
# Poll-variable analysis (SIII-B-c)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PollVarInfo:
    """Static description of one poll/probe/time trigger variable."""

    name: str
    kind: str  # "poll" | "probe" | "time"
    ival: RationalFunc
    what: flt.Filter  # TrueFilter for plain time triggers

    def interval_at(self, resources: Mapping[str, float]) -> float:
        return self.ival.evaluate(resources)


class _IvalAnalyzer:
    """Evaluates an interval expression to a :class:`RationalFunc`."""

    def __init__(self, env: ConstEnv, resource_names: Sequence[str]) -> None:
        self.env = env
        self.resource_names = tuple(resource_names)

    def eval(self, expr: ast.Expr) -> RationalFunc:
        if isinstance(expr, ast.Lit):
            return RationalFunc(LinPoly.constant(_as_number(expr.value, expr)))
        if isinstance(expr, ast.Var):
            value = self.env.lookup(expr.name)
            return RationalFunc(LinPoly.constant(_as_number(value, expr)))
        if isinstance(expr, ast.FieldAccess):
            obj = expr.obj
            if isinstance(obj, ast.Call) and obj.func == "res":
                if expr.fieldname not in self.resource_names:
                    raise AlmanacAnalysisError(
                        f"unknown resource {expr.fieldname!r} in poll "
                        f"interval (line {expr.line})")
                return RationalFunc(LinPoly.variable(expr.fieldname))
            raise AlmanacAnalysisError(
                f"poll intervals may reference res() fields and constants "
                f"only (line {expr.line})")
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            inner = self.eval(expr.operand)
            return RationalFunc(-inner.numerator, inner.denominator)
        if isinstance(expr, ast.BinOp):
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            if expr.op == "/":
                # (a/b) / (c/d) = (a*d) / (b*c)
                return RationalFunc(
                    left.numerator.multiply(right.denominator),
                    left.denominator.multiply(right.numerator))
            if expr.op == "*":
                return RationalFunc(
                    left.numerator.multiply(right.numerator),
                    left.denominator.multiply(right.denominator))
            if expr.op in ("+", "-"):
                if not (left.denominator.is_constant
                        and right.denominator.is_constant):
                    raise AlmanacAnalysisError(
                        f"poll interval too complex (line {expr.line})")
                l = left.numerator.divide(left.denominator)
                r = right.numerator.divide(right.denominator)
                return RationalFunc(l + r if expr.op == "+" else l - r)
            raise AlmanacAnalysisError(
                f"operator {expr.op!r} not allowed in poll intervals "
                f"(line {expr.line})")
        raise AlmanacAnalysisError(
            f"poll interval expression unsupported "
            f"(line {getattr(expr, 'line', '?')})")


def analyze_poll_var(decl: ast.VarDecl, env: ConstEnv,
                     resource_names: Sequence[str]) -> PollVarInfo:
    """Analyze one trigger-variable declaration."""
    if not decl.is_trigger:
        raise AlmanacAnalysisError(f"{decl.name!r} is not a trigger variable")
    analyzer = _IvalAnalyzer(env, resource_names)
    if decl.typ == "time":
        if decl.init is None:
            raise AlmanacAnalysisError(
                f"time variable {decl.name!r} needs an interval")
        return PollVarInfo(name=decl.name, kind="time",
                           ival=analyzer.eval(decl.init),
                           what=flt.TrueFilter())
    if decl.init is None or not isinstance(decl.init, ast.StructLit):
        raise AlmanacAnalysisError(
            f"{decl.typ} variable {decl.name!r} needs a "
            f"{decl.typ.capitalize()}{{.ival=..., .what=...}} initializer")
    struct = decl.init
    expected = decl.typ.capitalize()
    if struct.struct != expected:
        raise AlmanacAnalysisError(
            f"{decl.typ} variable {decl.name!r} initialized with "
            f"{struct.struct!r}, expected {expected!r}")
    fields = dict(struct.fields)
    if "ival" not in fields or "what" not in fields:
        raise AlmanacAnalysisError(
            f"{expected} literal needs .ival and .what (line {struct.line})")
    ival = analyzer.eval(fields["ival"])
    what = const_eval(fields["what"], env)
    if not isinstance(what, flt.Filter):
        raise AlmanacAnalysisError(
            f".what of {decl.name!r} must be a filter expression")
    return PollVarInfo(name=decl.name, kind=decl.typ, ival=ival, what=what)


# ---------------------------------------------------------------------------
# Polling-subject encoding (phi_enc)
# ---------------------------------------------------------------------------

def encode_polling_subjects(what: flt.Filter,
                            num_ports: int) -> frozenset:
    """``phi_enc``: concrete statistics a poll with filter ``what`` reads.

    Subjects are hashable tokens: ``("port", i)`` for interface counters,
    ``("tcam", canonical-filter)`` for flow statistics tracked via TCAM
    entries.  Two poll variables share cost iff their subject sets overlap.
    """
    ports = what.switch_ports()
    if ports is not None:
        if flt.ANY_PORT in ports:
            return frozenset(("port", i) for i in range(num_ports))
        return frozenset(("port", i) for i in sorted(ports))
    if isinstance(what, flt.TrueFilter):
        return frozenset(("port", i) for i in range(num_ports))
    if isinstance(what, flt.OrFilter):
        subjects: Set = set()
        for operand in what.operands:
            subjects.update(encode_polling_subjects(operand, num_ports))
        return frozenset(subjects)
    return frozenset({("tcam", what.canonical())})


# ---------------------------------------------------------------------------
# Placement resolution (pi of SIII-B-a)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedSeedSite:
    """One seed's placement candidates: it must run on exactly one of
    ``switches`` (the ``N^s`` of the optimization model)."""

    switches: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.switches:
            raise AlmanacAnalysisError("a seed needs at least one candidate")


def resolve_placements(machine: ast.MachineDecl, env: ConstEnv,
                       controller) -> List[ResolvedSeedSite]:
    """Resolve a machine's ``place`` directives into seed candidate sets.

    ``controller`` provides ``all_switches()`` and ``paths_matching(filter)``
    (duck-typed; the production implementation is
    :class:`repro.net.controller.SdnController`).

    Semantics (with one documented divergence, see DESIGN.md):

    * ``all`` + no constraint: one seed pinned to every switch.
    * ``any`` + no constraint: one seed placeable on any switch.
    * explicit ids: as above restricted to those switches.
    * range spec: per matching path, nodes at the requested distance from
      the anchor; ``all`` pins one seed per (path, node), ``any`` creates
      one seed per path placeable on any matching node of that path
      (duplicate candidate sets collapse).
    """
    if not machine.placements:
        raise AlmanacAnalysisError(
            f"machine {machine.name!r} has no place directive")
    sites: List[ResolvedSeedSite] = []
    seen: Set[Tuple[int, ...]] = set()

    def add(switches: Sequence[int], dedup: bool) -> None:
        key = tuple(sorted(set(switches)))
        if not key:
            return
        if dedup and key in seen:
            return
        seen.add(key)
        sites.append(ResolvedSeedSite(switches=key))

    for placement in machine.placements:
        if placement.range_spec is not None:
            _resolve_range(placement, env, controller, add)
        elif placement.switch_exprs:
            ids = [int(_as_number(const_eval(e, env), e))
                   for e in placement.switch_exprs]
            known = set(controller.all_switches())
            bad = [i for i in ids if i not in known]
            if bad:
                raise AlmanacAnalysisError(
                    f"place directive names unknown switches {bad}")
            if placement.quantifier == ast.Q_ALL:
                for switch in ids:
                    add([switch], dedup=True)
            else:
                add(ids, dedup=True)
        else:
            switches = controller.all_switches()
            if placement.quantifier == ast.Q_ALL:
                for switch in switches:
                    add([switch], dedup=True)
            else:
                add(switches, dedup=True)
    return sites


def _resolve_range(placement: ast.Placement, env: ConstEnv, controller,
                   add) -> None:
    spec = placement.range_spec
    if spec.path_filter is not None:
        fil = const_eval(spec.path_filter, env)
        if not isinstance(fil, flt.Filter):
            raise AlmanacAnalysisError(
                f"place path expression must be a filter (line {spec.line})")
    else:
        fil = flt.TrueFilter()
    distance = int(_as_number(const_eval(spec.distance, env), spec.distance))
    paths = sorted(controller.paths_matching(fil))
    if not paths:
        raise AlmanacAnalysisError(
            f"place directive (line {placement.line}) matches no paths")
    for path in paths:
        candidates = _nodes_in_range(path, spec.anchor, spec.op, distance)
        if not candidates:
            continue
        if placement.quantifier == ast.Q_ALL:
            for node in candidates:
                add([node], dedup=True)
        else:
            add(candidates, dedup=True)


def _nodes_in_range(path: Tuple[int, ...], anchor: str, op: str,
                    distance: int) -> List[int]:
    length = len(path)
    if anchor == ast.ANCHOR_SENDER:
        dists = list(range(length))
    elif anchor == ast.ANCHOR_RECEIVER:
        dists = [length - 1 - i for i in range(length)]
    else:  # midpoint: distance to the nearest center position
        if length % 2 == 1:
            centers = [length // 2]
        else:
            centers = [length // 2 - 1, length // 2]
        dists = [min(abs(i - c) for c in centers) for i in range(length)]
    ops = {
        "==": lambda d: d == distance,
        "<>": lambda d: d != distance,
        "<=": lambda d: d <= distance,
        ">=": lambda d: d >= distance,
        "<": lambda d: d < distance,
        ">": lambda d: d > distance,
    }
    try:
        predicate = ops[op]
    except KeyError:
        raise AlmanacAnalysisError(f"unknown range operator {op!r}") from None
    return [node for node, d in zip(path, dists) if predicate(d)]
