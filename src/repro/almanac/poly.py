"""Linear polynomials over resource variables.

SIII-B-b: the seeder analyzes each ``util`` block into resource constraints
``C^s(r_i)`` and a utility function ``u^s(r_i)``, "both ... represented as
explicit polynomials making them suitable for placement optimization".  The
MILP of SIV-D additionally requires linearity, so the representation here is
*linear* polynomials — the analysis rejects non-linear terms loudly rather
than silently mis-optimizing.

Utility expressions may call ``min``/``max`` (SIII-A-f).  ``min`` of linear
terms is concave and drops straight into a maximization LP via an epigraph
variable (``u <= term_i``); it is kept symbolic in :class:`ConcaveUtility`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import AlmanacAnalysisError


class LinPoly:
    """``const + sum(coeff_i * r_i)`` with exact dict-of-coeffs storage.

    Instances are treated as immutable (every operation returns a new
    poly), so the coefficient items and the sorted variable tuple are
    cached: the placement heuristic evaluates the same polynomials
    ``O(seeds × |N^s| × pieces)`` times in its inner loop.
    """

    __slots__ = ("coeffs", "const", "_items", "_vars")

    def __init__(self, coeffs: Mapping[str, float] = (), const: float = 0.0) -> None:
        self.coeffs: Dict[str, float] = {
            var: float(c) for var, c in dict(coeffs).items() if c != 0.0}
        self.const = float(const)
        self._items: Tuple[Tuple[str, float], ...] = tuple(
            self.coeffs.items())
        self._vars: Optional[Tuple[str, ...]] = None  # lazy, see variables()

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "LinPoly":
        return cls({}, value)

    @classmethod
    def variable(cls, name: str) -> "LinPoly":
        return cls({name: 1.0}, 0.0)

    # -- predicates ----------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> Tuple[str, ...]:
        if self._vars is None:
            self._vars = tuple(sorted(self.coeffs))
        return self._vars

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: "LinPoly") -> "LinPoly":
        coeffs = dict(self.coeffs)
        for var, c in other.coeffs.items():
            coeffs[var] = coeffs.get(var, 0.0) + c
        return LinPoly(coeffs, self.const + other.const)

    def __sub__(self, other: "LinPoly") -> "LinPoly":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "LinPoly":
        return LinPoly({v: c * factor for v, c in self.coeffs.items()},
                       self.const * factor)

    def __neg__(self) -> "LinPoly":
        return self.scale(-1.0)

    def multiply(self, other: "LinPoly") -> "LinPoly":
        """Product; at most one operand may be non-constant."""
        if self.is_constant:
            return other.scale(self.const)
        if other.is_constant:
            return self.scale(other.const)
        raise AlmanacAnalysisError(
            f"non-linear term: ({self}) * ({other}); util bodies and poll "
            f"intervals must stay linear in resources")

    def divide(self, other: "LinPoly") -> "LinPoly":
        """Quotient; the divisor must be a non-zero constant."""
        if not other.is_constant:
            raise AlmanacAnalysisError(
                f"non-linear term: ({self}) / ({other})")
        if other.const == 0.0:
            raise AlmanacAnalysisError(f"division by zero: ({self}) / 0")
        return self.scale(1.0 / other.const)

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, env: Mapping[str, float]) -> float:
        total = self.const
        for var, c in self._items:
            try:
                total += c * env[var]
            except KeyError:
                raise AlmanacAnalysisError(
                    f"no value for resource variable {var!r}") from None
        return total

    # -- comparisons -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LinPoly) and self.coeffs == other.coeffs
                and self.const == other.const)

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.coeffs.items())), self.const))

    def __repr__(self) -> str:
        parts = [f"{c:+g}*{v}" for v, c in sorted(self.coeffs.items())]
        parts.append(f"{self.const:+g}")
        return " ".join(parts)


@dataclass(frozen=True)
class RationalFunc:
    """``numerator / denominator`` of linear polynomials.

    Poll intervals (``y.ival``) are allowed to depend on resources as long
    as the *inverse* interval is linear (SIV-D), e.g. List. 2's
    ``ival = 10 / res().PCIe`` has inverse ``PCIe / 10``.
    """

    numerator: LinPoly
    denominator: LinPoly = field(default_factory=lambda: LinPoly.constant(1.0))

    def evaluate(self, env: Mapping[str, float]) -> float:
        den = self.denominator.evaluate(env)
        if den == 0.0:
            raise AlmanacAnalysisError("poll interval evaluates to infinity "
                                       "(zero denominator)")
        return self.numerator.evaluate(env) / den

    def inverse_linear(self) -> LinPoly:
        """The inverse as a LinPoly; requires a constant numerator."""
        if not self.numerator.is_constant:
            raise AlmanacAnalysisError(
                f"1/ival is not linear: ival = ({self.numerator}) / "
                f"({self.denominator})")
        if self.numerator.const == 0.0:
            raise AlmanacAnalysisError("poll interval is identically zero")
        return self.denominator.scale(1.0 / self.numerator.const)

    def __repr__(self) -> str:
        return f"({self.numerator}) / ({self.denominator})"


class ConcaveUtility:
    """``offset + min(term_1, ..., term_k)`` of linear terms.

    A bare linear utility is the k=1 case.  ``max`` over utilities is
    handled at the piece level (it splits a seed into copies, SIII-B-b).
    """

    __slots__ = ("terms", "_vars")

    def __init__(self, terms: Iterable[LinPoly]) -> None:
        self.terms: Tuple[LinPoly, ...] = tuple(terms)
        if not self.terms:
            raise AlmanacAnalysisError("utility needs at least one term")
        self._vars: Optional[Tuple[str, ...]] = None  # lazy, see variables()

    @classmethod
    def linear(cls, poly: LinPoly) -> "ConcaveUtility":
        return cls((poly,))

    @classmethod
    def constant(cls, value: float) -> "ConcaveUtility":
        return cls((LinPoly.constant(value),))

    @property
    def is_constant(self) -> bool:
        return all(t.is_constant for t in self.terms)

    def evaluate(self, env: Mapping[str, float]) -> float:
        return min(t.evaluate(env) for t in self.terms)

    def variables(self) -> Tuple[str, ...]:
        if self._vars is None:
            self._vars = tuple(
                sorted({v for t in self.terms for v in t.variables()}))
        return self._vars

    def upper_bound(self, resource_caps: Mapping[str, float]) -> float:
        """Utility when every resource is at its cap (a valid upper bound
        because each term is monotone whenever its coefficients are >= 0;
        negative coefficients are evaluated at zero)."""
        best = []
        for term in self.terms:
            value = term.const
            for var, c in term.coeffs.items():
                cap = resource_caps.get(var, 0.0)
                value += c * cap if c > 0 else 0.0
            best.append(value)
        return min(best)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConcaveUtility) and self.terms == other.terms

    def __repr__(self) -> str:
        if len(self.terms) == 1:
            return f"ConcaveUtility({self.terms[0]!r})"
        return "ConcaveUtility(min(" + ", ".join(map(repr, self.terms)) + "))"


@dataclass(frozen=True)
class UtilityPiece:
    """One branch of a piecewise utility.

    ``constraints`` are LinPolys that must all be >= 0 for the piece to
    apply (the ``C^s_i`` of SIII-B-b); ``utility`` is its ``u^s_i``.
    """

    constraints: Tuple[LinPoly, ...]
    utility: ConcaveUtility

    def feasible(self, env: Mapping[str, float], tol: float = 1e-9) -> bool:
        return all(c.evaluate(env) >= -tol for c in self.constraints)

    def variables(self) -> Tuple[str, ...]:
        # Frozen dataclass: cache outside the field set so __eq__/__hash__
        # are unaffected.
        cached = getattr(self, "_vars_cache", None)
        if cached is None:
            seen = {v for c in self.constraints for v in c.variables()}
            seen.update(self.utility.variables())
            cached = tuple(sorted(seen))
            object.__setattr__(self, "_vars_cache", cached)
        return cached


class PiecewiseUtility:
    """The full analysis result for one state's ``util`` callback.

    Pieces are alternatives (``or`` conditions / several ``if``s); placement
    may activate at most one piece per seed — the optimizer "split[s] the
    seed into several copies, at most one is to be placed" (SIII-B-b).
    Resource vectors satisfying no piece mean the seed cannot run there.
    """

    def __init__(self, pieces: Iterable[UtilityPiece]) -> None:
        self.pieces: List[UtilityPiece] = list(pieces)
        if not self.pieces:
            raise AlmanacAnalysisError("utility must have at least one piece")
        self._min_utility: Optional[float] = None  # lazy, see min_utility()

    def evaluate(self, env: Mapping[str, float]) -> float:
        """Utility at a concrete allocation: first feasible piece wins
        (mirrors sequential ``if`` evaluation); 0 if none applies."""
        for piece in self.pieces:
            if piece.feasible(env):
                return piece.utility.evaluate(env)
        return 0.0

    def feasible(self, env: Mapping[str, float]) -> bool:
        return any(piece.feasible(env) for piece in self.pieces)

    def min_utility(self) -> float:
        """A quick lower bound: min over pieces of utility at the piece's
        cheapest feasible corner (resources at exactly the constraint
        boundary).  Used by the heuristic's task ordering (Alg. 1 step 1)
        on every solve, so it is computed once (pieces are fixed at
        construction)."""
        if self._min_utility is None:
            self._min_utility = min(
                piece.utility.evaluate(_minimal_env(piece))
                for piece in self.pieces)
        return self._min_utility

    def __len__(self) -> int:
        return len(self.pieces)

    def __iter__(self):
        return iter(self.pieces)


def _minimal_env(piece: UtilityPiece) -> Dict[str, float]:
    """The smallest per-variable values satisfying simple lower-bound
    constraints of the form ``r - k >= 0``; other variables get 0."""
    env: Dict[str, float] = {v: 0.0 for v in piece.variables()}
    for constraint in piece.constraints:
        if len(constraint.coeffs) == 1:
            (var, coeff), = constraint.coeffs.items()
            if coeff > 0:
                bound = -constraint.const / coeff
                env[var] = max(env.get(var, 0.0), bound)
    return env
