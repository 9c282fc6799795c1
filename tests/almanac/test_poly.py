"""Tests for linear polynomials and piecewise utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.almanac.poly import (
    ConcaveUtility,
    LinPoly,
    PiecewiseUtility,
    RationalFunc,
    UtilityPiece,
)
from repro.errors import AlmanacAnalysisError

coeff = st.floats(min_value=-100, max_value=100, allow_nan=False)
env_values = st.floats(min_value=0, max_value=1000, allow_nan=False)


def poly_strategy():
    return st.builds(
        LinPoly,
        st.dictionaries(st.sampled_from(["vCPU", "RAM", "PCIe", "TCAM"]),
                        coeff, max_size=3),
        coeff)


def env_strategy():
    return st.fixed_dictionaries({
        "vCPU": env_values, "RAM": env_values,
        "PCIe": env_values, "TCAM": env_values})


class TestLinPoly:
    def test_construction_drops_zero_coeffs(self):
        poly = LinPoly({"x": 0.0, "y": 2.0}, 1.0)
        assert poly.variables() == ("y",)

    def test_evaluate(self):
        poly = LinPoly({"vCPU": 2.0}, -1.0)
        assert poly.evaluate({"vCPU": 3.0}) == pytest.approx(5.0)

    def test_evaluate_missing_var_raises(self):
        with pytest.raises(AlmanacAnalysisError):
            LinPoly({"x": 1.0}).evaluate({})

    def test_multiply_by_constant_only(self):
        a = LinPoly({"x": 1.0}, 2.0)
        assert a.multiply(LinPoly.constant(3.0)).coeffs == {"x": 3.0}
        with pytest.raises(AlmanacAnalysisError):
            a.multiply(a)

    def test_divide_by_constant_only(self):
        a = LinPoly({"x": 4.0})
        assert a.divide(LinPoly.constant(2.0)).coeffs == {"x": 2.0}
        with pytest.raises(AlmanacAnalysisError):
            a.divide(a)
        with pytest.raises(AlmanacAnalysisError):
            a.divide(LinPoly.constant(0.0))

    def test_equality_and_hash(self):
        a = LinPoly({"x": 1.0}, 2.0)
        b = LinPoly({"x": 1.0}, 2.0)
        assert a == b and hash(a) == hash(b)

    @given(poly_strategy(), poly_strategy(), env_strategy())
    def test_addition_homomorphism(self, a, b, env):
        assert (a + b).evaluate(env) == pytest.approx(
            a.evaluate(env) + b.evaluate(env), rel=1e-9, abs=1e-6)

    @given(poly_strategy(), coeff, env_strategy())
    def test_scaling_homomorphism(self, a, factor, env):
        assert a.scale(factor).evaluate(env) == pytest.approx(
            a.evaluate(env) * factor, rel=1e-9, abs=1e-6)

    @given(poly_strategy(), env_strategy())
    def test_negation(self, a, env):
        assert (-a).evaluate(env) == pytest.approx(-a.evaluate(env))


class TestRationalFunc:
    def test_evaluate(self):
        ratio = RationalFunc(LinPoly.constant(10.0),
                             LinPoly({"PCIe": 1.0}))
        assert ratio.evaluate({"PCIe": 1000.0}) == pytest.approx(0.01)

    def test_inverse_linear(self):
        ratio = RationalFunc(LinPoly.constant(10.0),
                             LinPoly({"PCIe": 1.0}))
        inverse = ratio.inverse_linear()
        assert inverse.coeffs == {"PCIe": 0.1}

    def test_inverse_linear_requires_constant_numerator(self):
        ratio = RationalFunc(LinPoly({"x": 1.0}), LinPoly.constant(1.0))
        with pytest.raises(AlmanacAnalysisError):
            ratio.inverse_linear()

    def test_zero_denominator_raises(self):
        ratio = RationalFunc(LinPoly.constant(1.0), LinPoly({"x": 1.0}))
        with pytest.raises(AlmanacAnalysisError):
            ratio.evaluate({"x": 0.0})


class TestConcaveUtility:
    def test_min_semantics(self):
        utility = ConcaveUtility((LinPoly({"vCPU": 1.0}),
                                  LinPoly({"PCIe": 1.0})))
        assert utility.evaluate({"vCPU": 2.0, "PCIe": 1.5}) == 1.5

    def test_constant(self):
        assert ConcaveUtility.constant(100.0).evaluate({}) == 100.0

    def test_empty_terms_rejected(self):
        with pytest.raises(AlmanacAnalysisError):
            ConcaveUtility(())

    def test_upper_bound_dominates_evaluations(self):
        utility = ConcaveUtility((LinPoly({"vCPU": 3.0}, 1.0),))
        caps = {"vCPU": 4.0}
        bound = utility.upper_bound(caps)
        assert bound >= utility.evaluate({"vCPU": 2.0})
        assert bound == pytest.approx(13.0)

    def test_upper_bound_ignores_negative_coeffs(self):
        utility = ConcaveUtility((LinPoly({"vCPU": -5.0}, 10.0),))
        assert utility.upper_bound({"vCPU": 100.0}) == pytest.approx(10.0)

    @given(st.lists(poly_strategy(), min_size=1, max_size=4), env_strategy())
    def test_evaluate_is_min_of_terms(self, terms, env):
        utility = ConcaveUtility(terms)
        assert utility.evaluate(env) == pytest.approx(
            min(t.evaluate(env) for t in terms))


class TestPiecewiseUtility:
    def _pw(self):
        feasible_piece = UtilityPiece(
            constraints=(LinPoly({"vCPU": 1.0}, -1.0),),
            utility=ConcaveUtility.constant(50.0))
        fallback = UtilityPiece(
            constraints=(),
            utility=ConcaveUtility.constant(5.0))
        return PiecewiseUtility([feasible_piece, fallback])

    def test_first_feasible_piece_wins(self):
        pw = self._pw()
        assert pw.evaluate({"vCPU": 2.0}) == 50.0
        assert pw.evaluate({"vCPU": 0.0}) == 5.0

    def test_infeasible_everywhere_is_zero(self):
        pw = PiecewiseUtility([UtilityPiece(
            constraints=(LinPoly({"vCPU": 1.0}, -10.0),),
            utility=ConcaveUtility.constant(1.0))])
        assert pw.evaluate({"vCPU": 0.0}) == 0.0
        assert not pw.feasible({"vCPU": 0.0})

    def test_min_utility_at_constraint_corner(self):
        pw = PiecewiseUtility([UtilityPiece(
            constraints=(LinPoly({"vCPU": 1.0}, -2.0),),
            utility=ConcaveUtility.linear(LinPoly({"vCPU": 10.0})))])
        # cheapest feasible corner: vCPU = 2 -> utility 20
        assert pw.min_utility() == pytest.approx(20.0)

    def test_empty_pieces_rejected(self):
        with pytest.raises(AlmanacAnalysisError):
            PiecewiseUtility([])


class TestVariableCaching:
    """The placement inner loop calls variables()/evaluate() O(seeds ×
    nodes × pieces) times; these guard the memoized representations."""

    def test_linpoly_variables_cached_and_sorted(self):
        p = LinPoly({"b": 1.0, "a": 2.0}, 3.0)
        first = p.variables()
        assert first == ("a", "b")
        assert p.variables() is first

    def test_linpoly_zero_coeffs_dropped_from_cache(self):
        p = LinPoly({"a": 0.0, "b": 1.0})
        assert p.variables() == ("b",)
        assert p.evaluate({"b": 2.0}) == 2.0  # "a" never looked up

    def test_arithmetic_results_have_fresh_caches(self):
        p = LinPoly({"a": 1.0})
        q = LinPoly({"b": 1.0})
        _ = p.variables(), q.variables()
        s = p + q
        assert s.variables() == ("a", "b")
        assert s.evaluate({"a": 1.0, "b": 2.0}) == 3.0

    def test_concave_utility_variables_cached(self):
        u = ConcaveUtility((LinPoly({"b": 1.0}), LinPoly({"a": 2.0}, 1.0)))
        first = u.variables()
        assert first == ("a", "b")
        assert u.variables() is first

    def test_utility_piece_cache_does_not_break_equality(self):
        mk = lambda: UtilityPiece(
            constraints=(LinPoly({"a": 1.0}, -1.0),),
            utility=ConcaveUtility((LinPoly({"a": 2.0}),)))
        x, y = mk(), mk()
        assert x.variables() == ("a",)  # populate cache on x only
        assert x == y  # ConcaveUtility is unhashable, so no hash check
        assert x.variables() is x.variables()
