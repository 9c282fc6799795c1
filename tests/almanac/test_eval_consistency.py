"""Property: const_eval and the interpreter agree on constant expressions.

The seeder's deployment-time evaluator (``phi^s`` closing, SIII-B) and
the seed runtime must assign the same meaning to any expression both can
evaluate — otherwise placement analysis would reason about a different
program than the one that runs.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.almanac.analysis import ConstEnv, const_eval
from repro.almanac import MachineInstance, flatten_machine
from repro.almanac.lexer import tokenize
from repro.almanac.parser import Parser, parse
from repro.errors import AlmanacError


def parse_expr(text):
    return Parser(tokenize(text)).parse_expression()


def interpret_expr(text, bindings):
    decls = "".join(f"long {name} = {value};"
                    for name, value in bindings.items())
    source = f"""
machine E {{
  place all;
  {decls}
  state s {{
    when (enter) do {{ send {text} to harvester; }}
  }}
}}"""
    results = []

    class Host:
        def now(self):
            return 0.0

        def resources(self):
            return {}

        def send_to_harvester(self, value):
            results.append(value)

        def transit_hook(self, old, new):
            pass

        def log(self, message):
            pass

        def __getattr__(self, name):
            raise AssertionError(f"unexpected host call {name}")

    compiled = flatten_machine(parse(source), "E")
    MachineInstance(compiled, Host()).start()
    return results[0]


# Expression generator: integer arithmetic + comparisons + boolean ops
# over literals and the variables a, b (avoiding division so no runtime
# zero-division asymmetry).

@st.composite
def const_expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return str(draw(st.integers(-50, 50)))
        if choice == 1:
            return draw(st.sampled_from(["a", "b"]))
        return draw(st.sampled_from(["true", "false"]))
    op = draw(st.sampled_from(["+", "-", "*", "==", "<>", "<=", ">=",
                               "and", "or"]))
    left = draw(const_expr(depth=depth + 1))
    right = draw(const_expr(depth=depth + 1))
    return f"({left} {op} {right})"


class TestConsistency:
    @given(const_expr(), st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=100, deadline=None)
    def test_const_eval_matches_interpreter(self, text, a, b):
        env = ConstEnv({"a": a, "b": b})
        try:
            static_value = const_eval(parse_expr(text), env)
        except AlmanacError:
            return  # mixed-type operations both sides may reject; skip
        runtime_value = interpret_expr(text, {"a": a, "b": b})
        if isinstance(static_value, bool) \
                or isinstance(runtime_value, bool):
            assert bool(static_value) == bool(runtime_value), text
        else:
            assert static_value == pytest.approx(runtime_value), text

    @pytest.mark.parametrize("text,expected", [
        ("2 + 3 * 4", 14),
        ("(2 + 3) * 4", 20),
        ("10 - 2 - 3", 5),
        ("7 <= 7 and 2 <> 3", True),
        ("1 >= 2 or 5 == 5", True),
        ("not (1 == 1)", False),
    ])
    def test_known_values_both_ways(self, text, expected):
        static_value = const_eval(parse_expr(text), ConstEnv())
        runtime_value = interpret_expr(text, {})
        assert static_value == expected
        assert runtime_value == expected
