"""Lexer and parser tests for Almanac."""

import pytest

from repro.almanac import astnodes as ast
from repro.almanac.lexer import tokenize
from repro.almanac.parser import parse
from repro.errors import AlmanacSyntaxError

def parse_machine(source):
    (machine,) = parse(source).machines
    return machine


MINIMAL = """
machine M {
  place all;
  state s { when (enter) do { } }
}
"""


class TestLexer:
    def test_keywords_vs_identifiers(self):
        tokens = tokenize("machine Foo when whenX")
        kinds = [(t.kind, t.text) for t in tokens[:-1]]
        assert kinds == [("KEYWORD", "machine"), ("IDENT", "Foo"),
                         ("KEYWORD", "when"), ("IDENT", "whenX")]

    def test_numbers(self):
        tokens = tokenize("42 3.14 1e3 2.5e-2")
        assert [t.kind for t in tokens[:-1]] == ["INT", "FLOAT", "FLOAT",
                                                 "FLOAT"]

    def test_strings_with_escapes(self):
        tokens = tokenize(r'"a\"b\n"')
        assert tokens[0].text == 'a"b\n'

    def test_line_and_block_comments(self):
        tokens = tokenize("a // comment\n/* block\n */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_string_reports_position(self):
        with pytest.raises(AlmanacSyntaxError) as exc:
            tokenize('x = "abc')
        assert exc.value.line == 1

    def test_unterminated_block_comment(self):
        with pytest.raises(AlmanacSyntaxError):
            tokenize("/* never ends")

    def test_two_char_operators(self):
        tokens = tokenize("<= >= <> == !=")
        assert [t.text for t in tokens[:-1]] == ["<=", ">=", "<>", "==", "!="]

    def test_any_token(self):
        assert tokenize("ANY")[0].kind == "ANY"

    def test_line_tracking(self):
        tokens = tokenize("a\nb\n  c")
        assert [(t.line, t.column) for t in tokens[:-1]] == [(1, 1), (2, 1),
                                                             (3, 3)]

    def test_unexpected_character(self):
        with pytest.raises(AlmanacSyntaxError):
            tokenize("a $ b")


class TestParserStructure:
    def test_minimal_machine(self):
        machine = parse_machine(MINIMAL)
        assert machine.name == "M"
        assert [s.name for s in machine.states] == ["s"]

    def test_extends(self):
        program = parse(MINIMAL + "machine N extends M { state t { } }")
        assert program.machine("N").extends == "M"

    def test_function_declaration(self):
        program = parse("""
function list helper(list xs, long n) { return xs; }
""" + MINIMAL)
        (function,) = program.functions
        assert function.return_type == "list"
        assert function.params == [("list", "xs"), ("long", "n")]

    def test_struct_declaration(self):
        program = parse("struct Pair { int a; int b; }" + MINIMAL)
        assert program.structs[0].fields == [("int", "a"), ("int", "b")]

    def test_junk_at_top_level(self):
        with pytest.raises(AlmanacSyntaxError):
            parse("int x;")


class TestDeclarations:
    def test_external_variable(self):
        machine = parse_machine("""
machine M {
  place all;
  external long threshold;
  state s { }
}""")
        decl = machine.var_decls[0]
        assert decl.external and decl.typ == "long"

    def test_trigger_variable_poll(self):
        machine = parse_machine("""
machine M {
  place all;
  poll p = Poll { .ival = 0.01, .what = port ANY };
  state s { }
}""")
        decl = machine.var_decls[0]
        assert decl.is_trigger and decl.typ == "poll"
        assert isinstance(decl.init, ast.StructLit)
        assert [f[0] for f in decl.init.fields] == ["ival", "what"]

    def test_external_trigger_rejected(self):
        with pytest.raises(AlmanacSyntaxError):
            parse_machine("""
machine M { place all; external poll p; state s { } }""")

    def test_state_local_variables(self):
        machine = parse_machine("""
machine M {
  place all;
  state s {
    int counter = 0;
    list seen;
    when (enter) do { }
  }
}""")
        state = machine.states[0]
        assert [d.name for d in state.var_decls] == ["counter", "seen"]


class TestPlacements:
    def test_place_all_bare(self):
        machine = parse_machine(MINIMAL)
        placement = machine.placements[0]
        assert placement.quantifier == ast.Q_ALL
        assert not placement.switch_exprs
        assert placement.range_spec is None

    def test_place_with_switch_ids(self):
        machine = parse_machine("""
machine M { place any 3, 5 7; state s { } }""")
        placement = machine.placements[0]
        assert placement.quantifier == ast.Q_ANY
        assert [e.value for e in placement.switch_exprs] == [3, 5, 7]

    def test_place_range_full(self):
        machine = parse_machine("""
machine M {
  place any receiver (srcIP "10.1.1.4" and dstIP "10.0.1.0/24") range == 1;
  state s { }
}""")
        spec = machine.placements[0].range_spec
        assert spec.anchor == ast.ANCHOR_RECEIVER
        assert spec.op == "=="
        assert spec.path_filter is not None

    def test_place_range_without_filter(self):
        machine = parse_machine("""
machine M { place all midpoint range <= 0; state s { } }""")
        spec = machine.placements[0].range_spec
        assert spec.anchor == ast.ANCHOR_MIDPOINT
        assert spec.path_filter is None
        assert spec.op == "<="

    def test_place_requires_quantifier(self):
        with pytest.raises(AlmanacSyntaxError):
            parse_machine("machine M { place 3; state s { } }")


class TestEventsAndActions:
    def test_trigger_kinds(self):
        machine = parse_machine("""
machine M {
  place all;
  poll p = Poll { .ival = 1, .what = port ANY };
  state s {
    when (enter) do { }
    when (exit) do { }
    when (realloc) do { }
    when (p as data) do { }
    when (recv long x from harvester) do { }
    when (recv int y from Other @ 3) do { }
  }
}""")
        triggers = [e.trigger for e in machine.states[0].events]
        assert isinstance(triggers[0], ast.EnterTrigger)
        assert isinstance(triggers[1], ast.ExitTrigger)
        assert isinstance(triggers[2], ast.ReallocTrigger)
        assert isinstance(triggers[3], ast.VarTrigger)
        assert triggers[3].bind == "data"
        assert isinstance(triggers[4], ast.RecvTrigger)
        assert triggers[4].source == ""
        assert triggers[5].source == "Other"
        assert triggers[5].source_host.value == 3

    def test_send_variants(self):
        machine = parse_machine("""
machine M {
  place all;
  state s {
    when (enter) do {
      send 1 to harvester;
      send 2 to Other;
      send 3 to Other @ 5;
    }
  }
}""")
        sends = machine.states[0].events[0].actions
        assert sends[0].dest_machine == ""
        assert sends[1].dest_machine == "Other" and sends[1].dest_host is None
        assert sends[2].dest_host.value == 5

    def test_control_flow_statements(self):
        machine = parse_machine("""
machine M {
  place all;
  state s {
    when (enter) do {
      int x = 0;
      while (x < 10) { x = x + 1; }
      if (x == 10) then { transit t; } else { x = 0; }
    }
  }
  state t { }
}""")
        actions = machine.states[0].events[0].actions
        assert isinstance(actions[0], ast.VarDecl)
        assert isinstance(actions[1], ast.While)
        assert isinstance(actions[2], ast.If)
        assert isinstance(actions[2].then_body[0], ast.Transit)

    def test_else_if_chain(self):
        machine = parse_machine("""
machine M {
  place all;
  state s {
    when (enter) do {
      if (1 == 1) then { } else if (2 == 2) then { } else { transit s; }
    }
  }
}""")
        outer = machine.states[0].events[0].actions[0]
        assert isinstance(outer.else_body[0], ast.If)
        assert isinstance(outer.else_body[0].else_body[0], ast.Transit)

    def test_field_assignment(self):
        machine = parse_machine("""
machine M {
  place all;
  poll p = Poll { .ival = 1, .what = port ANY };
  state s { when (enter) do { p.ival = 5; } }
}""")
        action = machine.states[0].events[0].actions[0]
        assert action.target == "p" and action.fieldname == "ival"

    def test_util_block(self):
        machine = parse_machine("""
machine M {
  place all;
  state s {
    util (res) {
      if (res.vCPU >= 1) then { return min(res.vCPU, res.PCIe); }
    }
  }
}""")
        util = machine.states[0].util
        assert util.param == "res"
        assert len(util.body) == 1

    def test_duplicate_util_rejected(self):
        with pytest.raises(AlmanacSyntaxError):
            parse_machine("""
machine M {
  place all;
  state s {
    util (res) { return 1; }
    util (res) { return 2; }
  }
}""")


class TestExpressions:
    def _expr(self, text):
        machine = parse_machine(f"""
machine M {{
  place all;
  state s {{ when (enter) do {{ x = {text}; }} }}
}}""")
        return machine.states[0].events[0].actions[0].value

    def test_precedence_mul_over_add(self):
        expr = self._expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_and_over_or(self):
        expr = self._expr("a or b and c")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_comparison_binds_tighter_than_and(self):
        expr = self._expr("a >= 1 and b <= 2")
        assert expr.op == "and"
        assert expr.left.op == ">="

    def test_filter_atom_unary(self):
        expr = self._expr('srcIP "10.0.0.0/8" and dstPort 80')
        assert expr.op == "and"
        assert isinstance(expr.left, ast.FilterAtom)
        assert expr.left.kind == "srcIP"
        assert expr.right.kind == "dstPort"

    def test_field_access_chain(self):
        expr = self._expr("res().PCIe")
        assert isinstance(expr, ast.FieldAccess)
        assert isinstance(expr.obj, ast.Call)

    def test_keyword_field_names_allowed(self):
        expr = self._expr("stats.port")
        assert expr.fieldname == "port"

    def test_list_literal(self):
        expr = self._expr("[1, 2, 3]")
        assert isinstance(expr, ast.ListLit)
        assert len(expr.items) == 3

    def test_unary_minus_and_not(self):
        assert self._expr("-x").op == "-"
        assert self._expr("not x").op == "not"

    def test_parenthesized(self):
        expr = self._expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_ne_spellings_normalized(self):
        assert self._expr("a != b").op == "<>"
        assert self._expr("a <> b").op == "<>"
