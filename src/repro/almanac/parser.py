"""Recursive-descent parser for Almanac (grammar of Fig. 3).

Operator precedence (loosest to tightest):
``or`` < ``and`` < comparison (``== <> != < > <= >=``) < additive (``+ -``)
< multiplicative (``* /``) < unary (``not``, ``-``, filter atoms) <
postfix (call, field access) < primary.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.almanac import astnodes as ast
from repro.almanac.lexer import Token, tokenize
from repro.errors import AlmanacSyntaxError

_FILTER_KINDS = ("srcIP", "dstIP", "port", "srcPort", "dstPort", "proto",
                 "tcpFlags")
_COMPARISONS = ("==", "<>", "!=", "<=", ">=", "<", ">")


class Parser:
    """One-token-lookahead parser over the token list."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._cur
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._cur
        return token.kind == kind and (text is None or token.text == text)

    def _check_kw(self, *words: str) -> bool:
        return self._cur.kind == "KEYWORD" and self._cur.text in words

    def _check_sym(self, *symbols: str) -> bool:
        return self._cur.kind == "SYMBOL" and self._cur.text in symbols

    def _accept_kw(self, word: str) -> bool:
        if self._check_kw(word):
            self._advance()
            return True
        return False

    def _accept_sym(self, symbol: str) -> bool:
        if self._check_sym(symbol):
            self._advance()
            return True
        return False

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self._check(kind, text):
            want = text or kind
            raise AlmanacSyntaxError(
                f"expected {want!r}, found {self._cur.text!r}",
                self._cur.line, self._cur.column)
        return self._advance()

    def _expect_kw(self, word: str) -> Token:
        return self._expect("KEYWORD", word)

    def _expect_sym(self, symbol: str) -> Token:
        return self._expect("SYMBOL", symbol)

    def _expect_ident(self) -> Token:
        if self._cur.kind != "IDENT":
            raise AlmanacSyntaxError(
                f"expected identifier, found {self._cur.text!r}",
                self._cur.line, self._cur.column)
        return self._advance()

    def _expect_fieldname(self) -> Token:
        # Field names may coincide with keywords (e.g. ``stats.port``).
        if self._cur.kind not in ("IDENT", "KEYWORD"):
            raise AlmanacSyntaxError(
                f"expected field name, found {self._cur.text!r}",
                self._cur.line, self._cur.column)
        return self._advance()

    def _is_type(self) -> bool:
        return (self._cur.kind == "KEYWORD"
                and self._cur.text in ast.VALUE_TYPES)

    def _is_trigger_type(self) -> bool:
        return (self._cur.kind == "KEYWORD"
                and self._cur.text in ast.TRIGGER_TYPES)

    # ------------------------------------------------------------------
    # Program structure
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self._check("EOF"):
            if self._check_kw("struct"):
                program.structs.append(self._parse_struct())
            elif self._check_kw("function"):
                program.functions.append(self._parse_function())
            elif self._check_kw("machine"):
                program.machines.append(self._parse_machine())
            else:
                raise AlmanacSyntaxError(
                    f"expected 'machine', 'function' or 'struct', found "
                    f"{self._cur.text!r}", self._cur.line, self._cur.column)
        return program

    def _parse_struct(self) -> ast.StructDecl:
        start = self._expect_kw("struct")
        name = self._expect_ident().text
        self._expect_sym("{")
        fields: List[Tuple[str, str]] = []
        while not self._accept_sym("}"):
            typ = self._parse_type_name()
            fieldname = self._expect_ident().text
            self._expect_sym(";")
            fields.append((typ, fieldname))
        return ast.StructDecl(name=name, fields=fields, line=start.line)

    def _parse_function(self) -> ast.FunctionDecl:
        start = self._expect_kw("function")
        return_type = self._parse_type_name()
        name = self._expect_ident().text
        self._expect_sym("(")
        params: List[Tuple[str, str]] = []
        if not self._check_sym(")"):
            while True:
                typ = self._parse_type_name()
                pname = self._expect_ident().text
                params.append((typ, pname))
                if not self._accept_sym(","):
                    break
        self._expect_sym(")")
        body = self._parse_block()
        return ast.FunctionDecl(return_type=return_type, name=name,
                                params=params, body=body, line=start.line)

    def _parse_type_name(self) -> str:
        if not self._is_type():
            raise AlmanacSyntaxError(
                f"expected a type, found {self._cur.text!r}",
                self._cur.line, self._cur.column)
        return self._advance().text

    # ------------------------------------------------------------------
    # Machines
    # ------------------------------------------------------------------
    def _parse_machine(self) -> ast.MachineDecl:
        start = self._expect_kw("machine")
        name = self._expect_ident().text
        extends = None
        if self._accept_kw("extends"):
            extends = self._expect_ident().text
        machine = ast.MachineDecl(name=name, extends=extends, line=start.line)
        self._expect_sym("{")
        while not self._accept_sym("}"):
            if self._check_kw("place"):
                machine.placements.append(self._parse_placement())
            elif self._check_kw("state"):
                machine.states.append(self._parse_state())
            elif self._check_kw("when"):
                machine.events.append(self._parse_event())
            elif (self._check_kw("external") or self._is_type()
                  or self._is_trigger_type()):
                machine.var_decls.append(self._parse_var_decl())
            else:
                raise AlmanacSyntaxError(
                    f"unexpected token {self._cur.text!r} in machine body",
                    self._cur.line, self._cur.column)
        return machine

    def _parse_var_decl(self) -> ast.VarDecl:
        external = self._accept_kw("external")
        token = self._cur
        if self._is_trigger_type():
            if external:
                raise AlmanacSyntaxError(
                    "trigger variables cannot be external",
                    token.line, token.column)
            typ = self._advance().text
            name = self._expect_ident().text
            init = None
            if self._accept_sym("="):
                init = self.parse_expression()
            self._expect_sym(";")
            return ast.VarDecl(typ=typ, name=name, init=init,
                               is_trigger=True, line=token.line)
        typ = self._parse_type_name()
        name = self._expect_ident().text
        init = None
        if self._accept_sym("="):
            init = self.parse_expression()
        self._expect_sym(";")
        return ast.VarDecl(typ=typ, name=name, init=init, external=external,
                           line=token.line)

    def _parse_placement(self) -> ast.Placement:
        start = self._expect_kw("place")
        if self._accept_kw("all"):
            quantifier = ast.Q_ALL
        elif self._accept_kw("any"):
            quantifier = ast.Q_ANY
        else:
            raise AlmanacSyntaxError(
                f"expected 'all' or 'any' after 'place', found "
                f"{self._cur.text!r}", self._cur.line, self._cur.column)
        placement = ast.Placement(quantifier=quantifier, line=start.line)
        if self._accept_sym(";"):
            return placement
        if self._check_kw("sender", "receiver", "midpoint", "range"):
            placement.range_spec = self._parse_range_spec()
            self._expect_sym(";")
            return placement
        # A list of switch-id expressions (comma- or space-separated).
        while not self._check_sym(";"):
            placement.switch_exprs.append(self._parse_primary_postfix())
            self._accept_sym(",")
        self._expect_sym(";")
        return placement

    def _parse_range_spec(self) -> ast.RangeSpec:
        spec = ast.RangeSpec(line=self._cur.line)
        if self._accept_kw("sender"):
            spec.anchor = ast.ANCHOR_SENDER
        elif self._accept_kw("receiver"):
            spec.anchor = ast.ANCHOR_RECEIVER
        elif self._accept_kw("midpoint"):
            spec.anchor = ast.ANCHOR_MIDPOINT
        if not self._check_kw("range"):
            spec.path_filter = self.parse_expression()
        self._expect_kw("range")
        if not self._check_sym(*_COMPARISONS):
            raise AlmanacSyntaxError(
                f"expected comparison operator after 'range', found "
                f"{self._cur.text!r}", self._cur.line, self._cur.column)
        spec.op = self._advance().text
        spec.distance = self.parse_expression()
        return spec

    def _parse_state(self) -> ast.StateDecl:
        start = self._expect_kw("state")
        name = self._expect_ident().text
        state = ast.StateDecl(name=name, line=start.line)
        self._expect_sym("{")
        while not self._accept_sym("}"):
            if self._check_kw("util"):
                if state.util is not None:
                    raise AlmanacSyntaxError(
                        f"state {name!r} has two util blocks",
                        self._cur.line, self._cur.column)
                state.util = self._parse_util()
            elif self._check_kw("when"):
                state.events.append(self._parse_event())
            elif self._is_type() or self._is_trigger_type():
                decl = self._parse_var_decl()
                if decl.external:
                    raise AlmanacSyntaxError(
                        "state-local variables cannot be external", decl.line)
                state.var_decls.append(decl)
            else:
                raise AlmanacSyntaxError(
                    f"unexpected token {self._cur.text!r} in state body",
                    self._cur.line, self._cur.column)
        return state

    def _parse_util(self) -> ast.UtilDecl:
        start = self._expect_kw("util")
        self._expect_sym("(")
        param = self._expect_ident().text
        self._expect_sym(")")
        body = self._parse_block()
        return ast.UtilDecl(param=param, body=body, line=start.line)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _parse_event(self) -> ast.Event:
        start = self._expect_kw("when")
        self._expect_sym("(")
        trigger = self._parse_trigger()
        self._expect_sym(")")
        self._expect_kw("do")
        actions = self._parse_block()
        return ast.Event(trigger=trigger, actions=actions, line=start.line)

    def _parse_trigger(self) -> ast.Trigger:
        token = self._cur
        if self._accept_kw("enter"):
            return ast.EnterTrigger(line=token.line)
        if self._accept_kw("exit"):
            return ast.ExitTrigger(line=token.line)
        if self._accept_kw("realloc"):
            return ast.ReallocTrigger(line=token.line)
        if self._accept_kw("recv"):
            pat_type = self._parse_type_name()
            pat_name = self._expect_ident().text
            self._expect_kw("from")
            if self._accept_kw("harvester"):
                return ast.RecvTrigger(pat_type=pat_type, pat_name=pat_name,
                                       source="", line=token.line)
            source = self._expect_ident().text
            source_host = None
            if self._accept_sym("@"):
                source_host = self.parse_expression()
            return ast.RecvTrigger(pat_type=pat_type, pat_name=pat_name,
                                   source=source, source_host=source_host,
                                   line=token.line)
        var = self._expect_ident().text
        bind = None
        if self._accept_kw("as"):
            bind = self._expect_ident().text
        return ast.VarTrigger(var=var, bind=bind, line=token.line)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_block(self) -> List[ast.Stmt]:
        self._expect_sym("{")
        statements: List[ast.Stmt] = []
        while not self._accept_sym("}"):
            statements.append(self._parse_statement())
        return statements

    def _parse_statement(self) -> ast.Stmt:
        token = self._cur
        if self._check_kw("if"):
            return self._parse_if()
        if self._check_kw("while"):
            return self._parse_while()
        if self._accept_kw("return"):
            value = None
            if not self._check_sym(";"):
                value = self.parse_expression()
            self._expect_sym(";")
            return ast.Return(value=value, line=token.line)
        if self._accept_kw("transit"):
            state = self._expect_ident().text
            self._expect_sym(";")
            return ast.Transit(state=state, line=token.line)
        if self._check_kw("send"):
            return self._parse_send()
        if self._is_type() or self._is_trigger_type():
            return self._parse_var_decl()
        # assignment / field assignment / call statement
        if self._check("IDENT"):
            if self._peek().kind == "SYMBOL" and self._peek().text == "=":
                name = self._advance().text
                self._advance()  # '='
                value = self.parse_expression()
                self._expect_sym(";")
                return ast.Assign(target=name, value=value, line=token.line)
            if (self._peek().kind == "SYMBOL" and self._peek().text == "."
                    and self._peek(2).kind == "IDENT"
                    and self._peek(3).kind == "SYMBOL"
                    and self._peek(3).text == "="):
                name = self._advance().text
                self._advance()  # '.'
                fieldname = self._advance().text
                self._advance()  # '='
                value = self.parse_expression()
                self._expect_sym(";")
                return ast.Assign(target=name, value=value,
                                  fieldname=fieldname, line=token.line)
        expr = self.parse_expression()
        self._expect_sym(";")
        return ast.ExprStmt(expr=expr, line=token.line)

    def _parse_if(self) -> ast.If:
        start = self._expect_kw("if")
        self._expect_sym("(")
        cond = self.parse_expression()
        self._expect_sym(")")
        self._expect_kw("then")
        then_body = self._parse_block()
        else_body: List[ast.Stmt] = []
        if self._accept_kw("else"):
            if self._check_kw("if"):
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_block()
        return ast.If(cond=cond, then_body=then_body, else_body=else_body,
                      line=start.line)

    def _parse_while(self) -> ast.While:
        start = self._expect_kw("while")
        self._expect_sym("(")
        cond = self.parse_expression()
        self._expect_sym(")")
        body = self._parse_block()
        return ast.While(cond=cond, body=body, line=start.line)

    def _parse_send(self) -> ast.Send:
        start = self._expect_kw("send")
        value = self.parse_expression()
        self._expect_kw("to")
        if self._accept_kw("harvester"):
            self._expect_sym(";")
            return ast.Send(value=value, dest_machine="", line=start.line)
        dest = self._expect_ident().text
        dest_host = None
        if self._accept_sym("@"):
            dest_host = self.parse_expression()
        self._expect_sym(";")
        return ast.Send(value=value, dest_machine=dest, dest_host=dest_host,
                        line=start.line)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._check_kw("or"):
            line = self._advance().line
            right = self._parse_and()
            left = ast.BinOp(op="or", left=left, right=right, line=line)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_comparison()
        while self._check_kw("and"):
            line = self._advance().line
            right = self._parse_comparison()
            left = ast.BinOp(op="and", left=left, right=right, line=line)
        return left

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        while self._check_sym(*_COMPARISONS):
            token = self._advance()
            op = "<>" if token.text == "!=" else token.text
            right = self._parse_additive()
            left = ast.BinOp(op=op, left=left, right=right, line=token.line)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._check_sym("+", "-"):
            token = self._advance()
            right = self._parse_multiplicative()
            left = ast.BinOp(op=token.text, left=left, right=right,
                             line=token.line)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._check_sym("*", "/"):
            token = self._advance()
            right = self._parse_unary()
            left = ast.BinOp(op=token.text, left=left, right=right,
                             line=token.line)
        return left

    def _parse_unary(self) -> ast.Expr:
        token = self._cur
        if self._accept_kw("not"):
            operand = self._parse_unary()
            return ast.UnaryOp(op="not", operand=operand, line=token.line)
        if self._check_sym("-"):
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(op="-", operand=operand, line=token.line)
        if self._cur.kind == "KEYWORD" and self._cur.text in _FILTER_KINDS:
            kind = self._advance().text
            arg = self._parse_unary()
            return ast.FilterAtom(kind=kind, arg=arg, line=token.line)
        return self._parse_primary_postfix()

    def _parse_primary_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._check_sym("."):
                line = self._advance().line
                fieldname = self._expect_fieldname().text
                expr = ast.FieldAccess(obj=expr, fieldname=fieldname,
                                       line=line)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._cur
        if token.kind == "INT":
            self._advance()
            return ast.Lit(value=int(token.text), line=token.line)
        if token.kind == "FLOAT":
            self._advance()
            return ast.Lit(value=float(token.text), line=token.line)
        if token.kind == "STRING":
            self._advance()
            return ast.Lit(value=token.text, line=token.line)
        if token.kind == "ANY":
            self._advance()
            return ast.AnyLit(line=token.line)
        if self._accept_kw("true"):
            return ast.Lit(value=True, line=token.line)
        if self._accept_kw("false"):
            return ast.Lit(value=False, line=token.line)
        if self._accept_sym("("):
            expr = self.parse_expression()
            self._expect_sym(")")
            return expr
        if self._accept_sym("["):
            items: List[ast.Expr] = []
            if not self._check_sym("]"):
                while True:
                    items.append(self.parse_expression())
                    if not self._accept_sym(","):
                        break
            self._expect_sym("]")
            return ast.ListLit(items=items, line=token.line)
        if token.kind == "IDENT":
            name = self._advance().text
            if self._check_sym("("):
                self._advance()
                args: List[ast.Expr] = []
                if not self._check_sym(")"):
                    while True:
                        args.append(self.parse_expression())
                        if not self._accept_sym(","):
                            break
                self._expect_sym(")")
                return ast.Call(func=name, args=args, line=token.line)
            if self._check_sym("{"):
                return self._parse_struct_lit(name, token.line)
            return ast.Var(name=name, line=token.line)
        raise AlmanacSyntaxError(
            f"unexpected token {token.text!r} in expression",
            token.line, token.column)

    def _parse_struct_lit(self, struct: str, line: int) -> ast.StructLit:
        self._expect_sym("{")
        fields: List[Tuple[str, ast.Expr]] = []
        while not self._check_sym("}"):
            self._expect_sym(".")
            fieldname = self._expect_fieldname().text
            self._expect_sym("=")
            value = self.parse_expression()
            fields.append((fieldname, value))
            if not self._accept_sym(","):
                break
        self._expect_sym("}")
        return ast.StructLit(struct=struct, fields=fields, line=line)


def parse(source: str) -> ast.Program:
    """Parse Almanac source into a :class:`~repro.almanac.astnodes.Program`."""
    return Parser(tokenize(source)).parse_program()
