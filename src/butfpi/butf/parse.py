"""Concrete syntax for BUTF.

The grammar, lowest precedence first::

    expr     ::= '\\' ident '.' expr
               | 'if' expr 'then' expr 'else' expr
               | addsub
    addsub   ::= muldiv  (('+' | '-') muldiv)*          -- left associative
    muldiv   ::= app     (('*' | '/') app)*             -- left associative
    app      ::= postfix postfix*                       -- juxtaposition, left associative
    postfix  ::= atom ('[' expr ']')*                   -- indexing binds tighter than application
    atom     ::= num | '-' num | ident
               | 'map' | 'iota' | 'size'
               | '(' '+' ')' | '(' '-' ')' | '(' '*' ')' | '(' '/' ')'
               | '(' ')'                                -- empty tuple
               | '(' expr ')'                           -- grouping
               | '(' expr ',' ')'                       -- unary tuple
               | '(' expr (',' expr)+ ')'               -- tuple
               | '[' (expr (',' expr)*)? ']'            -- array

The lexical rules are those of ``butfpi.lexer``, shared with the process
syntax; ``if then else map iota size`` are reserved.
Infix arithmetic ``a + b`` is sugar for the uncurried builtin applied to a
pair, ``App(Builtin add, (a, b))``.  A ``-`` directly before a number in
operand position is a negative literal; after an operand it is subtraction.

Indexing is whitespace sensitive, as in FUTHARK: ``a[i]`` indexes, while
``f [1, 2]`` applies ``f`` to an array literal.
"""

from __future__ import annotations

from butfpi.butf.syntax import App, Array, Builtin, Expr, If, Index, Lam, Num, Tup, Var
from butfpi.lexer import OP_NAMES, ParseError, Parser, tokenize

KEYWORDS = {"if", "then", "else", "map", "iota", "size"}
_BUILTINS = ("map", "iota", "size")
_SYMBOLS = ("\\", ".", "(", ")", "[", "]", ",", "+", "-", "*", "/")


def _infix(name: str, left: Expr, right: Expr) -> Expr:
    return App(Builtin(name), Tup((left, right)))


class _Parser(Parser):
    def expr(self) -> Expr:
        if self.accept("\\"):
            tok = self.peek()
            if tok.kind != "ident":
                raise self.error("expected parameter name after '\\'")
            self.next()
            self.expect(".")
            return Lam(tok.text, self.expr())
        if self.accept("if"):
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            return If(cond, then, self.expr())
        return self.binary(self.app, _infix)

    def app(self) -> Expr:
        e = self.postfix()
        while self.peek().kind in ("num", "ident") or self.at(*_BUILTINS, "(", "["):
            e = App(e, self.postfix())
        return e

    def postfix(self) -> Expr:
        # `a[i]` (no space) is indexing; `f [1, 2]` (spaced) applies f to an
        # array literal, mirroring how FUTHARK separates the two
        e = self.atom()
        while self.at("[") and self.peek().glued:
            self.next()
            idx = self.expr()
            self.expect("]")
            e = Index(e, idx)
        return e

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Num(int(tok.text))
        if self.at("-") and self.peek(1).kind == "num":
            self.next()
            return Num(-int(self.next().text))
        if tok.kind == "ident":
            self.next()
            return Var(tok.text)
        if self.accept(*_BUILTINS):
            return Builtin(tok.text)
        if self.accept("["):
            return Array(tuple(self.listed("]", self.expr)))
        if self.accept("("):
            if self.accept(")"):
                return Tup(())
            # operator section: (+) (-) (*) (/)
            if self.at("+", "-", "*", "/") and self.peek(1).text == ")":
                op = self.next().text
                self.next()
                return Builtin(OP_NAMES[op])
            first = self.expr()
            if self.accept(")"):
                return first
            if self.accept(","):
                if self.accept(")"):
                    return Tup((first,))
                return Tup((first, *self.listed(")", self.expr)))
            raise self.error("expected ')' or ',' in parenthesized expression")
        raise self.expected("an expression")


def parse(text: str) -> Expr:
    """Parse a BUTF program.  Free variables are allowed."""
    parser = _Parser(tokenize(text, _SYMBOLS, KEYWORDS, ParseError))
    e = parser.expr()
    parser.end()
    return e
