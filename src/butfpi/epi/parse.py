"""Concrete syntax for pi-calculus processes.

Grammar::

    process ::= seq ('|' seq)*                      -- parallel, right associative
    seq     ::= 'new' ident (',' ident)* '.' seq    -- restriction (scopes over one seq)
              | '!' seq                             -- replication
              | '*' seq                             -- bullet (importance marker)
              | '[' term cmp term ']' seq (',' seq)?
              | '0'
              | '(' process ')'
              | action ('.' seq)?
    action  ::= chan '(' patterns? ')'              -- receive
              | chan ':' '<' terms? '>'             -- broadcast
              | chan '<' terms? '>'                 -- send
    chan    ::= (ident | num | '-' num) ('.' suffix)?
    suffix  ::= num | '-' num | 'all' | 'tup' | 'len' | ident
    pattern ::= ident | '_'
    term    ::= factor (('+' | '-') factor)*
    factor  ::= termatom (('*' | '/') termatom)*
    termatom::= num | '-' num | ident | '(' term ')'
    cmp     ::= '<' | '>' | '<=' | '>=' | '=' | '==' | '!='

The lexical rules are those of ``butfpi.lexer``, shared with the source
syntax; no word is reserved.  Identifier occurrences are resolved
lexically: bound by an enclosing ``new`` they are names, bound by a receive
pattern they are variables, and free identifiers are names.  A restriction
extends over the following sequential process only; parenthesize for wider
scope, e.g. ``new a.( P | Q )``.  A channel's base is a numeral where a
step has substituted a number for a channel variable (``a<5> | a(x).
x<7>`` steps to ``5<7>``); a numeral starts a channel only when ``<``,
``:``, ``(`` or ``.`` follows it, so a lone ``0`` is the inert process.
"""

from __future__ import annotations

from butfpi.epi.syntax import (
    Act,
    Bcast,
    Bullet,
    Chan,
    COMPARATORS,
    LABELS,
    Match,
    NameT,
    New,
    Nil,
    NumT,
    OpT,
    Par,
    Process,
    Recv,
    Repl,
    Send,
    Term,
    VarT,
)
from butfpi.lexer import ParseError, Parser, tokenize

_SYMBOLS = ("<=", ">=", "!=", "==", *"|!*.,()<>[]=:+-/")


class ProcessParseError(ParseError):
    """A syntax error in process text."""


class _Parser(Parser):
    error_class = ProcessParseError

    def ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.expected(what)
        self.next()
        return tok.text

    # identifiers resolve against the lexical scope: receive patterns bind
    # variables, restrictions bind names, free identifiers are names
    def resolve(self, name: str, env: dict[str, str]) -> Term:
        return VarT(name) if env.get(name) == "var" else NameT(name)

    # -- processes --

    def process(self, env: dict[str, str]) -> Process:
        first = self.seq(env)
        if self.accept("|"):
            return Par(first, self.process(env))
        return first

    def seq(self, env: dict[str, str]) -> Process:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "new":
            self.next()
            names = [self.ident("a name after 'new'")]
            while self.accept(","):
                names.append(self.ident("a name"))
            self.expect(".")
            inner = dict(env)
            for name in names:
                inner[name] = "name"
            body = self.seq(inner)
            for name in reversed(names):
                body = New(name, body)
            return body
        if self.accept("!"):
            return Repl(self.seq(env))
        if self.accept("*"):
            return Bullet(self.seq(env))
        if self.accept("["):
            left = self.term(env)
            cmp_tok = self.peek()
            if not self.accept(*COMPARATORS, "=="):
                raise self.error("expected a comparator in match")
            op = "=" if cmp_tok.text == "==" else cmp_tok.text
            right = self.term(env)
            self.expect("]")
            then = self.seq(env)
            orelse: Process = Nil()
            if self.accept(","):
                orelse = self.seq(env)
            return Match(left, op, right, then, orelse)
        if self.number_chan():
            return self.action_seq(env)
        if tok.kind == "num" and tok.text == "0":
            self.next()
            return Nil()
        if self.accept("("):
            inner = self.process(env)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            return self.action_seq(env)
        raise self.expected("a process")

    def action_seq(self, env: dict[str, str]) -> Process:
        chan = self.chan(env)
        if self.accept("("):
            params: list[str | None] = self.listed(")", self.pattern)
            inner = dict(env)
            for x in params:
                if x is not None:
                    inner[x] = "var"
            cont = self.continuation(inner)
            return Act(Recv(chan, tuple(params)), cont)
        broadcast = self.accept(":")
        if not self.accept("<"):
            raise self.error("expected '<', '(' or ':<' after channel")
        args: list[Term] = self.listed(">", self.term, env)
        action = (Bcast if broadcast else Send)(chan, tuple(args))
        return Act(action, self.continuation(env))

    def continuation(self, env: dict[str, str]) -> Process:
        if self.accept("."):
            return self.seq(env)
        return Nil()

    def pattern(self) -> str | None:
        name = self.ident("a pattern variable")
        return None if name == "_" else name

    def number_chan(self) -> bool:
        """Whether a channel whose base is a numeral, optionally negative,
        starts here."""
        ahead = 1 if self.at("-") else 0
        after = self.peek(ahead + 1)
        return (self.peek(ahead).kind == "num" and after.kind == "sym"
                and after.text in ("<", ":", "(", "."))

    def chan(self, env: dict[str, str]) -> Chan:
        if self.peek().kind == "ident":
            base = self.resolve(self.ident("a channel"), env)
        else:
            base = self.termatom(env)  # a numeral, as ``number_chan`` found
        if not self.accept("."):
            return Chan(base)
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Chan(base, int(tok.text))
        if self.at("-") and self.peek(1).kind == "num":
            self.next()
            return Chan(base, -int(self.next().text))
        if tok.kind == "ident":
            self.next()
            if tok.text in LABELS:
                return Chan(base, tok.text)
            resolved = self.resolve(tok.text, env)
            return Chan(base, resolved if isinstance(resolved, (VarT, NameT)) else None)
        raise self.error("expected a channel suffix")

    # -- terms --

    def term(self, env: dict[str, str]) -> Term:
        return self.binary(self.termatom, OpT, env)

    def termatom(self, env: dict[str, str]) -> Term:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return NumT(int(tok.text))
        if self.at("-") and self.peek(1).kind == "num":
            self.next()
            return NumT(-int(self.next().text))
        if tok.kind == "ident":
            self.next()
            return self.resolve(tok.text, env)
        if self.accept("("):
            inner = self.term(env)
            self.expect(")")
            return inner
        raise self.expected("a term")


def parse_process(text: str) -> Process:
    """Parse process text.  Free identifiers become free names."""
    parser = _Parser(tokenize(text, _SYMBOLS, (), ProcessParseError))
    p = parser.process({})
    parser.end()
    return p
