"""The lexical layer and token cursor shared by the source and process grammars.

Both languages have the same lexical rules: ``--`` starts a comment running
to end of line, identifiers are ``[A-Za-z_][A-Za-z0-9_]*``, numerals are
unsigned decimal digit strings, and spaces, tabs and newlines separate
tokens.  Each grammar supplies its own symbols, of which the longest that
matches is taken, and its reserved words.  ``_fresh_variant`` picks the
identifier either language renames a binder to, so that both spell fresh
names alike.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

OP_NAMES = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | "kw" | "sym" | "eof"
    text: str
    line: int
    col: int
    glued: bool = False  # no whitespace between this token and the previous one


def tokenize(text: str, symbols: Collection[str], keywords: Collection[str],
             error_class: type[ParseError]) -> list[Token]:
    """Split ``text`` into tokens ending in an ``eof`` token.

    Identifiers in ``keywords`` become ``kw`` tokens.  A character that
    starts no token raises ``error_class``.
    """
    widths = sorted({len(s) for s in symbols}, reverse=True)
    toks: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    glued = False
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            glued = False
            continue
        if c in " \t\r":
            i += 1
            col += 1
            glued = False
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            glued = False
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("num", text[i:j], line, col, glued))
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(Token("kw" if word in keywords else "ident", word, line, col, glued))
        else:
            for width in widths:
                sym = text[i:i + width]
                if sym in symbols:
                    break
            else:
                raise error_class(f"unexpected character {c!r}", line, col)
            j = i + len(sym)
            toks.append(Token("sym", sym, line, col, glued))
        col += j - i
        i = j
        glued = True
    toks.append(Token("eof", "", line, col))
    return toks


class Parser:
    """A cursor over a token list; each grammar subclasses it."""

    error_class = ParseError

    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return self.error_class(message, tok.line, tok.col)

    def expected(self, what: str) -> ParseError:
        return self.error(f"expected {what}, found {self.peek().text or 'end of input'!r}")

    def at(self, *syms: str) -> bool:
        """Whether the next token is one of these symbols or reserved words."""
        tok = self.peek()
        return tok.kind in ("sym", "kw") and tok.text in syms

    def accept(self, *syms: str) -> bool:
        """Consume the next token if ``at(*syms)``, and say whether it did."""
        tok = self.peek()
        if tok.kind in ("sym", "kw") and tok.text in syms:
            self.pos += 1
            return True
        return False

    def expect(self, sym: str) -> Token:
        if not self.at(sym):
            raise self.expected(repr(sym))
        return self.next()

    def listed(self, close: str, item, *args) -> list:
        """Comma-separated ``item(*args)``, possibly none, then ``close``."""
        items = []
        if not self.at(close):
            items.append(item(*args))
            while self.accept(","):
                items.append(item(*args))
        self.expect(close)
        return items

    def end(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"unexpected trailing input {tok.text!r}")

    def binary(self, operand, build, *args):
        """``operand`` chains: ``* /`` bind tighter than ``+ -``, both left associative.

        ``operand(*args)`` parses one operand, and ``build(name, left, right)``
        makes the node for the operator named in ``OP_NAMES``.  Both levels
        run in this one frame, so that a nesting level of the input costs as
        few Python frames as possible.
        """
        total = None
        while True:
            left = operand(*args)
            while self.at("*", "/"):
                name = OP_NAMES[self.next().text]
                left = build(name, left, operand(*args))
            total = left if total is None else build(pending, total, left)
            if not self.at("+", "-"):
                return total
            pending = OP_NAMES[self.next().text]


def _fresh_variant(base: str, avoid: set[str],
                   floors: dict[str, int] | None = None) -> str:
    """``base`` if ``avoid`` lacks it, else the first ``root_i`` (i >= 2) it lacks.

    ``floors`` maps a root to an index below which every variant is known
    to be in ``avoid``.  A caller whose ``avoid`` only grows, and that adds
    each name returned to it, may pass the same dict on every call to skip
    those probes; the result is the same.  The index returned is recorded
    as taken, so the next call for the same root probes once.
    """
    if base not in avoid:
        return base
    root = base.rstrip("0123456789_") or base
    i = 2 if floors is None else floors.get(root, 2)
    while True:
        candidate = f"{root}_{i}"
        if candidate not in avoid:
            if floors is not None:
                floors[root] = i + 1  # the caller takes the candidate
            return candidate
        i += 1
