"""A small expression language for algebra elements.

Grammar:

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := rational ('*'? factor)* | ('*'? factor)+
    factor   := ident ('^' natural)? | '(' expr ')'
    rational := integer ('/' natural)?

Identifiers resolve to generators of the algebra or to supplied rational
parameters.  Products are normalized with Koszul signs left to right, and a
power of an odd-degree identifier with exponent >= 2 is the zero element.
Diagnostics carry 1-based line and column positions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ModelSyntaxError, UnknownIdentifier


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def tokenize(text, field=None):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        # isdecimal, not isdigit: int() refuses digits such as superscripts
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("num", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ModelSyntaxError(f"unexpected character {ch!r}",
                               line=line, column=start_col, field=field)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, algebra, parameters, field):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra
        self.parameters = parameters or {}
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ModelSyntaxError(message, line=tok.line, column=tok.col,
                               field=self.field)

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {kind!r}, found {tok.kind!r}")
        return self.next()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"trailing input starting at {tok.kind!r}")
        return e

    def expr(self):
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.next().kind == "-" else 1
        out = self.term() * Fraction(sign)
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            t = self.term()
            out = out - t if op == "-" else out + t
        return out

    def term(self):
        acc = self.algebra.one()
        have_any = False
        if self.peek().kind == "num":
            acc = acc * self.rational()
            have_any = True
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.next()
                tok = self.peek()
                if tok.kind not in ("ident", "("):
                    self.error("expected an identifier or '(' after '*'")
                acc = acc * self.factor()
                have_any = True
                continue
            if tok.kind in ("ident", "("):
                acc = acc * self.factor()
                have_any = True
                continue
            break
        if not have_any:
            self.error("expected a term")
        return acc

    def rational(self):
        tok = self.expect("num")
        value = Fraction(tok.value)
        if self.peek().kind == "/":
            self.next()
            den = self.expect("num")
            if den.value == 0:
                self.error("zero denominator", den)
            value /= den.value
        return value

    def factor(self):
        tok = self.next()
        if tok.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind != "ident":
            self.error("expected an identifier or '('", tok)
        base = self.resolve(tok)
        if self.peek().kind == "^":
            self.next()
            exp = self.expect("num")
            if exp.value < 1:
                self.error("exponent must be a positive integer", exp)
            return base ** exp.value
        return base

    def resolve(self, tok):
        name = tok.value
        if name in self.parameters:
            return self.algebra.one() * Fraction(self.parameters[name])
        try:
            return self.algebra.gen(name)
        except KeyError:
            raise UnknownIdentifier(
                f"unknown identifier {name!r}",
                line=tok.line, column=tok.col, field=self.field) from None


def parse_expression(text, algebra, parameters=None, field=None):
    """Parse text to an element of the algebra (free or tabular)."""
    if text.strip() == "0":
        return algebra.zero()
    tokens = tokenize(text, field=field)
    return _Parser(tokens, algebra, parameters, field).parse()
