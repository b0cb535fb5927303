"""Parser for the ring-element interchange syntax.

An expression is built from three kinds of atoms

    P1              the class of the projective line
    [(a,b), ...]    the class of a product of conics (rational coefficients);
                    [] is the empty product, i.e. the identity
    integers        integer multiples of the identity

combined with +, -, * and ^ (nonnegative integer exponents), with the usual
precedence and parentheses.  '#' starts a comment; the whole document is one
expression.
"""

from __future__ import annotations

from fractions import Fraction

from .conics import new_conic
from .errors import ParseError
from .gring import IDENTITY_TERM, ConicProduct, RingElement, from_conic_product
from .numtheory import DEFAULT_FACTOR_BOUND, parse_rational
from .value import Value

_PUNCT = "()[],+-*^"


class _Token(Value):
    __slots__ = ("kind", "text", "line", "column")  # kind: "number", "name", or one of _PUNCT

    def __init__(self, kind: str, text: str, line: int, column: int):
        self._init(kind, text, line, column)


def _tokenize(document: str) -> list[_Token]:
    tokens = []
    for lineno, raw in enumerate(document.splitlines(), 1):
        line = raw.split("#", 1)[0]
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            start = col
            if ch in _PUNCT:
                tokens.append(_Token(ch, ch, lineno, start + 1))
                col += 1
            elif ch.isdigit():
                while col < len(line) and (line[col].isdigit() or line[col] == "/"):
                    col += 1
                tokens.append(_Token("number", line[start:col], lineno, start + 1))
            elif ch.isalpha():
                while col < len(line) and line[col].isalnum():
                    col += 1
                tokens.append(_Token("name", line[start:col], lineno, start + 1))
            else:
                raise ParseError(f"unexpected character {ch!r}", lineno, start + 1)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], factor_bound: int):
        self.tokens = tokens
        self.pos = 0
        self.factor_bound = factor_bound

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError(
                "unexpected end of input",
                last.line if last else 1,
                last.column + len(last.text) if last else 1,
            )
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, got {tok.text!r}", tok.line, tok.column)
        return tok

    def fail(self, tok: _Token, message: str):
        raise ParseError(message, tok.line, tok.column)

    def integer(self, tok: _Token, fraction_message: str) -> int:
        if "/" in tok.text:
            self.fail(tok, fraction_message)
        return parse_rational(tok.text, tok.line, tok.column).numerator

    # expr := term (('+'|'-') term)*
    def expr(self) -> RingElement:
        value = self.term()
        while (tok := self.peek()) is not None and tok.kind in "+-":
            self.next()
            rhs = self.term()
            value = value + rhs if tok.kind == "+" else value - rhs
        return value

    # term := factor ('*' factor)*
    def term(self) -> RingElement:
        value = self.factor()
        while (tok := self.peek()) is not None and tok.kind == "*":
            self.next()
            value = value * self.factor()
        return value

    # factor := unary ('^' number)?
    def factor(self) -> RingElement:
        value = self.unary()
        if (tok := self.peek()) is not None and tok.kind == "^":
            self.next()
            exp_tok = self.expect("number")
            value = value ** self.integer(exp_tok, "exponent must be a nonnegative integer")
        return value

    def unary(self) -> RingElement:
        if (tok := self.peek()) is not None and tok.kind == "-":
            self.next()
            return -self.unary()
        return self.atom()

    def atom(self) -> RingElement:
        tok = self.next()
        if tok.kind == "number":
            n = self.integer(tok, "ring coefficients must be integers")
            return RingElement({IDENTITY_TERM: n}) if n else RingElement.zero()
        if tok.kind == "name":
            if tok.text == "P1":
                return RingElement.lefschetz(1)
            self.fail(tok, f"unknown name {tok.text!r} (expected P1)")
        if tok.kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok.kind == "[":
            return self.conic_list(tok)
        self.fail(tok, f"unexpected token {tok.text!r}")

    def conic_list(self, open_tok: _Token) -> RingElement:
        conics = []
        if (tok := self.peek()) is not None and tok.kind == "]":
            self.next()
        else:
            while True:
                conics.append(self.conic_pair())
                tok = self.next()
                if tok.kind == "]":
                    break
                if tok.kind != ",":
                    self.fail(tok, "expected ',' or ']' in conic list")
        return from_conic_product(ConicProduct(conics))

    def conic_pair(self):
        self.expect("(")
        a = self.rational()
        self.expect(",")
        b = self.rational()
        close = self.expect(")")
        try:
            return new_conic(a, b, self.factor_bound)
        except ValueError as exc:
            self.fail(close, str(exc))

    def rational(self) -> Fraction:
        sign = 1
        tok = self.next()
        if tok.kind in "+-":
            sign = -1 if tok.kind == "-" else 1
            tok = self.next()
        if tok.kind != "number":
            self.fail(tok, f"expected a rational, got {tok.text!r}")
        return sign * parse_rational(tok.text, tok.line, tok.column)


def parse_ring_expression(
    document: str, factor_bound: int = DEFAULT_FACTOR_BOUND
) -> RingElement:
    """Parse and evaluate a ring-expression document."""
    tokens = _tokenize(document)
    if not tokens:
        raise ParseError("empty ring expression", 1, 1)
    parser = _Parser(tokens, factor_bound)
    try:
        value = parser.expr()
    except RecursionError:
        tok = tokens[min(parser.pos, len(tokens) - 1)]
        raise ParseError("expression nested too deeply", tok.line, tok.column) from None
    if (tok := parser.peek()) is not None:
        parser.fail(tok, f"trailing input {tok.text!r}")
    return value
