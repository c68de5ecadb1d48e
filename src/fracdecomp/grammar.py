"""Infix grammar for problem files and CLI expressions.

Accepts expressions over ``x``, ``y``, ``t``, ``alpha``, numeric literals
and ``pi``, the operators ``+ - * / ^`` (with ``^`` right-associative),
parentheses, and the functions ``sin``, ``cos``, ``exp`` and ``gamma``.
``alpha`` is bound to a number at parse time and ``gamma(...)`` takes a
constant argument, evaluated immediately; exponents must likewise fold to
constants because power nodes carry a real exponent. Errors carry the
offending position so the CLI can point at the character.
"""

from __future__ import annotations

import math
from typing import Optional

from . import fracterm
from .symx import Const, Cos, Exp, Expr, Pow, Prod, Sin, Sum, Var, simplify

__all__ = ["GrammarError", "parse_expr", "parse_spatial", "parse_series"]

_FUNCTIONS = ("sin", "cos", "exp", "gamma")
_CONSTANTS = {"pi": math.pi}


class GrammarError(Exception):
    def __init__(self, message: str, pos: int, text: str = ""):
        super().__init__(message)
        self.message = message
        self.pos = pos
        self.text = text

    def pointer(self) -> str:
        """Two-line diagnostic with a caret under the offending column."""
        if not self.text:
            return f"{self.message} (column {self.pos + 1})"
        return f"{self.text}\n{' ' * self.pos}^ {self.message} (column {self.pos + 1})"


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise GrammarError(f"bad number literal {lit!r}", i, text) from None
            tokens.append(_Token("number", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise GrammarError(f"unexpected character {ch!r}", i, text)
    tokens.append(_Token("end", None, n))
    return tokens


_BINARY_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25


class _Parser:
    def __init__(self, text: str, alpha: Optional[float], allow_t: bool):
        self.text = text
        self.alpha = alpha
        self.allow_t = allow_t
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise GrammarError(f"expected {kind!r}", tok.pos, self.text)
        return tok

    def parse(self) -> Expr:
        e = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            raise GrammarError("unexpected trailing input", tok.pos, self.text)
        return e

    def expression(self, rbp: int) -> Expr:
        left = self.nud(self.advance())
        while True:
            tok = self.peek()
            bp = _BINARY_BP.get(tok.kind, -1)
            if bp <= rbp:
                return left
            self.advance()
            left = self.led(tok, left)

    def nud(self, tok: _Token) -> Expr:
        if tok.kind == "number":
            return Const(tok.value)
        if tok.kind == "(":
            e = self.expression(0)
            self.expect(")")
            return e
        if tok.kind == "-":
            return Prod((Const(-1.0), self.expression(_UNARY_BP)))
        if tok.kind == "+":
            return self.expression(_UNARY_BP)
        if tok.kind == "name":
            return self.name(tok)
        raise GrammarError(f"unexpected token {tok.value!r}", tok.pos, self.text)

    def name(self, tok: _Token) -> Expr:
        word = tok.value
        if word in ("x", "y"):
            return Var(word)
        if word == "t":
            if not self.allow_t:
                raise GrammarError("t not allowed in a spatial expression", tok.pos, self.text)
            return Var("t")
        if word == "alpha":
            if self.alpha is None:
                raise GrammarError("alpha used but no value was supplied", tok.pos, self.text)
            return Const(self.alpha)
        if word in _CONSTANTS:
            return Const(_CONSTANTS[word])
        if word in _FUNCTIONS:
            self.expect("(")
            arg = self.expression(0)
            self.expect(")")
            if word == "gamma":
                return Const(self._fold_gamma(arg, tok.pos))
            return {"sin": Sin, "cos": Cos, "exp": Exp}[word](arg)
        raise GrammarError(f"unknown name {word!r}", tok.pos, self.text)

    def _fold_gamma(self, arg: Expr, pos: int) -> float:
        arg = simplify(arg)
        if not isinstance(arg, Const):
            raise GrammarError("gamma(...) needs a constant argument", pos, self.text)
        try:
            return fracterm.gamma(arg.value)
        except fracterm.GammaError as exc:
            raise GrammarError(str(exc), pos, self.text) from None
        except OverflowError:
            raise GrammarError(f"gamma({arg.value:g}) overflows a float",
                               pos, self.text) from None

    def led(self, tok: _Token, left: Expr) -> Expr:
        if tok.kind == "+":
            return Sum((left, self.expression(10)))
        if tok.kind == "-":
            return Sum((left, Prod((Const(-1.0), self.expression(10)))))
        if tok.kind == "*":
            return Prod((left, self.expression(20)))
        if tok.kind == "/":
            right = self.expression(20)
            rs = simplify(right)
            if isinstance(rs, Const):
                if rs.value == 0.0:
                    raise GrammarError("division by zero", tok.pos, self.text)
                return Prod((left, Const(1.0 / rs.value)))
            return Prod((left, Pow(right, -1.0)))
        if tok.kind == "^":
            # Right-associative; the exponent must fold to a constant.
            right = self.expression(_BINARY_BP["^"] - 1)
            rs = simplify(right)
            if not isinstance(rs, Const):
                raise GrammarError("exponent must be constant", tok.pos, self.text)
            return Pow(left, rs.value)
        raise GrammarError(f"unexpected operator {tok.value!r}", tok.pos, self.text)


def parse_expr(text: str, alpha: Optional[float] = None, allow_t: bool = True) -> Expr:
    """Parse to a simplified expression over x, y and (optionally) t."""
    return simplify(_Parser(text, alpha, allow_t).parse())


def parse_spatial(text: str, alpha: Optional[float] = None) -> Expr:
    """Parse an expression that may mention x and y only."""
    return parse_expr(text, alpha, allow_t=False)


def parse_series(text: str, alpha: Optional[float] = None) -> "fracterm.Series":
    """Parse a time-dependent expression into the canonical series form."""
    e = parse_expr(text, alpha, allow_t=True)
    try:
        return fracterm.to_series(e)
    except fracterm.SeriesError as exc:
        raise GrammarError(str(exc), 0, text) from None
