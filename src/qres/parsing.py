"""Expression syntax for functions of a quaternion variable.

Grammar (whitespace free between tokens):

    qfunction := rational (';' rational)?
    rational  := poly ('/' poly)?
    poly      := ['+'|'-'] term (('+'|'-') term)*
    term      := factor ('*' factor)*
    factor    := atom ('^' INT)?
    atom      := NUMBER | NUMBER'i' | 'i' | 'z1' | 'c1' | 'z2' | 'c2' | '(' poly ')'

c1 and c2 name the complex conjugates of z1 and z2.  Numeric literals are
decimal and become exact rationals, so "0.1" means one tenth, not the
nearest double.  A missing second component is the zero function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .errors import ParseError
from .qcore import CRAT_I, CRat, Quat
from .symfun import ConjPoly, ConjRational, QFunction

_VARS = ("z1", "c1", "z2", "c2")


@dataclass
class _Tok:
    kind: str  # NUM IMAG NAME OP END
    text: str
    pos: int


def _tokenize(src: str) -> List[_Tok]:
    toks: List[_Tok] = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^();":
            toks.append(_Tok("OP", ch, i))
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and src[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdecimal() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            text = src[i:j]
            if text.endswith("."):
                raise ParseError("trailing decimal point", j - 1, "digit")
            # "2i" is one imaginary literal, but "2i..." with more letters is not
            if j < n and src[j] == "i" and (j + 1 >= n or not src[j + 1].isalnum()):
                toks.append(_Tok("IMAG", text, i))
                j += 1
            else:
                toks.append(_Tok("NUM", text, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and src[j].isalnum():
                j += 1
            toks.append(_Tok("NAME", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i, "expression")
    toks.append(_Tok("END", "", n))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.k = 0

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def advance(self) -> _Tok:
        t = self.toks[self.k]
        self.k += 1
        return t

    def accept_op(self, *ops: str):
        t = self.peek()
        if t.kind == "OP" and t.text in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> _Tok:
        t = self.peek()
        if t.kind != "OP" or t.text != op:
            raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.pos, repr(op))
        return self.advance()

    # grammar rules ------------------------------------------------------

    def poly(self) -> ConjPoly:
        sign = self.accept_op("+", "-")
        out = self.term()
        if sign and sign.text == "-":
            out = -out
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return out
            rhs = self.term()
            out = out + rhs if op.text == "+" else out - rhs

    def term(self) -> ConjPoly:
        out = self.factor()
        while self.accept_op("*"):
            out = out * self.factor()
        return out

    def factor(self) -> ConjPoly:
        base = self.atom()
        if self.accept_op("^"):
            t = self.peek()
            if t.kind != "NUM":
                raise ParseError("exponent must be a plain integer", t.pos, "integer")
            e = Fraction(t.text)
            if e.denominator != 1 or e < 0:
                raise ParseError("exponent must be a nonnegative integer", t.pos, "integer")
            self.advance()
            return base ** int(e)
        return base

    def atom(self) -> ConjPoly:
        t = self.peek()
        if t.kind == "NUM":
            self.advance()
            return ConjPoly.const(CRat(Fraction(t.text)))
        if t.kind == "IMAG":
            self.advance()
            return ConjPoly.const(CRat(Fraction(0), Fraction(t.text)))
        if t.kind == "NAME":
            if t.text == "i":
                self.advance()
                return ConjPoly.const(CRAT_I)
            if t.text in _VARS:
                self.advance()
                return ConjPoly.var(t.text)
            raise ParseError(f"unknown symbol {t.text!r}", t.pos,
                             "one of z1, c1, z2, c2, i")
        if t.kind == "OP" and t.text == "(":
            self.advance()
            inner = self.poly()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.pos,
                         "number, variable, or '('")

    def rational(self) -> ConjRational:
        num = self.poly()
        if self.accept_op("/"):
            slash_pos = self.toks[self.k - 1].pos
            den = self.poly()
            try:
                return ConjRational(num, den)
            except ValueError:
                raise ParseError("denominator is not real-valued", slash_pos,
                                 "a real denominator such as z1*c1+z2*c2") from None
            except ZeroDivisionError:
                raise ParseError("denominator is identically zero", slash_pos,
                                 "a nonzero denominator") from None
        return ConjRational(num)

    def qfunction(self) -> QFunction:
        f1 = self.rational()
        if self.accept_op(";"):
            f2 = self.rational()
        else:
            f2 = ConjRational.zero()
        return QFunction(f1, f2)

    def finish(self):
        t = self.peek()
        if t.kind != "END":
            raise ParseError(f"trailing input {t.text!r}", t.pos, "end of expression")


def parse_poly(src: str) -> ConjPoly:
    p = _Parser(src)
    out = p.poly()
    p.finish()
    return out


def parse_rational(src: str) -> ConjRational:
    p = _Parser(src)
    out = p.rational()
    p.finish()
    return out


def parse_qfunction(src: str) -> QFunction:
    p = _Parser(src)
    out = p.qfunction()
    p.finish()
    return out


def parse_point(src: str) -> Quat:
    """Point "x1,y1,x2,y2" with exact decimal coordinates."""
    parts = [s.strip() for s in src.split(",")]
    if len(parts) != 4:
        raise ParseError("point needs four comma-separated coordinates", 0,
                         "x1,y1,x2,y2")
    vals = []
    for s in parts:
        try:
            vals.append(Fraction(s))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad coordinate {s!r}", src.find(s), "decimal number") from None
    return Quat.from_basis(*vals)
