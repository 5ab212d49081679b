"""Named example functions with their known classification and zero sets.

These are the fixtures the tests and the CLI lean on.  Flags recorded here
are expectations; the test suite re-derives every one through
operators.classify, so a drift between the two is a test failure, not a
silent update.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .errors import UnknownName
from .qcore import CRat
from .symfun import ConjPoly, ConjRational, QFunction

NAMES = ("conj", "cauchy_kernel", "F", "prop34", "holo", "q_conj")


@dataclass(frozen=True)
class KnownFlags:
    hyperholomorphic: bool
    hypermeromorphic: bool


@dataclass(frozen=True)
class CatalogueEntry:
    name: str
    f: QFunction
    known_flags: KnownFlags
    zero_set_kind: str  # point | empty | plane | hypersurface
    zero_set: str
    params: Tuple = ()


def _vars():
    return (ConjPoly.var("z1"), ConjPoly.var("c1"),
            ConjPoly.var("z2"), ConjPoly.var("c2"))


def _real_param(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError("parameters must be real numbers")


def builtin(name: str, params: Sequence = (), expr: Optional[Union[str, ConjPoly]] = None
            ) -> CatalogueEntry:
    """Look up a named function.

    prop34 takes two real parameters (default 0, 0).  holo takes a
    holomorphic polynomial in z1, z2, either as a ConjPoly or as expression
    text (default z1).  The others take nothing.
    """
    z1, c1, z2, c2 = _vars()
    if name == "conj":
        _no_extras(name, params, expr)
        return CatalogueEntry(
            name="conj",
            f=QFunction.from_polys(c1, c2),
            known_flags=KnownFlags(hyperholomorphic=True, hypermeromorphic=False),
            zero_set_kind="point",
            zero_set="the origin only",
        )
    if name == "cauchy_kernel":
        _no_extras(name, params, expr)
        rho = z1 * c1 + z2 * c2
        return CatalogueEntry(
            name="cauchy_kernel",
            f=QFunction(ConjRational(c1, rho * rho), ConjRational(-c2, rho * rho)),
            known_flags=KnownFlags(hyperholomorphic=True, hypermeromorphic=False),
            zero_set_kind="empty",
            zero_set="empty; |f| = ||q||^-3 never vanishes (pole at the origin)",
        )
    if name == "F":
        _no_extras(name, params, expr)
        return CatalogueEntry(
            name="F",
            f=QFunction.from_polys(z1, c2),
            known_flags=KnownFlags(hyperholomorphic=False, hypermeromorphic=False),
            zero_set_kind="point",
            zero_set="the origin only",
        )
    if name == "q_conj":
        _no_extras(name, params, expr)
        return CatalogueEntry(
            name="q_conj",
            f=QFunction.from_polys(c1, -z2),
            known_flags=KnownFlags(hyperholomorphic=False, hypermeromorphic=False),
            zero_set_kind="point",
            zero_set="the origin only",
        )
    if name == "prop34":
        if expr is not None:
            raise UnknownName("prop34 takes numeric parameters, not an expression")
        if len(params) not in (0, 2):
            raise UnknownName("prop34 needs exactly two real parameters A, B")
        A, B = (_real_param(params[0]), _real_param(params[1])) if params else (Fraction(0), Fraction(0))
        f1 = z1 + c1 + z2 + c2 + ConjPoly.const(CRat(A))
        f2 = -z1 - c1 + z2 + c2 + ConjPoly.const(CRat(B))
        x1v, x2v = (B - A) / 4, -(A + B) / 4
        return CatalogueEntry(
            name="prop34",
            f=QFunction.from_polys(f1, f2),
            known_flags=KnownFlags(hyperholomorphic=True, hypermeromorphic=True),
            zero_set_kind="plane",
            zero_set=f"the real 2-plane x1 = {x1v}, x2 = {x2v}",
            params=(A, B),
        )
    if name == "holo":
        if params:
            raise UnknownName("holo takes a polynomial expression, not numeric parameters")
        if expr is None:
            p = z1
        elif isinstance(expr, ConjPoly):
            p = expr
        else:
            from .parsing import parse_poly
            p = parse_poly(expr)
        if any(k[1] or k[3] for k in p.terms):
            raise UnknownName("holo needs a holomorphic polynomial "
                              "(no c1 or c2 allowed)")
        return CatalogueEntry(
            name="holo",
            f=QFunction.from_polys(p, ConjPoly.zero()),
            known_flags=KnownFlags(hyperholomorphic=True, hypermeromorphic=True),
            zero_set_kind="hypersurface",
            zero_set="the complex zero locus of the first component",
            params=(str(p),),
        )
    raise UnknownName(f"unknown function name {name!r}; known: {', '.join(NAMES)}")


def _no_extras(name, params, expr):
    if params or expr is not None:
        raise UnknownName(f"{name} takes no parameters")


def resolve(text: str, params: Sequence = ()):
    """Turn CLI/user text into a function.

    "name" or "name:EXPR" hits the catalogue; anything else parses as a
    literal "f1 ; f2" expression.  Returns (QFunction, label), the label
    the catalogue name or "literal".
    """
    head, sep, tail = text.partition(":")
    if head in NAMES:
        return builtin(head, params=params, expr=tail if sep else None).f, head
    from .parsing import parse_qfunction
    return parse_qfunction(text), "literal"
