"""Input grammar: accepted forms, precedence, and error positions."""
from fractions import Fraction

import pytest

from qres.errors import ParseError
from qres.parsing import parse_point, parse_poly, parse_qfunction, parse_rational
from qres.qcore import CRat, Quat
from qres.symfun import ConjPoly

Z1, C1, Z2, C2 = (ConjPoly.var(v) for v in ("z1", "c1", "z2", "c2"))


def test_term_syntax_from_the_interface_doc():
    p = parse_poly("(2+3i)*z1^2*c1*z2*c2^3")
    want = Z1 ** 2 * C1 * Z2 * C2 ** 3 * CRat(Fraction(2), Fraction(3))
    assert p == want


def test_sums_differences_and_precedence():
    assert parse_poly("z1 + 2*z2 - c1") == Z1 + Z2 * CRat(2) - C1
    # '*' binds tighter than '+', '^' tighter than '*'
    assert parse_poly("2*z1^2") == Z1 ** 2 * CRat(2)
    assert parse_poly("(2*z1)^2") == Z1 ** 2 * CRat(4)
    assert parse_poly("z1 + z2 * c2^2") == Z1 + Z2 * C2 ** 2


def test_imaginary_literals():
    assert parse_poly("i") == ConjPoly.const(CRat(0, 1))
    assert parse_poly("2i") == ConjPoly.const(CRat(Fraction(0), Fraction(2)))
    assert parse_poly("i*z1") == Z1 * CRat(0, 1)
    assert parse_poly("2.5*z2") == Z2 * CRat(Fraction(5, 2))


def test_leading_sign():
    assert parse_poly("-z1") == -Z1
    assert parse_poly("+z1") == Z1


def test_parenthesised_subexpressions():
    p = parse_poly("(z1 + c1)^2")
    assert p == (Z1 + C1) * (Z1 + C1)


def test_whitespace_is_free():
    assert parse_poly(" z1+ 2 * z2 ") == parse_poly("z1+2*z2")


def test_error_reports_position():
    with pytest.raises(ParseError) as e:
        parse_poly("z1 + * z2")
    assert e.value.pos == 5
    with pytest.raises(ParseError) as e:
        parse_poly("z1 +")
    assert "end of input" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_poly("w1 + z2")
    assert "w1" in str(e.value)
    with pytest.raises(ParseError):
        parse_poly("z1)")
    with pytest.raises(ParseError):
        parse_poly("")


@pytest.mark.parametrize("text, want", [
    ("\u0663*z1", "3*z1"),                    # Arabic-Indic three
    ("\uff11.\uff15*z1", "3/2*z1"),           # fullwidth 1.5
    ("\U0001d7d7*c2", "9*c2"),                 # mathematical bold nine
])
def test_decimal_digits_of_any_script_are_numbers(text, want):
    assert str(parse_qfunction(text).f1) == want


@pytest.mark.parametrize("text, pos", [
    ("\u00b2", 0), ("z1^\u00b2", 3), ("\u00b2*bump", 0), ("3\u00b2", 1),
    ("\u2079*z2", 0), (".\u00b2", 0),
])
def test_digits_that_are_not_decimal_are_refused(text, pos):
    # superscripts pass str.isdigit but are no Fraction literal; they used
    # to end in a ValueError from Fraction
    for parse in (parse_poly, parse_qfunction):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert e.value.pos == pos
        assert str(e.value).startswith(
            f"unexpected character {text[pos]!r} at position {pos}")


def test_exponent_must_be_nonnegative_integer():
    with pytest.raises(ParseError):
        parse_poly("z1^1.5")
    with pytest.raises(ParseError):
        parse_poly("z1^z2")


def test_rational_with_real_denominator():
    r = parse_rational("(z1) / (z1*c1 + z2*c2)")
    assert str(r.num) == "z1"
    p1, p2 = CRat(1), CRat(0)
    assert r.eval_exact(p1, p2) == CRat(1)


def test_rational_rejects_non_real_denominator():
    with pytest.raises(ParseError):
        parse_rational("(1) / (z1)")


def test_rational_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_rational("(1) / (z1 - z1)")


def test_rational_without_slash_is_polynomial():
    r = parse_rational("z1 + c2")
    assert r.is_polynomial


def test_qfunction_literal_two_components():
    f = parse_qfunction("z1 ; c2")
    assert f.f1.num == Z1
    assert f.f2.num == C2


def test_qfunction_literal_single_component():
    f = parse_qfunction("z1 + z2")
    assert f.f2.is_zero


def test_qfunction_literal_with_rational_components():
    f = parse_qfunction("(c1) / (z1*c1 + z2*c2) ; (c2) / (z1*c1 + z2*c2)")
    q = Quat(CRat(1), CRat(0))
    v = f.eval(q)
    assert v == Quat(CRat(1), CRat(0))


def test_qfunction_rejects_extra_semicolons():
    with pytest.raises(ParseError):
        parse_qfunction("z1 ; z2 ; c1")


def test_parse_point_exact():
    q = parse_point("1,0,0,1")
    assert q == Quat(CRat(1), CRat(Fraction(0), Fraction(1)))
    q2 = parse_point("0.5, -2, 1/3, 0")
    assert q2.basis_coeffs() == (Fraction(1, 2), Fraction(-2), Fraction(1, 3),
                                 Fraction(0))


def test_parse_point_errors():
    with pytest.raises(ParseError):
        parse_point("1,2,3")
    with pytest.raises(ParseError):
        parse_point("a,b,c,d")
