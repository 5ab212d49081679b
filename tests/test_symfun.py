"""Symbolic polynomials/rationals: evaluation homomorphisms, derivative
oracles by finite differences, and exact structure."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (RefPoly, rand_crat, rand_point, rand_poly, rand_quat,
                     rand_terms, ref_eval_float, ref_eval_numeric,
                     ref_numeric_jet, ref_strip_content, seeded)
from qres.errors import PoleError
from qres.catalogue import NAMES, builtin
from qres.operators import _richardson_D, inverse_function, modulus_function
from qres.parsing import parse_qfunction, parse_rational
from qres.qcore import CRat, Quat
from qres import symfun
from qres.symfun import (ConjPoly, ConjRational, QFunction, _bar_passes,
                         _jet_stencil, poly_vanishing_order, vanishing_order,
                         vanishing_order_pair)

Z1, C1, Z2, C2 = (ConjPoly.var(v) for v in ("z1", "c1", "z2", "c2"))


def wirtinger_fd(fn, z1, z2, var, h=1e-5):
    """Central finite-difference Wirtinger derivative, independent of the
    package's own jet code."""
    if var in ("z1", "c1"):
        fx = (fn(z1 + h, z2) - fn(z1 - h, z2)) / (2 * h)
        fy = (fn(z1 + 1j * h, z2) - fn(z1 - 1j * h, z2)) / (2 * h)
    else:
        fx = (fn(z1, z2 + h) - fn(z1, z2 - h)) / (2 * h)
        fy = (fn(z1, z2 + 1j * h) - fn(z1, z2 - 1j * h)) / (2 * h)
    sign = -1j if var.startswith("z") else 1j
    return 0.5 * (fx + sign * fy)


def test_eval_exact_matches_manual_substitution():
    p = Z1 ** 2 * C2 - Z2 * CRat(Fraction(0), Fraction(3)) + ConjPoly.const(CRat(5))
    z1 = CRat(Fraction(1), Fraction(2))
    z2 = CRat(Fraction(-1), Fraction(1))
    want = (complex(z1) ** 2 * complex(z2).conjugate()
            - 3j * complex(z2) + 5)
    got = complex(p.eval_exact(z1, z2))
    assert got == pytest.approx(want, abs=1e-12)


def test_conjugate_variable_tracks_point_conjugate():
    rng = seeded(10)
    for _ in range(20):
        p = rand_poly(rng)
        z1, z2 = rand_crat(rng), rand_crat(rng)
        direct = p.eval_exact(z1, z2)
        swapped = p.conjugate().eval_exact(z1, z2)
        assert swapped == direct.conjugate()


def test_conjugate_is_an_involution_and_ring_map():
    rng = seeded(11)
    for _ in range(10):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@settings(max_examples=30, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_ring_distributivity(ca, cb, cc):
    a = Z1 * CRat(Fraction(ca)) + C2 ** 2
    b = Z2 * CRat(Fraction(cb)) + ConjPoly.const(CRat(1))
    c = C1 * CRat(Fraction(cc)) + Z1 * Z2
    assert a * (b + c) == a * b + a * c


def test_wirtinger_against_finite_differences():
    rng = seeded(12)
    for _ in range(12):
        p = rand_poly(rng, deg=3, n_terms=4)
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        fn = lambda a, b: complex(p.eval_numeric(a, b))
        for var in ("z1", "c1", "z2", "c2"):
            sym = complex(p.wirtinger(var).eval_numeric(z1, z2))
            fd = wirtinger_fd(fn, z1, z2, var)
            assert sym == pytest.approx(fd, rel=2e-5, abs=2e-5)


def test_wirtinger_commutes_with_conjugation():
    rng = seeded(13)
    for _ in range(10):
        p = rand_poly(rng)
        lhs = p.wirtinger("z1").conjugate()
        rhs = p.conjugate().wirtinger("c1")
        assert lhs == rhs
        lhs2 = p.wirtinger("c2").conjugate()
        rhs2 = p.conjugate().wirtinger("z2")
        assert lhs2 == rhs2


def test_shifted_recenters_evaluation():
    rng = seeded(14)
    for _ in range(10):
        p = rand_poly(rng)
        a, b = rand_crat(rng, 3), rand_crat(rng, 3)
        z1, z2 = rand_crat(rng, 3), rand_crat(rng, 3)
        assert p.shifted(a, b).eval_exact(z1, z2) == p.eval_exact(z1 + a, z2 + b)


def richardson(bar):
    """The Richardson value (4 pass(h/2) - pass(h)) / 3 of _bar_passes,
    indexed (coordinate, component) + the points' shape."""
    return (4 * bar[1] - bar[0]) / 3


def test_the_jet_matches_symbolic_conj_partials():
    rng = seeded(15)
    f = QFunction.from_polys(rand_poly(rng, 3, 4), rand_poly(rng, 3, 4))
    for _ in range(8):
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        g = richardson(_bar_passes(_jet_stencil(f.eval_numeric, z1, z2)))
        for coord, var in enumerate(("c1", "c2")):
            for comp, r in enumerate((f.f1, f.f2)):
                want = complex(r.wirtinger(var).eval_numeric(z1, z2))
                assert complex(g[coord, comp]) == pytest.approx(
                    want, rel=1e-7, abs=1e-7)


def test_qfunction_product_is_pointwise_quaternion_product():
    rng = seeded(16)
    for _ in range(15):
        f = QFunction.from_polys(rand_poly(rng), rand_poly(rng))
        g = QFunction.from_polys(rand_poly(rng), rand_poly(rng))
        q = rand_quat(rng, 3)
        assert (f * g).eval(q) == f.eval(q) * g.eval(q)
        assert (f + g).eval(q) == f.eval(q) + g.eval(q)


def test_qfunction_conj_is_pointwise_conjugation():
    rng = seeded(17)
    for _ in range(10):
        f = QFunction.from_polys(rand_poly(rng), rand_poly(rng))
        q = rand_quat(rng, 3)
        assert f.conj().eval(q) == f.eval(q).conj()


def test_qfunction_product_associative_exact():
    rng = seeded(18)
    for _ in range(6):
        f = QFunction.from_polys(rand_poly(rng, 2, 2), rand_poly(rng, 2, 2))
        g = QFunction.from_polys(rand_poly(rng, 2, 2), rand_poly(rng, 2, 2))
        h = QFunction.from_polys(rand_poly(rng, 2, 2), rand_poly(rng, 2, 2))
        assert ((f * g) * h).f1 == (f * (g * h)).f1
        assert ((f * g) * h).f2 == (f * (g * h)).f2


def test_rational_arithmetic_and_pole_error():
    den = Z1 * C1 + Z2 * C2
    r = ConjRational(Z1, den)
    z1, z2 = CRat(1), CRat(Fraction(0), Fraction(2))
    got = r.eval_exact(z1, z2)
    assert got == CRat(Fraction(1, 5))
    with pytest.raises(PoleError):
        r.eval_exact(CRat(0), CRat(0))


def test_rational_denominator_must_be_real_valued():
    with pytest.raises(ValueError):
        ConjRational(ConjPoly.one(), Z1)


def test_rational_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        ConjRational(Z1, ConjPoly.zero())


def test_symmetric_monomial_content_cancels():
    rho1 = Z1 * C1
    r = ConjRational(Z1 ** 2 * C1, rho1)
    assert r.is_polynomial
    assert r.num == Z1
    # cancelling z1 alone would leave a non-real denominator; it must stay
    r2 = ConjRational(Z1, rho1)
    assert not r2.is_polynomial


def test_rational_quotient_rules_exact():
    rng = seeded(19)
    rho = Z1 * C1 + Z2 * C2
    a = ConjRational(rand_poly(rng), rho)
    b = ConjRational(rand_poly(rng), rho * rho)
    p1, p2 = CRat(Fraction(1, 2)), CRat(Fraction(1), Fraction(1))
    va = a.eval_exact(p1, p2)
    vb = b.eval_exact(p1, p2)
    assert (a + b).eval_exact(p1, p2) == va + vb
    assert (a * b).eval_exact(p1, p2) == va * vb
    assert (a - b).eval_exact(p1, p2) == va - vb


def test_rational_wirtinger_quotient_rule_against_fd():
    rho = Z1 * C1 + Z2 * C2
    r = ConjRational(Z1 ** 2 + C2, rho)
    fn = lambda a, b: complex(r.eval_numeric(a, b))
    z1, z2 = 0.7 - 0.2j, 0.3 + 0.4j
    for var in ("z1", "c1", "z2", "c2"):
        sym = complex(r.wirtinger(var).eval_numeric(z1, z2))
        fd = wirtinger_fd(fn, z1, z2, var)
        assert sym == pytest.approx(fd, rel=3e-5, abs=3e-5)


def test_vanishing_orders():
    p = Z1 ** 2 * C2
    origin = CRat(0), CRat(0)
    assert poly_vanishing_order(p, *origin) == 3
    assert poly_vanishing_order(ConjPoly.const(CRat(2)), *origin) == 0
    assert poly_vanishing_order(Z1 + Z2, *origin) == 1
    rho = Z1 * C1 + Z2 * C2
    r = ConjRational(Z1 ** 2, rho)
    assert vanishing_order(r, *origin) == 0
    f = QFunction.from_polys(Z1 * Z2, C2 ** 3)
    assert vanishing_order_pair(f, Quat(CRat(0), CRat(0))) == 2


def test_eval_numeric_vectorizes():
    p = Z1 * C2 + ConjPoly.const(CRat(1))
    z1 = np.array([1.0 + 0j, 2.0 + 1j])
    z2 = np.array([0.5j, 1.0 + 0j])
    out = p.eval_numeric(z1, z2)
    want = z1 * np.conj(z2) + 1
    assert np.allclose(out, want)


def test_str_round_trip_through_parser():
    from qres.parsing import parse_poly
    rng = seeded(20)
    for _ in range(20):
        p = ConjPoly.zero()
        for _ in range(3):
            t = ConjPoly.const(CRat(Fraction(rng.randrange(-4, 5)),
                                    Fraction(rng.randrange(-4, 5))))
            for _ in range(rng.randrange(3)):
                t = t * rng.choice((Z1, C1, Z2, C2))
            p = p + t
        assert parse_poly(str(p)) == p


# the int kernel against the CRat-dict reference ----------------------------

def assert_same_terms(p: ConjPoly, ref: RefPoly):
    """Equal coefficients in the same key order, and bit-equal floats."""
    assert list(p.terms.items()) == list(ref.terms.items())
    for c, r in zip(p.terms.values(), ref.terms.values()):
        assert complex(c) == complex(r)


def test_kernel_matches_the_reference_on_random_polynomials():
    rng = seeded(40)
    fractional = 0
    for _ in range(60):
        ta, tb, tc = (rand_terms(rng, rng.randrange(1, 7)) for _ in range(3))
        a, b, c = ConjPoly(ta), ConjPoly(tb), ConjPoly(tc)
        ra, rb, rc = RefPoly(ta), RefPoly(tb), RefPoly(tc)
        assert_same_terms(a, ra)
        assert_same_terms(a + b, ra + rb)
        assert_same_terms(a - b, ra - rb)
        assert_same_terms(-a, -ra)
        assert_same_terms(a * b, ra * rb)
        assert_same_terms(a.conjugate(), ra.conjugate())
        for idx, var in enumerate(("z1", "c1", "z2", "c2")):
            assert_same_terms(a.wirtinger(var), ra.wirtinger(idx))
        # a zero operand skips the algebra but not a term of the result
        zero, rzero = ConjPoly.zero(), RefPoly({})
        if a._den != 1:
            fractional += 1
        for got, want in ((a + zero, ra + rzero), (zero + a, rzero + ra),
                          (a - zero, ra - rzero), (zero - a, rzero - ra),
                          (a * zero, ra * rzero), (zero * a, rzero * ra),
                          (zero * zero, rzero * rzero),
                          (zero.wirtinger("z2"), rzero.wirtinger(2))):
            assert_same_terms(got, want)
            assert (got._den, got._num) == (ConjPoly(want.terms)._den,
                                            ConjPoly(want.terms)._num)
        # a chain of operations on smaller polynomials, so the reference
        # stays quick
        ts = [rand_terms(rng, 3, max_exp=1) for _ in range(3)]
        (x, y, z), (rx, ry, rz) = map(ConjPoly, ts), map(RefPoly, ts)
        got = ((x * y + z) ** 2 - x).wirtinger("z2").conjugate() * z
        want = ((rx * ry + rz) ** 2 - rx).wirtinger(2).conjugate() * rz
        assert_same_terms(got, want)
        p1, p2 = rand_crat(rng, 3), rand_crat(rng, 3)
        assert_same_terms(a.shifted(p1, p2), ra.shifted(p1, p2))
    assert fractional > 30


def test_kernel_matches_the_reference_where_sums_cancel():
    # (1 + z1 - z1^2)^2: the z1^2 sum cancels at z1*z1 and is appended again
    # after z1^3, so the order is 1, z1, z1^3, z1^2, z1^4
    p = ConjPoly.one() + Z1 - Z1 ** 2
    ref = RefPoly({(0, 0, 0, 0): CRat(1), (1, 0, 0, 0): CRat(1),
                   (2, 0, 0, 0): CRat(-1)})
    assert_same_terms(p * p, ref * ref)
    assert_same_terms(p ** 2, ref ** 2)
    assert [k[0] for k in (p * p).terms] == [0, 1, 3, 2, 4]
    # a sum that cancels every term is the zero polynomial
    rng = seeded(41)
    for _ in range(20):
        t = rand_terms(rng)
        a, ra = ConjPoly(t), RefPoly(t)
        assert_same_terms(a - a, ra - ra)
        assert (a - a).is_zero and (a - a) == ConjPoly.zero()
        assert_same_terms(a * ConjPoly.zero(), ra * RefPoly({}))
        assert_same_terms(ConjPoly.zero() + a, RefPoly({}) + ra)
        # a sum that cancels to zero, taken as an operand again
        assert_same_terms((a - a) * a, (ra - ra) * ra)
        assert_same_terms(a + (a - a), ra + (ra - ra))
        assert_same_terms((a - a) - a, (ra - ra) - ra)
        assert_same_terms(a ** 0, ra ** 0)


def test_rational_construction_matches_the_reference():
    rng = seeded(42)
    for _ in range(40):
        tn, td = rand_terms(rng), rand_terms(rng, 3)
        shift = ConjPoly({(rng.randrange(3), 0, rng.randrange(3), 0):
                          CRat(1)})
        num, d = ConjPoly(tn) * shift * shift.conjugate(), ConjPoly(td)
        den = d * d.conjugate() * shift * shift.conjugate()
        if num.is_zero:
            continue
        r = ConjRational(num, den)
        want_num, want_den = ref_strip_content(RefPoly(num.terms),
                                               RefPoly(den.terms))
        assert_same_terms(r.num, want_num)
        assert_same_terms(r.den, want_den)
        assert den.is_real and r.den.is_real


def test_equal_polynomials_share_one_canonical_form():
    half = CRat(Fraction(1, 2))
    third = CRat(Fraction(0), Fraction(1, 3))
    routes = [
        (Z1 * half + Z1 * half, Z1),
        ((Z1 * half + Z2 * third) * (Z1 * half - Z2 * third),
         Z1 ** 2 * CRat(Fraction(1, 4)) + Z2 ** 2 * CRat(Fraction(1, 9))),
        ((Z1 * CRat(Fraction(3, 4))).wirtinger("z1") * 4, ConjPoly.const(3)),
        (Z1 * half - Z1 * half, ConjPoly.zero()),
        (ConjPoly({(1, 0, 0, 0): CRat(Fraction(2, 6), Fraction(1, 4))}),
         Z1 * CRat(Fraction(1, 3), Fraction(1, 4))),
    ]
    for built, direct in routes:
        assert built == direct
        assert built._den == direct._den
        assert built._num == direct._num
    assert ConjPoly.zero()._den == 1


def test_is_real_checks_each_mirrored_term():
    rng = seeded(43)
    for _ in range(30):
        a = ConjPoly(rand_terms(rng))
        assert (a * a.conjugate()).is_real
        assert (a + a.conjugate()).is_real
        assert a.is_real == (a == a.conjugate())
    assert not (Z1 * C1 + Z1).is_real
    assert not (Z1 * CRat(0, 1) + C1 * CRat(0, 1)).is_real
    assert (Z1 * CRat(0, 1) - C1 * CRat(0, 1)).is_real


# polynomial rationals skip the denominator algebra -------------------------

ONE = RefPoly({(0, 0, 0, 0): CRat(1)})


def ref_rational(num: RefPoly, den: RefPoly):
    """What ConjRational(num, den) stores: den 1 for the zero function,
    else num and den without their shared real monomial."""
    if not num.terms:
        return num, ONE
    return ref_strip_content(num, den)


def as_ref(r: ConjRational):
    """A rational built by the general constructor, as reference parts."""
    return RefPoly(r.num.terms), RefPoly(r.den.terms)


def assert_same_rational(r: ConjRational, want):
    assert_same_terms(r.num, want[0])
    assert_same_terms(r.den, want[1])
    assert r.num._den == ConjPoly(want[0].terms)._den
    assert r.den._den == ConjPoly(want[1].terms)._den
    # a denominator equal to 1 is the shared one, so the fast paths see it
    assert (r.den is symfun._ONE) == (r.den == ConjPoly.one())


def rand_rationals(rng):
    """Operands with denominator 1, a constant denominator and a real
    polynomial denominator, with their reference numerator and
    denominator."""
    out = []
    for kind in ("one", "one", "const", "poly"):
        num = ConjPoly(rand_terms(rng, rng.randrange(0, 5), max_exp=1))
        if kind == "one":
            den = ConjPoly.one()
        elif kind == "const":
            den = ConjPoly.const(rng.choice((2, 3, Fraction(1, 6))))
        else:
            d = ConjPoly(rand_terms(rng, 2, max_exp=1)) + 1
            den = d * d.conjugate()
        r = ConjRational(num) if kind == "one" else ConjRational(num, den)
        out.append((r, RefPoly(r.num.terms), RefPoly(r.den.terms)))
    return out


def test_polynomial_rational_arithmetic_matches_the_general_path():
    rng = seeded(44)
    for _ in range(25):
        # and the zero function, against operands over denominators other
        # than 1, which a zero operand returns or zeroes without their
        # denominator algebra
        zero = ConjRational.zero()
        ops = rand_rationals(rng) + [(zero, RefPoly({}), ONE)]
        for a, ra_n, ra_d in ops:
            for b, rb_n, rb_d in ops:
                same_den = ra_d.terms == rb_d.terms
                # the general constructor on the formula of each operation
                assert_same_rational(
                    a * b, ref_rational(ra_n * rb_n, ra_d * rb_d))
                assert_same_rational(
                    a * b, as_ref(ConjRational(a.num * b.num, a.den * b.den)))
                want_sum = (ref_rational(ra_n + rb_n, ra_d) if same_den else
                            ref_rational(ra_n * rb_d + rb_n * ra_d, ra_d * rb_d))
                assert_same_rational(a + b, want_sum)
                want_diff = (ref_rational(ra_n - rb_n, ra_d) if same_den else
                             ref_rational(ra_n * rb_d - rb_n * ra_d,
                                          ra_d * rb_d))
                assert_same_rational(a - b, want_diff)
                assert (a == b) == ((ra_n * rb_d).terms == (rb_n * ra_d).terms)
            for idx, var in enumerate(("z1", "c1", "z2", "c2")):
                if a.is_polynomial:
                    want = ref_rational(ra_n.wirtinger(idx), ra_d)
                else:
                    want = ref_rational(
                        ra_n.wirtinger(idx) * ra_d - ra_n * ra_d.wirtinger(idx),
                        ra_d * ra_d)
                assert_same_rational(a.wirtinger(var), want)
                if a.is_polynomial:
                    assert_same_rational(a.wirtinger(var), as_ref(
                        ConjRational(a.num.wirtinger(var), a.den)))
        c = rand_crat(rng)
        for x in (c, c.re, int(c.re.numerator), CRat(0)):
            coeff = CRat(0) + x
            want = RefPoly({(0, 0, 0, 0): coeff})
            assert_same_rational(ConjRational.const(x), (want, ONE))
            assert ConjPoly.const(x) == ConjPoly({(0, 0, 0, 0): coeff})


def test_eval_numeric_is_bit_identical_to_the_reference():
    rng = seeded(45)
    nrng = np.random.default_rng(45)
    for _ in range(40):
        p = ConjPoly(rand_terms(rng, rng.randrange(1, 7), max_exp=4))
        for shape in ((), (1,), (8,), (17, 8)):
            z1, z2 = (nrng.normal(size=shape) + 1j * nrng.normal(size=shape)
                      for _ in range(2))
            got = p.eval_numeric(z1, z2)
            want = ref_eval_numeric(p, z1, z2)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", NAMES)
def test_the_jet_is_bit_identical_to_the_reference(name):
    # the values at the points, the conj(z)-partials of the Richardson step
    # and D from them (apply_D_at at one point), as the reference
    # differences them one real direction at a time
    g = inverse_function(builtin(name).f)
    nrng = np.random.default_rng(46)
    for shape in ((), (1,), (8,), (3, 4)):
        z1, z2 = (nrng.normal(size=shape) + 1j * nrng.normal(size=shape)
                  for _ in range(2))
        w = _jet_stencil(g.eval_numeric, z1, z2)
        bar = _bar_passes(w)
        f1, f2, d1, d2 = ref_numeric_jet(g.eval_numeric, z1, z2)
        assert w.shape == (17, 2) + shape and bar.shape == (2, 2, 2) + shape
        rich = richardson(bar)
        pairs = [(w[0, 0], f1), (w[0, 1], f2), (rich[0, 0], d1["z1b"]),
                 (rich[0, 1], d2["z1b"]), (rich[1, 0], d1["z2b"]),
                 (rich[1, 1], d2["z2b"])]
        want_D = (0.5 * (d1["z1b"] - np.conj(d2["z2b"])),
                  0.5 * (d1["z2b"] + np.conj(d2["z1b"])))
        pairs += list(zip(_richardson_D(bar), want_D))
        for got, want in pairs:
            assert np.shape(got) == np.shape(want) == shape
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("name", NAMES)
def test_dividing_by_a_polynomial_multiplies_by_no_constant_one(monkeypatch,
                                                                name):
    # the reference is the quotient N D' / (D N') of N/D by N'/D' with every
    # factor multiplied out, 1 included; p * 1 keeps p and its key order
    f = builtin(name).f
    m = modulus_function(f)

    def divided(r):
        return ConjRational(r.num * m.den, r.den * m.num)

    want = [divided(f.f1.conjugate()), -divided(f.f2)]
    ones = []
    mul = ConjPoly.__mul__

    def spy(self, other):
        if ConjPoly.one() in (self, other):
            ones.append((str(self), str(other)))
        return mul(self, other)

    monkeypatch.setattr(ConjPoly, "__mul__", spy)
    g = inverse_function(f)
    monkeypatch.undo()
    for got, ref in zip((g.f1, g.f2), want):
        for a, b in ((got.num, ref.num), (got.den, ref.den)):
            assert a == b and list(a.terms) == list(b.terms)
    if f.is_polynomial:
        assert ones == []


@pytest.mark.parametrize("name", NAMES)
def test_a_shared_denominator_evaluates_as_each_component_does(name):
    # an inverse has one denominator |f|^2 in both components, unless one
    # is 0; QFunction.eval_numeric evaluates it once
    g = inverse_function(builtin(name).f)
    assert (g.f1.den == g.f2.den) == (name != "holo")
    nrng = np.random.default_rng(47)
    for shape in ((), (1,), (8,), (17, 8)):
        z1, z2 = (nrng.normal(size=shape) + 1j * nrng.normal(size=shape)
                  for _ in range(2))
        got = g.eval_numeric(z1, z2)
        want = (g.f1.eval_numeric(z1, z2), g.f2.eval_numeric(z1, z2))
        for a, b in zip(got, want):
            assert type(a) is type(b) and np.shape(a) == np.shape(b)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def ref_eval_screened(r: ConjRational, z1, z2):
    """num / den with den evaluated in full, 1 included, and the pole rule
    |den| <= POLE_RTOL * max(sum of den's term sizes, 1e-300)."""
    a1, a2 = np.abs(np.asarray(z1, complex)), np.abs(np.asarray(z2, complex))
    scale = sum(abs(complex(c)) * a1 ** (a + b) * a2 ** (c_ + d)
                for (a, b, c_, d), c in r.den.terms.items())
    with np.errstate(all="ignore"):
        d = r.den.eval_numeric(z1, z2)
        values = r.num.eval_numeric(z1, z2) / d
    return values, np.abs(d) <= symfun.POLE_RTOL * np.maximum(scale, 1e-300)


def test_a_polynomial_screens_as_its_quotient_by_one():
    # a polynomial skips evaluating and sizing its denominator 1, but not
    # the division by it, which turns inf + 1j into inf + nanj; 1e308 z1
    # overflows in one part and not the other
    rng = seeded(48)
    nrng = np.random.default_rng(48)
    polys = [ConjPoly(rand_terms(rng, rng.randrange(0, 6), max_exp=3))
             for _ in range(20)]
    big = ConjPoly.const(10 ** 308) * Z1
    polys += [Z1 ** 2000, Z1 ** 2000 * CRat(0, 1) + C2 ** 3, big,
              ConjPoly.zero()]
    for p in polys:
        r = ConjRational(p)
        for shape in ((), (1,), (8,), (17, 8)):
            z1, z2 = (1.5 * (nrng.normal(size=shape)
                             + 1j * nrng.normal(size=shape))
                      for _ in range(2))
            with np.errstate(all="ignore"):
                got = r.eval_screened(z1, z2)
            want = ref_eval_screened(r, z1, z2)
            for a, b in zip(got, want):
                assert np.shape(a) == np.shape(b)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    with np.errstate(all="ignore"):
        values, pole = ConjRational(big).eval_screened(np.array([2 + 0.5j]),
                                                      np.array([0j]))
    assert np.isinf(values.real).all() and np.isnan(values.imag).all()
    assert not pole.any()


@pytest.mark.parametrize("z1, z2", [(0.5, 0.25),
                                    (np.full(3, 0.5), np.full(3, 0.25))],
                         ids=["scalar", "array"])
def test_a_polynomial_and_a_rational_screen_to_one_mask_type(z1, z2):
    # the mask of a denominator 1 at a single point was a 0-d array, while a
    # screened denominator's was a numpy bool
    _, poly_mask = parse_rational("z1").eval_screened(z1, z2)
    _, rat_mask = parse_rational("z1/(1 + z1*c1)").eval_screened(z1, z2)
    assert type(poly_mask) is type(rat_mask)
    assert poly_mask.shape == rat_mask.shape == np.shape(z1)
    assert not poly_mask.any() and not rat_mask.any()


def test_a_polynomial_evaluates_as_its_quotient_by_one():
    # eval_numeric skips evaluating a denominator 1, alone or shared by
    # both components, but divides by it, as eval_screened does
    rng = seeded(50)
    nrng = np.random.default_rng(50)
    polys = [ConjPoly(rand_terms(rng, rng.randrange(0, 6), max_exp=3))
             for _ in range(20)]
    polys += [ConjPoly.const(10 ** 308) * Z1, ConjPoly.zero()]
    one = ConjPoly.one()
    for p, q in zip(polys, polys[1:]):
        f = QFunction.from_polys(p, q)
        for shape in ((), (1,), (8,), (17, 8)):
            z1, z2 = (1.5 * (nrng.normal(size=shape)
                             + 1j * nrng.normal(size=shape))
                      for _ in range(2))
            with np.errstate(all="ignore"):
                got = (f.f1.eval_numeric(z1, z2), *f.eval_numeric(z1, z2))
                d = one.eval_numeric(z1, z2)
                want = [r.eval_numeric(z1, z2) / d for r in (p, p, q)]
            for a, b in zip(got, want):
                assert type(a) is type(b) and np.shape(a) == np.shape(b)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_a_constant_denominator_is_folded_into_the_coefficients():
    # num / c is the polynomial num * (1/c) in num's key order, after a
    # shared real monomial is cancelled, and differentiates as one
    rng = seeded(52)
    for _ in range(30):
        num = ConjPoly(rand_terms(rng, rng.randrange(1, 6), max_exp=3))
        c = Fraction(rng.choice((1, -1)) * rng.randrange(1, 50),
                     rng.randrange(1, 9))
        want = num * ConjPoly.const(1 / c)
        for r in (ConjRational(num, ConjPoly.const(c)),
                  ConjRational(num * Z1 * C1, Z1 * C1 * CRat(c))):
            assert r.den is symfun._ONE and r.is_polynomial
            assert r.num == want and list(r.num.terms) == list(want.terms)
            assert r.wirtinger("c1") == ConjRational(want.wirtinger("c1"))
    assert str(parse_qfunction("(z1 + 3*c2)/6 ; 0")) == "1/6*z1 + 1/2*c2 ; 0"


def test_halving_is_the_product_with_one_half():
    # the numerator's denominator doubled and reduced once: the product
    # with the constant 1/2, key order and denominator included
    rng = seeded(51)
    half = ConjRational.const(Fraction(1, 2))
    dens = [ConjPoly.one(), Z1 * C1 + Z2 * C2, Z1 * C1 * CRat(3)
            + ConjPoly.const(Fraction(1, 2))]
    for i in range(60):
        num = ConjPoly(rand_terms(rng, rng.randrange(0, 6), max_exp=3))
        r = ConjRational(num, dens[i % 3])
        got, want = r.halved(), half * r
        for a, b in ((got.num, want.num), (got.den, want.den)):
            assert a == b and list(a.terms) == list(b.terms)
            assert a._den == b._den


# every catalogue f and its inverse, an f that overflows, and a shared
# denominator |z1|^2 - 1 with a zero set off the origin
SCREENED = {name: builtin(name).f for name in NAMES}
SCREENED.update({f"1/{name}": inverse_function(f)
                 for name, f in list(SCREENED.items())})
SCREENED["z1^2000 ; 0"] = parse_qfunction("z1^2000 ; 0")
SCREENED["unit circle"] = parse_qfunction(
    "(z1) / (z1*c1 - 1) ; (z2 + 1) / (z1*c1 - 1)")
# the names whose points below include a pole: the origin for cauchy_kernel,
# for the inverses of the entries that vanish there and for 1/cauchy_kernel,
# whose denominator keeps a power of |q|^2 that its numerator shares,
# Re z1 = Re z2 = 0 for 1/prop34, |z1| = 1 for the unit circle
SCREEN_POLES = {"cauchy_kernel", "1/conj", "1/cauchy_kernel", "1/F",
                "1/prop34", "1/holo", "1/q_conj", "unit circle"}


def screened_points(nrng, shape):
    """Gaussian points of shape, scaled by 1.5, with the origin, an
    imaginary pair and a point of |z1| = 1 in front where they fit."""
    z1, z2 = (1.5 * (nrng.normal(size=shape) + 1j * nrng.normal(size=shape))
              for _ in range(2))
    special = [(0j, 0j), (0.3j, -1.1j), (np.exp(0.7j), 0.4 + 0.2j)]
    for i, (a, b) in enumerate(special[:z1.size]):
        z1.flat[i], z2.flat[i] = a, b
    return z1, z2


@pytest.mark.parametrize("name", SCREENED)
def test_a_function_screens_as_its_components_do(name):
    # one pole mask, the OR of the components', and each component's values
    # byte for byte, with a shared denominator evaluated and sized once
    f = SCREENED[name]
    nrng = np.random.default_rng(49)
    poles = False
    for shape in ((), (1,), (8,), (17, 8)):
        z1, z2 = screened_points(nrng, shape)
        with np.errstate(all="ignore"):
            v1, v2, pole = f.eval_screened(z1, z2)
            w1, p1 = f.f1.eval_screened(z1, z2)
            w2, p2 = f.f2.eval_screened(z1, z2)
        for got, want in ((v1, w1), (v2, w2), (pole, p1 | p2)):
            assert type(got) is type(want) and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        poles = poles or pole.any()
    assert poles == (name in SCREEN_POLES)


@pytest.mark.parametrize("name", SCREENED)
def test_float_eval_is_each_component_screened_on_its_own(name):
    # the same bytes as f1 and f2 evaluated one after the other, and the
    # same PoleError where either has a pole
    f = SCREENED[name]
    z1, z2 = screened_points(np.random.default_rng(50), (12,))
    raised = 0
    for q in (Quat(complex(a), complex(b)) for a, b in zip(z1, z2)):
        try:
            with np.errstate(all="ignore"):
                want = ref_eval_float(f, q)
        except PoleError as exc:
            with pytest.raises(PoleError) as got:
                f.eval(q)
            assert str(got.value) == str(exc)
            raised += 1
            continue
        with np.errstate(all="ignore"):
            got = f.eval(q)
        for a, b in ((got.z1, want.z1), (got.z2, want.z2)):
            assert type(a) is type(b) is complex
            assert (a.real.hex(), a.imag.hex()) == (b.real.hex(),
                                                    b.imag.hex())
    assert bool(raised) == (name in SCREEN_POLES)


def test_rational_results_prove_no_product_denominator_real(monkeypatch):
    # a product of real denominators is real; only the public constructor
    # and divide_by_real's check on the divisor read is_real
    d = (Z1 + 1) * (C1 + 1)
    a = ConjRational(Z1 * C2 + 1, d)
    b = ConjRational(Z2 - C1, d * d + 1)
    checked = []
    is_real = ConjPoly.is_real

    monkeypatch.setattr(ConjPoly, "is_real", property(
        lambda self: checked.append(str(self)) or is_real.fget(self)))
    for r in (a * b, a + b, a - a * a, a.wirtinger("z1"),
              b.wirtinger("c2")):
        assert r.den.is_real is True
    assert len(checked) == 5
    checked.clear()
    a.divide_by_real(b * b.conjugate())
    assert checked == [str((b * b.conjugate()).num)]
    with pytest.raises(ValueError):
        ConjRational(Z1, Z1 + 1)


# operands of the operand rule: a ConjPoly, a ConjRational, a QFunction
# and a Quat
P = Z1 * C2 + 1
R = ConjRational(Z1, Z1 * C1 + 1)
F = parse_qfunction("z1 ; c2")
Q = Quat(CRat(1, 2), CRat(-1))


@pytest.mark.parametrize("form", [
    lambda: 3 * P, lambda: 1 - P, lambda: CRat(2) * R, lambda: 1 - F,
    lambda: F * 2, lambda: F + P, lambda: Q + 1, lambda: 2 * Q,
    lambda: sum([F, F])],
    ids=["3*p", "1-p", "CRat(2)*r", "1-f", "f*2", "f+p", "q+1", "2*q",
         "sum([f,f])"])
def test_a_scalar_on_the_left_or_a_foreign_operand_is_refused(form):
    # no class of the exact algebra but CRat defines a reflected operator
    with pytest.raises(TypeError):
        form()


def test_scalars_on_the_right_still_coerce():
    assert P * 3 == P + P + P
    assert P - CRat(1) == Z1 * C2
    assert R * P == R * ConjRational(P)
    assert R * CRat(2) == R + R
    assert (F * F).f1 == F.f1 * F.f1 - F.f2 * F.f2.conjugate()
    # (1 + 2i - j)^2 = (1 + 2i)^2 - 1 + ((1 + 2i)(-1) - (1 - 2i)) j
    assert Q * Q == Quat(CRat(-4, 4), CRat(-2))
    c = CRat(1, 2)
    assert [c + 1, 1 + c, c - 1, 1 - c] == [CRat(2, 2), CRat(2, 2),
                                            CRat(0, 2), CRat(0, -2)]
    assert [c * 2, 2 * c, c / 2, 2 / c] == [
        CRat(2, 4), CRat(2, 4), CRat(Fraction(1, 2), 1),
        CRat(Fraction(2, 5), Fraction(-4, 5))]
