"""Symbolic polynomials/rationals: evaluation homomorphisms, derivative
oracles by finite differences, and exact structure."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (RefPoly, rand_crat, rand_point, rand_poly, rand_quat,
                     rand_terms, ref_eval_numeric, ref_numeric_jet,
                     ref_strip_content, seeded)
from qres.errors import PoleError
from qres.catalogue import NAMES, builtin
from qres.operators import inverse_function
from qres.qcore import CRat, Quat
from qres import symfun
from qres.symfun import (ConjPoly, ConjRational, QFunction, numeric_jet,
                         poly_vanishing_order, vanishing_order,
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


def test_numeric_jet_matches_symbolic_derivatives():
    rng = seeded(15)
    f = QFunction.from_polys(rand_poly(rng, 3, 4), rand_poly(rng, 3, 4))
    for _ in range(8):
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        jet = numeric_jet(f.eval_numeric, z1, z2)
        for var in ("z1", "c1", "z2", "c2"):
            want1 = complex(f.f1.wirtinger(var).eval_numeric(z1, z2))
            want2 = complex(f.f2.wirtinger(var).eval_numeric(z1, z2))
            assert jet.partial(1, var) == pytest.approx(want1, rel=1e-7, abs=1e-7)
            assert jet.partial(2, var) == pytest.approx(want2, rel=1e-7, abs=1e-7)


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
        # a chain of operations on smaller polynomials, so the reference
        # stays quick
        ts = [rand_terms(rng, 3, max_exp=1) for _ in range(3)]
        (x, y, z), (rx, ry, rz) = map(ConjPoly, ts), map(RefPoly, ts)
        got = ((x * y + z) ** 2 - x).wirtinger("z2").conjugate() * z
        want = ((rx * ry + rz) ** 2 - rx).wirtinger(2).conjugate() * rz
        assert_same_terms(got, want)
        p1, p2 = rand_crat(rng, 3), rand_crat(rng, 3)
        assert_same_terms(a.shifted(p1, p2), ra.shifted(p1, p2))


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
        ops = rand_rationals(rng)
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
def test_numeric_jet_is_bit_identical_to_the_reference(name):
    g = inverse_function(builtin(name).f)
    nrng = np.random.default_rng(46)
    for shape in ((), (1,), (8,), (3, 4)):
        z1, z2 = (nrng.normal(size=shape) + 1j * nrng.normal(size=shape)
                  for _ in range(2))
        jet = numeric_jet(g.eval_numeric, z1, z2)
        f1, f2, d1, d2 = ref_numeric_jet(g.eval_numeric, z1, z2)
        pairs = [(jet.f1, f1), (jet.f2, f2)]
        pairs += [(jet.d1[k], d1[k]) for k in d1]
        pairs += [(jet.d2[k], d2[k]) for k in d2]
        assert list(jet.d1) == list(d1) and list(jet.d2) == list(d2)
        for got, want in pairs:
            if shape == ():
                assert type(got) is complex
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
